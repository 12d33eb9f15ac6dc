"""Tracing from outside the library.

The tracer replaces public emx functions at the names their callers look
them up by (module globals and class attributes) with timing wrappers,
and puts the originals back on exit. Two kinds of wrapper:

- span: one record per call, with its parent span, its op id, start,
  end and self time. Used for op-level calls and for calls that enter a
  layer (evaluate, draw_sample, compress_chain, verify_soundness, ...).
- point: per-point calls (sigma, eta, key, enumerate_below, order_hash)
  are too many to record one by one; each adds only its count and self
  time to the innermost open span.

Self time is a call's duration minus the time its traced children
(spans and point calls) took. The library is single-threaded and never
waits on another thread or process, so no wait time is recorded.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# (module, attribute, span name): every place a caller finds the function.
SPAN_SITES = [
    ("emx.cli", "main", "cli.main"),
    ("emx.cli", "load_config", "config.load_config"),
    ("emx", "evaluate", "evaluation.evaluate"),
    ("emx.cli", "evaluate", "evaluation.evaluate"),
    ("emx.evaluation", "draw_sample", "core.draw_sample"),
    ("emx.evaluation", "expectation", "core.expectation"),
    ("emx", "compress_chain", "chains.compress_chain"),
    ("emx.evaluation", "compress_chain", "chains.compress_chain"),
    ("emx.cli", "compress_chain", "chains.compress_chain"),
    ("emx", "decompress_chain", "chains.decompress_chain"),
    ("emx.evaluation", "decompress_chain", "chains.decompress_chain"),
    ("emx.cli", "verify_soundness", "schemes.verify_soundness"),
    ("emx.analysis", "verify_soundness", "schemes.verify_soundness"),
    ("emx.cli", "search_schemes", "analysis.search_schemes"),
    ("emx.cli", "descend", "analysis.descend"),
    ("emx.analysis", "reconstruction_image", "analysis.reconstruction_image"),
]

# (module, class or None, attribute, point name)
POINT_SITES = [
    ("emx.schemes", "MonotoneScheme", "sigma", "schemes.sigma"),
    ("emx.schemes", "MonotoneScheme", "eta", "schemes.eta"),
    ("emx.towers", "OrderTower", "key", "towers.key"),
    ("emx.towers", "OrderTower", "enumerate_below", "towers.enumerate_below"),
    ("emx.towers", None, "order_hash", "towers.order_hash"),
]


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "self_s", "points", "extra")

    def __init__(self, span_id, parent, op, name):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = self.end = self.self_s = 0.0
        self.points: dict[str, list] | None = None
        self.extra: dict | None = None


class Tracer:
    """Installs wrappers while active; owns the recorded spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._child: list[float] = [0.0]  # child time of each open frame
        self._restore: list[tuple[object, str, object]] = []
        self._op = None

    # -- installation -------------------------------------------------

    def __enter__(self):
        for module, attr, name in SPAN_SITES:
            owner = sys.modules[module]
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for module, cls, attr, name in POINT_SITES:
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
            self._patch(owner, attr, self._point_wrapper(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording ----------------------------------------------------

    def run_op(self, op_id: int, label: str, fn, *args):
        """Call fn(*args) inside an op-level span."""
        self._op = op_id
        return self._span_wrapper("op", fn, label)(*args)

    def _span_wrapper(self, name, fn, label=None):
        tracer = self
        on_enter = _ENTER_HOOKS.get(name)
        on_exit = _EXIT_HOOKS.get(name)

        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            span = Span(len(tracer.spans), parent.id if parent else None, tracer._op, name)
            tracer.spans.append(span)
            if label is not None:
                span.extra = {"label": label}
            if on_enter is not None:
                on_enter(span, parent, args)
            tracer._open.append(span)
            tracer._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child = tracer._child.pop()
                tracer._open.pop()
                tracer._child[-1] += end - start
                span.start, span.end, span.self_s = start, end, end - start - child
            if on_exit is not None:
                on_exit(span, result)
            return result

        return traced

    def _point_wrapper(self, name, fn):
        tracer = self
        is_eta = name == "schemes.eta"

        def traced(*args, **kwargs):
            tracer._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = tracer._child.pop()
                tracer._child[-1] += elapsed
                span = tracer._open[-1]
                if span.points is None:
                    span.points = {}
                slot = span.points.get(name)
                if slot is None:
                    slot = span.points[name] = [0, 0.0]
                slot[0] += 1
                slot[1] += elapsed - child
            if is_eta and span.name == "chains.decompress_chain":
                seen = span.extra["seen"]
                if not result <= seen:
                    span.extra["novel"] += 1
                    seen |= result
            return result

        return traced

    # -- output -------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line of a gzip file, times relative
        to the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for s in self.spans:
                row = {
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start": round(s.start - origin, 9), "end": round(s.end - origin, 9),
                    "self": round(s.self_s, 9),
                }
                if s.points:
                    row["points"] = {k: [c, round(t, 9)] for k, (c, t) in s.points.items()}
                if s.extra and "label" in s.extra:
                    row["label"] = s.extra["label"]
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")


def _enter_decompress(span, parent, args):
    span.extra = {"seen": set(), "novel": 0, "out_size": 0}
    if parent is not None and parent.name == "evaluation.evaluate":
        if parent.extra is None:
            parent.extra = {"kernels": set(), "decompress": 0, "repeats": 0}
        kernel_key = (frozenset(args[0]), args[2])
        parent.extra["decompress"] += 1
        if kernel_key in parent.extra["kernels"]:
            parent.extra["repeats"] += 1
        parent.extra["kernels"].add(kernel_key)


def _exit_decompress(span, result):
    span.extra["out_size"] = len(result)
    del span.extra["seen"]


def _exit_evaluate(span, result):
    if span.extra is not None:
        del span.extra["kernels"]


def _exit_search(span, result):
    span.extra = {"nodes": result.nodes, "undecided": int(result.verdict == "UNDECIDED")}


_ENTER_HOOKS = {"chains.decompress_chain": _enter_decompress}
_EXIT_HOOKS = {
    "chains.decompress_chain": _exit_decompress,
    "evaluation.evaluate": _exit_evaluate,
    "analysis.search_schemes": _exit_search,
}

SPAN_LAYERS = sorted({name for _, _, name in SPAN_SITES})
POINT_LAYERS = [name for *_, name in POINT_SITES]


def layer_totals(spans: list[Span]) -> dict:
    """Sum calls and self time per layer name, plus the ratio counters
    together with their bases."""
    totals = {name: [0, 0.0] for name in SPAN_LAYERS + POINT_LAYERS}
    extra = {"eta_calls": 0, "novel": 0, "out_size_max": 0, "nodes": 0, "undecided": 0,
             "evaluate_decompress": 0, "repeats": 0}
    for s in spans:
        if s.name in totals:
            slot = totals[s.name]
            slot[0] += 1
            slot[1] += s.self_s
        for name, (count, self_s) in (s.points or {}).items():
            slot = totals[name]
            slot[0] += count
            slot[1] += self_s
        if s.name == "chains.decompress_chain":
            extra["eta_calls"] += (s.points or {}).get("schemes.eta", (0, 0.0))[0]
            extra["novel"] += s.extra["novel"]
            extra["out_size_max"] = max(extra["out_size_max"], s.extra["out_size"])
        elif s.name == "evaluation.evaluate" and s.extra is not None:
            extra["evaluate_decompress"] += s.extra["decompress"]
            extra["repeats"] += s.extra["repeats"]
        elif s.name == "analysis.search_schemes" and s.extra is not None:
            extra["nodes"] += s.extra["nodes"]
            extra["undecided"] += s.extra["undecided"]
    return {"layers": totals, "extra": extra}
