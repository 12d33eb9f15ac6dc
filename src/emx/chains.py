"""Chained compression of arbitrary samples down to a d-point kernel, and
the union-expansion decompression.

Compressing M points with an arity-d scheme takes M - d steps, each
applying sigma to a (d+1)-subset of the live set and ejecting one point.
One loop does it: compress_kernel returns the kernel and stores each
step's sigma output in the caller's memo; compress_chain passes a fresh
memo and reads the steps back from it into an audit trace.
Decompression starts from eta(kernel) and repeatedly unions in eta of
every d-subset of the current set; after M - d rounds the result contains
every original point, because at some step sigma mapped exactly the d
points that ejected it, and those d points are reached first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from .schemes import MonotoneScheme, SchemeError

DEFAULT_CAP = 1_000_000

TRACE_HEADER = "# emx-trace 1"


class ResourceLimitError(RuntimeError):
    """Decompression grew past the configured cap."""

    def __init__(self, iteration: int, size: int, cap: int):
        super().__init__(
            f"decompression exceeded cap {cap} at iteration {iteration} "
            f"with {size} elements"
        )
        self.iteration = iteration
        self.size = size
        self.cap = cap


@dataclass(frozen=True)
class CompressionTrace:
    """Reproducible record of one chained compression: the original set,
    every (input subset, ejected point) step, and the final kernel."""

    original: frozenset[int]
    steps: tuple[tuple[frozenset[int], int], ...]
    kernel: frozenset[int]

    def __post_init__(self):
        if len(self.steps) != len(self.original) - len(self.kernel):
            raise ValueError("step count must equal |original| - |kernel|")
        live = set(self.original)
        for subset, ejected in self.steps:
            if ejected not in subset or not subset <= live:
                raise ValueError("trace step inconsistent with the live set")
            live.remove(ejected)
        if live != set(self.kernel):
            raise ValueError("kernel does not match the replayed steps")


def compress_kernel(
    points: Iterable[int],
    scheme: MonotoneScheme,
    memo: dict[tuple[frozenset[int], int], frozenset[int]],
) -> frozenset[int]:
    """Compress a point set to a kernel of scheme.m points.

    Subset policy: each step feeds sigma the d+1 smallest-id live points.
    Any policy round-trips (decompression unions over all d-subsets);
    fixing one makes traces replayable. Sorting once suffices: the kept
    points precede every point not yet fed, which enter in id order.

    A step depends only on the kept points and the next point, so memo
    maps each (kept, pid) already stepped to sigma(kept | {pid}) and is
    read before sigma is called. A memo belongs to one scheme and is
    filled by every call that passes it; the caller bounds it. sigma's
    checks run on every step not yet in the memo, and a step whose sigma
    raises is not stored. Each step's pid is larger than the last, so a
    cold memo ends up holding exactly this call's steps, in order; a warm
    one gives the same kernel.
    """
    order = sorted(frozenset(points))
    d = scheme.m
    if len(order) < d:
        raise ValueError(f"need at least {d} distinct points, got {len(order)}")
    kept = frozenset(order[:d])
    for pid in order[d:]:
        new = memo.get((kept, pid))
        if new is None:
            new = memo[kept, pid] = scheme.sigma(kept | {pid})
        kept = new
    return kept


def compress_chain(points: Iterable[int], scheme: MonotoneScheme) -> CompressionTrace:
    """Compress a point set by compress_kernel with a fresh memo, and
    record the steps that memo holds, in order, in a validated
    CompressionTrace."""
    original = frozenset(points)
    memo: dict[tuple[frozenset[int], int], frozenset[int]] = {}
    kernel = compress_kernel(original, scheme, memo)
    steps = []
    for (kept, pid), new in memo.items():
        beta = kept | {pid}
        (ejected,) = beta - new
        steps.append((beta, ejected))
    return CompressionTrace(original, tuple(steps), kernel)


def decompress_chain(
    kernel: Iterable[int],
    scheme: MonotoneScheme,
    iterations: int,
    cap: int = DEFAULT_CAP,
) -> frozenset[int]:
    """Union-expand a kernel: R0 = eta(kernel), then each round adds eta of
    every d-subset of the cumulative set, for the given number of rounds.

    Growth is monotone and every round adds finitely many points. Subsets
    already expanded are memoized and skipped, and expansion stops early
    once a round adds nothing (no later round could). It also stops, at
    the start of a round or in the middle of one, as soon as the set holds
    every point eta could still add: on a scheme with a universe (the
    point set of a finite domain, which eta never leaves) all of it, and
    on a scheme that declares a ceiling (eta(t) inside the ids 0..max(t))
    all of 0..max(R0), which no expansion of subsets of R0's ids can
    leave; on a scheme with both, whichever is smaller. The eta calls
    left could add nothing, so they are not made, and any error they
    would raise is not raised. Under a ceiling every eta output computed
    here is checked, and one outside 0..max(t) raises SchemeError. The cap
    turns combinatorial blowup into an explicit error naming the
    iteration and the size reached; the stop changes neither the result
    nor that error.
    """
    kernel = frozenset(kernel)
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    d = scheme.m
    eta = _under_ceiling(scheme.eta) if scheme.ceiling else scheme.eta
    current = set(eta(kernel))
    if len(current) > cap:
        raise ResourceLimitError(0, len(current), cap)
    # how many points the set holds once it holds every one eta could add
    full = len(scheme.universe) if scheme.universe is not None else None
    if scheme.ceiling:
        top = max(current, default=-1) + 1
        full = top if full is None else min(full, top)
    expanded = {kernel}
    for iteration in range(1, iterations + 1):
        before = len(current)
        if before == full:
            break
        for combo in combinations(sorted(current), d):
            t = frozenset(combo)
            if t in expanded:
                continue
            expanded.add(t)
            current |= eta(t)
            if len(current) == full:
                break
        if len(current) == before:
            break
        if len(current) > cap:
            raise ResourceLimitError(iteration, len(current), cap)
    return frozenset(current)


def _under_ceiling(
    eta: Callable[[frozenset[int]], frozenset[int]],
) -> Callable[[frozenset[int]], frozenset[int]]:
    """eta, checked against a declared ceiling: each output must lie inside
    the ids 0..max(t)."""

    def checked(t: frozenset[int]) -> frozenset[int]:
        out = eta(t)
        top = max(t, default=-1)
        if out and (min(out) < 0 or max(out) > top):
            outside = sorted(p for p in out if not 0 <= p <= top)
            raise SchemeError(
                f"eta output leaves 0..{top} under the scheme's ceiling at {outside[:5]}"
            )
        return out

    return checked


def trace_to_text(trace: CompressionTrace) -> str:
    """Line-oriented trace dump: one step per line as `input ids | ejected`."""
    lines = [TRACE_HEADER]
    lines.append("original: " + " ".join(map(str, sorted(trace.original))))
    for subset, ejected in trace.steps:
        lines.append("step: " + " ".join(map(str, sorted(subset))) + " | " + str(ejected))
    lines.append("kernel: " + " ".join(map(str, sorted(trace.kernel))))
    return "\n".join(lines) + "\n"

