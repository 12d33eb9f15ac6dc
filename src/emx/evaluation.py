"""Compose compress-then-reconstruct learners and measure their failure
probability by seeded Monte Carlo.

A trial fails when the hypothesis captures at most 1 - epsilon of the
mass; the comparison is exact (integer weights over the distribution's
common denominator), uses <= on the boundary, and the best capturable
mass is exactly 1 because the support itself is a hypothesis. Floats
enter only in the confidence half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .chains import DEFAULT_CAP, ResourceLimitError, compress_chain, decompress_chain
from .core import FiniteSupportDistribution, draw_sample
from .core import expectation  # noqa: F401  perfbench/tracer.py wraps it under this name
from .schemes import MonotoneScheme, SchemeError
from .seeds import split_seed


@dataclass(frozen=True)
class EmxLearner:
    """Proper learner: compress the sample's distinct points to a d-point
    kernel, then union-expand it back to a finite hypothesis with
    M - d reconstruction rounds (M the number of distinct points)."""

    scheme: MonotoneScheme
    d: int
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.d != self.scheme.m:
            raise ValueError("kernel size d must equal the scheme arity m")


def _compress_sample(
    learner: EmxLearner, distinct: frozenset[int]
) -> tuple[frozenset[int], int] | None:
    """The (kernel, rounds) the learner reconstructs a sample from, given
    the sample's distinct points; None when there are fewer than d of them
    and the sample itself is the hypothesis."""
    if len(distinct) < learner.d:
        return None
    return compress_chain(distinct, learner.scheme).kernel, len(distinct) - learner.d


def apply_learner(learner: EmxLearner, draws: Iterable[int]) -> frozenset[int]:
    """Hypothesis for one sample's draws; always finite.

    A sample with fewer than d distinct points is returned as its set of
    points (proper and sound). Reconstruction-cap overruns propagate as
    ResourceLimitError.
    """
    distinct = frozenset(draws)
    compressed = _compress_sample(learner, distinct)
    if compressed is None:
        return distinct
    kernel, rounds = compressed
    return decompress_chain(kernel, learner.scheme, rounds, learner.cap)


@dataclass(frozen=True)
class TrialRecord:
    index: int
    seed: int
    captured: Fraction | None
    failed: bool
    error: str | None


@dataclass(frozen=True)
class EvalReport:
    """Empirical failure rate over seeded trials, with a binomial
    normal-approximation half-width at the stated confidence."""

    m: int
    epsilon: Fraction
    trials: int
    completed: int
    failures: int
    errors: int
    failure_rate: Fraction
    ci_halfwidth: float
    confidence: float
    master_seed: int
    records: tuple[TrialRecord, ...] | None = None


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF by bisection on math.erf."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile probability must be in (0, 1)")
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if 0.5 * (1 + math.erf(mid / math.sqrt(2))) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def evaluate(
    learner: EmxLearner,
    dist: FiniteSupportDistribution,
    m: int,
    epsilon: Fraction | int | str,
    trials: int,
    seed: int,
    confidence: float = 0.99,
    keep_records: bool = False,
) -> EvalReport:
    """Run independent sample-learn-measure rounds.

    Trial i draws with split_seed(seed, i), so identical arguments
    reproduce the report exactly. Learner errors (reconstruction cap) are
    counted separately, never dropped; the failure rate is over completed
    trials. The hypothesis is finite by construction, and every trial
    checks that it captures at least the sample's own distinct mass, which
    a sound scheme guarantees because the reconstruction contains the
    sample; an unsound scheme raises SchemeError.

    Masses are compared as integer weights over the common denominator.
    A per-call memo keyed by (kernel, rounds) keeps each kernel's captured
    weight or cap error, so no kernel is decompressed twice.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    threshold = 1 - epsilon
    denom = dist.denominator
    # captured <= threshold  iff  weight * threshold.den <= threshold.num * D
    fail_limit = threshold.numerator * denom
    memo: dict[tuple[frozenset[int], int], int | ResourceLimitError] = {}

    def run(index: int) -> TrialRecord:
        child = split_seed(seed, index)
        distinct = frozenset(draw_sample(dist, m, child))
        floor = dist.captured_weight(distinct)
        compressed = _compress_sample(learner, distinct)
        if compressed is None:
            weight = floor
        else:
            weight = memo.get(compressed)
            if weight is None:
                kernel, rounds = compressed
                try:
                    weight = dist.captured_weight(
                        decompress_chain(kernel, learner.scheme, rounds, learner.cap)
                    )
                except ResourceLimitError as err:
                    # kept without its traceback, which holds the decompression's frames
                    weight = err.with_traceback(None)
                memo[compressed] = weight
            if isinstance(weight, ResourceLimitError):
                return TrialRecord(index, child, None, False, str(weight))
        if weight < floor:
            raise SchemeError(f"trial {index}: hypothesis lost sample mass (scheme unsound)")
        failed = weight * threshold.denominator <= fail_limit
        return TrialRecord(index, child, Fraction(weight, denom), failed, None)

    records = [run(i) for i in range(trials)]

    errors = sum(1 for r in records if r.error is not None)
    completed = trials - errors
    failures = sum(1 for r in records if r.failed)
    rate = Fraction(failures, completed) if completed else Fraction(0)
    if completed:
        z = normal_quantile(0.5 + confidence / 2)
        halfwidth = z * math.sqrt(float(rate) * (1 - float(rate)) / completed)
    else:
        halfwidth = float("nan")
    return EvalReport(
        m=m,
        epsilon=epsilon,
        trials=trials,
        completed=completed,
        failures=failures,
        errors=errors,
        failure_rate=rate,
        ci_halfwidth=halfwidth,
        confidence=confidence,
        master_seed=seed,
        records=tuple(records) if keep_records else None,
    )
