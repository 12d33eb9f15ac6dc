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
from typing import Callable, Iterable

from .chains import DEFAULT_CAP, ResourceLimitError, compress_kernel, decompress_chain
from .chains import compress_chain  # noqa: F401  perfbench/tracer.py wraps it under this name
from .core import FiniteSupportDistribution, draw_sample
from .core import expectation  # noqa: F401  perfbench/tracer.py wraps it under this name
from .schemes import MonotoneScheme, SchemeError
from .seeds import split_seed

# Point ids that each of learned_weights' memos (sample, step, kernel) may
# hold in its keys before it is cleared.
EVALUATE_MEMO_POINTS = 1 << 14


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


def apply_learner(learner: EmxLearner, draws: Iterable[int]) -> frozenset[int]:
    """Hypothesis for one sample's draws; always finite.

    The sample is compressed by compress_kernel with a fresh memo, and no
    CompressionTrace is built: only `emx compress` needs one. A sample
    with fewer than d distinct points is returned as its set of points
    (proper and sound). Reconstruction-cap overruns propagate as
    ResourceLimitError.
    """
    distinct = frozenset(draws)
    if len(distinct) < learner.d:
        return distinct
    kernel = compress_kernel(distinct, learner.scheme, {})
    return decompress_chain(kernel, learner.scheme, len(distinct) - learner.d, learner.cap)


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


class LostSampleMass(SchemeError):
    """A hypothesis captured less than its own sample's mass (scheme unsound)."""


def learned_weights(
    learner: EmxLearner, dist: FiniteSupportDistribution
) -> Callable[[frozenset[int]], int | ResourceLimitError]:
    """One run's memoized map from a sample's distinct set S to the captured
    weight of apply_learner's hypothesis on it, or its cap error.

    The hypothesis depends only on S, and a compression step only on the
    kept points and the next point, so three memos share work across calls:
    the sample memo, read first, maps each S learned to its result; the step
    memo, passed to compress_kernel, maps each (kept points, next point) to
    sigma's output; the kernel memo maps each (kernel, rounds) to its result.
    Before a new S is learned, each memo whose keys hold EVALUATE_MEMO_POINTS
    point ids is cleared (a step's next point and a kernel's rounds count one
    each). So sigma's checks run once per new step, and the floor check once
    per new S: it raises LostSampleMass if the hypothesis captures less than
    S's own weight. Errors other than the cap error are never stored.
    """
    d, scheme = learner.d, learner.scheme
    samples: dict[frozenset[int], int | ResourceLimitError] = {}
    steps: dict[tuple[frozenset[int], int], frozenset[int]] = {}
    kernels: dict[tuple[frozenset[int], int], int | ResourceLimitError] = {}
    sample_points = 0  # point ids held in the sample memo's keys

    def weight(distinct: frozenset[int]) -> int | ResourceLimitError:
        nonlocal sample_points
        found = samples.get(distinct)
        if found is not None:
            return found
        if sample_points >= EVALUATE_MEMO_POINTS:
            samples.clear()
            sample_points = 0
        for memo in (steps, kernels):
            if len(memo) * (d + 1) >= EVALUATE_MEMO_POINTS:
                memo.clear()
        if len(distinct) < d:
            found = dist.captured_weight(distinct)
        else:
            kernel = compress_kernel(distinct, scheme, steps)
            rounds = len(distinct) - d
            found = kernels.get((kernel, rounds))
            if found is None:
                try:
                    hypothesis = decompress_chain(kernel, scheme, rounds, learner.cap)
                    found = dist.captured_weight(hypothesis)
                except ResourceLimitError as err:
                    # kept without its traceback, which holds the decompression's frames
                    found = err.with_traceback(None)
                kernels[kernel, rounds] = found
            if not isinstance(found, ResourceLimitError) and found < dist.captured_weight(distinct):
                raise LostSampleMass("hypothesis lost sample mass (scheme unsound)")
        samples[distinct] = found
        sample_points += len(distinct)
        return found

    return weight


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
    """The one-cell grid: `evaluate_grid` at sample size m and epsilon."""
    return evaluate_grid(
        learner, dist, [m], [epsilon], trials, seed, confidence, keep_records
    )[0]


def evaluate_grid(
    learner: EmxLearner,
    dist: FiniteSupportDistribution,
    m_values: Iterable[int],
    epsilons: Iterable[Fraction | int | str],
    trials: int,
    seed: int,
    confidence: float = 0.99,
    keep_records: bool = False,
) -> list[EvalReport]:
    """Run independent sample-learn-measure rounds for every (m, epsilon)
    cell; the reports come m ascending, then epsilon ascending.

    Trial i draws max(m) points once with split_seed(seed, i). Its sample
    at a smaller m is the prefix of those draws, which is exactly what a
    draw of m points from the same seed gives, so every cell equals a run
    of that cell alone, and identical arguments reproduce the reports
    exactly. The cells share their trials' draws, so their rates are
    correlated, not independent. Each (trial, m) reads its captured weight
    from one learned_weights function for the run; every epsilon only moves
    the threshold on it, an integer weight over the common denominator.

    Learner errors (reconstruction cap) are counted separately, never
    dropped; a cell's failure rate is over its completed trials. A
    hypothesis that loses sample mass raises SchemeError naming the first
    such trial and m. TrialRecords are built only with keep_records.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    m_values = sorted(m_values)
    epsilons = sorted(Fraction(eps) for eps in epsilons)
    for name, values in (("m", m_values), ("epsilon", epsilons)):
        if not values or any(a == b for a, b in zip(values, values[1:])):
            raise ValueError(f"{name} values must be distinct and at least one")
    if m_values[0] < 0:
        raise ValueError("sample size must be >= 0")
    if not all(0 < eps <= 1 for eps in epsilons):
        raise ValueError("epsilon must be in (0, 1]")
    denom = dist.denominator
    # captured <= 1 - eps  iff  weight * (1 - eps).den <= (1 - eps).num * D
    limits = [((1 - eps).denominator, (1 - eps).numerator * denom) for eps in epsilons]
    largest = m_values[-1]
    weight_of = learned_weights(learner, dist)
    failures = [[0] * len(epsilons) for _ in m_values]
    errors = [0] * len(m_values)
    # per m, one (index, seed, weight or error text) per trial; kept only for records
    outcomes: list[list[tuple[int, int, int | str]]] = [[] for _ in m_values]

    for index in range(trials):
        child = split_seed(seed, index)
        draws = draw_sample(dist, largest, child)
        for cell, m in enumerate(m_values):
            distinct = frozenset(draws if m == largest else draws[:m])
            try:
                weight = weight_of(distinct)
            except LostSampleMass as err:
                raise SchemeError(f"trial {index}, m={m}: {err}") from None
            if isinstance(weight, ResourceLimitError):
                errors[cell] += 1
                if keep_records:
                    outcomes[cell].append((index, child, str(weight)))
                continue
            for k, (tden, limit) in enumerate(limits):
                failures[cell][k] += weight * tden <= limit
            if keep_records:
                outcomes[cell].append((index, child, weight))

    z = normal_quantile(0.5 + confidence / 2)
    reports = []
    for cell, m in enumerate(m_values):
        completed = trials - errors[cell]
        for eps, (tden, limit), failed in zip(epsilons, limits, failures[cell]):
            rate = Fraction(failed, completed) if completed else Fraction(0)
            if completed:
                halfwidth = z * math.sqrt(float(rate) * (1 - float(rate)) / completed)
            else:
                halfwidth = float("nan")
            records = None
            if keep_records:
                records = tuple(
                    TrialRecord(i, child, None, False, outcome)
                    if isinstance(outcome, str)
                    else TrialRecord(
                        i, child, Fraction(outcome, denom), outcome * tden <= limit, None
                    )
                    for i, child, outcome in outcomes[cell]
                )
            reports.append(
                EvalReport(
                    m=m,
                    epsilon=eps,
                    trials=trials,
                    completed=completed,
                    failures=failed,
                    errors=errors[cell],
                    failure_rate=rate,
                    ci_halfwidth=halfwidth,
                    confidence=confidence,
                    records=records,
                )
            )
    return reports
