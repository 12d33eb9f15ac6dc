"""Domain points, exact finite-support distributions, hypotheses, sampling,
and the max-coverage training baseline.

All probability arithmetic is exact: fractions.Fraction, or integer
weights over one common denominator. Floats appear only in Monte Carlo
summaries downstream. Every value here is immutable after construction.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True)
class Point:
    """A domain element. Identity, equality and hashing are by id; the
    payload (a rational, a natural, ...) is along for the ride."""

    id: int
    payload: object = field(default=None, compare=False)


class FiniteDomain:
    """A finite universe of points with ids 0 .. size-1."""

    def __init__(self, payloads: Sequence[object] | None = None, size: int | None = None):
        if payloads is None:
            if size is None:
                raise ValueError("finite domain needs payloads or a size")
            payloads = [None] * size
        self._points = tuple(Point(i, p) for i, p in enumerate(payloads))
        if not self._points:
            raise ValueError("finite domain must contain at least one point")

    @property
    def size(self) -> int:
        return len(self._points)

    def ids(self) -> range:
        return range(len(self._points))

    def point(self, index: int) -> Point:
        if not 0 <= index < len(self._points):
            raise IndexError(f"index {index} outside domain of size {len(self._points)}")
        return self._points[index]

    def index(self, point: Point) -> int:
        return point.id


class EnumeratedDomain:
    """A countable universe enumerated by index; point ids equal indices,
    so point(i) and index(p) are mutually inverse over registered points.
    Points materialize lazily and are cached."""

    size = None

    def __init__(self, enumerator: Callable[[int], object]):
        self._enumerator = enumerator
        self._cache: dict[int, Point] = {}

    def point(self, index: int) -> Point:
        if index < 0:
            raise IndexError("enumeration index must be >= 0")
        got = self._cache.get(index)
        if got is None:
            got = Point(index, self._enumerator(index))
            self._cache[index] = got
        return got

    def index(self, point: Point) -> int:
        return point.id


Domain = FiniteDomain | EnumeratedDomain


def naturals_domain() -> EnumeratedDomain:
    """The naturals 0, 1, 2, ... with payload equal to the index."""
    return EnumeratedDomain(lambda i: i)


@dataclass(frozen=True)
class Hypothesis:
    """A finite set of point ids, read as the indicator of the points
    labeled 1. Everything outside is labeled 0."""

    members: frozenset[int]

    @classmethod
    def of(cls, ids: Iterable[int]) -> "Hypothesis":
        return cls(frozenset(ids))

    @classmethod
    def empty(cls) -> "Hypothesis":
        return cls(frozenset())

    def __contains__(self, point_id: int) -> bool:
        return point_id in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))


class FiniteSupportDistribution:
    """Exact rational probability masses on finitely many point ids.

    Construction enforces that every mass is positive and that the masses
    sum to exactly 1; the support is finite even when the ambient domain
    is countable.
    """

    def __init__(self, masses: Mapping[int, Fraction | int | str]):
        if not masses:
            raise ValueError("distribution needs at least one support point")
        cleaned: dict[int, Fraction] = {}
        for point_id, raw in masses.items():
            mass = Fraction(raw)
            if mass <= 0:
                raise ValueError(f"mass for point {point_id} must be positive, got {mass}")
            cleaned[int(point_id)] = mass
        total = sum(cleaned.values())
        if total != 1:
            raise ValueError(f"masses must sum to exactly 1, got {total}")
        self._masses = dict(sorted(cleaned.items()))
        self._support = tuple(self._masses)
        # Integer form, fixed once: mass(support[i]) = weights[i] / D, and
        # bounds[i] = weights[0] + ... + weights[i] is the sampler's CDF.
        self._denominator = lcm(*(mass.denominator for mass in self._masses.values()))
        self._weights = tuple(
            mass.numerator * (self._denominator // mass.denominator)
            for mass in self._masses.values()
        )
        self._bounds = tuple(accumulate(self._weights))

    @classmethod
    def uniform(cls, ids: Iterable[int]) -> "FiniteSupportDistribution":
        points = list(ids)
        if len(points) != len(set(points)):
            raise ValueError("uniform support must not repeat points")
        return cls({point_id: Fraction(1, len(points)) for point_id in points})

    @classmethod
    def point_mass(cls, point_id: int) -> "FiniteSupportDistribution":
        return cls({point_id: Fraction(1)})

    @property
    def support(self) -> tuple[int, ...]:
        return self._support

    @property
    def denominator(self) -> int:
        """D, the least common denominator of the masses."""
        return self._denominator

    def mass(self, point_id: int) -> Fraction:
        return self._masses.get(point_id, Fraction(0))

    def captured_weight(self, members: Container[int]) -> int:
        """Mass of the support points in members, times D: an exact integer."""
        return sum(w for pid, w in zip(self._support, self._weights) if pid in members)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self._masses.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSupportDistribution):
            return NotImplemented
        return self._masses == other._masses

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {m}" for i, m in self._masses.items())
        return f"FiniteSupportDistribution({{{inner}}})"


def expectation(dist: FiniteSupportDistribution, hypothesis: Hypothesis) -> Fraction:
    """Mass the hypothesis captures: the exact sum of masses of covered
    support points."""
    return Fraction(dist.captured_weight(hypothesis.members), dist.denominator)


def emx_gap(dist: FiniteSupportDistribution, hypothesis: Hypothesis) -> Fraction:
    """Shortfall against the best hypothesis.

    The support itself is a finite set, hence a hypothesis, so the best
    capturable mass is exactly 1 and the gap is 1 minus the captured mass.
    """
    return Fraction(1) - expectation(dist, hypothesis)


@dataclass(frozen=True)
class Sample:
    """An ordered i.i.d. draw of point ids (repeats allowed) plus the seed
    that produced it; (distribution, size, seed) regenerate it exactly."""

    points: tuple[int, ...]
    seed: int

    def distinct(self) -> frozenset[int]:
        return frozenset(self.points)

    def __len__(self) -> int:
        return len(self.points)


def draw_sample(dist: FiniteSupportDistribution, m: int, seed: int) -> Sample:
    """Draw m points i.i.d. from the distribution, deterministically.

    Inverse-CDF convention: support ids ascending, intervals half-open.
    With D the least common denominator of the masses, each draw picks
    randrange(D) and selects the point whose integer interval
    [c_{i-1}, c_i) contains it, so exactly mass*D of the D outcomes hit
    each point and the sampler is exact.
    """
    if m < 0:
        raise ValueError("sample size must be >= 0")
    support, bounds, denom = dist.support, dist._bounds, dist.denominator
    randrange = random.Random(seed).randrange
    draws = tuple(support[bisect_right(bounds, randrange(denom))] for _ in range(m))
    return Sample(draws, seed)


def erm_max_coverage(sample: Sample, candidates: Sequence[Hypothesis]) -> Hypothesis:
    """The candidate covering the most sample entries, counted with
    multiplicity; ties go to the earliest candidate in the list."""
    if not candidates:
        raise ValueError("need at least one candidate hypothesis")
    best = candidates[0]
    best_count = -1
    for candidate in candidates:
        count = sum(1 for point_id in sample.points if point_id in candidate)
        if count > best_count:
            best, best_count = candidate, count
    return best
