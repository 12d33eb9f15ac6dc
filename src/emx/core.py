"""Domains of point ids, exact finite-support distributions, sampling
and captured mass.

A hypothesis is a finite set of point ids, read as the indicator of the
points labeled 1: any set of ids is accepted, and learners return
frozensets. A sample is the tuple of its draws, repeats allowed. A
distribution keeps its masses in one integer form, weights over their
common denominator.

All probability arithmetic is exact: integer weights, or Fractions built
from them. Floats appear only in Monte Carlo summaries downstream. Every
value here is immutable after construction.
"""

from __future__ import annotations

from _random import Random  # random.Random's C base: the same stream for an int seed
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Container, Iterable, Iterator, Mapping


@dataclass(frozen=True)
class FiniteDomain:
    """A finite universe: the point ids 0 .. size-1."""

    size: int

    def __post_init__(self) -> None:
        if isinstance(self.size, bool) or not isinstance(self.size, int):
            raise ValueError(f"finite domain size must be an integer, got {self.size!r}")
        if self.size < 1:
            raise ValueError("finite domain must contain at least one point")

    def ids(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class CountableDomain:
    """The countable universe of point ids 0, 1, 2, ..."""

    size = None  # no largest id


Domain = FiniteDomain | CountableDomain


def naturals_domain() -> CountableDomain:
    """The naturals 0, 1, 2, ..., each id standing for itself."""
    return CountableDomain()


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
            _check_id(point_id)
            mass = Fraction(raw)
            if mass <= 0:
                raise ValueError(f"mass for point {point_id} must be positive, got {mass}")
            cleaned[point_id] = mass
        total = sum(cleaned.values())
        if total != 1:
            raise ValueError(f"masses must sum to exactly 1, got {total}")
        # The one stored form, fixed once: mass(i) = weights[i] / D in id
        # order, with D the least common denominator, so D is the sum of the
        # weights; bounds holds the running sums, the sampler's CDF.
        denom = lcm(*(mass.denominator for mass in cleaned.values()))
        self._weights = {
            pid: mass.numerator * (denom // mass.denominator)
            for pid, mass in sorted(cleaned.items())
        }
        self._support = tuple(self._weights)
        self._bounds = bounds = tuple(accumulate(self._weights.values()))
        # The sampler's guide table: with k = D.bit_length(), r in 0..D-1
        # falls in block r >> shift, one of at most 2**g with g = k - shift,
        # and guide[j] is the index of the first bound above the block's
        # first value j << shift, so the point r selects is guide[j] or a
        # later one. Each block holds at most 2 / 2**g of the mass and
        # 2**g > 4 * len(support), so a draw steps past fewer than 1/2
        # bounds on average; with shift 0 it steps past none.
        k = denom.bit_length()
        shift = k - min(k, len(bounds).bit_length() + 2)
        guide = []
        i = 0
        for j in range(((denom - 1) >> shift) + 1):
            while bounds[i] <= j << shift:
                i += 1
            guide.append(i)
        # everything draw_sample reads, in one attribute
        self._sampler = (self._support, bounds, tuple(guide), denom, k, shift)

    @classmethod
    def uniform(cls, ids: Iterable[int]) -> "FiniteSupportDistribution":
        points = list(ids)
        for point_id in points:
            _check_id(point_id)
        if len(points) != len(set(points)):
            raise ValueError("uniform support must not repeat points")
        return cls({point_id: Fraction(1, len(points)) for point_id in points})

    @property
    def support(self) -> tuple[int, ...]:
        return self._support

    @property
    def denominator(self) -> int:
        """D, the least common denominator of the masses."""
        return self._bounds[-1]

    def mass(self, point_id: int) -> Fraction:
        return Fraction(self._weights.get(point_id, 0), self._bounds[-1])

    def captured_weight(self, members: Container[int]) -> int:
        """Mass of the support points in members, times D: an exact integer."""
        return sum(w for pid, w in self._weights.items() if pid in members)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """(id, mass) pairs in id order."""
        denom = self._bounds[-1]
        return ((pid, Fraction(w, denom)) for pid, w in self._weights.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSupportDistribution):
            return NotImplemented
        return self._weights == other._weights  # D is their sum

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {m}" for i, m in self.items())
        return f"FiniteSupportDistribution({{{inner}}})"


def _check_id(point_id: object) -> None:
    if isinstance(point_id, bool) or not isinstance(point_id, int):
        raise ValueError(f"point id must be an integer, got {point_id!r}")


def expectation(dist: FiniteSupportDistribution, hypothesis: Container[int]) -> Fraction:
    """Mass the hypothesis captures: the exact sum of masses of covered
    support points."""
    return Fraction(dist.captured_weight(hypothesis), dist.denominator)


def draw_sample(dist: FiniteSupportDistribution, m: int, seed: int) -> tuple[int, ...]:
    """Draw m point ids i.i.d. from the distribution, in draw order with
    repeats; (distribution, m, seed) regenerate the draws exactly.

    Inverse-CDF convention: support ids ascending, intervals half-open.
    With D the least common denominator of the masses, each draw picks
    r uniform in 0..D-1 and selects the point whose integer interval
    [c_{i-1}, c_i) contains it, so exactly mass*D of the D outcomes hit
    each point and the sampler is exact.

    The draws are defined by this loop: with k = D.bit_length(), r is
    getrandbits(k) of Random(seed), drawn again while r >= D. It is the
    rejection loop random.Random(seed).randrange(D) runs, written inline
    to save two Python frames per draw, so r is exactly randrange(D);
    `test_sampler_matches_randrange` pins the two together. The generator
    is the C base class of random.Random, seeded without random.Random's
    Python-level wrappers; for an int seed its stream is the same, for
    any other seed it is not, so the seed must be an int. The point r
    selects is found through the distribution's guide table: start at
    the guide entry of r's block and step past every bound <= r.
    """
    if not isinstance(seed, int):
        raise TypeError(f"sample seed must be an int, got {seed!r}")
    if m < 0:
        raise ValueError("sample size must be >= 0")
    support, bounds, guide, denom, k, shift = dist._sampler
    getrandbits = Random(seed).getrandbits
    draws = []
    for _ in range(m):
        r = getrandbits(k)
        while r >= denom:
            r = getrandbits(k)
        i = guide[r >> shift]
        while bounds[i] <= r:
            i += 1
        draws.append(support[i])
    return tuple(draws)
