"""Monotone compression schemes.

A scheme of arity m pairs a compressor sigma, which selects m points out
of any (m+1)-set, with a reconstructor eta, which inflates an m-set to a
finite set. Soundness means every (m+1)-set is contained in
eta(sigma(...)) of itself, so the dropped point is always recoverable.
Selection (sigma's output is a subset of its input) is part of the
contract here: it is what the tower construction does and what the
descent reduction relies on. The tower scheme is the one construction;
the 2-to-1 enumeration scheme is its depth-0 case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .towers import OrderTower


# Point ids a tower scheme's cached reconstructions hold in all (LRU): one
# on n points holds up to n ids, so 1 092 are kept at n = 60 and 13 at
# n = 5 000. On the countable domain, whose prefixes 0..k have no such
# bound, the scheme keeps 1 024, as on 64 points.
RECONSTRUCT_CACHE_POINTS = 65_536  # 2**16


class SchemeError(ValueError):
    """Wrong input size for sigma/eta, or a violated scheme contract."""


@dataclass(frozen=True)
class MonotoneScheme:
    """Arity m, the compressor and reconstructor, an optional bound on
    reconstruction size, for a scheme on a finite domain its point set,
    which every reconstruction must stay inside, and whether it declares a
    ceiling: that eta(t) lies inside the ids 0..max(t). eta checks the
    universe on every call; decompress_chain checks the ceiling on the
    outputs it computes."""

    m: int
    compressor: Callable[[frozenset[int]], Iterable[int]]
    reconstructor: Callable[[frozenset[int]], frozenset[int]]
    budget: int | None = None
    universe: frozenset[int] | None = None
    ceiling: bool = False

    def sigma(self, subset: Iterable[int]) -> frozenset[int]:
        """Compress an (m+1)-set to the m points the compressor keeps."""
        beta = frozenset(subset)
        if len(beta) != self.m + 1:
            raise SchemeError(f"sigma expects {self.m + 1} distinct points, got {len(beta)}")
        kept = frozenset(self.compressor(beta))
        if len(kept) != self.m or not kept < beta:
            raise SchemeError("compressor must select exactly m points of its input")
        return kept

    def eta(self, subset: Iterable[int]) -> frozenset[int]:
        """Reconstruct a finite set from an m-set."""
        t = frozenset(subset)
        if len(t) != self.m:
            raise SchemeError(f"eta expects {self.m} distinct points, got {len(t)}")
        out = frozenset(self.reconstructor(t))
        if self.budget is not None and len(out) > self.budget:
            raise SchemeError(f"eta output of size {len(out)} exceeds budget {self.budget}")
        if self.universe is not None and not out <= self.universe:
            outside = sorted(out - self.universe)
            raise SchemeError(f"eta output leaves the scheme's universe at {outside[:5]}")
        return out


def enumeration_scheme(tower: OrderTower) -> MonotoneScheme:
    """2-to-1 scheme on an enumerated order: the depth-0 tower scheme,
    which keeps the later of two points and reconstructs every point up to
    and including the kept one."""
    if tower.depth != 0:
        raise ValueError("the enumeration scheme needs a depth-0 tower")
    return tower_scheme(tower)


def tower_scheme(tower: OrderTower) -> MonotoneScheme:
    """(k+2)-to-(k+1) scheme on a depth-k tower.

    Compression extracts the level-j maximum for j = k down to 1,
    extending the context with each extracted id; of the two points left,
    the one with the larger level-0 key survives and the smaller is
    dropped. Reconstruction replays the same extraction on the surviving
    set, which isolates the survivor, then unions in every point whose
    level-0 key under the final context is at most the survivor's. The
    dropped point has a smaller level-0 key in that same context, so it is
    always inside the union. On an id-ordered tower the scheme declares a
    ceiling.
    """

    levels = range(tower.depth, 0, -1)
    points = 64 if tower.universe is None else len(tower.universe)

    def keep(points: frozenset[int]) -> tuple[int, ...]:
        """The extracted maxima in order, then the level-0 maximum of the rest."""
        context: tuple[int, ...] = ()
        rest = points
        for level in levels:
            top = max(rest, key=tower.keys(level, context))
            rest = rest - {top}
            context += (top,)
        return (*context, max(rest, key=tower.keys(0, context)))

    @lru_cache(maxsize=max(1, RECONSTRUCT_CACHE_POINTS // points))
    def reconstruct(t: frozenset[int]) -> frozenset[int]:
        kept = keep(t)
        context, survivor = kept[:-1], kept[-1]
        return t | tower.enumerate_below(context, tower.key(0, context, survivor))

    return MonotoneScheme(
        tower.depth + 1, keep, reconstruct, universe=tower.universe, ceiling=tower.id_ordered
    )


def identity_eta_scheme(m: int = 1) -> MonotoneScheme:
    """Deliberately unsound diagnostic scheme: drops the smallest id and
    reconstructs nothing beyond its input."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise ValueError(f"identity-eta arity m must be an integer >= 0, got {m!r}")

    def compress(beta: frozenset[int]) -> frozenset[int]:
        return beta - {min(beta)}

    def reconstruct(t: frozenset[int]) -> frozenset[int]:
        return frozenset(t)

    return MonotoneScheme(m, compress, reconstruct)


@dataclass(frozen=True)
class SoundnessReport:
    checked: int
    violations: tuple[frozenset[int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_soundness(
    scheme: MonotoneScheme,
    subsets: Iterable[Iterable[int]],
) -> SoundnessReport:
    """Recheck the containment contract on every given (m+1)-set; a subset
    of another size raises SchemeError from sigma. Violations are listed in
    canonical sorted order."""
    betas = [frozenset(subset) for subset in subsets]
    violations = [beta for beta in betas if not beta <= scheme.eta(scheme.sigma(beta))]
    return SoundnessReport(len(betas), tuple(sorted(violations, key=sorted)))


def seeded_subsets(ids: Sequence[int], size: int, count: int, seed: int) -> list[frozenset[int]]:
    """Deterministic list of random size-subsets of ids."""
    rng = random.Random(seed)
    pool = sorted(ids)
    return [frozenset(rng.sample(pool, size)) for _ in range(count)]
