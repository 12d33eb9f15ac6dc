"""Monotone compression schemes.

A scheme of arity m pairs a compressor sigma, which selects m points out
of any (m+1)-set, with a reconstructor eta, which inflates an m-set to a
finite set. Soundness means every (m+1)-set is contained in
eta(sigma(...)) of itself, so the dropped point is always recoverable.
Selection (sigma's output is a subset of its input) is part of the
contract here: it is what the tower construction does and what the
descent reduction relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .towers import OrderTower


# Reconstructions an enumeration scheme keeps per instance, least recently
# used first out; on the naturals each one is a prefix 0..k.
RECONSTRUCT_CACHE_SIZE = 1024


class SchemeError(ValueError):
    """Wrong input size for sigma/eta, or a violated scheme contract."""


@dataclass(frozen=True)
class MonotoneScheme:
    """Arity m, the compressor and reconstructor, an optional bound on
    reconstruction size, and for a scheme on a finite domain its point
    set, which every reconstruction must stay inside."""

    m: int
    compressor: Callable[[frozenset[int]], frozenset[int]]
    reconstructor: Callable[[frozenset[int]], frozenset[int]]
    budget: int | None = None
    universe: frozenset[int] | None = None

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
    """2-to-1 scheme on an enumerated order: keep the later of two points,
    reconstruct as every point up to and including the kept one. The
    dropped point sits earlier in the enumeration, so it always reappears.
    """
    if tower.depth != 0:
        raise ValueError("the enumeration scheme needs a depth-0 tower")

    def compress(beta: frozenset[int]) -> frozenset[int]:
        later = max(beta, key=lambda pid: tower.key(0, (), pid))
        return frozenset((later,))

    @lru_cache(maxsize=RECONSTRUCT_CACHE_SIZE)
    def reconstruct(t: frozenset[int]) -> frozenset[int]:
        (kept,) = t
        return tower.enumerate_below((), tower.key(0, (), kept))

    return MonotoneScheme(1, compress, reconstruct, universe=tower.universe)


def tower_scheme(tower: OrderTower) -> MonotoneScheme:
    """(k+2)-to-(k+1) scheme on a depth-k tower.

    Compression extracts the level-j maximum for j = k down to 1,
    extending the context with each extracted id; of the two points left,
    the one with the larger level-0 key survives and the smaller is
    dropped. Reconstruction replays the same extraction on the surviving
    set, which isolates the survivor, then unions in every point whose
    level-0 key under the final context is at most the survivor's. The
    dropped point has a smaller level-0 key in that same context, so it is
    always inside the union.
    """

    def extract(points: frozenset[int]) -> tuple[tuple[int, ...], set[int]]:
        context: tuple[int, ...] = ()
        rest = set(points)
        for level in range(tower.depth, 0, -1):
            top = max(rest, key=lambda pid: tower.key(level, context, pid))
            rest.remove(top)
            context += (top,)
        return context, rest

    def compress(beta: frozenset[int]) -> frozenset[int]:
        context, rest = extract(beta)
        dropped = min(rest, key=lambda pid: tower.key(0, context, pid))
        return beta - {dropped}

    def reconstruct(t: frozenset[int]) -> frozenset[int]:
        context, rest = extract(t)
        (survivor,) = rest
        below = tower.enumerate_below(context, tower.key(0, context, survivor))
        return frozenset(t) | below

    return MonotoneScheme(tower.depth + 1, compress, reconstruct, universe=tower.universe)


def identity_eta_scheme(m: int = 1) -> MonotoneScheme:
    """Deliberately unsound diagnostic scheme: drops the smallest id and
    reconstructs nothing beyond its input."""

    def compress(beta: frozenset[int]) -> frozenset[int]:
        return beta - {min(beta)}

    def reconstruct(t: frozenset[int]) -> frozenset[int]:
        return frozenset(t)

    return MonotoneScheme(m, compress, reconstruct)


@dataclass(frozen=True)
class SoundnessReport:
    checked: int
    violations: tuple[frozenset[int], ...]
    malformed: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.malformed


def _canonical(subset: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(subset))


def verify_soundness(
    scheme: MonotoneScheme,
    subsets: Iterable[Iterable[int]],
) -> SoundnessReport:
    """Recheck the containment contract on every given subset.

    Wrong-size subsets are recorded as malformed instead of aborting.
    Violations and malformed subsets are listed in canonical sorted order.
    """
    def check(beta: frozenset[int]) -> tuple[str, frozenset[int]]:
        if len(beta) != scheme.m + 1:
            return "malformed", beta
        if beta <= scheme.eta(scheme.sigma(beta)):
            return "ok", beta
        return "violation", beta

    results = [check(frozenset(s)) for s in subsets]

    violations = sorted((b for tag, b in results if tag == "violation"), key=_canonical)
    malformed = sorted(_canonical(b) for tag, b in results if tag == "malformed")
    checked = sum(1 for tag, _ in results if tag != "malformed")
    return SoundnessReport(checked, tuple(violations), tuple(malformed))


def seeded_subsets(ids: Sequence[int], size: int, count: int, seed: int) -> list[frozenset[int]]:
    """Deterministic list of random size-subsets of ids."""
    rng = random.Random(seed)
    pool = sorted(ids)
    return [frozenset(rng.sample(pool, size)) for _ in range(count)]
