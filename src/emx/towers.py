"""Nested deterministic orderings consumed by the compression schemes.

A tower of depth k supplies, for every level j in 0..k and every context
(the chain of maxima already extracted at the levels above j), an
injective integer key over the domain. Extracting a maximum at level j
extends the context by one id; level 0 supplies the finite initial
segments that reconstruction unions over.

The real construction re-orders an initial segment arbitrarily at each
extraction. Here the per-context orders are derived from a seed by stable
hashing: reproducible, testable, and carrying exactly the structure the
algorithm consumes (injective keys, finitely many predecessors at level 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .core import CountableDomain, FiniteDomain
from .seeds import order_hash

ContextChain = tuple[int, ...]

# Orderings a finite proxy tower keeps per instance: every ordering of a
# depth-2 tower on 60 points (1 + 60 + 60*59 = 3601) fits.
ORDERING_CACHE_SIZE = 4096


@dataclass(frozen=True)
class OrderTower:
    """Depth, a key-function factory, a level-0 prefix enumerator and, for
    a finite domain, its point set.

    Invariants: keys are injective per (level, context); a context chain
    of length depth - level accompanies every level; enumerate_below(c, b)
    is exactly the finite set of points with level-0 key <= b under c;
    universe is None or holds every point the tower orders.
    """

    depth: int
    keys_fn: Callable[[int, ContextChain], Callable[[int], int]]
    below_fn: Callable[[ContextChain, int], frozenset[int]]
    universe: frozenset[int] | None = None

    def keys(self, level: int, context: ContextChain) -> Callable[[int], int]:
        """The key function of one ordering, after checking that the level
        exists and the context fits it; the function rejects a point
        outside the domain."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside 0..{self.depth}")
        context = tuple(context)
        if len(context) != self.depth - level:
            raise ValueError(
                f"context of length {len(context)} does not fit level {level} "
                f"of a depth-{self.depth} tower"
            )
        return self.keys_fn(level, context)

    def key(self, level: int, context: ContextChain, point_id: int) -> int:
        return self.keys(level, context)(point_id)

    def enumerate_below(self, context: ContextChain, bound: int) -> frozenset[int]:
        context = tuple(context)
        if len(context) != self.depth:
            raise ValueError(
                f"enumerate_below needs a full context of length {self.depth}, "
                f"got {len(context)}"
            )
        if bound < 0:
            return frozenset()
        return self.below_fn(context, bound)


def finite_proxy_tower(domain: FiniteDomain, depth: int, seed: int) -> OrderTower:
    """Desk-scale tower over a finite domain.

    Each (level, context) pair gets its own ordering: ids sorted by a
    stable hash of (seed, level, context, id), ties impossible because the
    id is part of the sort key. Orderings are cached per context, up to
    ORDERING_CACHE_SIZE of them, least recently used first out.
    """
    if depth < 0:
        raise ValueError("tower depth must be >= 0")
    ids = tuple(domain.ids())

    @lru_cache(maxsize=ORDERING_CACHE_SIZE)
    def ordering(level: int, context: ContextChain) -> tuple[tuple[int, ...], dict[int, int]]:
        order = tuple(pid for _, pid in sorted(zip(order_hash(seed, level, context, ids), ids)))
        return order, {pid: pos for pos, pid in enumerate(order)}

    def keys(level: int, context: ContextChain) -> Callable[[int], int]:
        positions = ordering(level, context)[1]

        def key(point_id: int) -> int:
            position = positions.get(point_id)
            if position is None:
                raise ValueError(f"point {point_id} is not in the domain")
            return position

        return key

    def below(context: ContextChain, bound: int) -> frozenset[int]:
        order = ordering(0, context)[0]
        return frozenset(order[: bound + 1])

    return OrderTower(depth, keys, below, frozenset(ids))


def enumerated_tower(domain: CountableDomain) -> OrderTower:
    """Depth-0 tower whose single ordering is the countable domain's own
    order: the key of a point is its id, and the points below a bound are
    the ids 0 .. bound."""

    def key(point_id: int) -> int:
        if point_id < 0:
            raise ValueError(f"point {point_id} is not in the domain")
        return point_id

    def keys(level: int, context: ContextChain) -> Callable[[int], int]:
        return key

    def below(context: ContextChain, bound: int) -> frozenset[int]:
        return frozenset(range(bound + 1))

    return OrderTower(0, keys, below)
