"""Nested deterministic orderings consumed by the compression schemes.

A tower of depth k supplies, for every level j in 0..k and every context
(the chain of maxima already extracted at the levels above j), an
injective sort key over the domain. Extracting a maximum at level j
extends the context by one id; level 0 supplies the finite initial
segments that reconstruction unions over.

The real construction re-orders an initial segment arbitrarily at each
extraction. Here the per-context orders are derived from a seed by stable
hashing: reproducible, testable, and carrying exactly the structure the
algorithm consumes (injective keys, finitely many predecessors at level 0).
An ordering is never sorted: the key of a point is its digest with its id
as tie-break, hashed when first asked for, and a level-0 segment is every
point whose key is at most the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import filterfalse
from typing import Callable

from .core import CountableDomain, FiniteDomain
from .seeds import order_hash

ContextChain = tuple[int, ...]
# Totally ordered within one ordering: an id, or a (digest, id) pair.
SortKey = int | tuple[bytes, int]

# Digests a finite proxy tower's cached orderings hold in all. A context
# holds those of the ids it was asked to key, at most n, until
# enumerate_below asks for its segment; then it holds all n. So the cache
# keeps ORDERING_CACHE_POINTS // n contexts: on 60 points 4 369 fit, and
# with them every ordering of a depth-2 tower (1 + 60 + 60*59 = 3 601).
ORDERING_CACHE_POINTS = 262_144  # 2**18


@dataclass(frozen=True)
class OrderTower:
    """Depth, a key-function factory, a level-0 prefix enumerator, for a
    finite domain its point set, and whether its top level is id order.

    Invariants: keys are injective sort keys per (level, context); a
    context chain of length depth - level accompanies every level;
    enumerate_below(c, b) is exactly the finite set of points with level-0
    key <= b under c; universe is None or holds every point the tower
    orders. id_ordered declares that the top level is id order and that
    every level-0 segment stays at or below the top-level point it
    descends from: inside 0..c[0] under a context c, and inside 0..p for
    the bound key(0, (), p) at depth 0. A tower scheme's reconstruction
    of t then never exceeds max(t).
    """

    depth: int
    keys_fn: Callable[[int, ContextChain], Callable[[int], SortKey]]
    below_fn: Callable[[ContextChain, SortKey], frozenset[int]]
    universe: frozenset[int] | None = None
    id_ordered: bool = False

    def keys(self, level: int, context: ContextChain) -> Callable[[int], SortKey]:
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

    def key(self, level: int, context: ContextChain, point_id: int) -> SortKey:
        return self.keys(level, context)(point_id)

    def enumerate_below(self, context: ContextChain, bound: SortKey) -> frozenset[int]:
        context = tuple(context)
        if len(context) != self.depth:
            raise ValueError(
                f"enumerate_below needs a full context of length {self.depth}, "
                f"got {len(context)}"
            )
        return self.below_fn(context, bound)


class _Digests:
    """The digests one (level, context) has hashed: a dict from id while
    some ids are unhashed, a list indexed by id once all are."""

    __slots__ = ("by_id",)

    def __init__(self) -> None:
        self.by_id: dict[int, bytes] | list[bytes] = {}


def finite_proxy_tower(domain: FiniteDomain, depth: int, seed: int) -> OrderTower:
    """Desk-scale tower over a finite domain.

    Each (level, context) pair gets its own ordering: the key of an id is
    (digest, id), the digest a stable hash of (seed, level, context, id),
    so equal digests are broken by ascending id. A key is hashed when it
    is first asked for, and enumerate_below hashes the rest of its
    context's ids once. Digests are cached per context, up to
    ORDERING_CACHE_POINTS // size contexts (at least one), least recently
    used first out.
    """
    if depth < 0:
        raise ValueError("tower depth must be >= 0")
    ids = range(domain.size)

    @lru_cache(maxsize=max(1, ORDERING_CACHE_POINTS // domain.size))
    def hashed(level: int, context: ContextChain) -> _Digests:
        return _Digests()

    def keys(level: int, context: ContextChain) -> Callable[[int], SortKey]:
        digests = hashed(level, context).by_id
        if isinstance(digests, list):

            def key(point_id: int) -> SortKey:
                if point_id not in ids:
                    raise ValueError(f"point {point_id} is not in the domain")
                return digests[point_id], point_id

            return key

        def key(point_id: int) -> SortKey:
            digest = digests.get(point_id)
            if digest is None:
                if point_id not in ids:
                    raise ValueError(f"point {point_id} is not in the domain")
                digest = digests[point_id] = order_hash(seed, level, context, (point_id,))[0]
            return digest, point_id

        return key

    def below(context: ContextChain, bound: SortKey) -> frozenset[int]:
        held = hashed(0, context)
        digests = held.by_id
        if isinstance(digests, dict):
            known = digests
            digests = order_hash(seed, 0, context, filterfalse(known.__contains__, ids))
            for pid in sorted(known):  # ascending, so each lands at its own index
                digests.insert(pid, known[pid])
            held.by_id = digests
        top, top_id = bound
        return frozenset(
            [pid for pid, digest in zip(ids, digests) if digest < top or digest == top and pid <= top_id]
        )

    return OrderTower(depth, keys, below, frozenset(ids))


def enumerated_tower(domain: CountableDomain) -> OrderTower:
    """Depth-0 tower whose single ordering is the countable domain's own
    order: the key of a point is its id, and the points below a bound are
    the ids 0 .. bound, none for a negative bound. Its top level is id
    order."""

    def key(point_id: int) -> int:
        if point_id < 0:
            raise ValueError(f"point {point_id} is not in the domain")
        return point_id

    def keys(level: int, context: ContextChain) -> Callable[[int], int]:
        return key

    def below(context: ContextChain, bound: int) -> frozenset[int]:
        return frozenset(range(bound + 1))

    return OrderTower(0, keys, below, id_ordered=True)
