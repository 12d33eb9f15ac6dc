"""Independent oracles used across the suite.

These deliberately avoid the library's own code paths: the search oracle
enumerates the full assignment space with no pruning or symmetry
breaking, the rational enumerations are generated by two unrelated
methods (tree BFS and the floor recurrence), and the decompression oracle
walks every round in full with no cover stop.
"""

from collections import defaultdict, deque
from fractions import Fraction
from itertools import combinations, product
from math import floor

from emx.chains import DEFAULT_CAP, ResourceLimitError


def first_assignment_brute_force(
    n: int, m: int, budget: int
) -> tuple[tuple[tuple[int, ...], int], ...] | None:
    """First sound (m+1)-to-m selection scheme with |eta| <= budget on n
    points, in `product` order over the dropped point of every (m+1)-subset
    (subsets in lexicographic order, drops ascending), as (subset, dropped)
    pairs; None if there is none. The minimal reconstruction of an m-set is
    itself plus everything dropped onto it, so an assignment works iff
    every minimal reconstruction fits the budget."""
    betas = list(combinations(range(n), m + 1))
    for choice in product(range(m + 1), repeat=len(betas)):
        loads: dict[tuple[int, ...], set[int]] = defaultdict(set)
        for beta, pick in zip(betas, choice):
            dropped = beta[pick]
            loads[tuple(v for v in beta if v != dropped)].add(dropped)
        if all(len(set(t) | extra) <= budget for t, extra in loads.items()):
            return tuple((beta, beta[pick]) for beta, pick in zip(betas, choice))
    return None


def scheme_exists_brute_force(n: int, m: int, budget: int) -> bool:
    """Does any sound (m+1)-to-m selection scheme with |eta| <= budget exist
    on n points?"""
    return first_assignment_brute_force(n, m, budget) is not None


def calkin_wilf_bfs(count: int) -> list[Fraction]:
    """Breadth-first traversal of the tree rooted at 1/1."""
    out: list[Fraction] = []
    queue: deque[tuple[int, int]] = deque([(1, 1)])
    while len(out) < count:
        a, b = queue.popleft()
        out.append(Fraction(a, b))
        queue.append((a, a + b))
        queue.append((a + b, b))
    return out


def calkin_wilf_recurrence(count: int) -> list[Fraction]:
    """Successor recurrence: q' = 1 / (2*floor(q) - q + 1)."""
    out = [Fraction(1)]
    while len(out) < count:
        q = out[-1]
        out.append(1 / (2 * floor(q) - q + 1))
    return out


def decompress_full(kernel, scheme, iterations, cap=DEFAULT_CAP):
    """Chained decompression without the cover stop: R0 = eta(kernel),
    then each round unions eta of every not yet expanded d-subset of the
    cumulative set, until a round adds nothing or the rounds run out;
    raises the library's ResourceLimitError past the cap."""
    kernel = frozenset(kernel)
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    d = scheme.m
    current = set(scheme.eta(kernel))
    if len(current) > cap:
        raise ResourceLimitError(0, len(current), cap)
    expanded = {kernel}
    for iteration in range(1, iterations + 1):
        added: set[int] = set()
        for combo in combinations(sorted(current), d):
            t = frozenset(combo)
            if t in expanded:
                continue
            expanded.add(t)
            added |= scheme.eta(t)
        if added <= current:
            break
        current |= added
        if len(current) > cap:
            raise ResourceLimitError(iteration, len(current), cap)
    return frozenset(current)
