"""Independent oracles used across the suite.

These deliberately avoid the library's own code paths: the search oracle
enumerates the full assignment space with no pruning or symmetry
breaking, the decompression oracle walks every round in full with no
cover or ceiling stop, the compression oracle re-sorts the live set on every step,
and the evaluation oracle runs each trial on Fractions with nothing
reused across trials. The enumeration oracle is the 2-to-1 scheme
written on its own, without the tower construction's extraction loop or
its reconstruction cache, and the tank-learner oracle `max_estimator` is
the take-the-maximum rule for serial numbers, with no scheme, chain or
tower at all. The reference tower is the finite proxy tower built the
way it first was: every ordering hashed in full with hashlib, sorted, and
keyed by position, with no cache and no laziness.
"""

import hashlib
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, product
from math import lcm

from emx.chains import DEFAULT_CAP, ResourceLimitError
from emx.evaluation import TrialRecord
from emx.schemes import SchemeError
from emx.seeds import split_seed
from emx.towers import OrderTower


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


def decompress_full(kernel, scheme, iterations, cap=DEFAULT_CAP):
    """Chained decompression without the cover or ceiling stop:
    R0 = eta(kernel), then each round unions eta of every not yet expanded
    d-subset of the cumulative set, until a round adds nothing or the
    rounds run out; raises the library's ResourceLimitError past the cap."""
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


def compress_per_step_sort(points, scheme):
    """Chained compression that sorts the live set on every step and feeds
    sigma its d+1 smallest ids; returns (steps, kernel) with steps as
    (input, ejected) pairs."""
    live = set(points)
    steps = []
    while len(live) > scheme.m:
        beta = frozenset(sorted(live)[: scheme.m + 1])
        (ejected,) = beta - scheme.sigma(beta)
        steps.append((beta, ejected))
        live.remove(ejected)
    return tuple(steps), frozenset(live)


def enumeration_reference(tower):
    """(compress, reconstruct) of the 2-to-1 scheme on a depth-0 tower:
    compress keeps the later of two points in the tower's one order, and
    reconstruct returns every point up to and including the kept one."""

    def compress(beta):
        later = max(beta, key=lambda pid: tower.key(0, (), pid))
        return frozenset((later,))

    def reconstruct(t):
        (kept,) = t
        return tower.enumerate_below((), tower.key(0, (), kept))

    return compress, reconstruct


def per_id_hash(*parts):
    """BLAKE2b-128 of the repr of each part, each followed by a NUL byte."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode("ascii"))
        h.update(b"\x00")
    return h.digest()


def reference_tower(size, depth, seed):
    """The finite proxy tower on ids 0..size-1 by sort and position: each
    (level, context) ordering sorts every id by (per-id digest, id), the
    key of an id is its position there, and enumerate_below(c, b) is the
    first b + 1 ids of c's level-0 ordering, none for a negative b."""
    ids = range(size)

    def ordering(level, context):
        return sorted(ids, key=lambda pid: (per_id_hash(seed, level, context, pid), pid))

    def keys(level, context):
        positions = {pid: position for position, pid in enumerate(ordering(level, context))}

        def key(pid):
            if pid not in positions:
                raise ValueError(f"point {pid} is not in the domain")
            return positions[pid]

        return key

    def below(context, bound):
        return frozenset(ordering(0, context)[: bound + 1]) if bound >= 0 else frozenset()

    return OrderTower(depth, keys, below, frozenset(ids))


def max_estimator(sample):
    """Guess every serial number up to the largest seen: the hypothesis of
    the 2-to-1 enumeration learner on the naturals, less the id 0."""
    values = list(sample)
    if not values:
        raise ValueError("sample must be non-empty")
    if min(values) < 1:
        raise ValueError("serial numbers start at 1")
    return frozenset(range(1, max(values) + 1))


def draw_sample_reference(dist, m, seed):
    """m draws by inverse CDF, with the common denominator D and the CDF
    rebuilt from the Fraction masses on every call and searched linearly:
    a draw is the first support id whose running mass * D exceeds
    randrange(D)."""
    masses = list(dist.items())
    denom = lcm(*(mass.denominator for _, mass in masses))
    rng = random.Random(seed)
    draws = []
    for _ in range(m):
        r = rng.randrange(denom)
        running = Fraction(0)
        for pid, mass in masses:
            running += mass
            if r < running * denom:
                draws.append(pid)
                break
    return tuple(draws)


def evaluate_reference(learner, dist, m, epsilon, trials, seed):
    """The trial records of `evaluate`, one trial at a time with nothing
    shared between trials: draw, compress with `compress_per_step_sort`,
    decompress every kernel anew with `decompress_full`, then sum the
    captured mass and the sample-mass floor as Fractions and compare the
    captured mass with 1 - epsilon. Raises the library's SchemeError, with
    its message, at the first trial that loses sample mass."""
    threshold = 1 - Fraction(epsilon)
    records = []
    for index in range(trials):
        child = split_seed(seed, index)
        distinct = frozenset(draw_sample_reference(dist, m, child))
        if len(distinct) < learner.d:
            hypothesis = distinct
        else:
            _, kernel = compress_per_step_sort(distinct, learner.scheme)
            rounds = len(distinct) - learner.d
            try:
                hypothesis = decompress_full(kernel, learner.scheme, rounds, learner.cap)
            except ResourceLimitError as err:
                records.append(TrialRecord(index, child, None, False, str(err)))
                continue
        captured = sum((mass for pid, mass in dist.items() if pid in hypothesis), Fraction(0))
        floor_mass = sum((dist.mass(pid) for pid in distinct), Fraction(0))
        if captured < floor_mass:
            raise SchemeError(
                f"trial {index}, m={m}: hypothesis lost sample mass (scheme unsound)"
            )
        records.append(TrialRecord(index, child, captured, captured <= threshold, None))
    return records
