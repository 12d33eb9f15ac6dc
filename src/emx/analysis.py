"""Scheme shrinking and existence search.

descend turns an (m+1)-to-m scheme on a domain into an m-to-(m-1) scheme
on a chosen sub-domain, by anchoring on a point the sub-domain's
reconstructions can never produce. search_schemes decides by the exact
counting bound whether a sound selection scheme with a bounded
reconstruction size exists on n points, and builds the lexicographically
first witness by augmenting paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .schemes import MonotoneScheme, SchemeError, verify_soundness


class DeskScaleError(RuntimeError):
    """The reconstruction image swallowed the whole finite domain, so no
    anchor point is available at this scale."""

    def __init__(self, z_size: int):
        super().__init__(
            f"reconstruction image covers the domain (|Z| = {z_size}); "
            "use a larger domain or a smaller sub-domain"
        )
        self.z_size = z_size


class DescentError(RuntimeError):
    """The reduction failed on a concrete subset of the sub-domain."""

    def __init__(self, subset: frozenset[int]):
        super().__init__(f"reduction unsound on subset {sorted(subset)}")
        self.subset = subset


def reconstruction_image(scheme: MonotoneScheme, sub_domain: Iterable[int]) -> frozenset[int]:
    """Everything eta can produce from the sub-domain: the union of eta
    over all its m-subsets. Reconstructing the compressor's images of the
    (m+1)-subsets adds nothing, because sigma keeps an m-subset of its
    input, so each such image is already one of those m-subsets.
    """
    image: set[int] = set()
    for t in combinations(sorted(sub_domain), scheme.m):
        image |= scheme.eta(t)
    return frozenset(image)


@dataclass(frozen=True)
class ReductionWitness:
    """Anchor point, size of the reconstruction image it lies outside of,
    the reduced scheme (arity one less, sound on the sub-domain), the
    sub-domain y, and the reduced sigma of every m-subset and eta of every
    (m-1)-subset of y as (subset, output) pairs, all sorted."""

    x: int
    z_size: int
    reduced: MonotoneScheme
    y: tuple[int, ...]
    sigma_table: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    eta_table: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def descend(
    scheme: MonotoneScheme,
    domain_size: int,
    sub_domain: Iterable[int],
) -> ReductionWitness:
    """Build the reduced scheme on the sub-domain of the ids
    0 .. domain_size-1.

    Z is the reconstruction image of the sub-domain; the anchor x is the
    smallest domain id outside Z, found in at most |Z| + 1 steps, so the
    domain is never built. The reduced compressor maps s to
    sigma(s | {x}) minus x, which works because x can never be the dropped
    point: if it were, sigma's output would be an m-subset of the
    sub-domain whose reconstruction already contains x, contradicting
    x outside Z. The reduced reconstructor maps t to eta(t | {x}).
    Soundness of the result is verified exhaustively over the sub-domain
    before returning, from the sigma and eta tables the witness carries.
    """
    if scheme.m < 1:
        raise ValueError("descending needs a scheme of arity m >= 1")
    y = frozenset(sub_domain)
    if not all(0 <= pid < domain_size for pid in y):
        raise ValueError("sub-domain must lie inside the domain")
    if len(y) < scheme.m + 1:
        raise ValueError(f"sub-domain must hold at least {scheme.m + 1} points")

    z = reconstruction_image(scheme, y)
    x = next((pid for pid in range(domain_size) if pid not in z), None)
    if x is None or x in y:  # x in y only if the scheme is unsound: y sits in Z
        raise DeskScaleError(len(z))

    def compress(s: frozenset[int]) -> frozenset[int]:
        kept = scheme.sigma(frozenset(s) | {x})
        if x not in kept:
            raise DescentError(frozenset(s))
        return kept - {x}

    def reconstruct(t: frozenset[int]) -> frozenset[int]:
        return scheme.eta(frozenset(t) | {x})

    reduced = MonotoneScheme(scheme.m - 1, compress, reconstruct, budget=scheme.budget)
    ys = tuple(sorted(y))
    sigma_table = tuple((s, tuple(sorted(reduced.sigma(s)))) for s in combinations(ys, scheme.m))
    eta_table = tuple((t, tuple(sorted(reduced.eta(t)))) for t in combinations(ys, scheme.m - 1))
    eta_of = dict(eta_table)
    for s, kept in sigma_table:
        if not set(s).issubset(eta_of[kept]):
            raise DescentError(frozenset(s))
    return ReductionWitness(x, len(z), reduced, ys, sigma_table, eta_table)


@dataclass(frozen=True)
class SearchProblem:
    """Existence question: is there a sound (m+1)-to-m selection scheme on
    n points whose reconstructions never exceed budget elements?"""

    n: int
    m: int
    budget: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("scheme arity must be >= 0")
        if self.n < max(self.m + 1, 2):
            raise ValueError("domain must hold an (m+1)-subset and at least 2 points")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    verdict: str  # "SAT" | "UNSAT"
    problem: SearchProblem
    nodes: int  # matcher edge visits; 0 when the counting bound refutes
    reason: str
    sigma_table: tuple[tuple[tuple[int, ...], int], ...] | None = None
    eta_table: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] | None = None
    witness: MonotoneScheme | None = None


def counting_refutes(problem: SearchProblem) -> bool:
    """Exact existence test: True iff no sound scheme exists. If sigma
    drops e from beta, the m-set beta - {e} must reconstruct its own m
    points plus e, so each m-set can hold at most budget - m dropped
    partners; all C(n, m+1) subsets need a slot among C(n, m) *
    (budget - m). The bound is also sufficient: every (m+1)-set has m+1
    m-subsets and every m-set n - m supersets, so by Hall's theorem on
    this biregular graph (and flow integrality) the slots can be assigned
    whenever (n - m) / (m + 1) <= budget - m, which is the same inequality.
    As C(n, m+1) = C(n, m) * (n - m) / (m + 1), it is tested in that form,
    without the binomials."""
    capacity = max(0, problem.budget - problem.m)
    return problem.n - problem.m > (problem.m + 1) * capacity


def search_schemes(problem: SearchProblem) -> SearchResult:
    """Decide existence by the counting bound and build the witness by
    augmenting paths (Kuhn; Hopcroft & Karp 1973).

    Each (m+1)-set beta is matched to an m-set beta - {d}, its edges taken
    in ascending d; an m-set holds at most budget - m sets. augment(i, lo)
    searches from set i for an m-set with a free slot, passing through a
    full m-set only by moving one of its holders whose index is >= lo.
    Pass 1 matches every set. Pass 2 releases each set i in order and
    re-augments it with sets 0..i fixed, which gives i its smallest
    feasible drop: the result is the lexicographically first assignment.
    The search is iterative, so path length is not bounded by the
    recursion limit. The witness is re-verified exhaustively before it is
    returned.
    """
    if counting_refutes(problem):
        return SearchResult("UNSAT", problem, 0, "counting bound")

    n, m, capacity = problem.n, problem.m, problem.budget - problem.m
    betas = list(combinations(range(n), m + 1))
    ts = list(combinations(range(n), m))
    t_index = {t: k for k, t in enumerate(ts)}
    edges = [[t_index[beta[:d] + beta[d + 1:]] for d in range(m + 1)] for beta in betas]
    holders: list[list[int]] = [[] for _ in ts]
    match: list[int | None] = [None] * len(betas)  # position of the dropped point in beta
    nodes = 0

    def augment(root: int, lo: int) -> bool:
        nonlocal nodes
        seen = bytearray(len(ts))
        parent: dict[int, tuple[int, int]] = {}  # displaced set -> (set, edge) taking its slot
        # exhaust each first edge before trying the next, so a later edge's
        # slot is never marked seen early: root gets its smallest feasible drop
        for first, t in enumerate(edges[root]):
            nodes += 1
            if seen[t]:
                continue
            seen[t] = 1
            stack = [(root, first)]
            while stack:
                j, pos = stack.pop()
                slot = edges[j][pos]
                if len(holders[slot]) < capacity:
                    while True:  # j takes slot; the set it displaced moves on
                        old = match[j]
                        holders[slot].append(j)
                        match[j] = pos
                        if old is None:
                            return True
                        holders[edges[j][old]].remove(j)
                        j, pos = parent[j]
                        slot = edges[j][pos]
                for k in holders[slot]:
                    if k < lo:
                        continue
                    parent[k] = (j, pos)
                    for p, t2 in enumerate(edges[k]):
                        nodes += 1
                        if not seen[t2]:
                            seen[t2] = 1
                            stack.append((k, p))
        return False

    for i in range(len(betas)):
        if not augment(i, 0):
            raise AssertionError("matcher failed where the counting bound admits a scheme")
    for i in range(len(betas)):
        holders[edges[i][match[i]]].remove(i)
        match[i] = None
        if not augment(i, i + 1):
            raise AssertionError("matcher lost a set while fixing the first assignment")

    assignment = [beta[pos] for beta, pos in zip(betas, match)]
    sigma_map = {
        frozenset(beta): frozenset(beta) - {dropped}
        for beta, dropped in zip(betas, assignment)
    }
    eta_map = {
        frozenset(t): frozenset(t).union(assignment[k] for k in held)
        for t, held in zip(ts, holders)
    }

    def compress(beta: frozenset[int]) -> frozenset[int]:
        try:
            return sigma_map[beta]
        except KeyError:
            raise SchemeError(f"subset {sorted(beta)} outside the searched domain") from None

    def reconstruct(t: frozenset[int]) -> frozenset[int]:
        try:
            return eta_map[t]
        except KeyError:
            raise SchemeError(f"subset {sorted(t)} outside the searched domain") from None

    witness = MonotoneScheme(m, compress, reconstruct, budget=problem.budget)
    report = verify_soundness(witness, map(frozenset, betas))
    if not report.ok:
        raise AssertionError("searcher produced an unsound witness")

    sigma_table = tuple(zip(betas, assignment))
    eta_table = tuple((t, tuple(sorted(eta_map[frozenset(t)]))) for t in ts)
    return SearchResult("SAT", problem, nodes, "witness verified", sigma_table, eta_table, witness)


WITNESS_HEADER = "# emx-scheme-witness 1"


def _row(tag: str, subset: Iterable[int], out: Iterable[int]) -> str:
    return f"{tag}: {' '.join(map(str, subset))} | {' '.join(map(str, out))}"


def witness_to_text(result: SearchResult) -> str:
    """Dump a SAT witness: sigma lines as `subset | dropped`, eta lines as
    `subset | reconstruction`, both in lexicographic subset order."""
    if result.verdict != "SAT" or result.sigma_table is None or result.eta_table is None:
        raise ValueError("only SAT results carry a witness")
    p = result.problem
    lines = [WITNESS_HEADER, f"n: {p.n}", f"m: {p.m}", f"budget: {p.budget}"]
    lines += [_row("sigma", beta, [dropped]) for beta, dropped in result.sigma_table]
    lines += [_row("eta", t, out) for t, out in result.eta_table]
    return "\n".join(lines) + "\n"


def descent_to_text(witness: ReductionWitness) -> str:
    """Dump a descent witness: the anchor, |Z| and the sub-domain, then
    sigma lines as `subset | kept` and eta lines as `subset |
    reconstruction`, both in lexicographic subset order."""
    lines = ["# emx-descent-witness 1", f"x: {witness.x}", f"z_size: {witness.z_size}",
             "y: " + " ".join(map(str, witness.y)), f"reduced_m: {witness.reduced.m}"]
    lines += [_row("sigma", s, kept) for s, kept in witness.sigma_table]
    lines += [_row("eta", t, out) for t, out in witness.eta_table]
    return "\n".join(lines) + "\n"
