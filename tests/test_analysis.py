from itertools import combinations
from math import comb

import pytest

from emx.analysis import (
    DescentError,
    DeskScaleError,
    SearchProblem,
    counting_refutes,
    descend,
    descent_to_text,
    reconstruction_image,
    search_schemes,
    witness_to_text,
)
from emx.core import FiniteDomain, naturals_domain
from emx.schemes import (
    MonotoneScheme,
    enumeration_scheme,
    identity_eta_scheme,
    tower_scheme,
    verify_soundness,
)
from emx.towers import enumerated_tower, finite_proxy_tower
from oracles import first_assignment_brute_force, scheme_exists_brute_force

# depth-1 proxy instance whose reconstruction image leaves an anchor free
# (most seeds cover the whole 60-point domain; this one does not)
PROXY_SIZE = 60
PROXY_SEED = 2510

# every (n, m, budget) whose assignment space the oracle can walk quickly;
# budgets <= m leave no slot at all and would force full enumeration
ENUMERABLE = [
    (n, m, budget)
    for n in range(2, 9)
    for m in range(n)
    if (m + 1) ** comb(n, m + 1) <= 60_000
    for budget in range(m + 1, n + 2)
]


@pytest.fixture(scope="module")
def first_assignments():
    return {case: first_assignment_brute_force(*case) for case in ENUMERABLE}


def naturals_scheme():
    return enumeration_scheme(enumerated_tower(naturals_domain()))


def proxy_scheme():
    return tower_scheme(finite_proxy_tower(FiniteDomain(size=PROXY_SIZE), 1, PROXY_SEED))


class TestReconstructionImage:
    def test_enumeration_image_is_the_prefix(self):
        z = reconstruction_image(naturals_scheme(), range(6))
        assert z == frozenset(range(6))

    def test_image_is_eta_of_m_subsets_and_of_sigma_images(self):
        cases = [
            (proxy_scheme(), range(8)),
            (proxy_scheme(), {3, 11, 17, 30, 42, 59}),
            (naturals_scheme(), range(6)),
            (naturals_scheme(), {2, 7, 8, 20}),
        ]
        for scheme, sub_domain in cases:
            pool = sorted(sub_domain)
            expected: set[int] = set()
            for t in combinations(pool, scheme.m):
                expected |= scheme.eta(t)
            for beta in combinations(pool, scheme.m + 1):
                expected |= scheme.eta(scheme.sigma(beta))
            assert reconstruction_image(scheme, sub_domain) == expected


class TestDescend:
    def test_enumeration_descent(self):
        witness = descend(naturals_scheme(), 101, range(6))
        assert witness.x == 6
        assert witness.z_size == 6
        reduced = witness.reduced
        assert reduced.m == 0
        # the reduced reconstruction from nothing must hold all of Y
        assert frozenset(range(6)) <= reduced.eta(())
        report = verify_soundness(reduced, [{y} for y in range(6)])
        assert report.ok

    def test_single_subset_degenerate_sub_domain(self):
        witness = descend(naturals_scheme(), 50, {0, 1})
        assert witness.reduced.m == 0
        assert verify_soundness(witness.reduced, [{0}, {1}]).ok

    def test_depth1_proxy_descent(self):
        witness = descend(proxy_scheme(), PROXY_SIZE, range(8))
        assert witness.z_size < PROXY_SIZE
        reduced = witness.reduced
        assert reduced.m == 1
        report = verify_soundness(reduced, combinations(range(8), 2))
        assert report.checked == 28
        assert report.violations == ()

    def test_witness_tables_are_the_reduced_scheme_on_y(self):
        witness = descend(proxy_scheme(), PROXY_SIZE, [7, 2, 5, 3])
        y, reduced = (2, 3, 5, 7), witness.reduced
        assert witness.y == y
        assert witness.sigma_table == tuple(
            (s, tuple(sorted(reduced.sigma(s)))) for s in combinations(y, 2)
        )
        assert witness.eta_table == tuple((t, tuple(sorted(reduced.eta(t)))) for t in combinations(y, 1))
        lines = descent_to_text(witness).splitlines()
        assert lines[:5] == ["# emx-descent-witness 1", f"x: {witness.x}",
                             f"z_size: {witness.z_size}", "y: 2 3 5 7", "reduced_m: 1"]
        s, kept = witness.sigma_table[0]
        assert lines[5] == f"sigma: {s[0]} {s[1]} | {kept[0]}"
        assert len(lines) == 5 + comb(4, 2) + comb(4, 1)

    def test_desk_scale_failure_reports_image_size(self):
        # restrict the domain to the sub-domain itself: everything is covered
        with pytest.raises(DeskScaleError) as err:
            descend(naturals_scheme(), 6, range(6))
        assert err.value.z_size == 6

    def test_unsound_scheme_fails_verification(self):
        # identity eta never recovers the dropped point, and its image
        # misses most of the domain, so an anchor exists but the reduced
        # scheme is unsound; the error names the first unsound subset in
        # lexicographic order, as verify_soundness lists them
        with pytest.raises(DescentError) as err:
            descend(identity_eta_scheme(2), 30, range(5))
        assert err.value.subset == frozenset({0, 1})

    def test_rejects_tiny_sub_domain_and_arity_zero(self):
        with pytest.raises(ValueError):
            descend(naturals_scheme(), 10, {3})
        zero = MonotoneScheme(0, lambda b: frozenset(), lambda t: frozenset(range(3)))
        with pytest.raises(ValueError):
            descend(zero, 10, range(2))

    def test_sub_domain_must_be_inside_domain(self):
        with pytest.raises(ValueError):
            descend(naturals_scheme(), 5, {3, 9})


class TestCountingBound:
    def test_known_thresholds(self):
        assert counting_refutes(SearchProblem(3, 0, 2))
        assert not counting_refutes(SearchProblem(3, 0, 3))
        assert counting_refutes(SearchProblem(5, 1, 2))
        assert not counting_refutes(SearchProblem(5, 1, 3))

    def test_closed_form_equals_binomial_form(self):
        # C(n, m+1) > C(n, m) * (budget - m), the slots the docstring counts
        for n in range(2, 41):
            for m in range(n):
                for budget in range(1, n + 3):
                    problem = SearchProblem(n, m, budget)
                    binomial = comb(n, m + 1) > comb(n, m) * max(0, budget - m)
                    assert counting_refutes(problem) == binomial, problem

    def test_bound_is_exact_on_enumerable_grid(self, first_assignments):
        for (n, m, budget), first in first_assignments.items():
            problem = SearchProblem(n, m, budget)
            exists = first is not None
            assert counting_refutes(problem) == (not exists), (n, m, budget)
            result = search_schemes(problem)
            if exists:
                assert result.verdict == "SAT"
            else:
                assert (result.verdict, result.reason, result.nodes) == ("UNSAT", "counting bound", 0)


class TestSearch:
    @pytest.mark.parametrize(
        "n,m,budget,expected",
        [
            (3, 0, 2, "UNSAT"),
            (3, 0, 3, "SAT"),
            (5, 1, 2, "UNSAT"),
            (5, 1, 3, "SAT"),
            (4, 1, 2, "UNSAT"),
            (4, 1, 3, "SAT"),
        ],
    )
    def test_verdicts_match_brute_force_oracle(self, n, m, budget, expected):
        oracle = scheme_exists_brute_force(n, m, budget)
        assert ("SAT" if oracle else "UNSAT") == expected
        result = search_schemes(SearchProblem(n, m, budget))
        assert result.verdict == expected

    def test_sat_witness_is_verified_and_within_budget(self):
        result = search_schemes(SearchProblem(5, 1, 3))
        assert result.verdict == "SAT"
        witness = result.witness
        subsets = list(combinations(range(5), 2))
        assert verify_soundness(witness, subsets).ok
        for t, out in result.eta_table:
            assert len(out) <= 3
            assert set(t) <= set(out)

    def test_trivial_one_to_zero_witness_is_whole_domain(self):
        result = search_schemes(SearchProblem(3, 0, 3))
        assert result.verdict == "SAT"
        assert result.witness.eta(()) == frozenset({0, 1, 2})

    def test_unsat_monotone_in_budget(self):
        for budget in (1, 2):
            assert search_schemes(SearchProblem(5, 1, budget)).verdict == "UNSAT"
        assert search_schemes(SearchProblem(5, 1, 3)).verdict == "SAT"

    @pytest.mark.parametrize("n,m,budget", [(7, 2, 4), (7, 3, 4), (8, 2, 5)])
    def test_tight_cases_have_verified_witnesses(self, n, m, budget):
        result = search_schemes(SearchProblem(n, m, budget))
        assert result.verdict == "SAT"
        assert verify_soundness(result.witness, combinations(range(n), m + 1)).ok
        assert all(len(out) <= budget for _, out in result.eta_table)

    def test_witness_is_first_assignment_in_product_order(self, first_assignments):
        for (n, m, budget), first in first_assignments.items():
            if first is not None:
                result = search_schemes(SearchProblem(n, m, budget))
                assert result.sigma_table == first, (n, m, budget)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            SearchProblem(1, 0, 2)
        with pytest.raises(ValueError):
            SearchProblem(4, -1, 2)
        with pytest.raises(ValueError):
            SearchProblem(4, 1, 0)

    def test_witness_text_format(self):
        result = search_schemes(SearchProblem(3, 0, 3))
        text = witness_to_text(result)
        lines = text.splitlines()
        assert lines[0] == "# emx-scheme-witness 1"
        assert "n: 3" in lines and "m: 0" in lines and "budget: 3" in lines
        assert any(line.startswith("sigma: ") for line in lines)
        assert any(line.startswith("eta: ") for line in lines)
        with pytest.raises(ValueError):
            witness_to_text(search_schemes(SearchProblem(3, 0, 2)))
