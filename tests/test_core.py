import math
import re
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import emx.core
from emx.core import (
    FiniteDomain,
    FiniteSupportDistribution,
    draw_sample,
    expectation,
    naturals_domain,
)

# the ad table: people 1..4, ad_1 = {1,4}, ad_2 = {2,3,4}
AD_1 = frozenset({1, 4})
AD_2 = frozenset({2, 3, 4})


@st.composite
def mass_maps(draw, max_support=6):
    """Positive Fraction masses summing to 1 on up to max_support ids in
    0..40, in the order the ids were drawn."""
    n = draw(st.integers(1, max_support))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(weights)
    return {i: Fraction(w, total) for i, w in zip(ids, weights)}


def distributions(max_support=6):
    return mass_maps(max_support).map(FiniteSupportDistribution)


class TestPointsAndDomains:
    def test_finite_domain_indexing(self):
        dom = FiniteDomain(size=3)
        assert dom.size == 3
        assert dom.ids() == range(3)
        assert dom == FiniteDomain(size=3) != FiniteDomain(size=4)

    def test_finite_domain_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one point"):
            FiniteDomain(size=0)

    @pytest.mark.parametrize("size", [[3], True, 6.7, "3", None])
    def test_finite_domain_rejects_non_integer_sizes(self, size):
        with pytest.raises(ValueError, match="size must be an integer"):
            FiniteDomain(size=size)

    def test_naturals_domain_is_countable(self):
        dom = naturals_domain()
        assert dom.size is None
        assert dom == naturals_domain()


class TestDistribution:
    def test_rejects_bad_masses(self):
        with pytest.raises(ValueError):
            FiniteSupportDistribution({})
        with pytest.raises(ValueError):
            FiniteSupportDistribution({1: Fraction(1, 2), 2: Fraction(1, 3)})
        with pytest.raises(ValueError):
            FiniteSupportDistribution({1: Fraction(0), 2: Fraction(1)})
        with pytest.raises(ValueError):
            FiniteSupportDistribution({1: Fraction(-1, 2), 2: Fraction(3, 2)})

    @pytest.mark.parametrize(
        "masses, shown",
        [
            ({1.5: "1/2", 2: "1/2"}, "1.5"),
            ({"1": "1/2", 1: "1/2"}, "'1'"),
            ({True: 1}, "True"),
            ({None: 1}, "None"),
        ],
    )
    def test_rejects_ids_that_are_not_ints(self, masses, shown):
        message = re.escape(f"point id must be an integer, got {shown}")
        with pytest.raises(ValueError, match=message):
            FiniteSupportDistribution(masses)

    @pytest.mark.parametrize("ids, shown", [([1, 2.0], "2.0"), ([1, True], "True"), (["3"], "'3'")])
    def test_uniform_rejects_ids_that_are_not_ints(self, ids, shown):
        message = re.escape(f"point id must be an integer, got {shown}")
        with pytest.raises(ValueError, match=message):
            FiniteSupportDistribution.uniform(ids)

    def test_uniform_and_point_mass(self):
        d = FiniteSupportDistribution.uniform([3, 1, 2])
        assert d.mass(1) == Fraction(1, 3)
        assert d.support == (1, 2, 3)
        pm = FiniteSupportDistribution.uniform([7])
        assert pm.mass(7) == 1

    @given(mass_maps(), mass_maps(), st.data())
    def test_integer_form_keeps_the_masses(self, masses, other, data):
        # oracle: the Fraction masses the distribution was built from
        d = FiniteSupportDistribution(masses)
        in_order = sorted(masses.items())
        assert list(d.items()) == in_order
        assert all(d.mass(i) == masses.get(i, 0) for i in range(-1, 42))
        assert d.denominator == math.lcm(*(m.denominator for m in masses.values()))
        shuffled = data.draw(st.permutations(list(masses.items())))
        assert FiniteSupportDistribution(dict(shuffled)) == d
        assert (FiniteSupportDistribution(other) == d) == (other == masses)
        inner = ", ".join(f"{i}: {m}" for i, m in in_order)
        assert repr(d) == f"FiniteSupportDistribution({{{inner}}})"


class TestExpectation:
    def test_full_support_cover(self):
        d = FiniteSupportDistribution.uniform([2, 3, 4])
        assert expectation(d, frozenset({2, 3, 4})) == 1

    def test_ad_table_ad1(self):
        d = FiniteSupportDistribution.uniform([1, 2, 3, 4])
        assert expectation(d, AD_1) == Fraction(1, 2)

    def test_empty_hypothesis(self):
        d = FiniteSupportDistribution.uniform([5, 6])
        assert expectation(d, frozenset()) == 0

    # the gap of a hypothesis is the mass it misses, 1 - expectation
    def test_gap_ad2(self):
        d = FiniteSupportDistribution.uniform([1, 2, 3, 4])
        assert 1 - expectation(d, AD_2) == Fraction(1, 4)

    def test_gap_zero_when_support_covered(self):
        d = FiniteSupportDistribution.uniform([1, 2, 3])
        assert 1 - expectation(d, frozenset({1, 2, 3, 9})) == 0

    def test_gap_on_naturals_prefix(self):
        d = FiniteSupportDistribution.uniform(range(1, 21))
        assert 1 - expectation(d, frozenset(range(1, 16))) == Fraction(1, 4)

    @given(distributions(), st.sets(st.integers(0, 40)), st.sets(st.integers(0, 40)))
    def test_expectation_monotone(self, d, small, extra):
        inner = frozenset(small)
        outer = frozenset(small | extra)
        assert expectation(d, inner) <= expectation(d, outer)

    @given(distributions(max_support=20), st.sets(st.integers(-3, 45), max_size=40))
    def test_captured_weight_matches_brute_force(self, d, ids):
        """Member sets smaller and larger than the support, with ids
        outside it, against the sum over the support's masses; a list
        that repeats every id counts each point once."""
        brute = sum(mass for pid, mass in d.items() if pid in ids) * d.denominator
        repeated = sorted(ids) * 2
        assert d.captured_weight(ids) == d.captured_weight(frozenset(ids)) == brute
        assert d.captured_weight(repeated) == brute

    @given(distributions(), st.sets(st.integers(0, 40)))
    def test_range_and_one_iff_cover(self, d, ids):
        captured = expectation(d, frozenset(ids))
        assert 0 <= captured <= 1
        assert (captured == 1) == set(d.support).issubset(ids)


class TestSampling:
    def test_zero_draws(self):
        d = FiniteSupportDistribution.uniform([1, 2])
        assert draw_sample(d, 0, 5) == ()

    def test_point_mass_always_draws_the_point(self):
        d = FiniteSupportDistribution.uniform([9])
        assert draw_sample(d, 7, 123) == (9,) * 7

    def test_golden_sequence(self):
        # frozen after the first run; reruns must reproduce it bit-identically
        d = FiniteSupportDistribution.uniform(range(1, 21))
        assert draw_sample(d, 10, 42) == (4, 1, 9, 8, 8, 5, 4, 18, 3, 19)

    @given(st.integers(0, 2**64), st.integers(0, 30))
    def test_reproducible(self, seed, m):
        d = FiniteSupportDistribution({1: Fraction(1, 2), 2: Fraction(1, 3), 5: Fraction(1, 6)})
        assert draw_sample(d, m, seed) == draw_sample(d, m, seed)

    def test_empirical_frequencies(self):
        d = FiniteSupportDistribution({1: Fraction(1, 2), 2: Fraction(1, 3), 5: Fraction(1, 6)})
        n = 100_000
        sample = draw_sample(d, n, 2024)
        counts = {pid: 0 for pid in d.support}
        for pid in sample:
            counts[pid] += 1
        for pid, mass in d.items():
            p = float(mass)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[pid] / n - p) <= 4 * se

    def test_samples_stay_in_support(self):
        d = FiniteSupportDistribution({3: Fraction(2, 5), 8: Fraction(3, 5)})
        sample = draw_sample(d, 200, 7)
        assert frozenset(sample) <= {3, 8}

    @pytest.mark.parametrize("seed", ["1", 1.0, None, b"1"])
    @pytest.mark.parametrize("m", [0, 3])
    def test_seed_that_is_not_an_int_is_refused(self, monkeypatch, seed, m):
        """random.Random seeds a str or bytes differently from the C
        generator, and None from the system: refused before a generator
        is made."""
        made = []
        monkeypatch.setattr(emx.core, "Random", made.append)
        d = FiniteSupportDistribution.uniform([1, 2])
        with pytest.raises(TypeError, match="sample seed must be an int"):
            draw_sample(d, m, seed)
        assert made == []


def guide_lookup(dist, r):
    """The index of the point r selects, found as draw_sample finds it:
    from the guide entry of r's block, past every bound <= r."""
    _, bounds, guide, _, _, shift = dist._sampler
    i = guide[r >> shift]
    while bounds[i] <= r:
        i += 1
    return i


class TestGuideTable:
    @given(st.lists(st.integers(1, 409), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_lookup_is_bisect_on_every_outcome(self, weights):
        """Every r in 0..D-1 for D <= 2**12 (weights over their sum, so D
        may be a divisor of the sum)."""
        total = sum(weights)
        d = FiniteSupportDistribution(
            {pid: Fraction(w, total) for pid, w in enumerate(weights)})
        bounds = d._bounds
        assert d.denominator <= 2**12
        assert all(guide_lookup(d, r) == bisect_right(bounds, r) for r in range(d.denominator))

    @pytest.mark.parametrize("denom", sorted(
        {1} | {2**k + delta for k in (1, 5, 31, 32, 33, 64, 100) for delta in (-1, 0, 1)}))
    @given(st.data())
    @settings(max_examples=20)
    def test_lookup_is_bisect_at_block_and_bound_edges(self, denom, data):
        """The weights of `test_sampler_matches_randrange`, at the first and
        last outcome of every block and on either side of every bound."""
        a = data.draw(st.integers(0, denom - 1))
        weights = [w for w in (1, a, denom - 1 - a) if w]
        d = FiniteSupportDistribution(
            {pid: Fraction(w, denom) for pid, w in enumerate(weights)})
        _, bounds, guide, _, _, shift = d._sampler
        edges = {e for j in range(len(guide)) for e in ((j << shift) - 1, j << shift)}
        edges |= {e for b in bounds for e in (b - 1, b)}
        for r in sorted(e for e in edges if 0 <= e < denom):
            assert guide_lookup(d, r) == bisect_right(bounds, r)

    def test_exact_on_the_tank_distribution(self):
        """On uniform 1..20 every outcome has its own block: the guide
        entry is the point, with no bound to step past."""
        d = FiniteSupportDistribution.uniform(range(1, 21))
        _, bounds, guide, _, _, shift = d._sampler
        assert shift == 0
        assert list(guide) == [bisect_right(bounds, r) for r in range(20)]
