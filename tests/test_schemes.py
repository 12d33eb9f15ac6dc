import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from emx.core import FiniteDomain, naturals_domain
from emx.schemes import (
    RECONSTRUCT_CACHE_SIZE,
    MonotoneScheme,
    SchemeError,
    enumeration_scheme,
    identity_eta_scheme,
    seeded_subsets,
    tower_scheme,
    verify_soundness,
)
from emx.towers import OrderTower, enumerated_tower, finite_proxy_tower
from oracles import enumeration_reference


def naturals_scheme():
    return enumeration_scheme(enumerated_tower(naturals_domain()))


class TestEnumerationScheme:
    def test_keeps_later_point_and_recovers_earlier(self):
        scheme = naturals_scheme()
        assert scheme.sigma({5, 9}) == frozenset({9})
        out = scheme.eta({9})
        assert out == frozenset(range(10))
        assert 5 in out

    def test_rejects_wrong_sizes(self):
        scheme = naturals_scheme()
        with pytest.raises(SchemeError):
            scheme.sigma({4, 4})  # a 1-set after dedup
        with pytest.raises(SchemeError):
            scheme.sigma({1, 2, 3})
        with pytest.raises(SchemeError):
            scheme.eta({1, 2})

    def test_needs_depth0_tower(self):
        tower = finite_proxy_tower(FiniteDomain(size=4), 1, 0)
        with pytest.raises(ValueError):
            enumeration_scheme(tower)

    def test_exhaustive_soundness_over_first_30_rationals(self):
        scheme = enumeration_scheme(enumerated_tower(naturals_domain()))
        report = verify_soundness(scheme, combinations(range(30), 2))
        assert report.checked == 435
        assert report.violations == ()

    def test_eta_monotone_in_index(self):
        scheme = naturals_scheme()
        for lo, hi in [(0, 1), (3, 17), (5, 5)]:
            assert scheme.eta({lo}) <= scheme.eta({hi})

    def test_reconstruction_cache_is_bounded(self):
        # a depth-0 and a depth-1 stub tower keyed by id: the survivor of
        # kernel(k) is k, which below() records before it is cached
        for build, depth in ((enumeration_scheme, 0), (tower_scheme, 1)):
            calls = []

            def below(context, bound):
                calls.append(bound)
                return frozenset({bound})

            def kernel(k):
                return frozenset({k, k + RECONSTRUCT_CACHE_SIZE + 1} if depth else {k})

            scheme = build(OrderTower(depth, lambda level, context: lambda pid: pid, below))
            for _ in range(2):
                for k in range(RECONSTRUCT_CACHE_SIZE):
                    scheme.eta(kernel(k))
            assert len(calls) == RECONSTRUCT_CACHE_SIZE  # the second pass hit every entry
            scheme.eta(kernel(RECONSTRUCT_CACHE_SIZE))
            assert scheme.eta(kernel(0)) == kernel(0)
            assert len(calls) == RECONSTRUCT_CACHE_SIZE + 2  # kernel(0) was evicted and rebuilt


class TestEnumerationReference:
    """The enumeration scheme, built as the depth-0 tower scheme, agrees
    with the 2-to-1 scheme written on its own."""

    @staticmethod
    def assert_matches_reference(tower, pair, kept):
        scheme = enumeration_scheme(tower)
        compress, reconstruct = enumeration_reference(tower)
        beta = frozenset(pair)
        assert scheme.sigma(beta) == compress(beta)
        for t in (scheme.sigma(beta), frozenset({kept}), frozenset({kept})):  # miss, then hit
            assert scheme.eta(t) == reconstruct(t)

    @given(st.sets(st.integers(0, 2000), min_size=2, max_size=2), st.integers(0, 2000))
    @settings(max_examples=60)
    def test_countable_domain(self, pair, kept):
        self.assert_matches_reference(enumerated_tower(naturals_domain()), pair, kept)

    @given(st.data(), st.integers(2, 60), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_depth0_proxy_towers(self, data, n, seed):
        tower = finite_proxy_tower(FiniteDomain(size=n), 0, seed)
        pair = data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=2))
        kept = data.draw(st.integers(0, n - 1))
        self.assert_matches_reference(tower, pair, kept)


def stub_tower(depth, level_keys):
    """Tower with dictated keys: level_keys[level] maps id -> key, the
    level-0 table is reused for every context."""

    def keys(level, context):
        return level_keys[level].__getitem__

    def below(context, bound):
        return frozenset(p for p, k in level_keys[0].items() if k <= bound)

    return OrderTower(depth, keys, below)


class TestTowerScheme:
    def test_depth0_tower_equals_enumeration_scheme(self):
        dom = naturals_domain()
        tower = enumerated_tower(dom)
        enum = enumeration_scheme(tower)
        towered = tower_scheme(tower)
        assert towered.m == 1
        for pair in combinations(range(12), 2):
            beta = frozenset(pair)
            assert towered.sigma(beta) == enum.sigma(beta)
            assert towered.eta(towered.sigma(beta)) == enum.eta(enum.sigma(beta))

    def test_extraction_order_with_dictated_keys(self):
        # ids 0,1,2 with level-1 keys 2,7,4: id 1 is extracted first; the
        # other two are compared at level 0, where id 2 wins
        keys = {1: {0: 2, 1: 7, 2: 4}, 0: {0: 1, 1: 0, 2: 5}}
        scheme = tower_scheme(stub_tower(1, keys))
        beta = frozenset({0, 1, 2})
        kept = scheme.sigma(beta)
        assert kept == frozenset({1, 2})  # id 0 has the smaller level-0 key
        out = scheme.eta(kept)
        assert beta <= out  # the dropped point reappears

    def test_dropped_point_always_reappears(self):
        dom = FiniteDomain(size=60)
        scheme = tower_scheme(finite_proxy_tower(dom, 2, 7))
        assert scheme.m == 3
        for beta in seeded_subsets(range(60), 4, 500, seed=77):
            kept = scheme.sigma(beta)
            assert kept < beta
            assert beta <= scheme.eta(kept)

    def test_wrong_sizes_rejected(self):
        scheme = tower_scheme(finite_proxy_tower(FiniteDomain(size=10), 1, 3))
        with pytest.raises(SchemeError):
            scheme.sigma({1, 2})
        with pytest.raises(SchemeError):
            scheme.eta({1, 2, 3})

    @given(st.integers(0, 2**32), st.sets(st.integers(0, 39), min_size=3, max_size=3))
    @settings(max_examples=50)
    def test_presentation_order_irrelevant(self, seed, ids):
        scheme = tower_scheme(finite_proxy_tower(FiniteDomain(size=40), 1, seed))
        shuffled = list(ids)
        random.Random(seed).shuffle(shuffled)
        assert scheme.sigma(ids) == scheme.sigma(shuffled)
        kept = scheme.sigma(ids)
        assert scheme.eta(kept) == scheme.eta(list(kept))


class TestVerifySoundness:
    def test_sound_scheme_has_no_violations(self):
        report = verify_soundness(naturals_scheme(), combinations(range(10), 2))
        assert report.ok
        assert report.checked == 45

    def test_identity_eta_fails_everywhere(self):
        scheme = identity_eta_scheme()
        subsets = list(combinations(range(8), 2))
        report = verify_soundness(scheme, subsets)
        assert report.checked == len(subsets)
        assert len(report.violations) == len(subsets)

    def test_wrong_size_subset_raises_scheme_error(self):
        for subsets in ([{1, 2}, {1, 2, 3}], [{4}, {1, 2}]):
            with pytest.raises(SchemeError, match="sigma expects 2 distinct points"):
                verify_soundness(naturals_scheme(), subsets)

    def test_violations_in_canonical_order(self):
        subsets = [{5, 7}, {1, 9}, {1, 3}, {2, 4}]
        report = verify_soundness(identity_eta_scheme(), subsets)
        assert report.violations == tuple(map(frozenset, ([1, 3], [1, 9], [2, 4], [5, 7])))


class TestSchemeContract:
    def test_selection_violation_is_caught(self):
        bad = MonotoneScheme(1, lambda beta: frozenset({99}), lambda t: t)
        with pytest.raises(SchemeError):
            bad.sigma({1, 2})

    def test_budget_enforced_on_eta(self):
        wide = MonotoneScheme(1, lambda b: frozenset([max(b)]), lambda t: frozenset(range(10)), budget=3)
        with pytest.raises(SchemeError):
            wide.eta({1})

    def test_eta_must_stay_inside_the_universe(self):
        leaky = MonotoneScheme(
            1, lambda b: frozenset([max(b)]), lambda t: t | {7}, universe=frozenset(range(5))
        )
        with pytest.raises(SchemeError, match="universe"):
            leaky.eta({1})
        inside = MonotoneScheme(
            1, lambda b: frozenset([max(b)]), lambda t: t | {4}, universe=frozenset(range(5))
        )
        assert inside.eta({1}) == frozenset({1, 4})

    def test_tower_schemes_take_the_universe_of_their_tower(self):
        domain = FiniteDomain(size=6)
        assert tower_scheme(finite_proxy_tower(domain, 1, 0)).universe == frozenset(range(6))
        assert enumeration_scheme(finite_proxy_tower(domain, 0, 0)).universe == frozenset(range(6))
        assert naturals_scheme().universe is None
        assert identity_eta_scheme().universe is None

    def test_seeded_subsets_deterministic(self):
        a = seeded_subsets(range(20), 3, 25, seed=5)
        b = seeded_subsets(range(20), 3, 25, seed=5)
        assert a == b
        assert all(len(s) == 3 for s in a)
