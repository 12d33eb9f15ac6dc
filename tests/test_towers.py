import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from emx.core import FiniteDomain, naturals_domain
from emx.schemes import tower_scheme
from emx.seeds import order_hash
import emx.towers
from emx.towers import ORDERING_CACHE_POINTS, enumerated_tower, finite_proxy_tower
from oracles import per_id_hash, reference_tower


def counting(hashed, digests=None):
    """An order_hash that records (level, context, number of ids) per call
    and returns digests(pid) for each id, or the real digests."""

    def order_hash_spy(seed, level, context, ids):
        ids = list(ids)
        hashed.append((level, context, len(ids)))
        if digests is None:
            return order_hash(seed, level, context, ids)
        return [digests(pid) for pid in ids]

    return order_hash_spy


class TestFiniteProxy:
    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            finite_proxy_tower(FiniteDomain(size=3), -1, 0)

    def test_deterministic_rebuild(self):
        dom = FiniteDomain(size=25)
        a = finite_proxy_tower(dom, 2, 11)
        b = finite_proxy_tower(dom, 2, 11)
        ctx = (3, 8)
        for pid in dom.ids():
            assert a.key(0, ctx, pid) == b.key(0, ctx, pid)
            assert a.key(2, (), pid) == b.key(2, (), pid)

    def test_depth0_key_contains_itself_in_prefix(self):
        dom = FiniteDomain(size=3)
        tower = finite_proxy_tower(dom, 0, 99)
        for pid in dom.ids():
            assert pid in tower.enumerate_below((), tower.key(0, (), pid))

    def test_keys_injective_per_context(self):
        dom = FiniteDomain(size=50)
        tower = finite_proxy_tower(dom, 2, 7)
        rng = random.Random(0)
        for _ in range(100):
            level = rng.randrange(3)
            context = tuple(rng.sample(range(50), 2 - level))
            keys = [tower.key(level, context, pid) for pid in dom.ids()]
            assert len(set(keys)) == 50

    def test_keys_differ_across_contexts(self):
        dom = FiniteDomain(size=30)
        tower = finite_proxy_tower(dom, 1, 5)
        order_a = [tower.key(0, (2,), pid) for pid in dom.ids()]
        order_b = [tower.key(0, (3,), pid) for pid in dom.ids()]
        assert order_a != order_b

    def test_enumerate_below_matches_key_predicate(self):
        dom = FiniteDomain(size=20)
        tower = finite_proxy_tower(dom, 1, 13)
        for ctx in [(0,), (7,), (19,)]:
            keys = {pid: tower.key(0, ctx, pid) for pid in dom.ids()}
            (least, _), (most, _) = min(keys.values()), max(keys.values())
            # the keys of points, and bounds between and beyond them, some
            # tying a point's digest with a smaller or larger id
            bounds = list(keys.values()) + [(least, -1), (least, 20), (most, 20), (b"", 0),
                                            (b"\xff" * 17, 0)]
            bounds += [(digest, pid + step) for digest, pid in keys.values() for step in (-1, 1)]
            for bound in bounds:
                prefix = tower.enumerate_below(ctx, bound)
                assert prefix == {pid for pid, key in keys.items() if key <= bound}
            for pid, key in keys.items():
                assert len(tower.enumerate_below(ctx, key)) == sorted(keys.values()).index(key) + 1

    def test_enumerate_below_negative_bound_is_empty(self):
        """Below every key nothing is enumerated: a negative id on the
        enumerated tower, and a bound under every digest on a proxy."""
        naturals = enumerated_tower(naturals_domain())
        assert naturals.enumerate_below((), -1) == naturals.enumerate_below((), -7) == frozenset()
        proxy = finite_proxy_tower(FiniteDomain(size=5), 0, 1)
        assert proxy.enumerate_below((), (b"", 0)) == frozenset()
        least = min(proxy.key(0, (), pid) for pid in range(5))
        assert proxy.enumerate_below((), (least[0], least[1] - 1)) == frozenset()

    def test_context_length_validation(self):
        dom = FiniteDomain(size=5)
        tower = finite_proxy_tower(dom, 2, 0)
        with pytest.raises(ValueError):
            tower.key(2, (1,), 0)
        with pytest.raises(ValueError):
            tower.key(3, (), 0)
        with pytest.raises(ValueError):
            tower.enumerate_below((1,), 3)

    def test_universe_is_the_domain(self):
        dom = FiniteDomain(size=7)
        assert finite_proxy_tower(dom, 1, 3).universe == frozenset(range(7))
        assert enumerated_tower(naturals_domain()).universe is None

    def test_order_hash_matches_per_id_digests(self):
        ids = [0, 5, 9, 10, 17, 123456, 2**70]
        for seed, level, context in [(0, 0, ()), (7, 1, (3,)), (2**40, 0, (9, 1))]:
            assert order_hash(seed, level, context, ids) == [
                per_id_hash(seed, level, context, pid) for pid in ids
            ]

    @given(
        st.integers(61, 120),
        st.integers(0, 2**70),
        st.lists(st.integers(0, 119), min_size=2, max_size=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_orderings_sort_by_per_id_digest(self, size, seed, chain):
        ids = range(size)
        tower = finite_proxy_tower(FiniteDomain(size=size), 2, seed)
        chain = tuple(c % size for c in chain)
        for level, ctx in [(2, ()), (1, chain[:1]), (0, chain)]:
            expected = [(per_id_hash(seed, level, ctx, pid), pid) for pid in ids]
            assert [tower.key(level, ctx, pid) for pid in ids] == expected
            assert sorted(ids, key=tower.keys(level, ctx)) == [pid for _, pid in sorted(expected)]

    @pytest.mark.parametrize(
        "fake_digest",
        [lambda pid: b"\x00" * 16, lambda pid: bytes([pid // 2 % 256]) * 16],
        ids=["all-equal", "equal-in-pairs"],
    )
    def test_equal_digests_keep_ascending_id_order(self, monkeypatch, fake_digest):
        """A key is (digest, id), so equal digests fall back to ascending
        id, in the order the keys give and in the level-0 prefixes."""
        size = 21

        def digest(pid):
            # digests run against id order, so only the tie-break keeps
            # the ids of one digest ascending
            return fake_digest(size - 1 - pid)

        monkeypatch.setattr(emx.towers, "order_hash", counting([], digest))
        tower = finite_proxy_tower(FiniteDomain(size=size), 2, 3)
        order = [pid for _, pid in sorted((digest(pid), pid) for pid in range(size))]
        for level, ctx in [(2, ()), (1, (4,)), (0, (4, 17))]:
            assert sorted(range(size), key=tower.keys(level, ctx)) == order
        for rank, pid in enumerate(order):
            assert tower.enumerate_below((4, 17), tower.key(0, (4, 17), pid)) == set(order[: rank + 1])

    def test_ordering_cache_holds_a_depth2_tower_on_60_points(self, monkeypatch):
        """Every ordering of a depth-2 tower on 60 points, hashed in full,
        fits the cache: asking again hashes nothing. On 65 points they do
        not, and the evicted ones are rebuilt with the same keys."""
        hashed = []
        monkeypatch.setattr(emx.towers, "order_hash", counting(hashed))

        def fill_every_ordering(tower, n):
            upper = [(2, ())] + [(1, (a,)) for a in range(n)]
            keys = [tower.key(level, ctx, pid) for level, ctx in upper for pid in range(n)]
            prefixes = []
            for ctx in [(a, b) for a in range(n) for b in range(n) if a != b]:
                keys.append(tower.key(0, ctx, n - 1))
                prefixes.append(tower.enumerate_below(ctx, keys[-1]))
            return keys, prefixes

        tower = finite_proxy_tower(FiniteDomain(size=60), 2, 8)
        first = fill_every_ordering(tower, 60)
        held = sum(count for *_, count in hashed)
        assert held == (1 + 60 + 60 * 59) * 60 <= ORDERING_CACHE_POINTS
        assert fill_every_ordering(tower, 60) == first
        assert sum(count for *_, count in hashed) == held  # nothing evicted

        hashed.clear()
        tower = finite_proxy_tower(FiniteDomain(size=65), 2, 8)
        first = fill_every_ordering(tower, 65)
        held = sum(count for *_, count in hashed)
        assert held == (1 + 65 + 65 * 64) * 65 > ORDERING_CACHE_POINTS
        assert fill_every_ordering(tower, 65) == first
        assert sum(count for *_, count in hashed) > held  # evicted orderings were rebuilt alike

    @pytest.mark.parametrize("size", [2_048, ORDERING_CACHE_POINTS + 1])
    def test_ordering_cache_holds_its_points_in_orderings(self, monkeypatch, size):
        """A tower on `size` points keeps ORDERING_CACHE_POINTS // size
        contexts, and at least one, so it holds at most that many digests
        with every context hashed in full: its first context is still
        cached after one fewer other fills and is refilled after that many."""
        hashed = []
        # equal digests: every ordering is the id order
        monkeypatch.setattr(emx.towers, "order_hash", counting(hashed, lambda pid: b""))
        kept = max(1, ORDERING_CACHE_POINTS // size)
        for others in (kept - 1, kept):
            hashed.clear()
            tower = finite_proxy_tower(FiniteDomain(size=size), 1, 8)
            for context in [(0,)] + [(a,) for a in range(1, others + 1)] + [(0,)]:
                assert tower.enumerate_below(context, (b"", 5)) == frozenset(range(6))
            refilled = [(0, (0,), size)] if others == kept else []
            fills = [(0, (a,), size) for a in range(others + 1)] + refilled
            assert hashed == fills
        assert kept * size <= ORDERING_CACHE_POINTS or kept == 1

    def test_unknown_point_rejected(self):
        dom = FiniteDomain(size=5)
        tower = finite_proxy_tower(dom, 0, 0)
        with pytest.raises(ValueError, match="^point 17 is not in the domain$"):
            tower.key(0, (), 17)


# Tower sizes for the reference checks: the two smallest domains, and
# sizes past 60, where the orderings of a depth-2 tower still fit the cache
# but need more than one byte of digest to tell most ids apart.
REFERENCE_SIZES = st.sampled_from([1, 2]) | st.integers(61, 120)


def draw_context(data, size, length):
    return tuple(data.draw(st.lists(st.integers(0, size - 1), min_size=length, max_size=length)))


class TestReferenceTower:
    """The lazy tower gives the orders, prefixes and scheme of the tower
    built by sort and position (`oracles.reference_tower`)."""

    @given(st.data(), REFERENCE_SIZES, st.integers(0, 3), st.integers(0, 2**70))
    @settings(max_examples=30, deadline=None)
    def test_orders_prefixes_and_scheme_match(self, data, size, depth, seed):
        tower = finite_proxy_tower(FiniteDomain(size=size), depth, seed)
        reference = reference_tower(size, depth, seed)
        ids = range(size)
        for level in range(depth + 1):
            ctx = draw_context(data, size, depth - level)
            assert sorted(ids, key=tower.keys(level, ctx)) == sorted(ids, key=reference.keys(level, ctx))
        ctx = draw_context(data, size, depth)
        for pid in ids:
            assert tower.enumerate_below(ctx, tower.key(0, ctx, pid)) == (
                reference.enumerate_below(ctx, reference.key(0, ctx, pid))
            )
        m = depth + 1
        if size <= m:
            return
        scheme, expected = tower_scheme(tower), tower_scheme(reference)
        points = st.lists(st.integers(0, size - 1), min_size=m + 1, max_size=m + 1, unique=True)
        for beta in data.draw(st.lists(points.map(frozenset), min_size=1, max_size=5)):
            assert scheme.sigma(beta) == expected.sigma(beta)
            for t in (scheme.sigma(beta), beta - {min(beta)}):
                assert scheme.eta(t) == expected.eta(t)

    @given(st.data(), REFERENCE_SIZES, st.integers(0, 3), st.integers(0, 2**70), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_answers_do_not_depend_on_request_order(self, data, size, depth, seed, evict):
        """Keys asked before and after enumerate_below, interleaved with it,
        through a key function taken before the fill, and with a cache of
        one context that evicts on every change of context, are the
        reference's answers."""
        reference = reference_tower(size, depth, seed)
        limit = size if evict else ORDERING_CACHE_POINTS
        with mock.patch.object(emx.towers, "ORDERING_CACHE_POINTS", limit):
            tower = finite_proxy_tower(FiniteDomain(size=size), depth, seed)
        pool = [(level, draw_context(data, size, depth - level))
                for level in range(depth + 1) for _ in range(2)]
        early = {ordering: tower.keys(*ordering) for ordering in pool}
        requests = st.tuples(st.sampled_from(pool), st.integers(0, size - 1), st.booleans())
        for (level, ctx), pid, below in data.draw(st.lists(requests, min_size=1, max_size=30)):
            assert tower.key(level, ctx, pid) == (per_id_hash(seed, level, ctx, pid), pid)
            if below and level == 0:
                assert tower.enumerate_below(ctx, tower.key(0, ctx, pid)) == (
                    reference.enumerate_below(ctx, reference.key(0, ctx, pid))
                )
        for (level, ctx), keys in early.items():
            assert [keys(pid) for pid in range(size)] == [
                (per_id_hash(seed, level, ctx, pid), pid) for pid in range(size)
            ]


class TestKeys:
    def test_key_function_matches_key_everywhere(self):
        dom = FiniteDomain(size=5)
        tower = finite_proxy_tower(dom, 2, 4)
        for level in range(3):
            for context in product(dom.ids(), repeat=2 - level):
                keys = tower.keys(level, context)
                assert [keys(pid) for pid in dom.ids()] == [
                    tower.key(level, context, pid) for pid in dom.ids()
                ]

    def test_bad_level_or_context_raises_when_keys_is_called(self):
        tower = finite_proxy_tower(FiniteDomain(size=5), 2, 4)
        for level, context in [(3, ()), (-1, (1, 2, 3)), (2, (1,)), (0, (1,)), (1, ())]:
            with pytest.raises(ValueError) as want:
                tower.key(level, context, 0)
            with pytest.raises(ValueError) as got:
                tower.keys(level, context)
            assert str(got.value) == str(want.value)

    def test_point_outside_the_domain_is_named(self):
        keys = finite_proxy_tower(FiniteDomain(size=5), 2, 4).keys(0, (1, 2))
        with pytest.raises(ValueError, match="^point 17 is not in the domain$"):
            keys(17)
        keys = enumerated_tower(naturals_domain()).keys(0, ())
        assert keys(41) == 41
        with pytest.raises(ValueError, match="^point -1 is not in the domain$"):
            keys(-1)


class TestEnumeratedTower:
    def test_naturals_prefix(self):
        tower = enumerated_tower(naturals_domain())
        assert tower.depth == 0
        assert tower.enumerate_below((), 3) == frozenset({0, 1, 2, 3})

    def test_key_is_the_index(self):
        tower = enumerated_tower(naturals_domain())
        assert tower.key(0, (), 41) == 41

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_prefix_sizes(self, bound, pid):
        tower = enumerated_tower(naturals_domain())
        prefix = tower.enumerate_below((), bound)
        assert len(prefix) == bound + 1
        assert (pid in prefix) == (pid <= bound)
