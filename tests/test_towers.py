import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from emx.core import FiniteDomain, naturals_domain
from emx.seeds import order_hash
import emx.towers
from emx.towers import ORDERING_CACHE_POINTS, enumerated_tower, finite_proxy_tower


def per_id_hash(*parts):
    """BLAKE2b-128 of the repr of each part, each followed by a NUL byte."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode("ascii"))
        h.update(b"\x00")
    return h.digest()


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
            for bound in (0, 3, 10, 19, 50):
                prefix = tower.enumerate_below(ctx, bound)
                expected = {pid for pid in dom.ids() if tower.key(0, ctx, pid) <= bound}
                assert prefix == expected
                assert len(prefix) <= bound + 1

    def test_enumerate_below_negative_bound_is_empty(self):
        dom = FiniteDomain(size=5)
        tower = finite_proxy_tower(dom, 0, 1)
        assert tower.enumerate_below((), -1) == frozenset()

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
            order = sorted(ids, key=lambda pid: (per_id_hash(seed, level, ctx, pid), pid))
            assert [tower.key(level, ctx, pid) for pid in order] == list(ids)

    @pytest.mark.parametrize(
        "fake_digest",
        [lambda pid: b"\x00" * 16, lambda pid: bytes([pid // 2 % 256]) * 16],
        ids=["all-equal", "equal-in-pairs"],
    )
    def test_equal_digests_keep_ascending_id_order(self, monkeypatch, fake_digest):
        """The ordering is the (digest, id) sort, so equal digests fall back
        to ascending id."""
        drawn = {}

        def fake_order_hash(seed, level, context, ids):
            # Digests run against id order, so only the tie-break keeps
            # the ids of one digest ascending.
            digests = [fake_digest(len(ids) - 1 - pid) for pid in ids]
            drawn[level, context] = digests
            return digests

        monkeypatch.setattr(emx.towers, "order_hash", fake_order_hash)
        size = 21
        tower = finite_proxy_tower(FiniteDomain(size=size), 2, 3)
        for level, ctx in [(2, ()), (1, (4,)), (0, (4, 17))]:
            keys = tower.keys(level, ctx)
            order = [pid for _, pid in sorted(zip(drawn[level, ctx], range(size)))]
            assert [keys(pid) for pid in order] == list(range(size))

    def test_ordering_cache_holds_a_depth2_tower_on_60_points(self, monkeypatch):
        hashed = []

        def counting_order_hash(*args):
            hashed.append(args[:3])
            return order_hash(*args)

        monkeypatch.setattr(emx.towers, "order_hash", counting_order_hash)

        def touch_every_ordering(tower, n):
            contexts = [(2, ())] + [(1, (a,)) for a in range(n)]
            contexts += [(0, (a, b)) for a in range(n) for b in range(n) if a != b]
            return [tower.key(level, ctx, 0) for level, ctx in contexts]

        tower = finite_proxy_tower(FiniteDomain(size=60), 2, 8)
        first = touch_every_ordering(tower, 60)
        assert len(hashed) == 1 + 60 + 60 * 59 <= ORDERING_CACHE_POINTS // 60
        assert touch_every_ordering(tower, 60) == first
        assert len(hashed) == 1 + 60 + 60 * 59  # nothing evicted

        hashed.clear()
        tower = finite_proxy_tower(FiniteDomain(size=65), 2, 8)
        first = touch_every_ordering(tower, 65)
        assert len(hashed) == 1 + 65 + 65 * 64 > ORDERING_CACHE_POINTS // 65
        assert touch_every_ordering(tower, 65) == first
        assert len(hashed) > 1 + 65 + 65 * 64  # evicted orderings were rebuilt alike

    @pytest.mark.parametrize("size", [2_048, ORDERING_CACHE_POINTS + 1])
    def test_ordering_cache_holds_its_points_in_orderings(self, monkeypatch, size):
        """A tower on `size` points keeps ORDERING_CACHE_POINTS // size
        orderings, and at least one: its first ordering is still cached
        after one fewer other fills and is refilled after that many."""
        hashed = []

        def counting_order_hash(seed, level, context, ids):
            hashed.append((level, context))
            return [0] * len(ids)  # equal digests: the ordering is the id order

        monkeypatch.setattr(emx.towers, "order_hash", counting_order_hash)
        kept = max(1, ORDERING_CACHE_POINTS // size)
        for others in (kept - 1, kept):
            hashed.clear()
            tower = finite_proxy_tower(FiniteDomain(size=size), 1, 8)
            for context in [()] + [(a,) for a in range(others)] + [()]:
                assert tower.key(1 - len(context), context, 5) == 5
            refilled = [(1, ())] if others == kept else []
            assert hashed == [(1, ())] + [(0, (a,)) for a in range(others)] + refilled

    def test_unknown_point_rejected(self):
        dom = FiniteDomain(size=5)
        tower = finite_proxy_tower(dom, 0, 0)
        with pytest.raises(ValueError, match="^point 17 is not in the domain$"):
            tower.key(0, (), 17)


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
