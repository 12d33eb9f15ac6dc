import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from emx.chains import (
    DEFAULT_CAP,
    CompressionTrace,
    ResourceLimitError,
    compress_chain,
    compress_kernel,
    decompress_chain,
    trace_to_text,
)
from emx.core import FiniteDomain, naturals_domain
from emx.schemes import SchemeError, enumeration_scheme, identity_eta_scheme, tower_scheme
from emx.towers import enumerated_tower, finite_proxy_tower
from oracles import compress_per_step_sort, decompress_full


def naturals_scheme():
    return enumeration_scheme(enumerated_tower(naturals_domain()))


def proxy_scheme(size, depth, seed):
    return tower_scheme(finite_proxy_tower(FiniteDomain(size=size), depth, seed))


class TestCompressChain:
    def test_already_at_kernel_size(self):
        scheme = naturals_scheme()
        trace = compress_chain({7}, scheme)
        assert trace.steps == ()
        assert trace.kernel == frozenset({7})

    def test_max_survives_enumeration_chain(self):
        scheme = naturals_scheme()
        trace = compress_chain({4, 9, 2}, scheme)
        assert len(trace.steps) == 2
        assert trace.kernel == frozenset({9})

    def test_subset_policy_takes_smallest_ids(self):
        scheme = naturals_scheme()
        trace = compress_chain({4, 9, 2}, scheme)
        assert trace.steps[0] == (frozenset({2, 4}), 2)
        assert trace.steps[1] == (frozenset({4, 9}), 4)

    def test_too_few_points(self):
        scheme = proxy_scheme(20, 1, 0)
        with pytest.raises(ValueError):
            compress_chain({3}, scheme)

    def test_depth1_chain_structure(self):
        scheme = proxy_scheme(40, 1, 3)
        points = frozenset(random.Random(8).sample(range(40), 8))
        trace = compress_chain(points, scheme)
        assert len(trace.steps) == 6
        assert len(trace.kernel) == 2
        assert trace.kernel <= points

    def test_replay_is_identical(self):
        scheme = proxy_scheme(40, 1, 3)
        points = frozenset(random.Random(9).sample(range(40), 7))
        assert compress_chain(points, scheme) == compress_chain(points, scheme)

    @given(st.data())
    @settings(max_examples=100)
    def test_matches_per_step_sort(self, data):
        depth = data.draw(st.integers(0, 2), label="depth")
        n = data.draw(st.integers(depth + 2, 40), label="n")
        scheme = proxy_scheme(n, depth, data.draw(st.integers(0, 2**32), label="seed"))
        size = data.draw(st.integers(depth + 1, n), label="size")
        points = data.draw(st.permutations(range(n)), label="points")[:size]
        trace = compress_chain(points, scheme)
        assert (trace.steps, trace.kernel) == compress_per_step_sort(points, scheme)

    @given(st.sets(st.integers(0, 10**6), min_size=1, max_size=30))
    def test_matches_per_step_sort_on_naturals(self, points):
        trace = compress_chain(points, naturals_scheme())
        assert (trace.steps, trace.kernel) == compress_per_step_sort(points, naturals_scheme())

    def test_trace_invariants_enforced(self):
        with pytest.raises(ValueError):
            CompressionTrace(frozenset({1, 2}), (), frozenset({1, 2, 3}))
        with pytest.raises(ValueError):
            CompressionTrace(frozenset({1, 2}), ((frozenset({1, 2}), 3),), frozenset({1}))


def kernel_outcome(compress, points, scheme):
    """The kernel, or the error's type and message."""
    try:
        return compress(points, scheme)
    except ValueError as err:  # SchemeError included
        return (type(err), str(err))


@st.composite
def kernel_cases(draw):
    """A scheme and a point set for it: the naturals, a depth-1 or depth-2
    proxy tower, or identity eta; the set may be smaller than the arity,
    may leave the domain, and the compressor may be swapped for one that
    keeps its whole input."""
    kind = draw(st.sampled_from(["naturals", "depth-1", "depth-2", "identity-eta"]))
    if kind == "naturals":
        scheme, ids = naturals_scheme(), st.integers(-2, 10**6)
    elif kind == "identity-eta":
        scheme, ids = identity_eta_scheme(draw(st.integers(0, 3))), st.integers(-5, 300)
    else:
        n = draw(st.integers(4, 30))
        scheme = proxy_scheme(n, int(kind[-1]), draw(st.integers(0, 2**32)))
        ids = st.integers(0, n + 2)
    if draw(st.booleans()):
        scheme = dataclasses.replace(scheme, compressor=lambda beta: beta)
    points = draw(st.lists(ids, max_size=20))
    return points, scheme


class TestCompressKernel:
    @given(kernel_cases())
    @settings(max_examples=200)
    def test_matches_the_trace_kernel(self, case):
        points, scheme = case
        assert kernel_outcome(compress_kernel, points, scheme) == kernel_outcome(
            lambda p, s: compress_chain(p, s).kernel, points, scheme
        )

    def test_raises_what_the_trace_path_raises(self):
        broken = dataclasses.replace(naturals_scheme(), compressor=lambda beta: beta)
        for points, scheme in [((3,), proxy_scheme(20, 1, 0)), ((), naturals_scheme()),
                               ((4, 9), broken), ((2, 25), proxy_scheme(20, 0, 0))]:
            got = kernel_outcome(compress_kernel, points, scheme)
            assert isinstance(got, tuple)
            assert got == kernel_outcome(compress_chain, points, scheme)
        assert kernel_outcome(compress_kernel, (4, 9), broken)[0] is SchemeError

    def test_step_list_holds_the_trace_steps(self):
        scheme = proxy_scheme(40, 2, 5)
        points = random.Random(3).sample(range(40), 12)
        steps = []
        kernel = compress_kernel(points, scheme, steps)
        trace = compress_chain(points, scheme)
        assert (tuple(steps), kernel) == (trace.steps, trace.kernel)


class TestDecompressChain:
    def test_zero_iterations_is_plain_eta(self):
        scheme = naturals_scheme()
        assert decompress_chain({5}, scheme, 0) == scheme.eta({5})

    def test_enumeration_prefix_is_a_fixpoint(self):
        scheme = naturals_scheme()
        out = decompress_chain({9}, scheme, 2)
        assert out == frozenset(range(10))
        assert {4, 9, 2} <= out
        for iterations in range(5):
            assert decompress_chain({9}, scheme, iterations) == out

    def test_monotone_growth(self):
        scheme = proxy_scheme(30, 1, 12)
        kernel = compress_chain(frozenset(range(8)), scheme).kernel
        previous = frozenset()
        for iterations in range(5):
            current = decompress_chain(kernel, scheme, iterations)
            assert previous <= current
            previous = current

    def test_cap_exceeded_raises_with_location(self):
        scheme = proxy_scheme(50, 1, 4)
        kernel = compress_chain(frozenset(range(10)), scheme).kernel
        with pytest.raises(ResourceLimitError) as err:
            decompress_chain(kernel, scheme, 8, cap=5)
        assert err.value.size > 5
        assert err.value.iteration >= 0

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            decompress_chain({1}, naturals_scheme(), -1)

    def test_stops_once_the_domain_is_covered(self):
        scheme = proxy_scheme(200, 2, 0)
        calls = []

        def counted(t):
            calls.append(t)
            return scheme.reconstructor(t)

        counting = dataclasses.replace(scheme, reconstructor=counted)
        points = random.Random(0).sample(range(200), 9)
        kernel = compress_chain(points, scheme).kernel
        out = decompress_chain(kernel, counting, len(points) - scheme.m)
        assert out == scheme.universe
        assert len(calls) < 100


def outcome(decompress, kernel, scheme, iterations, cap):
    """The output set, or the cap error's location and message."""
    try:
        return decompress(kernel, scheme, iterations, cap)
    except ResourceLimitError as err:
        return ("cap", err.iteration, err.size, str(err))


class TestDecompressOracle:
    @given(st.data())
    @settings(max_examples=150)
    def test_matches_full_expansion_on_proxy_towers(self, data):
        depth = data.draw(st.integers(0, 2), label="depth")
        n = data.draw(st.integers(depth + 2, 40), label="n")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        size = data.draw(st.integers(depth + 1, min(n, depth + 9)), label="size")
        points = data.draw(st.permutations(range(n)), label="points")[:size]
        rounds = data.draw(st.integers(0, size + 1), label="rounds")
        cap = data.draw(st.one_of(st.just(DEFAULT_CAP), st.integers(1, n)), label="cap")
        scheme = proxy_scheme(n, depth, seed)
        kernel = compress_chain(points, scheme).kernel
        assert outcome(decompress_chain, kernel, scheme, rounds, cap) == outcome(
            decompress_full, kernel, scheme, rounds, cap
        )

    @given(
        st.sets(st.integers(0, 300), min_size=1, max_size=12),
        st.integers(0, 13),
        st.one_of(st.just(DEFAULT_CAP), st.integers(1, 300)),
    )
    def test_matches_full_expansion_on_naturals(self, points, rounds, cap):
        scheme = naturals_scheme()
        kernel = compress_chain(points, scheme).kernel
        assert outcome(decompress_chain, kernel, scheme, rounds, cap) == outcome(
            decompress_full, kernel, scheme, rounds, cap
        )


class TestRoundTrip:
    def test_enumeration_round_trip_200_samples(self):
        scheme = naturals_scheme()
        rng = random.Random(21)
        for _ in range(200):
            m = rng.randint(1, 12)
            points = frozenset(rng.sample(range(200), m))
            trace = compress_chain(points, scheme)
            out = decompress_chain(trace.kernel, scheme, len(points) - 1)
            assert points <= out

    def test_depth1_round_trip_200_samples(self):
        scheme = proxy_scheme(40, 1, 6)
        rng = random.Random(22)
        for _ in range(200):
            m = rng.randint(2, 6)
            points = frozenset(rng.sample(range(40), m))
            trace = compress_chain(points, scheme)
            out = decompress_chain(trace.kernel, scheme, len(points) - 2)
            assert points <= out

    @given(st.sets(st.integers(0, 23), min_size=3, max_size=7), st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_depth2_round_trip_property(self, points, seed):
        scheme = proxy_scheme(24, 2, seed)
        trace = compress_chain(points, scheme)
        out = decompress_chain(trace.kernel, scheme, len(points) - 3)
        assert frozenset(points) <= out


class TestTraceText:
    def test_format_is_line_oriented(self):
        scheme = naturals_scheme()
        text = trace_to_text(compress_chain({4, 9, 2}, scheme))
        lines = text.splitlines()
        assert lines[0] == "# emx-trace 1"
        assert lines[1] == "original: 2 4 9"
        assert lines[2] == "step: 2 4 | 2"
        assert lines[3] == "step: 4 9 | 4"
        assert lines[4] == "kernel: 9"
