import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import emx.evaluation
from emx.chains import DEFAULT_CAP, ResourceLimitError, compress_chain, decompress_chain
from emx.core import (
    FiniteDomain,
    FiniteSupportDistribution,
    draw_sample,
    expectation,
    naturals_domain,
)
from emx.evaluation import EmxLearner, apply_learner, evaluate, normal_quantile
from emx.schemes import SchemeError, enumeration_scheme, identity_eta_scheme, tower_scheme
from emx.seeds import split_seed
from emx.towers import enumerated_tower, finite_proxy_tower
from oracles import draw_sample_reference, evaluate_reference, max_estimator


def tank_learner():
    """d = 1 enumeration learner over the naturals: compress to the largest
    serial number, reconstruct everything up to it."""
    return EmxLearner(enumeration_scheme(enumerated_tower(naturals_domain())), d=1)


class TestApplyLearner:
    def test_enumeration_learner_returns_prefix(self):
        hyp = apply_learner(tank_learner(), (4, 9, 2))
        assert hyp == frozenset(range(10))

    @given(st.lists(st.integers(1, 60), min_size=1))
    def test_tank_learner_matches_max_estimator(self, draws):
        assert apply_learner(tank_learner(), draws) == {0} | max_estimator(draws)

    def test_kernel_sized_sample_skips_the_chain(self):
        learner = EmxLearner(tower_scheme(finite_proxy_tower(FiniteDomain(size=30), 1, 2)), d=2)
        sample = (3, 17)
        hyp = apply_learner(learner, sample)
        assert hyp == learner.scheme.eta({3, 17})

    def test_fewer_than_d_distinct_falls_back_to_the_sample(self):
        learner = EmxLearner(tower_scheme(finite_proxy_tower(FiniteDomain(size=30), 1, 2)), d=2)
        hyp = apply_learner(learner, (5, 5, 5))
        assert hyp == frozenset({5})

    def test_depth1_learner_contains_its_sample(self):
        dom = FiniteDomain(size=30)
        learner = EmxLearner(tower_scheme(finite_proxy_tower(dom, 1, 11)), d=2)
        dist = FiniteSupportDistribution.uniform(range(30))
        sample = draw_sample(dist, 8, 11)
        hyp = apply_learner(learner, sample)
        assert frozenset(sample) <= hyp
        assert len(hyp) < math.inf

    def test_calkin_wilf_learner_contains_its_sample(self):
        learner = EmxLearner(enumeration_scheme(enumerated_tower(naturals_domain())), d=1)
        dist = FiniteSupportDistribution.uniform(range(10, 40, 3))
        sample = draw_sample(dist, 6, 4)
        assert frozenset(sample) <= apply_learner(learner, sample)

    def test_cap_propagates(self):
        learner = EmxLearner(
            tower_scheme(finite_proxy_tower(FiniteDomain(size=50), 1, 4)), d=2, cap=5
        )
        dist = FiniteSupportDistribution.uniform(range(50))
        with pytest.raises(ResourceLimitError):
            apply_learner(learner, draw_sample(dist, 10, 1))

    def test_d_must_match_scheme_arity(self):
        with pytest.raises(ValueError):
            EmxLearner(enumeration_scheme(enumerated_tower(naturals_domain())), d=2)


class TestEvaluate:
    def test_tank_failure_rate_matches_closed_form(self):
        # uniform serials 1..20, m = 10: fail iff max <= 15, probability (3/4)^10
        dist = FiniteSupportDistribution.uniform(range(1, 21))
        trials = 10_000
        report = evaluate(tank_learner(), dist, 10, Fraction(1, 4), trials, seed=7)
        exact = float(Fraction(3, 4) ** 10)
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(float(report.failure_rate) - exact) <= 3 * se
        assert report.errors == 0
        assert report.completed == trials

    def test_epsilon_one_boundary_never_fails_with_d_at_least_one(self):
        dist = FiniteSupportDistribution.uniform(range(1, 9))
        report = evaluate(tank_learner(), dist, 3, Fraction(1), 500, seed=3)
        assert report.failure_rate == 0

    def test_cover_probability_bounds_failures_for_large_m(self):
        # failure for any epsilon > 0 requires the sample to miss support
        # mass; inclusion-exclusion gives the exact probability that m
        # uniform draws miss at least one of the 20 points
        n, m, trials = 20, 200, 2000
        miss = sum(
            (-1) ** (j + 1) * math.comb(n, j) * ((n - j) / n) ** m
            for j in range(1, n + 1)
        )
        dist = FiniteSupportDistribution.uniform(range(1, 21))
        report = evaluate(tank_learner(), dist, m, Fraction(1, 4), trials, seed=13)
        bound = miss + 3 * math.sqrt(miss * (1 - miss) / trials) + 1 / trials
        assert float(report.failure_rate) <= bound

    def test_failure_rate_non_increasing_in_m(self):
        dist = FiniteSupportDistribution.uniform(range(1, 21))
        trials = 1000
        rates, halfwidths = [], []
        for m in (2, 4, 8, 16, 32):
            rep = evaluate(tank_learner(), dist, m, Fraction(1, 4), trials, seed=29)
            rates.append(float(rep.failure_rate))
            halfwidths.append(3 * math.sqrt(max(rates[-1] * (1 - rates[-1]), 1e-9) / trials))
        for i in range(len(rates) - 1):
            slack = math.hypot(halfwidths[i], halfwidths[i + 1])
            assert rates[i + 1] <= rates[i] + slack

    def test_seed_determinism_bitwise(self):
        dist = FiniteSupportDistribution.uniform(range(1, 21))
        a = evaluate(tank_learner(), dist, 6, Fraction(1, 4), 300, seed=5, keep_records=True)
        b = evaluate(tank_learner(), dist, 6, Fraction(1, 4), 300, seed=5, keep_records=True)
        assert a == b

    def test_errors_counted_not_dropped(self):
        learner = EmxLearner(
            tower_scheme(finite_proxy_tower(FiniteDomain(size=50), 1, 4)), d=2, cap=5
        )
        dist = FiniteSupportDistribution.uniform(range(50))
        report = evaluate(learner, dist, 10, Fraction(1, 2), 20, seed=1, keep_records=True)
        assert report.errors > 0
        assert report.completed == report.trials - report.errors
        assert all(r.error is not None or r.captured is not None for r in report.records)

    def test_captured_mass_floor_per_trial(self):
        dist = FiniteSupportDistribution.uniform(range(1, 21))
        report = evaluate(tank_learner(), dist, 8, Fraction(1, 4), 100, seed=17, keep_records=True)
        for rec in report.records:
            assert rec.captured is not None
            assert rec.captured >= 0

    def test_lost_sample_mass_raises(self):
        # identity eta reconstructs only the kernel, dropping sample points
        learner = EmxLearner(identity_eta_scheme(1), d=1)
        dist = FiniteSupportDistribution.uniform(range(1, 11))
        with pytest.raises(SchemeError, match="lost sample mass"):
            evaluate(learner, dist, 5, Fraction(1, 4), 10, seed=0)

    def test_trials_must_be_positive(self):
        dist = FiniteSupportDistribution.uniform([1, 2])
        with pytest.raises(ValueError):
            evaluate(tank_learner(), dist, 2, Fraction(1, 2), 0, seed=0)

    @pytest.mark.parametrize("confidence", [1.0, 0.0, -0.5, 1.5, float("nan")])
    def test_confidence_is_checked_before_any_trial(self, monkeypatch, confidence):
        def no_draws(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(emx.evaluation, "draw_sample", no_draws)
        dist = FiniteSupportDistribution.uniform([1, 2])
        with pytest.raises(ValueError, match="confidence must be in"):
            evaluate(tank_learner(), dist, 2, Fraction(1, 2), 10, seed=0, confidence=confidence)

    @pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(-1, 2), Fraction(5, 4)])
    def test_epsilon_is_checked_before_any_trial(self, monkeypatch, epsilon):
        def no_draws(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(emx.evaluation, "draw_sample", no_draws)
        dist = FiniteSupportDistribution.uniform([1, 2])
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\]"):
            evaluate(tank_learner(), dist, 2, epsilon, 10, seed=0)

    def test_each_kernel_is_decompressed_once_per_call(self, monkeypatch):
        calls = []
        decompress = emx.evaluation.decompress_chain

        def counting(kernel, scheme, rounds, cap):
            calls.append((kernel, rounds))
            return decompress(kernel, scheme, rounds, cap)

        monkeypatch.setattr(emx.evaluation, "decompress_chain", counting)
        dist = FiniteSupportDistribution.uniform(range(1, 21))
        report = evaluate(tank_learner(), dist, 10, Fraction(1, 4), 500, seed=3)
        assert report.completed == 500
        # kernels are single points of 1..20, rounds are 0..9
        assert len(calls) == len(set(calls)) <= 20 * 10
        evaluate(tank_learner(), dist, 10, Fraction(1, 4), 500, seed=3)
        assert len(calls) == 2 * len(set(calls))  # the memo does not outlive its call


# Primes from 3 up: 1/3 + 1/5 + 1/7 + 1/11 + 1/13 < 1, so a remainder is left.
COPRIME = (3, 5, 7, 11, 13)


@st.composite
def distributions(draw, ids):
    """Uniform, or masses 1/p over distinct primes p with the last point
    taking the rest, so the denominators are pairwise coprime."""
    support = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(COPRIME) + 1,
                            unique=True))
    if len(support) == 1 or draw(st.booleans()):
        return FiniteSupportDistribution.uniform(support)
    primes = draw(st.permutations(COPRIME))
    masses = {pid: Fraction(1, p) for pid, p in zip(support[:-1], primes)}
    masses[support[-1]] = 1 - sum(masses.values())
    return FiniteSupportDistribution(masses)


@st.composite
def evaluation_cases(draw):
    kind = draw(st.sampled_from(["naturals", "tower", "identity-eta"]))
    cap = draw(st.one_of(st.just(DEFAULT_CAP), st.integers(1, 30)))
    if kind == "tower":
        n = draw(st.integers(4, 30))
        tower = finite_proxy_tower(FiniteDomain(size=n), 1, draw(st.integers(0, 2**32)))
        learner, ids = EmxLearner(tower_scheme(tower), d=2, cap=cap), range(n)
    elif kind == "naturals":
        learner, ids = EmxLearner(tank_learner().scheme, d=1, cap=cap), range(40)
    else:
        learner, ids = EmxLearner(identity_eta_scheme(1), d=1, cap=cap), range(40)
    dist = draw(distributions(ids))
    # epsilon at a boundary: 1 - epsilon is the mass of a proper prefix of
    # the support, which is what the enumeration learner captures, so
    # epsilon stays in (0, 1]
    prefix = draw(st.integers(0, len(dist.support) - 1))
    boundary = 1 - sum((dist.mass(pid) for pid in dist.support[:prefix]), Fraction(0))
    epsilon = draw(st.sampled_from([boundary, Fraction(1, 4), Fraction(1)]))
    m = draw(st.integers(0, 12))
    trials = draw(st.integers(1, 25))
    seed = draw(st.integers(0, 2**64 - 1))
    return learner, dist, m, epsilon, trials, seed


class TestEvaluateOracle:
    @given(evaluation_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_trial_fraction_loop(self, case):
        try:
            want = evaluate_reference(*case)
        except SchemeError as err:
            with pytest.raises(SchemeError) as got:
                evaluate(*case, keep_records=True)
            assert str(got.value) == str(err)
            return
        report = evaluate(*case, keep_records=True)
        assert report.records == tuple(want)
        errors = sum(1 for r in want if r.error is not None)
        failures = sum(1 for r in want if r.failed)
        completed = len(want) - errors
        assert (report.completed, report.failures, report.errors) == (completed, failures, errors)
        assert report.failure_rate == (Fraction(failures, completed) if completed else 0)

    @given(distributions(range(64)), st.integers(0, 30), st.integers(0, 2**64 - 1))
    def test_sampler_matches_rebuilt_cdf(self, dist, m, seed):
        assert draw_sample(dist, m, seed) == draw_sample_reference(dist, m, seed)

    @given(
        st.integers(6, 24), st.integers(0, 2**32), st.data(), st.integers(0, 10),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_depth2_records_match_the_trace_path(self, n, tower_seed, data, m, seed):
        """Every completed trial's captured mass, recomputed by compressing
        its sample through a full CompressionTrace and decompressing anew."""
        tower = finite_proxy_tower(FiniteDomain(size=n), 2, tower_seed)
        learner = EmxLearner(tower_scheme(tower), d=3)
        dist = data.draw(distributions(range(n)), label="dist")
        report = evaluate(learner, dist, m, Fraction(1, 4), 20, seed, keep_records=True)
        assert report.errors == 0
        for record in report.records:
            assert record.seed == split_seed(seed, record.index)
            distinct = frozenset(draw_sample(dist, m, record.seed))
            hypothesis = distinct
            if len(distinct) >= learner.d:
                kernel = compress_chain(distinct, learner.scheme).kernel
                rounds = len(distinct) - learner.d
                hypothesis = decompress_chain(kernel, learner.scheme, rounds, learner.cap)
            assert record.captured == expectation(dist, hypothesis)

    def test_boundary_trials_fail(self):
        # the mass up to point 5 is 8/15, so epsilon = 7/15 puts trials whose
        # largest draw is 5 exactly on the boundary, where they fail
        dist = FiniteSupportDistribution({2: "1/3", 5: "1/5", 11: "1/7", 17: "34/105"})
        args = (tank_learner(), dist, 3, Fraction(7, 15), 400, 2019)
        report = evaluate(*args, keep_records=True)
        on_boundary = [r for r in report.records if r.captured == Fraction(8, 15)]
        assert on_boundary and all(r.failed for r in on_boundary)
        assert report.records == tuple(evaluate_reference(*args))

    def test_unsound_scheme_raises_at_the_same_trial(self):
        learner = EmxLearner(identity_eta_scheme(1), d=1)
        dist = FiniteSupportDistribution({0: "1/2", 7: "1/2"})
        # a master seed whose trial 0 draws one distinct point, which
        # identity eta keeps, so the loss shows at a later trial
        seed = next(
            s for s in range(100) if len(set(draw_sample(dist, 2, split_seed(s, 0)))) == 1
        )
        with pytest.raises(SchemeError) as want:
            evaluate_reference(learner, dist, 2, Fraction(1, 4), 50, seed)
        with pytest.raises(SchemeError) as got:
            evaluate(learner, dist, 2, Fraction(1, 4), 50, seed)
        assert str(got.value) == str(want.value)
        assert not str(got.value).startswith("trial 0:")


def test_normal_quantile_known_values():
    assert abs(normal_quantile(0.975) - 1.959964) < 1e-4
    assert abs(normal_quantile(0.995) - 2.575829) < 1e-4
    assert abs(normal_quantile(0.5)) < 1e-9
    with pytest.raises(ValueError):
        normal_quantile(1.0)
