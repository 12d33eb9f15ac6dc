import math
from fractions import Fraction

import pytest

from emx.calkin_wilf import calkin_wilf_domain
from emx.chains import ResourceLimitError
from emx.core import FiniteDomain, FiniteSupportDistribution, Sample, draw_sample, naturals_domain
from emx.evaluation import EmxLearner, apply_learner, evaluate, normal_quantile
from emx.schemes import SchemeError, enumeration_scheme, identity_eta_scheme, tower_scheme
from emx.towers import enumerated_tower, finite_proxy_tower


def tank_learner():
    """d = 1 enumeration learner over the naturals: compress to the largest
    serial number, reconstruct everything up to it."""
    return EmxLearner(enumeration_scheme(enumerated_tower(naturals_domain())), d=1)


class TestApplyLearner:
    def test_enumeration_learner_returns_prefix(self):
        hyp = apply_learner(tank_learner(), Sample((4, 9, 2), seed=0))
        assert hyp.members == frozenset(range(10))

    def test_kernel_sized_sample_skips_the_chain(self):
        learner = EmxLearner(tower_scheme(finite_proxy_tower(FiniteDomain(size=30), 1, 2)), d=2)
        sample = Sample((3, 17), seed=0)
        hyp = apply_learner(learner, sample)
        assert hyp.members == learner.scheme.eta({3, 17})

    def test_fewer_than_d_distinct_falls_back_to_the_sample(self):
        learner = EmxLearner(tower_scheme(finite_proxy_tower(FiniteDomain(size=30), 1, 2)), d=2)
        hyp = apply_learner(learner, Sample((5, 5, 5), seed=0))
        assert hyp.members == frozenset({5})

    def test_depth1_learner_contains_its_sample(self):
        dom = FiniteDomain(size=30)
        learner = EmxLearner(tower_scheme(finite_proxy_tower(dom, 1, 11)), d=2)
        dist = FiniteSupportDistribution.uniform(range(30))
        sample = draw_sample(dist, 8, 11)
        hyp = apply_learner(learner, sample)
        assert sample.distinct() <= hyp.members
        assert len(hyp) < math.inf

    def test_calkin_wilf_learner_contains_its_sample(self):
        learner = EmxLearner(enumeration_scheme(enumerated_tower(calkin_wilf_domain())), d=1)
        dist = FiniteSupportDistribution.uniform(range(10, 40, 3))
        sample = draw_sample(dist, 6, 4)
        assert sample.distinct() <= apply_learner(learner, sample).members

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


def test_normal_quantile_known_values():
    assert abs(normal_quantile(0.975) - 1.959964) < 1e-4
    assert abs(normal_quantile(0.995) - 2.575829) < 1e-4
    assert abs(normal_quantile(0.5)) < 1e-9
    with pytest.raises(ValueError):
        normal_quantile(1.0)
