import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from emx.classic import (
    Rectangle,
    load_plane_csv,
    max_estimator,
    plane_point,
    rect_compress,
    rect_reconstruct,
)


def random_points(rng, count):
    return [
        plane_point(Fraction(rng.randrange(0, 1001), 1000), Fraction(rng.randrange(0, 1001), 1000))
        for _ in range(count)
    ]


class TestRectangleLearner:
    def test_five_point_example(self):
        pts = [
            plane_point(".2", ".5"),
            plane_point(".8", ".5"),
            plane_point(".5", ".1"),
            plane_point(".5", ".9"),
            plane_point(".5", ".5"),
        ]
        kernel = rect_compress(pts)
        assert kernel == frozenset(pts[:4])
        rect = rect_reconstruct(kernel)
        assert rect == Rectangle(Fraction(1, 5), Fraction(4, 5), Fraction(1, 10), Fraction(9, 10))
        assert rect.contains(plane_point(".5", ".5"))

    def test_singleton_is_its_own_kernel(self):
        p = plane_point(".3", ".3")
        assert rect_compress([p]) == frozenset({p})
        rect = rect_reconstruct({p})
        assert rect.x_min == rect.x_max == Fraction(3, 10)
        assert rect.contains(p)

    def test_kernel_attains_coordinate_extremes(self):
        pts = random_points(random.Random(5), 100)
        kernel = rect_compress(pts)
        assert min(p.x for p in kernel) == min(p.x for p in pts)
        assert max(p.x for p in kernel) == max(p.x for p in pts)
        assert min(p.y for p in kernel) == min(p.y for p in pts)
        assert max(p.y for p in kernel) == max(p.y for p in pts)

    def test_round_trip_containment_200_samples(self):
        rng = random.Random(6)
        for _ in range(200):
            pts = random_points(rng, rng.randint(1, 30))
            rect = rect_reconstruct(rect_compress(pts))
            assert all(rect.contains(p) for p in pts)

    def test_interior_point_does_not_move_the_hypothesis(self):
        pts = random_points(random.Random(7), 20)
        rect = rect_reconstruct(rect_compress(pts))
        mid = plane_point(
            (rect.x_min + rect.x_max) / 2, (rect.y_min + rect.y_max) / 2
        )
        assert rect_reconstruct(rect_compress(pts + [mid])) == rect

    @given(
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=15),
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=0, max_size=15),
    )
    def test_monotone_in_the_sample(self, base, extra):
        small = [plane_point(Fraction(x, 50), Fraction(y, 50)) for x, y in base]
        big = small + [plane_point(Fraction(x, 50), Fraction(y, 50)) for x, y in extra]
        a = rect_reconstruct(rect_compress(small))
        b = rect_reconstruct(rect_compress(big))
        assert b.x_min <= a.x_min and a.x_max <= b.x_max
        assert b.y_min <= a.y_min and a.y_max <= b.y_max

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            rect_compress([])
        with pytest.raises(ValueError):
            rect_reconstruct([])

    def test_inverted_rectangle_rejected(self):
        with pytest.raises(ValueError):
            Rectangle(Fraction(1), Fraction(0), Fraction(0), Fraction(1))


class TestMaxEstimator:
    def test_examples(self):
        assert max_estimator({4, 9, 2}) == frozenset(range(1, 10))
        assert max_estimator({1}) == frozenset({1})

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            max_estimator([])
        with pytest.raises(ValueError):
            max_estimator([0, 3])

    def test_adding_beyond_max_strictly_grows(self):
        base = max_estimator({3, 7})
        grown = max_estimator({3, 7, 11})
        assert set(base) < set(grown)
        assert max_estimator({3, 7, 5}) == base

    @given(st.sets(st.integers(1, 60), min_size=1), st.sets(st.integers(1, 60)))
    def test_monotone_in_the_sample(self, base, extra):
        small = max_estimator(base)
        big = max_estimator(base | extra) if base | extra else small
        assert small <= big

    def test_expected_coverage_matches_closed_form(self):
        # under uniform serials 1..N, coverage of the estimator is max/N;
        # exact mean: sum_k (k/N) * ((k/N)^m - ((k-1)/N)^m)
        N, m, trials = 100, 10, 20_000
        exact = sum(
            Fraction(k, N) * (Fraction(k, N) ** m - Fraction(k - 1, N) ** m)
            for k in range(1, N + 1)
        )
        rng = random.Random(99)
        coverages = []
        for _ in range(trials):
            sample = [rng.randint(1, N) for _ in range(m)]
            coverages.append(max(sample) / N)
        mean = sum(coverages) / trials
        var = sum((c - mean) ** 2 for c in coverages) / (trials - 1)
        se = math.sqrt(var / trials)
        assert abs(mean - float(exact)) <= 3 * se


def test_load_plane_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("# x,y\n0.2,0.5\n1/4,3/4\n")
    pts = load_plane_csv(str(path))
    assert pts == [plane_point("0.2", "0.5"), plane_point("1/4", "3/4")]
