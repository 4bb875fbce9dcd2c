import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_scores.errors import ConfigError, DegenerateGeometry, DimensionError
from trace_scores.geometry import Degeneracy, closest_point, inner, norm_of, r1, r2, step_score
from oracles import grid_closest_point, random_projection_triple


class TestInner:
    def test_orthogonal(self):
        assert inner([1, 0], [0, 1]) == 0.0

    def test_self_is_norm_squared(self):
        assert inner([2, 3], [2, 3]) == 13.0

    def test_sum_of_products(self):
        # hand oracle: 1*4 + 2*5 + 3*6 = 32
        assert inner([1, 2, 3], [4, 5, 6]) == 32.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner([1, 2], [1, 2, 3])

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, c = rng.normal(size=(3, 4))
            alpha = float(rng.normal())
            assert inner(a, b) == inner(b, a)
            assert inner(alpha * a + c, b) == pytest.approx(
                alpha * inner(a, b) + inner(c, b), rel=1e-12, abs=1e-12)


class TestClosestPoint:
    def test_perpendicular_direction(self):
        d = closest_point([0, 1], [0, 0], [1, 0])
        np.testing.assert_allclose(d, [0, 0], atol=1e-15)

    def test_point_on_line(self):
        d = closest_point([3, 0], [0, 0], [1, 0])
        np.testing.assert_allclose(d, [3, 0], atol=1e-12)

    def test_projection_matches_grid_oracle(self):
        # frozen from the grid oracle: argmin lands at (1, 0)
        d = closest_point([1, 1], [0, 0], [2, 0])
        oracle = grid_closest_point([1, 1], [0, 0], [2, 0])
        np.testing.assert_allclose(oracle, [1, 0], atol=1e-6)
        np.testing.assert_allclose(d, oracle, atol=1e-6)

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateGeometry):
            closest_point([1, 1], [0, 0], [0, 0])

    def test_coincident_a_b(self):
        with pytest.raises(DegenerateGeometry):
            closest_point([0, 0], [0, 0], [1, 0])

    @pytest.mark.parametrize("dim", [1, 2, 5, 17])
    def test_oracle_equivalence_random(self, dim):
        rng = np.random.default_rng(42 + dim)
        for _ in range(25):
            a, b, c = random_projection_triple(rng, dim)
            d = closest_point(a, b, c)
            oracle = grid_closest_point(a, b, c)
            assert np.linalg.norm(d - oracle) <= 1e-6

    def test_perpendicularity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, c = random_projection_triple(rng, 3)
            h = np.asarray(c) - b
            g = np.asarray(a) - b
            theta = np.dot(h, g) / (np.linalg.norm(h) * np.linalg.norm(g))
            if theta <= 0:
                continue
            d = closest_point(a, b, c)
            resid = abs(np.dot(a - d, h))
            assert resid <= 1e-9 * np.linalg.norm(g) * np.linalg.norm(h)

    def test_direction_only_dependence(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = rng.normal(size=(3, 4))
            if np.linalg.norm(c - b) < 1e-3 or np.linalg.norm(a - b) < 1e-3:
                continue
            d0 = closest_point(a, b, c)
            for alpha in (0.25, 3.0, 117.0):
                d1 = closest_point(a, b, b + alpha * (c - b))
                np.testing.assert_allclose(d1, d0, rtol=1e-12, atol=1e-12)


class TestR1:
    def test_identical_direction(self):
        assert r1([1, 0], [1, 0]) == 1.0

    def test_opposite_direction(self):
        assert r1([1, 0], [-2, 0]) == -1.0

    def test_45_degrees(self):
        assert r1([1, 0], [1, 1]) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateGeometry):
            r1([0, 0], [1, 0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = rng.normal(size=3)
            w = rng.normal(size=3)
            if np.linalg.norm(v) < 1e-3 or np.linalg.norm(w) < 1e-3:
                continue
            base = r1(v, w)
            for alpha, beta in ((0.5, 2.0), (10.0, 0.1), (1e3, 1e-3)):
                assert r1(alpha * v, beta * w) == pytest.approx(base, abs=1e-12)


class TestR2:
    def test_best_move_scores_one(self):
        # x_hat = (1,0) = x_next, so R2 = 1
        val, flag = r2([0, 0], [1, 0], [1, 1])
        assert val == 1.0
        assert flag is Degeneracy.NONE

    def test_overshoot(self):
        # x_hat=(1,0), v_hat=(0,1), v_star=(-1,1); |cos| = 1/sqrt(2)
        val, flag = r2([0, 0], [2, 0], [1, 1])
        assert val == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_goal_reached(self):
        val, flag = r2([0, 0], [1, 1], [1, 1])
        assert val == 1.0
        assert flag is Degeneracy.GOAL_REACHED

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            r2([0, 0], [1, 0], [1, 1, 1])

    def test_theta_nonpositive_uses_factual(self):
        # moving directly away: x_hat = x_t, v_hat = target - x_t
        val, flag = r2([0, 0], [-1, 0], [1, 0])
        assert val == 1.0
        assert flag is Degeneracy.NONE


class TestStepScore:
    def test_lambda_one_collapses_to_r1(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x_t, x_next, x_target = rng.normal(size=(3, 4))
            try:
                g = step_score(x_t, x_next, x_target, 1.0)
            except DegenerateGeometry:
                continue
            assert g.s == g.r1

    def test_lambda_zero_collapses_to_r2(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x_t, x_next, x_target = rng.normal(size=(3, 4))
            try:
                g = step_score(x_t, x_next, x_target, 0.0)
            except DegenerateGeometry:
                continue
            assert g.s == g.r2

    def test_composed_example(self):
        # r1 = cos 45deg, r2 = 1; s = 0.9*r1 + 0.1
        g = step_score([0, 0], [1, 0], [1, 1], 0.9)
        assert g.s == pytest.approx(0.9 * math.cos(math.pi / 4) + 0.1, abs=1e-12)

    def test_theta_nonpositive_branch(self):
        g = step_score([0, 0], [-1, 0], [1, 0], 0.9)
        assert g.r1 == -1.0
        assert g.r2 == 1.0
        assert g.s == pytest.approx(-0.8, abs=1e-15)

    def test_goal_reached_scores_one_exactly(self):
        for lam in (0.0, 0.5, 0.9, 1.0):
            g = step_score([0, 0], [1, 1], [1, 1], lam)
            assert g.s == 1.0
            assert g.r1 == 1.0
            assert g.degenerate is Degeneracy.GOAL_REACHED

    def test_lambda_out_of_range(self):
        with pytest.raises(ConfigError):
            step_score([0, 0], [1, 0], [1, 1], 1.5)

    def test_no_move_raises(self):
        with pytest.raises(DegenerateGeometry):
            step_score([1, 1], [1, 1], [2, 2], 0.9)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=6),
           st.data(),
           st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    def test_ranges(self, x_t, data, lam):
        dim = len(x_t)
        coords = st.lists(st.floats(-100, 100), min_size=dim, max_size=dim)
        x_next = data.draw(coords)
        x_target = data.draw(coords)
        try:
            g = step_score(x_t, x_next, x_target, lam)
        except DegenerateGeometry:
            return
        assert -1.0 <= g.r1 <= 1.0
        assert 0.0 <= g.r2 <= 1.0
        assert -lam <= g.s <= 1.0


def test_norm_of_matches_numpy():
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = rng.normal(size=5)
        assert norm_of(v) == pytest.approx(np.linalg.norm(v), rel=1e-14)


@pytest.mark.parametrize("call, message", [
    (lambda: inner([[1, 2]], [[1, 2]]), "expected a 1-D vector, got shape (1, 2)"),
    (lambda: closest_point([0, 0], [1, 0], [1, 1, 1]), "dimension mismatch: 2, 2, 3"),
], ids=["matrix-for-vector", "closest-point-sizes"])
def test_shape_checks_name_the_shapes(call, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        call()
