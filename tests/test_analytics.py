import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trace_scores.analytics import _two_sided_p, aggregate, rank_targets, welch_t_test
from trace_scores.errors import AggregateError, StatsError
from trace_scores.pipeline import Trajectory
from trace_scores.scoring import SkipReason, score_trajectory
from oracles import hand_scored, make_targets, welch_oracle


class TestAggregate:
    def test_average_and_cumulative(self):
        s = aggregate(hand_scored([0.5, -0.5]))
        assert s.average == 0.0
        assert s.cumulative == [0.5, 0.0]

    def test_single_score(self):
        s = aggregate(hand_scored([1.0]))
        assert s.average == 1.0
        assert s.cumulative == [1.0]

    def test_running_sum(self):
        s = aggregate(hand_scored([0.1, 0.2, 0.3]))
        assert s.cumulative == pytest.approx([0.1, 0.3, 0.6])

    def test_leading_negative_zero_sums_to_zero(self):
        # the written cumulative reads 0.0, as a running sum from 0.0 gives
        s = aggregate(hand_scored([-0.0, 0.5]))
        assert [repr(v) for v in s.cumulative] == ["0.0", "0.5"]

    def test_skipped_steps_excluded(self):
        s = aggregate(hand_scored([0.4, np.nan, 0.6], skip=[0, SkipReason.ALL_MASKED, 0]))
        assert s.values == [(1, 0.4), (3, 0.6)]
        assert s.average == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(AggregateError):
            aggregate(hand_scored([]))
        with pytest.raises(AggregateError):
            aggregate(hand_scored([np.nan], skip=[SkipReason.NO_FEATURE_CHANGE]))

    def test_last_cumulative_equals_average_times_count(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.uniform(-1, 1, size=int(rng.integers(1, 30))).tolist()
            s = aggregate(hand_scored(scores))
            assert abs(s.cumulative[-1] - s.average * len(s.values)) <= 1e-12


class TestWelch:
    def test_identical_samples(self):
        cmp = welch_t_test([1, 2, 3], [1, 2, 3])
        assert cmp.t_stat == 0.0
        assert cmp.p_value == 1.0

    def test_textbook_example(self):
        cmp = welch_t_test([1, 2, 3, 4], [2, 3, 4, 5])
        t, dof, p = welch_oracle([1, 2, 3, 4], [2, 3, 4, 5])
        assert cmp.t_stat == pytest.approx(t, abs=1e-9)
        assert cmp.dof == pytest.approx(dof, abs=1e-9)
        assert cmp.p_value == pytest.approx(p, abs=1e-9)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.normal(rng.normal(), abs(rng.normal()) + 0.1,
                           size=int(rng.integers(2, 40))).tolist()
            b = rng.normal(rng.normal(), abs(rng.normal()) + 0.1,
                           size=int(rng.integers(2, 40))).tolist()
            cmp = welch_t_test(a, b)
            t, dof, p = welch_oracle(a, b)
            assert cmp.t_stat == pytest.approx(t, abs=1e-9)
            assert cmp.dof == pytest.approx(dof, abs=1e-9)
            assert cmp.p_value == pytest.approx(p, abs=1e-9)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(size=5).tolist()
            b = rng.normal(size=7).tolist()
            ab = welch_t_test(a, b)
            ba = welch_t_test(b, a)
            assert ba.t_stat == -ab.t_stat
            assert ba.p_value == ab.p_value
            assert ba.dof == ab.dof

    def test_shift_invariance_exact(self):
        # integer samples with sums divisible by n keep the shifted mean
        # exact, so the deviations (and hence t) are bit-identical
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.integers(-50, 50, size=4)
            a[0] -= a.sum() % 4
            a = a.tolist()
            b = rng.integers(-50, 50, size=8)
            b[0] -= b.sum() % 8
            b = b.tolist()
            base = welch_t_test(a, b)
            shift = int(rng.integers(-1000, 1000))
            moved = welch_t_test([x + shift for x in a], [x + shift for x in b])
            assert moved.t_stat == base.t_stat
            assert moved.p_value == base.p_value

    def test_undersized_sample(self):
        with pytest.raises(StatsError):
            welch_t_test([1.0], [1, 2, 3])

    def test_zero_variance_equal_means(self):
        cmp = welch_t_test([0.5, 0.5], [0.5, 0.5, 0.5])
        assert (cmp.t_stat, cmp.p_value, cmp.dof) == (0.0, 1.0, 3.0)
        assert cmp.sd_a == cmp.sd_b == 0.0

    def test_zero_variance_unequal_means(self):
        with pytest.raises(StatsError):
            welch_t_test([1, 1], [2, 2])

    @pytest.mark.parametrize("a,b", [
        ([1e200, -1e200], [0.0, 1.0]),             # a square past float64
        ([1.7e308, 1.7e308, 1.0], [0.0, 1.0]),     # a sum past float64
        ([0.0, 2.3e-162, 4.6e-162], [0.0, 0.0]),   # variance 5e-324, over n rounds to 0
    ], ids=["square-overflow", "sum-overflow", "underflow"])
    def test_variance_outside_float64_raises(self, a, b):
        with pytest.raises(StatsError, match="t is not finite"):
            welch_t_test(a, b)

    def test_squares_below_the_normals_keep_dof(self):
        # dof's squares, about 1e-402, are past the subnormals
        cmp = welch_t_test([1e-100, 2e-100], [0.0, 0.0])
        assert (cmp.t_stat, cmp.dof) == (3.0, 1.0)
        assert cmp.p_value == welch_t_test([1.0, 2.0], [0.0, 0.0]).p_value

    @settings(max_examples=200)
    @given(log10_s=st.floats(-150.0, 0.0))
    @example(log10_s=-78.0)
    @example(log10_s=-80.0)
    @example(log10_s=-82.0)
    @example(log10_s=-150.0)
    def test_dof_does_not_depend_on_the_scale(self, log10_s):
        s = 10.0 ** log10_s
        dof = welch_t_test([0.0, s, 2 * s], [0.0, s / 2, s / 4]).dof
        want = welch_t_test([0.0, 1.0, 2.0], [0.0, 0.5, 0.25]).dof   # 2.2490272373540856
        assert dof == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_cohort_scale_effect(self):
        # Monte-Carlo at the reported cohort effect sizes: group means
        # 0.08 vs -0.03 with n=500 each must be overwhelmingly significant
        rng = np.random.default_rng(4)
        a = rng.normal(0.08, 0.14, size=500).tolist()
        b = rng.normal(-0.03, 0.07, size=500).tolist()
        cmp = welch_t_test(a, b)
        assert cmp.mean_a > 0 > cmp.mean_b
        assert cmp.p_value < 1e-5


def _mpmath_p(t, dof):
    """I_x(dof/2, 1/2) at x = dof/(dof + t²), at 30 digits."""
    with mp.workdps(30):
        t2, dof = mp.mpf(t) ** 2, mp.mpf(dof)
        a, half = dof / 2, mp.mpf(1) / 2
        try:
            return float(mp.betainc(a, half, 0, dof / (dof + t2), regularized=True))
        except (mp.NoConvergence, ValueError):
            pass
        try:   # 1 - I_y(1/2, a) keeps 20 of its 30 digits while p >= 1e-10
            p = 1 - mp.betainc(half, a, 0, t2 / (dof + t2), regularized=True)
        except (mp.NoConvergence, ValueError):
            p = 0
        assume(p >= 1e-10)
        return float(p)


def _log_t_underflow(dof):
    """log |t| where p is about 1e-309: (1 + t²/dof)^(-dof/2) = exp(-712)."""
    z = 1424.0 / dof
    return 0.5 * (math.log(dof) + z + math.log1p(-math.exp(-z)))


@settings(max_examples=300)
@given(log10_dof=st.floats(0.0, 6.0), frac=st.floats(0.0, 1.0), sign=st.sampled_from([1, -1]))
@example(log10_dof=0.0, frac=1.0, sign=1)          # t = 1e307: t² is past float64
@example(log10_dof=6.0, frac=0.771, sign=1)        # dof = 1e6, t near 2, p near 0.05
def test_two_sided_p_matches_mpmath(log10_dof, frac, sign):
    """Over dof in [1, 1e6] and |t| from 1e-4 to where p underflows: relative
    error <= 1e-12 for p >= 1e-300, absolute error <= 1e-15 below it."""
    dof = 10.0 ** log10_dof
    lo, hi = math.log(1e-4), min(_log_t_underflow(dof), 707.0)   # e^707 ~ 1e307
    t = sign * math.exp(lo + frac * (hi - lo))
    p = _two_sided_p(t, dof)
    assert p == _two_sided_p(-t, dof)
    assert 0.0 <= p <= 1.0
    want = _mpmath_p(t, dof)
    if want >= 1e-300:
        assert abs(p - want) <= 1e-12 * want, (t, dof, p, want)
    else:
        assert abs(p - want) <= 1e-15, (t, dof, p, want)


def test_two_sided_p_closed_forms():
    for dof in (1.0, 2.0, 7.5, 1e6):
        assert _two_sided_p(0.0, dof) == _two_sided_p(-0.0, dof) == 1.0
    for t in (0.5, 3.0, 40.0, 1e100, 1e200):   # t² is past float64 from 1.3e154
        # dof 1 is the Cauchy distribution; dof 2 has p = 1 - t/sqrt(2 + t²)
        assert _two_sided_p(t, 1.0) == pytest.approx(2 / math.pi * math.atan(1 / t), rel=1e-14)
        s = math.hypot(math.sqrt(2), t)
        assert _two_sided_p(t, 2.0) == pytest.approx(2 / (s * (s + t)), rel=1e-14)


class TestRankTargets:
    def test_descending(self):
        assert rank_targets({"A": 0.3, "B": 0.1}) == ["A", "B"]

    def test_tie_keeps_input_order(self):
        assert rank_targets({"B": 0.2, "A": 0.2}) == ["B", "A"]

    def test_permutation_of_keys(self):
        avgs = {"a": 0.1, "b": -0.4, "c": 0.9, "d": 0.0}
        assert sorted(rank_targets(avgs)) == sorted(avgs)

    def test_constructed_ordering(self):
        rng = np.random.default_rng(5)
        drifts = {"s1": 0.9, "s2": 0.5, "s3": 0.1, "s4": -0.3, "s5": -0.8}
        avgs = {}
        for name, drift in drifts.items():
            scores = drift + rng.normal(0, 0.01, size=30)
            avgs[name] = aggregate(hand_scored(scores.tolist())).average
        assert rank_targets(avgs) == ["s1", "s2", "s3", "s4", "s5"]


def test_end_to_end_aggregate_from_scoring():
    traj = Trajectory("s", range(4), [[0.1 * t, 0.0] for t in range(4)])
    ts = score_trajectory(traj, make_targets([[([5.0, 0.0], "goal")]] * 3), 0.9)
    s = aggregate(ts)
    assert len(s.values) == 3
    assert abs(s.cumulative[-1] - s.average * 3) <= 1e-12
