import numpy as np
import pytest

from trace_scores import (FeatureVector, Polarity, SkipReason, TargetError,
                          TargetSpec, Trajectory, TrajectoryError,
                          feature_scores, mask_static, score_step,
                          score_trajectory)


def fv(*xs):
    return FeatureVector(list(xs))


def target(point, label="c", polarity=Polarity.DESIRABLE, weight=1.0):
    return TargetSpec(point=FeatureVector(point), class_label=label,
                      polarity=polarity, weight=weight)


def traj(points, subject="s"):
    return Trajectory(subject_id=subject,
                      points=[(t, fv(*p)) for t, p in enumerate(points)])


def single_target_provider(point, label="goal"):
    spec = target(point, label)
    return lambda t, x: [spec]


class TestMaskStatic:
    def test_static_dim_dropped(self):
        m = mask_static([1, 5], [2, 5], [target([3, 5])])
        assert list(m) == [0]

    def test_all_dims_differ(self):
        m = mask_static([1, 5], [2, 6], [target([3, 7])])
        assert list(m) == [0, 1]

    def test_all_masked(self):
        m = mask_static([1, 5], [2, 6], [target([1, 5])])
        assert m.size == 0

    def test_union_over_targets(self):
        m = mask_static([1, 5], [2, 6], [target([1, 7]), target([3, 5])])
        assert list(m) == [0, 1]


class TestScoreStep:
    def test_goal_reached_combined_one(self):
        s = score_step([0, 0], [1, 1], [target([1, 1])], 0.9)
        assert s.combined == 1.0

    def test_two_class_toward_desirable(self):
        targets = [target([1, 0], "good", Polarity.DESIRABLE),
                   target([-1, 0], "bad", Polarity.UNDESIRABLE)]
        s = score_step([0, 0], [0.5, 0], targets, 1.0)
        assert s.per_class == {"good": 1.0, "bad": -1.0}
        assert s.combined == 1.0

    def test_two_class_toward_undesirable(self):
        targets = [target([1, 0], "good", Polarity.DESIRABLE),
                   target([-1, 0], "bad", Polarity.UNDESIRABLE)]
        s = score_step([0, 0], [-0.5, 0], targets, 1.0)
        assert s.combined == -1.0

    def test_no_targets(self):
        with pytest.raises(TargetError):
            score_step([0, 0], [1, 0], [], 0.9)

    def test_all_masked_skip(self):
        s = score_step([1, 5], [2, 6], [target([1, 5])], 0.9)
        assert s.skipped
        assert s.skip_reason is SkipReason.ALL_MASKED

    def test_no_change_skip(self):
        # x_next differs from x_t only in the masked dimension
        s = score_step([1, 5], [1, 6], [target([2, 5])], 0.9)
        assert s.skipped
        assert s.skip_reason is SkipReason.NO_FEATURE_CHANGE

    def test_combined_in_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x_t, x_next, p1, p2 = rng.normal(size=(4, 3))
            targets = [target(p1, "a", Polarity.DESIRABLE),
                       target(p2, "b", Polarity.UNDESIRABLE)]
            s = score_step(x_t, x_next, targets, 0.9)
            if not s.skipped:
                assert -1.0 <= s.combined <= 1.0

    def test_only_desirable_classes_bounded_below_by_minus_lambda(self):
        rng = np.random.default_rng(17)
        lam = 0.9
        for _ in range(200):
            x_t, x_next, p1, p2 = rng.normal(size=(4, 3))
            ts = [target(p1, "a"), target(p2, "b")]
            s = score_step(x_t, x_next, ts, lam)
            if not s.skipped:
                assert -lam <= s.combined <= 1.0

    def test_polarity_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x_t, x_next, p1, p2 = rng.normal(size=(4, 3))
            pos = [target(p1, "a", Polarity.DESIRABLE),
                   target(p2, "b", Polarity.UNDESIRABLE)]
            neg = [target(p1, "a", Polarity.UNDESIRABLE),
                   target(p2, "b", Polarity.DESIRABLE)]
            s_pos = score_step(x_t, x_next, pos, 0.9)
            s_neg = score_step(x_t, x_next, neg, 0.9)
            if not s_pos.skipped:
                assert s_neg.combined == -s_pos.combined

    def test_target_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x_t, x_next, p1, p2, p3 = rng.normal(size=(5, 3))
            ts = [target(p1, "a"), target(p2, "a"),
                  target(p3, "b", Polarity.UNDESIRABLE)]
            s1 = score_step(x_t, x_next, ts, 0.9)
            s2 = score_step(x_t, x_next, ts[::-1], 0.9)
            assert s1.combined == pytest.approx(s2.combined, abs=1e-15)
            assert s1.per_class == pytest.approx(s2.per_class)

    def test_masking_soundness(self):
        # appending a dim identical in x_t, x_next and all targets is a no-op
        rng = np.random.default_rng(4)
        for _ in range(50):
            x_t, x_next, p1, p2 = rng.normal(size=(4, 3))
            ts = [target(p1, "a"), target(p2, "b", Polarity.UNDESIRABLE)]
            base = score_step(x_t, x_next, ts, 0.9)
            pad = lambda v: np.append(v, 0.777)
            ts_pad = [target(pad(p1), "a"),
                      target(pad(p2), "b", Polarity.UNDESIRABLE)]
            padded = score_step(pad(x_t), pad(x_next), ts_pad, 0.9)
            assert padded.combined == base.combined

    def test_class_weights(self):
        targets = [target([1, 0], "good", Polarity.DESIRABLE, weight=3.0),
                   target([-1, 0], "bad", Polarity.UNDESIRABLE, weight=1.0)]
        s = score_step([0, 0], [0.5, 0], targets, 1.0)
        # (3*1*1 + 1*(-1)*(-1)) / 4
        assert s.combined == pytest.approx(1.0)
        s = score_step([0, 0], [-0.5, 0], targets, 1.0)
        assert s.combined == pytest.approx((3 * -1 + 1 * -1 * -1 * -1) / 4.0)
        # the undesirable target lies square to the move: weighted 0.75, unweighted 0.5
        targets = [target([1, 0], "good", Polarity.DESIRABLE, weight=3.0),
                   target([0, -1], "bad", Polarity.UNDESIRABLE, weight=1.0)]
        s = score_step([0, 0], [0.5, 0], targets, 1.0)
        assert s.combined == pytest.approx(0.75)

    def test_degenerate_target_dropped(self):
        # one target sits exactly on the factual; the other still scores
        targets = [target([0, 0], "a"), target([1, 0], "b")]
        s = score_step([0, 0], [0.5, 0], targets, 1.0)
        assert not s.skipped
        assert set(s.per_class) == {"b"}
        assert s.combined == 1.0


class TestScoreTrajectory:
    def test_two_point_onto_target(self):
        ts = score_trajectory(traj([(0, 0), (1, 1)]),
                              single_target_provider([1, 1]), 0.9)
        assert len(ts.steps) == 1
        assert ts.steps[0].combined == 1.0
        assert ts.steps[0].t_index == 1

    def test_repeated_middle_point_skipped(self):
        ts = score_trajectory(traj([(0, 0), (0.5, 0), (0.5, 0)]),
                              single_target_provider([1, 1]), 0.9)
        assert ts.skipped_count == 1
        scored = ts.scored_steps()
        assert len(scored) == 1
        assert scored[0].t_index == 1

    def test_straight_line_all_ones_at_lambda_one(self):
        pts = [(0.1 * i, 0.2 * i) for i in range(5)]
        ts = score_trajectory(traj(pts), single_target_provider([10, 20]), 1.0)
        assert all(s.combined == pytest.approx(1.0, abs=1e-12)
                   for s in ts.scored_steps())
        assert len(ts.scored_steps()) == 4

    def test_too_short(self):
        with pytest.raises(TrajectoryError):
            score_trajectory(traj([(0, 0)]), single_target_provider([1, 1]), 0.9)

    def test_lambda_schedule_sequence(self):
        pts = [(0, 0), (1, 0), (2, 0)]
        ts = score_trajectory(traj(pts), single_target_provider([10, 1]),
                              [1.0, 0.0])
        geoms = [s.per_target[0][2] for s in ts.steps]
        assert ts.steps[0].combined == geoms[0].r1
        assert ts.steps[1].combined == geoms[1].r2

    def test_targets_requeried_per_step(self):
        calls = []

        def provider(t, x):
            calls.append(t)
            return [target([5, 5], "goal")]

        score_trajectory(traj([(0, 0), (1, 1), (2, 2)]), provider, 0.9)
        assert calls == [0, 1]


class TestFeatureScores:
    def test_toward_target_is_plus_one(self):
        fs = feature_scores(traj([(0, 0), (1, 0)]),
                            single_target_provider([2, 5]), 1.0)
        step = fs[0].scored_steps()[0]
        assert step.combined == 1.0

    def test_away_from_target_is_minus_one(self):
        fs = feature_scores(traj([(0, 0), (-1, 0)]),
                            single_target_provider([2, 5]), 1.0)
        step = fs[0].scored_steps()[0]
        assert step.combined == -1.0

    def test_unchanged_feature_skipped(self):
        fs = feature_scores(traj([(0, 0), (1, 0)]),
                            single_target_provider([2, 5]), 1.0)
        assert fs[1].skipped_count == 1

    def test_one_dim_r1_is_exactly_plus_minus_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p0, p1, tp = rng.normal(size=(3, 2))
            fs = feature_scores(traj([p0, p1]), single_target_provider(tp), 1.0)
            for d in fs:
                for step in fs[d].scored_steps():
                    _, _, geom = step.per_target[0]
                    assert geom.r1 in (-1.0, 1.0)

    def test_not_a_linear_decomposition(self):
        # 2-D counterexample: the combined score cannot be written as any
        # fixed convex combination of the per-feature scores
        t2 = traj([(0, 0), (0.9, 0.1)])
        provider = single_target_provider([0.1, 0.9])
        full = score_trajectory(t2, provider, 0.9).scored_steps()[0].combined
        per = feature_scores(t2, provider, 0.9)
        f0 = per[0].scored_steps()[0].combined
        f1 = per[1].scored_steps()[0].combined
        assert not (min(f0, f1) - 1e-12 <= full <= max(f0, f1) + 1e-12)
