import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_scores.errors import ConfigError, DegenerateGeometry, TargetError, TrajectoryError
from trace_scores.geometry import (DEFAULT_EPSILON, Degeneracy, FeatureVector, norm_of,
                                   step_score)
from trace_scores.pipeline import Trajectory
from trace_scores.scoring import (Polarity, SkipReason, TargetSpec, per_step, score_step,
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
    return per_step(lambda t, x: [spec])


def assert_same_geometry(got, want):
    """Two lists of StepGeometry agree: flags exactly, scores to 1e-12."""
    assert [g.degenerate for g in got] == [g.degenerate for g in want]
    np.testing.assert_allclose([(g.r1, g.r2, g.s) for g in got],
                               [(g.r1, g.r2, g.s) for g in want], rtol=0, atol=1e-12)


def geometries(step):
    return [g for _, _, g in step.per_target]


class TestMaskStatic:
    """A dimension where the factual equals every target is left out of
    the step's geometry."""

    def test_static_dim_dropped(self):
        # the move along dim 1 would cost r1 if dim 1 were scored
        step = score_step([1, 5], [2, 6], [target([3, 5])], 0.9)
        without = score_step([1], [2], [target([3])], 0.9)
        assert_same_geometry(geometries(step), geometries(without))
        assert step.combined == without.combined == 1.0

    def test_all_dims_differ(self):
        step = score_step([1, 5], [2, 6], [target([3, 7])], 0.9)
        assert_same_geometry(geometries(step), [step_score([1, 5], [2, 6], [3, 7], 0.9)])

    def test_all_masked(self):
        step = score_step([1, 5], [2, 6], [target([1, 5])], 0.9)
        assert step.skip_reason is SkipReason.ALL_MASKED

    def test_union_over_targets(self):
        # each target is static in one dim, so the union keeps both dims
        points = [[1, 7], [3, 5]]
        step = score_step([1, 5], [2, 6], [target(p) for p in points], 0.9)
        assert not step.skipped
        assert_same_geometry(geometries(step),
                             [step_score([1, 5], [2, 6], p, 0.9) for p in points])


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

    def test_one_dim_toward_target_is_plus_one(self):
        assert score_step([0], [1], [target([2])], 1.0).combined == 1.0

    def test_one_dim_away_from_target_is_minus_one(self):
        assert score_step([0], [-1], [target([2])], 1.0).combined == -1.0

    def test_one_dim_r1_is_exactly_plus_minus_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x_t, x_next, p = rng.normal(size=(3, 1))
            for _, _, geom in score_step(x_t, x_next, [target(p)], 1.0).per_target:
                assert geom.r1 in (-1.0, 1.0)

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

        score_trajectory(traj([(0, 0), (1, 1), (2, 2)]), per_step(provider), 0.9)
        assert calls == [0, 1]


# -- the array kernel against the scalar reference -----------------------------

def reference_step(x_t, x_next, targets, lam, weights=None, epsilon=DEFAULT_EPSILON):
    """One step on the scalar path: ``geometry.step_score`` per target on the
    active dims, then class means and the weighted polarity combination.
    Returns ``(skip_reason, per_target, per_class, combined)``."""
    xt, xn = np.asarray(x_t, dtype=float), np.asarray(x_next, dtype=float)
    points = [spec.point.values for spec in targets]
    active = [d for d in range(xt.size) if any(abs(p[d] - xt[d]) > epsilon for p in points)]
    if not active:
        return SkipReason.ALL_MASKED, [], {}, None
    w = None if weights is None else np.asarray(weights, dtype=float)[active]
    if norm_of(xn[active] - xt[active], w) <= epsilon:
        return SkipReason.NO_FEATURE_CHANGE, [], {}, None
    per_target, scores, class_weights = [], {}, {}
    for spec, p in zip(targets, points):
        try:
            geom = step_score(xt[active], xn[active], p[active], lam, epsilon=epsilon, weights=w)
        except DegenerateGeometry:
            continue
        per_target.append((spec.class_label, spec.polarity, geom))
        scores.setdefault(spec.class_label, []).append(geom.s)
        class_weights.setdefault(spec.class_label, []).append(spec.weight)
    per_class = {c: float(np.mean(v)) for c, v in scores.items()}
    polarity = {label: pol for label, pol, _ in per_target}
    cw = {c: float(np.mean(v)) for c, v in class_weights.items()}
    combined = (sum(cw[c] * float(polarity[c]) * per_class[c] for c in per_class)
                / sum(cw.values())) if per_class else None
    return None, per_target, per_class, combined


def assert_matches_reference(step, x_t, x_next, targets, lam, weights=None):
    reason, per_target, per_class, combined = reference_step(x_t, x_next, targets, lam, weights)
    assert step.skipped == (reason is not None)
    assert step.skip_reason is reason
    assert [(c, p) for c, p, _ in step.per_target] == [(c, p) for c, p, _ in per_target]
    for (_, _, got), (_, _, want) in zip(step.per_target, per_target):
        assert got.degenerate is want.degenerate
        # the documented ranges, and the exact ones of a reached goal, hold bit for bit
        assert -1.0 <= got.r1 <= 1.0 and 0.0 <= got.r2 <= 1.0
        if got.degenerate is Degeneracy.GOAL_REACHED:
            assert got.r1 == got.r2 == got.s == 1.0
        np.testing.assert_allclose([got.r1, got.r2, got.s], [want.r1, want.r2, want.s],
                                   rtol=0, atol=1e-12)
    assert list(step.per_class) == list(per_class)
    np.testing.assert_allclose(list(step.per_class.values()), list(per_class.values()),
                               rtol=0, atol=1e-12)
    if combined is None:
        assert step.combined is None
    else:
        assert step.combined == pytest.approx(combined, rel=0, abs=1e-12)


# grid values make repeated coordinates, static dims and collinear targets common
COORD = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                  st.floats(-2, 2, allow_subnormal=False))


@st.composite
def trajectory_cases(draw):
    """Points, per-step targets, a lambda schedule and feature weights."""
    dim = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 4))
    vec = st.lists(COORD, min_size=dim, max_size=dim).map(np.array)
    xs = draw(st.lists(vec, min_size=n_steps + 1, max_size=n_steps + 1))
    polarity = {c: draw(st.sampled_from(list(Polarity))) for c in "abc"}
    target_lists = []
    for i in range(n_steps):
        step_targets = []
        for _ in range(draw(st.integers(1, 4))):
            # a free point, the factual (dropped), the landing point (goal
            # reached) or a point along the move (best achieved)
            kind = draw(st.sampled_from(["free", "x_t", "x_next", "on_move"]))
            if kind == "free":
                point = draw(vec)
            elif kind == "x_t":
                point = xs[i]
            elif kind == "x_next":
                point = xs[i + 1]
            else:
                point = xs[i] + draw(st.sampled_from([0.5, 2.0])) * (xs[i + 1] - xs[i])
            label = draw(st.sampled_from("abc"))
            step_targets.append(TargetSpec(point=FeatureVector(point), class_label=label,
                                           polarity=polarity[label],
                                           weight=draw(st.floats(0.1, 5.0))))
        target_lists.append(step_targets)
    lam_value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))
    lam = draw(st.one_of(lam_value, st.lists(lam_value, min_size=n_steps, max_size=n_steps)))
    weights = draw(st.none() | st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim))
    return xs, target_lists, lam, weights


@settings(max_examples=300)
@given(trajectory_cases())
def test_kernel_matches_scalar_step_score(case):
    xs, target_lists, lam, weights = case
    traj = Trajectory("s", [(t, FeatureVector(x)) for t, x in enumerate(xs)])
    lams = [lam if isinstance(lam, float) else lam[i] for i in range(len(target_lists))]
    ts = score_trajectory(traj, per_step(lambda t, x: target_lists[t]), lam,
                          feature_weights=weights)
    assert [s.t_index for s in ts.steps] == list(range(1, len(xs)))
    assert ts.skipped_count == sum(s.skipped for s in ts.steps)
    for i, step in enumerate(ts.steps):
        assert_matches_reference(step, xs[i], xs[i + 1], target_lists[i], lams[i], weights)


@pytest.mark.parametrize("x_t, x_next, points, weights, expect", [
    ([0, 0], [1, 1], [[1, 1]], None, Degeneracy.GOAL_REACHED),
    # the move's cosine with itself rounds to 1.0000000000000002 here
    ([0.2, -0.2, 1.0], [1.0, 0.4, 0.3], [[1.0, 0.4, 0.3]], None, Degeneracy.GOAL_REACHED),
    ([0, 0], [2, 0], [[1, 0]], None, Degeneracy.BEST_ACHIEVED),
    ([0, 0], [1, 0], [[2, 0]], None, Degeneracy.BEST_ACHIEVED),
    ([1, 5], [2, 6], [[1, 5]], None, SkipReason.ALL_MASKED),
    ([1, 5], [1, 6], [[2, 5]], None, SkipReason.NO_FEATURE_CHANGE),
    ([0, 0], [0.5, 0], [[0, 0], [1, 0]], None, "dropped"),
    # the target's dim is active, but its weighted distance is within epsilon
    ([0], [1], [[2e-9]], [0.01], "all dropped"),
], ids=["goal-reached", "goal-reached-rounded", "best-achieved", "best-achieved-past", "all-masked",
        "no-move", "dropped-target", "every-target-dropped"])
def test_kernel_matches_scalar_on_degenerate_steps(x_t, x_next, points, weights, expect):
    targets = [target(p, label) for p, label in zip(points, "ab")]
    for lam in (0.0, 0.4, 1.0):
        step = score_step(x_t, x_next, targets, lam, feature_weights=weights)
        assert_matches_reference(step, x_t, x_next, targets, lam, weights)
        if isinstance(expect, Degeneracy):
            assert [g.degenerate for _, _, g in step.per_target] == [expect]
        elif isinstance(expect, SkipReason):
            assert step.skip_reason is expect
        else:
            assert len(step.per_target) == len(points) - 1
            assert not step.skipped


def test_first_bad_scored_step_raises():
    # step 0 is all masked, so its lambda is never used; step 1 reports its own
    pts = [(0, 0), (1, 0), (2, 0)]
    provider = per_step(lambda t, x: [target([0, 0] if t == 0 else [5, 0])])
    ts = score_trajectory(traj(pts), provider, [1.0, 0.5])
    assert ts.steps[0].skip_reason is SkipReason.ALL_MASKED
    with pytest.raises(ConfigError, match="got 1.5"):
        score_trajectory(traj(pts), provider, [7.0, 1.5])
    conflicting = [target([5, 0], "a"), target([6, 1], "a", Polarity.UNDESIRABLE)]
    with pytest.raises(ConfigError, match="'a' carries conflicting polarities"):
        score_trajectory(traj(pts), per_step(lambda t, x: conflicting), 0.5)
