import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trace_scores import scoring
from trace_scores.errors import (ConfigError, DegenerateGeometry, DimensionError, TargetError,
                                 TraceError, TrajectoryError)
from trace_scores.geometry import EPSILON, Degeneracy, norm_of, step_score
from trace_scores.pipeline import Trajectory
from trace_scores.scoring import Polarity, SkipReason, score_cohort, score_trajectory
from trace_scores.targets import build_index, knn_provider, series_provider
from oracles import COORD, make_targets, trajectory_cases

DESIRABLE, UNDESIRABLE = Polarity.DESIRABLE, Polarity.UNDESIRABLE


def traj(points, subject="s"):
    return Trajectory(subject_id=subject, t=range(len(points)), x=points)


def score_one(x_t, x_next, targets, lam, polarity=None):
    """The one-step result of a move from ``x_t`` to ``x_next`` against
    ``(point, class label)`` targets, labelled 1."""
    tg = make_targets([targets], polarity)
    return score_trajectory(traj([x_t, x_next]), tg, lam)


def fixed_target(tr, point, label="goal"):
    """The Targets that give every step of ``tr`` the one target ``point``."""
    return make_targets([[(point, label)]] * (len(tr.t) - 1))


def own_classes(points):
    """``(point, class label)`` targets, each point of its own class."""
    return [(p, f"c{j}") for j, p in enumerate(points)]


def target_terms(x_t, x_next, points, lam):
    """Each target's ``(r1, r2, s)`` from the kernel, NaN for a dropped one:
    with each target its own class, its class mean at lambda 1, 0 and
    ``lam`` is its r1, r2 and s exactly."""
    targets = own_classes(points)
    return np.array([score_one(x_t, x_next, targets, at).per_class[0]
                     for at in (1.0, 0.0, lam)]).T


def reference_terms(x_t, x_next, points, lam):
    """Each target's ``(r1, r2, s)`` from ``geometry.step_score``."""
    return [(g.r1, g.r2, g.s) for g in (step_score(x_t, x_next, p, lam) for p in points)]


def assert_same_terms(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def class_means(ts, i=0):
    """Step ``i``'s per-class means as a mapping, without the unscored classes."""
    return {c: v for c, v in zip(ts.labels, ts.per_class[i].tolist()) if v == v}


class TestMaskStatic:
    """A dimension where the factual equals every target is left out of
    the step's geometry."""

    def test_static_dim_dropped(self):
        # the move along dim 1 would cost r1 if dim 1 were scored
        step = score_one([1, 5], [2, 6], [([3, 5], "c")], 0.9)
        without = score_one([1], [2], [([3], "c")], 0.9)
        assert_same_terms(target_terms([1, 5], [2, 6], [[3, 5]], 0.9),
                          target_terms([1], [2], [[3]], 0.9))
        assert step.combined[0] == without.combined[0] == 1.0

    def test_all_dims_differ(self):
        assert_same_terms(target_terms([1, 5], [2, 6], [[3, 7]], 0.9),
                          reference_terms([1, 5], [2, 6], [[3, 7]], 0.9))

    def test_all_masked(self):
        step = score_one([1, 5], [2, 6], [([1, 5], "c")], 0.9)
        assert step.skip[0] == SkipReason.ALL_MASKED

    def test_union_over_targets(self):
        # each target is static in one dim, so the union keeps both dims
        points = [[1, 7], [3, 5]]
        step = score_one([1, 5], [2, 6], own_classes(points), 0.9)
        assert step.skip[0] == 0
        assert_same_terms(target_terms([1, 5], [2, 6], points, 0.9),
                          reference_terms([1, 5], [2, 6], points, 0.9))


class TestScoreStep:
    """One step, scored as a two-point trajectory."""

    def test_goal_reached_combined_one(self):
        s = score_one([0, 0], [1, 1], [([1, 1], "c")], 0.9)
        assert s.combined[0] == 1.0

    def test_two_class_toward_desirable(self):
        targets = [([1, 0], "good"), ([-1, 0], "bad")]
        s = score_one([0, 0], [0.5, 0], targets, 1.0, {"bad": UNDESIRABLE})
        assert class_means(s) == {"good": 1.0, "bad": -1.0}
        assert s.combined[0] == 1.0

    def test_two_class_toward_undesirable(self):
        targets = [([1, 0], "good"), ([-1, 0], "bad")]
        s = score_one([0, 0], [-0.5, 0], targets, 1.0, {"bad": UNDESIRABLE})
        assert s.combined[0] == -1.0

    def test_no_targets(self):
        with pytest.raises(TargetError):
            score_one([0, 0], [1, 0], [], 0.9)

    def test_target_points_of_the_wrong_shape(self):
        with pytest.raises(DimensionError, match=re.escape(
                "target points of shape (1, 3) do not match 1 steps of 1 targets in dimension 2")):
            score_one([0, 0], [1, 0], [([1, 1, 1], "a")], 0.9)

    def test_all_masked_skip(self):
        s = score_one([1, 5], [2, 6], [([1, 5], "c")], 0.9)
        assert s.skip[0] == SkipReason.ALL_MASKED
        assert np.isnan(s.combined[0]) and np.isnan(s.per_class).all()

    def test_no_change_skip(self):
        # x_next differs from x_t only in the masked dimension
        s = score_one([1, 5], [1, 6], [([2, 5], "c")], 0.9)
        assert s.skip[0] == SkipReason.NO_FEATURE_CHANGE

    def test_combined_in_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x_t, x_next, p1, p2 = rng.normal(size=(4, 3))
            s = score_one(x_t, x_next, [(p1, "a"), (p2, "b")], 0.9, {"b": UNDESIRABLE})
            if not s.skip[0]:
                assert -1.0 <= s.combined[0] <= 1.0

    def test_only_desirable_classes_bounded_below_by_minus_lambda(self):
        rng = np.random.default_rng(17)
        lam = 0.9
        for _ in range(200):
            x_t, x_next, p1, p2 = rng.normal(size=(4, 3))
            s = score_one(x_t, x_next, [(p1, "a"), (p2, "b")], lam)
            if not s.skip[0]:
                assert -lam <= s.combined[0] <= 1.0

    def test_polarity_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x_t, x_next, p1, p2 = rng.normal(size=(4, 3))
            targets = [(p1, "a"), (p2, "b")]
            s_pos = score_one(x_t, x_next, targets, 0.9, {"b": UNDESIRABLE})
            s_neg = score_one(x_t, x_next, targets, 0.9, {"a": UNDESIRABLE})
            if not s_pos.skip[0]:
                assert s_neg.combined[0] == -s_pos.combined[0]

    def test_target_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x_t, x_next, p1, p2, p3 = rng.normal(size=(5, 3))
            ts = [(p1, "a"), (p2, "a"), (p3, "b")]
            s1 = score_one(x_t, x_next, ts, 0.9, {"b": UNDESIRABLE})
            s2 = score_one(x_t, x_next, ts[::-1], 0.9, {"b": UNDESIRABLE})
            assert s1.combined[0] == pytest.approx(s2.combined[0], abs=1e-15)
            assert class_means(s1) == pytest.approx(class_means(s2))

    def test_masking_soundness(self):
        # appending a dim identical in x_t, x_next and all targets is a no-op
        rng = np.random.default_rng(4)
        for _ in range(50):
            x_t, x_next, p1, p2 = rng.normal(size=(4, 3))
            pmap = {"b": UNDESIRABLE}
            base = score_one(x_t, x_next, [(p1, "a"), (p2, "b")], 0.9, pmap)
            pad = lambda v: np.append(v, 0.777)
            padded = score_one(pad(x_t), pad(x_next), [(pad(p1), "a"), (pad(p2), "b")], 0.9, pmap)
            assert padded.combined[0] == base.combined[0]

    def test_one_dim_toward_target_is_plus_one(self):
        assert score_one([0], [1], [([2], "c")], 1.0).combined[0] == 1.0

    def test_one_dim_away_from_target_is_minus_one(self):
        assert score_one([0], [-1], [([2], "c")], 1.0).combined[0] == -1.0

    def test_one_dim_r1_is_exactly_plus_minus_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x_t, x_next, p = rng.normal(size=(3, 1))
            # at lambda 1 a one-target class mean is the target's r1
            means = class_means(score_one(x_t, x_next, [(p, "c")], 1.0))
            assert set(means.values()) <= {-1.0, 1.0}

    def test_degenerate_target_dropped(self):
        # one target sits exactly on the factual; the other still scores
        s = score_one([0, 0], [0.5, 0], [([0, 0], "a"), ([1, 0], "b")], 1.0)
        assert s.skip[0] == 0
        assert class_means(s) == {"b": 1.0}
        assert s.combined[0] == 1.0


class TestScoreTrajectory:
    def test_two_point_onto_target(self):
        tr = traj([(0, 0), (1, 1)])
        ts = score_trajectory(tr, fixed_target(tr, [1, 1]), 0.9)
        assert ts.steps.tolist() == [1]
        assert ts.combined[0] == 1.0

    def test_repeated_middle_point_skipped(self):
        tr = traj([(0, 0), (0.5, 0), (0.5, 0)])
        ts = score_trajectory(tr, fixed_target(tr, [1, 1]), 0.9)
        assert ts.skipped_count == 1
        assert ts.steps[ts.skip == 0].tolist() == [1]

    def test_straight_line_all_ones_at_lambda_one(self):
        tr = traj([(0.1 * i, 0.2 * i) for i in range(5)])
        ts = score_trajectory(tr, fixed_target(tr, [10, 20]), 1.0)
        assert ts.skipped_count == 0
        np.testing.assert_allclose(ts.combined, [1.0] * 4, rtol=0, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(TrajectoryError):
            score_trajectory(traj([(0, 0)]), make_targets([[([1, 1], "goal")]]), 0.9)


# -- the array kernel against the scalar reference -----------------------------

def reference_step(x_t, x_next, targets, lam, polarity):
    """One step on the scalar path: ``geometry.step_score`` per ``(point,
    class label)`` target on the active dims, then class means and their
    polarity-signed mean. Returns ``(skip_reason, per_target, per_class,
    combined)``."""
    xt, xn = np.asarray(x_t, dtype=float), np.asarray(x_next, dtype=float)
    points = [np.asarray(p, dtype=float) for p, _ in targets]
    active = [d for d in range(xt.size) if any(abs(p[d] - xt[d]) > EPSILON for p in points)]
    if not active:
        return SkipReason.ALL_MASKED, [], {}, None
    if norm_of(xn[active] - xt[active]) <= EPSILON:
        return SkipReason.NO_FEATURE_CHANGE, [], {}, None
    per_target, scores = [], {}
    for (_, label), p in zip(targets, points):
        try:
            geom = step_score(xt[active], xn[active], p[active], lam)
        except DegenerateGeometry:
            continue
        per_target.append((label, geom))
        scores.setdefault(label, []).append(geom.s)
    per_class = {c: float(np.mean(v)) for c, v in scores.items()}
    combined = sum(float(polarity.get(c, DESIRABLE)) * m for c, m in per_class.items()) / len(per_class)
    return None, per_target, per_class, combined


def assert_matches_reference(ts, i, x_t, x_next, targets, lam, polarity):
    """Step ``i`` of ``ts`` against ``reference_step``: its skip reason, its
    classes' polarities, its per-class means and its combined score. The step
    rescored at lambda 1 and 0 gives each class the mean of its kept
    targets' r1 and r2, so that each term is checked on its own."""
    reason, per_target, _, combined = reference_step(x_t, x_next, targets, lam, polarity)
    assert ts.skip[i] == (0 if reason is None else reason)
    assert ts.polarity.tolist() == [float(polarity.get(c, DESIRABLE)) for c in ts.labels]
    kept = {}
    for label, geom in per_target:
        kept.setdefault(label, []).append(geom)
    # the matrix has no per-step class order: compare the means as a mapping
    for term, got in (("s", class_means(ts, i)),
                      ("r1", class_means(score_one(x_t, x_next, targets, 1.0, polarity))),
                      ("r2", class_means(score_one(x_t, x_next, targets, 0.0, polarity)))):
        want = {c: float(np.mean([getattr(g, term) for g in geoms])) for c, geoms in kept.items()}
        assert got.keys() == want.keys()
        np.testing.assert_allclose([got[c] for c in want], list(want.values()),
                                   rtol=0, atol=1e-12)
        # the documented ranges, and the exact one of reached goals, hold bit for bit
        assert all(-1.0 <= v <= 1.0 and (term != "r2" or v >= 0.0) for v in got.values())
        for c, geoms in kept.items():
            if all(g.degenerate is Degeneracy.GOAL_REACHED for g in geoms):
                assert got[c] == 1.0
    if combined is None:
        assert np.isnan(ts.combined[i])
    else:
        assert ts.combined[i] == pytest.approx(combined, rel=0, abs=1e-12)


@settings(max_examples=300)
@given(trajectory_cases())
def test_kernel_matches_scalar_step_score(case):
    xs, target_lists, polarity, lam = case
    tg = make_targets(target_lists, polarity)
    ts = score_trajectory(Trajectory("s", range(len(xs)), xs), tg, lam)
    assert ts.steps.tolist() == list(range(1, len(xs)))
    # every scored step, and no skipped one, has a finite combined score
    assert (np.isfinite(ts.combined) == (ts.skip == 0)).all()
    for i in range(len(ts.steps)):
        assert_matches_reference(ts, i, xs[i], xs[i + 1], target_lists[i], lam, polarity)


@settings(max_examples=300)
@given(trajectory_cases(classes="a"))
# a move orthogonal to its target: r1 = 0, so the class mean is +0.0
@example(([np.array([0.0, 0.0]), np.array([1.0, 1.0])], [[(np.array([1.0, -1.0]), "a")]],
          {"a": UNDESIRABLE}, 1.0))
def test_one_class_mean_is_the_signed_combined_score(case):
    """A one-class step's class mean is polarity * combined bit for bit, but
    for a zero mean, whose combined nansum makes +0.0; the step writer takes
    per_class's text from combined's where the bits agree."""
    xs, target_lists, polarity, lam = case
    tg = make_targets(target_lists, polarity)
    ts = score_trajectory(Trajectory("s", range(len(xs)), xs), tg, lam)
    scored = ts.skip == 0
    means = ts.per_class[scored, 0].tolist()
    signed = (ts.polarity[0] * ts.combined[scored]).tolist()
    assert means == signed
    assert [m.hex() for m in means if m] == [s.hex() for s in signed if s]
    assert [c.hex() for c in ts.combined[scored].tolist() if c == 0] == \
        ["0x0.0p+0"] * means.count(0.0)


@pytest.mark.parametrize("x_t, x_next, points, expect", [
    ([0, 0], [1, 1], [[1, 1]], Degeneracy.GOAL_REACHED),
    # the move's cosine with itself rounds to 1.0000000000000002 here
    ([0.2, -0.2, 1.0], [1.0, 0.4, 0.3], [[1.0, 0.4, 0.3]], Degeneracy.GOAL_REACHED),
    ([0, 0], [2, 0], [[1, 0]], Degeneracy.BEST_ACHIEVED),
    ([0, 0], [1, 0], [[2, 0]], Degeneracy.BEST_ACHIEVED),
    ([1, 5], [2, 6], [[1, 5]], SkipReason.ALL_MASKED),
    ([1, 5], [1, 6], [[2, 5]], SkipReason.NO_FEATURE_CHANGE),
    ([0, 0], [0.5, 0], [[0, 0], [1, 0]], "dropped"),
], ids=["goal-reached", "goal-reached-rounded", "best-achieved", "best-achieved-past", "all-masked",
        "no-move", "dropped-target"])
def test_kernel_matches_scalar_on_degenerate_steps(x_t, x_next, points, expect):
    targets = own_classes(points)
    for lam in (0.0, 0.4, 1.0):
        step = score_one(x_t, x_next, targets, lam)
        assert_matches_reference(step, 0, x_t, x_next, targets, lam, {})
        if isinstance(expect, Degeneracy):
            # r2 is 1 for both; a reached goal's r1 is 1 as well
            if lam == 0.0 or expect is Degeneracy.GOAL_REACHED:
                assert class_means(step) == {"c0": 1.0}
        elif isinstance(expect, SkipReason):
            assert step.skip[0] == expect
        else:
            assert class_means(step).keys() == {"c1"}
            assert step.skip[0] == 0


# a target's offset from x_t in one dim: none, within 3 ulps of EPSILON either
# way (exactly so where x_t is 0), or free
OFFSET = st.one_of(st.just(0.0),
                   st.builds(lambda ulps, sign: sign * (EPSILON + ulps * np.spacing(EPSILON)),
                             st.integers(-3, 3), st.sampled_from([-1.0, 1.0])),
                   st.floats(-1, 1, allow_subnormal=False))


@st.composite
def near_epsilon_cases(draw):
    """Points and per-step targets, the targets offset from each step's x_t by OFFSET."""
    dim = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 3))
    vec = st.lists(st.just(0.0) | COORD, min_size=dim, max_size=dim).map(np.array)
    xs = draw(st.lists(vec, min_size=n_steps + 1, max_size=n_steps + 1))
    slots = draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=3))
    offsets = st.lists(OFFSET, min_size=dim, max_size=dim).map(np.array)
    return xs, [[(xs[i] + draw(offsets), label) for label in slots] for i in range(n_steps)]


@settings(max_examples=300)
@given(near_epsilon_cases())
def test_a_scored_step_keeps_a_target(case):
    # a dim is active where a target is more than EPSILON from x_t, and that
    # target's norm in the active dims is then more than EPSILON as well
    xs, target_lists = case
    tg = make_targets(target_lists)
    ts = score_trajectory(Trajectory("s", range(len(xs)), xs), tg, 0.5)
    assert set(ts.skip.tolist()) <= {0, SkipReason.ALL_MASKED, SkipReason.NO_FEATURE_CHANGE}
    for i in np.flatnonzero(ts.skip == 0).tolist():
        assert not np.isnan(ts.per_class[i]).all()
        assert np.isfinite(ts.combined[i])

def test_lambda_outside_the_unit_interval_raises():
    for lam in (-0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError, match=f"got {lam}"):
            tr = traj([(0, 0), (1, 0), (2, 0)])
            score_trajectory(tr, fixed_target(tr, [5, 0]), lam)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_target_point_that_is_not_finite_raises(bad):
    # the first such slot is b's in the step from t=2; a's in the step from
    # t=5 comes later
    tr = Trajectory("s", [0, 2, 5, 6], [(0, 0), (1, 0), (2, 0), (3, 0)])
    tg = make_targets([[([5, 0], "a"), ([6, 1], "b")], [([5, 0], "a"), ([bad, 1], "b")],
                       [([5, bad], "a"), ([6, 1], "b")]])
    with pytest.raises(TargetError, match="^class 'b' has no target at t=2$"):
        score_trajectory(tr, tg, 0.5)


def test_targets_carry_one_polarity_per_class():
    # a polarity per row, as two rows of one class would give, is rejected
    tg = make_targets([[([5, 0], "a"), ([6, 1], "a")]])
    tg.polarity = np.ones(2)
    with pytest.raises(DimensionError, match=r"polarities of shape \(2,\) do not match 1 classes"):
        score_trajectory(traj([(0, 0), (1, 0)]), tg, 0.5)


_QUARTERS = st.integers(-4, 4).map(lambda i: i / 4)
PMAP = {"a": DESIRABLE, "b": UNDESIRABLE}


@st.composite
def cohort_cases(draw):
    """Zero to five trajectories of one to six points in two features, some
    with a value of 1e200 whose square overflows, a provider, a lambda and a
    kernel block of one to three steps. The provider is kNN over a corpus
    with duplicate rows, whose class ``b`` is smaller than ``k``, or one
    series that lacks some t."""
    point = st.lists(_QUARTERS, min_size=2, max_size=2)
    trajs = []
    for i in range(draw(st.integers(0, 5))):
        ts = sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=6)))
        x = np.array([draw(point) for _ in ts])
        if draw(st.booleans()):
            x[draw(st.integers(0, len(ts) - 1)), draw(st.integers(0, 1))] = 1e200
        trajs.append(Trajectory(f"s{i}", ts, x))
    if draw(st.booleans()):
        rows = draw(st.lists(point, min_size=3, max_size=8))
        rows += draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
        n_b = draw(st.integers(1, 2))
        corpus = build_index(rows, ["b"] * n_b + ["a"] * (len(rows) - n_b))
        provider = knn_provider(corpus, draw(st.integers(n_b + 1, len(rows) - n_b + 1)), PMAP)
    else:
        series = {t: draw(point) for t in draw(st.sets(st.integers(0, 7), min_size=1))}
        provider = series_provider("goal", draw(st.sampled_from(Polarity)), series)
    return trajs, provider, draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])), draw(st.integers(1, 3))


# the arrays of a TrajectoryScore
ARRAYS = ("steps", "skip", "combined", "polarity", "per_class")


def one_result(tr, targets, lam):
    try:
        return score_trajectory(tr, targets, lam)
    except TraceError as e:
        return e


@settings(max_examples=200, deadline=None)
@given(cohort_cases())
def test_score_cohort_gives_each_trajectory_its_own_result(case):
    """One provider call on the stacked cohort and one blocked kernel pass,
    cut per trajectory, give each trajectory the bytes, or the error type and
    message, that ``score_trajectory`` gives it alone; segments cross blocks."""
    trajs, provider, lam, block_steps = case
    want = [one_result(tr, provider(tr.t[:-1], tr.x[:-1]), lam) for tr in trajs]
    slots = len(provider(np.zeros(0, int), np.zeros((0, 2))).cls)
    calls = []

    def counted(t, x):
        calls.append(len(t))
        return provider(t, x)
    with mock.patch.object(scoring, "_BLOCK_VALUES", block_steps * slots * 2):
        got = score_cohort(counted, trajs, lam)
    assert calls == ([sum(len(tr.t) - 1 for tr in trajs)] if trajs else [])
    assert len(got) == len(trajs)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, TraceError):
            assert str(g) == str(w)
            continue
        for name in ARRAYS:
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert g.labels == w.labels


def test_score_cohort_holds_about_two_blocks_beside_its_outputs():
    """A cohort 20 kernel blocks long: the tracemalloc peak of ``score_cohort``
    stays under its stacked steps, its outputs and two blocks of at most 8
    (step, slot, dim) grids each.
    Unblocked, the grids of one pass would take about 16 MiB here."""
    rng = np.random.default_rng(0)
    slots, dim = 4, 16
    n_steps = 20 * (scoring._BLOCK_VALUES // (slots * dim))
    trajs = [Trajectory(f"s{i}", range(81), rng.random((81, dim))) for i in range(n_steps // 80)]
    tg = scoring.Targets(np.arange(slots) % 2, ["a", "b"], np.array([1.0, -1.0]),
                         rng.random((n_steps * slots, dim)))
    tracemalloc.start()
    try:
        got = score_cohort(lambda t, x: tg, trajs, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(ts, scoring.TrajectoryScore) for ts in got)
    stacked = n_steps * (2 * dim + 2) * 8   # the earlier and later points and t
    outputs = sum(getattr(ts, name).nbytes for ts in got for name in ARRAYS)
    assert peak < stacked + outputs + 2 * 8 * 8 * scoring._BLOCK_VALUES
