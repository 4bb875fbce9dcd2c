import math
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trace_scores import analytics, cli
from trace_scores.analytics import (_two_sided_p, aggregate, polarity_averages, rank_targets,
                                    summarize, welch_t_test)
from trace_scores.errors import (AggregateError, StatsError, TargetError, TraceError,
                                 TrajectoryError)
from trace_scores.pipeline import Trajectory
from trace_scores.scoring import Polarity, SkipReason, score_trajectory
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

    # -0.0, the smallest subnormal, the smallest normal and ±1 besides drawn scores
    @given(st.lists(st.floats(-1.0, 1.0) | st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]), min_size=1, max_size=40))
    def test_cumulative_is_a_python_running_sum_bit_for_bit(self, combined):
        s = aggregate(hand_scored(combined))
        total, want = 0.0, []
        for v in combined:
            total += v
            want.append(total)
        assert [v.hex() for v in s.cumulative] == [v.hex() for v in want]
        assert s.average.hex() == (total / len(combined)).hex()

    def test_last_cumulative_equals_average_times_count(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.uniform(-1, 1, size=int(rng.integers(1, 30))).tolist()
            s = aggregate(hand_scored(scores))
            assert abs(s.cumulative[-1] - s.average * len(s.values)) <= 1e-12


def _polarity_averages_of_one(ts):
    """The per-score formula: each scored step's mean over the classes of a
    polarity it scores, then one ``np.mean`` over that score's step means."""
    rows = ts.per_class[ts.skip == 0]
    out = {}
    for key, polarity in (("average_desirable", Polarity.DESIRABLE),
                          ("average_undesirable", Polarity.UNDESIRABLE)):
        m = rows[:, ts.polarity == polarity]
        n = (~np.isnan(m)).sum(axis=1)
        means = np.nansum(m, axis=1)[n > 0] / n[n > 0]
        out[key] = float(np.mean(means)) if len(means) else None
    return out


def _bits(averages):
    return {key: None if v is None else v.hex() for key, v in averages.items()}


def test_polarity_averages_leave_out_classes_a_step_does_not_score():
    nan = np.nan
    per_class = [[0.5, -0.25, 0.125], [nan, 0.75, nan], [nan, nan, nan]]
    skip = [0, 0, SkipReason.NO_FEATURE_CHANGE]
    polarity = [Polarity.DESIRABLE, Polarity.UNDESIRABLE, Polarity.DESIRABLE]
    both = hand_scored([0.1, -0.75, nan], skip, "abc", per_class, polarity)
    # no scored step scores a desirable class
    undesirable = hand_scored([-0.75, nan], skip[1:], "abc", per_class[1:], polarity)
    want = [{"average_desirable": (0.5 + 0.125) / 2, "average_undesirable": (-0.25 + 0.75) / 2},
            {"average_desirable": None, "average_undesirable": 0.75}]
    assert polarity_averages([both, undesirable]) == want
    assert polarity_averages([undesirable, both]) == want[::-1]


_CELLS = st.floats(-1.0, 1.0) | st.just(np.nan)
_SKIPS = st.sampled_from([0, 0, 0, SkipReason.ALL_MASKED, SkipReason.NO_FEATURE_CHANGE])


@st.composite
def scores_of_one_target_set(draw):
    """One to six hand-scored scores over one to four classes of drawn
    polarities, each of one to twenty steps with at least one scored, with
    NaN cells and skipped steps (whose cells are drawn too)."""
    n_classes = draw(st.integers(1, 4))
    labels = "abcd"[:n_classes]
    polarity = draw(st.lists(st.sampled_from(list(Polarity)),
                             min_size=n_classes, max_size=n_classes))
    scores = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 20))
        skip = draw(st.lists(_SKIPS, min_size=n, max_size=n))
        skip[draw(st.integers(0, n - 1))] = 0
        per_class = draw(arrays(float, (n, n_classes), elements=_CELLS))
        scores.append(hand_scored([0.0] * n, skip, labels, per_class, polarity))
    return scores


@given(scores=scores_of_one_target_set())
def test_polarity_averages_equal_the_per_score_formula_bit_for_bit(scores):
    # np.mean sums fewer than 8 step means in order and 8 or more pairwise
    assert [_bits(a) for a in polarity_averages(scores)] == \
        [_bits(_polarity_averages_of_one(ts)) for ts in scores]


def _python_running_sum(combined, skip):
    total, sums = 0.0, []
    for v, k in zip(combined, skip):
        if not k:
            total += v
            sums.append(total)
    return sums


_VALUES = st.floats(-1.0, 1.0) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0])


@st.composite
def drawn_scores(draw):
    """Zero to eight hand-scored scores of 0-60 steps, some skipped, some all
    skipped, their values with -0.0 and subnormals."""
    scores = []
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, 60))
        skip = draw(st.lists(_SKIPS, min_size=n, max_size=n) | st.just([SkipReason.ALL_MASKED] * n))
        combined = [np.nan if k else v for k, v in zip(skip, draw(
            st.lists(_VALUES, min_size=n, max_size=n)))]
        scores.append(hand_scored(combined, skip))
    return scores


@given(scores=drawn_scores(), budget=st.integers(1, 200))
def test_the_cohort_pass_is_a_python_running_sum_bit_for_bit(scores, budget):
    # a small grid budget makes many blocks, of one score or several
    with mock.patch.object(analytics, "_BLOCK_CELLS", budget):
        got = summarize(scores)
        series = []
        for ts in scores:
            try:
                series.append(aggregate(ts))
            except AggregateError:
                series.append(None)
    assert len(got) == len(scores)
    for summary, agg, ts in zip(got, series, scores):
        want = _python_running_sum(ts.combined.tolist(), ts.skip.tolist())
        if not want:
            assert isinstance(summary, AggregateError) and agg is None
            assert str(summary) == "no scored steps to aggregate"
            continue
        assert summary["n_steps"] == len(agg.values) == len(want)
        assert summary["n_skipped"] == len(ts.skip) - len(want)
        assert summary["final_cumulative"].hex() == want[-1].hex()
        assert summary["average"].hex() == agg.average.hex() == (want[-1] / len(want)).hex()
        assert [v.hex() for v in agg.cumulative] == [v.hex() for v in want]


def test_the_cohort_pass_pads_no_score_to_the_longest():
    """One 200 000-step score among 2 000 three-step ones: the pass holds a
    few arrays of about (longest + block budget) values, not a grid of
    subjects x longest (3.2 GB here)."""
    longest = 200_000
    scores = [hand_scored(np.full(longest, 0.5))] + [hand_scored([0.25, -0.5, 1.0])] * 2_000
    tracemalloc.start()
    try:
        got = summarize(scores)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0]["final_cumulative"] == 0.5 * longest and got[1]["n_steps"] == 3
    outputs = 2_000 * 400   # the summary dicts and their floats
    assert peak < 6 * 8 * (longest + 1 + analytics._BLOCK_CELLS) + outputs


@pytest.mark.parametrize("combined", [np.full(200_000, 0.5), [-0.0] * 4 + [0.25, -0.25, -0.0, 1.0]],
                         ids=["200000-steps", "leading-negative-zeros"])
def test_aggregate_is_an_in_order_running_sum(combined):
    ts = hand_scored(combined)
    s, (summary,) = aggregate(ts), summarize([ts])
    want = _python_running_sum(ts.combined.tolist(), ts.skip.tolist())
    assert [v.hex() for v in s.cumulative] == [v.hex() for v in want]
    assert s.average.hex() == summary["average"].hex()
    assert s.cumulative[-1].hex() == summary["final_cumulative"].hex()


@st.composite
def cohort_results(draw):
    """``score_cohort``'s list: drawn scores with TrajectoryErrors and
    TargetErrors in drawn places."""
    results = draw(drawn_scores())
    for i in range(draw(st.integers(0, 6))):
        error = draw(st.sampled_from([TrajectoryError, TargetError]))(f"error {i}")
        results.insert(draw(st.integers(0, len(results))), error)
    return results


def _summary_bits(summary):
    if isinstance(summary, AggregateError):
        return str(summary)
    return {key: v.hex() if isinstance(v, float) else v for key, v in summary.items()}


@given(results=cohort_results(), budget=st.integers(1, 200))
def test_the_cohort_pass_keeps_each_error_in_its_place(results, budget):
    places = [k for k, r in enumerate(results) if not isinstance(r, TraceError)]
    with mock.patch.object(analytics, "_BLOCK_CELLS", budget):
        got, alone = summarize(results), summarize([results[k] for k in places])
    assert len(got) == len(results)
    assert all(got[k] is r for k, r in enumerate(results) if isinstance(r, TraceError))
    assert [_summary_bits(got[k]) for k in places] == [_summary_bits(s) for s in alone]


def test_a_score_run_makes_no_aggregate_call(tmp_path, monkeypatch):
    # each target set's summary columns come from one summarize pass
    calls, passes = [], []
    monkeypatch.setattr(analytics, "aggregate", calls.append)
    monkeypatch.setattr(analytics, "summarize", lambda results: passes.append(results)
                        or summarize(results))
    (tmp_path / "traj.csv").write_text("subject_id,t,f0,f1,label\n" + "".join(
        f"s{i},{t},{0.1 * (i + t)!r},{0.5 - 0.1 * t!r},A\n" for i in range(4) for t in range(3)))
    (tmp_path / "corpus.csv").write_text("f0,f1,label\n0.1,0.2,A\n0.9,0.8,B\n0.2,0.1,B\n")
    (tmp_path / "targets").mkdir()
    for name in ("up", "down"):
        (tmp_path / "targets" / f"{name}.csv").write_text("t,f0,f1\n" + "".join(
            f"{t},{0.2 * t!r},{(0.9 if name == 'up' else -0.9) * t!r}\n" for t in range(3)))
    cli.run_build_index(tmp_path / "corpus.csv", tmp_path / "index.bin")
    cfg = cli.RunConfig(k_neighbors=1, polarity_map={"A": Polarity.DESIRABLE,
                                                     "B": Polarity.UNDESIRABLE})
    assert cli.run_score_corpus(tmp_path / "traj.csv", tmp_path / "index.bin", cfg,
                                tmp_path / "corpus_out") == {"errors": 0, "subjects": 4}
    assert cli.run_score_series(tmp_path / "traj.csv", tmp_path / "targets", cli.RunConfig(),
                                tmp_path / "series_out") == {"errors": 0, "subjects": 4}
    assert calls == [] and [len(p) for p in passes] == [4, 4, 4]
    # s2 steps from t=3, which the series down lacks: its set's list still
    # holds every built subject, with the TargetError in s2's place
    (tmp_path / "gap.csv").write_text("subject_id,t,f0,f1,label\n" + "".join(
        f"s{i},{t},{0.1 * (i + t)!r},{0.5 - 0.1 * t!r},A\n"
        for i in range(4) for t in range(5 if i == 2 else 3)))
    (tmp_path / "gap").mkdir()
    for name, n in (("up", 4), ("down", 3)):
        (tmp_path / "gap" / f"{name}.csv").write_text("t,f0,f1\n" + "".join(
            f"{t},{0.2 * t!r},{0.9 * t!r}\n" for t in range(n)))
    passes.clear()
    assert cli.run_score_series(tmp_path / "gap.csv", tmp_path / "gap", cli.RunConfig(),
                                tmp_path / "gap_out") == {"errors": 1, "subjects": 4}
    down, up = passes
    assert len(down) == len(up) == 4 and isinstance(down[2], TargetError)
    assert not any(isinstance(r, TraceError) for r in [*down[:2], down[3], *up])
    assert (tmp_path / "gap_out" / "errors.csv").read_text().splitlines() == [
        "subject_id,error", "s2,down: class 'down' has no target at t=3"]


def test_a_corpus_run_takes_the_polarity_averages_once(tmp_path, monkeypatch):
    calls = []

    def spy(scores):
        calls.append(len(scores))
        return polarity_averages(scores)
    monkeypatch.setattr(analytics, "polarity_averages", spy)
    (tmp_path / "corpus.csv").write_text("f0,f1,label\n0.1,0.2,A\n0.9,0.8,B\n0.2,0.1,B\n")
    (tmp_path / "traj.csv").write_text("subject_id,t,f0,f1,label\n" + "".join(
        f"s{i},{t},{0.1 * (i + t)!r},{0.5 - 0.1 * t!r},A\n" for i in range(4) for t in range(3)))
    index = tmp_path / "index.bin"
    cli.run_build_index(tmp_path / "corpus.csv", index)
    cfg = cli.RunConfig(k_neighbors=1, polarity_map={"A": Polarity.DESIRABLE,
                                                     "B": Polarity.UNDESIRABLE})
    info = cli.run_score_corpus(tmp_path / "traj.csv", index, cfg, tmp_path / "out")
    assert info == {"errors": 0, "subjects": 4}
    assert calls == [4]


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
