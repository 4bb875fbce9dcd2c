import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from trace_scores import cli, pipeline
from trace_scores.errors import CorpusError, DimensionError, ImputeError, TrajectoryError
from trace_scores.pipeline import (RawRecord, Trajectory, _fast_table, _slow_table,
                                   build_trajectory, fit_normalizer, impute,
                                   load_trajectory_csv, read_csv, read_table, write_csv)

from oracles import fill_reference


def records(columns, subject="s"):
    """Build RawRecords from a list of per-time rows."""
    return [RawRecord(subject_id=subject, t_index=t, values=list(row))
            for t, row in enumerate(columns)]


class TestImpute:
    def test_forward_fill(self):
        assert impute([[5], [None], [np.nan]]).tolist() == [[5], [5], [5]]

    def test_backward_fill_leading(self):
        assert impute([[None], [None], [7]]).tolist() == [[7], [7], [7]]

    def test_class_mean_for_all_missing(self):
        out = impute([[None], [None], [None]], class_means=[4.2])
        assert out.tolist() == [[4.2], [4.2], [4.2]]

    def test_all_missing_without_stats(self):
        with pytest.raises(ImputeError):
            impute([[None], [None]])

    def test_mixed_columns(self):
        out = impute([[None, 1], [3, None], [None, None]])
        assert out.tolist() == [[3, 1], [3, 1], [3, 1]]

    def test_idempotence_and_preservation_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, d = int(rng.integers(2, 10)), int(rng.integers(1, 6))
            vals = rng.normal(size=(n, d))
            mask = rng.random((n, d)) < 0.3
            rows = [[None if mask[i, j] else float(vals[i, j])
                     for j in range(d)] for i in range(n)]
            once = impute(rows, class_means=[0.0] * d)
            twice = impute(once, class_means=[0.0] * d)
            assert np.array_equal(twice, once)
            assert np.array_equal(once[~mask], vals[~mask])


@st.composite
def gappy_subjects(draw):
    """One subject's rows with random gaps, single rows and empty columns
    included, and a class mean per column."""
    n, d = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    value = st.floats(-1e6, 1e6, allow_nan=False)
    rows = draw(st.lists(st.lists(st.none() | value, min_size=d, max_size=d),
                         min_size=n, max_size=n))
    return rows, draw(st.lists(value, min_size=d, max_size=d))


@settings(max_examples=300)
@given(gappy_subjects())
@example(([[None, 1.0, None], [2.0, None, None], [None, 3.0, None]], [7.0, 8.0, 9.0]))
@example(([[None, 4.0]], [5.0, 6.0]))
def test_fill_matches_reference(case):
    rows, means = case
    recs = records(rows)
    want = fill_reference(rows, means)
    assert impute(rows, class_means=means).tolist() == want
    traj = build_trajectory(recs, label="c", class_means={"c": means})
    assert traj.x.tolist() == want
    assert traj.t.tolist() == list(range(len(rows)))
    if any(all(v is None for v in col) for col in zip(*rows)):
        with pytest.raises(ImputeError):
            build_trajectory(recs, label="other", class_means={"c": means})
    else:
        assert build_trajectory(recs).x.tolist() == want


class TestNormalizer:
    def test_midpoint(self):
        ns = fit_normalizer([[10], [20]])
        assert ns.apply([[15]]).tolist() == [[0.5]]

    def test_no_clipping(self):
        ns = fit_normalizer([[10], [20]])
        assert ns.apply([[10], [25]]).tolist() == [[0.0], [1.5]]

    def test_constant_feature_maps_to_center(self):
        ns = fit_normalizer([[3, 1], [3, 2]])
        assert ns.apply([[3, 1], [99, 1]])[:, 0].tolist() == [0.5, 0.5]

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(20, 4)) * 10
        ns = fit_normalizer(rows)
        v = rng.normal(size=(10, 4)) * 10
        back = ns.apply(v) * (ns.maxs - ns.mins) + ns.mins
        np.testing.assert_allclose(back, v, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        ns = fit_normalizer([[1, 2], [3, 4]])
        with pytest.raises(DimensionError):
            ns.apply([[1, 2, 3]])

    def test_rows_match_scalar_formula(self):
        rng = np.random.default_rng(4)
        rows = np.round(rng.uniform(-30, 30, size=(50, 5)), 3)
        rows[:, 2] = 1.5  # constant feature
        ns = fit_normalizer(rows)
        got = ns.apply(rows)
        want = [[(v - lo) / (hi - lo) if hi > lo else 0.5
                 for v, lo, hi in zip(row, ns.mins.tolist(), ns.maxs.tolist())]
                for row in rows.tolist()]
        assert np.array_equal(got, want)
        assert all(np.array_equal(ns.apply(row[None])[0], g) for row, g in zip(rows, got))
        with pytest.raises(DimensionError):
            ns.apply(rows[:, :4])
        with pytest.raises(DimensionError):
            ns.apply(rows[0])

    @pytest.mark.parametrize("rows, names, message", [
        (np.empty((0, 2)), None, "normalizer needs a non-empty 2-D row matrix"),
        ([[1.0, 2.0]], ["hr"], "1 feature names for rows of 2 values"),
    ], ids=["no-rows", "names-count"])
    def test_fit_rejects_rows_it_cannot_fit(self, rows, names, message):
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            fit_normalizer(rows, names)

    def test_non_finite_range_names_the_feature(self):
        with pytest.raises(CorpusError, match="feature 'rr' spans a non-finite range"):
            fit_normalizer([[0.0, -1e308], [1.0, 1e308]], names=["hr", "rr"])

    def test_overflowing_quotient_is_infinite_without_warning(self, recwarn):
        ns = fit_normalizer([[0.0], [1e-300]])
        assert ns.apply([[1e10], [-1e10], [5e-301]]).tolist() == \
            [[np.inf], [-np.inf], [0.5]]
        assert not recwarn.list


class TestTrajectory:
    def test_strictly_increasing_t(self):
        with pytest.raises(TrajectoryError):
            Trajectory("s", [0, 0], [[1.0], [2.0]])

    def test_rejects_a_non_finite_value_naming_its_t(self):
        with pytest.raises(TrajectoryError, match=r"^value at t=7 is not finite$"):
            Trajectory("s", [3, 7], [[1.0, 2.0], [np.inf, 0.0]])

    @pytest.mark.parametrize("t, x", [([0, 1], [1.0, 2.0]), ([0, 1], [[], []]),
                                      ([0, 1, 2], [[1.0], [2.0]])])
    def test_rejects_a_matrix_that_does_not_fit_t(self, t, x):
        with pytest.raises(DimensionError):
            Trajectory("s", t, x)

    def test_build_trajectory_imputes_and_normalizes(self):
        ns = fit_normalizer([[0.0], [10.0]])
        recs = records([[5.0], [None]])
        traj = build_trajectory(recs, normalizer=ns)
        assert traj.x.tolist() == [[0.5], [0.5]]

    def test_build_trajectory_matches_per_row_apply(self):
        ns = fit_normalizer([[0.0, -3.0, 7.0], [10.0, 4.0, 7.0]])
        recs = records([[None, 1.25, 7.0], [2.5, None, 7.0], [9.75, 3.5, None]])
        traj = build_trajectory(recs, normalizer=ns)
        want = [ns.apply(row[None])[0] for row in impute([r.values for r in recs])]
        assert np.array_equal(traj.x, want)
        assert traj.t.tolist() == [0, 1, 2]


class TestCsvLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("subject_id,t,hr,rr,label\n"
                        "p1,0,60,,RFD\n"
                        "p1,1,,12,RFD\n"
                        "p2,0,80,20,mortality\n")
        by_subject, labels, names = load_trajectory_csv(path)
        assert names == ["hr", "rr"]
        assert labels == {"p1": "RFD", "p2": "mortality"}
        assert by_subject["p1"][0].values == [60.0, None]
        assert by_subject["p1"][1].values == [None, 12.0]

    def test_no_label_column(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("subject_id,t,hr\np1,0,60\n")
        by_subject, labels, names = load_trajectory_csv(path)
        assert names == ["hr"]
        assert labels == {}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("id,t,hr\np1,0,60\n")
        with pytest.raises(TrajectoryError):
            load_trajectory_csv(path)

    def test_duplicate_t(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("subject_id,t,hr\np1,0,60\np1,0,61\n")
        with pytest.raises(TrajectoryError):
            load_trajectory_csv(path)

    def test_determinism(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("subject_id,t,hr\np1,1,61\np1,0,60\n")
        first = load_trajectory_csv(path)
        second = load_trajectory_csv(path)
        assert [r.t_index for r in first[0]["p1"]] == [0, 1]
        assert [r.values for r in first[0]["p1"]] == \
               [r.values for r in second[0]["p1"]]


class TestReadCsv:
    def test_header_then_rows_with_their_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n\n3,4\n")
        rows = read_csv(path, TrajectoryError)
        assert next(rows) == ["a", "b"]
        assert list(rows) == [(2, ["1", "2"]), (4, ["3", "4"])]

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(TrajectoryError, match=r"x\.csv:3: expected 2 columns, got 1"):
            list(read_csv(path, TrajectoryError))

    def test_non_utf8_line_is_named_past_the_first_block(self, tmp_path):
        # the bad byte lies beyond the blocks the text layer decodes at once
        path = tmp_path / "x.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"3,\xff\n" + b"4,5\n")
        rows = read_csv(path, TrajectoryError)
        with pytest.raises(TrajectoryError, match=r"x\.csv:5002: not UTF-8 text"):
            list(rows)

    def test_non_utf8_line_is_named_in_a_file_with_cr_line_ends(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"a,b\r1,2\r3,\xff\r4,5\r")
        with pytest.raises(TrajectoryError, match=r"x\.csv:3: not UTF-8 text"):
            list(read_csv(path, TrajectoryError))


_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.floats(-1e6, 1e6).map("{:.3f}".format),
                     st.integers(-10**20, 10**20).map(str))
# spellings that float() and np.loadtxt may read differently, or reject
_ODD_CELLS = st.sampled_from([
    " 1.5", "+.5", "1_0", "nan", "-inf", "inf", "1e400", "1e-400", "\u0663", "\uff11", "", " ",
    "1\x1c", "\x1f2", "0x10", "-0", "1\x00", '"2.5"', '"a,b"', '"x\ny"', 'a"b', "A"])
_TEXT = st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters=',\n\r"'),
                max_size=4)


@st.composite
def csv_tables(draw):
    """A CSV file's bytes and its numeric block: mostly well-formed rows of
    float spellings, with odd cells, quoted cells, rows of the wrong length,
    blank lines, mixed line ends and non-UTF-8 bytes mixed in."""
    n = draw(st.integers(1, 5), label="columns")
    start = draw(st.integers(0, n - 1), label="start")
    stop = draw(st.integers(start + 1, n), label="stop")
    lines = [",".join(f"c{j}" for j in range(n))]
    for _ in range(draw(st.integers(0, 6), label="rows")):
        cells = [draw(_TEXT if j < start or j >= stop else _NUMBERS) for j in range(n)]
        if draw(st.integers(0, 4)) == 0:   # most often in the numeric block
            cells[draw(st.integers(start, stop - 1) | st.integers(0, n - 1))] = draw(_ODD_CELLS)
        if draw(st.integers(0, 6)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
        if draw(st.integers(0, 6)) == 0:
            lines.append("")
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    data = "".join(line + end for line, end in zip(lines, ends)).encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, (start, stop), draw(st.booleans(), label="gaps")


def _outcome(read):
    """A reader's table as comparable values (the matrix as its bytes), its
    error text, or None."""
    try:
        table = read()
    except TrajectoryError as e:
        return str(e)
    if table is None:
        return None
    header, lines, text, values = table
    return header, lines, text, values.shape, values.tobytes()


@settings(max_examples=400)
@given(csv_tables())
@example((b"c0,c1\r\n1.5,A\r\n\r\n-0,B\r\n", (0, 1), False))
@example((b"c0,c1\n1.5\x1c,A\n", (0, 1), False))   # loadtxt strips U+001C, float() does not
@example(("c0,c1\n1.5,\u2028\n".encode(), (0, 1), False))   # str.splitlines splits at U+2028
@example((b"\n1\n2\n", (0, 1), False))   # a blank header line
@example((b"c0,c1\n1," + b"x" * 131_073 + b"\n", (0, 1), False))   # past the field size limit
def test_fast_and_reference_readers_agree(tmp_path_factory, case):
    data, block, gaps = case
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(data)
    slow = _outcome(lambda: _slow_table(path, TrajectoryError, lambda header: block, gaps))
    fast = _outcome(lambda: _fast_table(path, lambda header: block))
    event("fast path" if fast is not None else "reference path")
    if fast is not None:
        assert fast == slow
    assert _outcome(lambda: read_table(path, TrajectoryError, lambda header: block,
                                       gaps=gaps)) == slow


def test_clean_files_take_the_fast_path(tmp_path, monkeypatch):
    """Clean tables written by write_csv (CRLF line ends) are read without
    the reference path's parse_cells."""
    corpus, traj, series = tmp_path / "corpus.csv", tmp_path / "traj.csv", tmp_path / "s.csv"
    write_csv(corpus, ["hr", "rr", "label"], [[0.25, 1e-300, "A"], [-0.0, 7.0, "B"]])
    write_csv(traj, ["subject_id", "t", "hr", "rr", "label"],
              [["s", 1, 0.5, 2.0, "A"], ["s", 0, 0.1, 1e10, "A"], ["u", 0, -3.5, 0.0, ""]])
    write_csv(series, ["t", "hr", "rr"], [[0, 0.5, 0.25], [1, 0.75, 0.5]])
    assert b"\r\n" in corpus.read_bytes()

    def refuse(*args):
        raise AssertionError("parse_cells called")

    monkeypatch.setattr(pipeline, "parse_cells", refuse)
    names, points, labels = cli.read_corpus_csv(corpus)
    assert (names, labels) == (["hr", "rr"], ["A", "B"])
    assert points.tobytes() == np.array([[0.25, 1e-300], [-0.0, 7.0]]).tobytes()
    by_subject, labels, names = load_trajectory_csv(traj)
    assert (labels, names) == ({"s": "A"}, ["hr", "rr"])
    assert [(r.t_index, r.values) for r in by_subject["s"]] == [(0, [0.1, 1e10]),
                                                                (1, [0.5, 2.0])]
    assert cli.read_series_csv(series, ["hr", "rr"]) == {0: [0.5, 0.25], 1: [0.75, 0.5]}
