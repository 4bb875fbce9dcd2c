import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from trace_scores.cli import main
from oracles import hand_scored

runner = CliRunner()


def write_corpus(path, rng, n_per_class=8):
    rows = ["hr,rr,label"]
    for label, center in (("RFD", 0.8), ("mortality", 0.2)):
        pts = center + rng.normal(0, 0.05, (n_per_class, 2))
        rows += [f"{float(p[0])!r},{float(p[1])!r},{label}" for p in pts]
    path.write_text("\n".join(rows) + "\n")


def write_trajectories(path, rng, n_subjects=4, n_steps=4):
    rows = ["subject_id,t,hr,rr,label"]
    for i in range(n_subjects):
        x = np.array([0.5, 0.5]) + rng.normal(0, 0.02, 2)
        target = 0.8 if i % 2 == 0 else 0.2
        label = "RFD" if i % 2 == 0 else "mortality"
        for t in range(n_steps):
            rows.append(f"s{i},{t},{float(x[0])!r},{float(x[1])!r},{label}")
            x = x + 0.1 * (target - x) + rng.normal(0, 0.005, 2)
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture
def corpus_setup(tmp_path):
    rng = np.random.default_rng(0)
    corpus = tmp_path / "corpus.csv"
    traj = tmp_path / "traj.csv"
    write_corpus(corpus, rng)
    write_trajectories(traj, rng)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "lambda": 0.9, "k_neighbors": 3,
        "polarity_map": {"RFD": "desirable", "mortality": "undesirable"}}))
    return tmp_path, corpus, traj, config


class TestBuildIndex:
    def test_valid_corpus(self, corpus_setup):
        tmp, corpus, _, _ = corpus_setup
        res = runner.invoke(main, ["build-index", str(corpus),
                                   "--out", str(tmp / "index.json")])
        assert res.exit_code == 0
        assert "RFD: 8" in res.output
        assert "mortality: 8" in res.output
        assert (tmp / "index.json").exists()

    def test_missing_label_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("hr,rr\n1,2\n")
        res = runner.invoke(main, ["build-index", str(bad),
                                   "--out", str(tmp_path / "i.json")])
        assert res.exit_code == 2
        assert "missing column: label" in res.output

    def test_empty_file(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        res = runner.invoke(main, ["build-index", str(bad),
                                   "--out", str(tmp_path / "i.json")])
        assert res.exit_code == 2


class TestScoreCorpusMode:
    def test_end_to_end(self, corpus_setup):
        tmp, corpus, traj, config = corpus_setup
        runner.invoke(main, ["build-index", str(corpus),
                             "--out", str(tmp / "index.json")])
        res = runner.invoke(main, ["score", str(traj),
                                   "--index", str(tmp / "index.json"),
                                   "--config", str(config),
                                   "--out", str(tmp / "out")])
        assert res.exit_code == 0, res.output
        lines = [json.loads(l) for l in
                 (tmp / "out" / "steps.jsonl").read_text().splitlines()]
        assert lines
        for line in lines:
            assert set(line["per_class"]) == {"RFD", "mortality"}
            assert -1.0 <= line["combined"] <= 1.0
        with open(tmp / "out" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["subject_id"] for r in rows} == {"s0", "s1", "s2", "s3"}
        # improving subjects (even ids) should outscore deteriorating ones
        for r in rows:
            avg = float(r["average"])
            assert avg > 0 if r["subject_id"] in ("s0", "s2") else avg < 0

    def test_matches_library_calls(self, corpus_setup):
        tmp, corpus, traj, config = corpus_setup
        runner.invoke(main, ["build-index", str(corpus),
                             "--out", str(tmp / "index.json")])
        runner.invoke(main, ["score", str(traj),
                             "--index", str(tmp / "index.json"),
                             "--config", str(config),
                             "--out", str(tmp / "out")])
        from trace_scores.analytics import aggregate
        from trace_scores.pipeline import build_trajectory, load_trajectory_csv
        from trace_scores.scoring import Polarity, score_trajectory
        from trace_scores.targets import knn_provider, load_corpus
        corpus_obj, _ = load_corpus(tmp / "index.json")
        by_subject, labels, _ = load_trajectory_csv(traj)
        provider = knn_provider(corpus_obj, 3,
                                {"RFD": Polarity.DESIRABLE,
                                 "mortality": Polarity.UNDESIRABLE})
        t0 = build_trajectory(by_subject["s0"], label=labels["s0"],
                              class_means=corpus_obj.class_means,
                              normalizer=corpus_obj.norm_stats)
        expected = aggregate(score_trajectory(t0, provider, 0.9))
        with open(tmp / "out" / "summary.csv") as fh:
            row = next(r for r in csv.DictReader(fh) if r["subject_id"] == "s0")
        assert float(row["average"]) == expected.average
        assert float(row["final_cumulative"]) == expected.cumulative[-1]

    def test_single_point_subject_isolated(self, corpus_setup):
        tmp, corpus, traj, config = corpus_setup
        with open(traj, "a") as fh:
            fh.write("lonely,0,0.5,0.5,RFD\n")
        runner.invoke(main, ["build-index", str(corpus),
                             "--out", str(tmp / "index.json")])
        res = runner.invoke(main, ["score", str(traj),
                                   "--index", str(tmp / "index.json"),
                                   "--config", str(config),
                                   "--out", str(tmp / "out")])
        assert res.exit_code == 0
        with open(tmp / "out" / "errors.csv") as fh:
            errs = list(csv.DictReader(fh))
        assert errs[0]["subject_id"] == "lonely"
        with open(tmp / "out" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4

    def test_dimension_mismatch(self, corpus_setup):
        tmp, corpus, _, config = corpus_setup
        runner.invoke(main, ["build-index", str(corpus),
                             "--out", str(tmp / "index.json")])
        bad = tmp / "bad_traj.csv"
        bad.write_text("subject_id,t,hr,rr,spo2\ns0,0,1,2,3\ns0,1,2,3,4\n")
        res = runner.invoke(main, ["score", str(bad),
                                   "--index", str(tmp / "index.json"),
                                   "--config", str(config),
                                   "--out", str(tmp / "out")])
        assert res.exit_code == 2
        assert (f"error: {bad}: trajectory features ['hr', 'rr', 'spo2'] do not match "
                "index features ['hr', 'rr']") in res.output

    def test_feature_order_mismatch(self, corpus_setup):
        # the same features in another order would score with them swapped
        tmp, corpus, traj, config = corpus_setup
        runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp / "index.json")])
        swapped = tmp / "swapped.csv"
        swapped.write_text("subject_id,t,rr,hr\ns0,0,0.5,0.4\ns0,1,0.6,0.5\n")
        res = runner.invoke(main, ["score", str(swapped), "--index", str(tmp / "index.json"),
                                   "--config", str(config), "--out", str(tmp / "out")])
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert res.stderr.splitlines()[-1] == (
            f"error: {swapped}: trajectory features ['rr', 'hr'] do not match "
            "index features ['hr', 'rr']")
        assert not (tmp / "out").exists()

    def test_no_subject_scored_still_reports_each_subject(self, corpus_setup):
        tmp, corpus, _, config = corpus_setup
        runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp / "index.json")])
        short = tmp / "short.csv"
        short.write_text("subject_id,t,hr,rr\na,0,0.5,0.5\nb,3,0.4,0.6\n")
        res = runner.invoke(main, ["score", str(short), "--index", str(tmp / "index.json"),
                                   "--config", str(config), "--out", str(tmp / "out")])
        assert res.exit_code == 1
        message = "trajectory needs at least 2 points, got 1"
        assert res.stderr.splitlines()[1:] == [
            f"subject a: {message}", f"subject b: {message}", "error: no subject could be scored"]
        with open(tmp / "out" / "errors.csv") as fh:
            assert list(csv.DictReader(fh)) == [{"subject_id": s, "error": message} for s in "ab"]
        assert not (tmp / "out" / "summary.csv").exists()

    def test_requires_exactly_one_source(self, corpus_setup):
        tmp, _, traj, _ = corpus_setup
        res = runner.invoke(main, ["score", str(traj), "--out", str(tmp / "o")])
        assert res.exit_code == 2


@pytest.fixture
def series_setup(tmp_path):
    """One subject moving in a fixed direction and five target series."""
    rng = np.random.default_rng(1)
    traj = tmp_path / "series_traj.csv"
    rows = ["subject_id,t,a,b"]
    x = np.array([0.0, 0.0])
    for t in range(6):
        rows.append(f"nor,{t},{float(x[0])!r},{float(x[1])!r}")
        x = x + np.array([0.1, 0.05]) + rng.normal(0, 0.002, 2)
    traj.write_text("\n".join(rows) + "\n")
    tdir = tmp_path / "targets"
    tdir.mkdir()
    for i in range(1, 6):
        lines = ["t,a,b"]
        for t in range(6):
            lines.append(f"{t},{(t + 1) * 0.1 * i!r},{(t + 1) * 0.05!r}")
        (tdir / f"SSP{i}.csv").write_text("\n".join(lines) + "\n")
    return tmp_path, traj, tdir


class TestScoreSeriesMode:
    def test_five_series(self, series_setup):
        tmp_path, traj, tdir = series_setup
        res = runner.invoke(main, ["score", str(traj), "--targets-dir",
                                   str(tdir), "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        with open(tmp_path / "out" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["series"] for r in rows} == {f"SSP{i}" for i in range(1, 6)}
        assert all(r["subject_id"] == "nor" for r in rows)
        ranking = json.loads((tmp_path / "out" / "ranking.json").read_text())
        assert sorted(ranking["nor"]) == [f"SSP{i}" for i in range(1, 6)]

    def test_single_point_subject_one_error_per_series(self, series_setup):
        tmp_path, traj, tdir = series_setup
        with open(traj, "a") as fh:
            fh.write("lonely,0,0.5,0.5\n")
        res = runner.invoke(main, ["score", str(traj), "--targets-dir",
                                   str(tdir), "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        with open(tmp_path / "out" / "errors.csv") as fh:
            errs = list(csv.DictReader(fh))
        assert [e["subject_id"] for e in errs] == ["lonely"] * 5
        assert [e["error"].split(":")[0] for e in errs] == [f"SSP{i}" for i in range(1, 6)]
        with open(tmp_path / "out" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["subject_id"] for r in rows] == ["nor"] * 5
        assert json.loads(res.output.splitlines()[-1]) == {"errors": 5, "subjects": 1}


    def test_feature_mismatch(self, series_setup):
        tmp_path, traj, tdir = series_setup
        (tdir / "SSP1.csv").write_text("t,b,a\n0,0.1,0.1\n")
        res = runner.invoke(main, ["score", str(traj), "--targets-dir",
                                   str(tdir), "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert res.stderr.splitlines()[-1] == (
            f"error: {tdir / 'SSP1.csv'}: series features ['b', 'a'] do not match "
            "trajectory features ['a', 'b']")


def test_step_with_every_target_dropped_is_skipped(tmp_path):
    # the weighted distance from a=0 to the target 2e-9 is 2e-11, within
    # epsilon, so the step to t=1 keeps no target
    traj, tdir, config = tmp_path / "traj.csv", tmp_path / "targets", tmp_path / "config.json"
    traj.write_text("subject_id,t,a\ns,0,0\ns,1,1\ns,2,3\nu,0,0\nu,1,1\n")
    tdir.mkdir()
    (tdir / "g.csv").write_text("t,a\n0,2e-9\n1,5\n")
    config.write_text('{"feature_weights": [0.01]}')
    res = runner.invoke(main, ["score", str(traj), "--targets-dir", str(tdir),
                               "--config", str(config), "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert "Traceback" not in res.output
    with open(tmp_path / "out" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["subject_id"], r["n_steps"], r["n_skipped"]) for r in rows] == [("s", "1", "1")]
    with open(tmp_path / "out" / "errors.csv") as fh:
        assert list(csv.DictReader(fh)) == [
            {"subject_id": "u", "error": "g: no scored steps to aggregate"}]
    lines = [_strict_json(line)
             for line in (tmp_path / "out" / "steps.jsonl").read_text().splitlines()]
    assert [(line["subject"], line["t"]) for line in lines] == [("s", 2)]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def _check_overflowing_subject(res, out, series):
    """``big`` has a value whose square overflows at t=1: it gets one error
    row per target set, its ``subject_id`` naming it and its message t=1, and
    one stderr line per row naming it once; the rest are scored, every output
    is finite and stderr carries no numpy warning."""
    assert res.exit_code == 0, res.output
    assert "RuntimeWarning" not in res.stderr
    with open(out / "errors.csv") as fh:
        errs = list(csv.DictReader(fh))
    assert [e["subject_id"] for e in errs] == ["big"] * len(series)
    for e, name in zip(errs, series):
        assert e["error"] == (f"{name}: " if name else "") + \
            "score at t=1 is not finite: a value's square overflows"
    named = [line for line in res.stderr.splitlines() if "big" in line]
    assert named == [f"subject big: {e['error']}" for e in errs]
    assert all(line.count("big") == 1 for line in named)
    lines = [_strict_json(line) for line in (out / "steps.jsonl").read_text().splitlines()]
    assert lines and "big" not in {line["subject"] for line in lines}
    summary = (out / "summary.csv").read_text()
    assert "big" not in summary and "nan" not in summary and "inf" not in summary


def test_overflowing_subject_corpus_mode(corpus_setup):
    tmp, corpus, traj, config = corpus_setup
    with open(traj, "a") as fh:
        fh.write("big,0,0.5,0.5,RFD\nbig,1,1e200,0.5,RFD\nbig,2,0.6,0.6,RFD\n")
    runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp / "index.json")])
    res = runner.invoke(main, ["score", str(traj), "--index", str(tmp / "index.json"),
                               "--config", str(config), "--out", str(tmp / "out")])
    _check_overflowing_subject(res, tmp / "out", [None])
    assert json.loads(res.stdout.splitlines()[-1]) == {"errors": 1, "subjects": 4}


def test_overflowing_subject_series_mode(series_setup):
    tmp, traj, tdir = series_setup
    with open(traj, "a") as fh:
        # no series target has a=0.45 at t=0, so the step to t=1 masks no feature
        fh.write("big,0,0.45,0.45\nbig,1,1e200,0.5\nbig,2,0.6,0.6\n")
    res = runner.invoke(main, ["score", str(traj), "--targets-dir", str(tdir),
                               "--out", str(tmp / "out")])
    _check_overflowing_subject(res, tmp / "out", [f"SSP{i}" for i in range(1, 6)])


def test_overflowing_normalized_value_isolates_its_subject(tmp_path):
    # hr spans [0, 1e-300] in the corpus, so big's 1e10 normalizes past the
    # largest float
    corpus, traj = tmp_path / "corpus.csv", tmp_path / "traj.csv"
    corpus.write_text("hr,rr,label\n0,0.1,A\n1e-300,0.2,A\n0,0.8,B\n1e-300,0.9,B\n")
    traj.write_text("subject_id,t,hr,rr,label\n"
                    "s0,0,0,0.3,A\ns0,1,5e-301,0.5,A\ns0,2,1e-300,0.7,A\n"
                    "big,0,0,0.3,A\nbig,1,1e10,0.5,A\nbig,2,0,0.7,A\n")
    config = tmp_path / "config.json"
    config.write_text('{"k_neighbors": 1, "polarity_map": {"A": "desirable", "B": "undesirable"}}')
    runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp_path / "index.json")])
    res = runner.invoke(main, ["score", str(traj), "--index", str(tmp_path / "index.json"),
                               "--config", str(config), "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert "Traceback" not in res.output and "RuntimeWarning" not in res.output
    with open(tmp_path / "out" / "errors.csv") as fh:
        assert list(csv.DictReader(fh)) == [
            {"subject_id": "big", "error": "value at t=1 is not finite"}]
    assert json.loads(res.stdout.splitlines()[-1]) == {"errors": 1, "subjects": 1}


def _bad_config(doc, expect=None):
    """Config rows: ``doc`` (JSON text) is the config; the error names the file."""
    def setup(corpus, traj, config, tdir):
        config.write_text(doc)
        return ["--config", str(config)], expect or str(config)
    return setup


def _bad_cell(which, lineno, col, new, expect=""):
    """CSV rows: one cell of ``which`` file is replaced; the error names the
    file and the line, followed by ``expect``."""
    def setup(corpus, traj, config, tdir):
        path = {"traj": traj, "series": tdir / "SSP1.csv", "corpus": corpus}[which]
        lines = path.read_text().splitlines()
        cells = lines[lineno - 1].split(",")
        cells[col] = new
        lines[lineno - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return ["--config", str(config)], f"{path}:{lineno}: {expect}"
    return setup


def _corpus_rows(*rows, expect):
    """Corpus rows: ``rows`` are appended to the corpus CSV; the error names
    the file, followed by ``expect``."""
    def setup(corpus, traj, config, tdir):
        with open(corpus, "a") as fh:
            fh.write("".join(row + "\n" for row in rows))
        return ["--config", str(config)], f"{corpus}: {expect}"
    return setup


def _bad_index(edit, expect=""):
    """Index rows: ``edit`` changes the built index's JSON document in place;
    the error names the index, followed by ``expect``."""
    def setup(corpus, traj, config, tdir):
        index = corpus.parent / "index.json"
        doc = json.loads(index.read_text())
        edit(doc)
        index.write_text(json.dumps(doc))
        return ["--config", str(config)], f"{index}: malformed index: {expect}"
    return setup


def _not_utf8(which, lineno):
    """Encoding rows: a 0xff byte ends line ``lineno`` of ``which`` file; the
    error names the file and, for a CSV, the line."""
    def setup(corpus, traj, config, tdir):
        path = {"config": config, "traj": traj, "series": tdir / "SSP1.csv",
                "corpus": corpus}[which]
        lines = path.read_bytes().splitlines()
        lines[lineno - 1] += b"\xff"
        path.write_bytes(b"\n".join(lines) + b"\n")
        if which == "config":
            return ["--config", str(config)], f"{config}: not valid JSON: 'utf-8' codec"
        return ["--config", str(config)], f"{path}:{lineno}: not UTF-8 text"
    return setup


def _header_only(corpus, traj, config, tdir):
    traj.write_text(traj.read_text().splitlines()[0] + "\n")
    return ["--config", str(config)], f"{traj}: no data rows"


def _flag(name, value):
    def setup(corpus, traj, config, tdir):
        return ["--config", str(config), f"--{name}", value], f"{name} must"
    return setup


_POLARITY = '"polarity_map": {"RFD": "desirable", "mortality": "undesirable"}'

MALFORMED_INPUTS = [
    # (id, command and target mode, setup)
    ("epsilon-nan-flag", "corpus", _flag("epsilon", "nan")),
    ("lambda-inf-flag", "corpus", _flag("lambda", "inf")),
    ("epsilon-nan-config", "corpus", _bad_config('{"epsilon": NaN, %s}' % _POLARITY)),
    ("weight-inf-config", "corpus",
     _bad_config('{"feature_weights": [1, Infinity], %s}' % _POLARITY)),
    ("weight-nan-config", "series", _bad_config('{"feature_weights": [1, NaN]}')),
    ("weight-count-config", "corpus",
     _bad_config('{"feature_weights": [1, 1, 1], %s}' % _POLARITY,
                 expect="feature_weights has 3 entries")),
    ("config-not-json", "corpus", _bad_config('{"lambda": 0.9,')),
    ("epsilon-not-number", "corpus", _bad_config('{"epsilon": "small"}')),
    ("config-not-object", "corpus", _bad_config('5')),
    ("polarity-map-list", "corpus", _bad_config('{"polarity_map": ["RFD", "mortality"]}')),
    ("k-float-config", "corpus", _bad_config('{"k_neighbors": 2.7, %s}' % _POLARITY)),
    ("k-bool-config", "corpus", _bad_config('{"k_neighbors": true, %s}' % _POLARITY)),
    ("lambda-bool-config", "corpus", _bad_config('{"lambda": true, %s}' % _POLARITY)),
    ("epsilon-bool-config", "corpus", _bad_config('{"epsilon": true, %s}' % _POLARITY)),
    ("weight-bool-config", "series", _bad_config('{"feature_weights": [1, true]}')),
    ("polarity-bool-config", "corpus",
     _bad_config('{"polarity_map": {"RFD": true, "mortality": "undesirable"}}')),
    ("polarity-unknown-class", "corpus",
     _bad_config('{"polarity_map": {"RFD": "desirable", "death": "undesirable"}}',
                 expect="polarity_map names class 'death'")),
    ("index-no-label", "corpus", _bad_index(lambda doc: doc["labels"].pop())),
    ("index-no-labels-key", "corpus", _bad_index(lambda doc: doc.pop("labels"))),
    ("index-ragged-point", "corpus",
     _bad_index(lambda doc: doc["points"][1].pop(),
                expect="corpus rows have inconsistent dimensions or non-numeric values")),
    ("index-text-point", "corpus",
     _bad_index(lambda doc: doc["points"][0].__setitem__(0, "abc"),
                expect="corpus rows have inconsistent dimensions or non-numeric values")),
    ("index-nonfinite-point", "corpus",
     _bad_index(lambda doc: doc["points"][0].__setitem__(0, float("nan")),
                expect="corpus contains non-finite values")),
    ("index-old-layout-point", "corpus",
     _bad_index(lambda doc: doc["points"].__setitem__(
         0, {"values": doc["points"][0], "label": doc["labels"][0]}),
         expect='points hold {"values", "label"} rows of the earliest index layout; '
                "rebuild the index with `trace build-index`")),
    ("index-earliest-layout", "corpus",
     _bad_index(lambda doc: doc.__setitem__("points", [
         {"values": p, "label": label} for p, label in zip(doc["points"], doc["labels"])]),
         expect='points hold {"values", "label"} rows of the earliest index layout; '
                "rebuild the index with `trace build-index`")),
    ("index-normalizer-range-overflow", "corpus",
     _bad_index(lambda doc: (doc["points"][0].__setitem__(0, -1e308),
                             doc["points"][1].__setitem__(0, 1e308)),
                expect="feature 'hr' spans a non-finite range")),
    ("index-features-wider-than-points", "corpus",
     _bad_index(lambda doc: doc["features"].append("xx"))),
    ("traj-cell-abc", "corpus", _bad_cell("traj", 3, 2, "abc")),
    ("traj-cell-nan", "corpus", _bad_cell("traj", 3, 2, "nan")),
    ("traj-cell-inf", "series", _bad_cell("traj", 4, 3, "-inf")),
    ("traj-t-float", "corpus", _bad_cell("traj", 2, 1, "0.5")),
    ("traj-conflicting-label", "corpus", _bad_cell(
        "traj", 3, 4, "mortality", "subject 's0' has label 'mortality', earlier rows say 'RFD'")),
    ("traj-header-only", "corpus", _header_only),
    ("config-not-utf8", "corpus", _not_utf8("config", 1)),
    ("traj-not-utf8", "corpus", _not_utf8("traj", 3)),
    ("series-not-utf8", "series", _not_utf8("series", 2)),
    ("corpus-not-utf8", "build-index", _not_utf8("corpus", 4)),
    ("series-cell-abc", "series", _bad_cell("series", 3, 1, "abc")),
    ("series-cell-inf", "series", _bad_cell("series", 2, 2, "inf")),
    ("series-t-text", "series", _bad_cell("series", 4, 0, "three")),
    ("series-duplicate-t", "series", _bad_cell("series", 3, 0, "0")),
    ("series-polarity-unknown", "series",
     _bad_config('{"polarity_map": {"gaol": "undesirable"}}',
                 expect="polarity_map names series 'gaol'")),
    ("corpus-cell-nan", "build-index", _bad_cell("corpus", 2, 0, "nan")),
    ("corpus-cell-abc", "build-index", _bad_cell("corpus", 5, 1, "abc")),
    ("corpus-range-overflow", "build-index",
     _corpus_rows("-1e308,0.5,RFD", "1e308,0.5,RFD", expect="feature 'hr' spans a non-finite range")),
]


@pytest.mark.parametrize("mode,setup", [row[1:] for row in MALFORMED_INPUTS],
                         ids=[row[0] for row in MALFORMED_INPUTS])
def test_malformed_input_exits_2(corpus_setup, series_setup, mode, setup):
    tmp, corpus, traj, config = corpus_setup
    _, series_traj, tdir = series_setup
    if mode == "series":
        traj = series_traj
    res = runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp / "index.json")])
    assert res.exit_code == 0, res.output
    flags, expected = setup(corpus, traj, config, tdir)
    if mode == "build-index":
        args = ["build-index", str(corpus), "--out", str(tmp / "index2.json")]
    else:
        source = (["--index", str(tmp / "index.json")] if mode == "corpus"
                  else ["--targets-dir", str(tdir)])
        args = ["score", str(traj), *source, *flags, "--out", str(tmp / "out")]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert expected in res.output


def test_polarity_averages_leave_out_classes_a_step_does_not_score():
    from trace_scores.cli import _polarity_averages
    from trace_scores.scoring import Polarity, SkipReason
    nan = np.nan
    per_class = [[0.5, -0.25, 0.125], [nan, 0.75, nan], [nan, nan, nan]]
    skip = [0, 0, SkipReason.NO_FEATURE_CHANGE]
    polarity = [Polarity.DESIRABLE, Polarity.UNDESIRABLE, Polarity.DESIRABLE]
    ts = hand_scored([0.1, -0.75, nan], skip, "abc", per_class, polarity)
    assert _polarity_averages(ts) == {
        "average_desirable": (0.5 + 0.125) / 2, "average_undesirable": (-0.25 + 0.75) / 2}
    # no scored step scores a desirable class
    ts = hand_scored([-0.75, nan], skip[1:], "abc", per_class[1:], polarity)
    assert _polarity_averages(ts) == {"average_desirable": None, "average_undesirable": 0.75}


def test_older_index_layout_scores_from_its_points(corpus_setup):
    """An index in the earlier layout, whose stored normalizer and class
    means disagree with its points, scores as the freshly built one does."""
    tmp, corpus, traj, config = corpus_setup
    with open(traj, "a") as fh:   # rr has no value, so it takes the class mean
        fh.write("gap,0,0.5,,RFD\ngap,1,0.55,,RFD\n")
    runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp / "index.json")])
    doc = json.loads((tmp / "index.json").read_text())
    doc["normalizer"] = {"features": [{"name": name, "min": -1.0, "max": 5.0}
                                      for name in doc["features"]]}
    doc["class_means"] = {"RFD": [9.0, 9.0], "mortality": [-9.0, -9.0]}
    (tmp / "old.json").write_text(json.dumps(doc))
    outputs = []
    for index in ("index.json", "old.json"):
        out = tmp / f"out_{index}"
        res = runner.invoke(main, ["score", str(traj), "--index", str(tmp / index),
                                   "--config", str(config), "--out", str(out)])
        assert res.exit_code == 0, res.output
        outputs.append([(out / name).read_bytes()
                        for name in ("steps.jsonl", "scores_wide.csv", "summary.csv")])
    assert outputs[0] == outputs[1]
    assert b"gap" in outputs[0][2]


def test_a_run_removes_the_outputs_of_an_earlier_run(series_setup):
    tmp_path, traj, tdir = series_setup
    out = tmp_path / "out"
    bad, lonely = tmp_path / "bad.csv", tmp_path / "lonely.csv"
    bad.write_text(traj.read_text() + "u,0,0.5,0.5\n")
    lonely.write_text("subject_id,t,a,b\nu,0,0.5,0.5\n")

    def score(path):
        return runner.invoke(main, ["score", str(path), "--targets-dir", str(tdir),
                                    "--out", str(out)])
    assert score(bad).exit_code == 0 and (out / "errors.csv").exists()
    res = score(traj)
    assert json.loads(res.stdout.splitlines()[-1]) == {"errors": 0, "subjects": 1}
    assert not (out / "errors.csv").exists()
    # a run that scores no subject leaves only its errors.csv, and other files
    (out / "notes.txt").write_text("kept\n")
    assert score(lonely).exit_code == 1
    assert sorted(p.name for p in out.iterdir()) == ["errors.csv", "notes.txt"]


def test_corpus_run_after_a_series_run_leaves_no_ranking(corpus_setup, series_setup):
    tmp, corpus, traj, config = corpus_setup
    _, series_traj, tdir = series_setup
    out = tmp / "out"
    res = runner.invoke(main, ["score", str(series_traj), "--targets-dir", str(tdir),
                               "--out", str(out)])
    assert res.exit_code == 0 and (out / "ranking.json").exists()
    runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp / "index.json")])
    res = runner.invoke(main, ["score", str(traj), "--index", str(tmp / "index.json"),
                               "--config", str(config), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert not (out / "ranking.json").exists()


PINNED_CORPUS_RUN = {
    "steps.jsonl": (
        b'{"combined": 0.8149269662117372, "per_class": {"bad": -0.7454332604310151, "good": 0.8844206719924593}, "subject": "a,\\"b", "t": 1}\n'
        b'{"combined": 0.8382477031839116, "per_class": {"bad": -0.7650939242114043, "good": 0.9114014821564189}, "subject": "a,\\"b", "t": 3}\n'
        b'{"combined": -0.8679444410384534, "per_class": {"bad": 0.9492681638977292, "good": -0.7866207181791776}, "subject": "s1", "t": 2}\n'
        b'{"combined": -0.6402452983987976, "per_class": {"bad": 0.8121875749816714, "good": -0.46830302181592387}, "subject": "s1", "t": 5}\n'
    ),
    "scores_wide.csv": (
        b'subject,t1,t2,t3,t5\r\n'
        b'"a,""b",0.8149269662117372,,0.8382477031839116,\r\n'
        b's1,,-0.8679444410384534,,-0.6402452983987976\r\n'
    ),
    "summary.csv": (
        b'subject_id,label,n_steps,n_skipped,average,final_cumulative,average_desirable,average_undesirable\r\n'
        b'"a,""b",good,2,1,0.8265873346978244,1.6531746693956488,0.8979110770744392,-0.7552635923212097\r\n'
        b's1,bad,2,0,-0.7540948697186255,-1.508189739437251,-0.6274618699975507,0.8807278694397003\r\n'
    ),
    "errors.csv": (
        b'subject_id,error\r\n'
        b'lonely,"trajectory needs at least 2 points, got 1"\r\n'
    ),
}

PINNED_SERIES_RUN = {
    # steps and summary rows follow the files' path order (a-b.csv before
    # a.csv), the wide rows their sorted (subject, series) keys
    "steps.jsonl": (
        b'{"combined": -1.0, "per_class": {"a-b": 1.0}, "series": "a-b", "subject": "m", "t": 2}\n'
        b'{"combined": 0.9999999999999998, "per_class": {"a": 0.9999999999999998}, "series": "a", "subject": "m", "t": 2}\n'
        b'{"combined": -1.0, "per_class": {"a-b": 1.0}, "series": "a-b", "subject": "n", "t": 1}\n'
        b'{"combined": -0.9126517521019146, "per_class": {"a-b": 0.9126517521019146}, "series": "a-b", "subject": "n", "t": 2}\n'
        b'{"combined": 1.0, "per_class": {"a": 1.0}, "series": "a", "subject": "n", "t": 1}\n'
        b'{"combined": 0.8646238573457977, "per_class": {"a": 0.8646238573457977}, "series": "a", "subject": "n", "t": 2}\n'
    ),
    "scores_wide.csv": (
        b'subject,series,t1,t2\r\n'
        b'm,a,,0.9999999999999998\r\n'
        b'm,a-b,,-1.0\r\n'
        b'n,a,1.0,0.8646238573457977\r\n'
        b'n,a-b,-1.0,-0.9126517521019146\r\n'
    ),
    "summary.csv": (
        b'subject_id,series,n_steps,n_skipped,average,final_cumulative\r\n'
        b'm,a-b,1,0,-1.0,-1.0\r\n'
        b'm,a,1,0,0.9999999999999998,0.9999999999999998\r\n'
        b'n,a-b,2,0,-0.9563258760509573,-1.9126517521019146\r\n'
        b'n,a,2,0,0.9323119286728989,1.8646238573457978\r\n'
    ),
}


def test_outputs_are_pinned_byte_for_byte(tmp_path):
    # corpus mode: subjects observed at different t (blank wide cells), a
    # subject id that JSON and CSV must escape, a step without movement
    # (skipped), an imputed cell and a subject that goes to errors.csv
    (tmp_path / "corpus.csv").write_text(
        "hr,rr,label\n0.9,0.8,good\n0.8,0.9,good\n0.1,0.2,bad\n0.2,0.1,bad\n")
    (tmp_path / "traj.csv").write_text(
        'subject_id,t,hr,rr,label\n"a,""b",0,0.5,0.5,good\n"a,""b",1,0.6,0.55,good\n'
        '"a,""b",2,0.6,0.55,good\n"a,""b",3,0.7,0.7,good\ns1,0,0.5,0.4,bad\n'
        "s1,2,0.4,0.3,bad\ns1,5,0.3,,bad\nlonely,0,0.5,0.5,good\n")
    (tmp_path / "config.json").write_text(
        '{"k_neighbors": 2, "polarity_map": {"good": "desirable", "bad": "undesirable"}}')
    res = runner.invoke(main, ["build-index", str(tmp_path / "corpus.csv"),
                               "--out", str(tmp_path / "index.json")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["score", str(tmp_path / "traj.csv"),
                               "--index", str(tmp_path / "index.json"),
                               "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "a")])
    assert res.exit_code == 0, res.output
    for name, want in PINNED_CORPUS_RUN.items():
        assert (tmp_path / "a" / name).read_bytes() == want, name

    # series mode: files a.csv and a-b.csv, one series undesirable
    tdir = tmp_path / "targets"
    tdir.mkdir()
    (tdir / "a.csv").write_text("t,a,b\n0,1,0\n1,1,0.5\n2,1,1\n")
    (tdir / "a-b.csv").write_text("t,a,b\n0,0,1\n1,0.5,1\n2,1,1\n")
    (tmp_path / "series.csv").write_text(
        "subject_id,t,a,b\nn,0,0,0\nn,1,0.25,0.125\nn,2,0.5,0.5\nm,1,0.5,0\nm,2,0.75,0.25\n")
    (tmp_path / "series.json").write_text('{"polarity_map": {"a-b": "undesirable"}}')
    res = runner.invoke(main, ["score", str(tmp_path / "series.csv"), "--targets-dir", str(tdir),
                               "--config", str(tmp_path / "series.json"),
                               "--out", str(tmp_path / "b")])
    assert res.exit_code == 0, res.output
    for name, want in PINNED_SERIES_RUN.items():
        assert (tmp_path / "b" / name).read_bytes() == want, name


def _assert_one_error_line(res, path):
    """Exit 1 with no uncaught exception, and one ``error:`` line, the last,
    naming ``path``."""
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    last = res.stderr.splitlines()[-1]
    assert last.startswith("error: ") and str(path) in last
    assert res.stderr.count("error:") == 1


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_index_path_is_one_error_line(corpus_setup, where):
    tmp, corpus, _, _ = corpus_setup
    out = tmp / "nodir" / "index.json" if where == "missing-directory" else tmp
    res = runner.invoke(main, ["build-index", str(corpus), "--out", str(out)])
    _assert_one_error_line(res, out)


def test_score_into_a_file_is_one_error_line(series_setup):
    tmp_path, traj, tdir = series_setup
    taken = tmp_path / "taken"
    taken.write_text("")
    res = runner.invoke(main, ["score", str(traj), "--targets-dir", str(tdir),
                               "--out", str(taken)])
    _assert_one_error_line(res, taken)


@pytest.mark.parametrize("option", ["--config", "--index"])
def test_directory_for_a_file_option_is_a_usage_error(corpus_setup, option):
    tmp, _, traj, _ = corpus_setup
    res = runner.invoke(main, ["score", str(traj), option, str(tmp), "--out", str(tmp / "out")])
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output


class TestCompare:
    def make_summary(self, path, averages):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subject_id", "average"])
            for i, a in enumerate(averages):
                w.writerow([f"s{i}", repr(float(a))])

    def test_identical_files(self, tmp_path):
        a = tmp_path / "a.csv"
        self.make_summary(a, [0.1, 0.2, 0.3])
        res = runner.invoke(main, ["compare", str(a), str(a)])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["p"] == 1.0
        assert doc["t"] == 0.0

    def test_separated_cohorts(self, tmp_path):
        rng = np.random.default_rng(2)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.make_summary(a, rng.normal(0.5, 0.05, 100))
        self.make_summary(b, rng.normal(-0.5, 0.05, 100))
        res = runner.invoke(main, ["compare", str(a), str(b)])
        doc = json.loads(res.output)
        assert doc["p"] < 1e-5
        assert doc["mean_a"] > 0 > doc["mean_b"]

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1\n")
        ok = tmp_path / "ok.csv"
        self.make_summary(ok, [0.1, 0.2])
        res = runner.invoke(main, ["compare", str(bad), str(ok)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_average(self, tmp_path, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"subject_id,average\ns0,0.1\ns1,{cell}\ns2,0.3\n")
        ok = tmp_path / "ok.csv"
        self.make_summary(ok, [0.1, 0.2])
        res = runner.invoke(main, ["compare", str(ok), str(bad)])
        assert res.exit_code == 2, res.output
        assert f"{bad}:3: non-finite value '{cell}'" in res.output

    def test_undersized(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.make_summary(a, [0.1])
        self.make_summary(b, [0.1, 0.2])
        res = runner.invoke(main, ["compare", str(a), str(b)])
        assert res.exit_code == 1


class TestConfig:
    def test_unknown_key_rejected(self, corpus_setup):
        tmp, corpus, traj, _ = corpus_setup
        bad = tmp / "bad_config.json"
        bad.write_text(json.dumps({"lambda": 0.9, "bogus": 1}))
        runner.invoke(main, ["build-index", str(corpus),
                             "--out", str(tmp / "index.json")])
        res = runner.invoke(main, ["score", str(traj),
                                   "--index", str(tmp / "index.json"),
                                   "--config", str(bad),
                                   "--out", str(tmp / "out")])
        assert res.exit_code == 2
        assert "bogus" in res.output

    def test_flag_overrides_config(self, corpus_setup):
        tmp, corpus, traj, config = corpus_setup
        runner.invoke(main, ["build-index", str(corpus),
                             "--out", str(tmp / "index.json")])
        res = runner.invoke(main, ["score", str(traj),
                                   "--index", str(tmp / "index.json"),
                                   "--config", str(config),
                                   "--lambda", "0.5",
                                   "--out", str(tmp / "out")])
        assert res.exit_code == 0
        assert "lambda=0.5" in res.output

    def test_lambda_out_of_range(self, corpus_setup):
        tmp, _, traj, _ = corpus_setup
        res = runner.invoke(main, ["score", str(traj),
                                   "--index", str(traj),
                                   "--lambda", "1.5",
                                   "--out", str(tmp / "out")])
        assert res.exit_code == 2


class TestDemo:
    def test_toy_signs(self, tmp_path):
        res = runner.invoke(main, ["demo", "--scenario", "toy", "--seed", "3",
                                   "--out", str(tmp_path / "toy")])
        assert res.exit_code == 0, res.output
        lines = [json.loads(l) for l in
                 (tmp_path / "toy" / "steps.jsonl").read_text().splitlines()]
        by_t = {l["t"]: l["combined"] for l in lines}
        assert by_t[1] < 0  # step toward the undesired cluster
        assert by_t[2] > 0  # step toward the desired cluster

    def test_toy_deterministic(self, tmp_path):
        for d in ("r1", "r2"):
            runner.invoke(main, ["demo", "--scenario", "toy", "--seed", "5",
                                 "--out", str(tmp_path / d)])
        a = (tmp_path / "r1" / "steps.jsonl").read_bytes()
        b = (tmp_path / "r2" / "steps.jsonl").read_bytes()
        assert a == b

    def test_unknown_scenario(self, tmp_path):
        res = runner.invoke(main, ["demo", "--scenario", "nope", "--seed", "1",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    @staticmethod
    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    @pytest.mark.parametrize("scenario,seed", [("ssp", "11"), ("toy", "3")])
    def test_demo_over_an_earlier_demo_leaves_none_of_its_files(self, tmp_path, scenario, seed):
        def run(out, scenario, seed):
            res = runner.invoke(main, ["demo", "--scenario", scenario, "--seed", seed,
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
        run(tmp_path / "fresh", scenario, seed)
        run(tmp_path / "over", "icu", "7")
        (tmp_path / "over" / "notes.txt").write_text("kept\n")
        run(tmp_path / "over", scenario, seed)
        assert self.tree(tmp_path / "over") == {**self.tree(tmp_path / "fresh"),
                                                "notes.txt": b"kept\n"}

    def test_ssp_ranking(self, tmp_path):
        res = runner.invoke(main, ["demo", "--scenario", "ssp", "--seed", "11",
                                   "--out", str(tmp_path / "ssp")])
        assert res.exit_code == 0, res.output
        ranking = json.loads((tmp_path / "ssp" / "ranking.json").read_text())
        assert ranking["NOR"] == ["SSP5", "SSP1", "SSP4", "SSP2", "SSP3"]
