import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from trace_scores.cli import main

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
        expected = aggregate(score_trajectory(t0, provider, 0.9), "s0")
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
        assert res.exit_code == 1
        assert "3" in res.output and "2" in res.output

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


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def _check_overflowing_subject(res, out, series):
    """``big`` has a value whose square overflows at t=1: it gets one error
    row per target set naming it and t=1, the rest are scored, every output
    is finite and stderr carries no numpy warning."""
    assert res.exit_code == 0, res.output
    assert "RuntimeWarning" not in res.stderr
    with open(out / "errors.csv") as fh:
        errs = list(csv.DictReader(fh))
    assert [e["subject_id"] for e in errs] == ["big"] * len(series)
    for e, name in zip(errs, series):
        assert e["error"].startswith(f"{name}: " if name else "subject 'big': ")
        assert "subject 'big': score at t=1 is not finite" in e["error"]
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


def _bad_index(edit):
    """Index rows: ``edit`` changes the built index's JSON document in place;
    the error names the index."""
    def setup(corpus, traj, config, tdir):
        index = corpus.parent / "index.json"
        doc = json.loads(index.read_text())
        edit(doc)
        index.write_text(json.dumps(doc))
        return ["--config", str(config)], f"{index}: malformed index:"
    return setup


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
    ("index-ragged-point", "corpus", _bad_index(lambda doc: doc["points"][1].pop())),
    ("index-nonfinite-point", "corpus",
     _bad_index(lambda doc: doc["points"][0].__setitem__(0, float("nan")))),
    ("index-old-layout-point", "corpus",
     _bad_index(lambda doc: doc["points"].__setitem__(
         0, {"values": doc["points"][0], "label": doc["labels"][0]}))),
    ("index-normalizer-dim", "corpus",
     _bad_index(lambda doc: doc["normalizer"]["features"].pop())),
    ("index-nan-class-mean", "corpus",
     _bad_index(lambda doc: doc["class_means"]["RFD"].__setitem__(0, float("nan")))),
    ("index-nan-normalizer-max", "corpus",
     _bad_index(lambda doc: doc["normalizer"]["features"][0].__setitem__("max", float("nan")))),
    ("index-inf-normalizer-min", "corpus",
     _bad_index(lambda doc: doc["normalizer"]["features"][1].__setitem__("min", float("inf")))),
    ("index-short-class-mean", "corpus", _bad_index(lambda doc: doc["class_means"]["RFD"].pop())),
    ("traj-cell-abc", "corpus", _bad_cell("traj", 3, 2, "abc")),
    ("traj-cell-nan", "corpus", _bad_cell("traj", 3, 2, "nan")),
    ("traj-cell-inf", "series", _bad_cell("traj", 4, 3, "-inf")),
    ("traj-t-float", "corpus", _bad_cell("traj", 2, 1, "0.5")),
    ("traj-conflicting-label", "corpus", _bad_cell(
        "traj", 3, 4, "mortality", "subject 's0' has label 'mortality', earlier rows say 'RFD'")),
    ("series-cell-abc", "series", _bad_cell("series", 3, 1, "abc")),
    ("series-cell-inf", "series", _bad_cell("series", 2, 2, "inf")),
    ("series-t-text", "series", _bad_cell("series", 4, 0, "three")),
    ("series-duplicate-t", "series", _bad_cell("series", 3, 0, "0")),
    ("corpus-cell-nan", "build-index", _bad_cell("corpus", 2, 0, "nan")),
    ("corpus-cell-abc", "build-index", _bad_cell("corpus", 5, 1, "abc")),
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
    from trace_scores.scoring import Polarity, StepScore, TrajectoryScore
    steps = [StepScore(t_index=1, per_class={"a": 0.5, "b": -0.25, "c": 0.125}),
             StepScore(t_index=2, per_class={"b": 0.75}),
             StepScore(t_index=3, skipped=True)]
    pmap = {"a": Polarity.DESIRABLE, "b": Polarity.UNDESIRABLE, "c": Polarity.DESIRABLE}
    assert _polarity_averages(TrajectoryScore(steps, 1), pmap) == {
        "average_desirable": (0.5 + 0.125) / 2, "average_undesirable": (-0.25 + 0.75) / 2}
    pmap = {"a": Polarity.DESIRABLE}
    assert _polarity_averages(TrajectoryScore(steps[1:], 1), pmap) == {
        "average_desirable": None, "average_undesirable": None}


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

    def test_ssp_ranking(self, tmp_path):
        res = runner.invoke(main, ["demo", "--scenario", "ssp", "--seed", "11",
                                   "--out", str(tmp_path / "ssp")])
        assert res.exit_code == 0, res.output
        ranking = json.loads((tmp_path / "ssp" / "ranking.json").read_text())
        assert ranking["NOR"] == ["SSP5", "SSP1", "SSP4", "SSP2", "SSP3"]
