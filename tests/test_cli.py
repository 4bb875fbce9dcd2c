import base64
import csv
import functools
import hashlib
import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_scores.cli import main
from oracles import hand_scored, make_targets, read_index, trajectory_cases, write_index

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
        expected = aggregate(score_trajectory(t0, provider(t0.t[:-1], t0.x[:-1]), 0.9))
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

    def test_imputation_error_names_the_feature(self, corpus_setup):
        # rr has no value and the class 'gone' is not in the index
        tmp, corpus, traj, config = corpus_setup
        with open(traj, "a") as fh:
            fh.write("z9,0,0.5,,gone\nz9,1,0.4,,gone\n")
        runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp / "index.json")])
        res = runner.invoke(main, ["score", str(traj), "--index", str(tmp / "index.json"),
                                   "--config", str(config), "--out", str(tmp / "out")])
        assert res.exit_code == 0, res.output
        message = "feature 'rr' has no value and no class mean is available"
        with open(tmp / "out" / "errors.csv") as fh:
            assert list(csv.DictReader(fh)) == [{"subject_id": "z9", "error": message}]

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


    def test_imputation_error_names_the_feature(self, series_setup):
        tmp_path, traj, tdir = series_setup
        with open(traj, "a") as fh:
            fh.write("z9,0,,0.5\nz9,1,,0.45\n")
        res = runner.invoke(main, ["score", str(traj), "--targets-dir",
                                   str(tdir), "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        with open(tmp_path / "out" / "errors.csv") as fh:
            assert list(csv.DictReader(fh)) == [
                {"subject_id": "z9",
                 "error": f"SSP{i}: feature 'a' has no value and no class mean is available"}
                for i in range(1, 6)]

    def test_feature_mismatch(self, series_setup):
        tmp_path, traj, tdir = series_setup
        (tdir / "SSP1.csv").write_text("t,b,a\n0,0.1,0.1\n")
        res = runner.invoke(main, ["score", str(traj), "--targets-dir",
                                   str(tdir), "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert res.stderr.splitlines()[-1] == (
            f"error: {tdir / 'SSP1.csv'}: series features ['b', 'a'] do not match "
            "trajectory features ['a', 'b']")


@pytest.mark.parametrize("mode", ["corpus", "series"])
def test_a_subject_with_no_scored_step_gets_an_error_row(corpus_setup, series_setup, mode):
    """In corpus mode, "still" never moves, so each of its steps is skipped. In
    series mode, "mirror" follows SSP1, which masks every feature of each of its
    steps against SSP1 alone; it is still scored against the other series."""
    if mode == "corpus":
        tmp, corpus, traj, config = corpus_setup
        with open(traj, "a") as fh:
            fh.write("".join(f"still,{t},0.5,0.5,RFD\n" for t in range(3)))
        runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp / "index.json")])
        source = ["--index", str(tmp / "index.json"), "--config", str(config)]
        subject, message, scored = "still", "no scored steps to aggregate", ["s0", "s1", "s2", "s3"]
    else:
        tmp, traj, tdir = series_setup
        with open(traj, "a") as fh:
            fh.write("".join(f"mirror,{t},{(t + 1) * 0.1!r},{(t + 1) * 0.05!r}\n"
                             for t in range(6)))
        source = ["--targets-dir", str(tdir)]
        subject, message = "mirror", "SSP1: no scored steps to aggregate"
        scored = [("mirror", f"SSP{i}") for i in range(2, 6)] + [("nor", f"SSP{i}")
                                                                  for i in range(1, 6)]
    res = runner.invoke(main, ["score", str(traj), *source, "--out", str(tmp / "out")])
    assert res.exit_code == 0, res.output
    with open(tmp / "out" / "errors.csv") as fh:
        assert list(csv.DictReader(fh)) == [{"subject_id": subject, "error": message}]
    assert f"subject {subject}: {message}" in res.stderr.splitlines()
    with open(tmp / "out" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["subject_id"] if mode == "corpus" else (r["subject_id"], r["series"])
            for r in rows] == scored
    subjects = 4 if mode == "corpus" else 2
    assert json.loads(res.stdout.splitlines()[-1]) == {"errors": 1, "subjects": subjects}


def test_series_missing_a_subjects_t_isolates_that_subject(series_setup, monkeypatch):
    # short lacks t=2, which nor steps from; gap is not observed at t=2
    from trace_scores import cli
    tmp_path, traj, tdir = series_setup
    (tdir / "short.csv").write_text("t,a,b\n0,0.1,0.05\n1,0.2,0.1\n3,0.4,0.2\n4,0.5,0.25\n")
    with open(traj, "a") as fh:
        fh.write("gap,0,0.5,0.5\ngap,1,0.4,0.45\ngap,3,0.3,0.4\ngap,5,0.2,0.3\n")
    factory, calls = cli.series_provider, []

    def spy_factory(label, *args):
        provide = factory(label, *args)

        def spy(t, x):
            calls.append(label)
            return provide(t, x)
        return spy
    monkeypatch.setattr(cli, "series_provider", spy_factory)
    res = runner.invoke(main, ["score", str(traj), "--targets-dir", str(tdir),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    # one call per target set, the one that lacks nor's t included
    assert sorted(calls) == [*(f"SSP{i}" for i in range(1, 6)), "short"]
    message = "short: class 'short' has no target at t=2"
    with open(tmp_path / "out" / "errors.csv") as fh:
        assert list(csv.DictReader(fh)) == [{"subject_id": "nor", "error": message}]
    assert [line for line in res.stderr.splitlines() if line.startswith("subject ")] == [
        f"subject nor: {message}"]
    with open(tmp_path / "out" / "summary.csv") as fh:
        keys = [(r["subject_id"], r["series"]) for r in csv.DictReader(fh)]
    series = [f"SSP{i}" for i in range(1, 6)]
    assert keys == [("gap", s) for s in [*series, "short"]] + [("nor", s) for s in series]
    assert json.loads(res.stdout.splitlines()[-1]) == {"errors": 1, "subjects": 2}


@pytest.mark.parametrize("mode", ["corpus", "series"])
def test_each_target_set_is_queried_once_for_the_cohort(corpus_setup, series_setup,
                                                        monkeypatch, mode):
    # the provider gets the earlier points of every subject, stacked in
    # sorted-subject order; a0 comes last in the file and first in the order
    from trace_scores import cli
    from trace_scores.pipeline import build_trajectory, load_trajectory_csv
    from trace_scores.targets import load_corpus
    tmp, corpus, traj, config = corpus_setup
    _, series_traj, tdir = series_setup
    factory_name = "knn_provider" if mode == "corpus" else "series_provider"
    factory, calls = getattr(cli, factory_name), []

    def spy_factory(*args):
        provide = factory(*args)

        def spy(t, x):
            calls.append((t.copy(), x.copy()))
            return provide(t, x)
        return spy
    monkeypatch.setattr(cli, factory_name, spy_factory)
    if mode == "corpus":
        with open(traj, "a") as fh:
            fh.write("a0,0,0.5,0.5,RFD\na0,1,0.6,0.55,RFD\na0,2,0.7,0.6,RFD\n")
        runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp / "index.json")])
        args = ["--index", str(tmp / "index.json"), "--config", str(config)]
        corpus_obj, _ = load_corpus(tmp / "index.json")
        build_kwargs = {"class_means": corpus_obj.class_means, "normalizer": corpus_obj.norm_stats}
    else:
        traj = series_traj
        with open(traj, "a") as fh:
            fh.write("a0,0,0.5,0.5\na0,1,0.6,0.55\na0,2,0.7,0.6\n")
        args, build_kwargs = ["--targets-dir", str(tdir)], {}
    res = runner.invoke(main, ["score", str(traj), *args, "--out", str(tmp / "out")])
    assert res.exit_code == 0, res.output
    by_subject, labels, _ = load_trajectory_csv(traj)
    assert sorted(by_subject)[0] == "a0" and list(by_subject)[-1] == "a0"
    trajs = [build_trajectory(by_subject[s], label=labels.get(s), **build_kwargs)
             for s in sorted(by_subject)]
    assert len(calls) == (1 if mode == "corpus" else 5)
    for t, x in calls:
        assert t.tolist() == [v for tr in trajs for v in tr.t[:-1].tolist()]
        assert x.tobytes() == np.concatenate([tr.x[:-1] for tr in trajs]).tobytes()


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
    """Index rows: ``edit(header, points, codes)`` changes the built index's
    parts in place, or returns new ones, which may hold bytes in place of
    an array; they are written back in the index layout. The error names
    the index, followed by ``expect``."""
    def setup(corpus, traj, config, tdir):
        index = corpus.parent / "index.json"
        parts = read_index(index)
        write_index(index, *(edit(*parts) or parts))
        return ["--config", str(config)], f"{index}: malformed index: {expect}"
    return setup


def _earlier_layout(make_doc, key):
    """Earlier-layout rows: the index file is replaced by the one JSON line
    that ``make_doc(header, points, codes)`` gives, as versions before the
    binary body wrote the built index. The error names the index, the
    earlier layout's ``key`` and the rebuild."""
    def setup(corpus, traj, config, tdir):
        index = corpus.parent / "index.json"
        index.write_text(json.dumps(make_doc(*read_index(index)), sort_keys=True) + "\n")
        return ["--config", str(config)], (
            f"{index}: malformed index: key {key!r} is of an earlier index layout; "
            "rebuild the index with `trace build-index`")
    return setup


def _base64(array):
    """An array's bytes as base64 text, as earlier layouts stored them."""
    return base64.b64encode(bytes(array)).decode("ascii")


def _labels(header, codes):
    """Each row's class name."""
    return [header["classes"][c] for c in codes.tolist()]


def _body_size(size, rows=16, features=2):
    """The message for a body of ``size`` bytes under a header of ``rows``
    and ``features``."""
    return f"the body holds {size} bytes, not {rows} rows x (8 x {features} features + 4)"


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


def _nested(which):
    """Nesting rows: ``which`` JSON file holds arrays nested deeper than the
    parser's recursion limit; the error names the file."""
    def setup(corpus, traj, config, tdir):
        path = {"config": config, "index": corpus.parent / "index.json"}[which]
        path.write_text("[" * 200000 + "]" * 200000)
        kind = "not valid JSON" if which == "config" else "malformed index"
        return ["--config", str(config)], f"{path}: {kind}: maximum recursion depth exceeded"
    return setup


def _header_only(which):
    """Header-only rows: ``which`` file keeps only its header line."""
    def setup(corpus, traj, config, tdir):
        path = {"traj": traj, "series": tdir / "SSP1.csv"}[which]
        path.write_text(path.read_text().splitlines()[0] + "\n")
        return ["--config", str(config)], f"{path}: no data rows"
    return setup


def _blank_first_line(which):
    """Blank-header rows: ``which`` file starts with an empty line."""
    def setup(corpus, traj, config, tdir):
        path = {"series": tdir / "SSP1.csv", "corpus": corpus}[which]
        path.write_text("\n" + path.read_text())
        return ["--config", str(config)], f"{path}:1: blank header line"
    return setup


def _flag(name, value):
    """Flag rows: ``trace score`` has no option ``--name``, a usage error."""
    def setup(corpus, traj, config, tdir):
        return ["--config", str(config), f"--{name}", value], f"No such option '--{name}'"
    return setup


def _rewrite(which, text, expect):
    """Whole-file rows: ``which`` file holds ``text``; the error names the
    file, followed by ``expect``."""
    def setup(corpus, traj, config, tdir):
        path = {"traj": traj, "corpus": corpus}[which]
        path.write_text(text)
        return ["--config", str(config)], f"{path}: {expect}"
    return setup


def _targets_dir(edit, expect):
    """Target-directory rows: ``edit(tdir)`` changes the series directory;
    ``expect(tdir)`` is the error."""
    def setup(corpus, traj, config, tdir):
        edit(tdir)
        return [], expect(tdir)
    return setup


def _summaries(*averages):
    """Compare rows: ``trace compare`` reads one summary per list of
    ``averages``; the error names the first, a one-row summary."""
    def setup(corpus, traj, config, tdir):
        paths = [corpus.parent / f"summary{i}.csv" for i in range(len(averages))]
        for path, values in zip(paths, averages):
            path.write_text("subject_id,average\n" + "".join(
                f"s{i},{v!r}\n" for i, v in enumerate(values)))
        return [str(p) for p in paths], (f"{paths[0]}: needs at least 2 averages to compare, "
                                         f"got {len(averages[0])}")
    return setup


def _summary(cells, expect):
    """Compare rows: ``trace compare`` reads a summary whose `average` cells
    are ``cells``, then a good one; the error names the first, followed by
    ``expect``."""
    def setup(corpus, traj, config, tdir):
        bad, good = corpus.parent / "bad.csv", corpus.parent / "good.csv"
        bad.write_text("subject_id,average\n" + "".join(
            f"s{i},{c}\n" for i, c in enumerate(cells)))
        good.write_text("subject_id,average\ns0,0.1\ns1,0.2\n")
        return [str(bad), str(good)], f"error: {bad}{expect}\n"
    return setup


def _quoted_line_break(which, text):
    """Quoted-line-break rows: ``which`` file holds ``text``, whose first data
    row has a quoted cell over lines 2 and 3; the cell ``x`` on line 4 is
    named by that physical line."""
    def setup(corpus, traj, config, tdir):
        path = {"traj": traj, "corpus": corpus, "summary": corpus.parent / "sm.csv"}[which]
        path.write_text(text)
        flags = [str(path), str(path)] if which == "summary" else ["--config", str(config)]
        return flags, f"error: {path}:4: could not convert string to float: 'x'\n"
    return setup


def _both(first, then):
    """Two-fault rows: ``first``'s edit, then ``then``'s, whose error is the
    one reported."""
    def setup(*files):
        first(*files)
        return then(*files)
    return setup


_POLARITY = '"polarity_map": {"RFD": "desirable", "mortality": "undesirable"}'
_NO_POLARITY_MAP = "corpus mode requires a polarity_map in the config"

MALFORMED_INPUTS = [
    # (id, command and target mode, setup)
    ("lambda-flag", "corpus", _flag("lambda", "0.5")),
    ("k-flag", "corpus", _flag("k", "3")),
    ("epsilon-flag", "corpus", _flag("epsilon", "1e-6")),
    ("lambda-inf-config", "corpus", _bad_config('{"lambda": Infinity, %s}' % _POLARITY,
                                                expect="lambda must lie in [0, 1], got inf")),
    ("lambda-above-one-config", "corpus",
     _bad_config('{"lambda": 1.5, %s}' % _POLARITY, expect="lambda must lie in [0, 1], got 1.5")),
    ("k-zero-config", "corpus", _bad_config('{"k_neighbors": 0, %s}' % _POLARITY,
                                            expect="k_neighbors must be >= 1, got 0")),
    ("epsilon-config", "corpus", _bad_config('{"epsilon": 1e-6, %s}' % _POLARITY,
                                             expect="unknown config keys: ['epsilon']")),
    ("weights-config", "series", _bad_config('{"feature_weights": [1, 1]}',
                                             expect="unknown config keys: ['feature_weights']")),
    ("epsilon-nan-config", "corpus", _bad_config('{"epsilon": NaN, %s}' % _POLARITY)),
    ("weight-inf-config", "corpus",
     _bad_config('{"feature_weights": [1, Infinity], %s}' % _POLARITY)),
    ("weight-nan-config", "series", _bad_config('{"feature_weights": [1, NaN]}')),
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
    ("polarity-int-config", "corpus",
     _bad_config('{"polarity_map": {"RFD": 1, "mortality": "undesirable"}}',
                 expect="unknown polarity 1")),
    ("polarity-unknown-class", "corpus",
     _bad_config('{"polarity_map": {"RFD": "desirable", "death": "undesirable"}}',
                 expect="polarity_map names class 'death'")),
    ("config-without-polarity-map", "corpus",
     _bad_config('{"lambda": 0.5}', expect=f"error: {_NO_POLARITY_MAP}\n")),
    ("corpus-without-config", "corpus",
     lambda corpus, traj, config, tdir: ([], f"error: {_NO_POLARITY_MAP}\n")),
    ("config-nested-too-deeply", "corpus", _nested("config")),
    ("index-nested-too-deeply", "corpus", _nested("index")),
    ("index-no-code", "corpus", _bad_index(lambda h, p, c: (h, p, c[:-1]), _body_size(316))),
    ("index-no-rows-key", "corpus",
     _bad_index(lambda h, p, c: h.__delitem__("rows"), expect="missing key 'rows'")),
    ("index-header-not-object", "corpus",
     _bad_index(lambda h, p, c: ([], p, c), expect="the document is not a JSON object")),
    *((f"index-rows-{name}", "corpus",
       _bad_index(lambda h, p, c, rows=rows: h.__setitem__("rows", rows),
                  expect=f"rows must be an integer >= 0, got {json.dumps(rows)}"))
      for name, rows in (("true", True), ("negative", -1), ("fraction", 2.5), ("text", "16"))),
    ("index-rows-past-body", "corpus",
     _bad_index(lambda h, p, c: h.__setitem__("rows", 17), expect=_body_size(320, rows=17))),
    ("index-parent-layout", "corpus",
     _earlier_layout(lambda h, p, c: {"classes": h["classes"], "codes": _base64(c),
                                      "features": h["features"], "points": _base64(p)}, "codes")),
    ("index-labels-layout", "corpus",
     _earlier_layout(lambda h, p, c: {"features": h["features"], "labels": _labels(h, c),
                                      "points": _base64(p)}, "labels")),
    ("index-number-classes", "corpus",
     _bad_index(lambda h, p, c: h.__setitem__("classes", [1, 2]),
                expect="classes must be a list of strings")),
    ("index-duplicate-class", "corpus",
     _bad_index(lambda h, p, c: h["classes"].append("RFD"), expect="class 'RFD' is listed twice")),
    ("index-class-without-row", "corpus",
     _bad_index(lambda h, p, c: h["classes"].append("spare"), expect="class 'spare' has no row")),
    ("index-code-past-classes", "corpus",
     _bad_index(lambda h, p, c: c.__setitem__(3, 2), expect="code 2 is past the 2 classes")),
    ("index-codes-2-bytes-short", "corpus",
     _bad_index(lambda h, p, c: (h, p, bytes(c)[:-2]), expect=_body_size(318))),
    ("index-number-features", "corpus",
     _bad_index(lambda h, p, c: h.__setitem__("features", [1, 2]),
                expect="features must be a list of strings")),
    ("index-json-rows", "corpus",
     _earlier_layout(lambda h, p, c: {"features": h["features"], "labels": _labels(h, c),
                                      "points": p.tolist()}, "labels")),
    ("index-old-layout-point", "corpus",
     _earlier_layout(lambda h, p, c: {"features": h["features"], "labels": _labels(h, c), "points": [
         {"values": p[0].tolist(), "label": h["classes"][0]}, *p[1:].tolist()]}, "labels")),
    ("index-earliest-layout", "corpus",
     _earlier_layout(lambda h, p, c: {"features": h["features"], "points": [
         {"values": row, "label": label} for row, label in zip(p.tolist(), _labels(h, c))]},
                     "points")),
    ("index-points-8-bytes-short", "corpus",
     _bad_index(lambda h, p, c: (h, bytes(p)[:-8], c), expect=_body_size(312))),
    ("index-nonfinite-point", "corpus",
     _bad_index(lambda h, p, c: p.__setitem__((0, 0), np.nan),
                expect="corpus contains non-finite values")),
    ("index-inf-point", "corpus",
     _bad_index(lambda h, p, c: p.__setitem__((1, 1), -np.inf),
                expect="corpus contains non-finite values")),
    ("index-normalizer-range-overflow", "corpus",
     _bad_index(lambda h, p, c: p.__setitem__((slice(0, 2), 0), [-1e308, 1e308]),
                expect="feature 'hr' spans a non-finite range")),
    ("index-features-wider-than-points", "corpus",
     _bad_index(lambda h, p, c: h["features"].append("xx"), expect=_body_size(320, features=3))),
    ("traj-cell-abc", "corpus", _bad_cell("traj", 3, 2, "abc")),
    ("traj-cell-nan", "corpus", _bad_cell("traj", 3, 2, "nan")),
    ("traj-cell-inf", "series", _bad_cell("traj", 4, 3, "-inf")),
    ("traj-t-float", "corpus", _bad_cell("traj", 2, 1, "0.5")),
    ("traj-conflicting-label", "corpus", _bad_cell(
        "traj", 3, 4, "mortality", "subject 's0' has label 'mortality', earlier rows say 'RFD'")),
    ("traj-header-only", "corpus", _header_only("traj")),
    ("series-header-only", "series", _header_only("series")),
    ("traj-t-overflow", "corpus",
     _bad_cell("traj", 3, 1, str(2**63), "t=9223372036854775808 does not fit a 64-bit integer")),
    ("config-not-utf8", "corpus", _not_utf8("config", 1)),
    ("traj-not-utf8", "corpus", _not_utf8("traj", 3)),
    ("series-not-utf8", "series", _not_utf8("series", 2)),
    ("corpus-not-utf8", "build-index", _not_utf8("corpus", 4)),
    ("series-cell-abc", "series", _bad_cell("series", 3, 1, "abc")),
    ("series-cell-inf", "series", _bad_cell("series", 2, 2, "inf")),
    ("series-t-text", "series", _bad_cell("series", 4, 0, "three")),
    ("series-duplicate-t", "series", _bad_cell("series", 3, 0, "0")),
    ("series-t-overflow", "series", _bad_cell("series", 3, 0, str(-2**63 - 1))),
    ("series-polarity-unknown", "series",
     _bad_config('{"polarity_map": {"gaol": "undesirable"}}',
                 expect="polarity_map names series 'gaol'")),
    ("corpus-cell-nan", "build-index", _bad_cell("corpus", 2, 0, "nan")),
    ("corpus-cell-abc", "build-index", _bad_cell("corpus", 5, 1, "abc")),
    ("corpus-range-overflow", "build-index",
     _corpus_rows("-1e308,0.5,RFD", "1e308,0.5,RFD", expect="feature 'hr' spans a non-finite range")),
    ("corpus-class-mean-overflow", "build-index",
     _corpus_rows("1e308,0.5,RFD", "1.5e308,0.5,RFD",
                  expect="feature 'hr' of class 'RFD' has a non-finite mean")),
    ("index-class-mean-overflow", "corpus",
     _bad_index(lambda h, p, c: p.__setitem__((slice(0, 2), 0), [1e308, 1.5e308]),
                expect="feature 'hr' of class 'RFD' has a non-finite mean")),
    ("corpus-cell-past-field-limit", "build-index",
     _bad_cell("corpus", 3, 2, "x" * 200_000, "field larger than field limit (131072)")),
    ("traj-cell-past-field-limit", "corpus",
     _bad_cell("traj", 4, 0, "s" * 200_000, "field larger than field limit (131072)")),
    ("corpus-blank-header-line", "build-index", _blank_first_line("corpus")),
    ("series-blank-header-line", "series", _blank_first_line("series")),
    ("corpus-label-column-only", "build-index",
     _rewrite("corpus", "label\nRFD\nmortality\n", "no feature columns")),
    ("traj-no-feature-columns", "corpus",
     _rewrite("traj", "subject_id,t,label\ns0,0,RFD\ns0,1,RFD\n", "no feature columns")),
    ("series-dir-without-csv", "series",
     _targets_dir(lambda tdir: [f.unlink() for f in tdir.glob("*.csv")],
                  lambda tdir: f"error: no target series found in {tdir}\n")),
    ("series-directory-entry", "series",
     _targets_dir(lambda tdir: (tdir / "bad.csv").mkdir(),
                  lambda tdir: f"error: {tdir / 'bad.csv'}: not a file\n")),
    ("summary-one-row", "compare", _summaries([0.25], [0.1, 0.2])),
    # several faults: every cell parses before the row count and the range are checked,
    # and every row's values before any t
    ("summary-outside-then-text", "compare",
     _summary(["0.1", "5", "0.2", "x"], ":5: could not convert string to float: 'x'")),
    ("summary-one-row-outside", "compare",
     _summary(["5"], ": needs at least 2 averages to compare, got 1")),
    ("traj-after-quoted-line-break", "corpus", _quoted_line_break(
        "traj", 'subject_id,t,hr,rr,label\n"s\n1",0,0.5,0.5,RFD\ns2,0,x,0.5,RFD\n')),
    ("corpus-after-quoted-line-break", "build-index",
     _quoted_line_break("corpus", 'hr,rr,label\n0.8,0.7,"A\nB"\nx,0.5,A\n')),
    ("summary-after-quoted-line-break", "compare",
     _quoted_line_break("summary", 'subject_id,average\n"s\n0",0.1\ns1,x\n')),
    ("series-t-text-then-cell-text", "series",
     _both(_bad_cell("series", 2, 0, "x"),
           _bad_cell("series", 4, 1, "zz", "could not convert string to float: 'zz'"))),
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
    elif mode == "compare":
        args = ["compare", *flags]
    else:
        source = (["--index", str(tmp / "index.json")] if mode == "corpus"
                  else ["--targets-dir", str(tdir)])
        args = ["score", str(traj), *source, *flags, "--out", str(tmp / "out")]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert expected in res.output


@pytest.mark.parametrize("reader", ["fast", "reference"])
def test_csv_inputs_read_the_same_with_a_utf8_bom(corpus_setup, series_setup, monkeypatch,
                                                  reader):
    """Spreadsheet "CSV UTF-8" exports start with a byte order mark, and
    Windows Notepad can save one. Corpus, trajectory, series, summary and
    config files with one give the same outputs as without it, through
    either table reader."""
    from trace_scores import pipeline
    if reader == "reference":
        monkeypatch.setattr(pipeline, "_fast_table", lambda path, numeric: None)
    tmp, corpus, traj, config = corpus_setup
    _, series_traj, tdir = series_setup
    summaries = [tmp / "a.csv", tmp / "b.csv"]
    for path, averages in zip(summaries, ([0.1, 0.3, 0.2], [-0.1, 0.05])):
        path.write_text("subject_id,average\n" + "".join(
            f"s{i},{v!r}\n" for i, v in enumerate(averages)))

    def outputs(name):
        out = tmp / name
        out.mkdir()
        stdout = [runner.invoke(main, args) for args in (
            ["build-index", str(corpus), "--out", str(out / "index.bin")],
            ["score", str(traj), "--index", str(out / "index.bin"), "--config", str(config),
             "--out", str(out / "corpus")],
            ["score", str(series_traj), "--targets-dir", str(tdir), "--out", str(out / "series")],
            ["compare", *map(str, summaries)])]
        assert [res.exit_code for res in stdout] == [0] * 4, [res.output for res in stdout]
        return ([res.stdout for res in stdout],
                {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()})

    plain = outputs("plain")
    for path in [corpus, traj, series_traj, *tdir.glob("*.csv"), *summaries, config]:
        path.write_bytes("\ufeff".encode() + path.read_bytes())
    assert outputs("bom") == plain


@functools.lru_cache(maxsize=None)
def _fuzz_base():
    """The unmutated inputs of the fuzz test, by file name: the corpus and
    series setups' files and the index built from the corpus."""
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        rng = np.random.default_rng(0)
        write_corpus(tmp / "corpus.csv", rng)
        write_trajectories(tmp / "traj.csv", rng)
        assert runner.invoke(main, ["build-index", str(tmp / "corpus.csv"),
                                    "--out", str(tmp / "index.json")]).exit_code == 0
        files = {name: (tmp / name).read_text() for name in ("corpus.csv", "traj.csv")}
        files["index.json"] = (tmp / "index.json").read_bytes()
    files["config.json"] = json.dumps({"lambda": 0.9, "k_neighbors": 3, "polarity_map": {
        "RFD": "desirable", "mortality": "undesirable"}})
    files["series.csv"] = "subject_id,t,a,b\n" + "".join(
        f"nor,{t},{0.1 * t!r},{0.05 * t!r}\n" for t in range(6))
    for i in range(1, 4):
        files[f"targets/SSP{i}.csv"] = "t,a,b\n" + "".join(
            f"{t},{(t + 1) * 0.1 * i!r},{(t + 1) * 0.05!r}\n" for t in range(6))
    for label, mean in (("RFD", 0.5), ("mortality", -0.25)):
        files[f"summary_{label}.csv"] = "subject_id,average\n" + "".join(
            f"{label}-{i},{mean + 0.1 * i!r}\n" for i in range(4))
    return files


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, -10**400]) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

_CELLS = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1e308", "-1e308", "1e200", "0", "-0", "2.5", "RFD",
                     "label", "t", "hr", "a", "SSP1", str(2**63), str(10**400)]),
    st.text(st.characters(blacklist_categories=["Cs"]), max_size=8),
    st.floats().map(repr), st.integers().map(str))


def _mutate_cell(data, path):
    rows = list(csv.reader(path.read_text().splitlines()))
    row = data.draw(st.integers(0, len(rows) - 1), label="row")
    col = data.draw(st.integers(0, len(rows[row]) - 1), label="column")
    rows[row][col] = data.draw(_CELLS, label="cell")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _mutate_config(data, path):
    doc = json.loads(path.read_text())
    key = data.draw(st.sampled_from(
        ["lambda", "k_neighbors", "epsilon", "polarity_map", "feature_weights", "bogus"]))
    doc[key] = data.draw(_JSON_VALUES, label="value")
    path.write_text(json.dumps(doc))


def _mutate_index(data, path):
    header, points, codes = read_index(path)
    how = data.draw(st.sampled_from(["key", "item", "length"]), label="mutation")
    if how == "key":
        key = data.draw(st.sampled_from(["classes", "features", "rows", "codes", "labels",
                                         "points"]))
        if data.draw(st.booleans(), label="delete"):
            header.pop(key, None)
        else:
            header[key] = data.draw(_JSON_VALUES, label="value")
    elif how == "item":   # one point's 8 bytes or one code's 4
        field = data.draw(st.sampled_from(["points", "codes"]), label="field")
        array, value = ((points, st.floats().map(struct.Struct("<d").pack)) if field == "points"
                        else (codes, st.integers(0, 3).map(struct.Struct("<I").pack)))
        raw, width = array.reshape(-1).view(np.uint8), array.itemsize   # a view of array
        at = width * data.draw(st.integers(0, array.size - 1), label="item")
        raw[at:at + width] = list(data.draw(st.binary(min_size=width, max_size=width) | value,
                                            label="bytes"))
    else:   # truncate the body, extend it, or both
        body = bytes(points) + bytes(codes)
        end = data.draw(st.integers(0, len(body)), label="end")
        points, codes = body[:end], data.draw(st.binary(max_size=24), label="tail")
    write_index(path, header, points, codes)


@pytest.mark.parametrize("kind", ["traj", "corpus", "series", "config", "index", "summary"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzzed_input_keeps_the_exit_code_contract(kind, data):
    """One mutated cell, config value, or index header key, point, code or
    body length: the run exits 0, 1 or 2, raises nothing but
    SystemExit, prints no traceback, and a failure prints exactly one
    ``error:`` line.
    ``summary`` mutates one of the two summaries that ``trace compare``
    reads."""
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        (tmp / "targets").mkdir()
        for name, text in _fuzz_base().items():
            (tmp / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        if kind == "config":
            _mutate_config(data, tmp / "config.json")
        elif kind == "index":
            _mutate_index(data, tmp / "index.json")
        elif kind == "series":
            _mutate_cell(data, tmp / data.draw(st.sampled_from(
                ["series.csv", "targets/SSP1.csv", "targets/SSP2.csv"]), label="file"))
        elif kind == "summary":
            _mutate_cell(data, tmp / data.draw(st.sampled_from(
                ["summary_RFD.csv", "summary_mortality.csv"]), label="file"))
        else:
            _mutate_cell(data, tmp / f"{kind}.csv")
        if kind == "corpus":
            args = ["build-index", str(tmp / "corpus.csv"), "--out", str(tmp / "index2.json")]
        elif kind == "series":
            args = ["score", str(tmp / "series.csv"), "--targets-dir", str(tmp / "targets"),
                    "--out", str(tmp / "out")]
        elif kind == "summary":
            args = ["compare", str(tmp / "summary_RFD.csv"), str(tmp / "summary_mortality.csv")]
        else:
            args = ["score", str(tmp / "traj.csv"), "--index", str(tmp / "index.json"),
                    "--config", str(tmp / "config.json"), "--out", str(tmp / "out")]
        res = runner.invoke(main, args)
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output
    if res.exit_code:
        assert [line.startswith("error:") for line in res.stderr.splitlines()].count(True) == 1, \
            res.stderr


def _hand_written_scores():
    """One-class scores of each polarity, the last step's class mean the
    kernel's zero (combined +0.0 whatever the polarity), and two-class scores
    with unscored cells and skipped steps."""
    from trace_scores.scoring import SkipReason
    combined = [-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0]
    nan = np.nan
    return [*(hand_scored(combined + [0.0], labels=["\u00e9t\u00e9"], polarity=[p],
                          per_class=[[p * c] for c in combined] + [[0.0]]) for p in (1.0, -1.0)),
            hand_scored([0.25, nan, -0.5, 0.0, nan], [0, SkipReason.ALL_MASKED, 0, 0,
                                                     SkipReason.NO_FEATURE_CHANGE],
                        ["b", 'a,"b'], [[0.5, 0.0], [nan, nan], [nan, 0.5], [-0.0, nan], [nan, nan]],
                        [1.0, -1.0])]


@settings(max_examples=50)
@given(cases=st.lists(trajectory_cases(), max_size=3), series_mode=st.booleans())
def test_written_steps_keep_every_scored_value(cases, series_mode):
    from trace_scores.cli import _write_steps
    from trace_scores.pipeline import Trajectory
    from trace_scores.scoring import score_trajectory
    all_scores = _hand_written_scores() + [
        score_trajectory(Trajectory("s", range(len(xs)), xs), make_targets(steps, polarity), lam)
        for xs, steps, polarity, lam in cases]
    key_fields = ["subject", "series"] if series_mode else ["subject"]
    keys = [(f'{name}{i}', *(['x,"y'] if series_mode else []))
            for i, name in enumerate(['a,"b', "\u00fc\u00f1", "s"] * 3)]
    scores = dict(zip(keys[:len(all_scores)][::-1], all_scores))
    with tempfile.TemporaryDirectory() as tmp:
        _write_steps(Path(tmp), key_fields, scores)
        lines = (Path(tmp) / "steps.jsonl").read_text().splitlines()
        with open(Path(tmp) / "scores_wide.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
    want = [(key, ts, i) for key, ts in scores.items() for i in np.flatnonzero(ts.skip == 0)]
    assert len(lines) == len(want)
    for line, (key, ts, i) in zip(lines, want):
        doc = json.loads(line)
        assert line == json.dumps(doc, sort_keys=True)
        assert doc.pop("t") == ts.steps[i]
        assert float.hex(doc.pop("combined")) == ts.combined[i].hex()
        assert {c: float.hex(v) for c, v in doc.pop("per_class").items()} == {
            c: v.hex() for c, v in zip(ts.labels, ts.per_class[i].tolist()) if v == v}
        assert doc == dict(zip(key_fields, key))
    times = sorted({t for ts in scores.values() for t in ts.steps[ts.skip == 0].tolist()})
    assert header == key_fields + [f"t{t}" for t in times]
    assert [tuple(row[:len(key_fields)]) for row in rows] == sorted(scores)
    for row in rows:
        ts = scores[tuple(row[:len(key_fields)])]
        scored = dict(zip(ts.steps[ts.skip == 0].tolist(), ts.combined[ts.skip == 0].tolist()))
        assert [cell and float(cell).hex() for cell in row[len(key_fields):]] == [
            scored[t].hex() if t in scored else "" for t in times]


_ZEROS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.5, -0.25])


@settings(max_examples=50)
@given(means=st.lists(st.lists(_ZEROS, min_size=1, max_size=6), min_size=1, max_size=12),
       polarity=st.lists(st.sampled_from([1.0, -1.0]), min_size=12, max_size=12))
def test_one_class_groups_write_each_class_mean_bit_for_bit(means, polarity):
    """Keys of two interleaved one-class groups, one per polarity, whose
    class means include zeros: the kernel's combined is +0.0 there, so the
    written class mean cannot be taken from the combined text."""
    from trace_scores.cli import _write_steps
    scores = {}
    for i, (pc, p) in enumerate(zip(means, polarity)):
        combined = [p * v if v else 0.0 for v in pc]
        scores[(f"s{i // 2}", "up" if p > 0 else "down")] = hand_scored(
            combined, labels=["c"], polarity=[p], per_class=[[v] for v in pc])
    with tempfile.TemporaryDirectory() as tmp:
        _write_steps(Path(tmp), ["subject", "series"], scores)
        lines = [json.loads(line) for line in (Path(tmp) / "steps.jsonl").read_text().splitlines()]
    assert [(d["subject"], d["series"], d["t"], d["combined"].hex(), d["per_class"]["c"].hex())
            for d in lines] == [(*key, t, c.hex(), v.hex()) for key, ts in scores.items()
                                for t, c, v in zip(ts.steps.tolist(), ts.combined.tolist(),
                                                   ts.per_class[:, 0].tolist())]


_CELL_VALUES = _ZEROS | st.floats(-1.0, 1.0) | st.sampled_from([2.2250738585072014e-308, 0.1])


@st.composite
def multi_class_keys(draw):
    """Up to 12 keys of one or two groups, each of 2-4 classes (labels out of
    order, one needing a JSON escape): per key, NaN cells nowhere, in one class
    on every step, at the key's first and last steps, or at drawn cells, and
    skipped steps at drawn places."""
    from trace_scores.scoring import SkipReason
    groups = []
    for _ in range(draw(st.integers(1, 2))):
        labels = draw(st.permutations(["mortality", "RFD", 'say "hi"', "b"]))[
            :draw(st.integers(2, 4))]
        polarity = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(labels),
                                 max_size=len(labels)))
        groups.append((labels, polarity))
    scores = {}
    for i in range(draw(st.integers(1, 12))):
        labels, polarity = draw(st.sampled_from(groups))
        n, c = draw(st.integers(1, 6)), len(labels)
        cells = np.array(draw(st.lists(st.lists(_CELL_VALUES, min_size=c, max_size=c),
                                       min_size=n, max_size=n)))
        holes = draw(st.sampled_from(["none", "every step", "edges", "drawn"]))
        if holes == "every step":
            cells[np.arange(n), draw(st.lists(st.integers(0, c - 1), min_size=n,
                                              max_size=n))] = np.nan
        elif holes == "edges":
            cells[[0, -1], draw(st.integers(0, c - 1))] = np.nan
        elif holes == "drawn":
            cells[np.array(draw(st.lists(st.lists(st.booleans(), min_size=c, max_size=c),
                                         min_size=n, max_size=n)))] = np.nan
        skip = draw(st.lists(st.sampled_from([0, 0, SkipReason.ALL_MASKED]), min_size=n,
                             max_size=n))
        skip[draw(st.integers(0, n - 1))] = 0
        combined = draw(st.lists(_CELL_VALUES, min_size=n, max_size=n))
        scores[(f"s{i:02d}",)] = hand_scored(combined, skip, labels, cells, polarity)
    return scores


@settings(max_examples=60, deadline=None)
@given(scores=multi_class_keys())
def test_multi_class_groups_write_each_class_mean_bit_for_bit(scores):
    """Each line is canonical JSON; each present cell comes back bit for bit
    under its class, and a NaN cell's class is left out of ``per_class``."""
    from trace_scores.cli import _write_steps
    with tempfile.TemporaryDirectory() as tmp:
        _write_steps(Path(tmp), ["subject"], scores)
        lines = (Path(tmp) / "steps.jsonl").read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    assert lines == [json.dumps(d, sort_keys=True) for d in docs]
    assert [(d["subject"], d["t"], d["combined"].hex(), {c: v.hex() for c, v in
                                                         d["per_class"].items()})
            for d in docs] == [
        (key[0], t, v.hex(), {c: m.hex() for c, m in zip(ts.labels, means) if m == m})
        for key, ts in scores.items()
        for t, v, means, k in zip(ts.steps.tolist(), ts.combined.tolist(),
                                  ts.per_class.tolist(), ts.skip.tolist()) if not k]


def _write_peak_ratio(scores, key_fields):
    """The tracemalloc peak of ``_write_steps`` over the size of the
    ``steps.jsonl`` it writes."""
    from trace_scores.cli import _write_steps
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            _write_steps(Path(tmp), key_fields, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (Path(tmp) / "steps.jsonl").stat().st_size


def test_writing_steps_holds_about_the_text_of_the_wide_table():
    """The wide table needs every scored combined text until the end; the
    step lines are written key by key, so the peak stays within 1.5x the
    step file, on a series-shaped cohort (400 keys in 5 one-class groups of 47
    steps) and a two-class corpus-shaped one. Holding every line reads about
    4x on the first."""
    rng = np.random.default_rng(0)
    series = {}
    for i in range(80):
        for j, p in enumerate([1.0, 1.0, -1.0, 1.0, -1.0]):
            pc = rng.uniform(-1, 1, 47)
            series[(f"p{i:04d}", f"SSP{j}")] = hand_scored(
                p * pc, labels=[f"SSP{j}"], polarity=[p], per_class=pc[:, None])
    assert _write_peak_ratio(series, ["subject", "series"]) < 1.5
    corpus = {}
    for i in range(300):
        pc = np.where(rng.random((8, 2)) < 0.05, np.nan, rng.uniform(-1, 1, (8, 2)))
        skip = np.isnan(pc).all(axis=1).astype(int)
        combined = np.where(skip, np.nan, np.nansum(pc * [1.0, -1.0], axis=1)
                            / np.maximum(1, (~np.isnan(pc)).sum(axis=1)))
        corpus[(f"s{i:04d}",)] = hand_scored(combined, skip, ["mortality", "RFD"], pc,
                                             [1.0, -1.0])
    assert _write_peak_ratio(corpus, ["subject"]) < 1.5


def test_older_index_layout_scores_from_its_points(corpus_setup):
    """An index whose header holds the normalizer and class means that
    earlier layouts stored, in disagreement with its points, scores as the
    freshly built one does: the header keys are ignored."""
    tmp, corpus, traj, config = corpus_setup
    with open(traj, "a") as fh:   # rr has no value, so it takes the class mean
        fh.write("gap,0,0.5,,RFD\ngap,1,0.55,,RFD\n")
    runner.invoke(main, ["build-index", str(corpus), "--out", str(tmp / "index.json")])
    header, points, codes = read_index(tmp / "index.json")
    header["normalizer"] = {"features": [{"name": name, "min": -1.0, "max": 5.0}
                                         for name in header["features"]]}
    header["class_means"] = {"RFD": [9.0, 9.0], "mortality": [-9.0, -9.0]}
    write_index(tmp / "old.json", header, points, codes)
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


def test_summary_and_wide_scores_follow_from_the_step_lines(tmp_path):
    """Every summary.csv number and scores_wide.csv cell of a corpus run,
    recomputed with list loops from steps.jsonl and the trajectory CSV."""
    rng = np.random.default_rng(11)
    polarity = {"good": 1, "fair": 1, "bad": -1}
    rows = ["hr,rr,label"]
    for label, center in (("good", 0.9), ("fair", 0.6), ("bad", 0.1)):
        rows += [f"{v[0]!r},{v[1]!r},{label}"
                 for v in (center + rng.normal(0, 0.05, (6, 2))).tolist()]
    (tmp_path / "corpus.csv").write_text("\n".join(rows) + "\n")
    rows = ["subject_id,t,hr,rr,label"]
    for i, label in enumerate(["good", "bad", "fair", "good"]):
        walk = np.cumsum(rng.normal(0, 0.1, (5, 2)), axis=0) + 0.5
        rows += [f"s{i},{t},{v[0]!r},{v[1]!r},{label}" for t, v in enumerate(walk.tolist())]
    rows += ["gappy,0,0.5,0.4,bad", "gappy,2,0.45,,bad", "gappy,3,0.3,0.35,bad",
             "gappy,7,0.2,0.25,bad",
             "still,0,0.4,0.6,good", "still,1,0.4,0.6,good", "still,2,0.6,0.7,good",
             "lonely,0,0.5,0.5,good"]
    (tmp_path / "traj.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "config.json").write_text(json.dumps(
        {"k_neighbors": 2, "polarity_map": {c: "desirable" if p > 0 else "undesirable"
                                            for c, p in polarity.items()}}))
    for args in (["build-index", str(tmp_path / "corpus.csv"), "--out", str(tmp_path / "index")],
                 ["score", str(tmp_path / "traj.csv"), "--index", str(tmp_path / "index"),
                  "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    out = tmp_path / "out"

    points = {}
    for row in rows[1:]:
        subject = row.split(",")[0]
        points[subject] = points.get(subject, 0) + 1
    lines = {}
    for line in (out / "steps.jsonl").read_text().splitlines():
        doc = json.loads(line, parse_float=str)   # each number as its text
        lines.setdefault(doc["subject"], []).append(doc)
    with open(out / "errors.csv", newline="") as fh:
        assert [row["subject_id"] for row in csv.DictReader(fh)] == ["lonely"]
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert [row["subject_id"] for row in summary] == sorted(set(points) - {"lonely"})
    for row in summary:
        steps = lines[row["subject_id"]]
        assert int(row["n_steps"]) == len(steps)
        assert int(row["n_skipped"]) == points[row["subject_id"]] - 1 - len(steps)
        total = 0.0
        for step in steps:
            total += float(step["combined"])
        assert float(row["average"]) == total / len(steps)
        assert float(row["final_cumulative"]) == total
        for key, sign in (("average_desirable", 1), ("average_undesirable", -1)):
            means = []
            for step in steps:
                values = [float(v) for c, v in step["per_class"].items() if polarity[c] == sign]
                if values:
                    means.append(sum(values) / len(values))
            if means:
                assert abs(float(row[key]) - sum(means) / len(means)) <= 1e-12
            else:
                assert row[key] == ""
        for step in steps:
            signed = [polarity[c] * float(v) for c, v in step["per_class"].items()]
            assert abs(float(step["combined"]) - sum(signed) / len(signed)) <= 1e-12
    assert next(row for row in summary if row["subject_id"] == "still")["n_skipped"] == "1"

    with open(out / "scores_wide.csv", newline="") as fh:
        wide = list(csv.reader(fh))
    assert [row[0] for row in wide[1:]] == sorted(lines)
    for row in wide[1:]:
        cells = {t: cell for t, cell in zip(wide[0][1:], row[1:]) if cell}
        assert cells == {f"t{step['t']}": step["combined"] for step in lines[row[0]]}
    assert "" in next(row for row in wide if row[0] == "gappy")


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

    def test_equal_constant_cohorts(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.make_summary(a, [0.5, 0.5])
        self.make_summary(b, [0.5, 0.5, 0.5])
        res = runner.invoke(main, ["compare", str(a), str(b)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout) == {"dof": 3.0, "mean_a": 0.5, "mean_b": 0.5, "n_a": 2,
                                          "n_b": 3, "p": 1.0, "sd_a": 0.0, "sd_b": 0.0,
                                          "t": 0.0}

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

    @pytest.mark.parametrize("header,cell", [
        *(pytest.param(["subject_id", "average"], cell, id=cell)
          for cell in ["1e200", "-1.7e308", "1.0000000000000002"]),
        # a corpus-mode and a series-mode summary.csv
        pytest.param(["subject_id", "label", "n_steps", "n_skipped", "average",
                      "final_cumulative", "average_desirable", "average_undesirable"], "2.0",
                     id="corpus-2.0"),
        pytest.param(["subject_id", "series", "n_steps", "n_skipped", "average",
                      "final_cumulative"], "2.0", id="series-2.0")])
    def test_average_outside_unit_interval(self, tmp_path, header, cell):
        rows = [[f"s{i}", *["0.1"] * (len(header) - 1)] for i in range(3)]
        rows[1][header.index("average")] = cell
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
        ok = tmp_path / "ok.csv"
        self.make_summary(ok, [0.1, 0.2])
        res = runner.invoke(main, ["compare", str(ok), str(bad)])
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {bad}:3: average '{cell}' lies outside [-1, 1]\n"

    def test_unit_interval_ends_are_averages(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.make_summary(a, [1.0, -1.0, 1.0])
        self.make_summary(b, [-1.0, -1.0, 0.0])
        res = runner.invoke(main, ["compare", str(a), str(b)])
        assert res.exit_code == 0, res.output

    def test_variances_that_underflow_are_a_runtime_failure(self, tmp_path):
        # a's variance is 5e-324, which rounds to 0 when divided by its 3 rows
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.make_summary(a, [0.0, 2.3e-162, 4.6e-162])
        self.make_summary(b, [0.0, 0.0])
        res = runner.invoke(main, ["compare", str(a), str(b)])
        assert res.exit_code == 1, res.output
        assert res.stderr == ("error: t is not finite: the sample variances are too large or "
                              "too small for float64\n")

    def test_squares_below_the_normals_are_compared(self, tmp_path):
        # dof's squared standard errors, about 1e-402, are past the subnormals
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.make_summary(a, [1e-100, 2e-100])
        self.make_summary(b, [0.0, 0.0])
        res = runner.invoke(main, ["compare", str(a), str(b)])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert (doc["t"], doc["dof"]) == (3.0, 1.0)

    def test_header_only_summary(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.make_summary(a, [])
        self.make_summary(b, [0.1, 0.2])
        res = runner.invoke(main, ["compare", str(b), str(a)])
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {a}: no data rows\n"

    def test_undersized(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.make_summary(a, [0.1])
        self.make_summary(b, [0.1, 0.2])
        res = runner.invoke(main, ["compare", str(a), str(b)])
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {a}: needs at least 2 averages to compare, got 1\n"


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

    def test_lambda_out_of_range(self, corpus_setup):
        tmp, _, traj, _ = corpus_setup
        bad = tmp / "bad_config.json"
        bad.write_text(json.dumps({"lambda": 1.5}))
        res = runner.invoke(main, ["score", str(traj),
                                   "--index", str(traj),
                                   "--config", str(bad),
                                   "--out", str(tmp / "out")])
        assert res.exit_code == 2
        assert res.stderr == f"error: {bad}: lambda must lie in [0, 1], got 1.5\n"
        assert not (tmp / "out").exists()


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

    def test_bad_flag_creates_nothing(self, tmp_path):
        res = runner.invoke(main, ["demo", "--scenario", "toy", "--seed", "3", "--lambda", "2",
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "No such option '--lambda'" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_negative_seed_leaves_an_earlier_demo_intact(self, tmp_path):
        assert runner.invoke(main, ["demo", "--scenario", "toy", "--seed", "3",
                                    "--out", str(tmp_path)]).exit_code == 0
        before = self.tree(tmp_path)
        res = runner.invoke(main, ["demo", "--scenario", "toy", "--seed", "-1",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output and "--seed" in res.output
        assert self.tree(tmp_path) == before

    @staticmethod
    def tree(root):
        """Each file's bytes and each directory (as None), by relative path."""
        return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
                for p in root.rglob("*")}

    @pytest.mark.parametrize("scenario,seed,earlier", [
        ("ssp", "11", ("icu", "7")), ("toy", "3", ("icu", "7")), ("toy", "3", ("ssp", "11"))],
        ids=["ssp-11", "toy-3", "toy-3-over-ssp-11"])
    def test_demo_over_an_earlier_demo_leaves_none_of_its_files(self, tmp_path, scenario, seed,
                                                                earlier):
        def run(out, scenario, seed):
            res = runner.invoke(main, ["demo", "--scenario", scenario, "--seed", seed,
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
        run(tmp_path / "fresh", scenario, seed)
        run(tmp_path / "over", *earlier)
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

    @pytest.mark.parametrize("scenario,seed", [("toy", "3"), ("ssp", "11"), ("icu", "7")])
    def test_demo_files_are_pinned(self, tmp_path, scenario, seed):
        res = runner.invoke(main, ["demo", "--scenario", scenario, "--seed", seed,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        files = {name: data for name, data in self.tree(tmp_path).items() if data is not None}
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in files.items()} == PINNED_DEMO_FILES[scenario]


PINNED_DEMO_FILES = {
    "toy": {
        "fixtures/config.json": "63ecaecaa08a6970d603302bfa3dafbf79b2c82a98cb263609702acdfb989d1d",
        "fixtures/corpus.csv": "62c6da5980744112ce77bfcf7cdb58004a560f9d4c6531de9e4e1634ab7e702e",
        "fixtures/trajectories.csv":
            "1d0f86b8fb8dc60468b0e1f64f738f0b04b5f36f0fc3b58942ef0f4039a9b585",
        "index.bin": "f83f730ce04ec2982ba13b74fe409b0e97da11bd87fc731e3ccd73475216fe85",
        "scores_wide.csv": "e2a5655feacd76add45ff55d8e00c6c5708b981dc056a1ac010903b993b4a84d",
        "steps.jsonl": "4191097239b82db5e873608da280c7a896b498f627ef1d9f236d14aee47a472e",
        "summary.csv": "6b8c2e48011decf62d51816f01b96196a352295319dc20d6a544326928bb5051",
    },
    "ssp": {
        "fixtures/targets/SSP1.csv":
            "05342b1e9d3547a258668587c4560b17854c7f85e0a246cb2a604822165e1c5c",
        "fixtures/targets/SSP2.csv":
            "1ccdd367eef7ab3a04e2a52f346d338f52331fee0539fb466a26b53c039cb476",
        "fixtures/targets/SSP3.csv":
            "827838a041b5f7be077d30caef176fcefc34994ed97c70b0b43542d2c90f0cd7",
        "fixtures/targets/SSP4.csv":
            "8a1e2a5ada3fe66af9396995dd45bdd2190fd3e1356356f283d2b985635bbcdd",
        "fixtures/targets/SSP5.csv":
            "3188cbf282e37aeeb6c09f66c04bdcdf0b46c6e532ddfe6558fcc9b79693f58f",
        "fixtures/trajectories.csv":
            "60e5c6e9f78b71c84d92bec1b496245c4532619ab45680699adc9b9ed4efabc9",
        "ranking.json": "3667a3fcbfc480e03fe073ddd67846f2070148eeb46a1070bf945ac2dc2b0923",
        "scores_wide.csv": "c20112005f0618378592ff0cba599bb70b95e4e8db18450034342b0ad63487d8",
        "steps.jsonl": "0e0d7ff6b1c0232451a413477ac77271c0d3d912f9e4e22e95dcd7ceddd7b802",
        "summary.csv": "65f691be0dd58cd30749188196b7d8a1dc6119191acea61d5608443599c6b2e8",
    },
    "icu": {
        "comparison.json": "f6059e5fde21f4cb0a02842b8fc03921dd8f2584a0dd9ed8a6ff8bb3ed362de6",
        "fixtures/config.json": "3924ed85302d016cf0a61cdc31bce509257e2a71afe67ea1da1f387fe14c923f",
        "fixtures/corpus.csv": "596a6f32459f2585d024653ef3a3009b44814b64df9d1506b440e55ba99f5c14",
        "fixtures/trajectories.csv":
            "6dde213e29003fff483bb403e2cbb1a11dbb5eeae13caafd483b925768381658",
        "index.bin": "e5dcdb6b4274f3042a0cda32a2a74cf5436a8e186ca53cc960f1b6a495fb3c31",
        "scores_wide.csv": "2858210803ce161509955ba372f224746e0534dc9092704cfed769bf13a7745b",
        "steps.jsonl": "eeab5e018c992e701409774fb4c96a942e27aef28c0f8ce5334222bf49bcac5a",
        "summary.csv": "06e3d74847ea467cd3cfecf1692742ebdaddfa2da27a6e8ac104da85043c79cf",
        "summary_RFD.csv": "199092a91b4fee66d78400b8f8783d6e9dddf647ad16b68778728a8ac08c0d34",
        "summary_mortality.csv":
            "7c78d27e1b1b8132edce0123bd8f72aff13046a5b19d419c3543af4a1c9590cc",
    },
}
