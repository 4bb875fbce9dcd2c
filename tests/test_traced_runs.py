"""The benchmark's tracer still reaches the library's call sites: a traced
corpus score and series score finish, with one provider call per target
set, and every target row, trajectory row, empty cell and normalize call
counted. The CLI scores a cohort in one ``scoring.score_cohort`` call per
target set, which the tracer does not wrap, so the scored subjects and steps
are read from the runs' own outputs."""

import csv
import importlib.util
from collections import Counter
from pathlib import Path

from click.testing import CliRunner

from trace_scores import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scored(out):
    """A score run's summary rows, its steps (a line of ``steps.jsonl`` per
    scored step, and the skipped ones) and its skipped steps."""
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(out / "steps.jsonl") as fh:
        lines = sum(1 for _ in fh)
    skipped = sum(int(row["n_skipped"]) for row in rows)
    return len(rows), lines + skipped, skipped


def test_traced_corpus_and_series_scores(tmp_path):
    tracer = load_tracing().Tracer()
    with tracer.installed():
        # toy: one subject of 3 points, k=3 in each of 2 mapped classes
        cli.run_demo("toy", 3, tmp_path / "toy")
        # ssp: one subject of 36 months against 5 series
        cli.run_demo("ssp", 11, tmp_path / "ssp")
    calls = Counter(name for name, *_ in tracer.spans)
    assert calls["targets.query"] == 1
    assert tracer.counts["targets.returned"] == 2 * 2 * 3
    assert calls["targets.series_lookup"] == 5
    assert [a + b for a, b in zip(scored(tmp_path / "toy"), scored(tmp_path / "ssp"))] == [
        1 + 5, 2 + 5 * 35, 0]
    assert (tmp_path / "toy" / "summary.csv").exists()
    assert (tmp_path / "ssp" / "ranking.json").exists()


def test_traced_gappy_corpus_score_counts_rows_and_empty_cells(tmp_path):
    corpus, traj, config = tmp_path / "corpus.csv", tmp_path / "traj.csv", tmp_path / "c.json"
    corpus.write_text("hr,rr,label\n0.8,0.7,A\n0.9,0.8,A\n0.2,0.1,B\n0.1,0.2,B\n")
    # 8 rows, 7 empty cells; s2 has no hr at all and takes A's class mean
    traj.write_text("subject_id,t,hr,rr,label\n"
                    "s0,0,,0.5,A\ns0,1,0.4,,A\ns0,2,0.5,0.6,A\n"
                    "s1,0,0.6,0.4,B\ns1,1,,,B\ns1,2,,0.3,B\n"
                    "s2,0,,0.5,A\ns2,1,,0.55,A\n")
    config.write_text('{"k_neighbors": 1, "polarity_map": {"A": "desirable", "B": "undesirable"}}')
    tracer = load_tracing().Tracer()
    runner = CliRunner()
    with tracer.installed():
        res = runner.invoke(cli.main, ["build-index", str(corpus),
                                       "--out", str(tmp_path / "index.json")])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli.main, ["score", str(traj), "--index", str(tmp_path / "index.json"),
                                       "--config", str(config), "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
    calls = Counter(name for name, *_ in tracer.spans)
    assert calls["pipeline.build_trajectory"] == 3
    assert calls["targets.query"] == 1
    assert tracer.counts["pipeline.rows"] == 8
    assert tracer.counts["pipeline.missing_cells"] == 7
    assert scored(tmp_path / "out")[1] == 2 + 2 + 1
    # 2 classes normalized at build and again at load, and 3 subjects
    assert calls["pipeline.normalize"] == 2 + 2 + 3
    assert not (tmp_path / "out" / "errors.csv").exists()
