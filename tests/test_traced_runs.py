"""The benchmark's tracer still reaches the library's call sites: a traced
corpus score and series score finish, with one provider call per subject
and target set, and every target row and step counted."""

import importlib.util
from collections import Counter
from pathlib import Path

from trace_scores import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert calls["scoring.score_trajectory"] == 1 + 5
    assert tracer.counts["scoring.steps"] == 2 + 5 * 35
    assert tracer.counts["scoring.steps_skipped"] == 0
    assert (tmp_path / "toy" / "summary.csv").exists()
    assert (tmp_path / "ssp" / "ranking.json").exists()
