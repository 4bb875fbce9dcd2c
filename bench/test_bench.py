"""Tests of the benchmark's own logic: oracle, span arithmetic, generator
determinism and the output check. Run with

    PYTHONPATH=src python -m pytest -q bench
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

import gen
import oracle
import tracing
import workflow
from trace_scores.errors import DegenerateGeometry
from trace_scores.geometry import Degeneracy, step_score

SMALL = {
    "icu_knn": {"n_per_group": 4, "n_corpus_per_class": 20, "n_points": 5},
    "series_fixed": {"n_subjects": 3, "n_months": 8},
    "index_large": {"n_corpus": 400, "n_subjects": 8, "n_points": 4,
                    "n_column_fallback": 2},
}


def _lib_s(x_t, x_n, x_p, lam):
    try:
        g = step_score(x_t, x_n, x_p, lam)
    except DegenerateGeometry:
        return None, None
    return (g.r1, g.r2, g.s), g.degenerate


def test_oracle_matches_step_score_on_random_steps():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 5, 17):
        for _ in range(200):
            x_t, x_n, x_p = rng.normal(size=(3, dim))
            lam = float(rng.uniform())
            want, _ = _lib_s(x_t, x_n, x_p, lam)
            got = oracle.target_terms(x_t, x_n, x_p, lam)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("x_n, x_p, flag", [
    ([2.0, 0.0], [2.0, 0.0], Degeneracy.GOAL_REACHED),
    ([1.0, 0.0], [2.0, 0.0], Degeneracy.BEST_ACHIEVED),
    ([3.0, 0.0], [2.0, 0.0], Degeneracy.BEST_ACHIEVED),
    ([0.0, 1.0], [-1.0, 0.0], Degeneracy.NONE),  # orthogonal-and-behind: x-hat = x_t
])
def test_oracle_matches_step_score_on_degenerate_steps(x_n, x_p, flag):
    x_t = np.zeros(2)
    x_n, x_p = np.array(x_n), np.array(x_p)
    for lam in (0.0, 0.3, 1.0):
        want, got_flag = _lib_s(x_t, x_n, x_p, lam)
        assert got_flag is flag
        np.testing.assert_allclose(oracle.target_terms(x_t, x_n, x_p, lam), want,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("x_n, x_p", [([0.0, 0.0], [1.0, 1.0]),   # no move
                                      ([1.0, 1.0], [0.0, 0.0])])  # target at factual
def test_oracle_drops_what_step_score_rejects(x_n, x_p):
    x_t = np.zeros(2)
    assert _lib_s(x_t, np.array(x_n), np.array(x_p), 0.9) == (None, None)
    assert oracle.target_terms(x_t, np.array(x_n), np.array(x_p), 0.9) is None


def test_self_time_of_nested_spans():
    spans = [["run", 0.0, 10.0, -1, None],
             ["cli.run_score", 1.0, 9.0, 0, None],
             ["pipeline.build_trajectory", 1.5, 3.0, 1, "a"],
             ["pipeline.normalize", 2.0, 2.5, 2, "a"],
             ["scoring.score_trajectory", 3.0, 8.0, 1, "a"],
             ["geometry.step_score", 4.0, 5.0, 4, "a"],
             ["geometry.step_score", 6.0, 6.5, 4, "a"]]
    np.testing.assert_allclose(tracing.self_times(spans),
                               [2.0, 1.5, 1.0, 0.5, 3.5, 1.0, 0.5])
    summary = tracing.summarize(spans, Counter())
    assert summary["geometry.step_score_calls"] == 2
    assert summary["geometry.step_score_s"] == pytest.approx(1.5)
    assert summary["scoring.self_s"] == pytest.approx(3.5)
    assert summary["pipeline.build_trajectory_s"] == pytest.approx(1.5)
    assert summary["cli.self_s"] == pytest.approx(1.5)
    assert summary["trace.coverage"] == pytest.approx(0.8)
    assert sum(summary["layer_self_s"].values()) == pytest.approx(10.0 - 2.0)


def test_tracer_records_parents_and_subjects_and_restores():
    from trace_scores import scoring

    tracer = tracing.Tracer()
    original = scoring.score_trajectory

    class Traj:
        subject_id = "s1"

    outer = tracer.wrap("scoring.score_trajectory", lambda traj: inner(1),
                        subject=lambda a: a[0].subject_id)
    inner = tracer.wrap("geometry.step_score", lambda x: x)
    outer(Traj())
    inner(2)
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("scoring.score_trajectory", -1, "s1"),
        ("geometry.step_score", 0, "s1"),
        ("geometry.step_score", -1, None)]
    with tracer.installed():
        assert scoring.score_trajectory is not original
    assert scoring.score_trajectory is original


def _digest(directory):
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(tmp_path, workload):
    gen.generate(workload, 5, tmp_path / "a", **SMALL[workload])
    gen.generate(workload, 5, tmp_path / "b", **SMALL[workload])
    gen.generate(workload, 6, tmp_path / "c", **SMALL[workload])
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "c")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_output_check_accepts_a_run_and_catches_a_wrong_score(tmp_path, workload):
    manifest = gen.generate(workload, 3, tmp_path / "in", **SMALL[workload])
    out = tmp_path / "out"
    out.mkdir()
    result = workflow.run_sequence(tmp_path / "in", out, manifest)
    check = oracle.OutputCheck(tmp_path / "in", manifest, sample_size=10 ** 6)
    assert check.check(out, result["info"], 0) == []

    steps = out / "scores" / "steps.jsonl"
    lines = [json.loads(line) for line in steps.read_text().splitlines()]
    lines[0]["combined"] = lines[0]["combined"] * 0.5 + 0.1
    steps.write_text("".join(json.dumps(d) + "\n" for d in lines))
    assert check.check(out, result["info"], 0)


def test_output_check_catches_an_unexpected_error(tmp_path):
    manifest = gen.generate("index_large", 3, tmp_path / "in", **SMALL["index_large"])
    out = tmp_path / "out"
    out.mkdir()
    result = workflow.run_sequence(tmp_path / "in", out, manifest)
    assert result["info"]["errors"] == len(manifest["malformed"]) == 2
    manifest["malformed"] = ["x-single"]
    problems = oracle.OutputCheck(tmp_path / "in", manifest).check(out, result["info"], 0)
    assert any("errors" in p for p in problems)
