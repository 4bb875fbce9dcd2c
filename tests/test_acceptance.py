"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import filecmp
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from trace_scores import (Polarity, aggregate, build_index, closest_point,
                          fit_normalizer, impute, knn_provider, step_score,
                          welch_t_test)
from trace_scores.cli import main as cli_main
from trace_scores.errors import DegenerateGeometry
from oracles import (brute_knn, grid_closest_point, hand_scored, random_projection_triple,
                     welch_oracle)

runner = CliRunner()


def report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


@pytest.fixture(scope="module")
def icu_runs(tmp_path_factory):
    """Two identical seeded cohort runs; first one timed."""
    base = tmp_path_factory.mktemp("icu")
    start = time.perf_counter()
    res1 = runner.invoke(cli_main, ["demo", "--scenario", "icu", "--seed", "7",
                                    "--out", str(base / "run1")])
    elapsed = time.perf_counter() - start
    res2 = runner.invoke(cli_main, ["demo", "--scenario", "icu", "--seed", "7",
                                    "--out", str(base / "run2")])
    assert res1.exit_code == 0, res1.output
    assert res2.exit_code == 0, res2.output
    return base / "run1", base / "run2", elapsed


def test_01_projection_oracle():
    start = time.perf_counter()
    max_err = 0.0
    max_perp = 0.0
    for dim in (1, 2, 5, 17):
        rng = np.random.default_rng(1000 + dim)
        for _ in range(250):
            a, b, c = random_projection_triple(rng, dim)
            d = closest_point(a, b, c)
            oracle = grid_closest_point(a, b, c)
            max_err = max(max_err, float(np.linalg.norm(d - oracle)))
            h = c - b
            g = a - b
            theta = np.dot(h, g) / (np.linalg.norm(h) * np.linalg.norm(g))
            if theta > 0:
                resid = abs(np.dot(a - d, h)) / (np.linalg.norm(g) * np.linalg.norm(h))
                max_perp = max(max_perp, resid)
    elapsed = time.perf_counter() - start
    report("01 projection oracle (1000 triples, dims 1/2/5/17)",
           max_err <= 1e-6 and max_perp <= 1e-9 and elapsed < 10.0)


def test_02_formula_ranges():
    rng = np.random.default_rng(2)
    violations = 0
    n_scored = 0
    lams = (0.0, 0.5, 0.9, 1.0)
    while n_scored < 10_000:
        dim = int(rng.integers(1, 8))
        x_t, x_next, x_target = rng.normal(scale=5.0, size=(3, dim))
        lam = lams[n_scored % 4]
        try:
            g = step_score(x_t, x_next, x_target, lam)
        except DegenerateGeometry:
            continue
        n_scored += 1
        if not (-1.0 <= g.r1 <= 1.0 and 0.0 <= g.r2 <= 1.0
                and -lam <= g.s <= 1.0):
            violations += 1
    report("02 formula ranges (10000 scored steps)", violations == 0)


def test_03_reduction_and_goal_laws():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(500):
        x_t, x_next, x_target = rng.normal(size=(3, 4))
        try:
            g = step_score(x_t, x_next, x_target, 1.0)
        except DegenerateGeometry:
            continue
        ok &= g.s == g.r1
    for lam in (0.0, 0.3, 0.9, 1.0):
        for _ in range(100):
            x_t = rng.normal(size=4)
            x_goal = rng.normal(size=4)
            if np.linalg.norm(x_goal - x_t) < 1e-6:
                continue
            g = step_score(x_t, x_goal, x_goal, lam)
            ok &= g.s == 1.0
    report("03 reduction (lam=1 => s==r1) and goal (x_next==target => s==1)", ok)


def test_04_toy_sign_behavior(tmp_path):
    res = runner.invoke(cli_main, ["demo", "--scenario", "toy", "--seed", "3",
                                   "--out", str(tmp_path / "toy")])
    assert res.exit_code == 0, res.output
    lines = [json.loads(l) for l in
             (tmp_path / "toy" / "steps.jsonl").read_text().splitlines()]
    by_t = {l["t"]: l["combined"] for l in lines}
    report("04 toy scenario sign behavior (undesirable<0, desirable>0)",
           by_t[1] < 0 < by_t[2])


def test_05_cohort_effect(icu_runs):
    run1, _, elapsed = icu_runs
    doc = json.loads((run1 / "comparison.json").read_text())
    means = {doc["group_a"]: doc["mean_a"], doc["group_b"]: doc["mean_b"]}
    report("05 synthetic cohort effect (signs + Welch p < 1e-5, < 60 s)",
           means["RFD"] > 0 > means["mortality"]
           and doc["p"] < 1e-5
           and doc["n_a"] == 500 and doc["n_b"] == 500
           and elapsed < 60.0)


def test_06_knn_exactness():
    ok = True
    for dim in (2, 10, 17):
        rng = np.random.default_rng(600 + dim)
        pts = rng.normal(size=(120, dim))
        labels = ["a" if i % 3 else "b" for i in range(120)]
        corpus = build_index(pts, labels)
        rows_by_class = {lab: [i for i, l in enumerate(labels) if l == lab]
                         for lab in ("a", "b")}
        for _ in range(167 if dim != 17 else 166):
            x = rng.normal(size=dim)
            for lab in ("a", "b"):
                found = knn_provider(corpus, 3, {lab: Polarity.DESIRABLE})(np.zeros(1, int), x[None])
                class_pts = pts[rows_by_class[lab]]
                expected = class_pts[brute_knn(class_pts, x, 3)]
                ok &= bool(np.array_equal(found.points, expected))
    report("06 kNN exactness vs linear scan (500 queries)", ok)


def test_07_welch_vs_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        a = rng.normal(rng.normal(), abs(rng.normal()) + 0.05,
                       size=int(rng.integers(2, 60))).tolist()
        b = rng.normal(rng.normal(), abs(rng.normal()) + 0.05,
                       size=int(rng.integers(2, 60))).tolist()
        cmp = welch_t_test(a, b)
        t, dof, p = welch_oracle(a, b)
        ok &= abs(cmp.t_stat - t) <= 1e-9
        ok &= abs(cmp.dof - dof) <= 1e-9
        ok &= abs(cmp.p_value - p) <= 1e-9
        back = welch_t_test(b, a)
        ok &= back.t_stat == -cmp.t_stat and back.p_value == cmp.p_value
    for _ in range(20):
        a = rng.integers(-50, 50, size=4)
        a[0] -= a.sum() % 4
        b = rng.integers(-50, 50, size=8)
        b[0] -= b.sum() % 8
        shift = int(rng.integers(-500, 500))
        base = welch_t_test(a.tolist(), b.tolist())
        moved = welch_t_test((a + shift).tolist(), (b + shift).tolist())
        ok &= moved.t_stat == base.t_stat and moved.p_value == base.p_value
    report("07 Welch t-test vs textbook oracle (1e-9) + exact symmetries", ok)


def test_08_pipeline_invariants():
    rng = np.random.default_rng(8)
    ok = True
    produced = 0
    while produced < 1000:
        n, d = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        vals = rng.normal(size=(n, d))
        mask = rng.random((n, d)) < 0.3
        once = impute(np.where(mask, np.nan, vals), class_means=[0.0] * d)
        twice = impute(once, class_means=[0.0] * d)
        ok &= bool(np.array_equal(twice, once) and np.array_equal(once[~mask], vals[~mask]))
        produced += n
    rows = rng.normal(size=(50, 6)) * 20
    stats = fit_normalizer(rows)
    for v in rng.normal(size=(50, 6)) * 20:
        # the inverse of min-max scaling, for features that span a range
        back = stats.apply(v[None])[0] * (stats.maxs - stats.mins) + stats.mins
        ok &= bool(np.all(np.abs(back - v) <= 1e-12 * np.maximum(1, np.abs(v))))
    report("08 imputation idempotence/preservation + normalizer round-trip", ok)


def test_09_cumulative_average_consistency():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 40))
        series = aggregate(hand_scored(rng.uniform(-1, 1, n)))
        ok &= abs(series.cumulative[-1] - series.average * len(series.values)) <= 1e-12
    report("09 last cumulative == average * count (1e-12)", ok)


def test_10_demo_determinism(icu_runs):
    run1, run2, _ = icu_runs
    files1 = sorted(p.relative_to(run1) for p in run1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(run2) for p in run2.rglob("*") if p.is_file())
    ok = files1 == files2 and len(files1) > 0
    for rel in files1:
        ok &= filecmp.cmp(run1 / rel, run2 / rel, shallow=False)
    report("10 seeded demo runs byte-identical", ok)
