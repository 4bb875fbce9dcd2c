"""Seeded input generator for the benchmark workloads.

Each workload is a set of CSV fixtures (plus a config JSON) written from one
``numpy.random.default_rng(seed)``; the same seed gives byte-identical
files. The generator is independent of ``trace_scores`` (it does not use
``trace_scores.demo``), so a change to the library's demo data cannot move a
workload.

``generate`` returns a manifest with what the run and the output check need
to know that is not in the files themselves: the subjects the generator made
malformed on purpose and the number of step-target evaluations the score
call has to perform.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("icu_knn", "series_fixed", "index_large")

# fixed parts of the workload shapes; only the sizes are parameters, so the
# tests can run small versions of the same shapes
ICU_DIM, ICU_K = 17, 3
SERIES_DIM, SERIES_COUNT, SERIES_REPEAT_SHARE = 5, 5, 0.1
INDEX_DIM, INDEX_K, INDEX_MISSING_SHARE, INDEX_DUPLICATE_SHARE = 17, 10, 0.15, 0.2


def _num(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def gen_icu_knn(rng, out: Path, *, n_per_group=150, n_corpus_per_class=300,
                n_points=9) -> dict:
    """Two-outcome cohort: improvers drift toward the RFD cluster and
    deteriorators toward the mortality cluster of a two-class corpus."""
    dim = ICU_DIM
    names = [f"feat{j:02d}" for j in range(dim)]
    centers = {"RFD": np.full(dim, 0.72), "mortality": np.full(dim, 0.28)}
    corpus = []
    for label, center in centers.items():
        for p in center + rng.normal(0, 0.05, (n_corpus_per_class, dim)):
            corpus.append([_num(v) for v in p] + [label])
    traj = []
    for group, label in (("imp", "RFD"), ("det", "mortality")):
        starts = 0.5 + rng.normal(0, 0.04, (n_per_group, dim))
        for i in range(n_per_group):
            x = starts[i]
            for t in range(n_points):
                traj.append([f"{group}-{i:04d}", str(t)] + [_num(v) for v in x] + [label])
                x = x + 0.08 * (centers[label] - x) + rng.normal(0, 0.015, dim)
    _write_csv(out / "corpus.csv", names + ["label"], corpus)
    _write_csv(out / "trajectories.csv", ["subject_id", "t"] + names + ["label"], traj)
    polarity_map = {"RFD": "desirable", "mortality": "undesirable"}
    _write_json(out / "config.json", {"lambda": 0.9, "k_neighbors": ICU_K,
                                      "polarity_map": polarity_map})
    n_subjects = 2 * n_per_group
    return {"mode": "corpus", "subjects": n_subjects, "malformed": [],
            "evaluations": n_subjects * (n_points - 1) * ICU_K * len(polarity_map)}


def gen_series_fixed(rng, out: Path, *, n_subjects=80, n_months=48) -> dict:
    """Monthly trajectories against fixed per-month target series.

    The last feature is static and equal in trajectories and series, so
    masking drops it; a share of months repeats the previous month, which
    the scorer skips as no feature change.
    """
    dim = SERIES_DIM
    names = [f"f{j}" for j in range(dim)]
    active = dim - 1
    static = 0.5
    x0 = np.full(active, 0.5)
    targets = out / "targets"
    targets.mkdir(exist_ok=True)
    series_names = [f"path{j + 1}" for j in range(SERIES_COUNT)]
    for name in series_names:
        d = rng.normal(size=active)
        d /= np.linalg.norm(d)
        rows = [[str(t)] + [_num(v) for v in x0 + (t + 1) * 0.012 * d] + [_num(static)]
                for t in range(n_months)]
        _write_csv(targets / f"{name}.csv", ["t"] + names, rows)
    traj = []
    for i in range(n_subjects):
        drift = rng.normal(size=active)
        drift *= 0.01 / np.linalg.norm(drift)
        x = x0 + rng.normal(0, 0.02, active)
        repeat = rng.random(n_months) < SERIES_REPEAT_SHARE
        for t in range(n_months):
            if t > 1 and repeat[t]:
                pass  # same values as the previous month
            elif t > 0:
                x = x + drift + rng.normal(0, 0.002, active)
            traj.append([f"s-{i:04d}", str(t)] + [_num(v) for v in x] + [_num(static)])
    _write_csv(out / "trajectories.csv", ["subject_id", "t"] + names, traj)
    polarity_map = {"path4": "undesirable", "path5": "undesirable"}
    _write_json(out / "config.json", {"lambda": 0.9, "polarity_map": polarity_map})
    return {"mode": "series", "subjects": n_subjects, "malformed": [],
            "evaluations": n_subjects * (n_months - 1) * SERIES_COUNT}


def gen_index_large(rng, out: Path, *, n_corpus=20000, n_subjects=60, n_points=6,
                    n_column_fallback=4) -> dict:
    """Large four-class corpus (two classes mapped) and a small, gappy cohort.

    Corpus values are rounded to two decimals and a share of rows repeats an
    earlier row exactly, so k-th-neighbour ties occur. In the cohort a share
    of cells is missing, a few subjects lack one whole column (class-mean
    fallback), and two subjects are malformed: one has a single time point,
    the other an all-missing column and no label.
    """
    dim = INDEX_DIM
    names = [f"feat{j:02d}" for j in range(dim)]
    classes = ["RFD", "mortality", "transfer", "readmit"]
    centers = rng.uniform(0.25, 0.75, (len(classes), dim))
    labels = rng.integers(0, len(classes), n_corpus)
    values = np.round(centers[labels] + rng.normal(0, 0.08, (n_corpus, dim)), 2)
    dup = np.flatnonzero(rng.random(n_corpus) < INDEX_DUPLICATE_SHARE)
    dup = dup[dup > 0]
    src = (rng.random(dup.size) * dup).astype(int)  # an earlier row
    for i, j in zip(dup, src):
        values[i] = values[j]
        labels[i] = labels[j]
    corpus = [[f"{v:.2f}" for v in row] + [classes[c]] for row, c in zip(values, labels)]

    n_good = n_subjects - 2
    subjects = [(f"p-{i:04d}", n_points, classes[i % len(classes)]) for i in range(n_good)]
    subjects += [("x-nolabel", n_points, ""), ("x-single", 1, classes[0])]
    fallback = set(rng.choice(n_good, size=n_column_fallback, replace=False).tolist())
    traj = []
    for i, (subject, n, label) in enumerate(subjects):
        a, b = rng.choice(len(classes), size=2, replace=False)
        x = centers[a] + rng.normal(0, 0.05, dim)
        cells = np.empty((n, dim))
        for t in range(n):
            cells[t] = x
            x = x + 0.15 * (centers[b] - x) + rng.normal(0, 0.02, dim)
        missing = rng.random((n, dim)) < INDEX_MISSING_SHARE
        if i in fallback or subject == "x-nolabel":
            missing[:, rng.integers(dim)] = True
        for t in range(n):
            traj.append([subject, str(t)]
                        + ["" if missing[t, j] else _num(cells[t, j]) for j in range(dim)]
                        + [label])
    _write_csv(out / "corpus.csv", names + ["label"], corpus)
    _write_csv(out / "trajectories.csv", ["subject_id", "t"] + names + ["label"], traj)
    polarity_map = {"RFD": "desirable", "mortality": "undesirable"}
    _write_json(out / "config.json", {"lambda": 0.9, "k_neighbors": INDEX_K,
                                      "polarity_map": polarity_map})
    return {"mode": "corpus", "subjects": n_subjects,
            "malformed": ["x-nolabel", "x-single"],
            "evaluations": n_good * (n_points - 1) * INDEX_K * len(polarity_map)}


_GENERATORS = {"icu_knn": gen_icu_knn, "series_fixed": gen_series_fixed,
               "index_large": gen_index_large}


def generate(workload: str, seed: int, out: Path, **sizes) -> dict:
    """Write ``workload``'s fixtures for ``seed`` into ``out``; return its
    manifest (also written to ``out/manifest.json``). ``sizes`` overrides the
    workload's subject and corpus counts (the tests use smaller ones)."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    manifest = _GENERATORS[workload](rng, out, **sizes)
    manifest.update(workload=workload, seed=seed)
    _write_json(out / "manifest.json", manifest)
    return manifest
