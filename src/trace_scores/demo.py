"""Seeded synthetic fixtures for desk-scale validation.

Three shapes: a 2-D three-class toy, a 17-feature two-outcome cohort, and
a 5-feature multi-series setup with fixed per-month targets. All
randomness goes through one seeded generator; the library itself contains
none. Each generator returns its fixture tables, ``{file name: (header,
rows)}``, and a polarity map.
"""

from __future__ import annotations

from typing import List

import numpy as np

TOY_CLASSES = ("current", "desired", "undesired")
ICU_CLASSES = ("RFD", "mortality")
SSP_NAMES = ("SSP1", "SSP2", "SSP3", "SSP4", "SSP5")


def _corpus_tables(names: List[str], corpus: List[list], traj: List[list]):
    """The corpus and trajectory fixture tables, ``{file name: (header, rows)}``."""
    return {"corpus.csv": ([*names, "label"], corpus),
            "trajectories.csv": (["subject_id", "t", *names, "label"], traj)}


def gen_toy(seed: int):
    """2-D toy with three classes; one trajectory stepping first toward the
    undesired cluster, then toward the desired one."""
    rng = np.random.default_rng(seed)
    centers = {"current": np.array([0.45, 0.50]),
               "desired": np.array([0.85, 0.85]),
               "undesired": np.array([0.85, 0.15])}
    corpus = []
    for label in TOY_CLASSES:
        for _ in range(6):
            corpus.append([*(centers[label] + rng.normal(0, 0.03, 2)).tolist(), label])
    x0 = centers["current"].copy()
    to_undesired = centers["undesired"] - x0
    x1 = x0 + 0.35 * to_undesired
    to_desired = centers["desired"] - x1
    x2 = x1 + 0.45 * to_desired
    traj = [["toy-1", t, *x.tolist(), ""] for t, x in enumerate((x0, x1, x2))]
    return (_corpus_tables(["f0", "f1"], corpus, traj),
            {"desired": "desirable", "undesired": "undesirable"})


def gen_icu(seed: int, n_per_group: int = 500, n_corpus_per_class: int = 300,
            n_timepoints: int = 9, dim: int = 17):
    """Two-outcome cohort: improvers drift toward the RFD cluster,
    deteriorators toward the mortality cluster."""
    rng = np.random.default_rng(seed)
    center_rfd = np.full(dim, 0.72)
    center_mort = np.full(dim, 0.28)
    corpus = []
    for label, center in (("RFD", center_rfd), ("mortality", center_mort)):
        pts = center + rng.normal(0, 0.05, (n_corpus_per_class, dim))
        corpus += [[*p, label] for p in pts.tolist()]
    traj_rows = []
    for group, center, label in (("imp", center_rfd, "RFD"),
                                 ("det", center_mort, "mortality")):
        starts = 0.5 + rng.normal(0, 0.04, (n_per_group, dim))
        for i in range(n_per_group):
            subject = f"{group}-{i:04d}"
            x = starts[i].copy()
            for t in range(n_timepoints):
                traj_rows.append([subject, t, *x.tolist(), label])
                x = x + 0.08 * (center - x) + rng.normal(0, 0.015, dim)
    return (_corpus_tables([f"feat{j:02d}" for j in range(dim)], corpus, traj_rows),
            {"RFD": "desirable", "mortality": "undesirable"})


def gen_ssp(seed: int, n_months: int = 36, dim: int = 5):
    """One subject drifting in a fixed direction plus five target series at
    increasing angles to that drift; smaller angle means better alignment.
    Its polarity map is empty: every series is desirable."""
    rng = np.random.default_rng(seed)
    u = np.ones(dim) / np.sqrt(dim)
    x0 = np.full(dim, 0.5)
    drift = 0.01 * u
    traj_rows = []
    x = x0.copy()
    for t in range(n_months):
        traj_rows.append(["NOR", t, *x.tolist(), ""])
        x = x + drift + rng.normal(0, 0.002, dim)
    # ranking by construction: SSP5 closest in angle, then SSP1, SSP4, SSP2, SSP3
    angles = {"SSP5": 5.0, "SSP1": 20.0, "SSP4": 30.0, "SSP2": 50.0, "SSP3": 70.0}
    names = [f"f{j}" for j in range(dim)]
    tables = {"trajectories.csv": (["subject_id", "t", *names, "label"], traj_rows)}
    for j, name in enumerate(SSP_NAMES):
        w = np.zeros(dim)
        w[j] = 1.0
        w = w - np.dot(w, u) * u
        w /= np.linalg.norm(w)
        ang = np.deg2rad(angles[name])
        direction = np.cos(ang) * u + np.sin(ang) * w
        tables[f"targets/{name}.csv"] = (["t", *names], [
            [t, *(x0 + (t + 1) * 0.012 * direction).tolist()] for t in range(n_months)])
    return tables, {}
