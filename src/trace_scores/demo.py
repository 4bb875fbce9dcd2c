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
ICU_PER_GROUP = 500   # subjects per outcome
ICU_CORPUS_PER_CLASS = 300
ICU_TIMEPOINTS = 9
ICU_DIM = 17
SSP_NAMES = ("SSP1", "SSP2", "SSP3", "SSP4", "SSP5")
SSP_MONTHS = 36
SSP_DIM = 5


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


def gen_icu(seed: int):
    """Two-outcome cohort: improvers drift toward the RFD cluster,
    deteriorators toward the mortality cluster."""
    rng = np.random.default_rng(seed)
    center_rfd = np.full(ICU_DIM, 0.72)
    center_mort = np.full(ICU_DIM, 0.28)
    corpus = []
    for label, center in (("RFD", center_rfd), ("mortality", center_mort)):
        pts = center + rng.normal(0, 0.05, (ICU_CORPUS_PER_CLASS, ICU_DIM))
        corpus += [[*p, label] for p in pts.tolist()]
    traj_rows = []
    for group, center, label in (("imp", center_rfd, "RFD"),
                                 ("det", center_mort, "mortality")):
        starts = 0.5 + rng.normal(0, 0.04, (ICU_PER_GROUP, ICU_DIM))
        for i in range(ICU_PER_GROUP):
            subject = f"{group}-{i:04d}"
            x = starts[i].copy()
            for t in range(ICU_TIMEPOINTS):
                traj_rows.append([subject, t, *x.tolist(), label])
                x = x + 0.08 * (center - x) + rng.normal(0, 0.015, ICU_DIM)
    return (_corpus_tables([f"feat{j:02d}" for j in range(ICU_DIM)], corpus, traj_rows),
            {"RFD": "desirable", "mortality": "undesirable"})


def gen_ssp(seed: int):
    """One subject drifting in a fixed direction plus five target series at
    increasing angles to that drift; smaller angle means better alignment.
    Its polarity map is empty: every series is desirable."""
    rng = np.random.default_rng(seed)
    u = np.ones(SSP_DIM) / np.sqrt(SSP_DIM)
    x0 = np.full(SSP_DIM, 0.5)
    drift = 0.01 * u
    traj_rows = []
    x = x0.copy()
    for t in range(SSP_MONTHS):
        traj_rows.append(["NOR", t, *x.tolist(), ""])
        x = x + drift + rng.normal(0, 0.002, SSP_DIM)
    # ranking by construction: SSP5 closest in angle, then SSP1, SSP4, SSP2, SSP3
    angles = {"SSP5": 5.0, "SSP1": 20.0, "SSP4": 30.0, "SSP2": 50.0, "SSP3": 70.0}
    names = [f"f{j}" for j in range(SSP_DIM)]
    tables = {"trajectories.csv": (["subject_id", "t", *names, "label"], traj_rows)}
    for j, name in enumerate(SSP_NAMES):
        w = np.zeros(SSP_DIM)
        w[j] = 1.0
        w = w - np.dot(w, u) * u
        w /= np.linalg.norm(w)
        ang = np.deg2rad(angles[name])
        direction = np.cos(ang) * u + np.sin(ang) * w
        tables[f"targets/{name}.csv"] = (["t", *names], [
            [t, *(x0 + (t + 1) * 0.012 * direction).tolist()] for t in range(SSP_MONTHS)])
    return tables, {}
