"""Independent output check for one benchmark run.

The oracle re-derives expected scores from the fixture files alone, with its
own CSV parsing, imputation, min-max normalization, brute-force kNN ordered
by (distance, row id) and the closed-form ``r1``/``r2``/``s``. It shares no
code with ``trace_scores``. ``OutputCheck.check`` compares one run's output
directory against it and returns a list of problems (empty when correct).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-12
DEFAULT_EPSILON = 1e-9
POLARITY = {"desirable": 1, "undesirable": -1}


# -- closed-form geometry -----------------------------------------------------

def target_terms(x_t, x_n, x_p, lam, eps=DEFAULT_EPSILON):
    """(r1, r2, s) for one step and target, or None when the target is
    dropped (no move, or the target coincides with the factual)."""
    v = x_n - x_t
    vp = x_p - x_t
    nv = math.sqrt(v @ v)
    nvp = math.sqrt(vp @ vp)
    if nv <= eps or nvp <= eps:
        return None
    v_star = x_p - x_n
    n_star = math.sqrt(v_star @ v_star)
    if n_star <= eps:  # goal reached
        return 1.0, 1.0, 1.0
    cos = (v @ vp) / (nv * nvp)
    r1 = min(1.0, max(-1.0, cos))
    x_hat = x_t + v / nv * nvp * cos if cos > 0 else x_t
    v_hat = x_p - x_hat
    n_hat = math.sqrt(v_hat @ v_hat)
    if n_hat <= eps:  # best achievable point is the target
        r2 = 1.0
    else:
        r2 = min(1.0, abs(v_hat @ v_star) / (n_hat * n_star))
    return r1, r2, lam * r1 + (1.0 - lam) * r2


def step_scores(x_t, x_n, targets, lam, eps=DEFAULT_EPSILON):
    """Score one step against ``targets`` = [(point, class, polarity)].

    Returns None for a skipped step, else (per-class means, combined).
    Dimensions where no target differs from the factual are masked out.
    """
    pts = np.array([p for p, _, _ in targets])
    active = np.any(np.abs(pts - x_t) > eps, axis=0)
    if not active.any():
        return None
    move = (x_n - x_t)[active]
    if math.sqrt(move @ move) <= eps:
        return None
    per_class = {}
    polarity = {}
    for p, label, pol in targets:
        terms = target_terms(x_t[active], x_n[active], p[active], lam, eps)
        polarity[label] = pol
        if terms is not None:
            per_class.setdefault(label, []).append(terms[2])
    means = {label: sum(s) / len(s) for label, s in per_class.items()}
    combined = (sum(polarity[c] * m for c, m in means.items()) / len(means)
                if means else None)
    return means, combined


# -- ingest ---------------------------------------------------------------------

def read_trajectories(path):
    """{subject: (times, values with nan for missing, label or None)}."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        has_label = header[-1] == "label"
        n = len(header) - 2 - has_label
        for row in reader:
            vals = [float(v) if v != "" else math.nan for v in row[2:2 + n]]
            label = row[-1] if has_label and row[-1] != "" else None
            times, values, _ = rows.setdefault(row[0], ([], [], label))
            times.append(int(row[1]))
            values.append(vals)
    return {s: (t, np.array(v), label) for s, (t, v, label) in rows.items()}


def impute(values, class_mean):
    """Forward fill, backward fill, then the class mean for columns that are
    missing throughout; None when a column cannot be filled."""
    out = values.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        seen = np.flatnonzero(~np.isnan(col))
        if seen.size == 0:
            if class_mean is None:
                return None
            col[:] = class_mean[j]
            continue
        idx = np.maximum.accumulate(np.where(np.isnan(col), 0, np.arange(col.size)))
        idx[:seen[0]] = seen[0]
        col[:] = col[idx]
    return out


def normalize(values, mins, maxs):
    span = maxs - mins
    return np.where(span > 0, (values - mins) / np.where(span > 0, span, 1.0), 0.5)


def knn_rows(points, rows, x, k):
    """The k rows of ``points`` (global ids ``rows``) nearest to ``x``,
    ordered by (distance, row id)."""
    d = np.linalg.norm(points - x, axis=1)
    return rows[np.lexsort((rows, d))[:k]]


# -- the check ------------------------------------------------------------------

def _close(a, b, tol=TOL):
    return a is not None and b is not None and abs(a - b) <= tol


def _in_range(v):
    return v is not None and math.isfinite(v) and -1.0 <= v <= 1.0


class OutputCheck:
    """Expected behaviour of one workload's inputs, parsed once."""

    def __init__(self, inputs: Path, manifest: dict, sample_size: int = 40):
        self.manifest = manifest
        self.sample_size = sample_size
        with open(inputs / "config.json") as fh:
            cfg = json.load(fh)
        self.lam = cfg.get("lambda", 0.9)
        self.eps = cfg.get("epsilon", DEFAULT_EPSILON)
        self.k = cfg.get("k_neighbors", 3)
        self.polarity = {c: POLARITY[p] for c, p in cfg.get("polarity_map", {}).items()}
        raw = read_trajectories(inputs / "trajectories.csv")
        self.trajectories = {}
        self.expected_errors = set()
        if manifest["mode"] == "corpus":
            self._load_corpus(inputs / "corpus.csv")
        else:
            self.series = {}
            for f in sorted((inputs / "targets").glob("*.csv")):
                with open(f, newline="") as fh:
                    reader = csv.reader(fh)
                    next(reader)
                    self.series[f.stem] = {int(r[0]): np.array([float(v) for v in r[1:]])
                                           for r in reader}
        for subject, (times, values, label) in raw.items():
            if self.manifest["mode"] == "corpus":
                filled = impute(values, self.class_means.get(label))
                if filled is not None:
                    filled = normalize(filled, self.mins, self.maxs)
            else:
                filled = impute(values, None)
            if filled is None or len(times) < 2:
                self.expected_errors.add(subject)
            else:
                self.trajectories[subject] = (times, filled, label)

    def _load_corpus(self, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = [r for r in reader]
        raw = np.array([[float(v) for v in r[:-1]] for r in rows])
        labels = np.array([r[-1] for r in rows])
        self.mins, self.maxs = raw.min(axis=0), raw.max(axis=0)
        self.class_means = {c: raw[labels == c].mean(axis=0) for c in dict.fromkeys(labels)}
        points = normalize(raw, self.mins, self.maxs)
        self.classes = {}
        for c in self.polarity:
            rows_c = np.flatnonzero(labels == c)
            self.classes[c] = (points[rows_c], rows_c)
        self.points = points

    # expected scores for one step: (subject, series or None, step index)
    def expected(self, key):
        subject, series, i = key
        times, x, _ = self.trajectories[subject]
        if series is None:
            targets = []
            for c, pol in self.polarity.items():
                pts, rows = self.classes[c]
                for r in knn_rows(pts, rows, x[i], min(self.k, len(rows))):
                    targets.append((self.points[r], c, pol))
        else:
            targets = [(self.series[series][times[i]], series,
                        self.polarity.get(series, 1))]
        return step_scores(x[i], x[i + 1], targets, self.lam, self.eps)

    def step_keys(self):
        names = [None] if self.manifest["mode"] == "corpus" else list(self.series)
        return [(s, name, i) for s in sorted(self.trajectories) for name in names
                for i in range(len(self.trajectories[s][0]) - 1)]

    def check(self, out: Path, info: dict, sample_seed) -> list:
        """Problems found in the run's outputs under ``out``; [] if none."""
        problems = []
        scores = out / "scores"
        malformed = set(self.manifest["malformed"])
        if malformed != self.expected_errors:
            problems.append(f"generator malformed {sorted(malformed)} but oracle "
                            f"expects errors for {sorted(self.expected_errors)}")
        series_mode = self.manifest["mode"] == "series"
        n_series = len(self.series) if series_mode else 1
        if info.get("errors") != len(malformed) * n_series:
            problems.append(f"run reported {info.get('errors')} errors, "
                            f"expected {len(malformed) * n_series}")
        if not series_mode:
            reported = set()
            if (scores / "errors.csv").exists():
                with open(scores / "errors.csv", newline="") as fh:
                    reported = {r["subject_id"] for r in csv.DictReader(fh)}
            if reported != malformed:
                problems.append(f"errors.csv names {sorted(reported)}, "
                                f"expected {sorted(malformed)}")

        steps = {}
        with open(scores / "steps.jsonl") as fh:
            for line in fh:
                d = json.loads(line)
                key = (d["subject"], d.get("series"), d["t"])
                steps[key] = d
                if not _in_range(d["combined"]) or not all(
                        _in_range(v) for v in d["per_class"].values()):
                    problems.append(f"score out of [-1, 1] at {key}")

        with open(scores / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        combined = {}
        for (subject, series, _), d in steps.items():
            combined.setdefault((subject, series), []).append(d["combined"])
        expected_rows = {(s, name) for s, name, _ in self.step_keys()}
        got_rows = {(r["subject_id"], r.get("series")) for r in summary}
        if got_rows != expected_rows:
            problems.append(f"summary has {len(got_rows)} rows, expected {len(expected_rows)}")
        for r in summary:
            vals = combined.get((r["subject_id"], r.get("series")), [])
            if not vals or not _close(float(r["average"]), sum(vals) / len(vals)):
                problems.append(f"summary average for {r['subject_id']} "
                                "does not match its steps")

        keys = self.step_keys()
        rng = np.random.default_rng(sample_seed)
        for j in rng.choice(len(keys), size=min(self.sample_size, len(keys)), replace=False):
            subject, series, i = keys[j]
            t_next = self.trajectories[subject][0][i + 1]
            got = steps.get((subject, series, t_next))
            want = self.expected(keys[j])
            if want is None or got is None:
                if (want is None) != (got is None):
                    problems.append(f"step {keys[j]}: skipped mismatch "
                                    f"(oracle {want is None}, run {got is None})")
                continue
            per_class, comb = want
            if not _close(got["combined"], comb) or set(got["per_class"]) != set(per_class) \
                    or not all(_close(got["per_class"][c], v) for c, v in per_class.items()):
                problems.append(f"step {keys[j]}: run {got['combined']!r} "
                                f"!= oracle {comb!r}")

        if series_mode:
            problems += self._check_ranking(scores, summary)
        if (out / "comparison.json").exists():
            problems += self._check_welch(out / "comparison.json", summary)
        return problems

    def _check_ranking(self, scores, summary):
        with open(scores / "ranking.json") as fh:
            ranking = json.load(fh)
        averages = {}
        for r in summary:
            averages.setdefault(r["subject_id"], {})[r["series"]] = float(r["average"])
        order = list(self.series)
        want = {s: sorted(a, key=lambda name: (-a[name], order.index(name)))
                for s, a in averages.items()}
        return [] if ranking == want else ["ranking.json does not match the series averages"]

    @staticmethod
    def _check_welch(path, summary):
        from scipy import stats

        with open(path) as fh:
            got = json.load(fh)
        groups = {}
        for r in summary:
            groups.setdefault(r["label"], []).append(float(r["average"]))
        a, b = (np.array(groups[label]) for label in sorted(groups))
        res = stats.ttest_ind(a, b, equal_var=False)
        va, vb = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
        dof = (va + vb) ** 2 / (va ** 2 / (a.size - 1) + vb ** 2 / (b.size - 1))
        ok = (got["n_a"] == a.size and got["n_b"] == b.size
              and math.isclose(got["t"], res.statistic, rel_tol=1e-9)
              and math.isclose(got["dof"], dof, rel_tol=1e-9)
              and math.isclose(got["p"], res.pvalue, rel_tol=1e-9, abs_tol=1e-15))
        return [] if ok else [f"comparison.json {got} does not match Welch "
                              f"recomputation t={res.statistic} dof={dof} p={res.pvalue}"]
