"""Ingestion: CSV loading, imputation and normalization.

Order of operations for a cohort run: load raw records, impute per
subject (forward fill, backward fill, then class mean), fit a
min-max normalizer on the corpus, and normalize every vector with the
stored statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, ImputeError, TrajectoryError
from .geometry import FeatureVector


@dataclass(eq=False)
class RawRecord:
    """One pre-imputation observation; None marks a missing value."""

    subject_id: str
    t_index: int
    values: List[Optional[float]]


@dataclass(eq=False)
class Trajectory:
    """Fully imputed, ordered point sequence for one subject."""

    subject_id: str
    points: List[Tuple[int, FeatureVector]]
    label: Optional[str] = None

    def __post_init__(self):
        ts = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise TrajectoryError(
                f"t_index not strictly increasing for subject {self.subject_id!r}")
        dims = {p.dim for _, p in self.points}
        if len(dims) > 1:
            raise DimensionError(
                f"inconsistent dimensions in trajectory {self.subject_id!r}: {sorted(dims)}")


def impute(records: Sequence[RawRecord],
           class_means: Optional[Sequence[float]] = None) -> List[RawRecord]:
    """Fill every missing value for one subject's sorted records.

    Forward fill first, backward fill leading gaps, and fall back to the
    class mean for columns missing across the whole stay.
    """
    if not records:
        return []
    n_cols = len(records[0].values)
    out = [RawRecord(subject_id=r.subject_id, t_index=r.t_index,
                     values=list(r.values))
           for r in records]
    for col in range(n_cols):
        column = [r.values[col] for r in out]
        filled = _fill_column(column)
        if filled is None:
            if class_means is None or class_means[col] is None:
                raise ImputeError(
                    f"column {col} is entirely missing and no class mean is available")
            filled = [float(class_means[col])] * len(column)
        for r, v in zip(out, filled):
            r.values[col] = v
    return out


def _fill_column(column):
    """Forward then backward fill; None if the column is entirely missing."""
    if all(v is None for v in column):
        return None
    filled = list(column)
    last = None
    for i, v in enumerate(filled):
        if v is None:
            filled[i] = last
        else:
            last = filled[i]
    nxt = None
    for i in range(len(filled) - 1, -1, -1):
        if filled[i] is None:
            filled[i] = nxt
        else:
            nxt = filled[i]
    return filled


@dataclass(eq=False)
class NormStats:
    """Per-feature min-max statistics, persisted inside the corpus index."""

    names: List[str]
    mins: np.ndarray
    maxs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.names)

    def apply_rows(self, rows) -> np.ndarray:
        """Normalize each row of an ``(n, dim)`` matrix; a constant feature
        maps to 0.5."""
        v = np.asarray(rows, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.dim:
            raise DimensionError(
                f"rows of shape {v.shape} do not match normalizer {self.dim}")
        span = self.maxs - self.mins
        return np.where(span > 0, (v - self.mins) / np.where(span > 0, span, 1.0), 0.5)

    def apply(self, values) -> FeatureVector:
        v = np.asarray(values, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionError(
                f"vector dimension {v.shape[0]} does not match normalizer {self.dim}")
        return FeatureVector(self.apply_rows(v[None, :])[0])

    def invert(self, values) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionError(
                f"vector dimension {v.shape[0]} does not match normalizer {self.dim}")
        span = self.maxs - self.mins
        return np.where(span > 0, v * span + self.mins, self.mins)

    def to_json(self) -> dict:
        return {"features": [{"name": n, "min": float(lo), "max": float(hi)}
                             for n, lo, hi in zip(self.names, self.mins, self.maxs)]}

    @classmethod
    def from_json(cls, doc: dict) -> "NormStats":
        feats = doc["features"]
        return cls(names=[f["name"] for f in feats],
                   mins=np.array([f["min"] for f in feats], dtype=float),
                   maxs=np.array([f["max"] for f in feats], dtype=float))


def fit_normalizer(rows, names: Optional[Sequence[str]] = None) -> NormStats:
    """Min-max statistics per feature from corpus rows only."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DimensionError("normalizer needs a non-empty 2-D row matrix")
    if names is None:
        names = [f"f{i}" for i in range(arr.shape[1])]
    if len(names) != arr.shape[1]:
        raise DimensionError("feature name count does not match row width")
    return NormStats(names=list(names), mins=arr.min(axis=0), maxs=arr.max(axis=0))


def parse_cells(cells: Sequence[str], where: str, error: type) -> List[float]:
    """CSV cells as finite floats; any other cell raises ``error`` at ``where``."""
    try:
        values = [float(c) for c in cells]
    except ValueError as e:
        raise error(f"{where}: {e}") from None
    if not all(map(math.isfinite, values)):
        bad = next(c for c, v in zip(cells, values) if not math.isfinite(v))
        raise error(f"{where}: non-finite value {bad!r}")
    return values


def read_csv(path, error: type) -> Iterator:
    """Yield a CSV's header, then ``(where, row)`` for each non-blank row,
    ``where`` being ``path:line``. Rows stream from the file one at a time.
    A file with no header, or a row whose length differs from the
    header's, raises ``error``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise error(f"{path}: empty file")
        yield header
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != len(header):
                raise error(f"{where}: expected {len(header)} columns, got {len(row)}")
            yield where, row


def parse_t(cell: str, where: str, error: type) -> int:
    """A time-index cell as an int; any other cell raises ``error`` at ``where``."""
    try:
        return int(cell)
    except ValueError:
        raise error(f"{where}: t must be an integer, got {cell!r}") from None


def load_trajectory_csv(path):
    """Read a `subject_id,t,<feature...>[,label]` CSV with empty cells as
    missing. Returns (records by subject, labels by subject, feature names)."""
    lines = read_csv(path, TrajectoryError)
    header = next(lines)
    if header[:2] != ["subject_id", "t"]:
        raise TrajectoryError(f"{path}: header must start with subject_id,t")
    has_label = header[-1] == "label"
    feature_names = header[2:-1] if has_label else header[2:]
    if not feature_names:
        raise TrajectoryError(f"{path}: no feature columns")
    by_subject: Dict[str, List[RawRecord]] = {}
    labels: Dict[str, Optional[str]] = {}
    for where, row in lines:
        subject = row[0]
        t = parse_t(row[1], where, TrajectoryError)
        raw_vals = row[2:2 + len(feature_names)]
        present = iter(parse_cells([v for v in raw_vals if v != ""], where, TrajectoryError))
        values = [next(present) if v != "" else None for v in raw_vals]
        by_subject.setdefault(subject, []).append(
            RawRecord(subject_id=subject, t_index=t, values=values))
        if has_label and row[-1] != "":
            labels[subject] = row[-1]
    for records in by_subject.values():
        records.sort(key=lambda r: r.t_index)
        seen = set()
        for r in records:
            if r.t_index in seen:
                raise TrajectoryError(
                    f"{path}: duplicate t={r.t_index} for subject {r.subject_id!r}")
            seen.add(r.t_index)
    return by_subject, labels, feature_names


def build_trajectory(records: Sequence[RawRecord], *,
                     label: Optional[str] = None,
                     class_means: Optional[Mapping[str, Sequence[float]]] = None,
                     normalizer: Optional[NormStats] = None) -> Trajectory:
    """Impute one subject's sorted records and (optionally) normalize."""
    means = None
    if class_means is not None and label is not None and label in class_means:
        means = class_means[label]
    filled = impute(records, class_means=means)
    values = [r.values for r in filled]
    if normalizer:
        values = normalizer.apply_rows(values)
    points = [(r.t_index, FeatureVector(v)) for r, v in zip(filled, values)]
    return Trajectory(subject_id=records[0].subject_id, points=points, label=label)
