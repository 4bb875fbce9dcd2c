"""Ingestion: CSV loading, imputation and normalization.

Order of operations for a cohort run: load raw records, impute per
subject (forward fill, backward fill, then class mean), fit a
min-max normalizer on the corpus, and normalize each subject's rows with
its statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from .errors import CorpusError, DimensionError, ImputeError, TrajectoryError


@dataclass(eq=False)
class RawRecord:
    """One pre-imputation observation; None marks a missing value."""

    subject_id: str
    t_index: int
    values: List[Optional[float]]


@dataclass(eq=False)
class Trajectory:
    """One subject's imputed points: strictly increasing time indices ``t``
    and the ``(n, dim)`` matrix ``x`` of finite values, one row per ``t``."""

    subject_id: str
    t: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=int)
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2 or self.x.shape[1] == 0 or self.t.shape != self.x.shape[:1]:
            raise DimensionError(f"x of shape {self.x.shape} does not fit {self.t.size} t indices")
        if (np.diff(self.t) <= 0).any():
            raise TrajectoryError("t_index not strictly increasing")
        finite = np.isfinite(self.x).all(axis=1)
        if not finite.all():
            raise TrajectoryError(f"value at t={self.t[np.argmin(finite)]} is not finite")


def impute(x, class_means: Optional[Sequence[float]] = None) -> np.ndarray:
    """Fill the missing values (NaN or None) of one subject's ``(n, dim)``
    rows: each takes its column's nearest earlier value (forward fill), else
    its nearest later one (backward fill), else, in a column with no value,
    the class mean."""
    x = np.asarray(x, dtype=float)
    missing = np.isnan(x)
    if not missing.any():
        return x
    n = len(x)
    rows = np.arange(n)[:, None]
    earlier = np.maximum.accumulate(np.where(missing, -1, rows), axis=0)
    later = np.minimum.accumulate(np.where(missing, n, rows)[::-1], axis=0)[::-1]
    source = np.where(earlier >= 0, earlier, later)
    filled = x[np.minimum(source, n - 1), np.arange(x.shape[1])]
    for col in np.flatnonzero(source[0] == n).tolist():
        if class_means is None or class_means[col] is None:
            raise ImputeError(
                f"column {col} is entirely missing and no class mean is available")
        filled[:, col] = float(class_means[col])
    return filled


@dataclass(eq=False)
class NormStats:
    """Per-feature min-max statistics of the corpus rows."""

    names: List[str]
    mins: np.ndarray
    maxs: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        # a non-finite min or max makes the span non-finite too
        bad = np.flatnonzero(~np.isfinite(self.maxs - self.mins))
        if bad.size:
            raise CorpusError(f"feature {self.names[bad[0]]!r} spans a non-finite range")

    @property
    def dim(self) -> int:
        return len(self.names)

    @np.errstate(over="ignore", invalid="ignore")
    def apply(self, rows) -> np.ndarray:
        """Normalize each row of an ``(n, dim)`` matrix; a constant feature
        maps to 0.5. A quotient that overflows comes out infinite."""
        v = np.asarray(rows, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.dim:
            raise DimensionError(
                f"rows of shape {v.shape} do not match normalizer {self.dim}")
        span = self.maxs - self.mins
        return np.where(span > 0, (v - self.mins) / np.where(span > 0, span, 1.0), 0.5)


def fit_normalizer(rows, names: Optional[Sequence[str]] = None) -> NormStats:
    """Min-max statistics per feature from corpus rows only."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DimensionError("normalizer needs a non-empty 2-D row matrix")
    if names is None:
        names = [f"f{i}" for i in range(arr.shape[1])]
    if len(names) != arr.shape[1]:
        raise DimensionError(f"{len(names)} feature names for rows of {arr.shape[1]} values")
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
    A file with no header or no data row, or a row whose length differs
    from the header's, raises ``error``, and so does a line that is not
    UTF-8."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: empty file")
            yield header
            where = None
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                where = f"{path}:{lineno}"
                if len(row) != len(header):
                    raise error(f"{where}: expected {len(header)} columns, got {len(row)}")
                yield where, row
            if where is None:
                raise error(f"{path}: no data rows")
    except UnicodeDecodeError:
        # the text layer decodes whole blocks, so find the line in the bytes
        with open(path, "rb") as fh:
            lineno = next(i for i, line in enumerate(fh, start=1)
                          if line.decode("utf-8", "ignore").encode() != line)
        raise error(f"{path}:{lineno}: not UTF-8 text") from None


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header``, then each of ``rows``, as one CSV table. A float
    cell is written as its ``repr`` and a None cell as an empty one."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def parse_t(cell: str, where: str, error: type) -> int:
    """A time-index cell as an int that fits int64; any other cell raises
    ``error`` at ``where``."""
    try:
        t = int(cell)
    except ValueError:
        raise error(f"{where}: t must be an integer, got {cell!r}") from None
    if not -2**63 <= t < 2**63:
        raise error(f"{where}: t={t} does not fit a 64-bit integer")
    return t


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
            earlier = labels.setdefault(subject, row[-1])
            if earlier != row[-1]:
                raise TrajectoryError(f"{where}: subject {subject!r} has label {row[-1]!r}, "
                                      f"earlier rows say {earlier!r}")
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
    """Impute one subject's sorted records, the class mean of ``label``
    filling a column with no value, and (optionally) normalize."""
    means = None if class_means is None else class_means.get(label)
    x = impute(np.array([r.values for r in records], dtype=float), means)
    if normalizer:
        x = normalizer.apply(x)
    return Trajectory(records[0].subject_id, [r.t_index for r in records], x)
