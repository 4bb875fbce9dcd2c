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
from itertools import chain, repeat
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

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
    """One subject's imputed points: strictly increasing int64 time indices
    ``t`` (not 0.5, "1" or True, as ``parse_t`` reads a CSV cell) and the
    ``(n, dim)`` matrix ``x`` of finite values, one row per ``t``."""

    subject_id: str
    t: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t)
        if t.size and (t.dtype.kind not in "iu" or (t >= 2**63).any()):
            raise TrajectoryError(f"t must hold 64-bit integers, got {self.t!r}")
        self.t = t.astype(int)
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2 or self.x.shape[1] == 0 or self.t.shape != self.x.shape[:1]:
            raise DimensionError(f"x of shape {self.x.shape} does not fit {self.t.size} t indices")
        if (self.t[1:] <= self.t[:-1]).any():   # np.diff would overflow at the int64 ends
            raise TrajectoryError("t_index not strictly increasing")
        finite = np.isfinite(self.x).all(axis=1)
        if not finite.all():
            raise TrajectoryError(f"value at t={self.t[np.argmin(finite)]} is not finite")


def impute(x, class_means: Optional[Sequence[float]] = None,
           names: Optional[Sequence[str]] = None) -> np.ndarray:
    """Fill the missing values (NaN or None) of one subject's ``(n, dim)``
    rows: each takes its column's nearest earlier value (forward fill), else
    its nearest later one (backward fill), else, in a column with no value,
    the class mean. A column with neither raises ImputeError naming its
    feature (``f<column>`` without ``names``)."""
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
            name = names[col] if names is not None else f"f{col}"
            raise ImputeError(f"feature {name!r} has no value and no class mean is available")
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
    """Yield a CSV's header, then ``(line, row)`` for each non-blank row,
    ``line`` being the number of the physical line it ends on: a row whose
    quoted cell holds a line break is named by its last line. Rows stream
    from the file one at a time, and a UTF-8 byte order mark that starts it
    is dropped. A file with no header or no data row, or a row whose length
    differs from the header's, raises ``error``, and so does a line that is
    not UTF-8 or a cell longer than ``csv.field_size_limit()``; the message
    of a line's fault names ``path:line``."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: empty file")
            if not header:
                raise error(f"{path}:1: blank header line")
            yield header
            rows = 0
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise error(f"{path}:{reader.line_num}: expected {len(header)} columns, "
                                f"got {len(row)}")
                rows += 1
                yield reader.line_num, row
            if not rows:
                raise error(f"{path}: no data rows")
    except csv.Error as e:   # a cell past the field size limit, on the line last read
        raise error(f"{path}:{reader.line_num}: {e}") from None
    except UnicodeDecodeError:
        # the text layer decodes whole blocks, so find the line in the bytes,
        # whose splitlines ends a line at \n, \r\n or \r as the csv module does
        with open(path, "rb") as fh:
            lineno = next(i for i, line in enumerate(fh.read().splitlines(), start=1)
                          if line.decode("utf-8", "ignore").encode() != line)
        raise error(f"{path}:{lineno}: not UTF-8 text") from None


# read_table's result: the header, each data row's line number, the text
# columns (those before the numeric block, then those after it) and the
# (rows, numeric columns) float64 matrix, NaN marking an empty cell
Table = Tuple[List[str], List[int], List[List[str]], np.ndarray]


def read_table(path, error: type, numeric: Callable[[List[str]], Tuple[int, int]], *,
               gaps: bool = False) -> Table:
    """Read a CSV whose columns ``start:stop`` hold finite floats, where
    ``numeric(header)`` checks the header and returns ``(start, stop)``.
    Returns ``(header, lines, text, values)`` (see ``Table``). An empty
    numeric cell is NaN with ``gaps``, else an error. Errors are raised as
    ``error``, and those of a row name ``path:line``.

    One ``np.loadtxt`` call parses a clean file. Any other file takes the
    reference path, ``read_csv`` and ``parse_cells`` row by row, which gives
    the same values and every error message."""
    return _fast_table(path, numeric) or _slow_table(path, error, numeric, gaps)


def _fast_table(path, numeric) -> Optional[Table]:
    """``read_table``'s result by ``np.loadtxt``, or None for a file that
    only the reference path may read: one that is not UTF-8, has a ``"`` or
    a character that ``loadtxt`` strips and ``float()`` does not (U+001C to
    U+001F), a line past the field size limit, a row of the wrong length,
    an empty cell, a cell ``loadtxt`` rejects (such as ``1_0``) or a value
    that is not finite."""
    try:
        with open(path, encoding="utf-8-sig") as fh:   # no BOM; \r\n and \r read as \n
            data = fh.read()
    except UnicodeDecodeError:
        return None
    # split on \n alone: str.splitlines also splits on \x1c, \x85, \u2028, ...
    lines = data.split("\n")
    if (not lines[0] or any(c in data for c in '"\x1c\x1d\x1e\x1f')
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    header = lines[0].split(",")
    start, stop = numeric(header)
    rows = list(filter(None, lines[1:]))   # blank lines are skipped
    if not rows or set(map(str.count, rows, repeat(","))) != {len(header) - 1}:
        return None
    try:
        values = np.loadtxt(rows, delimiter=",", usecols=range(start, stop), comments=None,
                            quotechar=None, dtype=float, ndmin=2)
    except ValueError:   # an empty cell, or a spelling loadtxt does not read
        return None
    if not np.isfinite(values).all():
        return None
    n = len(header)
    text = [[line.split(",", j + 1)[j] for line in rows] for j in range(start)]
    text += [[line.rsplit(",", n - j)[1] for line in rows] for j in range(stop, n)]
    return header, [i for i, line in enumerate(lines[1:], start=2) if line], text, values


def _slow_table(path, error: type, numeric, gaps: bool) -> Table:
    """``read_table``'s result by ``read_csv`` and ``parse_cells``."""
    rows = read_csv(path, error)
    header = next(rows)
    start, stop = numeric(header)
    lines, text, values = [], [], []
    for line, row in rows:
        where = f"{path}:{line}"
        cells = row[start:stop]
        if gaps:
            present = iter(parse_cells([c for c in cells if c != ""], where, error))
            values.append([next(present) if c != "" else math.nan for c in cells])
        else:
            values.append(parse_cells(cells, where, error))
        lines.append(line)
        text.append(row[:start] + row[stop:])
    return header, lines, list(map(list, zip(*text))), np.array(values, dtype=float)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header``, then each of ``rows``, as ``csv.writer`` would: a None
    cell is empty and any other is its ``str``, for a float its ``repr``. A
    row that needs no quoting (no ``,``, ``"``, ``\\r`` or ``\\n`` in a cell, and
    not one lone empty cell) is its cells joined by commas."""
    with open(path, "w", newline="") as fh:
        for row in chain([header], rows):
            cells = ["" if c is None else str(c) for c in row]
            line = ",".join(cells)
            if (line.count(",") == len(cells) - 1 and (line or len(cells) > 1)
                    and '"' not in line and "\n" not in line and "\r" not in line):
                fh.write(line + "\r\n")
            else:
                csv.writer(fh).writerow(cells)


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
    missing. Returns (records by subject, each subject's sorted by t, labels by
    subject, feature names). A bad t or a label conflict is raised in file order,
    a t first on its line; only then a duplicate t: the first such subject's least."""
    def features(header):
        if header[:2] != ["subject_id", "t"]:
            raise TrajectoryError(f"{path}: header must start with subject_id,t")
        stop = len(header) - (header[-1] == "label")
        if stop <= 2:
            raise TrajectoryError(f"{path}: no feature columns")
        return 2, stop

    header, lines, text, matrix = read_table(path, TrajectoryError, features, gaps=True)
    has_label = header[-1] == "label"
    subjects, t_cells = text[0], text[1]
    try:
        t = np.array([*map(int, t_cells)], dtype=np.int64)
    except (ValueError, OverflowError):   # parse_t names the first bad cell below
        t = None
    labels: Dict[str, Optional[str]] = {}
    for line, subject, cell, label in zip(lines, subjects, t_cells,
                                          text[2] if has_label else repeat("")):
        if t is None:
            parse_t(cell, f"{path}:{line}", TrajectoryError)
        if label != "" and labels.setdefault(subject, label) != label:
            raise TrajectoryError(f"{path}:{line}: subject {subject!r} has label {label!r}, "
                                  f"earlier rows say {labels[subject]!r}")
    codes: Dict[str, int] = {}
    code = np.array([codes.setdefault(s, len(codes)) for s in subjects])
    order = np.lexsort((t, code))   # by subject in order of first row, then by t
    t, code, matrix = t[order], code[order], matrix[order]
    same = (t[1:] == t[:-1]) & (code[1:] == code[:-1])
    if same.any():
        first = np.argmax(same)
        raise TrajectoryError(f"{path}: duplicate t={t[first]} for subject "
                              f"{subjects[order[first]]!r}")
    values = matrix.tolist()
    for i in np.flatnonzero(np.isnan(matrix).any(axis=1)).tolist():
        values[i] = [v if v == v else None for v in values[i]]
    records = [*map(RawRecord, map(subjects.__getitem__, order.tolist()), t.tolist(), values)]
    ends = np.cumsum(np.bincount(code)).tolist()
    by_subject = {s: records[a:b] for s, a, b in zip(codes, [0, *ends], ends)}
    return by_subject, labels, header[2:-1] if has_label else header[2:]


def build_trajectory(records: Sequence[RawRecord], *,
                     label: Optional[str] = None,
                     class_means: Optional[Mapping[str, Sequence[float]]] = None,
                     normalizer: Optional[NormStats] = None,
                     names: Optional[Sequence[str]] = None) -> Trajectory:
    """Impute one subject's sorted records, the class mean of ``label``
    filling a column with no value, and (optionally) normalize. ``names``
    are the feature names an imputation error gives."""
    means = None if class_means is None else class_means.get(label)
    x = impute(np.array([r.values for r in records], dtype=float), means, names)
    if normalizer:
        x = normalizer.apply(x)
    return Trajectory(records[0].subject_id, [r.t_index for r in records], x)
