"""Per-step counterfactual target generation.

Two modes: corpus-backed exact nearest-neighbor retrieval per outcome
class, and fixed per-timestep target series.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, CorpusError, TargetError
from .pipeline import NormStats, fit_normalizer
from .scoring import Polarity, Targets


_BLOCK_VALUES = 1 << 19   # float64 values a batched kNN query holds at a time (4 MB)
_U = np.finfo(float).eps / 2                 # unit roundoff
_TINY = np.finfo(float).smallest_subnormal   # spacing of the subnormals

# The prefilter keeps each row whose approximate squared distance A is at
# most the query's k-th smallest, A_k, plus _MARGIN * g * N + 8 n * _TINY:
# N = ||x||^2 + max ||p||^2, n = dim + 4, g = n u / (1 - n u). With D the
# exact ||x - p||^2 (D <= 2 N), the rounding errors are bounded thus:
# * A = fl(fl(||p||^2 - 2 x.p) + ||x||^2): the norms and x.p err by g_dim
#   times their terms' sizes, each add by u, so |A - D| <= 2 g N;
# * the rescore's S = fl(sum fl(fl(p - x)^2)): |S - D| <= g D;
# * sqrt rounds some S(q) > S(p) equal, but E(q) <= E(p) gives
#   S(q) <= (1 + g_4) S(p), E = fl(sqrt(S)), g_4 = 4u / (1 - 4u) <= g.
# The k rows of smallest A have D <= A_k + 2 g N, so a row q whose E
# reaches theirs has A(q) <= (A_k + 2gN)(1 + g)(1 + g_4) / (1 - g) + 2gN
# <= A_k + 10 g N + O(u^2) N, as A_k <= 2 N + 2 g N; 2 g N more covers the
# O(u^2) terms and rounding N and A_k + margin. Below the normal range each
# product errs by up to _TINY / 2 instead: 4 dim in A (x.p twice) and dim
# in S per row, 10 dim halves for two rows, which 8 n * _TINY covers.
_MARGIN = 12


@dataclass(eq=False)
class _ClassIndex:
    rows: np.ndarray      # corpus row ids, in insertion order
    points: np.ndarray    # (n_class, dim), normalized when the corpus has a normalizer

    @np.errstate(over="ignore", invalid="ignore")
    def query_rows(self, xs: np.ndarray, k: int) -> np.ndarray:
        """For each row of the ``(n_q, dim)`` queries ``xs``, the positions in
        ``rows``/``points`` of its exact ``min(k, n_class)`` nearest class
        members, nearest first with ties broken by position: one
        ``(n_q, min(k, n_class))`` matrix. One matrix product prefilters the
        candidates; only those get the exact distance of
        ``np.linalg.norm(points - x, axis=1)``, which orders them."""
        k = min(k, len(self.rows))
        sq_norms = np.einsum("ij,ij->i", self.points, self.points)
        n = self.points.shape[1] + 4
        gamma = n * _U / (1 - n * _U)
        pos = np.empty((len(xs), k), dtype=np.intp)
        # sized for a block in which every row is a candidate
        block = max(1, _BLOCK_VALUES // self.points.size)
        for i in range(0, len(xs), block):
            x = xs[i:i + block]
            sq_x = np.einsum("ij,ij->i", x, x)
            approx = (-2.0 * x) @ self.points.T   # scaling by 2 is exact
            approx += sq_norms
            approx += sq_x[:, None]
            kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
            margin = _MARGIN * gamma * (sq_x + sq_norms.max()) + 8 * n * _TINY
            candidate = approx <= (kth + margin)[:, None]
            candidate[~np.isfinite(approx).all(axis=1)] = True   # a full exact scan
            q, p = np.divmod(np.flatnonzero(candidate), len(self.rows))
            diff = self.points[p] - x[q]
            d = np.sqrt(np.add.reduce(diff * diff, axis=-1))
            # candidates ordered by (query, distance, position); each query
            # keeps its first k
            order = np.lexsort((p, d, q))
            keep = order[np.arange(len(q)) - np.searchsorted(q, q) < k]
            pos[i:i + block] = p[keep].reshape(-1, k)
        return pos


@dataclass(eq=False)
class Corpus:
    """Immutable labeled reference points with per-class exact NN indices."""

    points: np.ndarray                 # (n, dim), as given to build_index
    codes: np.ndarray                  # (n,) uint32: each row's class, its place in classes()
    class_indices: Dict[str, _ClassIndex]   # in order of first appearance
    class_means: Dict[str, np.ndarray]   # each class's raw mean, the imputation fallback
    norm_stats: Optional[NormStats] = None

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def classes(self) -> List[str]:
        return list(self.class_indices)

    def class_size(self, label: str) -> int:
        return len(self.class_indices[label].rows)


def _points_matrix(points, n_rows: int) -> np.ndarray:
    """``points`` as a finite ``(n_rows, dim)`` float matrix, else CorpusError."""
    if not n_rows:
        raise CorpusError("corpus is empty")
    try:
        arr = np.asarray(points, dtype=float)
    except ValueError:   # ragged rows, or a string that is no number
        arr = None
    if arr is None or arr.ndim != 2:
        raise CorpusError("corpus rows have inconsistent dimensions or non-numeric values")
    if len(arr) != n_rows:
        raise CorpusError(f"{len(arr)} points but {n_rows} labels")
    if not np.all(np.isfinite(arr)):
        raise CorpusError("corpus contains non-finite values")
    return arr


def build_index(points, labels: Sequence[str], *, norm_stats=None) -> Corpus:
    """Group the rows of ``points`` by their ``labels`` for exact
    nearest-neighbor queries.

    With ``norm_stats``, each class's rows are normalized for the queries;
    ``Corpus.points`` and each class's mean keep the rows as given. A class
    mean past float64 raises CorpusError naming the feature (``f<column>``
    without ``norm_stats``).
    """
    code_of: Dict[str, int] = {}
    codes = np.array([code_of.setdefault(str(label), len(code_of)) for label in labels],
                     dtype=np.uint32)
    return _grouped(_points_matrix(points, len(codes)), list(code_of), codes, norm_stats)


def _grouped(arr: np.ndarray, classes: List[str], codes: np.ndarray, norm_stats) -> Corpus:
    """The Corpus of the finite rows ``arr`` whose classes are
    ``classes[codes]``, each class with at least one row."""
    if norm_stats is not None and norm_stats.dim != arr.shape[1]:
        raise CorpusError(
            f"normalizer has {norm_stats.dim} features, the points have {arr.shape[1]}")
    indices: Dict[str, _ClassIndex] = {}
    means: Dict[str, np.ndarray] = {}
    for code, label in enumerate(classes):
        rows_l = np.flatnonzero(codes == code)
        raw = arr[rows_l]
        with np.errstate(over="ignore", invalid="ignore"):
            means[label] = raw.mean(axis=0)   # the sum may overflow
        bad = np.flatnonzero(~np.isfinite(means[label]))
        if bad.size:
            name = norm_stats.names[bad[0]] if norm_stats is not None else f"f{bad[0]}"
            raise CorpusError(f"feature {name!r} of class {label!r} has a non-finite mean")
        indices[label] = _ClassIndex(
            rows=rows_l, points=raw if norm_stats is None else norm_stats.apply(raw))
    return Corpus(points=arr, codes=codes, class_indices=indices, class_means=means,
                  norm_stats=norm_stats)


def knn_provider(corpus: Corpus, k: int, polarity_map: Mapping[str, Polarity]):
    """Target provider: each step's k nearest corpus points in each mapped
    class, in map order, found with one batched query per class over all the
    steps of a call, which may stack the steps of many trajectories. A k that
    is not a Python or numpy integer >= 1 (a bool is not one), or a polarity
    that is not a Polarity member or the int 1 or -1, is a ConfigError."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ConfigError(f"k must be an integer >= 1, got {k!r}")
    if not polarity_map:
        raise ConfigError("polarity map names no class")
    indices = []
    for label, p in polarity_map.items():
        if label not in corpus.class_indices:
            raise ConfigError(f"polarity map names unknown class {label!r}")
        if type(p) not in (int, Polarity) or p not in (1, -1):   # a bool is not one
            raise ConfigError(f"class {label!r} has polarity {p!r}, which is not 1 or -1")
        indices.append(corpus.class_indices[label])
    # a step's slots: the nearest of the first class, then of the next, ...
    cls = np.repeat(np.arange(len(indices)), [min(k, len(idx.rows)) for idx in indices])
    polarity = np.array(list(polarity_map.values()), dtype=float)

    def provide(t_index, xs) -> Targets:
        if xs.shape[1:] != (corpus.dim,):
            raise ConfigError(f"query dimension {xs.shape[-1]} does not match "
                              f"corpus dimension {corpus.dim}")
        points = np.concatenate([idx.points[idx.query_rows(xs, k)] for idx in indices], axis=1)
        return Targets(cls=cls, labels=list(polarity_map), polarity=polarity,
                       points=points.reshape(-1, corpus.dim))
    return provide


def series_provider(label: str, polarity: Polarity,
                    points: Mapping[int, Sequence[float]]):
    """Target provider for one fixed per-timestep target series: the series'
    point at each step's time index, with no interpolation, and a row of NaN
    at a time index the series lacks. The points are checked and stacked
    into one matrix once, here: no point, a key that is not a Python or
    numpy integer within int64 (a bool is not one), rows of unequal length
    or not numbers, a value that is not finite, or a polarity that is not a
    Polarity member or the int 1 or -1 raise TargetError naming the series."""
    if type(polarity) not in (int, Polarity) or polarity not in (1, -1):
        raise TargetError(f"series {label!r} has polarity {polarity!r}, which is not 1 or -1")
    if not points:
        raise TargetError(f"series {label!r} has no points")
    for t in points:
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not -2**63 <= t < 2**63:
            raise TargetError(f"series {label!r} has t={t!r}, which is not a 64-bit integer")
    ts = np.array(sorted(points), dtype=int)
    try:
        matrix = np.array([points[t] for t in ts.tolist()], dtype=float)
    except (TypeError, ValueError):   # ragged rows, or a value that is no number
        matrix = None
    if matrix is None or matrix.ndim != 2:
        raise TargetError(f"series {label!r} has rows of unequal length or non-numeric values")
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise TargetError(f"series {label!r} has a non-finite value at t={ts[np.argmin(finite)]}")
    matrix = np.vstack([matrix, np.full(matrix.shape[1], np.nan)])

    def provide(t_index, xs) -> Targets:
        i = np.minimum(np.searchsorted(ts, t_index), len(ts) - 1)
        i[ts[i] != t_index] = len(ts)   # the NaN row
        return Targets(cls=np.zeros(1, dtype=int), labels=[label],
                       polarity=np.array([float(polarity)]), points=matrix[i])
    return provide


# -- serialization ----------------------------------------------------------

# An index file holds the corpus alone, laid out as safetensors files are: a
# header line of ``json.dumps({"classes", "features", "rows"}, sort_keys=True)``
# (ASCII, since json.dumps escapes newlines and non-ASCII text), then the
# rows as given (raw corpus values) as little-endian float64, row after row,
# then each row's class, as its place in ``classes`` (in order of first
# appearance), as little-endian uint32. The float block starts the body, so
# it is aligned. Loading fits the normalizer and the class means again.


def save_corpus(corpus: Corpus, feature_names: Sequence[str], path) -> None:
    """Write ``corpus`` and its ``feature_names`` to ``path`` as an index."""
    header = json.dumps({"classes": corpus.classes(), "features": list(feature_names),
                         "rows": len(corpus.codes)}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.writelines([header.encode("ascii"), b"\n", corpus.points.astype("<f8").tobytes(),
                       corpus.codes.astype("<u4").tobytes()])


def load_corpus(path) -> Tuple[Corpus, List[str]]:
    """Read an index written by ``save_corpus``. A file that does not fit its
    layout, such as a body that is not 8 bytes per row and feature plus 4
    per row, a code past ``classes`` or a header of an earlier layout (with
    ``codes``, ``labels`` or ``points``), raises CorpusError naming ``path``,
    with ``build_index``'s message for non-finite points. Any other header
    key is ignored."""
    with open(path, "rb") as fh:
        header, body = fh.readline(), fh.read()
    try:
        doc = json.loads(header)
        if not isinstance(doc, dict):
            raise CorpusError("the document is not a JSON object")
        earlier = doc.keys() & {"codes", "labels", "points"}
        if earlier:
            raise CorpusError(f"key {min(earlier)!r} is of an earlier index layout; "
                              "rebuild the index with `trace build-index`")
        classes, features, rows = doc["classes"], doc["features"], doc["rows"]
        for key, names in (("classes", classes), ("features", features)):
            if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
                raise CorpusError(f"{key} must be a list of strings")
        if type(rows) is not int or rows < 0:   # type(True) is bool
            raise CorpusError(f"rows must be an integer >= 0, got {json.dumps(rows)}")
        if len(set(classes)) != len(classes):
            twice = next(c for i, c in enumerate(classes) if c in classes[:i])
            raise CorpusError(f"class {twice!r} is listed twice")
        if len(body) != rows * (8 * len(features) + 4):
            raise CorpusError(f"the body holds {len(body)} bytes, not {rows} rows x "
                              f"(8 x {len(features)} features + 4)")
        points = _points_matrix(np.frombuffer(body, "<f8", rows * len(features))
                                .reshape(rows, len(features)), rows)
        codes = np.frombuffer(body, "<u4", offset=points.nbytes)
        if codes.max() >= len(classes):
            raise CorpusError(f"code {codes.max()} is past the {len(classes)} classes")
        sizes = np.bincount(codes, minlength=len(classes))
        if not sizes.all():
            raise CorpusError(f"class {classes[np.argmin(sizes)]!r} has no row")
        return _grouped(points, classes, codes, fit_normalizer(points, features)), features
    except KeyError as e:
        raise CorpusError(f"{path}: malformed index: missing key {e}") from None
    except (CorpusError, RecursionError, ValueError) as e:   # RecursionError: JSON too deep
        raise CorpusError(f"{path}: malformed index: {e}") from None
