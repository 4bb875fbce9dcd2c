"""Per-step counterfactual target generation.

Two modes: corpus-backed exact nearest-neighbor retrieval per outcome
class, and fixed per-timestep target series.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, CorpusError, TargetError
from .geometry import FeatureVector
from .scoring import Polarity, TargetSpec


@dataclass(eq=False)
class _ClassIndex:
    rows: np.ndarray      # corpus row ids, in insertion order
    points: np.ndarray    # (n_class, dim), normalized when the corpus has a normalizer

    def query(self, x: np.ndarray, k: int) -> np.ndarray:
        """Positions in ``rows``/``points`` of the exact k nearest class
        members; ties broken by corpus row order."""
        d = np.linalg.norm(self.points - x, axis=1)
        k = min(k, len(d))
        # every row within the k-th distance, stably sorted so ties keep row order
        near = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1])
        return near[np.argsort(d[near], kind="stable")][:k]


@dataclass(eq=False)
class Corpus:
    """Immutable labeled reference points with per-class exact NN indices."""

    points: np.ndarray                 # (n, dim), as given to build_index
    labels: List[str]
    class_indices: Dict[str, _ClassIndex] = field(default_factory=dict)
    norm_stats: Optional[object] = None
    class_means: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def classes(self) -> List[str]:
        return list(self.class_indices)

    def class_size(self, label: str) -> int:
        return len(self.class_indices[label].rows)


def build_index(rows: Iterable[Tuple[Sequence[float], str]], *,
                norm_stats=None) -> Corpus:
    """Group labeled rows by class for exact nearest-neighbor queries.

    With ``norm_stats``, each class's rows are normalized for the queries;
    ``Corpus.points`` keeps the rows as given.
    """
    pts: List[Sequence[float]] = []
    labels: List[str] = []
    for values, label in rows:
        pts.append(values)
        labels.append(str(label))
    if not pts:
        raise CorpusError("corpus is empty")
    try:
        arr = np.asarray(pts, dtype=float)
    except ValueError as e:
        raise CorpusError(f"corpus rows have inconsistent dimensions: {e}") from None
    if arr.ndim != 2:
        raise CorpusError("corpus rows have inconsistent dimensions")
    if not np.all(np.isfinite(arr)):
        raise CorpusError("corpus contains non-finite values")
    if norm_stats is not None and norm_stats.dim != arr.shape[1]:
        raise CorpusError(
            f"normalizer has {norm_stats.dim} features, the points have {arr.shape[1]}")
    label_arr = np.array(labels)
    indices: Dict[str, _ClassIndex] = {}
    for label in dict.fromkeys(labels):
        rows_l = np.flatnonzero(label_arr == label)
        points = arr[rows_l] if norm_stats is None else norm_stats.apply_rows(arr[rows_l])
        indices[label] = _ClassIndex(rows=rows_l, points=points)
    return Corpus(points=arr, labels=labels, class_indices=indices,
                  norm_stats=norm_stats)


def knn_targets(corpus: Corpus, x, k: int,
                polarity_map: Mapping[str, Polarity]) -> List[TargetSpec]:
    """The k nearest corpus points to ``x`` in each mapped class."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    xv = x.values if isinstance(x, FeatureVector) else np.asarray(x, dtype=float)
    if xv.shape != (corpus.dim,):
        raise ConfigError(
            f"query dimension {xv.shape[0]} does not match corpus dimension {corpus.dim}")
    out: List[TargetSpec] = []
    for label, polarity in polarity_map.items():
        if label not in corpus.class_indices:
            raise ConfigError(f"polarity map names unknown class {label!r}")
        idx = corpus.class_indices[label]
        if k > len(idx.rows):
            warnings.warn(
                f"k={k} exceeds class {label!r} size {len(idx.rows)}; clamping",
                stacklevel=2)
        for pos in idx.query(xv, k):
            out.append(TargetSpec(point=FeatureVector(idx.points[pos]),
                                  class_label=label,
                                  polarity=Polarity(polarity)))
    return out


def knn_provider(corpus: Corpus, k: int,
                 polarity_map: Mapping[str, Polarity]):
    """Target provider closure for scoring.score_trajectory."""
    def provide(t_index: int, x: FeatureVector) -> List[TargetSpec]:
        return knn_targets(corpus, x, k, polarity_map)
    return provide


@dataclass(eq=False)
class TargetSeries:
    """A fixed per-timestep target series for one class."""

    class_label: str
    polarity: Polarity
    points: Dict[int, FeatureVector]


def fixed_targets(series: Sequence[TargetSeries], t: int) -> List[TargetSpec]:
    """One target per series at time index ``t``; no interpolation."""
    return series_provider(series)(t, None)


def series_provider(series: Sequence[TargetSeries]):
    """Target provider closure for a fixed set of target series; each
    series' targets are built once, here."""
    if not series:
        raise TargetError("no target series supplied")
    specs = [(s.class_label,
              {t: TargetSpec(point=p, class_label=s.class_label, polarity=s.polarity)
               for t, p in s.points.items()})
             for s in series]

    def provide(t_index: int, x: FeatureVector) -> List[TargetSpec]:
        out: List[TargetSpec] = []
        for label, by_t in specs:
            if t_index not in by_t:
                raise TargetError(f"series {label!r} has no target at t={t_index}")
            out.append(by_t[t_index])
        return out
    return provide


# -- serialization ----------------------------------------------------------

# index.json holds the rows as given (raw corpus values, which shortest-repr
# floats reproduce exactly) in ``points``, their ``labels`` in the same order,
# the ``normalizer``, the raw ``class_means`` and the ``features``. Loading
# normalizes each class's rows again.

def corpus_to_json(corpus: Corpus, feature_names: Sequence[str]) -> dict:
    doc = {
        "features": list(feature_names),
        "points": corpus.points.tolist(),
        "labels": corpus.labels,
        "class_means": corpus.class_means,
    }
    if corpus.norm_stats is not None:
        doc["normalizer"] = corpus.norm_stats.to_json()
    return doc


def corpus_from_json(doc: dict) -> Tuple[Corpus, List[str]]:
    from .pipeline import NormStats
    stats = NormStats.from_json(doc["normalizer"]) if "normalizer" in doc else None
    points, labels = doc["points"], doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
        raise CorpusError("labels must be a list of strings")
    if len(points) != len(labels):
        raise CorpusError(f"{len(points)} points but {len(labels)} labels")
    corpus = build_index(zip(points, labels), norm_stats=stats)
    corpus.class_means = {k: list(map(float, v))
                          for k, v in doc.get("class_means", {}).items()}
    return corpus, list(doc["features"])


def save_corpus(corpus: Corpus, feature_names: Sequence[str], path) -> None:
    # json.dumps encodes in C; json.dump always takes the pure-Python encoder
    text = json.dumps(corpus_to_json(corpus, feature_names), sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_corpus(path) -> Tuple[Corpus, List[str]]:
    """Read an index written by ``save_corpus``; a document that does not
    fit its layout raises CorpusError naming ``path``."""
    with open(path) as fh:
        try:
            return corpus_from_json(json.load(fh))
        except KeyError as e:
            raise CorpusError(f"{path}: malformed index: missing key {e}") from None
        except (AttributeError, CorpusError, TypeError, ValueError) as e:
            raise CorpusError(f"{path}: malformed index: {e}") from None
