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
    points: np.ndarray    # (n_class, dim)

    def query(self, x: np.ndarray, k: int) -> List[int]:
        """Exact k nearest class members; ties broken by corpus row order."""
        d = np.linalg.norm(self.points - x, axis=1)
        k = min(k, len(d))
        # every row within the k-th distance, stably sorted so ties keep row order
        near = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1])
        order = near[np.argsort(d[near], kind="stable")]
        return self.rows[order[:k]].tolist()


@dataclass(eq=False)
class Corpus:
    """Immutable labeled reference points with per-class exact NN indices."""

    points: np.ndarray                 # (n, dim)
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
    """Group labeled rows by class for exact nearest-neighbor queries."""
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
    label_arr = np.array(labels)
    indices: Dict[str, _ClassIndex] = {}
    for label in dict.fromkeys(labels):
        rows_l = np.flatnonzero(label_arr == label)
        indices[label] = _ClassIndex(rows=rows_l, points=arr[rows_l])
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
        for row in idx.query(xv, k):
            out.append(TargetSpec(point=FeatureVector(corpus.points[row]),
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
    if not series:
        raise TargetError("no target series supplied")
    out: List[TargetSpec] = []
    for s in series:
        if t not in s.points:
            raise TargetError(
                f"series {s.class_label!r} has no target at t={t}")
        out.append(TargetSpec(point=s.points[t], class_label=s.class_label,
                              polarity=s.polarity))
    return out


def series_provider(series: Sequence[TargetSeries]):
    """Target provider closure for a fixed set of target series."""
    def provide(t_index: int, x: FeatureVector) -> List[TargetSpec]:
        return fixed_targets(series, t_index)
    return provide


# -- serialization ----------------------------------------------------------

def corpus_to_json(corpus: Corpus, feature_names: Sequence[str]) -> dict:
    doc = {
        "features": list(feature_names),
        "points": [{"values": corpus.points[i].tolist(), "label": corpus.labels[i]}
                   for i in range(len(corpus.labels))],
        "class_means": corpus.class_means,
    }
    if corpus.norm_stats is not None:
        doc["normalizer"] = corpus.norm_stats.to_json()
    return doc


def corpus_from_json(doc: dict) -> Tuple[Corpus, List[str]]:
    from .pipeline import NormStats
    stats = NormStats.from_json(doc["normalizer"]) if "normalizer" in doc else None
    rows = [(p["values"], p["label"]) for p in doc["points"]]
    corpus = build_index(rows, norm_stats=stats)
    if stats is not None and stats.dim != corpus.dim:
        raise CorpusError(f"normalizer has {stats.dim} features, the points have {corpus.dim}")
    corpus.class_means = {k: list(map(float, v))
                          for k, v in doc.get("class_means", {}).items()}
    return corpus, list(doc["features"])


def save_corpus(corpus: Corpus, feature_names: Sequence[str], path) -> None:
    with open(path, "w") as fh:
        json.dump(corpus_to_json(corpus, feature_names), fh, sort_keys=True)
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
