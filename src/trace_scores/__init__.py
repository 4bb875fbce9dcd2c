"""TraCE scores: trajectory progress against counterfactual targets."""

from .analytics import GroupComparison, ScoreSeries, aggregate, rank_targets, welch_t_test
from .errors import (AggregateError, ConfigError, CorpusError, DegenerateGeometry,
                     DimensionError, ImputeError, StatsError, TargetError,
                     TraceError, TrajectoryError)
from .geometry import (DEFAULT_EPSILON, Degeneracy, FeatureVector, StepGeometry,
                       closest_point, inner, norm_of, r1, r2, step_score)
from .pipeline import (NormStats, RawRecord, Trajectory, build_trajectory,
                       fit_normalizer, impute, load_trajectory_csv)
from .scoring import (Polarity, SkipReason, StepScore, TargetSpec,
                      TrajectoryScore, feature_scores, mask_static, score_step,
                      score_trajectory)
from .targets import (Corpus, TargetSeries, build_index, fixed_targets,
                      knn_provider, knn_targets, load_corpus, save_corpus,
                      series_provider)

__all__ = [
    "AggregateError", "ConfigError", "Corpus", "CorpusError",
    "DEFAULT_EPSILON", "Degeneracy", "DegenerateGeometry", "DimensionError",
    "FeatureVector", "GroupComparison", "ImputeError", "NormStats", "Polarity",
    "RawRecord", "ScoreSeries", "SkipReason", "StatsError", "StepGeometry",
    "StepScore", "TargetError", "TargetSeries", "TargetSpec", "TraceError",
    "Trajectory", "TrajectoryError", "TrajectoryScore", "aggregate",
    "build_index", "build_trajectory", "closest_point", "feature_scores",
    "fit_normalizer", "fixed_targets", "impute", "inner",
    "knn_provider", "knn_targets", "load_corpus", "load_trajectory_csv",
    "mask_static", "norm_of", "r1", "r2", "rank_targets", "save_corpus",
    "score_step", "score_trajectory", "series_provider", "step_score",
    "welch_t_test",
]
