"""TraCE scores: trajectory progress against counterfactual targets.

The package root exports the names of the README's library example and of
the core geometry; everything else is imported from its module.
"""

from .analytics import aggregate, welch_t_test
from .geometry import FeatureVector, closest_point, step_score
from .pipeline import Trajectory, fit_normalizer, impute
from .scoring import Polarity, TargetSpec, score_trajectory
from .targets import build_index, knn_targets

__all__ = [
    "FeatureVector", "Polarity", "TargetSpec", "Trajectory", "aggregate",
    "build_index", "closest_point", "fit_normalizer", "impute", "knn_targets",
    "score_trajectory", "step_score", "welch_t_test",
]
