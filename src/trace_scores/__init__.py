"""TraCE scores: trajectory progress against counterfactual targets.

The package root exports the names of the README's library example and of
the core geometry; everything else is imported from its module.
"""

from .analytics import aggregate, welch_t_test
from .geometry import closest_point, step_score
from .pipeline import Trajectory, fit_normalizer, impute
from .scoring import Polarity, score_trajectory
from .targets import build_index, knn_provider, series_provider

__all__ = [
    "Polarity", "Trajectory", "aggregate", "build_index", "closest_point",
    "fit_normalizer", "impute", "knn_provider", "score_trajectory",
    "series_provider", "step_score", "welch_t_test",
]
