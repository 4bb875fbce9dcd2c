"""Lift single-step geometry to whole trajectories with multiple targets.

Targets carry a class label and a polarity (desirable counts positively,
undesirable negatively). Per step, static features identical between the
factual and every target are masked out, each target gets its own raw
step geometry, targets are averaged within their class, and classes are
combined into one signed score in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import geometry
from .errors import ConfigError, DegenerateGeometry, TargetError, TrajectoryError
from .geometry import DEFAULT_EPSILON, FeatureVector, StepGeometry


class Polarity(IntEnum):
    DESIRABLE = 1
    UNDESIRABLE = -1


class SkipReason(Enum):
    NO_FEATURE_CHANGE = "no_feature_change"
    ALL_MASKED = "all_masked"


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """One counterfactual target point."""

    point: FeatureVector
    class_label: str
    polarity: Polarity = Polarity.DESIRABLE
    weight: float = 1.0

    def __post_init__(self):
        if self.weight <= 0:
            raise ConfigError(f"target weight must be positive, got {self.weight}")


@dataclass(eq=False)
class StepScore:
    """Scores for one consecutive step, per target, per class and combined."""

    t_index: int
    per_target: List[Tuple[str, Polarity, StepGeometry]] = field(default_factory=list)
    per_class: Dict[str, float] = field(default_factory=dict)
    combined: Optional[float] = None
    skipped: bool = False
    skip_reason: Optional[SkipReason] = None


@dataclass(eq=False)
class TrajectoryScore:
    steps: List[StepScore]
    skipped_count: int

    def scored_steps(self) -> List[StepScore]:
        return [s for s in self.steps if not s.skipped]


LambdaSchedule = Union[float, Sequence[float]]
TargetProvider = Callable[[int, FeatureVector], Sequence[TargetSpec]]


def _lambda_at(lam: LambdaSchedule, step: int) -> float:
    if isinstance(lam, (int, float)):
        return float(lam)
    return float(lam[step])


def mask_static(x_t, x_next, targets: Sequence[TargetSpec], *,
                epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Indices of the dimensions where the factual differs from at least
    one target by more than epsilon.

    An empty result means the step must be skipped (reason AllMasked).
    """
    xt = geometry._as_array(x_t)
    xn = geometry._as_array(x_next)
    if xn.shape != xt.shape:
        raise geometry.DimensionError(
            f"dimension mismatch: {xt.shape[0]} vs {xn.shape[0]}")
    diff = np.zeros(xt.shape[0], dtype=bool)
    for spec in targets:
        p = geometry._as_array(spec.point)
        if p.shape != xt.shape:
            raise geometry.DimensionError(
                f"target dimension {p.shape[0]} does not match factual {xt.shape[0]}")
        diff |= np.abs(p - xt) > epsilon
    return np.flatnonzero(diff)


def score_step(x_t, x_next, targets: Sequence[TargetSpec], lam: float, *,
               epsilon: float = DEFAULT_EPSILON, feature_weights=None,
               t_index: int = 0) -> StepScore:
    """Score one consecutive step against a set of targets.

    Targets that coincide with the factual in the masked subspace are
    dropped; a class with no surviving targets contributes nothing to the
    combined score.
    """
    if not targets:
        raise TargetError("no targets supplied for step")
    active = mask_static(x_t, x_next, targets, epsilon=epsilon)
    if active.size == 0:
        return StepScore(t_index=t_index, skipped=True,
                         skip_reason=SkipReason.ALL_MASKED)
    xt = geometry._as_array(x_t)[active]
    xn = geometry._as_array(x_next)[active]
    w = None
    if feature_weights is not None:
        w = np.asarray(feature_weights, dtype=float)[active]
    move = xn - xt
    if geometry.norm_of(move, w) <= epsilon:
        return StepScore(t_index=t_index, skipped=True,
                         skip_reason=SkipReason.NO_FEATURE_CHANGE)

    per_target: List[Tuple[str, Polarity, StepGeometry]] = []
    class_scores: Dict[str, List[float]] = {}
    class_weights: Dict[str, List[float]] = {}
    class_polarity: Dict[str, Polarity] = {}
    for spec in targets:
        prev = class_polarity.setdefault(spec.class_label, spec.polarity)
        if prev != spec.polarity:
            raise ConfigError(
                f"class {spec.class_label!r} carries conflicting polarities")
        try:
            geom = geometry.step_score(xt, xn, geometry._as_array(spec.point)[active],
                                       lam, epsilon=epsilon, weights=w)
        except DegenerateGeometry:
            continue  # target coincides with the factual in the subspace
        per_target.append((spec.class_label, spec.polarity, geom))
        class_scores.setdefault(spec.class_label, []).append(geom.s)
        class_weights.setdefault(spec.class_label, []).append(spec.weight)

    per_class = {label: float(np.mean(scores))
                 for label, scores in class_scores.items()}
    total_w = 0.0
    acc = 0.0
    for label, mean_s in per_class.items():
        cw = float(np.mean(class_weights[label]))
        acc += cw * float(class_polarity[label]) * mean_s
        total_w += cw
    combined = acc / total_w if total_w > 0 else None
    return StepScore(t_index=t_index, per_target=per_target,
                     per_class=per_class, combined=combined)


def score_trajectory(traj, target_provider: TargetProvider,
                     lam: LambdaSchedule, *,
                     epsilon: float = DEFAULT_EPSILON,
                     feature_weights=None) -> TrajectoryScore:
    """One StepScore per consecutive pair, targets re-queried at every step.

    ``traj`` is any object with a ``points`` attribute holding an ordered
    list of ``(t_index, FeatureVector)`` pairs (see pipeline.Trajectory).
    Step scores are labelled with the t_index of the later point, so index
    0 never appears.
    """
    points = traj.points if hasattr(traj, "points") else list(traj)
    if len(points) < 2:
        raise TrajectoryError(
            f"trajectory needs at least 2 points, got {len(points)}")
    steps: List[StepScore] = []
    skipped = 0
    for i in range(len(points) - 1):
        t_cur, x_cur = points[i]
        t_next, x_next = points[i + 1]
        targets = list(target_provider(t_cur, x_cur))
        step = score_step(x_cur, x_next, targets, _lambda_at(lam, i),
                          epsilon=epsilon, feature_weights=feature_weights,
                          t_index=t_next)
        if step.skipped:
            skipped += 1
        steps.append(step)
    return TrajectoryScore(steps=steps, skipped_count=skipped)


def feature_scores(traj, target_provider: TargetProvider,
                   lam: LambdaSchedule, *,
                   epsilon: float = DEFAULT_EPSILON) -> Dict[int, TrajectoryScore]:
    """Score each feature dimension on its own 1-D projection.

    Note these are not a linear decomposition of the full-vector score;
    in 1-D the angle score is exactly +/-1 for every scored step.
    """
    points = traj.points if hasattr(traj, "points") else list(traj)
    if len(points) < 2:
        raise TrajectoryError(
            f"trajectory needs at least 2 points, got {len(points)}")
    dim = points[0][1].dim
    out: Dict[int, TrajectoryScore] = {}
    for d in range(dim):
        steps: List[StepScore] = []
        skipped = 0
        for i in range(len(points) - 1):
            t_cur, x_cur = points[i]
            t_next, x_next = points[i + 1]
            targets = list(target_provider(t_cur, x_cur))
            slim = [TargetSpec(point=FeatureVector(spec.point.values[d:d + 1]),
                               class_label=spec.class_label,
                               polarity=spec.polarity, weight=spec.weight)
                    for spec in targets]
            step = score_step(x_cur.values[d:d + 1], x_next.values[d:d + 1],
                              slim, _lambda_at(lam, i), epsilon=epsilon,
                              t_index=t_next)
            if step.skipped:
                skipped += 1
            steps.append(step)
        out[d] = TrajectoryScore(steps=steps, skipped_count=skipped)
    return out
