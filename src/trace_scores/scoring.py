"""Lift single-step geometry to whole trajectories with multiple targets.

Targets carry a class label and a polarity (desirable counts positively,
undesirable negatively). Per step, static features identical between the
factual and every target are masked out, each target gets its own raw
step geometry, targets are averaged within their class, and classes are
combined into one signed score in [-1, 1].

A trajectory is scored by one array kernel (``_score_rows``) over one row
per (step, target); ``geometry.step_score`` is the scalar reference it
reproduces target by target.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import geometry
from .errors import ConfigError, DimensionError, TargetError, TrajectoryError
from .geometry import DEFAULT_EPSILON, Degeneracy, FeatureVector, StepGeometry


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

# degeneracy flags by the code the kernel computes: goal_reached + 2 * best_achieved
_FLAGS = (Degeneracy.NONE, Degeneracy.GOAL_REACHED, Degeneracy.BEST_ACHIEVED)
# skip reasons by the code the kernel computes: all_masked + 2 * no_move
_SKIPS = (None, SkipReason.ALL_MASKED, SkipReason.NO_FEATURE_CHANGE)


@dataclass(eq=False)
class _Rows:
    """A trajectory's steps with their targets stacked one row per
    (step, target): rows in step order and, within a step, in provider order.
    Every step has at least one row."""

    x: np.ndarray            # (n_steps + 1, dim) the trajectory's points
    t_index: List[int]       # per step, the t_index of its later point
    lam: np.ndarray          # (n_steps,) each step's lambda
    specs: List[TargetSpec]  # per row
    step: np.ndarray         # (rows,) step id
    starts: np.ndarray       # (n_steps,) first row of each step
    cls: np.ndarray          # (rows,) index into ``labels``
    labels: List[str]
    polarity: np.ndarray     # (rows,)
    weight: np.ndarray       # (rows,)
    points: np.ndarray       # (rows, dim)

    def column(self, d: int) -> "_Rows":
        """The same rows restricted to feature ``d``."""
        return replace(self, x=self.x[:, d:d + 1], points=self.points[:, d:d + 1])


def _stack(xs: Sequence, t_index: Sequence[int], target_lists: Sequence[Sequence[TargetSpec]],
           lam: LambdaSchedule) -> _Rows:
    """Stack ``len(xs) - 1`` steps; step ``i`` runs from ``xs[i]`` to
    ``xs[i + 1]`` and is scored against ``target_lists[i]``."""
    specs: List[TargetSpec] = []
    counts = []
    for targets in target_lists:
        if not targets:
            raise TargetError("no targets supplied for step")
        specs += targets
        counts.append(len(targets))
    xs = [geometry._as_array(x) for x in xs]
    for a, b in zip(xs, xs[1:]):
        if b.shape != a.shape:
            raise DimensionError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    dim = xs[0].shape[0]
    pts = [geometry._as_array(spec.point) for spec in specs]
    bad = next((p for p in pts if p.shape != (dim,)), None)
    if bad is not None:
        raise DimensionError(f"target dimension {bad.shape[0]} does not match factual {dim}")
    ids: Dict[str, int] = {}
    cls = [ids.setdefault(spec.class_label, len(ids)) for spec in specs]
    n = len(counts)
    if isinstance(lam, (int, float)):
        lams = np.full(n, float(lam))
    else:
        lams = np.array([float(lam[i]) for i in range(n)])
    counts = np.array(counts)
    return _Rows(x=np.array(xs), t_index=list(t_index), lam=lams, specs=specs,
                 step=np.repeat(np.arange(n), counts),
                 starts=np.cumsum(counts) - counts,
                 cls=np.array(cls), labels=list(ids),
                 polarity=np.array([float(spec.polarity) for spec in specs]),
                 weight=np.array([spec.weight for spec in specs], dtype=float),
                 points=np.array(pts))


def _active(rows: _Rows, epsilon: float) -> np.ndarray:
    """(n_steps, dim): where some target of the step differs from x_t by
    more than epsilon."""
    far = np.abs(rows.points - rows.x[:-1][rows.step]) > epsilon
    return np.logical_or.reduceat(far, rows.starts, axis=0)


def _inner(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (a * w * b).sum(axis=1)


def _norm(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.sqrt(_inner(v, v, w))


def _check_live_steps(rows: _Rows, live: np.ndarray) -> None:
    """Raise for the first scored step whose lambda lies outside [0, 1] or
    whose targets give one class two polarities."""
    n_cls = len(rows.labels)
    key = rows.step * n_cls + rows.cls
    first = np.zeros(len(rows.lam) * n_cls)
    first[key[::-1]] = rows.polarity[::-1]   # the first row of each (step, class) wins
    conflict = np.flatnonzero(live[rows.step] & (rows.polarity != first[key]))
    bad_lam = np.flatnonzero(live & ~((rows.lam >= 0.0) & (rows.lam <= 1.0)))
    if bad_lam.size and (not conflict.size or bad_lam[0] <= rows.step[conflict[0]]):
        raise ConfigError(f"lambda must lie in [0, 1], got {rows.lam[bad_lam[0]]}")
    if conflict.size:
        label = rows.labels[rows.cls[conflict[0]]]
        raise ConfigError(f"class {label!r} carries conflicting polarities")


@np.errstate(divide="ignore", invalid="ignore")
def _score_rows(rows: _Rows, epsilon: float, feature_weights) -> List[StepScore]:
    """Score every step of ``rows`` with ``geometry.step_score``'s
    arithmetic, applied to all rows at once. A division by a zero norm only
    reaches a reached goal's r2, which is overwritten, or the combined score
    of a step whose every target was dropped, which is never read."""
    xt, xn = rows.x[:-1], rows.x[1:]
    n = len(xt)
    # zero weight on the masked dims gives the inner products of the active subspace
    active = _active(rows, epsilon)
    w_full = geometry._check_weights(feature_weights, xt.shape[1])
    w_step = active * (1.0 if w_full is None else w_full)
    move = xn - xt
    n_move = _norm(move, w_step)
    all_masked = ~active.any(axis=1)
    no_move = ~all_masked & (n_move <= epsilon)
    live = ~(all_masked | no_move)
    _check_live_steps(rows, live)

    # a target on the factual in the active subspace is dropped
    v_prime = rows.points - xt[rows.step]
    n_vp = _norm(v_prime, w_step[rows.step])
    kept = np.flatnonzero(live[rows.step] & (n_vp > epsilon))
    ks = rows.step[kept]
    w, v_t, n_vt = w_step[ks], move[ks], n_move[ks][:, None]
    v_prime, n_vp, p = v_prime[kept], n_vp[kept][:, None], rows.points[kept]

    v_star = p - xn[ks]
    n_vs = _norm(v_star, w)
    goal = n_vs <= epsilon
    theta = _inner(v_t, v_prime, w) / (n_vt[:, 0] * n_vp[:, 0])
    # x-hat: closest point to the target along the move (theta > 0), else x_t
    x0 = xt[ks]
    x_hat = np.where((theta > 0)[:, None], x0 + (v_t / n_vt) * n_vp * theta[:, None], x0)
    v_hat = p - x_hat
    n_vhat = _norm(v_hat, w)
    best = ~goal & (n_vhat <= epsilon)
    r2 = np.minimum(1.0, np.abs(_inner(v_hat, v_star, w)) / (n_vhat * n_vs))
    r2[goal | best] = 1.0
    r1 = np.clip(theta, -1.0, 1.0)
    r1[goal] = 1.0
    lam = rows.lam[ks]
    # a reached goal blends r1 = r2 = 1 into exactly 1 for every lambda in [0, 1]
    s = np.where(lam == 1.0, r1, np.where(lam == 0.0, r2, lam * r1 + (1.0 - lam) * r2))

    # class means per (step, class), then the weighted polarity combination
    n_cls = len(rows.labels)
    size = n * n_cls
    key = ks * n_cls + rows.cls[kept]
    count = np.maximum(np.bincount(key, minlength=size), 1)  # empty cells stay 0
    mean_s = np.bincount(key, s, size) / count
    mean_w = np.bincount(key, rows.weight[kept], size) / count
    polarity = np.zeros(size)
    polarity[key] = rows.polarity[kept]
    acc = (mean_w * polarity * mean_s).reshape(n, n_cls).sum(axis=1)
    total = mean_w.reshape(n, n_cls).sum(axis=1)

    geoms = [StepGeometry(r1=a, r2=b, s=c, degenerate=_FLAGS[f]) for a, b, c, f in
             zip(r1.tolist(), r2.tolist(), s.tolist(), (goal + 2 * best).tolist())]
    bounds = np.searchsorted(ks, np.arange(n + 1)).tolist()
    combined = (acc / total).tolist()
    kept, key, mean_s = kept.tolist(), key.tolist(), mean_s.tolist()
    out: List[StepScore] = []
    for i, (t, skip) in enumerate(zip(rows.t_index, (all_masked + 2 * no_move).tolist())):
        if skip:
            out.append(StepScore(t_index=t, skipped=True, skip_reason=_SKIPS[skip]))
            continue
        per_target = []
        per_class: Dict[str, float] = {}
        for j in range(bounds[i], bounds[i + 1]):
            spec = rows.specs[kept[j]]
            per_target.append((spec.class_label, spec.polarity, geoms[j]))
            per_class.setdefault(spec.class_label, mean_s[key[j]])
        # a step whose every target was dropped has no combined score
        out.append(StepScore(t_index=t, per_target=per_target, per_class=per_class,
                             combined=combined[i] if per_target else None))
    return out


def mask_static(x_t, x_next, targets: Sequence[TargetSpec], *,
                epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Indices of the dimensions where the factual differs from at least
    one target by more than epsilon.

    An empty result means the step must be skipped (reason AllMasked).
    """
    targets = list(targets)
    if not targets:
        return np.flatnonzero([])  # no target differs anywhere
    return np.flatnonzero(_active(_stack([x_t, x_next], [0], [targets], 0.0), epsilon)[0])


def score_step(x_t, x_next, targets: Sequence[TargetSpec], lam: float, *,
               epsilon: float = DEFAULT_EPSILON, feature_weights=None,
               t_index: int = 0) -> StepScore:
    """Score one consecutive step against a set of targets.

    Targets that coincide with the factual in the masked subspace are
    dropped; a class with no surviving targets contributes nothing to the
    combined score.
    """
    rows = _stack([x_t, x_next], [t_index], [list(targets)], lam)
    return _score_rows(rows, epsilon, feature_weights)[0]


def _gather(traj, target_provider: TargetProvider, lam: LambdaSchedule) -> _Rows:
    """Query the provider once per step with ``(t, x)`` of its earlier point."""
    points = traj.points if hasattr(traj, "points") else list(traj)
    if len(points) < 2:
        raise TrajectoryError(
            f"trajectory needs at least 2 points, got {len(points)}")
    target_lists = [list(target_provider(t, x)) for t, x in points[:-1]]
    return _stack([x for _, x in points], [t for t, _ in points[1:]], target_lists, lam)


def _trajectory_score(steps: List[StepScore]) -> TrajectoryScore:
    return TrajectoryScore(steps=steps, skipped_count=sum(s.skipped for s in steps))


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
    rows = _gather(traj, target_provider, lam)
    return _trajectory_score(_score_rows(rows, epsilon, feature_weights))


def feature_scores(traj, target_provider: TargetProvider,
                   lam: LambdaSchedule, *,
                   epsilon: float = DEFAULT_EPSILON) -> Dict[int, TrajectoryScore]:
    """Score each feature dimension on its own 1-D projection.

    Note these are not a linear decomposition of the full-vector score;
    in 1-D the angle score is exactly +/-1 for every scored step.
    """
    rows = _gather(traj, target_provider, lam)
    return {d: _trajectory_score(_score_rows(rows.column(d), epsilon, None))
            for d in range(rows.x.shape[1])}
