"""Lift single-step geometry to whole trajectories with multiple targets.

Targets carry a class label and a polarity (desirable counts positively,
undesirable negatively). Per step, static features identical between the
factual and every target are masked out, each target gets its own raw
step geometry, targets are averaged within their class, and classes are
combined into one signed score in [-1, 1].

A trajectory's targets come from one provider call as a ``Targets`` block
of arrays, one row per (step, target), and one array kernel
(``_score_rows``) scores all of them; ``geometry.step_score`` is the scalar
reference it reproduces target by target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(eq=False)
class Targets:
    """The targets of a trajectory's steps, one row per (step, target): rows
    in step order and, within a step, in the provider's order. ``len`` is
    the number of rows."""

    step: np.ndarray      # (rows,) the step of each row
    cls: np.ndarray       # (rows,) index into ``labels``
    labels: List[str]
    polarity: np.ndarray  # (rows,) 1.0 or -1.0
    weight: np.ndarray    # (rows,)
    points: np.ndarray    # (rows, dim)

    def __len__(self) -> int:
        return len(self.step)


LambdaSchedule = Union[float, Sequence[float]]
# called once per trajectory with its steps' t indices and (n_steps, dim) points
TargetProvider = Callable[[np.ndarray, np.ndarray], Targets]

# degeneracy flags by the code the kernel computes: goal_reached + 2 * best_achieved
_FLAGS = (Degeneracy.NONE, Degeneracy.GOAL_REACHED, Degeneracy.BEST_ACHIEVED)
# skip reasons by the code the kernel computes: all_masked + 2 * no_move
_SKIPS = (None, SkipReason.ALL_MASKED, SkipReason.NO_FEATURE_CHANGE)
_POLARITIES = {float(p): p for p in Polarity}


def per_step(fn: Callable[[int, np.ndarray], Sequence[TargetSpec]]) -> TargetProvider:
    """The provider that asks ``fn(t, x)`` for each step's TargetSpecs in
    turn, ``t`` and ``x`` being the step's earlier t index and point."""
    def provide(t_index, xs) -> Targets:
        lists = [list(fn(t, x)) for t, x in zip(np.asarray(t_index).tolist(), xs)]
        specs = [spec for targets in lists for spec in targets]
        step = np.repeat(np.arange(len(lists)), [len(targets) for targets in lists])
        pts = [geometry._as_array(spec.point) for spec in specs]
        bad = next((p for p in pts if p.shape != xs.shape[1:]), None)
        if bad is not None:
            raise DimensionError(
                f"target dimension {bad.shape[0]} does not match factual {xs.shape[1]}")
        ids: Dict[str, int] = {}
        cls = [ids.setdefault(spec.class_label, len(ids)) for spec in specs]
        return Targets(step=step, cls=np.array(cls, dtype=int), labels=list(ids),
                       polarity=np.array([float(s.polarity) for s in specs]),
                       weight=np.array([s.weight for s in specs], dtype=float),
                       points=np.array(pts))
    return provide


def _inner(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (a * w * b).sum(axis=1)


def _norm(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.sqrt(_inner(v, v, w))


def _check_live_steps(tg: Targets, lams: np.ndarray, live: np.ndarray) -> None:
    """Raise for the first scored step whose lambda lies outside [0, 1] or
    whose targets give one class two polarities."""
    n_cls = len(tg.labels)
    key = tg.step * n_cls + tg.cls
    first = np.zeros(len(lams) * n_cls)
    first[key[::-1]] = tg.polarity[::-1]   # the first row of each (step, class) wins
    conflict = np.flatnonzero(live[tg.step] & (tg.polarity != first[key]))
    bad_lam = np.flatnonzero(live & ~((lams >= 0.0) & (lams <= 1.0)))
    if bad_lam.size and (not conflict.size or bad_lam[0] <= tg.step[conflict[0]]):
        raise ConfigError(f"lambda must lie in [0, 1], got {lams[bad_lam[0]]}")
    if conflict.size:
        label = tg.labels[tg.cls[conflict[0]]]
        raise ConfigError(f"class {label!r} carries conflicting polarities")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _score_rows(x: np.ndarray, t_index: Sequence[int], lam: LambdaSchedule, tg: Targets,
                epsilon: float, feature_weights, subject=None) -> List[StepScore]:
    """Score the steps of the ``(n_steps + 1, dim)`` points ``x`` against
    ``tg`` with ``geometry.step_score``'s arithmetic, applied to all rows at
    once; step ``i`` runs from ``x[i]`` to ``x[i + 1]`` and is labelled
    ``t_index[i]``. A division by a zero norm only reaches a reached goal's
    r2, which is overwritten, or the combined score of a step whose every
    target was dropped, which is never read. A value whose square overflows
    raises TrajectoryError naming ``subject`` and the step's t."""
    xt, xn = x[:-1], x[1:]
    n, dim = xt.shape
    counts = np.bincount(tg.step, minlength=n)
    if len(counts) > n or not counts.all():
        raise TargetError("no targets supplied for step")
    if tg.points.shape != (len(tg), dim):
        raise DimensionError(f"target points of shape {tg.points.shape} do not match "
                             f"factual dimension {dim}")
    lams = (np.full(n, float(lam)) if isinstance(lam, (int, float))
            else np.array([float(lam[i]) for i in range(n)]))
    # zero weight on the masked dims gives the inner products of the active
    # subspace: a dim is active where some target of the step differs from x_t
    far = np.abs(tg.points - xt[tg.step]) > epsilon
    active = np.logical_or.reduceat(far, np.cumsum(counts) - counts, axis=0)
    w_full = geometry._check_weights(feature_weights, dim)
    w_step = active * (1.0 if w_full is None else w_full)
    move = xn - xt
    n_move = _norm(move, w_step)
    all_masked = ~active.any(axis=1)
    no_move = ~all_masked & (n_move <= epsilon)
    live = ~(all_masked | no_move)
    _check_live_steps(tg, lams, live)

    # a target on the factual in the active subspace is dropped
    v_prime = tg.points - xt[tg.step]
    n_vp = _norm(v_prime, w_step[tg.step])
    kept = np.flatnonzero(live[tg.step] & (n_vp > epsilon))
    ks = tg.step[kept]
    w, v_t, n_vt = w_step[ks], move[ks], n_move[ks][:, None]
    v_prime, n_vp, p = v_prime[kept], n_vp[kept][:, None], tg.points[kept]

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
    lam = lams[ks]
    # a reached goal blends r1 = r2 = 1 into exactly 1 for every lambda in [0, 1]
    s = np.where(lam == 1.0, r1, np.where(lam == 0.0, r2, lam * r1 + (1.0 - lam) * r2))
    # each norm is at most sqrt(max float): the sum is finite iff all five are
    bad = np.flatnonzero(~np.isfinite(s + n_vt[:, 0] + n_vp[:, 0] + n_vs + n_vhat))
    if bad.size:
        where = "" if subject is None else f"subject {subject!r}: "
        raise TrajectoryError(f"{where}score at t={t_index[ks[bad[0]]]} is not finite: "
                              "a value's square overflows")

    # class means per (step, class), then the weighted polarity combination
    n_cls = len(tg.labels)
    size = n * n_cls
    key = ks * n_cls + tg.cls[kept]
    count = np.maximum(np.bincount(key, minlength=size), 1)  # empty cells stay 0
    mean_s = np.bincount(key, s, size) / count
    mean_w = np.bincount(key, tg.weight[kept], size) / count
    polarity = np.zeros(size)
    polarity[key] = tg.polarity[kept]
    acc = (mean_w * polarity * mean_s).reshape(n, n_cls).sum(axis=1)
    total = mean_w.reshape(n, n_cls).sum(axis=1)

    geoms = [StepGeometry(r1=a, r2=b, s=c, degenerate=_FLAGS[f]) for a, b, c, f in
             zip(r1.tolist(), r2.tolist(), s.tolist(), (goal + 2 * best).tolist())]
    label = [tg.labels[c] for c in tg.cls[kept].tolist()]
    per_target = list(zip(label, [_POLARITIES[v] for v in tg.polarity[kept].tolist()], geoms))
    per_class = list(zip(label, mean_s[key].tolist()))
    bounds = np.searchsorted(ks, np.arange(n + 1)).tolist()
    combined = (acc / total).tolist()
    out: List[StepScore] = []
    for i, (t, skip) in enumerate(zip(t_index, (all_masked + 2 * no_move).tolist())):
        if skip:
            out.append(StepScore(t_index=t, skipped=True, skip_reason=_SKIPS[skip]))
            continue
        a, b = bounds[i], bounds[i + 1]
        # a step whose every target was dropped has no combined score
        out.append(StepScore(t_index=t, per_target=per_target[a:b],
                             per_class=dict(per_class[a:b]),
                             combined=combined[i] if b > a else None))
    return out


def score_step(x_t, x_next, targets: Sequence[TargetSpec], lam: float, *,
               epsilon: float = DEFAULT_EPSILON, feature_weights=None) -> StepScore:
    """Score one consecutive step against a set of targets.

    Targets that coincide with the factual in the masked subspace are
    dropped; a class with no surviving targets contributes nothing to the
    combined score.
    """
    x_t, x_next = geometry._as_array(x_t), geometry._as_array(x_next)
    if x_next.shape != x_t.shape:
        raise DimensionError(f"dimension mismatch: {x_t.shape[0]} vs {x_next.shape[0]}")
    x = np.array([x_t, x_next])
    tg = per_step(lambda t, x: targets)(np.zeros(1, dtype=int), x[:1])
    return _score_rows(x, [0], lam, tg, epsilon, feature_weights)[0]


def score_trajectory(traj, target_provider: TargetProvider,
                     lam: LambdaSchedule, *,
                     epsilon: float = DEFAULT_EPSILON,
                     feature_weights=None) -> TrajectoryScore:
    """One StepScore per consecutive pair, targets re-queried at every step.

    ``traj`` is a pipeline.Trajectory: its ``points`` are an ordered list
    of ``(t_index, FeatureVector)`` pairs. The provider is called once,
    with the t indices of the steps' earlier points and those points as an
    ``(n_steps, dim)`` matrix, and returns their Targets; ``per_step`` turns
    a per-step callable into a provider. Step scores are labelled with the
    t_index of the later point, so index 0 never appears.
    """
    points = traj.points
    if len(points) < 2:
        raise TrajectoryError(
            f"trajectory needs at least 2 points, got {len(points)}")
    t = np.array([t for t, _ in points])
    x = np.array([p.values for _, p in points])
    steps = _score_rows(x, t[1:].tolist(), lam, target_provider(t[:-1], x[:-1]),
                        epsilon, feature_weights, traj.subject_id)
    return TrajectoryScore(steps=steps, skipped_count=sum(s.skipped for s in steps))
