"""Lift single-step geometry to whole trajectories with multiple targets.

Targets carry a class label, and each class a polarity (desirable counts
positively, undesirable negatively). Per step, static features identical
between the factual and every target are masked out, each target gets its
own raw step geometry, targets are averaged within their class, and
classes are combined into one signed score in [-1, 1].

A step's score uses only its two points and its targets. So
``score_cohort`` stacks the steps of a whole cohort, calls the target
provider once for them and scores them in one pass of one array kernel
(``_score_block``), in blocks of whole steps; targets arrive as a ``Targets``
block of arrays, the same slots of classes at every step. Each trajectory
gets its ``TrajectoryScore`` of per-step arrays as views of that pass, or
the error that keeps it from being scored; ``score_trajectory`` is the
one-trajectory case. ``geometry.step_score`` is the scalar reference the
kernel reproduces target by target.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import List, Union

import numpy as np

from .errors import ConfigError, DimensionError, TargetError, TraceError, TrajectoryError
from .geometry import EPSILON

_BLOCK_VALUES = 1 << 14   # (step, slot, dim) values per grid of a kernel block (128 KiB)


class Polarity(IntEnum):
    DESIRABLE = 1
    UNDESIRABLE = -1


class SkipReason(IntEnum):
    """Why a step has no score, by the code the kernel stores; a scored step
    stores 0."""

    ALL_MASKED = 1
    NO_FEATURE_CHANGE = 2


@dataclass(eq=False)
class TrajectoryScore:
    """A trajectory's scores as the kernel's arrays, one entry per step and
    one column of ``per_class`` per class."""

    steps: np.ndarray      # the t index of the step's later point
    skip: np.ndarray       # SkipReason code, 0 for a scored step
    combined: np.ndarray   # NaN for a skipped step
    labels: List[str]
    polarity: np.ndarray   # (len(labels),) 1.0 or -1.0 for each class
    per_class: np.ndarray  # (n_steps, len(labels)) means, NaN for a class not scored

    @property
    def skipped_count(self) -> int:
        return int(np.count_nonzero(self.skip))


@dataclass(eq=False)
class Targets:
    """The targets of a run of steps, of one trajectory or of many stacked:
    every step has one target in each slot, and slot ``j`` holds a target of
    class ``cls[j]``. ``points`` has one row per (step, slot), step-major.
    Each class has one polarity. ``len`` is the number of rows.

    A target provider (``targets.knn_provider``, ``targets.series_provider``)
    is called with the steps' t indices and their ``(n_steps, dim)`` points
    and returns their Targets; a row that is not finite marks a slot with no
    target at that step."""

    cls: np.ndarray       # (slots,) index into ``labels``
    labels: List[str]
    polarity: np.ndarray  # (len(labels),) 1.0 or -1.0 for each class
    points: np.ndarray    # (n_steps * slots, dim)

    def __len__(self) -> int:
        return len(self.points)


def _inner(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (a * w * b).sum(axis=-1)


def _norm(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.sqrt(_inner(v, v, w))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _score_block(xt, xn, p, lam, tg, out):
    """Score step ``i``, from ``xt[i]`` to ``xn[i]``, against its targets, the
    row ``p[i]`` of a ``(steps, slot, dim)`` grid, with
    ``geometry.step_score``'s arithmetic applied to every (step, slot) at
    once. Writes into ``out`` the per-step ``skip``, ``combined`` and
    ``per_class`` and two masks, whose steps' scores mean nothing: a target
    row that is not finite, and a kept value whose square overflows. A
    division by a zero norm only reaches a target that is not kept, a reached
    goal's r2, which is overwritten, or a NaN mean."""
    n = len(xt)
    no_target = ~np.isfinite(p).all(axis=(1, 2))
    # each step's own vectors broadcast over its slots
    x0 = xt[:, None]
    v_prime = p - x0
    # zero weight on the masked dims gives the inner products of the active
    # subspace: a dim is active where some target of the step differs from x_t
    active = (np.abs(v_prime) > EPSILON).any(axis=1) * 1.0   # a bool mask is cast per product
    move = xn - xt
    n_move = _norm(move, active)
    all_masked = ~active.any(axis=1)
    no_move = ~all_masked & (n_move <= EPSILON)
    live = ~(all_masked | no_move)

    w, v_t, n_vt = active[:, None], move[:, None], n_move[:, None]
    n_vp = _norm(v_prime, w)
    # a target on the factual in the active subspace is dropped; a live step
    # keeps one: some target has |v| > EPSILON in an active dim, and its norm
    # fl(sqrt(fl(sum of squares))) >= fl(sqrt(fl(v * v))) = |v|, as rounding is
    # monotone and v * v is normal (or inf), so sqrt gives |v| back exactly
    kept = live[:, None] & (n_vp > EPSILON)
    v_star = p - xn[:, None]
    n_vs = _norm(v_star, w)
    goal = n_vs <= EPSILON
    theta = _inner(v_t, v_prime, w) / (n_vt * n_vp)
    # x-hat: closest point to the target along the move (theta > 0), else x_t
    x_hat = np.where((theta > 0)[..., None],
                     x0 + (v_t / n_vt[..., None]) * n_vp[..., None] * theta[..., None], x0)
    v_hat = p - x_hat
    n_vhat = _norm(v_hat, w)
    best = ~goal & (n_vhat <= EPSILON)
    r2 = np.minimum(1.0, np.abs(_inner(v_hat, v_star, w)) / (n_vhat * n_vs))
    r2[goal | best] = 1.0
    r1 = np.clip(theta, -1.0, 1.0)
    r1[goal] = 1.0
    # a reached goal blends r1 = r2 = 1 into exactly 1 for every lambda in [0, 1]
    s = r1 if lam == 1.0 else r2 if lam == 0.0 else lam * r1 + (1.0 - lam) * r2
    # each norm is at most sqrt(max float): the sum is finite iff all five are
    overflow = (kept & ~np.isfinite(s + n_vt + n_vp + n_vs + n_vhat)).any(axis=1)

    # class means per (step, class), then their polarity-signed mean; an empty
    # cell's mean is 0 / 0 = NaN and adds nothing to the combination
    n_cls = len(tg.labels)
    key = (np.arange(n)[:, None] * n_cls + tg.cls)[kept]
    count = np.bincount(key, minlength=n * n_cls).reshape(n, n_cls)
    per_class = np.bincount(key, s[kept], n * n_cls).reshape(n, n_cls) / count
    combined = np.nansum(tg.polarity * per_class, axis=1) / (count > 0).sum(axis=1)
    for whole, part in zip(out, (all_masked + 2 * no_move, combined, per_class, no_target,
                                 overflow)):
        whole[...] = part


def score_cohort(provider, trajectories, lam: float) -> List[Union[TrajectoryScore, TraceError]]:
    """Score every trajectory against the targets ``provider`` gives for its
    steps' earlier points: one provider call on the earlier points of all of
    them stacked in order (none for no trajectory), then one pass of
    ``_score_block`` over all their steps, in blocks of whole steps of at
    most about ``_BLOCK_VALUES`` (step, slot, dim) values; no step's
    arithmetic uses another's. Returns, per trajectory in order, its
    TrajectoryScore as views of that pass, or in its place the TraceError it
    fails with: fewer than 2 points, else a target row that is not finite
    (naming its class and the t its step starts from), else an overflow
    (naming the t of the first such step)."""
    # the range test also rejects a nan lambda
    if not (0.0 <= lam <= 1.0):
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    if not trajectories:
        return []
    xt = np.concatenate([tr.x[:-1] for tr in trajectories])
    tg = provider(np.concatenate([tr.t[:-1] for tr in trajectories]), xt)
    bounds = np.cumsum([0, *(len(tr.t[1:]) for tr in trajectories)]).tolist()
    out: list = [TrajectoryError(f"trajectory needs at least 2 points, got {len(tr.t)}")
                 if len(tr.t) < 2 else None for tr in trajectories]
    (n, dim), slots = xt.shape, len(tg.cls)
    if not n:
        return out
    if not slots:
        raise TargetError("no targets supplied for step")
    if tg.points.shape != (n * slots, dim):
        raise DimensionError(f"target points of shape {tg.points.shape} do not match "
                             f"{n} steps of {slots} targets in dimension {dim}")
    if tg.polarity.shape != (len(tg.labels),):
        raise DimensionError(f"polarities of shape {tg.polarity.shape} do not match "
                             f"{len(tg.labels)} classes")
    xn = np.concatenate([tr.x[1:] for tr in trajectories])
    steps = np.concatenate([tr.t[1:] for tr in trajectories])
    p = tg.points.reshape(n, slots, dim)
    block = max(1, _BLOCK_VALUES // (slots * dim))
    skip, combined, per_class, no_target, overflow = per_step = (
        np.empty(n, np.int64), np.empty(n), np.empty((n, len(tg.labels))),
        np.empty(n, bool), np.empty(n, bool))
    for i in range(0, n, block):
        _score_block(xt[i:i + block], xn[i:i + block], p[i:i + block], float(lam), tg,
                     [whole[i:i + block] for whole in per_step])
    flagged = np.searchsorted(bounds, np.flatnonzero(no_target | overflow), "right") - 1
    for j in set(flagged.tolist()):
        a, b = bounds[j:j + 2]
        if no_target[a:b].any():
            i = a + no_target[a:b].argmax()
            row = np.isfinite(tg.points[i * slots:(i + 1) * slots]).all(axis=1).argmin()
            out[j] = TargetError(f"class {tg.labels[tg.cls[row]]!r} has no target "
                                 f"at t={trajectories[j].t[i - a]}")
        else:
            out[j] = TrajectoryError(f"score at t={steps[a + overflow[a:b].argmax()]} is not "
                                     "finite: a value's square overflows")
    for j, result in enumerate(out):
        if result is None:
            a, b = bounds[j:j + 2]
            out[j] = TrajectoryScore(steps[a:b], skip[a:b], combined[a:b], tg.labels,
                                     tg.polarity, per_class[a:b])
    return out


def score_trajectory(traj, targets: Targets, lam: float) -> TrajectoryScore:
    """Score every consecutive pair against its own step's targets.

    ``traj`` is a pipeline.Trajectory: time indices ``t`` and one row of
    ``x`` per index. ``targets`` holds the targets of each step's earlier
    point, as a provider returns them for ``traj.t[:-1]`` and
    ``traj.x[:-1]``. Steps are labelled with the t index of the later point,
    so index 0 never appears. The one-trajectory case of ``score_cohort``:
    raises the TraceError that it gives in the trajectory's place.
    """
    result, = score_cohort(lambda t, x: targets, [traj], lam)
    if isinstance(result, TraceError):
        raise result
    return result
