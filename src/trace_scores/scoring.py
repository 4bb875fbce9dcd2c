"""Lift single-step geometry to whole trajectories with multiple targets.

Targets carry a class label, and each class a polarity (desirable counts
positively, undesirable negatively). Per step, static features identical
between the factual and every target are masked out, each target gets its
own raw step geometry, targets are averaged within their class, and
classes are combined into one signed score in [-1, 1].

A trajectory's targets arrive as a ``Targets`` block of arrays, the same
slots of classes at every step, and one array kernel (``_score_rows``)
scores all of them into a ``TrajectoryScore`` of arrays;
``geometry.step_score`` is the scalar reference it reproduces target by
target.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import List

import numpy as np

from .errors import ConfigError, DimensionError, TargetError, TrajectoryError
from .geometry import EPSILON


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
    """A trajectory's scores as the kernel's arrays: first one entry per
    step, then one per kept target, in step order."""

    steps: np.ndarray      # the t index of the step's later point
    skip: np.ndarray       # SkipReason code, 0 for a scored step
    combined: np.ndarray   # NaN for a skipped step
    labels: List[str]
    polarity: np.ndarray   # (len(labels),) 1.0 or -1.0 for each class
    per_class: np.ndarray  # (n_steps, len(labels)) means, NaN for a class not scored
    step: np.ndarray       # index into ``steps``
    cls: np.ndarray        # index into ``labels``
    r1: np.ndarray
    r2: np.ndarray
    s: np.ndarray
    flag: np.ndarray       # Degeneracy code

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


def cohort_targets(provider, trajectories) -> List[Targets]:
    """Each trajectory's Targets, as views of one ``provider`` call on the
    earlier points of all of them stacked in order; no call for no trajectory."""
    if not trajectories:
        return []
    tg = provider(np.concatenate([traj.t[:-1] for traj in trajectories]),
                  np.concatenate([traj.x[:-1] for traj in trajectories]))
    ends = np.cumsum([len(traj.t) - 1 for traj in trajectories])[:-1] * len(tg.cls)
    return [Targets(tg.cls, tg.labels, tg.polarity, points) for points in np.split(tg.points, ends)]


def _inner(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (a * w * b).sum(axis=-1)


def _norm(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.sqrt(_inner(v, v, w))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _score_rows(x: np.ndarray, t: np.ndarray, lam: float, tg: Targets) -> TrajectoryScore:
    """Score the steps of the ``(n_steps + 1, dim)`` points ``x`` against
    ``tg`` with ``geometry.step_score``'s arithmetic, applied to every
    (step, slot) at once; step ``i`` runs from ``x[i]`` at ``t[i]`` to
    ``x[i + 1]``, its label ``t[i + 1]``. A division by a zero norm only
    reaches a target that is not kept, a reached goal's r2, which is
    overwritten, or a NaN mean. A kept value whose square overflows raises
    TrajectoryError."""
    xt, xn, steps = x[:-1], x[1:], t[1:]
    n, dim = xt.shape
    slots = len(tg.cls)
    if not slots:
        raise TargetError("no targets supplied for step")
    if tg.points.shape != (n * slots, dim):
        raise DimensionError(f"target points of shape {tg.points.shape} do not match "
                             f"{n} steps of {slots} targets in dimension {dim}")
    if tg.polarity.shape != (len(tg.labels),):
        raise DimensionError(f"polarities of shape {tg.polarity.shape} do not match "
                             f"{len(tg.labels)} classes")
    if not np.isfinite(tg.points).all():
        row = np.argmin(np.isfinite(tg.points).all(axis=1))
        raise TargetError(f"class {tg.labels[tg.cls[row % slots]]!r} has no target "
                          f"at t={t[row // slots]}")
    # (step, slot, dim) grids; each step's own vectors broadcast over its slots
    p = tg.points.reshape(n, slots, dim)
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
    bad = kept & ~np.isfinite(s + n_vt + n_vp + n_vs + n_vhat)
    if bad.any():
        raise TrajectoryError(f"score at t={steps[bad.any(axis=1).argmax()]} is not finite: "
                              "a value's square overflows")

    # class means per (step, class), then their polarity-signed mean; an empty
    # cell's mean is 0 / 0 = NaN and adds nothing to the combination
    ks, slot = np.nonzero(kept)
    cls = tg.cls[slot]
    n_cls = len(tg.labels)
    key = ks * n_cls + cls
    count = np.bincount(key, minlength=n * n_cls).reshape(n, n_cls)
    per_class = np.bincount(key, s[kept], n * n_cls).reshape(n, n_cls) / count
    combined = np.nansum(tg.polarity * per_class, axis=1) / (count > 0).sum(axis=1)
    return TrajectoryScore(
        steps=steps, skip=all_masked + 2 * no_move, combined=combined,
        labels=tg.labels, polarity=tg.polarity, per_class=per_class, step=ks, cls=cls,
        r1=r1[kept], r2=r2[kept], s=s[kept], flag=(goal + 2 * best)[kept])


def score_trajectory(traj, targets: Targets, lam: float) -> TrajectoryScore:
    """Score every consecutive pair against its own step's targets.

    ``traj`` is a pipeline.Trajectory: time indices ``t`` and one row of
    ``x`` per index. ``targets`` holds the targets of each step's earlier
    point, as a provider returns them for ``traj.t[:-1]`` and
    ``traj.x[:-1]``; a target row that is not finite raises TargetError
    naming its class and the t its step starts from. Steps are labelled with
    the t index of the later point, so index 0 never appears.
    """
    t, x = traj.t, traj.x
    if len(t) < 2:
        raise TrajectoryError(f"trajectory needs at least 2 points, got {len(t)}")
    # the range test also rejects a nan lambda
    if not (0.0 <= lam <= 1.0):
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    return _score_rows(x, t, float(lam), targets)
