"""Inner-product-space primitives for single-step trajectory scoring.

Everything here is a pure function of plain 1-D arrays (or sequences of
floats). The central pieces are the closest-point projection of a target
onto the observed move direction, the angle score ``r1``, the landing
score ``r2``, and their weighted combination ``step_score``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import ArrayLike

from .errors import ConfigError, DegenerateGeometry, DimensionError

EPSILON = 1e-9   # a norm at most this counts as zero


class Degeneracy(Enum):
    """Why a step's geometry collapsed to a special case, as ``r2`` and
    ``step_score`` report it."""

    NONE = 0
    GOAL_REACHED = 1
    BEST_ACHIEVED = 2


@dataclass(frozen=True, eq=False)
class StepGeometry:
    """Raw per-step, per-target scores."""

    r1: float
    r2: float
    s: float
    degenerate: Degeneracy = Degeneracy.NONE


def _as_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def inner(a: ArrayLike, b: ArrayLike) -> float:
    """Euclidean dot product."""
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise DimensionError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    return float(np.dot(av, bv))


def norm_of(v: ArrayLike) -> float:
    """Euclidean norm."""
    return math.sqrt(inner(v, v))


def r1(v_t: ArrayLike, v_prime: ArrayLike) -> float:
    """Angle cosine between the observed change and the desired change.

    Value in [-1, 1]; invariant under positive rescaling of either argument.
    """
    n1 = norm_of(v_t)
    n2 = norm_of(v_prime)
    if n1 <= EPSILON or n2 <= EPSILON:
        raise DegenerateGeometry("zero-norm change vector")
    val = inner(v_t, v_prime) / (n1 * n2)
    return min(1.0, max(-1.0, val))


def closest_point(a: ArrayLike, b: ArrayLike, c: ArrayLike) -> np.ndarray:
    """Closest point to ``a`` on the line through ``b`` in direction ``c - b``.

    d = b + (h / ||h||) * ||g|| * theta with h = c - b, g = a - b and
    theta the angle cosine between h and g.
    """
    av, bv, cv = _as_array(a), _as_array(b), _as_array(c)
    if not (av.shape == bv.shape == cv.shape):
        raise DimensionError(
            f"dimension mismatch: {av.shape[0]}, {bv.shape[0]}, {cv.shape[0]}")
    h = cv - bv
    g = av - bv
    nh = norm_of(h)
    ng = norm_of(g)
    if nh <= EPSILON:
        raise DegenerateGeometry("direction c - b is degenerate")
    if ng <= EPSILON:
        raise DegenerateGeometry("a coincides with b")
    theta = inner(h, g) / (nh * ng)
    return bv + (h / nh) * ng * theta


def r2(x_t: ArrayLike, x_next: ArrayLike, x_target: ArrayLike):
    """Landing score: |cos| between the residual from the best achievable
    point and the residual from the actual landing point.

    Returns ``(value, flag)`` with value in [0, 1]. The flag marks the
    goal-reached (x_next == target) and best-achieved (projection lands on
    the target) special cases, both of which score 1.
    """
    xt, xn, xp = _as_array(x_t), _as_array(x_next), _as_array(x_target)
    if not (xt.shape == xn.shape == xp.shape):
        raise DimensionError(
            f"dimension mismatch: {xt.shape[0]}, {xn.shape[0]}, {xp.shape[0]}")
    v_t = xn - xt
    v_prime = xp - xt
    n_vt = norm_of(v_t)
    n_vp = norm_of(v_prime)
    if n_vt <= EPSILON:
        raise DegenerateGeometry("no movement between steps")
    if n_vp <= EPSILON:
        raise DegenerateGeometry("target coincides with factual")
    v_star = xp - xn
    if norm_of(v_star) <= EPSILON:
        return 1.0, Degeneracy.GOAL_REACHED
    # x-hat: closest point to the target along the move (theta > 0), else x_t
    theta = inner(v_t, v_prime) / (n_vt * n_vp)
    x_hat = closest_point(xp, xt, xn) if theta > 0 else xt
    v_hat = xp - x_hat
    n_vhat = norm_of(v_hat)
    if n_vhat <= EPSILON:
        return 1.0, Degeneracy.BEST_ACHIEVED
    val = abs(inner(v_hat, v_star)) / (n_vhat * norm_of(v_star))
    return min(1.0, val), Degeneracy.NONE


def step_score(x_t: ArrayLike, x_next: ArrayLike, x_target: ArrayLike,
               lam: float) -> StepGeometry:
    """Combined score s = lam * r1 + (1 - lam) * r2 for one step and target.

    lam = 1 reduces bit-for-bit to r1 and lam = 0 to r2. Reaching the
    target exactly forces r1 = r2 = s = 1 regardless of lam.
    """
    if not (0.0 <= lam <= 1.0):
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    xt, xn, xp = _as_array(x_t), _as_array(x_next), _as_array(x_target)
    r2_val, flag = r2(xt, xn, xp)
    if flag is Degeneracy.GOAL_REACHED:
        return StepGeometry(r1=1.0, r2=1.0, s=1.0, degenerate=flag)
    r1_val = r1(xn - xt, xp - xt)
    if lam == 1.0:
        s = r1_val
    elif lam == 0.0:
        s = r2_val
    else:
        s = lam * r1_val + (1.0 - lam) * r2_val
    return StepGeometry(r1=r1_val, r2=r2_val, s=s, degenerate=flag)
