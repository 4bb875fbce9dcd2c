"""Inner-product-space primitives for single-step trajectory scoring.

Everything here is a pure function of its inputs. The central pieces are
the closest-point projection of a target onto the observed move direction,
the angle score ``r1``, the landing score ``r2``, and their weighted
combination ``step_score``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DegenerateGeometry, DimensionError

DEFAULT_EPSILON = 1e-9


class Degeneracy(Enum):
    """Why a step's geometry collapsed to a special case."""

    NONE = "none"
    NO_MOVE = "no_move"
    GOAL_REACHED = "goal_reached"
    BEST_ACHIEVED = "best_achieved"


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """A point in the (normalized) feature space. All values finite."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
        if arr.size == 0:
            raise DimensionError("feature vector must have at least one dimension")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite value in feature vector")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def tolist(self) -> list:
        return self.values.tolist()


@dataclass(frozen=True, eq=False)
class StepGeometry:
    """Raw per-step, per-target scores."""

    r1: float
    r2: float
    s: float
    degenerate: Degeneracy = Degeneracy.NONE


VectorLike = Union[FeatureVector, np.ndarray, Sequence[float]]


def _as_array(x: VectorLike) -> np.ndarray:
    if isinstance(x, FeatureVector):
        return x.values
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def _check_weights(weights, dim: int) -> Optional[np.ndarray]:
    if weights is None:
        return None
    w = np.asarray(weights, dtype=float)
    if w.shape != (dim,):
        raise DimensionError(f"weight vector has shape {w.shape}, expected ({dim},)")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ConfigError("feature weights must be finite and positive")
    return w


def inner(a: VectorLike, b: VectorLike, weights=None) -> float:
    """Weighted dot product; plain dot product when ``weights`` is None."""
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise DimensionError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    w = _check_weights(weights, av.shape[0])
    if w is None:
        return float(np.dot(av, bv))
    return float(np.dot(av * w, bv))


def norm_of(v: VectorLike, weights=None) -> float:
    """Inner-product-induced norm."""
    return math.sqrt(inner(v, v, weights))


def r1(v_t: VectorLike, v_prime: VectorLike, *, epsilon: float = DEFAULT_EPSILON, weights=None) -> float:
    """Angle cosine between the observed change and the desired change.

    Value in [-1, 1]; invariant under positive rescaling of either argument.
    """
    n1 = norm_of(v_t, weights)
    n2 = norm_of(v_prime, weights)
    if n1 <= epsilon or n2 <= epsilon:
        raise DegenerateGeometry("zero-norm change vector", Degeneracy.NO_MOVE)
    val = inner(v_t, v_prime, weights) / (n1 * n2)
    return min(1.0, max(-1.0, val))


def closest_point(a: VectorLike, b: VectorLike, c: VectorLike, *,
                  epsilon: float = DEFAULT_EPSILON, weights=None) -> FeatureVector:
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
    nh = norm_of(h, weights)
    ng = norm_of(g, weights)
    if nh <= epsilon:
        raise DegenerateGeometry("direction c - b is degenerate", Degeneracy.NO_MOVE)
    if ng <= epsilon:
        raise DegenerateGeometry("a coincides with b", Degeneracy.NO_MOVE)
    theta = inner(h, g, weights) / (nh * ng)
    d = bv + (h / nh) * ng * theta
    return FeatureVector(d)


def _best_point(x_t: np.ndarray, v_t: np.ndarray, n_vt: float,
                n_vprime: float, theta: float) -> np.ndarray:
    """x-hat: closest point to the target along the observed move (theta > 0),
    the factual itself otherwise."""
    if theta > 0:
        return x_t + (v_t / n_vt) * n_vprime * theta
    return x_t.copy()


def r2(x_t: VectorLike, x_next: VectorLike, x_target: VectorLike, *,
       epsilon: float = DEFAULT_EPSILON, weights=None):
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
    n_vt = norm_of(v_t, weights)
    n_vp = norm_of(v_prime, weights)
    if n_vt <= epsilon:
        raise DegenerateGeometry("no movement between steps", Degeneracy.NO_MOVE)
    if n_vp <= epsilon:
        raise DegenerateGeometry("target coincides with factual", Degeneracy.NO_MOVE)
    v_star = xp - xn
    if norm_of(v_star, weights) <= epsilon:
        return 1.0, Degeneracy.GOAL_REACHED
    theta = inner(v_t, v_prime, weights) / (n_vt * n_vp)
    x_hat = _best_point(xt, v_t, n_vt, n_vp, theta)
    v_hat = xp - x_hat
    n_vhat = norm_of(v_hat, weights)
    if n_vhat <= epsilon:
        return 1.0, Degeneracy.BEST_ACHIEVED
    val = abs(inner(v_hat, v_star, weights)) / (n_vhat * norm_of(v_star, weights))
    return min(1.0, val), Degeneracy.NONE


def step_score(x_t: VectorLike, x_next: VectorLike, x_target: VectorLike,
               lam: float, *, epsilon: float = DEFAULT_EPSILON,
               weights=None) -> StepGeometry:
    """Combined score s = lam * r1 + (1 - lam) * r2 for one step and target.

    lam = 1 reduces bit-for-bit to r1 and lam = 0 to r2. Reaching the
    target exactly forces r1 = r2 = s = 1 regardless of lam.
    """
    if not (0.0 <= lam <= 1.0):
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    xt, xn, xp = _as_array(x_t), _as_array(x_next), _as_array(x_target)
    r2_val, flag = r2(xt, xn, xp, epsilon=epsilon, weights=weights)
    if flag is Degeneracy.GOAL_REACHED:
        return StepGeometry(r1=1.0, r2=1.0, s=1.0, degenerate=flag)
    r1_val = r1(xn - xt, xp - xt, epsilon=epsilon, weights=weights)
    if lam == 1.0:
        s = r1_val
    elif lam == 0.0:
        s = r2_val
    else:
        s = lam * r1_val + (1.0 - lam) * r2_val
    return StepGeometry(r1=r1_val, r2=r2_val, s=s, degenerate=flag)
