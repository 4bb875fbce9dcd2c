"""Score aggregation (instantaneous, average, cumulative, per polarity) and cohort stats."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple, Union

import numpy as np

from .errors import AggregateError, StatsError, TraceError
from .scoring import Polarity, TrajectoryScore


@dataclass(eq=False)
class ScoreSeries:
    """Instantaneous scores plus their trajectory average and running sum.

    Skipped steps are excluded from all three forms.
    """

    values: List[Tuple[int, float]]
    average: float
    cumulative: List[float]


@dataclass(frozen=True, eq=False)
class GroupComparison:
    mean_a: float
    sd_a: float
    n_a: int
    mean_b: float
    sd_b: float
    n_b: int
    t_stat: float
    dof: float
    p_value: float

    def to_json(self) -> dict:
        return {"mean_a": self.mean_a, "sd_a": self.sd_a, "n_a": self.n_a,
                "mean_b": self.mean_b, "sd_b": self.sd_b, "n_b": self.n_b,
                "t": self.t_stat, "dof": self.dof, "p": self.p_value}


_BLOCK_CELLS = 1 << 14   # running-sum grid cells per block (128 KiB)


def summarize(results: Sequence[Union[TrajectoryScore, TraceError]]
              ) -> List[Union[dict, TraceError]]:
    """Per entry of ``scoring.score_cohort``'s list: a TraceError as the same
    object, and a score's ``n_steps`` (scored), ``n_skipped``, ``average``
    and ``final_cumulative``, or an AggregateError. The scores' sums come
    from one running-sum pass, in blocks, longest first, of about
    ``_BLOCK_CELLS`` cells or one score: one ``np.cumsum`` row each from 0.0,
    with 0.0 at skipped and padded steps (exact: a sum from +0.0 is never -0.0)."""
    out = list(results)
    # an error's length of -1 sorts it after every score, and out of the pass
    lengths = np.array([-1 if isinstance(r, TraceError) else len(r.skip) for r in results])
    order, i = np.argsort(-lengths, kind="stable")[:np.count_nonzero(lengths >= 0)], 0
    while i < len(order):
        rows = order[i:i + max(1, _BLOCK_CELLS // (1 + lengths[order[i]]))]
        i += len(rows)
        flat = np.concatenate([results[k].skip for k in rows]) == 0
        scored = np.zeros((len(rows), lengths[rows[0]]), bool)
        scored[np.arange(scored.shape[1]) < lengths[rows, None]] = flat
        grid = np.zeros((len(rows), 1 + scored.shape[1]))
        grid[:, 1:][scored] = np.concatenate([results[k].combined for k in rows])[flat]
        for k, n, total in zip(rows.tolist(), scored.sum(axis=1).tolist(),
                               np.cumsum(grid, axis=1)[:, -1].tolist()):
            out[k] = ({"n_steps": n, "n_skipped": len(results[k].skip) - n, "average": total / n,
                       "final_cumulative": total} if n
                      else AggregateError("no scored steps to aggregate"))
    return out


def aggregate(traj_score: TrajectoryScore) -> ScoreSeries:
    """Condense a trajectory's step scores into the three reporting forms:
    one in-order ``np.cumsum`` over its scored steps. Adding 0.0 turns only a
    -0.0 partial sum into the +0.0 that ``summarize``'s sum from 0.0 gives."""
    scored = traj_score.skip == 0
    if not scored.any():
        raise AggregateError("no scored steps to aggregate")
    combined = traj_score.combined[scored]
    values = list(zip(traj_score.steps[scored].tolist(), combined.tolist()))
    cumulative = (np.cumsum(combined) + 0.0).tolist()
    return ScoreSeries(values=values, average=cumulative[-1] / len(values), cumulative=cumulative)


def polarity_averages(scores: Sequence[TrajectoryScore]) -> List[dict]:
    """Per score of one target set, per polarity: the mean over its scored steps
    of each step's mean over the classes of that polarity it scores, or None if
    no step scores one. The scores with the same number of step means form one
    block: one ``np.add.reduce(axis=1)`` per block, over its C-contiguous
    ``(scores, length)`` gather of the step means, and one division by the
    lengths give each score's ``np.mean`` of its own row, bit for bit."""
    scored = np.concatenate([ts.skip for ts in scores]) == 0
    owner = np.repeat(np.arange(len(scores)), [len(ts.skip) for ts in scores])[scored]
    rows = np.concatenate([ts.per_class for ts in scores])[scored]
    out = [{} for _ in scores]
    for key, polarity in (("average_desirable", Polarity.DESIRABLE),
                          ("average_undesirable", Polarity.UNDESIRABLE)):
        # (scored steps, classes); nan where a step scores no target of a class
        m = rows[:, scores[0].polarity == polarity]
        n = (~np.isnan(m)).sum(axis=1)
        means = np.nansum(m, axis=1)[n > 0] / n[n > 0]
        counts = np.bincount(owner[n > 0], minlength=len(scores))
        # the step means score by score, fewest first: the scores with the same
        # number of them are then one C-contiguous (scores, length) block
        means = means[np.argsort(counts[owner[n > 0]], kind="stable")]
        order = np.argsort(counts, kind="stable")
        sizes = counts[order]
        lengths, members = np.unique(counts, return_counts=True)
        # np.mean's sum of each row (pairwise from 8 values on), then its division
        sums = np.concatenate([np.add.reduce(means[end - k * size:end].reshape(k, size), axis=1)
                               for size, k, end in zip(lengths.tolist(), members.tolist(),
                                                       np.cumsum(lengths * members).tolist())])
        with np.errstate(invalid="ignore"):   # 0 / 0 for a score with no step mean
            averages = (sums / sizes).tolist()
        for i, v, size in zip(order.tolist(), averages, sizes.tolist()):
            out[i][key] = v if size else None
    return out


def _mean(xs: Sequence[float]) -> float:
    return math.fsum(xs) / len(xs)


def _sample_var(xs: Sequence[float], mean: float) -> float:
    return math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1)


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> GroupComparison:
    """Welch's unequal-variance t-test with a two-sided p-value.

    Degrees of freedom via Welch-Satterthwaite; p from the regularized
    incomplete beta function.
    """
    a = [float(x) for x in sample_a]
    b = [float(x) for x in sample_b]
    if len(a) < 2 or len(b) < 2:
        raise StatsError("each sample needs at least 2 observations")
    try:
        mean_a, mean_b = _mean(a), _mean(b)
        var_a, var_b = _sample_var(a, mean_a), _sample_var(b, mean_b)
        if var_a == 0.0 and var_b == 0.0:
            if mean_a == mean_b:
                return GroupComparison(mean_a, 0.0, len(a), mean_b, 0.0, len(b),
                                       t_stat=0.0, dof=float(len(a) + len(b) - 2),
                                       p_value=1.0)
            raise StatsError("both samples have zero variance with unequal means")
        se_a = var_a / len(a)
        se_b = var_b / len(b)
        se2 = se_a + se_b
        t = (mean_a - mean_b) / math.sqrt(se2)
        if se2 * se2 < sys.float_info.min:   # the squares would lose bits below the normals
            dof = 1.0 / ((se_a / se2) ** 2 / (len(a) - 1) + (se_b / se2) ** 2 / (len(b) - 1))
        else:
            dof = se2 ** 2 / (se_a ** 2 / (len(a) - 1) + se_b ** 2 / (len(b) - 1))
    except (OverflowError, ZeroDivisionError):   # a sum or square past float64, or se2 at 0
        t = dof = math.nan
    if not (math.isfinite(t) and math.isfinite(dof)):
        raise StatsError("t is not finite: the sample variances are too large or too small "
                         "for float64")
    return GroupComparison(mean_a=mean_a, sd_a=math.sqrt(var_a), n_a=len(a),
                           mean_b=mean_b, sd_b=math.sqrt(var_b), n_b=len(b),
                           t_stat=t, dof=dof, p_value=_two_sided_p(t, dof))


_LOG_SQRT_PI = 0.5 * math.log(math.pi)   # log Γ(1/2)


def _two_sided_p(t: float, dof: float) -> float:
    """P(|T| >= |t|) for Student's t with ``dof`` degrees of freedom: the
    regularized incomplete beta I_x(a, 1/2) with a = dof/2, x = dof/(dof + t²).

    y = 1 - x is formed as t²/(dof + t²), never by a subtraction, and
    a·log x as a·log1p(-y), so both tails keep their relative accuracy.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a = 0.5 * dof
    if math.isinf(t2):   # |t| > 1.3e154, so y is 1 to double precision
        log_x, log_y = math.log(dof) - 2.0 * math.log(abs(t)), 0.0
        x, y = math.exp(log_x), 1.0
    else:
        x, y = dof / (dof + t2), t2 / (dof + t2)
        log_x, log_y = math.log1p(-y) if y < 0.5 else math.log(x), math.log(y)
    front = math.exp(a * log_x + 0.5 * log_y - _log_beta_half(a))   # x^a y^(1/2) / B(a, 1/2)
    lam = (a + 0.5) * y - 0.5
    if lam >= 0.0:
        return front * _beta_fraction(a, 0.5, x, y, lam)
    return 1.0 - front * _beta_fraction(0.5, a, y, x, -lam)   # I_x(a, b) = 1 - I_y(b, a)


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2), without lgamma(a) - lgamma(a + 1/2)'s cancellation for large a."""
    if a < 100.0:
        return math.lgamma(a) + _LOG_SQRT_PI - math.lgamma(a + 0.5)
    # log Γ(a + 1/2) / Γ(a) = log(a)/2 - 1/(8a) + 1/(192a³) - 1/(640a⁵) + O(a⁻⁷)
    r = 1.0 / (a * a)
    return _LOG_SQRT_PI - 0.5 * math.log(a) + (0.125 - r * (1.0 / 192.0 - r / 640.0)) / a


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) · B(a, b) / (x^a y^b) for y = 1 - x and lam = (a + b)·y - b >= 0.

    This is the continued fraction of DiDonato and Morris (1992, ACM TOMS
    708, BFRAC), evaluated by the modified Lentz method (Numerical Recipes
    §5.2). Its denominators take 1 - x through lam and y, so it keeps its
    accuracy for large a with x near 1, where Numerical Recipes' fraction
    for I_x (§6.4) forms 1 - x·(...) by cancellation and loses about a·1e-16.
    """
    tiny = 1e-300
    c, c0, c1 = lam + 1.0, b / a, 1.0 / a + 1.0
    f, big_c, d = tiny, tiny, 0.0
    num, den = 1.0, c / c1
    for n in range(1, 10_000):
        d = den + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        big_c = den + num / big_c
        big_c = big_c if abs(big_c) > tiny else tiny
        f *= big_c * d
        if abs(big_c * d - 1.0) <= 2.0 ** -52:
            return f
        p, t, s = 1.0 + (n - 1) / a, n / a, a + 2 * n - 1
        w = n * (b - n) * x
        num = p * (p + c0) * (a / s) ** 2 * (w * x)
        den = n + w / s + (t + 1.0) / (c1 + t + t) * (c + n * (1.0 + y))
    raise StatsError(f"the p-value's continued fraction did not converge (a={a!r}, x={x!r})")


def rank_targets(averages: Mapping[str, float]) -> List[str]:
    """Keys in descending order of average score; ties keep input order."""
    return sorted(averages, key=lambda k: -averages[k])
