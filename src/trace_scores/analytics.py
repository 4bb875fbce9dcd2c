"""Score aggregation (instantaneous, average, cumulative) and cohort stats."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from scipy.special import betainc

from .errors import AggregateError, StatsError
from .scoring import TrajectoryScore


@dataclass(eq=False)
class ScoreSeries:
    """Instantaneous scores plus their trajectory average and running sum.

    Skipped steps are excluded from all three forms.
    """

    subject_id: str
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


def aggregate(traj_score: TrajectoryScore, subject_id: str = "") -> ScoreSeries:
    """Condense a trajectory's step scores into the three reporting forms."""
    scored = traj_score.skip == 0
    if not scored.any():
        raise AggregateError("no scored steps to aggregate")
    values = list(zip(traj_score.steps[scored].tolist(), traj_score.combined[scored].tolist()))
    # a running sum from 0.0 writes a leading -0.0 as 0.0; np.cumsum would keep -0.0
    total = 0.0
    cumulative = []
    for _, v in values:
        total += v
        cumulative.append(total)
    return ScoreSeries(subject_id=subject_id, values=values,
                       average=total / len(values), cumulative=cumulative)


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
    dof = se2 ** 2 / (se_a ** 2 / (len(a) - 1) + se_b ** 2 / (len(b) - 1))
    p = _two_sided_p(t, dof)
    return GroupComparison(mean_a=mean_a, sd_a=math.sqrt(var_a), n_a=len(a),
                           mean_b=mean_b, sd_b=math.sqrt(var_b), n_b=len(b),
                           t_stat=t, dof=dof, p_value=p)


def _two_sided_p(t: float, dof: float) -> float:
    if t == 0.0:
        return 1.0
    x = dof / (dof + t * t)
    return float(betainc(dof / 2.0, 0.5, x))


def rank_targets(averages: Mapping[str, float]) -> List[str]:
    """Keys in descending order of average score; ties keep input order."""
    return sorted(averages, key=lambda k: -averages[k])
