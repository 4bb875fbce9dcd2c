"""Independent oracles used to freeze expected values, drawn kernel inputs,
hand-built kernel results for testing the code that reads them, and a
reader and writer of the index file's layout for editing built indices.

The oracles deliberately avoid the library's own code paths: grid search
for the projection, a linear scan for nearest neighbors, mpmath for the t
distribution, and list loops for imputation.
"""

import json
import math

import mpmath as mp
import numpy as np
from hypothesis import strategies as st


def grid_closest_point(a, b, c, lo=-10.0, hi=10.0):
    """Brute-force minimize ||a - (b + s*(c-b))|| over a refined grid of s.

    Coarse pass over [lo, hi], then successive refinement down to step
    1e-7 around the running optimum.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    h = c - b

    def best(ss):
        pts = b[None, :] + ss[:, None] * h[None, :]
        return ss[np.argmin(np.linalg.norm(pts - a[None, :], axis=1))]

    s = best(np.arange(lo, hi + 0.005, 0.005))
    for prev, step in ((0.005, 1e-4), (1e-4, 2e-6), (2e-6, 1e-7)):
        s = best(np.arange(s - 2 * prev, s + 2 * prev + step, step))
    return b + s * h


def brute_knn(points, x, k):
    """Indices of the k nearest rows of ``points`` to ``x``, sorted by
    (distance, row index)."""
    points = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    dists = np.linalg.norm(points - x[None, :], axis=1)
    order = sorted(range(len(points)), key=lambda i: (dists[i], i))
    return order[:k]


def fill_reference(rows, class_means):
    """One subject's rows (None = missing) imputed column by column with
    plain loops: forward fill, then backward fill, then the column's class
    mean where it holds no value."""
    columns = [list(col) for col in zip(*rows)]
    for j, col in enumerate(columns):
        last = None
        for i, v in enumerate(col):
            if v is None:
                col[i] = last
            else:
                last = v
        first = None
        for i in reversed(range(len(col))):
            if col[i] is None:
                col[i] = first
            else:
                first = col[i]
        if first is None:
            col[:] = [class_means[j]] * len(col)
    return [list(row) for row in zip(*columns)]


def read_index(path):
    """An index file's JSON header, its ``(rows, features)`` points and its
    class codes, the arrays as writable little-endian copies."""
    with open(path, "rb") as fh:
        header, body = json.loads(fh.readline()), fh.read()
    n = header["rows"] * len(header["features"])
    return (header, np.frombuffer(body, "<f8", n).reshape(header["rows"], -1).copy(),
            np.frombuffer(body, "<u4", offset=8 * n).copy())


def write_index(path, header, points, codes):
    """Write ``header`` as one JSON line, then the raw bytes of ``points``
    and ``codes`` (little-endian arrays, or bytes)."""
    with open(path, "wb") as fh:
        fh.writelines([json.dumps(header).encode("ascii"), b"\n", bytes(points), bytes(codes)])


def welch_oracle(sample_a, sample_b):
    """Textbook Welch t-test at 50-digit precision: (t, dof, two-sided p)."""
    with mp.workdps(50):
        a = [mp.mpf(repr(float(x))) for x in sample_a]
        b = [mp.mpf(repr(float(x))) for x in sample_b]
        na, nb = len(a), len(b)
        ma = mp.fsum(a) / na
        mb = mp.fsum(b) / nb
        va = mp.fsum((x - ma) ** 2 for x in a) / (na - 1)
        vb = mp.fsum((x - mb) ** 2 for x in b) / (nb - 1)
        sea, seb = va / na, vb / nb
        t = (ma - mb) / mp.sqrt(sea + seb)
        dof = (sea + seb) ** 2 / (sea ** 2 / (na - 1) + seb ** 2 / (nb - 1))
        x = dof / (dof + t ** 2)
        p = mp.betainc(dof / 2, mp.mpf(1) / 2, 0, x, regularized=True)
        return float(t), float(dof), float(p)


def random_projection_triple(rng, dim, max_param=8.0):
    """A random (a, b, c) whose line-parameter optimum lies well inside the
    grid search range."""
    while True:
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        c = rng.normal(size=dim)
        h = c - b
        g = a - b
        nh = np.linalg.norm(h)
        ng = np.linalg.norm(g)
        if nh < 0.3 or ng < 1e-3:
            continue
        s_opt = float(np.dot(h, g)) / (nh * nh)
        if abs(s_opt) <= max_param:
            return a, b, c


def make_targets(steps, polarity=None):
    """A scoring.Targets from one list of ``(point, class label)`` pairs per
    step, every step's labels in one order (the slots' classes), classes
    numbered in order of first appearance; ``polarity`` maps a label to its
    Polarity, desirable where it has none."""
    from trace_scores.scoring import Polarity, Targets
    slots = [label for _, label in steps[0]]
    assert all([label for _, label in pairs] == slots for pairs in steps)
    labels = list(dict.fromkeys(slots))
    polarity = polarity or {}
    return Targets(cls=np.array([labels.index(label) for label in slots], dtype=int),
                   labels=labels,
                   polarity=np.array([float(polarity.get(c, Polarity.DESIRABLE)) for c in labels]),
                   points=np.array([point for pairs in steps for point, _ in pairs], dtype=float))


# grid values make repeated coordinates, static dims and collinear targets common
COORD = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                  st.floats(-2, 2, allow_subnormal=False))


@st.composite
def trajectory_cases(draw, classes="abc"):
    """Points, per-step targets of ``classes``, class polarities and a lambda."""
    from trace_scores.scoring import Polarity
    dim = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 4))
    vec = st.lists(COORD, min_size=dim, max_size=dim).map(np.array)
    xs = draw(st.lists(vec, min_size=n_steps + 1, max_size=n_steps + 1))
    polarity = {c: draw(st.sampled_from(list(Polarity))) for c in classes}
    # every step has the same slots, each of one class
    slots = draw(st.lists(st.sampled_from(classes), min_size=1, max_size=4))
    target_lists = []
    for i in range(n_steps):
        step_targets = []
        for label in slots:
            # a free point, the factual (dropped), the landing point (goal
            # reached) or a point along the move (best achieved)
            kind = draw(st.sampled_from(["free", "x_t", "x_next", "on_move"]))
            if kind == "free":
                point = draw(vec)
            elif kind == "x_t":
                point = xs[i]
            elif kind == "x_next":
                point = xs[i + 1]
            else:
                point = xs[i] + draw(st.sampled_from([0.5, 2.0])) * (xs[i + 1] - xs[i])
            step_targets.append((point, label))
        target_lists.append(step_targets)
    lam = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))
    return xs, target_lists, polarity, lam


def hand_scored(combined, skip=None, labels=(), per_class=None, polarity=()):
    """A scoring.TrajectoryScore with the given per-step arrays and one
    polarity per label, its steps labelled 1, 2, ...; ``skip``
    defaults to all scored."""
    from trace_scores.scoring import TrajectoryScore
    n = len(combined)
    return TrajectoryScore(
        steps=np.arange(1, n + 1), skip=np.zeros(n, dtype=int) if skip is None else np.array(skip),
        combined=np.array(combined, dtype=float), labels=list(labels),
        polarity=np.array(polarity, dtype=float),
        per_class=np.empty((n, 0)) if per_class is None else np.array(per_class, dtype=float))
