import json
import re
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trace_scores import targets
from trace_scores.errors import ConfigError, CorpusError, TargetError
from trace_scores.pipeline import Trajectory, fit_normalizer
from trace_scores.scoring import Polarity, score_trajectory
from trace_scores.targets import build_index, knn_provider, load_corpus, save_corpus, series_provider
from trace_scores.cli import main, run_build_index
from oracles import brute_knn, read_index

PMAP = {"a": Polarity.DESIRABLE, "b": Polarity.UNDESIRABLE}


def make_corpus(n=100, dim=5, seed=0, classes=("a", "b")):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim))
    labels = [classes[i % len(classes)] for i in range(n)]
    return build_index(pts, labels), pts, labels


def nearest(corpus, x, k, pmap):
    """The provider's Targets for the one query ``x``: its k nearest corpus
    points in each class of ``pmap``."""
    return knn_provider(corpus, k, pmap)(np.zeros(1, dtype=int), np.asarray(x, dtype=float)[None])


class TestBuildIndex:
    def test_bookkeeping(self):
        corpus = build_index([[0, 0], [1, 1], [2, 2]], ["x", "x", "y"])
        assert corpus.class_size("x") == 2
        assert corpus.class_size("y") == 1
        assert set(corpus.classes()) == {"x", "y"}

    def test_self_query_returns_itself(self):
        corpus, pts, labels = make_corpus()
        for i in (0, 17, 99):
            found = nearest(corpus, pts[i], 1, {labels[i]: Polarity.DESIRABLE})
            np.testing.assert_array_equal(found.points, [pts[i]])

    def test_empty_corpus(self):
        with pytest.raises(CorpusError):
            build_index([], [])

    def test_inconsistent_dims(self):
        with pytest.raises(CorpusError):
            build_index([[0, 0], [1]], ["x", "x"])

    def test_nonfinite_rejected(self):
        with pytest.raises(CorpusError):
            build_index([[0, float("nan")]], ["x"])

    def test_class_mean_past_float64_names_the_feature(self):
        # each value is finite, but class x's column sum is not
        points, labels = [[0.5, 1e308], [0.6, 1.5e308], [0.1, 0.0]], ["x", "x", "y"]
        with pytest.raises(CorpusError, match=r"^feature 'f1' of class 'x' has a non-finite mean$"):
            build_index(points, labels)
        with pytest.raises(CorpusError, match=r"^feature 'rr' of class 'x' has"):
            build_index(points, labels, norm_stats=fit_normalizer(points, ["hr", "rr"]))
        assert build_index(points, ["y", "x", "y"]).class_means["x"].tolist() == [0.6, 1.5e308]


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_index([[0, 0], [1, 1]], ["x"]), CorpusError, "2 points but 1 labels"),
    (lambda: build_index([[0, 0]], ["x"], norm_stats=fit_normalizer([[0.0]])), CorpusError,
     "normalizer has 1 features, the points have 2"),
    (lambda: knn_provider(make_corpus()[0], 3, {}), ConfigError, "polarity map names no class"),
    (lambda: knn_provider(make_corpus()[0], 3, PMAP)(np.zeros(1, dtype=int), np.zeros((1, 3))),
     ConfigError, "query dimension 3 does not match corpus dimension 5"),
    *((lambda p=p: knn_provider(make_corpus()[0], 3, {"a": Polarity.DESIRABLE, "b": p}),
       ConfigError, f"class 'b' has polarity {p!r}, which is not 1 or -1")
      for p in ("desirable", 2, True, -1.0)),
    *((lambda p=p: series_provider("S", p, {0: [1.0]}), TargetError,
       f"series 'S' has polarity {p!r}, which is not 1 or -1")
      for p in (2, float("nan"), "1", False, 1.0, None)),
    *((lambda k=k: knn_provider(make_corpus()[0], k, PMAP), ConfigError,
       f"k must be an integer >= 1, got {k!r}")
      for k in (2.5, True, float("nan"), "3", 0, np.int64(0))),
], ids=["more-points-than-labels", "normalizer-width", "empty-polarity-map", "query-dimension",
        *(f"class-polarity-{p}" for p in ("name", "2", "bool", "float")),
        *(f"series-polarity-{p}" for p in ("2", "nan", "text", "bool", "float", "none")),
        *(f"k-{k}" for k in ("fraction", "bool", "nan", "text", "zero", "numpy-zero"))])
def test_input_checks_name_the_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestKnnTargets:
    def test_matches_brute_force(self):
        corpus, pts, labels = make_corpus(n=100, dim=5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=5)
            found = nearest(corpus, x, 3, PMAP)
            by_class = {"a": [], "b": []}
            for c, point in zip(found.cls.tolist(), found.points):
                by_class[found.labels[c]].append(point)
            for label in ("a", "b"):
                rows = [i for i, l in enumerate(labels) if l == label]
                class_pts = pts[rows]
                expected = [class_pts[j] for j in brute_knn(class_pts, x, 3)]
                assert len(by_class[label]) == 3
                for got, want in zip(by_class[label], expected):
                    np.testing.assert_array_equal(got, want)

    def test_numpy_integer_k(self):
        corpus, pts, _ = make_corpus()
        found = nearest(corpus, pts[3], np.int64(2), PMAP)
        np.testing.assert_array_equal(found.points, nearest(corpus, pts[3], 2, PMAP).points)
        assert len(found.cls) == 4

    def test_tie_break_by_insertion_order(self):
        # four equidistant points; the first two in input order win
        corpus = build_index([[1, 0], [0, 1], [-1, 0], [0, -1]], ["a"] * 4)
        found = nearest(corpus, [0, 0], 2, {"a": Polarity.DESIRABLE})
        np.testing.assert_array_equal(found.points, [[1, 0], [0, 1]])

    def test_polarity_tagging(self):
        corpus, pts, _ = make_corpus()
        found = nearest(corpus, pts[0], 3, PMAP)
        assert found.labels == ["a", "b"]
        assert found.polarity.tolist() == [1.0, -1.0]
        assert found.cls.tolist() == [0, 0, 0, 1, 1, 1]

    def test_unknown_class(self):
        corpus, pts, _ = make_corpus()
        with pytest.raises(ConfigError):
            knn_provider(corpus, 3, {"zzz": Polarity.DESIRABLE})

    def test_k_clamped_with_warning(self, tmp_path):
        corpus = build_index([[0, 0], [1, 1]], ["a", "a"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = nearest(corpus, [0, 0], 5, {"a": Polarity.DESIRABLE})
        assert len(found) == 2
        # the CLI prints one notice per clamped class on every run
        (tmp_path / "corpus.csv").write_text("a,b,label\n0,0,A\n1,1,A\n0,1,B\n1,0,B\n2,2,B\n")
        (tmp_path / "traj.csv").write_text("subject_id,t,a,b\ns1,0,0.5,0.5\ns1,1,0.7,0.6\n")
        run_build_index(tmp_path / "corpus.csv", tmp_path / "index.json")
        (tmp_path / "config.json").write_text(
            '{"k_neighbors": 3, "polarity_map": {"A": "desirable", "B": "undesirable"}}')
        args = ["score", str(tmp_path / "traj.csv"), "--index", str(tmp_path / "index.json"),
                "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        for _ in range(2):
            res = CliRunner().invoke(main, args)
            assert res.exit_code == 0, res.output
            assert res.stderr.splitlines()[1:] == [
                "warning: k=3 exceeds class 'A' size 2; clamping"]

    def test_k_zero(self):
        corpus, pts, _ = make_corpus()
        with pytest.raises(ConfigError):
            knn_provider(corpus, 0, PMAP)

    def test_determinism(self):
        corpus, pts, _ = make_corpus()
        x = np.full(5, 0.3)
        first = nearest(corpus, x, 3, PMAP)
        for _ in range(5):
            again = nearest(corpus, x, 3, PMAP)
            np.testing.assert_array_equal(again.points, first.points)
            assert again.cls.tolist() == first.cls.tolist()

    @pytest.mark.parametrize("dim", [2, 10, 17])
    def test_exactness_random_dims(self, dim):
        corpus, pts, labels = make_corpus(n=80, dim=dim, seed=dim)
        rng = np.random.default_rng(100 + dim)
        rows_a = [i for i, l in enumerate(labels) if l == "a"]
        class_pts = pts[rows_a]
        for _ in range(40):
            x = rng.normal(size=dim)
            found = nearest(corpus, x, 3, {"a": Polarity.DESIRABLE})
            np.testing.assert_array_equal(found.points, class_pts[brute_knn(class_pts, x, 3)])

    def test_row_ids_match_brute_force_on_duplicates(self):
        # integer coordinates make equal distances; the last ten rows repeat
        # the first ten, each in the same class
        rng = np.random.default_rng(5)
        pts = rng.integers(-2, 3, size=(40, 3)).astype(float)
        pts[30:] = pts[:10]
        labels = ["a" if i % 3 else "b" for i in range(40)]
        corpus = build_index(pts, labels)
        queries = np.concatenate([pts[:10], rng.integers(-2, 3, size=(10, 3)),
                                  rng.normal(size=(10, 3))])
        for label in ("a", "b"):
            rows = np.array([i for i, l in enumerate(labels) if l == label])
            for x in queries:
                for k in (1, 3, 7, len(rows), len(rows) + 2):
                    idx = corpus.class_indices[label]
                    got = idx.rows[idx.query_rows(x[None], k)[0][0]].tolist()
                    assert got == [int(rows[j]) for j in brute_knn(pts[rows], x, k)]

    def test_concurrent_queries_identical(self):
        corpus, pts, _ = make_corpus()
        x = np.full(5, -0.2)
        expected = nearest(corpus, x, 3, PMAP).points
        results = [None] * 8

        def worker(i):
            results[i] = nearest(corpus, x, 3, PMAP).points

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for res in results:
            np.testing.assert_array_equal(res, expected)


@st.composite
def knn_cases(draw):
    """A two-class corpus of 1-decimal rows, some repeated, with queries
    that include corpus rows, and a k up to two past the larger class."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(-10, 10).map(lambda v: v / 10), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=6))
    labels = draw(st.lists(st.sampled_from("ab"), min_size=len(rows), max_size=len(rows)))
    queries = draw(st.lists(st.one_of(row, st.sampled_from(rows)), min_size=1, max_size=6))
    largest = max(labels.count("a"), labels.count("b"))
    # a query block of one query, of a few, or of all of them
    block_values = draw(st.sampled_from([1, 16, targets._BLOCK_VALUES]))
    return rows, labels, np.array(queries), draw(st.integers(1, largest + 2)), block_values


@settings(max_examples=200)
@given(knn_cases())
def test_batched_query_is_exact(case):
    rows, labels, xs, k, block_values = case
    corpus = build_index(rows, labels)
    for idx in corpus.class_indices.values():
        with mock.patch.object(targets, "_BLOCK_VALUES", block_values):
            pos, dist = idx.query_rows(xs, k)
        assert pos.shape == dist.shape == (len(xs), min(k, len(idx.rows)))
        for x, got, d in zip(xs, pos, dist):
            assert got.tolist() == brute_knn(idx.points, x, k)
            assert np.array_equal(d, np.linalg.norm(idx.points - x, axis=1)[got])
    pmap = {label: Polarity.DESIRABLE if label == "a" else Polarity.UNDESIRABLE
            for label in corpus.classes()}
    found = knn_provider(corpus, k, pmap)(np.arange(len(xs)), xs)
    per_query = [nearest(corpus, x, k, pmap) for x in xs]
    assert len(found) == sum(len(one) for one in per_query)
    assert np.array_equal(found.points, np.concatenate([one.points for one in per_query]))
    assert all(found.cls.tolist() == one.cls.tolist() for one in per_query)
    assert found.labels == list(pmap)
    assert found.polarity.tolist() == [float(pmap[c]) for c in found.labels]


@st.composite
def cohort_cases(draw):
    """A two-class corpus of 1-decimal rows, some repeated, and a cohort of
    subjects' query rows, some of them corpus rows; a row of the corpus or
    of a subject may hold a value past sqrt(max float), whose square
    overflows and takes its class or its query to a full exact scan. Also a
    k up to two past the larger class, and a query block of one query, of a
    few, or of all of them."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(-10, 10).map(lambda v: v / 10), min_size=dim, max_size=dim)

    def huge(r):
        r = list(r)
        r[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([1e200, -1e200]))
        return r
    rows = draw(st.lists(row, min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=6))
    if draw(st.booleans()):
        rows.append(huge(draw(row)))
    labels = draw(st.lists(st.sampled_from("ab"), min_size=len(rows), max_size=len(rows)))
    query = st.one_of(row, st.sampled_from(rows), row.map(huge))
    subjects = draw(st.lists(st.lists(query, max_size=5), min_size=1, max_size=6))
    largest = max(labels.count("a"), labels.count("b"))
    block_values = draw(st.sampled_from([1, 16, 64, targets._BLOCK_VALUES]))
    return rows, labels, subjects, draw(st.integers(1, largest + 2)), block_values


@settings(max_examples=200, deadline=None)
@given(cohort_cases())
def test_one_cohort_query_gives_the_per_subject_bytes(case):
    rows, labels, subjects, k, block_values = case
    corpus = build_index(rows, labels)
    provide = knn_provider(corpus, k, PMAP if len(corpus.classes()) == 2
                           else {corpus.classes()[0]: Polarity.DESIRABLE})
    dim = len(rows[0])
    xs = [np.array(subject, dtype=float).reshape(-1, dim) for subject in subjects]
    with mock.patch.object(targets, "_BLOCK_VALUES", block_values):
        cohort = provide(np.concatenate([np.arange(len(x)) for x in xs]), np.concatenate(xs))
        each = [provide(np.arange(len(x)), x) for x in xs]
    stacked = np.concatenate([one.points for one in each])
    assert cohort.points.shape == stacked.shape
    assert cohort.points.tobytes() == stacked.tobytes()


@st.composite
def near_tie_cases(draw):
    """One class of rows on a grid scaled by 1e-170 to 1e100, with duplicates
    and rows one or two ulps or a few thousandths from another row, queried
    at corpus rows, near them and at other grid rows. Some queries hold one
    value whose square overflows: 1e200, or the largest float, whose
    products with the rows overflow too."""
    dim = draw(st.integers(1, 17))
    # squares of 1e-164 to 1e-156 are subnormal: they underflow with an absolute error
    scale = 10.0 ** draw(st.one_of(st.integers(-170, 100), st.integers(-164, -156)))
    row = st.lists(st.integers(-10, 10), min_size=dim, max_size=dim).map(
        lambda v: np.array(v) / 10 * scale)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    away = st.sampled_from([np.inf, -np.inf])

    def nudged(base):
        r = draw(st.sampled_from(base))
        if draw(st.booleans()):
            steps = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            return r * (1 + np.array(steps) * 1e-3)
        for _ in range(draw(st.integers(1, 2))):
            r = np.nextafter(r, draw(st.lists(away, min_size=dim, max_size=dim)))
        return r
    rows += [draw(st.sampled_from(rows)) for _ in range(draw(st.integers(0, 4)))]
    rows += [nudged(rows) for _ in range(draw(st.integers(0, 8)))]
    queries = []
    for kind in draw(st.lists(st.sampled_from(["row", "nudged", "grid", "huge"]),
                              min_size=1, max_size=6)):
        q = (draw(st.sampled_from(rows)) if kind == "row" else
             nudged(rows) if kind == "nudged" else draw(row))
        if kind == "huge":
            q[draw(st.integers(0, dim - 1))] = draw(
                st.sampled_from([1e200, -1e200, np.finfo(float).max]))
        queries.append(q)
    return np.array(rows), np.array(queries), draw(st.integers(1, len(rows) + 2))


@settings(max_examples=300, deadline=None)
@given(near_tie_cases())
def test_query_is_exact_at_every_scale_and_near_tie(case):
    rows, xs, k = case
    idx = build_index(rows, ["a"] * len(rows)).class_indices["a"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # overflow stays inside query_rows
        pos, dist = idx.query_rows(xs, k)
    for x, got, d in zip(xs, pos, dist):
        with np.errstate(over="ignore"):
            assert got.tolist() == brute_knn(rows, x, k)
            assert np.array_equal(d, np.linalg.norm(rows - x, axis=1)[got])


def test_query_is_exact_where_squares_underflow():
    # coordinates near 1e-161 have subnormal squares, so both distance forms
    # carry absolute rounding errors a relative margin does not cover
    rng = np.random.default_rng(11)
    for _ in range(300):
        dim, n = rng.integers(1, 6), rng.integers(2, 10)
        rows = rng.integers(-10, 11, size=(n, dim)) * 10.0 ** rng.uniform(-164, -159)
        rows = np.concatenate([rows, rows[rng.integers(0, n, 4)] * rng.normal(1, 1e-3, (4, dim))])
        xs = np.concatenate([rows[:2] * rng.normal(1, 1e-2, (2, dim)), rows[-2:]])
        k = rng.integers(1, len(rows) + 1)
        pos, dist = build_index(rows, ["a"] * len(rows)).class_indices["a"].query_rows(xs, k)
        for x, got, d in zip(xs, pos, dist):
            assert got.tolist() == brute_knn(rows, x, k)
            assert np.array_equal(d, np.linalg.norm(rows - x, axis=1)[got])


def test_query_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(3)
    idx = build_index(rng.uniform(size=(5000, 17)), ["a"] * 5000).class_indices["a"]
    xs = rng.uniform(size=(200, 17))
    tracemalloc.start()
    try:
        idx.query_rows(xs, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block holds at most _BLOCK_VALUES float64 differences of candidates;
    # its approximate-distance matrix is 1/dim of that
    assert peak < 8 * targets._BLOCK_VALUES


_CLASS_NAMES = st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", "中",
                                         "\U0001f600", "\u2028", "a", " "]), max_size=4)


@st.composite
def labeled_rows(draw):
    """A finite point matrix and one label per row: several classes, each
    with at least one row, in a random order of first appearance."""
    classes = draw(st.lists(_CLASS_NAMES, min_size=1, max_size=5, unique=True))
    labels = draw(st.permutations(
        classes + draw(st.lists(st.sampled_from(classes), max_size=12))))
    dim = draw(st.integers(1, 3))
    value = st.floats(-1e100, 1e100) | st.sampled_from([-0.0, 5e-324])
    rows = draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                         min_size=len(labels), max_size=len(labels)))
    return np.array(rows, dtype=float), labels


class TestIndexRoundTrip:
    @pytest.fixture
    def built(self, tmp_path):
        """A built index of a CSV with two-decimal cells, a constant feature
        and duplicate rows."""
        rng = np.random.default_rng(9)
        raw = np.round(rng.uniform(-50, 50, size=(60, 4)), 2)
        raw[:, 2] = 7.25
        raw[45:55] = raw[:10]
        labels = ["a" if i % 3 else "b" for i in range(60)]
        cells = [[repr(v) for v in row] for row in raw.tolist()]
        corpus_csv = tmp_path / "corpus.csv"
        corpus_csv.write_text("f0,f1,f2,f3,label\n" + "".join(
            ",".join(row + [label]) + "\n" for row, label in zip(cells, labels)))
        run_build_index(corpus_csv, tmp_path / "index.json")
        return raw, cells, labels, tmp_path / "index.json"

    def test_stores_csv_values_verbatim(self, built):
        raw, _, labels, path = built
        header, points, codes = read_index(path)
        assert header == {"classes": ["b", "a"],   # in order of first appearance
                          "features": ["f0", "f1", "f2", "f3"], "rows": 60}
        assert path.read_bytes().endswith(raw.astype("<f8").tobytes() + codes.tobytes())
        assert np.array_equal(points, raw)
        assert [header["classes"][c] for c in codes.tolist()] == labels

    def test_loaded_rows_are_normalized_per_row(self, built):
        raw, _, labels, path = built
        corpus, names = load_corpus(path)
        assert names == ["f0", "f1", "f2", "f3"]
        stats = corpus.norm_stats
        normalized = np.array([stats.apply(row[None])[0] for row in raw])
        for label, idx in corpus.class_indices.items():
            assert idx.rows.tolist() == [i for i, l in enumerate(labels) if l == label]
            assert np.array_equal(idx.points, normalized[idx.rows])
        rng = np.random.default_rng(10)
        queries = np.concatenate([normalized[:12], rng.uniform(-0.2, 1.2, size=(12, 4))])
        for x in queries:
            found = nearest(corpus, x, 4, PMAP)
            for c, label in enumerate(found.labels):
                class_pts = normalized[[i for i, l in enumerate(labels) if l == label]]
                assert np.array_equal(found.points[found.cls == c],
                                      class_pts[brute_knn(class_pts, x, 4)])

    def test_loaded_statistics_are_fitted_to_the_points(self, built):
        raw, _, labels, path = built
        corpus, names = load_corpus(path)
        stats = fit_normalizer(raw, names)
        assert corpus.norm_stats.names == names
        assert np.array_equal(corpus.norm_stats.mins, stats.mins)
        assert np.array_equal(corpus.norm_stats.maxs, stats.maxs)
        assert list(corpus.class_means) == ["b", "a"]
        for label, mean in corpus.class_means.items():
            assert np.array_equal(mean, raw[np.array(labels) == label].mean(axis=0))

    @settings(max_examples=100, deadline=None)
    @given(points=st.integers(1, 6).flatmap(lambda dim: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                                    1.7976931348623157e308, -1.7976931348623157e308]),
                 min_size=dim, max_size=dim), min_size=1, max_size=8)))
    def test_any_finite_matrix_round_trips_bit_for_bit(self, tmp_path_factory, points):
        arr = np.array(points)
        with np.errstate(over="ignore"):
            # the loaded corpus's min-max span and class mean of each feature
            assume(np.isfinite(arr.max(axis=0) - arr.min(axis=0)).all()
                   and np.isfinite(arr.mean(axis=0)).all())
        path = tmp_path_factory.mktemp("index") / "index.json"
        names = [f"f{i}" for i in range(arr.shape[1])]
        save_corpus(build_index(arr, ["a"] * len(arr)), names, path)
        corpus, loaded_names = load_corpus(path)
        assert loaded_names == names
        # np.array_equal would take -0.0 for 0.0; the uint64 views compare bits
        assert np.array_equal(corpus.points.view(np.uint64), arr.view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(case=labeled_rows())
    def test_any_labels_round_trip(self, tmp_path_factory, case):
        """Class names with quotes, backslashes, control characters and
        non-ASCII text, in any first-appearance order: the header line is
        ASCII and the sorted ``json.dumps`` text of itself, the loaded
        classes, rows and point bits are the built ones, and saving the
        loaded corpus writes the same bytes."""
        arr, labels = case
        path = tmp_path_factory.mktemp("index") / "index.bin"
        names = [f"f{i}" for i in range(arr.shape[1])]
        built = build_index(arr, labels)
        save_corpus(built, names, path)
        header = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
        assert header == json.dumps(json.loads(header), sort_keys=True)
        corpus, _ = load_corpus(path)
        assert corpus.classes() == built.classes() == list(dict.fromkeys(labels))
        for label, idx in built.class_indices.items():
            assert corpus.class_indices[label].rows.tolist() == idx.rows.tolist()
        assert np.array_equal(corpus.codes, built.codes)
        assert np.array_equal(corpus.points.view(np.uint64), arr.view(np.uint64))
        save_corpus(corpus, names, path.with_name("again.json"))
        assert path.with_name("again.json").read_bytes() == path.read_bytes()

    def test_save_of_load_is_byte_identical(self, built, tmp_path):
        *_, path = built
        corpus, names = load_corpus(path)
        save_corpus(corpus, names, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


class TestFixedTargets:
    def series(self, label="SSP1", polarity=Polarity.DESIRABLE, n=3):
        return series_provider(label, polarity,
                               {t: [float(t), 1.0] for t in range(n)})

    def test_t_out_of_range(self):
        # a t the series lacks gets the NaN row, which scoring rejects
        found = self.series(n=3)(np.array([1, 7, -1]), None)
        np.testing.assert_array_equal(found.points, [[1.0, 1.0], [np.nan] * 2, [np.nan] * 2])
        tr = Trajectory("s", [0, 7, 8], [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(TargetError, match="^class 'SSP1' has no target at t=7$"):
            score_trajectory(tr, self.series(n=3)(tr.t[:-1], tr.x[:-1]), 0.9)

    def test_values_at_t(self):
        found = self.series()(np.array([2, 0]), None)
        np.testing.assert_array_equal(found.points, [[2.0, 1.0], [0.0, 1.0]])
        assert found.cls.tolist() == [0]
        found = series_provider("S", Polarity.DESIRABLE,
                                {np.int64(3): [1.0], np.uint8(0): [2.0]})(np.array([3, 0]), None)
        np.testing.assert_array_equal(found.points, [[1.0], [2.0]])   # numpy integer keys

    def test_provider_builds_targets_once(self):
        points = {t: [float(t), 1.0] for t in range(2)}
        provide = series_provider("B", Polarity.UNDESIRABLE, points)
        points[1][0] = 9.0   # the provider stacked the points when it was built
        found = provide(np.array([1]), None)
        assert (found.labels, found.polarity.tolist(), len(found)) == (["B"], [-1.0], 1)
        np.testing.assert_array_equal(found.points, [[1.0, 1.0]])
        np.testing.assert_array_equal(provide(np.array([1, 2]), None).points,
                                      [[1.0, 1.0], [np.nan, np.nan]])

    @pytest.mark.parametrize("points,expect", [
        ({}, "series 'S' has no points"),
        ({0: [1.0, 2.0], 1: [1.0]}, "series 'S' has rows of unequal length or non-numeric values"),
        ({0: [1.0, "abc"]}, "series 'S' has rows of unequal length or non-numeric values"),
        ({0: 1.0}, "series 'S' has rows of unequal length or non-numeric values"),
        ({0: [1.0, 2.0], 3: [float("nan"), 2.0]}, "series 'S' has a non-finite value at t=3"),
        ({0: [float("-inf"), 2.0]}, "series 'S' has a non-finite value at t=0"),
        ({0: [1.0], 1.5: [2.0]}, "series 'S' has t=1.5, which is not a 64-bit integer"),
        ({0: [1.0], "a": [2.0]}, "series 'S' has t='a', which is not a 64-bit integer"),
        ({"0": [1.0]}, "series 'S' has t='0', which is not a 64-bit integer"),
        ({True: [1.0], 2: [2.0]}, "series 'S' has t=True, which is not a 64-bit integer"),
        ({np.uint64(2**63): [1.0]},
         "series 'S' has t=np.uint64(9223372036854775808), which is not a 64-bit integer"),
    ], ids=["empty", "ragged", "text", "scalar", "nan", "inf", "float-key", "text-key",
            "digit-text-key", "bool-key", "uint64-key"])
    def test_malformed_series_is_rejected_when_built(self, points, expect):
        with pytest.raises(TargetError, match=f"^{re.escape(expect)}$"):
            series_provider("S", Polarity.DESIRABLE, points)
