import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from trace_scores.errors import ConfigError, CorpusError, TargetError
from trace_scores.geometry import FeatureVector
from trace_scores.scoring import Polarity
from trace_scores.targets import (build_index, knn_targets, load_corpus, save_corpus,
                                  series_provider)
from trace_scores.cli import run_build_index
from oracles import brute_knn

PMAP = {"a": Polarity.DESIRABLE, "b": Polarity.UNDESIRABLE}


def make_corpus(n=100, dim=5, seed=0, classes=("a", "b")):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim))
    labels = [classes[i % len(classes)] for i in range(n)]
    return build_index(zip(pts.tolist(), labels)), pts, labels


class TestBuildIndex:
    def test_bookkeeping(self):
        corpus = build_index([([0, 0], "x"), ([1, 1], "x"), ([2, 2], "y")])
        assert corpus.class_size("x") == 2
        assert corpus.class_size("y") == 1
        assert set(corpus.classes()) == {"x", "y"}

    def test_self_query_returns_itself(self):
        corpus, pts, labels = make_corpus()
        for i in (0, 17, 99):
            specs = knn_targets(corpus, pts[i], 1, {labels[i]: Polarity.DESIRABLE})
            np.testing.assert_array_equal(specs[0].point.values, pts[i])

    def test_empty_corpus(self):
        with pytest.raises(CorpusError):
            build_index([])

    def test_inconsistent_dims(self):
        with pytest.raises(CorpusError):
            build_index([([0, 0], "x"), ([1], "x")])

    def test_nonfinite_rejected(self):
        with pytest.raises(CorpusError):
            build_index([([0, float("nan")], "x")])


class TestKnnTargets:
    def test_matches_brute_force(self):
        corpus, pts, labels = make_corpus(n=100, dim=5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=5)
            specs = knn_targets(corpus, x, 3, PMAP)
            by_class = {"a": [], "b": []}
            for s in specs:
                by_class[s.class_label].append(s.point.values)
            for label in ("a", "b"):
                rows = [i for i, l in enumerate(labels) if l == label]
                class_pts = pts[rows]
                expected = [class_pts[j] for j in brute_knn(class_pts, x, 3)]
                assert len(by_class[label]) == 3
                for got, want in zip(by_class[label], expected):
                    np.testing.assert_array_equal(got, want)

    def test_tie_break_by_insertion_order(self):
        # four equidistant points; the first two in input order win
        corpus = build_index([([1, 0], "a"), ([0, 1], "a"),
                              ([-1, 0], "a"), ([0, -1], "a")])
        specs = knn_targets(corpus, [0, 0], 2, {"a": Polarity.DESIRABLE})
        np.testing.assert_array_equal(specs[0].point.values, [1, 0])
        np.testing.assert_array_equal(specs[1].point.values, [0, 1])

    def test_polarity_tagging(self):
        corpus, pts, _ = make_corpus()
        specs = knn_targets(corpus, pts[0], 3, PMAP)
        assert {s.class_label for s in specs} == {"a", "b"}
        for s in specs:
            assert s.polarity == PMAP[s.class_label]
        assert sum(s.class_label == "a" for s in specs) == 3

    def test_unknown_class(self):
        corpus, pts, _ = make_corpus()
        with pytest.raises(ConfigError):
            knn_targets(corpus, pts[0], 3, {"zzz": Polarity.DESIRABLE})

    def test_k_clamped_with_warning(self):
        corpus = build_index([([0, 0], "a"), ([1, 1], "a")])
        with pytest.warns(UserWarning):
            specs = knn_targets(corpus, [0, 0], 5, {"a": Polarity.DESIRABLE})
        assert len(specs) == 2

    def test_k_zero(self):
        corpus, pts, _ = make_corpus()
        with pytest.raises(ConfigError):
            knn_targets(corpus, pts[0], 0, PMAP)

    def test_determinism(self):
        corpus, pts, _ = make_corpus()
        x = np.full(5, 0.3)
        first = knn_targets(corpus, x, 3, PMAP)
        for _ in range(5):
            again = knn_targets(corpus, x, 3, PMAP)
            for s1, s2 in zip(first, again):
                np.testing.assert_array_equal(s1.point.values, s2.point.values)
                assert s1.class_label == s2.class_label

    @pytest.mark.parametrize("dim", [2, 10, 17])
    def test_exactness_random_dims(self, dim):
        corpus, pts, labels = make_corpus(n=80, dim=dim, seed=dim)
        rng = np.random.default_rng(100 + dim)
        rows_a = [i for i, l in enumerate(labels) if l == "a"]
        class_pts = pts[rows_a]
        for _ in range(40):
            x = rng.normal(size=dim)
            specs = knn_targets(corpus, x, 3, {"a": Polarity.DESIRABLE})
            expected = [class_pts[j] for j in brute_knn(class_pts, x, 3)]
            for got, want in zip(specs, expected):
                np.testing.assert_array_equal(got.point.values, want)

    def test_row_ids_match_brute_force_on_duplicates(self):
        # integer coordinates make equal distances; the last ten rows repeat
        # the first ten, each in the same class
        rng = np.random.default_rng(5)
        pts = rng.integers(-2, 3, size=(40, 3)).astype(float)
        pts[30:] = pts[:10]
        labels = ["a" if i % 3 else "b" for i in range(40)]
        corpus = build_index(zip(pts.tolist(), labels))
        queries = np.concatenate([pts[:10], rng.integers(-2, 3, size=(10, 3)),
                                  rng.normal(size=(10, 3))])
        for label in ("a", "b"):
            rows = np.array([i for i, l in enumerate(labels) if l == label])
            for x in queries:
                for k in (1, 3, 7, len(rows), len(rows) + 2):
                    idx = corpus.class_indices[label]
                    got = idx.rows[idx.query(x, k)].tolist()
                    assert got == [int(rows[j]) for j in brute_knn(pts[rows], x, k)]

    def test_concurrent_queries_identical(self):
        corpus, pts, _ = make_corpus()
        x = np.full(5, -0.2)
        expected = [s.point.values for s in knn_targets(corpus, x, 3, PMAP)]
        results = [None] * 8

        def worker(i):
            specs = knn_targets(corpus, x, 3, PMAP)
            results[i] = [s.point.values for s in specs]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for res in results:
            for got, want in zip(res, expected):
                np.testing.assert_array_equal(got, want)


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
        _, cells, labels, path = built
        doc = json.loads(path.read_text())
        assert [[repr(v) for v in row] for row in doc["points"]] == cells
        assert doc["labels"] == labels

    def test_loaded_rows_are_normalized_per_row(self, built):
        raw, _, labels, path = built
        corpus, names = load_corpus(path)
        assert names == ["f0", "f1", "f2", "f3"]
        stats = corpus.norm_stats
        normalized = np.array([stats.apply(row).values for row in raw])
        for label, idx in corpus.class_indices.items():
            assert idx.rows.tolist() == [i for i, l in enumerate(labels) if l == label]
            assert np.array_equal(idx.points, normalized[idx.rows])
        rng = np.random.default_rng(10)
        queries = np.concatenate([normalized[:12], rng.uniform(-0.2, 1.2, size=(12, 4))])
        for x in queries:
            specs = knn_targets(corpus, x, 4, PMAP)
            for label in ("a", "b"):
                class_pts = normalized[[i for i, l in enumerate(labels) if l == label]]
                got = [s.point.values for s in specs if s.class_label == label]
                want = [class_pts[j] for j in brute_knn(class_pts, x, 4)]
                assert len(got) == 4
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_save_of_load_is_byte_identical(self, built, tmp_path):
        *_, path = built
        corpus, names = load_corpus(path)
        save_corpus(corpus, names, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


class TestFixedTargets:
    def series(self, label="SSP1", polarity=Polarity.DESIRABLE, n=3):
        return series_provider(label, polarity,
                               {t: FeatureVector([float(t), 1.0]) for t in range(n)})

    def test_t_out_of_range(self):
        with pytest.raises(TargetError):
            self.series(n=3)(7, None)

    def test_values_at_t(self):
        specs = self.series()(2, None)
        np.testing.assert_array_equal(specs[0].point.values, [2.0, 1.0])

    def test_provider_builds_targets_once(self):
        provide = self.series("B", Polarity.UNDESIRABLE, n=2)
        first = provide(1, None)
        assert [(s.class_label, s.polarity) for s in first] == [("B", Polarity.UNDESIRABLE)]
        assert first[0] is provide(1, None)[0]
        with pytest.raises(TargetError, match="series 'B' has no target at t=2"):
            provide(2, None)


def test_cli_import_leaves_out_scipy_spatial():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, trace_scores.cli; print('scipy.spatial' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"
