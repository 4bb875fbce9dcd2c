import json

import numpy as np
import pytest

from trace_scores import (DimensionError, ImputeError, NormStats, RawRecord,
                          Trajectory, TrajectoryError, build_trajectory,
                          fit_normalizer, impute, load_trajectory_csv)


def records(columns, subject="s"):
    """Build RawRecords from a list of per-time rows."""
    return [RawRecord(subject_id=subject, t_index=t, values=list(row))
            for t, row in enumerate(columns)]


class TestImpute:
    def test_forward_fill(self):
        out = impute(records([[5], [None], [None]]))
        assert [r.values[0] for r in out] == [5, 5, 5]

    def test_backward_fill_leading(self):
        out = impute(records([[None], [None], [7]]))
        assert [r.values[0] for r in out] == [7, 7, 7]

    def test_class_mean_for_all_missing(self):
        out = impute(records([[None], [None], [None]]), class_means=[4.2])
        assert [r.values[0] for r in out] == [4.2, 4.2, 4.2]

    def test_all_missing_without_stats(self):
        with pytest.raises(ImputeError):
            impute(records([[None], [None]]))

    def test_mixed_columns(self):
        out = impute(records([[None, 1], [3, None], [None, None]]))
        assert [r.values for r in out] == [[3, 1], [3, 1], [3, 1]]

    def test_idempotence_and_preservation_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, d = int(rng.integers(2, 10)), int(rng.integers(1, 6))
            vals = rng.normal(size=(n, d))
            mask = rng.random((n, d)) < 0.3
            rows = [[None if mask[i, j] else float(vals[i, j])
                     for j in range(d)] for i in range(n)]
            recs = records(rows)
            once = impute(recs, class_means=[0.0] * d)
            twice = impute(once, class_means=[0.0] * d)
            assert [r.values for r in twice] == [r.values for r in once]
            for i in range(n):
                for j in range(d):
                    if not mask[i, j]:
                        assert once[i].values[j] == float(vals[i, j])



class TestNormalizer:
    def test_midpoint(self):
        ns = fit_normalizer([[10], [20]])
        assert ns.apply([15]).values[0] == 0.5

    def test_no_clipping(self):
        ns = fit_normalizer([[10], [20]])
        assert ns.apply([10]).values[0] == 0.0
        assert ns.apply([25]).values[0] == 1.5

    def test_constant_feature_maps_to_center(self):
        ns = fit_normalizer([[3, 1], [3, 2]])
        assert ns.apply([3, 1]).values[0] == 0.5
        assert ns.apply([99, 1]).values[0] == 0.5

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(20, 4)) * 10
        ns = fit_normalizer(rows)
        for v in rng.normal(size=(10, 4)) * 10:
            back = ns.invert(ns.apply(v).values)
            np.testing.assert_allclose(back, v, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        ns = fit_normalizer([[1, 2], [3, 4]])
        with pytest.raises(DimensionError):
            ns.apply([1, 2, 3])

    def test_rows_match_scalar_formula(self):
        rng = np.random.default_rng(4)
        rows = np.round(rng.uniform(-30, 30, size=(50, 5)), 3)
        rows[:, 2] = 1.5  # constant feature
        ns = fit_normalizer(rows)
        got = ns.apply_rows(rows)
        want = [[(v - lo) / (hi - lo) if hi > lo else 0.5
                 for v, lo, hi in zip(row, ns.mins.tolist(), ns.maxs.tolist())]
                for row in rows.tolist()]
        assert np.array_equal(got, want)
        assert all(np.array_equal(ns.apply(row).values, g) for row, g in zip(rows, got))
        with pytest.raises(DimensionError):
            ns.apply_rows(rows[:, :4])
        with pytest.raises(DimensionError):
            ns.apply_rows(rows[0])

    def test_json_persistence(self):
        ns = fit_normalizer([[10, 0], [20, 5]], names=["hr", "rr"])
        doc = json.loads(json.dumps(ns.to_json()))
        assert doc == {"features": [{"name": "hr", "min": 10.0, "max": 20.0},
                                    {"name": "rr", "min": 0.0, "max": 5.0}]}
        loaded = NormStats.from_json(doc)
        np.testing.assert_array_equal(loaded.apply([15, 2.5]).values, [0.5, 0.5])


class TestTrajectory:
    def test_strictly_increasing_t(self):
        from trace_scores import FeatureVector
        with pytest.raises(TrajectoryError):
            Trajectory("s", [(0, FeatureVector([1.0])), (0, FeatureVector([2.0]))])

    def test_build_trajectory_imputes_and_normalizes(self):
        ns = fit_normalizer([[0.0], [10.0]])
        recs = records([[5.0], [None]])
        traj = build_trajectory(recs, normalizer=ns)
        assert [p.values[0] for _, p in traj.points] == [0.5, 0.5]

    def test_build_trajectory_matches_per_row_apply(self):
        ns = fit_normalizer([[0.0, -3.0, 7.0], [10.0, 4.0, 7.0]])
        recs = records([[None, 1.25, 7.0], [2.5, None, 7.0], [9.75, 3.5, None]])
        traj = build_trajectory(recs, normalizer=ns)
        want = [ns.apply(r.values).values for r in impute(recs)]
        assert all(np.array_equal(p.values, w) for (_, p), w in zip(traj.points, want))
        assert [t for t, _ in traj.points] == [0, 1, 2]


class TestCsvLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("subject_id,t,hr,rr,label\n"
                        "p1,0,60,,RFD\n"
                        "p1,1,,12,RFD\n"
                        "p2,0,80,20,mortality\n")
        by_subject, labels, names = load_trajectory_csv(path)
        assert names == ["hr", "rr"]
        assert labels == {"p1": "RFD", "p2": "mortality"}
        assert by_subject["p1"][0].values == [60.0, None]
        assert by_subject["p1"][1].values == [None, 12.0]

    def test_no_label_column(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("subject_id,t,hr\np1,0,60\n")
        by_subject, labels, names = load_trajectory_csv(path)
        assert names == ["hr"]
        assert labels == {}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("id,t,hr\np1,0,60\n")
        with pytest.raises(TrajectoryError):
            load_trajectory_csv(path)

    def test_duplicate_t(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("subject_id,t,hr\np1,0,60\np1,0,61\n")
        with pytest.raises(TrajectoryError):
            load_trajectory_csv(path)

    def test_determinism(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("subject_id,t,hr\np1,1,61\np1,0,60\n")
        first = load_trajectory_csv(path)
        second = load_trajectory_csv(path)
        assert [r.t_index for r in first[0]["p1"]] == [0, 1]
        assert [r.values for r in first[0]["p1"]] == \
               [r.values for r in second[0]["p1"]]
