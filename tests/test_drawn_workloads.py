"""The benchmark's independent oracle (``bench/oracle.py``) checks runs on
drawn inputs, not only on the generator's three fixed draws.

Each example writes a small workload in the generator's layout
(``config.json``, ``trajectories.csv``, and ``corpus.csv`` or ``targets/``)
with a manifest that names the subjects the draw made unscorable, runs it
with ``bench/workflow.py`` and requires ``OutputCheck`` to find no problem
on any step. It also checks two summary figures that ``OutputCheck``
leaves out: ``n_skipped`` against the steps the oracle skips, and
``final_cumulative`` against a running sum of the subject's step lines.

The draws stay inside the oracle's limits: each subject's rows are sorted
by ``t`` and carry one label, every series holds every ``t``, no cell is
quoted, the config has no ``epsilon`` key and every scorable subject has a
scored step against every target set.
"""

import csv
import importlib.util
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle, workflow = _load("oracle"), _load("workflow")

# the corpus on a grid whose spans are powers of two, so that normalizing a
# trajectory value on the quarter grid is exact and distinct corpus rows tie
# at the k-th distance; no value that the kernel's EPSILON could round near
_GRID = st.sampled_from([0.0, 0.5, 1.0])
_QUARTERS = st.integers(-1, 5).map(lambda i: i / 4)
_POLARITIES = st.sampled_from(["desirable", "undesirable"])
_TIMES = range(7)


@st.composite
def workloads(draw, mode):
    """Files and manifest of one drawn workload: one to five subjects of one
    to five points over two or three features (the last static in some
    draws), with empty cells, whole empty columns and repeated rows; in
    corpus mode classes A and B mapped and C not, with duplicate rows and a
    k that may pass a class's size; in series mode one to three series over
    every t."""
    dim = draw(st.integers(2, 3))
    static = draw(st.booleans())

    def point(values):
        cells = draw(st.lists(values, min_size=dim, max_size=dim))
        return cells[:-1] + [0.5] if static else cells

    files, malformed, subjects = {}, [], []
    if mode == "corpus":
        classes = {"A": draw(st.integers(1, 4)), "B": draw(st.integers(1, 4)),
                   "C": draw(st.integers(0, 2))}
        rows = [[*point(_GRID), c] for c, n in classes.items() for _ in range(n)]
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        files["corpus.csv"] = ([*(f"f{j}" for j in range(dim)), "label"],
                               draw(st.permutations(rows)))
        config = {"k_neighbors": draw(st.integers(1, 5)),
                  "polarity_map": {c: draw(_POLARITIES) for c in "AB"}}
    else:
        names = [f"S{i}" for i in range(draw(st.integers(1, 3)))]
        for name in names:
            files[f"targets/{name}.csv"] = (["t", *(f"f{j}" for j in range(dim))],
                                            [[t, *point(_QUARTERS)] for t in _TIMES])
        config = {"polarity_map": {name: draw(_POLARITIES)
                                   for name in draw(st.sets(st.sampled_from(names)))}}
    config["lambda"] = draw(st.sampled_from([0.0, 0.25, 0.9, 1.0]))
    n_subjects = draw(st.integers(1, 5))
    for i in range(n_subjects):
        subject = f"s{i}"
        times = sorted(draw(st.sets(st.sampled_from(_TIMES), min_size=1, max_size=5)))
        label = draw(st.sampled_from(["A", "B", "C", ""])) if mode == "corpus" else None
        cells = [point(_QUARTERS)]
        for _ in times[1:]:   # a repeated row is a step without movement
            cells.append(list(cells[-1]) if draw(st.integers(0, 4)) == 0 else point(_QUARTERS))
        cells = [[None if draw(st.integers(0, 5)) == 0 else v for v in row] for row in cells]
        empty = draw(st.integers(0, 3 * dim))   # below dim: a column with no value
        for row in cells if empty < dim else ():
            row[empty] = None
        no_mean = mode == "series" or label == "" or (label == "C" and not classes["C"])
        if len(times) < 2 or (no_mean and any(all(row[j] is None for row in cells)
                                              for j in range(dim))):
            malformed.append(subject)
        subjects += [[subject, t, *("" if v is None else repr(v) for v in row),
                      *([label] if label is not None else [])] for t, row in zip(times, cells)]
    assume(len(malformed) < n_subjects)   # a run with no scorable subject fails
    files["trajectories.csv"] = (["subject_id", "t", *(f"f{j}" for j in range(dim)),
                                  *(["label"] if mode == "corpus" else [])], subjects)
    files["config.json"] = config
    manifest = {"mode": mode, "malformed": malformed, "workload": "drawn",
                "subjects": n_subjects}
    return files, manifest


def _write(inputs: Path, files, manifest):
    (inputs / "targets").mkdir(parents=True)
    for name, content in files.items():
        if name == "config.json":
            (inputs / name).write_text(json.dumps(content))
            continue
        header, rows = content
        with open(inputs / name, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
    (inputs / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("mode", ["corpus", "series"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_oracle_accepts_runs_on_drawn_workloads(mode, data):
    files, manifest = data.draw(workloads(mode))
    with tempfile.TemporaryDirectory() as d:
        inputs, out = Path(d) / "in", Path(d) / "out"
        _write(inputs, files, manifest)
        check = oracle.OutputCheck(inputs, manifest, sample_size=10**6)
        skipped = {}
        for subject, series, i in check.step_keys():
            skipped.setdefault((subject, series), []).append(
                check.expected((subject, series, i)) is None)
        # the oracle has no case for a subject without a scored step
        assume(not any(map(all, skipped.values())))
        out.mkdir()
        result = workflow.run_sequence(inputs, out, manifest)
        assert check.check(out, result["info"], 0) == []
        combined = {}
        with open(out / "scores" / "steps.jsonl") as fh:
            for line in fh:
                step = json.loads(line)
                combined.setdefault((step["subject"], step.get("series")), []).append(
                    step["combined"])
        with open(out / "scores" / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
    assert len(summary) == len(skipped)
    for row in summary:
        key = (row["subject_id"], row.get("series"))
        assert int(row["n_skipped"]) == sum(skipped[key])
        total = 0.0
        for value in combined[key]:
            total += value
        assert row["final_cumulative"] == repr(total)
