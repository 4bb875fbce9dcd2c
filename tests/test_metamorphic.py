"""Exact metamorphic relations of TraCE over the whole CLI, with no oracle.

Each example draws a small cohort, scores it once as drawn (the plain run)
in corpus mode and in series mode, then once more per relation with its
inputs transformed, and checks the outputs against the plain run's:

- corpus mode: one feature of the corpus and of the trajectories scaled by
  2**j gives byte-identical outputs. Scaling by a power of two commutes with
  rounding, and min-max normalization removes it. Series mode does not
  normalize, so there scaling changes the scores; it is left out.
- Every polarity flipped negates each ``combined``, ``average`` and
  ``final_cumulative``, which are compared as floats since 0.0 becomes -0.0,
  and swaps ``average_desirable`` with ``average_undesirable``.
- The trajectory file's rows shuffled give byte-identical outputs.
- A subject copied under an id that sorts first gets the original's lines,
  up to the id, and every other line stays as it was.
- The subjects renamed in an order-preserving way give the same lines, up to
  the ids.
- corpus mode: the corpus rows of the two classes interleaved anew, each
  class keeping its own row order, give byte-identical outputs. The class
  means, the normalizer and the kNN tie order do not change.
- Every ``t`` shifted by a constant, the target series' too, gives the same
  lines under the shifted ``t``.

Apart from the drawn cohorts, two runs of the ``icu`` demo with one and with
two BLAS threads write identical trees: the kNN prefilter's margin makes the
matrix product's bits irrelevant.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import trace_scores
from trace_scores.cli import main

runner = CliRunner()

# hundredths, whose differences and 2**j multiples stay far from the subnormals,
# and two values that repeat often, for steps without movement
_VALUES = st.integers(-2000, 2000).map(lambda i: i / 100) | st.sampled_from([0.0, 0.5])
_POLARITIES = st.sampled_from(["desirable", "undesirable"])
_FLIP = {"desirable": "undesirable", "undesirable": "desirable"}
_OUTPUTS = ("steps.jsonl", "summary.csv", "scores_wide.csv", "errors.csv", "ranking.json")
_COPY = "a"   # sorts before every drawn id


@st.composite
def cohorts(draw):
    """Two to six subjects of two to five points at increasing t in 0..6,
    over two or three features, with empty cells and labels A, B or none; a
    corpus with rows of both classes A and B; one or two target series over
    every t; and the run parameters."""
    dim = draw(st.integers(2, 3))
    row = st.lists(_VALUES, min_size=dim, max_size=dim)
    cells = st.lists(st.none() | _VALUES | _VALUES | _VALUES, min_size=dim, max_size=dim)
    subjects = {}
    for i in range(draw(st.integers(2, 6))):
        ts = sorted(draw(st.sets(st.integers(0, 6), min_size=2, max_size=5)))
        subjects[f"s{i}"] = (draw(st.sampled_from(["A", "B", ""])),
                             [(t, draw(cells)) for t in ts])
    labels = draw(st.permutations(["A"] * draw(st.integers(1, 4))
                                  + ["B"] * draw(st.integers(1, 4))))
    return {
        "dim": dim,
        "subjects": subjects,
        "corpus": [(draw(row), label) for label in labels],
        "series": {f"S{i}": [draw(row) for _ in range(7)]
                   for i in range(1, draw(st.integers(1, 2)) + 1)},
        "lambda": draw(st.sampled_from([0.25, 0.9])),
        "k": draw(st.integers(1, 3)),
        "polarity": {name: draw(_POLARITIES) for name in ("A", "B", "S1", "S2")},
    }


def _cell(value, scale):
    return "" if value is None else repr(value * scale)


def _write(tmp, cohort, *, column=None, scale=1, flip=False, order=None, copy=None,
           names=None, corpus_labels=None, shift=0):
    """The cohort's input files under ``tmp``, with feature ``column``
    scaled by ``scale``, every polarity flipped, the trajectory rows in
    ``order``, subject ``copy`` repeated under ``_COPY``, the subjects
    renamed by ``names``, the corpus rows taking their classes in the order
    ``corpus_labels`` (each class's rows in their own order) and every t
    shifted by ``shift``."""
    scales = [scale if c == column else 1 for c in range(cohort["dim"])]
    features = [f"f{c}" for c in range(cohort["dim"])]
    corpus = cohort["corpus"]
    if corpus_labels is not None:
        queues = {label: iter([row for row in corpus if row[1] == label]) for label in "AB"}
        corpus = [next(queues[label]) for label in corpus_labels]
    with open(tmp / "corpus.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([*features, "label"])
        w.writerows([*map(_cell, values, scales), label] for values, label in corpus)
    subjects = {(names or {}).get(s, s): points for s, points in cohort["subjects"].items()}
    if copy is not None:
        subjects[_COPY] = subjects[copy]
    rows = [[subject, t + shift, *map(_cell, values, scales), label]
            for subject, (label, points) in subjects.items() for t, values in points]
    with open(tmp / "traj.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subject_id", "t", *features, "label"])
        w.writerows(rows if order is None else [rows[i] for i in order])
    (tmp / "targets").mkdir()
    for name, points in cohort["series"].items():
        with open(tmp / "targets" / f"{name}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["t", *features], *([t + shift, *map(repr, p)]
                                                          for t, p in enumerate(points))])
    polarity = {name: _FLIP[p] if flip else p for name, p in cohort["polarity"].items()}
    for mode, names in (("corpus", ["A", "B"]), ("series", list(cohort["series"]))):
        (tmp / f"{mode}.json").write_text(json.dumps({
            "lambda": cohort["lambda"], "k_neighbors": cohort["k"],
            "polarity_map": {name: polarity[name] for name in names}}))


def _run(cohort, modes=("corpus", "series"), **edits):
    """Write the cohort with ``edits`` and score it in each of ``modes``:
    per mode, the exit code, stdout, stderr and each output file's text."""
    runs = {}
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        _write(tmp, cohort, **edits)
        res = runner.invoke(main, ["build-index", str(tmp / "corpus.csv"),
                                   "--out", str(tmp / "index.bin")])
        assert res.exit_code == 0, res.output
        for mode in modes:
            source = (["--index", str(tmp / "index.bin")] if mode == "corpus"
                      else ["--targets-dir", str(tmp / "targets")])
            res = runner.invoke(main, ["score", str(tmp / "traj.csv"), *source, "--config",
                                       str(tmp / f"{mode}.json"), "--out", str(tmp / mode)])
            assert res.exit_code in (0, 1), res.output
            runs[mode] = (res.exit_code, res.stdout, res.stderr,
                          {name: (tmp / mode / name).read_text() for name in _OUTPUTS
                           if (tmp / mode / name).exists()})
    return runs


def _rows(text):
    return list(csv.DictReader(text.splitlines()))


def _negated(plain, flipped):
    """Whether the cell texts ``flipped`` are the negated floats of ``plain``,
    a blank staying blank."""
    return [-float(c) if c else c for c in plain] == [float(c) if c else c for c in flipped]


def _check_flipped(plain, flipped):
    assert flipped[:3] == plain[:3]
    plain, flipped = plain[3], flipped[3]
    assert set(flipped) == set(plain)
    assert flipped.get("errors.csv") == plain.get("errors.csv")
    if "steps.jsonl" not in plain:
        return
    for a, b in zip(plain["steps.jsonl"].splitlines(), flipped["steps.jsonl"].splitlines(),
                    strict=True):
        a, b = json.loads(a), json.loads(b)
        assert b.pop("combined") == -a.pop("combined")
        assert b == a
    swapped = {"average_desirable": "average_undesirable",
               "average_undesirable": "average_desirable"}
    for a, b in zip(_rows(plain["summary.csv"]), _rows(flipped["summary.csv"]), strict=True):
        assert _negated([a.pop("average"), a.pop("final_cumulative")],
                        [b.pop("average"), b.pop("final_cumulative")])
        assert {swapped.get(key, key): value for key, value in b.items()} == a
    wide_a, wide_b = (list(csv.reader(runs["scores_wide.csv"].splitlines()))
                      for runs in (plain, flipped))
    assert wide_b[0] == wide_a[0]
    keys = 2 if wide_a[0][1] == "series" else 1   # the key columns, then one per t
    for a, b in zip(wide_a[1:], wide_b[1:], strict=True):
        assert b[:keys] == a[:keys] and _negated(a[keys:], b[keys:])


def _subject(name, line):
    return json.loads(line)["subject"] if name == "steps.jsonl" else next(csv.reader([line]))[0]


def _check_copied(plain, copied, original):
    plain, copied = plain[3], copied[3]
    assert set(copied) == set(plain)
    for name, text in plain.items():
        if name == "ranking.json":
            doc = json.loads(copied[name])
            assert doc.pop(_COPY, None) == json.loads(text).get(original)
            assert doc == json.loads(text)
            continue
        lines, copy_lines = text.splitlines(), copied[name].splitlines()
        assert [line for line in copy_lines if _subject(name, line) != _COPY] == lines
        renamed = [line.replace(f'"subject": "{_COPY}"', f'"subject": "{original}"')
                   if name == "steps.jsonl" else original + line[len(_COPY):]
                   for line in copy_lines if _subject(name, line) == _COPY]
        assert renamed == [line for line in lines if _subject(name, line) == original]


def _renamed(run, names):
    """The plain ``run`` with each subject id renamed by ``names``: in the
    step lines, the first cell of the CSV lines, the ranking's keys and the
    ``subject <id>: <error>`` lines of stderr."""
    def line(name, text):
        if name == "steps.jsonl":
            old = json.loads(text)["subject"]
            return text.replace(f'"subject": "{old}"', f'"subject": "{names[old]}"', 1)
        if name == "stderr":
            head, sep, rest = text.partition(": ")
            return f"subject {names[head[8:]]}{sep}{rest}" if head.startswith("subject ") else text
        old = next(csv.reader([text]))[0]
        return names[old] + text[len(old):] if old in names else text

    def renamed(name, text):
        if name == "ranking.json":
            doc = {names[subject]: ranking for subject, ranking in json.loads(text).items()}
            return json.dumps(doc, sort_keys=True, indent=2) + "\n"
        return "".join(line(name, li) + "\n" for li in text.splitlines())
    code, stdout, stderr, files = run
    return (code, stdout, renamed("stderr", stderr),
            {name: renamed(name, text) for name, text in files.items()})


def _shifted(run, shift):
    """The plain ``run`` with each ``t`` of the step lines and the wide
    header shifted by ``shift``."""
    code, stdout, stderr, files = run
    files = dict(files)
    if "steps.jsonl" in files:
        lines = (li.rsplit('"t": ', 1) for li in files["steps.jsonl"].splitlines())
        files["steps.jsonl"] = "".join(f'{head}"t": {int(t[:-1]) + shift}}}\n'
                                       for head, t in lines)
        header, rest = files["scores_wide.csv"].split("\n", 1)
        files["scores_wide.csv"] = ",".join(
            f"t{int(c[1:]) + shift}" if c[1:].lstrip("-").isdigit() else c
            for c in header.split(",")) + "\n" + rest
    return code, stdout, stderr, files


# each example makes twenty-two CLI runs, so a failure is reported as drawn, not shrunk
@settings(max_examples=25, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(cohort=cohorts(), data=st.data())
def test_exact_metamorphic_relations(cohort, data):
    plain = _run(cohort)

    column = data.draw(st.integers(0, cohort["dim"] - 1), label="column")
    j = data.draw(st.integers(-8, 8).filter(bool), label="power of two")
    assert _run(cohort, modes=["corpus"], column=column, scale=2.0**j)["corpus"] == \
        plain["corpus"]

    flipped = _run(cohort, flip=True)
    for mode in plain:
        _check_flipped(plain[mode], flipped[mode])

    n_rows = sum(len(points) for _, points in cohort["subjects"].values())
    order = data.draw(st.permutations(range(n_rows)), label="row order")
    assert _run(cohort, order=order) == plain

    original = data.draw(st.sampled_from(sorted(cohort["subjects"])), label="copied subject")
    copied = _run(cohort, copy=original)
    for mode in plain:
        _check_copied(plain[mode], copied[mode], original)

    old = sorted(cohort["subjects"])
    new = sorted(data.draw(st.lists(st.text("-0123456789abcxyz", min_size=1, max_size=4),
                                    min_size=len(old), max_size=len(old), unique=True),
                           label="new ids"))
    names = dict(zip(old, new))
    renamed = _run(cohort, names=names)
    for mode in plain:
        assert renamed[mode] == _renamed(plain[mode], names)

    corpus_labels = data.draw(st.permutations([label for _, label in cohort["corpus"]]),
                              label="corpus classes interleaved")
    assert _run(cohort, modes=["corpus"], corpus_labels=corpus_labels)["corpus"] == \
        plain["corpus"]

    shift = data.draw(st.integers(-2**40, 2**40), label="t shift")
    shifted = _run(cohort, shift=shift)
    for mode in plain:
        assert shifted[mode] == _shifted(plain[mode], shift)


def test_one_and_two_blas_threads_write_identical_demo_trees(tmp_path):
    src = str(Path(trace_scores.__file__).parents[1])
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(path)}
        subprocess.run([sys.executable, "-m", "trace_scores.cli", "demo", "--scenario", "icu",
                        "--seed", "7", "--out", str(out)], env=env, check=True,
                       capture_output=True)
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert {"steps.jsonl", "summary.csv", "comparison.json"} <= set(map(str, trees[0]))
    assert trees[0] == trees[1]
