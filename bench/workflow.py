"""The command sequence each workload runs, in-process.

``trace build-index`` -> ``trace score`` -> ``trace compare`` as the CLI
runs them, through the public functions of ``trace_scores.cli`` and
``trace_scores.analytics``. Every call goes through a module attribute so
that the tracer in ``tracing.py`` can wrap it.

Run as a script, it performs one sequence in a fresh interpreter and prints
the process's peak resident memory:

    python3 bench/workflow.py <inputs dir> <output dir>
"""

from __future__ import annotations

import csv
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def split_by_label(summary: Path, out: Path) -> list:
    """Write one summary CSV per outcome label (the cohort split the
    compare step needs); return their paths in label order."""
    with open(summary, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = header.index("label")
        groups = {}
        for row in reader:
            groups.setdefault(row[col], []).append(row)
    paths = []
    for label in sorted(groups):
        path = out / f"summary_{label}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(groups[label])
        paths.append(path)
    return paths


def run_sequence(inputs: Path, out: Path, manifest: dict) -> dict:
    """Run the workload's commands on ``inputs``, writing under ``out``.

    Returns wall times (``run_s`` for the whole sequence, ``score_s`` for the
    score call, ``build_index_s`` when an index is built) and the score
    call's own summary.
    """
    from trace_scores import analytics, cli

    t0 = perf_counter()
    cfg = cli.RunConfig.from_json_file(inputs / "config.json")
    times = {}
    scores = out / "scores"
    if manifest["mode"] == "corpus":
        t = perf_counter()
        cli.run_build_index(inputs / "corpus.csv", out / "index.json")
        times["build_index_s"] = perf_counter() - t
        t = perf_counter()
        info = cli.run_score_corpus(inputs / "trajectories.csv", out / "index.json",
                                    cfg, scores)
        times["score_s"] = perf_counter() - t
    else:
        t = perf_counter()
        info = cli.run_score_series(inputs / "trajectories.csv", inputs / "targets",
                                    cfg, scores)
        times["score_s"] = perf_counter() - t
    if manifest["workload"] == "icu_knn":
        path_a, path_b = split_by_label(scores / "summary.csv", out)
        cmp = analytics.welch_t_test(cli.read_averages_csv(path_a),
                                     cli.read_averages_csv(path_b))
        with open(out / "comparison.json", "w") as fh:
            json.dump({"t": cmp.t_stat, "dof": cmp.dof, "p": cmp.p_value,
                       "n_a": cmp.n_a, "n_b": cmp.n_b}, fh, sort_keys=True)
            fh.write("\n")
    times["run_s"] = perf_counter() - t0
    return {"times": times, "info": info}


def main(argv) -> int:
    inputs, out = Path(argv[1]), Path(argv[2])
    with open(inputs / "manifest.json") as fh:
        manifest = json.load(fh)
    out.mkdir(parents=True, exist_ok=True)
    result = run_sequence(inputs, out, manifest)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
