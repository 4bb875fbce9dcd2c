"""Benchmark for trace-scores: cohort scoring end to end, and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload icu_knn --seed 1 --seconds 25 --trace 0

It generates the workload's inputs from ``--seed`` (see ``gen.py``), runs the
workload's command sequence (``workflow.py``) in-process from the ``src/``
tree for ``--seconds`` seconds after one warm-up, checks every run's outputs
against an independent oracle (``oracle.py``) and prints, as its last line,
one JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics of traced runs (``--trace 1``, see ``tracing.py``). Inputs, outputs,
``result.json`` (every run's times, provenance) and, for a traced run, the
last traced run's ``spans.csv`` go to ``bench/.work/<workload>-seed<n>-trace<t>/``.

Run timings are medians over the runs, in reference seconds: each run's
wall time is multiplied by ``REFERENCE_NOMINAL_S / r``, where ``r`` is the
mean wall time of a fixed reference task (``reference_s``) timed just before
and just after the run. On a small shared machine the speed of the same code
drifts by 20 % and more over tens of seconds; the reference moves with it, so
the ratio is much steadier than the wall time. Raw wall-time medians are
printed too, and ``result.json`` keeps every run's wall times and scale.
``setup_s`` (fresh-interpreter import time) is the median of one sample taken
after each measured run, so that its samples span the same stretch of time
as the runs', each scaled in the same way by the reference time taken just
before it.

Every metric's unit is the one ``BENCHMARK.json`` declares for it.
"""

from __future__ import annotations

import os

# The library is single-threaded; keep BLAS/OpenMP pools from adding threads
# that compete with it for the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workflow  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
MIN_RUNS = 3
# the reference task's wall time on a 2-vCPU Xeon VM in a quiet period
REFERENCE_NOMINAL_S = 0.36
REFERENCE_ITERATIONS = 100_000
REFERENCE_FILE_ROUNDS = 3
SUBPROCESS_TIMEOUT_S = 120


def provenance() -> dict:
    import scipy

    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "trace_scores").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"git_sha": sha or None, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reference_s(scratch: Path) -> float:
    """Wall time of a fixed mix of the kinds of work the workloads do, without
    touching trace_scores: interpreter work and small-array numpy calls, then
    a JSON document written to a file in ``scratch`` and read back.

    The file part makes the reference slow down with the workloads' reads
    and writes (index save and load, output files), not only with their
    arithmetic."""
    pts = np.random.default_rng(0).normal(size=(256, 17))
    rows = np.round(np.random.default_rng(1).uniform(size=(3000, 17)), 2).tolist()
    path = scratch / "reference.json"
    table = {}
    start = perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        a, b = pts[i & 255], pts[(i * 7) & 255]
        v = b - a
        d = math.sqrt(float(np.dot(v, v)))
        table[i & 1023] = (d, [d / (1.0 + abs(float(np.dot(a, b))))])
    for _ in range(REFERENCE_FILE_ROUNDS):
        with open(path, "w") as fh:
            json.dump({"rows": rows}, fh)
        with open(path) as fh:
            json.load(fh)
        path.unlink()
    return perf_counter() - start


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing the CLI module.

    No timeout here: with one, ``subprocess`` polls the child every 50 ms,
    which would round every sample up to that grain.
    """
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "import trace_scores.cli"],
                   env=child_env(), check=True)
    return perf_counter() - t


def probe_rss(inputs: Path, out: Path) -> dict:
    """One command sequence in a fresh interpreter, for its peak memory."""
    proc = subprocess.run([sys.executable, str(BENCH / "workflow.py"), str(inputs), str(out)],
                          env=child_env(), capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs and checks one workload's command sequence repeatedly."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.manifest = gen.generate(workload, seed, self.inputs)
        self.check = oracle.OutputCheck(self.inputs, self.manifest)
        self.problems = []  # from every run, warm-up and memory probe included
        self.runs = []      # measured runs, see run_once
        self.setup = []     # (setup_sample() time, scale), one after each measured run
        self.tracer = None  # the last traced run's tracer

    def fresh_out(self, name="out") -> Path:
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def verify(self, out: Path, result: dict) -> list:
        problems = self.check.check(out, result["info"], [self.seed, len(self.runs)])
        for p in problems[:5]:
            print(f"check failed: {p}", file=sys.stderr)
        self.problems += problems
        return problems

    def run_once(self, tracer=None) -> dict:
        out = self.fresh_out()
        call, context = workflow.run_sequence, contextlib.nullcontext()
        if tracer is not None:
            call, context = tracer.wrap(tracing.ROOT, call), tracer.installed()
        gc.collect()  # start every run from the same collector state
        try:
            with context:
                result = call(self.inputs, out, self.manifest)
            problems = self.verify(out, result)
        except Exception:  # a crashed run is reported as failed, not fatal
            result = {"times": {}, "info": {}}
            problems = ["run raised:\n" + traceback.format_exc()]
            print(problems[0], file=sys.stderr)
            self.problems += problems
        record = {"times": result["times"], "failed": bool(problems),
                  "scored": 0 if problems else result["info"]["subjects"],
                  "traced": tracer is not None}
        if tracer is not None and not problems:
            layers = tracing.summarize(tracer.spans, tracer.counts)
            layers["targets.index_bytes"] = file_size(out / "index.json")
            layers["cli.output_bytes"] = sum(file_size(p) for p in (out / "scores").iterdir())
            record["layers"] = layers
            self.tracer = tracer
        return record

    def measure(self, seconds: float, trace: bool) -> None:
        """Run for ``seconds`` after one warm-up; with ``trace``, every
        second run is traced, and without it a set-up sample, not counted
        in ``seconds``, follows each run."""
        self.run_once()  # warm-up: imports, lazy set-up, page cache
        if not trace:
            setup_sample()  # may compile bytecode, so it is not kept
        before = reference_s(self.work)
        start = perf_counter()
        min_runs = MIN_RUNS * (2 if trace else 1)
        while perf_counter() - start < seconds or len(self.runs) < min_runs:
            traced = trace and len(self.runs) % 2 == 1
            record = self.run_once(tracing.Tracer() if traced else None)
            after = reference_s(self.work)
            record["scale"] = 2 * REFERENCE_NOMINAL_S / (before + after)
            before = after
            self.runs.append(record)
            if not trace:
                sample = setup_sample()
                self.setup.append((sample, REFERENCE_NOMINAL_S / after))
                start += sample


def file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def median_of(runs, key, raw=False) -> float:
    """Median of one timing over ``runs`` in reference seconds (or, with
    ``raw``, in wall seconds); 0 when no run has it."""
    values = [r["times"][key] * (1.0 if raw else r["scale"]) for r in runs if key in r["times"]]
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, probe: dict) -> dict:
    runs = runner.runs
    score_s = median_of(runs, "score_s")
    scored = sum(r["scored"] for r in runs)
    return {
        "setup_s": statistics.median(t * scale for t, scale in runner.setup),
        "run_s": median_of(runs, "run_s"),
        "step_targets_per_s": runner.manifest["evaluations"] / score_s if score_s else 0.0,
        "peak_rss_mb": probe["peak_rss_mb"],
        "subjects_scored_frac": scored / (runner.manifest["subjects"] * len(runs)),
    }


def per_layer(runner: Runner, units: dict) -> dict:
    """Medians over the traced runs for times (in reference seconds); every
    other figure must repeat exactly from run to run and is reported once."""
    traced = [r for r in runner.runs if "layers" in r]
    if not traced:
        runner.problems.append("no traced run succeeded")
        return {}
    metrics = {}
    for name, first in traced[0]["layers"].items():
        if name == "layer_self_s":
            continue
        if units.get(name) in ("s", "us"):
            value = statistics.median(r["layers"][name] * r["scale"] for r in traced)
        elif name == "trace.coverage":
            value = statistics.median(r["layers"][name] for r in traced)
        else:
            value = first
            if any(r["layers"][name] != first for r in traced):
                runner.problems.append(f"{name} differs between runs of one seed")
        metrics[name] = value
    untraced = median_of([r for r in runner.runs if not r["traced"]], "run_s")
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced
    layers = {layer: statistics.median(r["layers"]["layer_self_s"][layer] * r["scale"]
                                       for r in traced)
              for layer in tracing.LAYERS}
    print("layer self time (reference s): "
          + "  ".join(f"{k}={v:.4f}" for k, v in layers.items())
          + f"  traced run_s={metrics['trace.run_s']:.4f}"
          f"  coverage={metrics['trace.coverage']:.4f}")
    return metrics


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trace_scores" / "__init__.py").is_file():
        print(f"error: no trace_scores sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = BENCH / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    units = declared_units(args.trace)
    runner = Runner(args.workload, args.seed, work)
    if args.trace:
        runner.measure(args.seconds, trace=True)
        metrics = per_layer(runner, units)
        if runner.tracer is not None:
            runner.tracer.write(work / "spans.csv")
    else:
        probe = probe_rss(runner.inputs, runner.fresh_out("probe"))
        runner.verify(runner.work / "probe", probe)
        runner.measure(args.seconds, trace=False)
        metrics = end_to_end(runner, probe)
        print(f"raw wall medians: run_s={median_of(runner.runs, 'run_s', raw=True):.4f}"
              f" score_s={median_of(runner.runs, 'score_s', raw=True):.4f}"
              f" setup_s={statistics.median(t for t, _ in runner.setup):.4f}")
    if sorted(metrics) != sorted(units):
        runner.problems.append("reported metrics differ from those BENCHMARK.json declares")

    failed = sum(r["failed"] for r in runner.runs)
    for name, value in metrics.items():
        print(f"{args.workload:13s} {name:28s} {value:14.6g} {units.get(name)}")
    print(f"{args.workload:13s} runs={len(runner.runs)} failed={failed} "
          f"problems={len(runner.problems)}")
    result = {"correct": not runner.problems, "attempted": len(runner.runs), "failed": failed,
              "metrics": {name: {"value": value, "unit": units.get(name)}
                          for name, value in metrics.items()}}
    with open(work / "result.json", "w") as fh:
        json.dump({"provenance": prov, "workload": args.workload, "seed": args.seed,
                   "runs": runner.runs, "setup_samples": runner.setup,
                   "problems": runner.problems, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
