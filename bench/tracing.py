"""Span tracing for the benchmark's traced runs.

A ``Tracer`` wraps the module attributes the CLI calls through, so spans are
recorded at layer boundaries without any change to ``trace_scores``. Each
span is ``[name, start, end, parent, subject]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``subject`` is the subject id shared by
every span of one subject. Spans stay in memory until the run ends.

A span's name is ``<layer>.<operation>``; the layers are the modules
``cli``, ``pipeline``, ``targets``, ``scoring``, ``geometry`` and
``analytics``. A span's self time is its duration minus that of its
children, which run one after another.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "pipeline", "targets", "scoring", "geometry", "analytics")
ROOT = "run"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, subject=None, observe=None):
        """``fn`` recording one span per call.

        ``subject(args)`` names the subject a call works on (children inherit
        it); ``observe(counts, args, result)`` adds counts after the call.
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = subject(args) if subject else (spans[parent][4] if parent >= 0 else None)
            rec = [name, 0.0, 0.0, parent, sid]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe:
                observe(counts, args, result)
            return result
        return traced

    def _replace(self, owner, attr, make):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(self, owner, attr, name, **kw):
        self._replace(owner, attr, lambda fn: self.wrap(name, fn, **kw))

    def patch_provider(self, owner, attr, name, **kw):
        """Wrap the provider each call of the factory ``owner.attr`` returns."""
        self._replace(owner, attr, lambda factory: lambda *a, **k: self.wrap(
            name, factory(*a, **k), **kw))

    @contextmanager
    def installed(self):
        """Wrap the library's call sites for the duration of the block."""
        from trace_scores import analytics, cli, geometry, scoring
        from trace_scores.pipeline import NormStats

        def count_targets(counts, args, result):
            counts["targets.returned"] += len(result)

        def count_rows(counts, args, result):
            counts["pipeline.rows"] += sum(len(r) for r in result[0].values())

        def count_missing(counts, args, result):
            counts["pipeline.missing_cells"] += sum(
                v is None for r in args[0] for v in r.values)

        def count_steps(counts, args, result):
            counts["scoring.steps"] += len(result.steps)
            counts["scoring.steps_skipped"] += result.skipped_count

        def count_flags(counts, args, result):
            if result.degenerate is not geometry.Degeneracy.NONE:
                counts["geometry.step_score.flagged"] += 1

        self.patch(cli, "run_build_index", "cli.run_build_index")
        self.patch(cli, "run_score_corpus", "cli.run_score")
        self.patch(cli, "run_score_series", "cli.run_score")
        self.patch(cli, "read_corpus_csv", "cli.read_corpus")
        self.patch(cli, "load_trajectory_csv", "pipeline.load_csv", observe=count_rows)
        self.patch(cli, "build_trajectory", "pipeline.build_trajectory",
                   subject=lambda a: a[0][0].subject_id, observe=count_missing)
        self.patch(cli, "fit_normalizer", "pipeline.fit_normalizer")
        self.patch(NormStats, "apply", "pipeline.normalize")
        self.patch(cli, "build_index", "targets.build_index")
        self.patch(cli, "save_corpus", "targets.save_index")
        self.patch(cli, "load_corpus", "targets.load_index")
        self.patch_provider(cli, "knn_provider", "targets.query", observe=count_targets)
        self.patch_provider(cli, "series_provider", "targets.series_lookup")
        self.patch(scoring, "score_trajectory", "scoring.score_trajectory",
                   subject=lambda a: a[0].subject_id, observe=count_steps)
        self.patch(geometry, "step_score", "geometry.step_score", observe=count_flags)
        self.patch(analytics, "aggregate", "analytics.aggregate")
        self.patch(analytics, "welch_t_test", "analytics.welch")
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "subject"])
            for i, (name, start, end, parent, subject) in enumerate(self.spans):
                w.writerow([i, name, repr(start), repr(end), parent,
                            "" if subject is None else subject])


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    dur = np.array([end - start for _, start, end, _, _ in spans])
    parent = np.array([p for _, _, _, p, _ in spans])
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    return dur - child


def summarize(spans, counts) -> dict:
    """Per-layer figures of one traced run (times in s, counts exact).

    ``_s`` figures are summed span durations, children included, except the
    ``self_s`` ones; ``layer_self_s`` holds each layer's summed self time.
    """
    selfs = self_times(spans)
    total, calls, by_layer = Counter(), Counter(), Counter()
    queries, subjects = [], set()
    cli_self = 0.0
    for (name, start, end, _, subject), own in zip(spans, selfs):
        total[name] += end - start
        calls[name] += 1
        by_layer[name.split(".")[0]] += own
        if name == "targets.query":
            queries.append(end - start)
        elif name == "pipeline.build_trajectory":
            subjects.add(subject)
        elif name.startswith("cli.run_"):
            cli_self += own
    q_us = np.array(queries or [0.0]) * 1e6
    n_geom = calls["geometry.step_score"]
    degenerate = counts["geometry.step_score.flagged"] + counts["geometry.step_score.raised"]
    run_s = total[ROOT]
    return {
        "targets.query_s": total["targets.query"],
        "targets.queries": calls["targets.query"],
        "targets.query_p50_us": float(np.percentile(q_us, 50)),
        "targets.query_p95_us": float(np.percentile(q_us, 95)),
        "targets.targets_returned": counts["targets.returned"],
        "targets.build_index_s": total["targets.build_index"],
        "targets.save_index_s": total["targets.save_index"],
        "targets.load_index_s": total["targets.load_index"],
        "geometry.step_score_s": total["geometry.step_score"],
        "geometry.step_score_calls": n_geom,
        "geometry.degenerate": degenerate,
        "geometry.useful_ratio": (n_geom - degenerate) / n_geom if n_geom else 0.0,
        "scoring.score_trajectory_s": total["scoring.score_trajectory"],
        "scoring.self_s": by_layer["scoring"],
        "scoring.steps": counts["scoring.steps"],
        "scoring.steps_skipped": counts["scoring.steps_skipped"],
        "pipeline.build_trajectory_s": total["pipeline.build_trajectory"],
        "pipeline.build_trajectory_calls": calls["pipeline.build_trajectory"],
        "pipeline.builds_per_subject": (calls["pipeline.build_trajectory"] / len(subjects)
                                        if subjects else 0.0),
        "pipeline.missing_cells": counts["pipeline.missing_cells"],
        "pipeline.load_csv_s": total["pipeline.load_csv"],
        "pipeline.rows": counts["pipeline.rows"],
        "pipeline.normalize_s": total["pipeline.normalize"],
        "pipeline.normalize_calls": calls["pipeline.normalize"],
        "pipeline.fit_normalizer_s": total["pipeline.fit_normalizer"],
        "cli.read_corpus_s": total["cli.read_corpus"],
        "cli.build_index_s": total["cli.run_build_index"],
        "cli.self_s": cli_self,
        "analytics.aggregate_s": total["analytics.aggregate"],
        "analytics.welch_s": total["analytics.welch"],
        "trace.run_s": run_s,
        "trace.coverage": 1.0 - by_layer[ROOT] / run_s if run_s else 0.0,
        "layer_self_s": {layer: by_layer[layer] for layer in LAYERS},
    }
