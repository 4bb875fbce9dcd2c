"""Command-line surface: build-index, score, compare, demo.

Exit codes: 0 success, 1 runtime failure, 2 input/usage error.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import click
import numpy as np

from . import analytics, demo, scoring
from .errors import ConfigError, CorpusError, TargetError, TraceError, TrajectoryError
from .pipeline import (build_trajectory, fit_normalizer, load_trajectory_csv, parse_cells,
                       parse_t, read_csv, read_table, write_csv)
from .scoring import Polarity
from .targets import build_index, knn_provider, load_corpus, save_corpus, series_provider

_USAGE_ERRORS = (ConfigError, CorpusError, TargetError, TrajectoryError)


def _parse_polarity(value) -> Polarity:
    """A polarity name, ``"desirable"`` or ``"undesirable"``, in any case."""
    try:
        return Polarity[value.upper()]
    except (AttributeError, KeyError):   # AttributeError: not a string
        raise ConfigError(f"unknown polarity {value!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """Run parameters, checked when built."""

    lam: float = 0.9
    k_neighbors: int = 3
    polarity_map: Dict[str, Polarity] = field(default_factory=dict)

    _KEYS = {"lambda", "k_neighbors", "polarity_map"}

    def __post_init__(self):
        # the range test also rejects a nan or infinite lambda
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be >= 1, got {self.k_neighbors}")

    @classmethod
    def from_json_file(cls, path) -> "RunConfig":
        """Read ``path``; an absent key keeps its default, and a UTF-8 BOM is dropped."""
        with open(path, encoding="utf-8-sig") as fh:
            try:
                doc = json.load(fh)
            except (RecursionError, ValueError) as e:   # not JSON, too deep, or not UTF-8
                raise ConfigError(f"{path}: not valid JSON: {e}") from None
        try:
            if not isinstance(doc, dict):
                raise ConfigError(f"config must be a JSON object, not {type(doc).__name__}")
            unknown = set(doc) - cls._KEYS
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            lam = doc.get("lambda", cls.lam)
            # float() would read true as 1.0 and "0.5" as 0.5
            if isinstance(lam, bool) or not isinstance(lam, (int, float)):
                raise ConfigError(f"lambda must be a number, got {lam!r}")
            k = doc.get("k_neighbors", cls.k_neighbors)
            # int() would truncate 2.7 and accept true as 1
            if isinstance(k, bool) or not isinstance(k, int):
                raise ConfigError(f"k_neighbors must be an integer, got {k!r}")
            pmap = doc.get("polarity_map", {})
            if not isinstance(pmap, dict):
                raise ConfigError(f"polarity_map must be a JSON object, not {type(pmap).__name__}")
            return cls(float(lam), k, {name: _parse_polarity(p) for name, p in pmap.items()})
        except (ConfigError, OverflowError) as e:   # OverflowError: float() of a huge int
            raise ConfigError(f"{path}: {e}") from None


def read_corpus_csv(path):
    """CSV with feature columns and a final `label` column: the feature
    names, the rows as one float matrix and their labels."""
    def features(header):
        if header[-1] != "label":
            raise CorpusError(f"{path}: missing column: label")
        if len(header) == 1:
            raise CorpusError(f"{path}: no feature columns")
        return 0, len(header) - 1

    header, _, (labels,), points = read_table(path, CorpusError, features)
    return header[:-1], points, labels


def run_build_index(corpus_csv, out_path) -> Dict[str, int]:
    names, points, labels = read_corpus_csv(corpus_csv)
    try:   # a range or a class mean past float64
        corpus = build_index(points, labels, norm_stats=fit_normalizer(points, names))
    except CorpusError as e:
        raise CorpusError(f"{corpus_csv}: {e}") from None
    save_corpus(corpus, names, out_path)
    return {label: corpus.class_size(label) for label in corpus.classes()}


def _score_cohort(traj_data, target_sets, cfg: RunConfig, out_dir, corpus=None) -> dict:
    """Score every subject against each ``(series, provider)`` target set.

    Each subject's trajectory is built once, with ``corpus``'s class means and
    normalizer (None in series mode), and each target set scores every built
    trajectory in one ``scoring.score_cohort`` call, whose list, errors in their
    places, ``analytics.summarize`` takes as it is. A series of None marks the
    corpus's single target set; a named one tags step lines, summary rows and
    error messages with it, and a subject that cannot be scored against a set,
    say for a t it lacks, gets one error row for that set. Removes every file a
    score run writes from ``out_dir``; both modes then write ``errors.csv`` (if
    a subject failed), ``steps.jsonl`` and ``scores_wide.csv`` (``_write_steps``)
    and ``summary.csv``: ``subject_id``, ``label`` or ``series``, the keys of
    ``analytics.summarize`` and, with a corpus, of ``polarity_averages``. Series
    mode last writes ``ranking.json``. Returns the run info."""
    by_subject, labels, names = traj_data
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("steps.jsonl", "scores_wide.csv", "summary.csv", "errors.csv", "ranking.json"):
        (out_dir / name).unlink(missing_ok=True)
    means, normalizer = (None, None) if corpus is None else (corpus.class_means, corpus.norm_stats)
    scores: Dict[Tuple[str, ...], scoring.TrajectoryScore] = {}
    summary_rows: List[dict] = []
    errors: List[Tuple[str, str]] = []
    built = []
    for subject in sorted(by_subject):
        try:
            built.append(build_trajectory(by_subject[subject], label=labels.get(subject),
                                          class_means=means, normalizer=normalizer, names=names))
        except TraceError as e:
            errors += [(subject, _error_text(series, e)) for series, _ in target_sets]
    cohort = [scoring.score_cohort(provider, built, cfg.lam) for _, provider in target_sets]
    summaries = [analytics.summarize(res) for res in cohort]
    for traj, *results in zip(built, *map(zip, cohort, summaries)):
        subject = traj.subject_id
        for (series, _), (ts, summary) in zip(target_sets, results):
            if isinstance(summary, TraceError):
                errors.append((subject, _error_text(series, summary)))
                continue
            tag = {"label": labels.get(subject) or ""} if series is None else {"series": series}
            scores[(subject,) if series is None else (subject, series)] = ts
            summary_rows.append({"subject_id": subject, **tag, **summary})
    errors.sort(key=lambda e: e[0])   # stable: a subject's rows stay in target-set order
    if errors:
        write_csv(out_dir / "errors.csv", ["subject_id", "error"], errors)
        for subject, message in errors:
            click.echo(f"subject {subject}: {message}", err=True)
    if not summary_rows:
        raise TraceError("no subject could be scored")
    if corpus is not None:
        for row, extra in zip(summary_rows, analytics.polarity_averages([*scores.values()])):
            row.update(extra)
    _write_steps(out_dir, ["subject", "series"] if corpus is None else ["subject"], scores)
    write_csv(out_dir / "summary.csv", [*summary_rows[0]], ([*r.values()] for r in summary_rows))
    if corpus is None:
        averages: Dict[str, Dict[str, float]] = {}
        for row in summary_rows:
            averages.setdefault(row["subject_id"], {})[row["series"]] = row["average"]
        rankings = {subject: analytics.rank_targets(a) for subject, a in averages.items()}
        _write_json(out_dir / "ranking.json", rankings, indent=2)
    return {"subjects": len({row["subject_id"] for row in summary_rows}), "errors": len(errors)}


def _error_text(series, error) -> str:
    return str(error) if series is None else f"{series}: {error}"


def run_score_corpus(traj_csv, index_path, cfg: RunConfig, out_dir) -> dict:
    corpus, features = load_corpus(index_path)
    traj_data = load_trajectory_csv(traj_csv)
    if traj_data[2] != features:
        raise TrajectoryError(f"{traj_csv}: trajectory features {traj_data[2]} do not match "
                              f"index features {features}")
    if not cfg.polarity_map:
        raise ConfigError("corpus mode requires a polarity_map in the config")
    unknown = [c for c in cfg.polarity_map if c not in corpus.class_indices]
    if unknown:
        raise ConfigError(f"polarity_map names class {unknown[0]!r}, which the index "
                          f"{index_path} lacks (classes: {corpus.classes()})")
    for label in cfg.polarity_map:
        if cfg.k_neighbors > corpus.class_size(label):
            click.echo(f"warning: k={cfg.k_neighbors} exceeds class {label!r} size "
                       f"{corpus.class_size(label)}; clamping", err=True)
    provider = knn_provider(corpus, cfg.k_neighbors, cfg.polarity_map)
    return _score_cohort(traj_data, [(None, provider)], cfg, out_dir, corpus)


def read_series_csv(path, feature_names) -> Dict[int, List[float]]:
    if not Path(path).is_file():   # say, a directory named *.csv in --targets-dir
        raise TargetError(f"{path}: not a file")
    rows = read_csv(path, TargetError)
    header = next(rows)
    if header[0] != "t":
        raise TargetError(f"{path}: header must start with t")
    if header[1:] != list(feature_names):
        raise TargetError(f"{path}: series features {header[1:]} do not match "
                          f"trajectory features {list(feature_names)}")
    # every row's values are checked before any row's t
    parsed = [(f"{path}:{line}", row[0], parse_cells(row[1:], f"{path}:{line}", TargetError))
              for line, row in rows]
    points: Dict[int, List[float]] = {}
    for where, cell, values in parsed:
        t = parse_t(cell, where, TargetError)
        if t in points:
            raise TargetError(f"{where}: duplicate t={t}")
        points[t] = values
    return points


def run_score_series(traj_csv, targets_dir, cfg: RunConfig, out_dir) -> dict:
    traj_data = load_trajectory_csv(traj_csv)
    files = sorted(Path(targets_dir).glob("*.csv"))
    if not files:
        raise TargetError(f"no target series found in {targets_dir}")
    target_sets = [(f.stem, series_provider(f.stem,
                                            cfg.polarity_map.get(f.stem, Polarity.DESIRABLE),
                                            read_series_csv(f, traj_data[2])))
                   for f in files]
    names = [f.stem for f in files]
    unknown = [s for s in cfg.polarity_map if s not in names]
    if unknown:
        raise ConfigError(f"polarity_map names series {unknown[0]!r}, which {targets_dir} "
                          f"lacks (series: {names})")
    return _score_cohort(traj_data, target_sets, cfg, out_dir)


def _write_steps(out_dir: Path, key_fields: Sequence[str],
                 scores: Dict[Tuple[str, ...], scoring.TrajectoryScore]) -> None:
    """``steps.jsonl``, one ``json.dumps(line, sort_keys=True)`` per scored
    step in scoring order, and ``scores_wide.csv``, one row per key in sorted
    order and one column per scored t, blank where the key has no score.
    Keys whose scores share labels and polarities are formatted as one group
    (``_group_lines``), each scored ``combined`` once, for both files."""
    rows: Dict[Tuple[str, ...], Dict[int, str]] = {}
    groups: Dict[tuple, list] = {}
    for key, ts in scores.items():
        groups.setdefault((tuple(ts.labels), ts.polarity.tobytes()), []).append(key)
    lines = {key: group_lines for keys in groups.values()
             for group_lines in [_group_lines(key_fields, keys, scores, rows)] for key in keys}
    with open(out_dir / "steps.jsonl", "w") as fh:   # a group is freed after its last key
        fh.writelines(next(lines.pop(key)) for key in scores)
    times = sorted(set().union(*rows.values()))
    write_csv(out_dir / "scores_wide.csv", [*key_fields, *(f"t{t}" for t in times)],
              ([*key, *map(rows[key].get, times)] for key in sorted(rows)))


def _group_lines(key_fields, keys, scores, rows):
    """The step lines of each of ``keys`` in turn, one join of template parts, from
    the arrays of their scores (which share labels and polarities) stacked once:
    each key's ``{t: combined text}`` goes into ``rows``, and its ``per_class``
    text comes from it or the class means."""
    group = [scores[key] for key in keys]
    scored = np.concatenate([ts.skip for ts in group]) == 0
    ends = np.concatenate(([0], np.cumsum(scored)))[
        np.cumsum([0, *(len(ts.skip) for ts in group)])].tolist()
    combined = np.concatenate([ts.combined for ts in group])[scored]
    labels, polarity = group[0].labels, group[0].polarity
    order = sorted(range(len(labels)), key=labels.__getitem__)
    names = [f"{json.dumps(labels[c])}: " for c in order]
    per_class = np.concatenate([ts.per_class for ts in group])[scored][:, order]
    if len(order) == 1:   # combined is polarity * per_class / 1, but +0.0 for a zero mean
        fix = np.flatnonzero(per_class[:, 0].view(np.int64)
                             != (polarity[0] * combined).view(np.int64))
        fixed = [repr(v) for v in per_class[fix, 0].tolist()]
        fix, per_class = fix.tolist(), None
    t = np.concatenate([ts.steps for ts in group])[scored]
    t_text = {v: str(v) for v in np.unique(t).tolist()}
    t, combined = t.tolist(), [*map(repr, combined.tolist())]
    for key, a, b in zip(keys, ends, ends[1:]):
        rows[key] = dict(zip(t[a:b], combined[a:b]))
    del t, scored, combined   # the groups' lines interleave: keep only what they need
    head = ', "per_class": {' + (names[0] if per_class is None else "")
    for key, a, b in zip(keys, ends, ends[1:]):
        texts = rows[key]
        if per_class is None:
            pc = ([c[1:] if c[0] == "-" else "-" + c for c in texts.values()]
                  if polarity[0] < 0 else [*texts.values()])
            for i in range(bisect_left(fix, a), bisect_left(fix, b)):
                pc[fix[i] - a] = fixed[i]
        else:
            pc = [", ".join(name + repr(v) for name, v in zip(names, means) if v == v)
                  for means in per_class[a:b].tolist()]
        tag = "".join(f'"{f}": {json.dumps(v)}, ' for f, v in sorted(zip(key_fields, key)))
        parts = ['{"combined": ', "", head, "", "}, " + tag + '"t": ', "", "}\n"] * len(pc)
        parts[1::7], parts[3::7], parts[5::7] = texts.values(), pc, map(t_text.get, texts)
        yield "".join(parts)


def _write_json(path, doc, indent=None) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def read_averages_csv(path) -> List[float]:
    rows = read_csv(path, ConfigError)
    header = next(rows)
    if "average" not in header:
        raise ConfigError(f"{path}: missing column: average")
    col = header.index("average")
    averages, outside = [], None
    for line, row in rows:
        averages += parse_cells(row[col:col + 1], f"{path}:{line}", ConfigError)
        if outside is None and abs(averages[-1]) > 1.0:   # raised once every cell has parsed
            outside = f"{path}:{line}: average {row[col]!r} lies outside [-1, 1]"
    if len(averages) < 2:
        raise ConfigError(f"{path}: needs at least 2 averages to compare, got {len(averages)}")
    if outside:
        raise ConfigError(outside)
    return averages


# -- click wiring -----------------------------------------------------------

class _Commands(click.Group):
    """Runs a command; a library error ends it with one ``error:`` line and
    exit code 2 for an input error, 1 for a runtime failure."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, TraceError) as e:   # OSError: say, an output path not writable
            click.echo(f"error: {e}", err=True)
            sys.exit(2 if isinstance(e, _USAGE_ERRORS) else 1)


@click.group(cls=_Commands)
def main():
    """TraCE trajectory scoring toolkit."""


@main.command("build-index")
@click.argument("corpus_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_build_index(corpus_csv, out_path):
    """Build per-class nearest-neighbor indices from a labeled corpus CSV."""
    counts = run_build_index(corpus_csv, out_path)
    for label in sorted(counts):
        click.echo(f"{label}: {counts[label]}")


@main.command("score")
@click.argument("trajectories_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--index", "index_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--targets-dir", default=None, type=click.Path(exists=True, file_okay=False))
@click.option("--config", "config_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_score(trajectories_csv, index_path, targets_dir, config_path, out_dir):
    """Score trajectories against a corpus index or fixed target series."""
    if (index_path is None) == (targets_dir is None):
        raise ConfigError("exactly one of --index or --targets-dir is required")
    cfg = RunConfig.from_json_file(config_path) if config_path else RunConfig()
    click.echo(f"config: lambda={cfg.lam} k={cfg.k_neighbors}", err=True)
    if index_path is not None:
        info = run_score_corpus(trajectories_csv, index_path, cfg, out_dir)
    else:
        info = run_score_series(trajectories_csv, targets_dir, cfg, out_dir)
    click.echo(json.dumps(info, sort_keys=True))


@main.command("compare")
@click.argument("scores_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("scores_b", type=click.Path(exists=True, dir_okay=False))
def cmd_compare(scores_a, scores_b):
    """Welch's t-test between the `average` columns of two summary CSVs."""
    cmp = analytics.welch_t_test(read_averages_csv(scores_a), read_averages_csv(scores_b))
    click.echo(json.dumps(cmp.to_json(), sort_keys=True))


@main.command("demo")
@click.option("--scenario", type=click.Choice(["toy", "icu", "ssp"]), required=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_demo(scenario, seed, out_dir):
    """Generate a seeded synthetic dataset and run the full pipeline on it."""
    run_demo(scenario, seed, out_dir)


def run_demo(scenario, seed, out_dir) -> None:
    out = Path(out_dir)
    fixtures = out / "fixtures"
    # the files any demo writes besides a score run's, which the score run removes
    for name in ("index.bin", "comparison.json", *(f"summary_{c}.csv" for c in demo.ICU_CLASSES),
                 "fixtures/corpus.csv", "fixtures/trajectories.csv", "fixtures/config.json",
                 *(f"fixtures/targets/{s}.csv" for s in demo.SSP_NAMES)):
        (out / name).unlink(missing_ok=True)
    if (fixtures / "targets").is_dir() and not any((fixtures / "targets").iterdir()):
        (fixtures / "targets").rmdir()
    tables, pmap = {"toy": demo.gen_toy, "icu": demo.gen_icu, "ssp": demo.gen_ssp}[scenario](seed)
    for name, (header, rows) in tables.items():
        (fixtures / name).parent.mkdir(parents=True, exist_ok=True)
        write_csv(fixtures / name, header, rows)
    if scenario == "ssp":
        run_score_series(fixtures / "trajectories.csv", fixtures / "targets", RunConfig(), out)
    else:
        _write_json(fixtures / "config.json", {"lambda": RunConfig.lam, "polarity_map": pmap,
                                               "k_neighbors": RunConfig.k_neighbors})
        cfg = RunConfig.from_json_file(fixtures / "config.json")
        counts = run_build_index(fixtures / "corpus.csv", out / "index.bin")
        for label in sorted(counts):
            click.echo(f"corpus {label}: {counts[label]}")
        run_score_corpus(fixtures / "trajectories.csv", out / "index.bin", cfg, out)
        if scenario == "icu":
            _demo_icu_compare(out)
    click.echo(f"demo {scenario} written to {out}")


def _demo_icu_compare(out: Path) -> None:
    """Split the summary by outcome label and compare the groups."""
    lines = read_csv(out / "summary.csv", TraceError)
    header = next(lines)
    col = header.index("label")
    groups: Dict[str, List[List[str]]] = {}
    for _, row in lines:
        groups.setdefault(row[col], []).append(row)
    for label in sorted(groups):
        write_csv(out / f"summary_{label}.csv", header, groups[label])
        click.echo(f"cohort {label}: {len(groups[label])}")
    if len(groups) == 2:
        la, lb = sorted(groups)
        cmp = analytics.welch_t_test(read_averages_csv(out / f"summary_{la}.csv"),
                                     read_averages_csv(out / f"summary_{lb}.csv"))
        _write_json(out / "comparison.json", {"group_a": la, "group_b": lb, **cmp.to_json()})


if __name__ == "__main__":
    main()
