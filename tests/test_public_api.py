"""The package root's exports, and the README's library example run as code."""

import re
from pathlib import Path

import trace_scores

ROOT_NAMES = {
    "Polarity", "Trajectory", "aggregate", "build_index", "closest_point",
    "fit_normalizer", "impute", "knn_provider", "score_trajectory",
    "series_provider", "step_score", "welch_t_test",
}


def test_root_exports_exactly_the_public_names():
    assert len(trace_scores.__all__) == len(ROOT_NAMES)
    assert set(trace_scores.__all__) == ROOT_NAMES
    for name in ROOT_NAMES:
        assert getattr(trace_scores, name).__module__.startswith("trace_scores.")


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert -1.0 <= float(capsys.readouterr().out) <= 1.0
