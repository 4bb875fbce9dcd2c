"""The package root's exports, the README's library example run as code, and
the README's configuration keys and `trace score` options against the code's."""

import re
from pathlib import Path

from click.testing import CliRunner

import trace_scores
from trace_scores.cli import RunConfig, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

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
    section = README.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert -1.0 <= float(capsys.readouterr().out) <= 1.0


def test_readme_names_exactly_the_config_keys_and_score_options():
    # the keys are the code spans before the first ";" of the paragraph
    paragraph = re.search(r"^Configuration is a JSON file.*?(?:\n\n|\Z)", README, re.S | re.M)
    assert set(re.findall(r"`(\w+)`", paragraph.group(0).split(";")[0])) == RunConfig._KEYS
    res = CliRunner().invoke(main, ["score", "--help"])
    assert res.exit_code == 0, res.output
    options = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", res.output)) - {"--help"}
    assert options and options <= set(re.findall(r"--[a-z][\w-]*", README))
