"""The package root's exports and what importing it loads, every module's
imports used, every definition named and every parameter read, the README's
library example run as code, and the README's configuration keys, command-line
options, summary columns, index keys and score outputs against the code's."""

import ast
import csv
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import trace_scores
from trace_scores.cli import RunConfig, main
from trace_scores.targets import build_index, save_corpus

REPO = Path(__file__).resolve().parents[1]
README = (REPO / "README.md").read_text()
PACKAGE = REPO / "src" / "trace_scores"

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


@pytest.mark.parametrize("module", ["trace_scores", "trace_scores.cli"])
def test_import_loads_no_scipy_module(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    # no linter is installed: each name a module imports at its top level is
    # read somewhere in it or exported through its __all__
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    assert sorted(imported - used - exported) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_src_parameter_is_read(path):
    # no linter is installed: each parameter of a top-level function or method
    # is read in its body, closures included; the parameters of functions
    # nested in a function and of lambdas are exempt, and a zero-argument
    # super() reads a method's first parameter
    unread = []
    for fn in (f for node in ast.parse(path.read_text()).body
               for f in (node.body if isinstance(node, ast.ClassDef) else [node])
               if isinstance(f, ast.FunctionDef)):
        a = fn.args
        params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if "super" in read:
            read.add(params[0])
        unread += [f"{fn.name}({p})" for p in params if p not in read]
    assert unread == []


def _named(tree) -> Counter:
    """How often ``tree`` names each identifier: as a name, an attribute, an
    import, or a part of a string constant that is a dotted path (the
    benchmark's tracer patches attributes by their names as strings)."""
    named = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.]+", node.value):
            named.update(node.value.split("."))
    return named


@pytest.fixture(scope="module")
def named_in_repo() -> Counter:
    return sum((_named(ast.parse(path.read_text())) for top in ("src", "bench", "tests")
                for path in sorted((REPO / top).rglob("*.py"))), Counter())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_src_definition_is_referenced(path, named_in_repo):
    # no linter is installed: each top-level function or class, and each
    # method that is not a dunder, is named outside its own definition
    # somewhere in src/, bench/ or tests/; click commands are exempt
    definitions = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not any(
                isinstance(d, ast.Call) and ast.unparse(d.func) == "main.command"
                for d in node.decorator_list):
            definitions.append(node)
        if isinstance(node, ast.ClassDef):
            definitions += [m for m in node.body if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__"))]
    unused = [d.name for d in definitions if named_in_repo[d.name] == _named(d)[d.name]]
    assert unused == []


def test_readme_library_example_runs(capsys):
    section = README.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert -1.0 <= float(capsys.readouterr().out) <= 1.0


def test_readme_names_exactly_the_config_keys_and_score_options():
    # the keys are the code spans before the first ";" of the paragraph
    paragraph = re.search(r"^Configuration is a JSON file.*?(?:\n\n|\Z)", README, re.S | re.M)
    assert set(re.findall(r"`(\w+)`", paragraph.group(0).split(";")[0])) == RunConfig._KEYS
    options = set()
    for command in main.commands:
        res = CliRunner().invoke(main, [command, "--help"])
        assert res.exit_code == 0, res.output
        options |= set(re.findall(r"(?<![\w-])--[a-z][\w-]*", res.output)) - {"--help"}
    cli_section = README.split("## CLI", 1)[1].split("\n## ", 1)[0]
    assert options == set(re.findall(r"(?<![\w-])--[a-z][\w-]*", cli_section))


def test_readme_names_exactly_the_index_keys(tmp_path):
    # the keys are the code spans that start the list items after the sentence
    listing = re.search(r"^The header is one JSON object with \w+ keys:\n\n(.*?)(?:\n\n|\Z)",
                        README, re.S | re.M)
    listed = re.findall(r"^- `(\w+)`:", listing.group(1), re.M)
    save_corpus(build_index([[0.0], [1.0]], ["a", "b"]), ["f0"], tmp_path / "index.bin")
    with open(tmp_path / "index.bin", "rb") as fh:
        written = json.loads(fh.readline())
    assert len(listed) == len(set(listed))
    assert set(listed) == set(written)


def test_readme_names_exactly_the_summary_columns(tmp_path):
    # each mode's columns are the code spans, in order, before "in corpus
    # mode" and before "in series mode"
    sentence = re.search(r"^`summary\.csv` has the columns (.*?) in corpus mode, and "
                         r"(.*?) in series mode\.", README, re.S | re.M)
    (tmp_path / "corpus.csv").write_text("f0,label\n0.0,a\n1.0,b\n")
    (tmp_path / "traj.csv").write_text("subject_id,t,f0,label\ns1,0,0.2,a\ns1,1,0.8,a\n")
    (tmp_path / "config.json").write_text(
        json.dumps({"polarity_map": {"a": "undesirable", "b": "desirable"}}))
    (tmp_path / "targets").mkdir()
    (tmp_path / "targets" / "goal.csv").write_text("t,f0\n0,1.0\n1,1.0\n")
    runner = CliRunner()
    res = runner.invoke(main, ["build-index", str(tmp_path / "corpus.csv"),
                               "--out", str(tmp_path / "index.bin")])
    assert res.exit_code == 0, res.output
    runs = {"corpus": ["--index", str(tmp_path / "index.bin"),
                       "--config", str(tmp_path / "config.json")],
            "series": ["--targets-dir", str(tmp_path / "targets")]}
    for mode, listed in zip(runs, sentence.groups()):
        out = tmp_path / mode
        res = runner.invoke(main, ["score", str(tmp_path / "traj.csv"), *runs[mode],
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / "summary.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert re.findall(r"`(\w+)`", listed) == header


def test_readme_names_exactly_the_score_outputs(tmp_path):
    # the files are the code spans in the parentheses after "each file a score
    # run writes"; each run's trajectory file has a one-point subject, so both
    # runs write errors.csv
    listing = re.search(r"each file a\s+score run writes \((.*?)\)", README, re.S)
    listed = re.findall(r"`([\w.]+)`", listing.group(1))
    (tmp_path / "corpus.csv").write_text("f0,label\n0.0,a\n1.0,b\n")
    (tmp_path / "traj.csv").write_text("subject_id,t,f0,label\ns1,0,0.2,a\ns1,1,0.8,a\n"
                                       "s2,0,0.5,b\n")
    (tmp_path / "config.json").write_text(json.dumps({"polarity_map": {"a": "desirable"}}))
    (tmp_path / "targets").mkdir()
    (tmp_path / "targets" / "goal.csv").write_text("t,f0\n0,1.0\n1,1.0\n")
    runner = CliRunner()
    res = runner.invoke(main, ["build-index", str(tmp_path / "corpus.csv"),
                               "--out", str(tmp_path / "index.bin")])
    assert res.exit_code == 0, res.output
    written = {}
    for mode, args in {"corpus": ["--index", str(tmp_path / "index.bin"),
                                  "--config", str(tmp_path / "config.json")],
                       "series": ["--targets-dir", str(tmp_path / "targets")]}.items():
        res = runner.invoke(main, ["score", str(tmp_path / "traj.csv"), *args,
                                   "--out", str(tmp_path / mode)])
        assert res.exit_code == 0, res.output
        written[mode] = {f.name for f in (tmp_path / mode).iterdir()}
    assert len(listed) == len(set(listed))
    assert written["corpus"] | written["series"] == set(listed)
    assert written["series"] - {"ranking.json"} == written["corpus"]
