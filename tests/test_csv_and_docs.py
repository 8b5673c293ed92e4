"""Tests for CSV export and the package's executable documentation
(doctests in module docstrings)."""

import ast
import doctest
import os

import pytest

from repro.core import address, flattened_butterfly
from repro.experiments import fig02_scalability, fig07_cable_cost
from repro.experiments.common import Table


class TestTableCSV:
    def test_round_trips_values(self):
        table = Table("demo", ["a", "b"])
        table.add(1, 2.5)
        table.add(3, float("inf"))
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert lines[2] == "3,inf"

    def test_quoting(self):
        table = Table("demo", ["name"])
        table.add("has, comma")
        assert '"has, comma"' in table.to_csv()


class TestExperimentCSV:
    def test_write_csv(self, tmp_path):
        result = fig07_cable_cost.run("ci")
        paths = result.write_csv(tmp_path)
        assert len(paths) == len(result.tables)
        for path in paths:
            assert os.path.exists(path)
            with open(path) as handle:
                content = handle.read()
            assert content.count("\n") >= 2

    def test_cli_csv_flag(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig02", "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert any(name.endswith(".csv") for name in os.listdir(tmp_path))


class TestDoctests:
    """Docstring examples must actually run."""

    @pytest.mark.parametrize(
        "module",
        [address, flattened_butterfly],
        ids=lambda m: m.__name__,
    )
    def test_module_doctests(self, module):
        failures, tests = doctest.testmod(
            module, verbose=False, report=False
        ).failed, doctest.testmod(module, verbose=False, report=False).attempted
        assert tests > 0, f"{module.__name__} should carry doctests"
        assert failures == 0


class TestAPIDocGenerator:
    def test_generates_reference(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "API.md"
        result = subprocess.run(
            [sys.executable, "scripts/gen_api_docs.py", str(out)],
            capture_output=True,
            text=True,
            cwd=".",
        )
        assert result.returncode == 0, result.stderr
        text = out.read_text()
        # Spot-check coverage of the main public surface.
        for anchor in (
            "repro.core.flattened_butterfly",
            "class `FlattenedButterfly",
            "repro.network.simulator",
            "class `Simulator",
            "repro.cost.model",
            "repro.analysis.channel_load",
        ):
            assert anchor in text, anchor

    def test_checked_in_reference_is_current_enough(self, tmp_path):
        """docs/API.md documents exactly the names the generator finds
        now, with numpy importable and with it blocked (the no-numpy
        install).  Names only: signatures render differently across
        Python versions."""
        import subprocess
        import sys

        with open("docs/API.md") as handle:
            committed = _documented_names(handle.read())
        for block in ("0", "1"):
            out = tmp_path / f"API-{block}.md"
            result = subprocess.run(
                [sys.executable, "-c", _GENERATE, str(out), block],
                capture_output=True, text=True, cwd=".",
            )
            assert result.returncode == 0, result.stderr
            current = _documented_names(out.read_text())
            assert current == committed, (
                f"docs/API.md is stale (numpy blocked: {block == '1'}): "
                f"undocumented {sorted(current - committed)}, gone "
                f"{sorted(committed - current)}; regenerate it with "
                f"scripts/gen_api_docs.py"
            )


#: Runs scripts/gen_api_docs.py into ``argv[1]``, with numpy blocked
#: when ``argv[2]`` is ``"1"``.
_GENERATE = """
import runpy, sys
out, block = sys.argv[1], sys.argv[2] == "1"
if block:
    sys.modules["numpy"] = None
sys.argv = ["gen_api_docs.py", out]
runpy.run_path("scripts/gen_api_docs.py", run_name="__main__")
"""


def _documented_names(text):
    """Every dotted name an API reference documents: each module, its
    classes and functions, and each class's methods and properties."""
    import re

    names = set()
    module = owner = None
    for line in text.splitlines():
        if line.startswith("## `"):
            module = owner = line[4:].split("`")[0]
            names.add(module)
        elif line.startswith("### "):
            name = re.match(r"### (?:class )?`(\w+)", line)[1]
            owner = f"{module}.{name}"
            names.add(owner)
        elif line.startswith("- `"):
            name = re.match(r"- `(\w+)", line)[1]
            names.add(f"{owner}.{name}")
    return names


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every environment variable the package reads.  A new one needs a
#: caller that sets it and a line in README.md or docs/*.md.
ENVIRONMENT_VARIABLES = {
    "REPRO_CACHE_DIR",
    "REPRO_FULL",
    "REPRO_JOBS",
    "REPRO_PROFILE_PHASES",
}


def _source_trees():
    """``(path relative to the repo, parsed module)`` for every module
    under ``src/repro``."""
    for dirpath, _dirs, files in os.walk(os.path.join(REPO_ROOT, "src", "repro")):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as handle:
                tree = ast.parse(handle.read())
            yield os.path.relpath(path, REPO_ROOT), tree


def _repro_names_in_string_literals():
    """``REPRO_*`` names in any string literal (docstrings included)
    under ``src/repro``."""
    import re

    pattern = re.compile(r"REPRO_[A-Z_]+")
    names = set()
    for _path, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(pattern.findall(node.value))
    return names


class TestEnvironmentInventory:
    def test_package_reads_only_the_listed_variables(self):
        assert _repro_names_in_string_literals() == ENVIRONMENT_VARIABLES

    def test_each_variable_is_documented(self):
        import glob

        paths = [os.path.join(REPO_ROOT, "README.md")] + sorted(
            glob.glob(os.path.join(REPO_ROOT, "docs", "*.md"))
        )
        text = ""
        for path in paths:
            with open(path) as handle:
                text += handle.read()
        for variable in sorted(ENVIRONMENT_VARIABLES):
            assert variable in text, f"{variable} is not documented"


def _unreachable_lines(tree):
    """Line numbers of statements that follow a ``return``, ``raise``,
    ``continue`` or ``break`` in the same block: code that never runs."""
    terminal = (ast.Return, ast.Raise, ast.Continue, ast.Break)
    lines = []
    for node in ast.walk(tree):
        for _field, block in ast.iter_fields(node):
            if not isinstance(block, list):
                continue
            for stmt, following in zip(block, block[1:]):
                if isinstance(stmt, terminal):
                    lines.append(following.lineno)
    return lines


class TestNoUnreachableCode:
    def test_checker_flags_code_after_each_terminal(self):
        source = (
            "def f(xs):\n"
            "    for x in xs:\n"
            "        if x:\n"
            "            continue\n"
            "            a = 1\n"
            "        break\n"
            "        b = 2\n"
            "    try:\n"
            "        raise ValueError\n"
            "        c = 3\n"
            "    finally:\n"
            "        pass\n"
            "    return xs\n"
            "    d = 4\n"
        )
        assert sorted(_unreachable_lines(ast.parse(source))) == [5, 7, 10, 14]

    def test_no_statement_follows_a_terminal_in_src(self):
        found = [
            f"{path}:{line}"
            for path, tree in _source_trees()
            for line in _unreachable_lines(tree)
        ]
        assert found == []


class TestBenchmarksRunInCI:
    def test_every_benchmark_script_is_a_ci_step(self):
        """Each ``benchmarks/*.py`` script (``_machine.py`` is a helper
        they import) is run by a step of the CI workflow, so no
        benchmark can pass unrun."""
        import glob

        with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as handle:
            steps = "".join(
                line for line in handle if not line.lstrip().startswith("#")
            )
        scripts = sorted(
            os.path.basename(path)
            for path in glob.glob(os.path.join(REPO_ROOT, "benchmarks", "*.py"))
        )
        assert "_machine.py" in scripts
        unrun = [
            name for name in scripts
            if name != "_machine.py" and f"python benchmarks/{name}" not in steps
        ]
        assert unrun == []
