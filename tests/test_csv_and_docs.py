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

    def test_checked_in_reference_is_current_enough(self):
        """docs/API.md must exist and mention every top-level package."""
        with open("docs/API.md") as handle:
            text = handle.read()
        for package in ("repro.core", "repro.topologies", "repro.network",
                        "repro.traffic", "repro.cost", "repro.power",
                        "repro.analysis"):
            assert package in text


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
