"""Every library name the benchmark harness calls or traces still exists.

`perfbench` is read as source with `ast` and never imported, so a missing
name fails here instead of crashing a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def traced_names():
    """``(module, name)`` pairs of the ``TRACED`` table in tracing.py."""
    for node in parse("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            table = ast.literal_eval(node.value)
            return sorted((mod, name) for mod, names in table.items() for name in names)
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def workload_attributes():
    """``(module, name)`` for every ``alias.name`` that workloads.py reads off
    a module it imports from lossfish (``import lossfish as lf`` gives ``lf``)."""
    tree = parse("workloads.py")
    aliases = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] == "lossfish"}
    return sorted({(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id in aliases})


def test_harness_names_are_found():
    assert len(traced_names()) >= 10
    assert {mod for mod, _ in workload_attributes()} == {"lossfish", "lossfish.cli"}


@pytest.mark.parametrize("module,name",
                         sorted(set(traced_names() + workload_attributes())))
def test_harness_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def dict_literal(path, name):
    """The dict literal assigned to `name` at the top level of `path`."""
    tree = ast.parse(path.read_text(), filename=path.name)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no {name}")


def test_readme_digests_have_one_source():
    # the Tier-1 pin in test_cli.py and the benchmark's output check hold
    # the same README commands and digests
    pinned = dict_literal(Path(__file__).with_name("test_cli.py"), "README_DIGESTS")
    bench = dict_literal(PERFBENCH / "workloads.py", "README_DIGESTS")
    assert pinned == bench and len(bench) == 8


def readme_commands():
    """The ``lossfish ...`` lines of README.md's command block, prefix dropped."""
    text = (PERFBENCH.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.removeprefix("lossfish ") for line in block.splitlines()
            if line.startswith("lossfish ")]


def test_readme_commands_are_pinned():
    # every README command has a pinned digest; the pin holds one more run,
    # sweep-xi with a thermal background
    commands = readme_commands()
    pinned = dict_literal(Path(__file__).with_name("test_cli.py"), "README_DIGESTS")
    assert len(commands) == 7 and set(commands) <= set(pinned)
    assert set(pinned) - set(commands) == {
        "sweep-xi --ns-grid 0.01:100:25:log --eta-grid 0.05:0.95:19 --nb 1"}
