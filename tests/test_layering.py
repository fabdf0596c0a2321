"""The SLD route chain lives in one module, and no module imports dead names.

`qfi.py` holds the QFI routes and their failure exits;
`optimize.py` only searches and plans.  The sources under `src/lossfish` are
read with `ast`, so a kernel name that leaks into another module, or an
import that nothing reads, fails here.
"""

import ast
from pathlib import Path

import lossfish

SOURCES = Path(lossfish.__file__).resolve().parent
KERNEL = {"_sld_qfi_batch", "_stein", "_eigh_basis", "_williamson_sum", "_pair_terms",
          "SLD_RESIDUAL_TOL"}
ROUTE_PARTS = {"output_moments", "moment_derivatives", "two_mode_moments",
               "SingularSystem"}


def nodes(name):
    path = SOURCES / name
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def named(name):
    """Every identifier that module `name` defines, reads or imports."""
    found = set()
    for node in nodes(name):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname} - {None})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def imported(name):
    """The names that module `name` imports."""
    return {alias.name for node in nodes(name)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_only_qfi_names_the_sld_kernel():
    users = {path.name for path in SOURCES.glob("*.py") if named(path.name) & KERNEL}
    assert users == {"qfi.py"}


def test_optimize_builds_no_moments_and_raises_no_solver_error():
    assert not imported("optimize.py") & ROUTE_PARTS


def test_every_import_is_read():
    # no linter runs on the sources, so this stands in for an unused-import
    # check; a name re-exported through `lossfish.__all__` counts as read
    exported = set(lossfish.__all__)
    unused = {}
    for path in SOURCES.glob("*.py"):
        bound, read = set(), set()
        for node in nodes(path.name):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        if bound - read - exported:
            unused[path.name] = sorted(bound - read - exported)
    assert unused == {}
