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
KERNEL = {"_sld_qfi_batch", "_stein", "_williamson_sum", "_pair_terms",
          "SLD_RESIDUAL_TOL"}
ROUTE_PARTS = {"apply_channel", "channel_derivative", "build_two_mode",
               "_canonical_table", "_channel_factors", "SingularSystem"}


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


def functions():
    """``(module, top-level function)`` for every function in the sources;
    a nested function counts as part of the one that holds it."""
    return [(path.name, node) for path in SOURCES.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)]


def reads(node):
    """Every name and attribute that the code under `node` reads."""
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def imported(name):
    """The names that module `name` imports."""
    return {alias.name for node in nodes(name)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_only_qfi_names_the_sld_kernel():
    users = {path.name for path in SOURCES.glob("*.py") if named(path.name) & KERNEL}
    assert users == {"qfi.py"}


def test_only_states_defines_the_williamson_decomposition():
    definers = {path.name for path in SOURCES.glob("*.py")
                for node in nodes(path.name) if isinstance(node, ast.FunctionDef)
                and node.name in {"_williamson", "_basis_error"}}
    assert definers == {"states.py"}


def test_only_channel_defines_the_channel_action():
    definers = {path.name for path in SOURCES.glob("*.py")
                for node in nodes(path.name) if isinstance(node, ast.FunctionDef)
                and node.name in {"_output_entries", "_derivative_entries"}}
    assert definers == {"channel.py"}


def writes_a_moment_table(node):
    """True if `node` holds a 4x4 list literal with a 0.0 entry: a two-mode
    covariance table written out with its structural zeros."""
    return any(isinstance(t, ast.List) and len(t.elts) == 4
               and all(isinstance(row, ast.List) and len(row.elts) == 4 for row in t.elts)
               and any(isinstance(x, ast.Constant) and x.value == 0.0
                       for row in t.elts for x in row.elts)
               for t in ast.walk(node))


def test_one_function_builds_the_canonical_table():
    # the canonical probe's moments are written once, and the probe builder
    # and the (zeta, r) grid both read them from there
    builders = {(module, node.name) for module, node in functions()
                if writes_a_moment_table(node)}
    assert builders == {("probes.py", "_canonical_table")}
    users = {node.name for _, node in functions() if "_canonical_table" in reads(node)}
    assert users == {"build_two_mode", "_two_mode_outputs"}


def test_sld_kernel_has_two_callers():
    # one state from qfi_sld, and the grid's rows from _two_mode_qfi
    callers = {(module, node.name) for module, node in functions()
               if any(isinstance(call, ast.Call) and "_sld_qfi_batch" in reads(call.func)
                      for call in ast.walk(node))}
    assert callers == {("qfi.py", "qfi_sld"), ("qfi.py", "_two_mode_qfi")}


def test_two_mode_grid_takes_its_outputs_from_the_channel():
    (grid,) = [node for node in nodes("qfi.py") if isinstance(node, ast.FunctionDef)
               and node.name == "_two_mode_outputs"]
    names = reads(grid)
    assert {"_output_entries", "_derivative_entries"} <= names
    assert not names & {"_channel_factors", "zeros_like"}


def test_single_state_routes_take_their_entries_from_the_channel():
    # one state stays on Python floats from the channel's entry functions to
    # its QFI: no output GaussianState, and no numpy linear algebra in the
    # purity form
    routes = {node.name: node for node in nodes("qfi.py")
              if isinstance(node, ast.FunctionDef)
              and node.name in {"qfi_sld", "qfi_single_mode_form"}}
    assert set(routes) == {"qfi_sld", "qfi_single_mode_form"}
    for name, route in routes.items():
        names = reads(route)
        assert {"_output_entries", "_derivative_entries"} <= names, name
        assert not names & {"apply_channel", "channel_derivative"}, name
        if name == "qfi_single_mode_form":
            assert "linalg" not in names


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
