"""Every exported error type is one the library raises somewhere.

The sources under `src/lossfish` are read with `ast`; a type whose last
`raise` was deleted then fails here instead of lingering in the public API.
"""

import ast
from pathlib import Path

import lossfish
from lossfish import LossfishError

SOURCES = Path(lossfish.__file__).resolve().parent


def raised_names():
    """Names of the exceptions that a `raise` statement in the library names."""
    names = set()
    for path in SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_exported_error_types_are_all_raised():
    exported = {name for name in lossfish.__all__
                if isinstance(obj := getattr(lossfish, name), type)
                and issubclass(obj, LossfishError) and obj is not LossfishError}
    raised = {name for name in raised_names()
              if isinstance(obj := getattr(lossfish.errors, name, None), type)
              and issubclass(obj, LossfishError)}
    assert exported == raised
