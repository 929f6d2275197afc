"""No function of the package imports a module of the package, but for the
allowed ones.

A module's imports belong at its head, where they show what it depends on.
An import inside a function hides that dependency until the function runs:
the import graph the module heads show is then not the one that runs. The
one allowed exception breaks a cycle: ``matcher`` imports ``evaluate`` at
its head, so ``evaluate.run_sweep`` reads ``matcher`` when a sweep runs.
"""

from __future__ import annotations

import ast
from pathlib import Path

import minerlink

_PACKAGE = Path(minerlink.__file__).parent
# (module file, function, imported module)
ALLOWED = {("evaluate.py", "run_sweep", ".matcher")}


def _package_modules(node: ast.AST) -> list[str]:
    """The package modules an import statement names, as written."""
    if isinstance(node, ast.ImportFrom):
        names = ["." * node.level + (node.module or "")]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return []
    return [name for name in names if name.startswith(".") or name.partition(".")[0] == "minerlink"]


def function_imports(source: str) -> set[tuple[str, str]]:
    """(function, module) of each import of a package module inside a
    function body, the function named by its innermost def."""
    found = set()

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if function is not None:
                found.update((function, module) for module in _package_modules(child))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(ast.parse(source), None)
    return found


def test_only_the_allowed_functions_import_package_modules():
    found = {
        (path.name, function, module)
        for path in sorted(_PACKAGE.glob("*.py"))
        for function, module in function_imports(path.read_text(encoding="utf-8"))
    }
    assert found == ALLOWED


def test_the_check_finds_imports_in_any_function():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .records import Record\n"
        "import json\n"
        "if TYPE_CHECKING:\n"
        "    from .matcher import RuleConfig\n"
        "class Kernel:\n"
        "    from . import errors\n"
        "    def method(self):\n"
        "        from .pairing import PairKey\n"
        "def outer():\n"
        "    import math\n"
        "    def inner():\n"
        "        from . import cluster as cluster_mod\n"
        "    import minerlink.records\n"
        "async def absolute():\n"
        "    from minerlink.cli import main\n"
        "    from minerlink import config\n"
    )
    assert function_imports(source) == {
        ("method", ".pairing"),
        ("inner", "."),
        ("outer", "minerlink.records"),
        ("absolute", "minerlink.cli"),
        ("absolute", "minerlink"),
    }
