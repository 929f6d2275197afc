"""The package reads only public names of the standard library, apart from
the ones the lean response parse reads.

A private name (``_``-prefixed, dunders aside) may change or vanish in any
Python release. The lean response parse in ``llm_labeler`` reads some, and
a one-time probe falls back to the stock parse when they fail; no other
module imports a private stdlib module or name, or reads a private
attribute off a stdlib module.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import minerlink

_MODULES = sorted(Path(minerlink.__file__).parent.glob("*.py"))
# the private names that ``llm_labeler._response_class`` probes, in source order;
# the ones read off ``self`` (``_read_status``, ``_check_close``, ``_method``) are not seen here
_PROBED = {
    "llm_labeler.py": [
        "http.client._read_headers",
        "http.client._read_headers",
    ],
}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _stdlib(module: str) -> bool:
    return module.split(".")[0] in sys.stdlib_module_names


def private_stdlib_names(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each private stdlib name ``source`` imports or reads, in source order."""
    tree = ast.parse(source)
    found = []
    stdlib_names = set()  # the names that imports from the standard library bind
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _stdlib(alias.name):
                    stdlib_names.add(alias.asname or alias.name.split(".")[0])
                    if any(map(_private, alias.name.split("."))):
                        found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _stdlib(node.module):
            for alias in node.names:
                stdlib_names.add(alias.asname or alias.name)
                if any(map(_private, node.module.split("."))) or _private(alias.name):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in stdlib_names:
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", _MODULES, ids=[path.name for path in _MODULES])
def test_module_reads_no_private_stdlib_name_but_the_probed_ones(path):
    found = private_stdlib_names(path.read_text(encoding="utf-8"))
    assert [name for _, name in found] == _PROBED.get(path.name, []), found


def test_the_check_finds_private_imports_and_attributes():
    source = (
        "import http.client\n"
        "import os as system, _thread\n"
        "from email._policybase import compat32\n"
        "from http.client import _MAXLINE, HTTPResponse\n"
        "from .records import _LINES\n"
        "lines = http.client._read_headers(fp)\n"
        "status = HTTPResponse._read_status\n"
        "system._exit(0)\n"
        "name, self._x, http.client.__name__ = compat32.__name__, 1, 2\n"
    )
    assert private_stdlib_names(source) == [
        (2, "_thread"),
        (3, "email._policybase.compat32"),
        (4, "http.client._MAXLINE"),
        (6, "http.client._read_headers"),
        (7, "HTTPResponse._read_status"),
        (8, "system._exit"),
    ]
