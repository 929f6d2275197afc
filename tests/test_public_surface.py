"""Every name the package exports is reached by something besides the tests.

``minerlink/__init__.py`` is the package's public surface. Each name it
imports must be read somewhere outside its own definition: by another
module of the package (attribute access such as ``cluster_mod.cluster_report``
counts), by a script under ``bench/``, or in the code of ``README.md``. A
name that only the tests read is code that no stage runs: it belongs in the
tests, or nowhere.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import minerlink

_PACKAGE = Path(minerlink.__file__).parent
_ROOT = Path(__file__).resolve().parent.parent
# a fenced code block or an inline code span of markdown
_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)


def exported_names(init_source: str) -> list[str]:
    """The names ``__init__.py`` imports from the package's modules, in source order."""
    return [
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def read_names(source: str) -> set[str]:
    """The names and attributes ``source`` reads, but for those a top-level
    def or class reads of its own name."""
    found = set()
    for statement in ast.parse(source).body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
        names.discard(getattr(statement, "name", None))
        found |= names
    return found


def unreached(init_source: str, module_sources: list[str], bench_sources: list[str], readme: str) -> list[str]:
    """The exported names that no module, bench script or README code reads."""
    reached = set().union(*map(read_names, module_sources + bench_sources))
    reached.update(word for code in _CODE.findall(readme) for word in re.findall(r"\w+", code))
    return [name for name in exported_names(init_source) if name not in reached]


def test_every_exported_name_is_reached_outside_the_tests():
    modules = [path.read_text(encoding="utf-8") for path in sorted(_PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    bench = [path.read_text(encoding="utf-8") for path in sorted((_ROOT / "bench").glob("*.py"))]
    init = (_PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unreached(init, modules, bench, (_ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_the_check_finds_names_read_only_by_themselves_or_in_prose():
    init = (
        "from .a import by_module, by_attribute, recursive, stored, defined_after_use\n"
        "from .b import (by_bench, by_readme_block, by_readme_span, in_prose)\n"
        "__version__ = '0'\n"
    )
    a = (
        "TABLE = defined_after_use()\n"
        "def defined_after_use():\n"
        "    return defined_after_use\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else by_module()\n"
        "def by_module():\n"
        "    return 0\n"
        "stored = by_module\n"
    )
    b = "import pkg.mod as mod\n\nclass by_bench:\n    size = mod.by_attribute\n"
    bench = "import minerlink\n\nminerlink.by_bench()\n"
    readme = "Call `by_readme_span(x)`; in_prose is only prose.\n\n```python\nby_readme_block()\n```\n"
    assert unreached(init, [a, b], [bench], readme) == ["recursive", "stored", "in_prose"]
