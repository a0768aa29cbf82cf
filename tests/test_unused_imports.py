"""No module under ``src/repro/`` imports a name it never uses.

No linter runs on this tree, so this ``ast`` scan stands in for one.  A
name counts as used when the module references it anywhere, including
inside a string that parses as an expression (a quoted annotation, an
``__all__`` entry).  Package ``__init__`` modules are skipped: their
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """``name -> line`` for every name an import statement binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    referenced = _referenced(tree)
    return sorted((line, name) for name, line in _imported(tree).items()
                  if name not in referenced)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"line {line}: {name}"
                                 for line, name in unused)


def test_scan_flags_an_unused_import():
    source = ("from typing import Dict, List\n"
              "import os.path\n"
              "x: 'Dict[str, int]' = {}\n")
    assert unused_imports(source) == [(1, "List"), (2, "os")]
