"""Static checks on the package source, in place of a linter."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spannerdraw"


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads. A __future__ import binds
    no name, and `import a.b` binds a."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_found():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc(os)\n"
    assert unused_imports(source) == ["a"]


def test_no_unused_imports():
    # __init__.py imports to re-export.
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
