"""Source hygiene: every module of the package uses each name it imports.

``__init__.py`` is exempt, since its imports are the public API.  The check
reads the source with the standard library's ``ast``; a name counts as used
when it appears anywhere as a bare name, annotations included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qest"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_guard_sees_unused_names():
    source = "import math\nimport numpy as np\nfrom .linalg import dagger, eigh\nnp.eye(eigh)\n"
    assert unused_imports(source) == ["dagger", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
