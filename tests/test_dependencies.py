"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blowdown"


def foreign_imports(source: str) -> list[str]:
    """The absolute imports in `source` of modules neither in the standard
    library nor in `blowdown`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names | {"blowdown"}]


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 7
    for path in files:
        assert foreign_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_a_third_party_import_is_caught():
    source = ("from __future__ import annotations\nimport os.path, numpy\n"
              "from . import mcg\nfrom blowdown import cli\nfrom scipy.linalg import det\n"
              "def f():\n    import sympy\n")
    assert foreign_imports(source) == ["numpy", "scipy.linalg", "sympy"]
