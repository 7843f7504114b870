"""The package imports nothing outside the standard library and itself,
and a cold start of the CLI loads no module that only some paths need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blowdown"


def absolute_imports(source: str) -> list[str]:
    """The modules `source` imports by absolute name, at any depth."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def foreign_imports(source: str) -> list[str]:
    """The absolute imports in `source` of modules neither in the standard
    library nor in `blowdown`."""
    return [name for name in absolute_imports(source)
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


def float_uses(source: str) -> list[str]:
    """The float and complex literals in `source`, its uses of the names
    `float`, `complex`, `Fraction` and `Decimal`, and its true divisions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(repr(node.value))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex", "Fraction", "Decimal"):
            found.append(node.id)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append("/" if isinstance(node, ast.BinOp) else "/=")
    return found


def test_package_uses_no_floats():
    """The certifier's arithmetic is integral: no float, complex or rational
    enters `src`, and no `/` could make one."""
    for path in sorted(PACKAGE.glob("*.py")):
        assert float_uses(path.read_text(encoding="utf-8")) == [], path.name


def test_a_float_is_caught():
    source = ("x = 3\ny = 1.5 * x\nz = float(x) + 2j\nw = 10 // 4\n"
              "a = b = 2\nc = a / b\na /= b\nh = Fraction(1, 2)\n")
    assert sorted(float_uses(source)) == ["/", "/=", "1.5", "2j", "Fraction", "float"]


PROCESS_SETTINGS = ("set_int_max_str_digits", "setrecursionlimit")


def process_setting_calls(source: str) -> list[str]:
    """The calls in `source` of `sys.set_int_max_str_digits` or
    `sys.setrecursionlimit`, however `sys` or the function was imported."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PROCESS_SETTINGS:
                found.append(name)
    return found


def test_package_changes_no_process_wide_setting():
    """Each of these changes a limit for the whole process, the caller's code
    included: a long number or a deep input must be refused by the package,
    not admitted by raising the interpreter's limit."""
    for path in sorted(PACKAGE.glob("*.py")):
        assert process_setting_calls(path.read_text(encoding="utf-8")) == [], path.name


def test_a_process_setting_call_is_caught():
    source = ("import sys\nimport sys as system\nfrom sys import setrecursionlimit\n"
              "sys.set_int_max_str_digits(0)\nsystem.setrecursionlimit(10 ** 6)\n"
              "def f():\n    setrecursionlimit(5000)\n"
              "sys.getrecursionlimit()\nsys.get_int_max_str_digits()\n")
    assert process_setting_calls(source) == [
        "set_int_max_str_digits", "setrecursionlimit", "setrecursionlimit"]


def cut_summaries(source: str) -> list[str]:
    """The modules, classes and functions in `source` whose docstring's first
    paragraph stops mid-sentence, so that `help()` shows half a sentence."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc and not doc.split("\n\n")[0].rstrip().endswith((".", ":", "?", "!")):
                found.append(getattr(node, "name", "<module>"))
    return found


def test_package_docstrings_open_with_whole_sentences():
    for path in sorted(PACKAGE.glob("*.py")):
        assert cut_summaries(path.read_text(encoding="utf-8")) == [], path.name


def test_a_cut_summary_is_caught():
    source = ('"""A module: its summary runs on\n\nafter a blank line."""\n'
              'def f():\n    """One whole sentence.\n\n    And a second paragraph,"""\n'
              'class C:\n    """Lists follow:\n\n    - one\n    """\n'
              '    def g(self):\n        """Returns the value of\n\n        g."""\n'
              'async def h():\n    """No stop at all"""\n'
              'def k():\n    pass\n')
    assert sorted(cut_summaries(source)) == ["<module>", "g", "h"]


def test_package_does_not_import_dataclasses():
    """Records are `collections.namedtuple`s, which the interpreter loads
    anyway: a dataclass costs its decoration on every start and loads
    `inspect`, `ast` and `dis` with it, and `typing` is a module the package
    would load only to declare records."""
    for path in sorted(PACKAGE.glob("*.py")):
        roots = {name.partition(".")[0] for name in absolute_imports(path.read_text("utf-8"))}
        assert not roots & {"dataclasses", "typing"}, path.name


def test_cold_cli_import_loads_no_path_specific_module():
    """`json` and `random` are imported by the `--json` and `--seed` paths
    only, no path needs `fractions` or `decimal`, and no record needs `typing`."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, blowdown.cli; print(sorted({'dataclasses', 'inspect', 'json', "
            "'random', 'fractions', 'decimal', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
