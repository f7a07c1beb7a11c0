"""Code nobody uses is deleted: every definition of the package and of the
test helpers is named somewhere besides its own definition, and code only
tests use lives in tests: every definition of the package is named in the
program's own code."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "scripts", "perfbench")


def _definitions(path: Path):
    """The top-level functions, classes and constants of a module and the
    methods of its classes, dunder names left out."""
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name
        if isinstance(stmt, ast.ClassDef):
            yield from (d.name for d in stmt.body if isinstance(d, ast.FunctionDef))
        elif isinstance(stmt, ast.Assign):
            yield from (t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id


def test_every_definition_is_named_elsewhere():
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    modules = sorted((ROOT / "src" / "tolmc").glob("*.py")) + [ROOT / "tests" / "helpers.py"]
    defined = Counter(name for path in modules for name in _definitions(path)
                      if not (name.startswith("__") and name.endswith("__")))
    unused = sorted(name for name, n in defined.items() if words[name] <= n)
    assert not unused, unused


def _code_names(path: Path):
    """The identifiers that path's code names, as a name, an attribute or
    an import; comments, docstrings and other strings name none."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_definition_is_named_by_program_code():
    named = {name for top in ("src", "scripts", "perfbench")
             for path in (ROOT / top).rglob("*.py") if path.name != "__init__.py"
             for name in _code_names(path)}
    defined = {name for path in (ROOT / "src" / "tolmc").glob("*.py")
               for name in _definitions(path)
               if not (name.startswith("__") and name.endswith("__"))}
    assert not defined - named, sorted(defined - named)
