"""Every top-level function and class of the package, and every non-dunder
method, is referenced by name from `src/` or `demos/`, not only from tests;
helpers that only tests call belong in `tests/oracles.py`.  A reference is a
bare name or an attribute read outside the body of the definition it names.
Every module of the package has an entry in README's Layout list, and
importing it loads no introspection machinery.
"""
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qfaulhaber").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_names(tree):
    names = []
    for node in tree.body:
        if isinstance(node, DEFS):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, DEFS)
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return names


def referenced_names(node, enclosing=frozenset()):
    if isinstance(node, DEFS):
        enclosing = enclosing | {node.name}
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    if isinstance(node, ast.Attribute):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= referenced_names(child, enclosing)
    return found - enclosing


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_package_name_is_reached_outside_tests():
    sources = PACKAGE + sorted((ROOT / "demos").glob("*.py"))
    referenced = set().union(*(referenced_names(parse(p)) for p in sources))
    unreached = [f"{p.name}: {name}" for p in PACKAGE
                 for name in defined_names(parse(p)) if name not in referenced]
    assert unreached == []


def test_guard_sees_an_unreached_helper():
    tree = ast.parse(
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def lonely(n):\n    return lonely(n - 1)\n"
        "class Box:\n    def open(self):\n        return self.open\n"
        "    def __len__(self):\n        return 0\n"
        "Box().shut = used\n"
    )
    names = defined_names(tree)
    assert names == ["used", "helper", "lonely", "Box", "open"]
    assert [n for n in names if n not in referenced_names(tree)] == ["lonely", "open"]


def modules_missing_from_layout(readme: str) -> list[str]:
    """Package modules, `__init__.py` aside, with no entry in README's Layout
    section."""
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    return [p.name for p in PACKAGE
            if p.name != "__init__.py" and f"`src/qfaulhaber/{p.name}`" not in layout]


def test_readme_layout_lists_every_module():
    assert modules_missing_from_layout((ROOT / "README.md").read_text()) == []


def test_layout_guard_sees_a_missing_module():
    readme = (ROOT / "README.md").read_text()
    assert modules_missing_from_layout(readme.replace("`src/qfaulhaber/kron.py`", "")) == [
        "kron.py"]


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # `dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`: milliseconds
    # on every start of the CLI; `fractions` pulls in `decimal` and `numbers`,
    # about 2.3 ms of a cold import of about 27 ms (CPython 3.11, x86-64 Xeon)
    code = ("import sys, qfaulhaber, qfaulhaber.cli, qfaulhaber.lgv; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, check=True)
    assert proc.stdout.strip() == "[]"
