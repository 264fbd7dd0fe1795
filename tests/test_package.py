"""The package holds only what the program runs or exports: every public
module-level function or class of ``src/qcharlab`` is either named by
other code there or listed in ``qcharlab.__all__``, and every private one
is named by other code there.  A function or class only the tests use
belongs in ``tests/helpers.py``."""

import ast
from collections import Counter
from pathlib import Path

import qcharlab

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcharlab"


def _names(node):
    """How often each name is read under ``node``, as a variable or an attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def unreferenced_definitions(package, exported):
    """"module.name" of each module-level function or class of the package
    directory ``package`` that no code of the package names outside its own
    body, unless it is public and in ``exported``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    read = sum((_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and (node.name.startswith("_") or node.name not in exported)
            and read[node.name] == _names(node)[node.name]]


def test_every_public_function_is_run_or_exported():
    assert unreferenced_definitions(PACKAGE, set(qcharlab.__all__)) == []


def test_the_guard_flags_a_function_only_its_own_body_names(tmp_path):
    (tmp_path / "one.py").write_text(
        "def used():\n    return 1\n\n"
        "def exported():\n    return 2\n\n"
        "def recursive(n):\n    return n and recursive(n - 1)\n\n"
        "def _private():\n    return 3\n\n"
        "class Holder:\n    def method(self):\n        return 4\n"
    )
    (tmp_path / "two.py").write_text(
        "from . import one\nfrom .one import recursive\n\n"
        "def caller():\n    return one.used()\n\n"
        "caller()\n"
    )
    assert unreferenced_definitions(tmp_path, {"exported", "_private"}) == [
        "one.recursive", "one._private", "one.Holder"]
