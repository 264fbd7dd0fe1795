"""The package holds only what the program runs or exports: every public
module-level function of ``src/qcharlab`` is either named by other code
there or listed in ``qcharlab.__all__``.  A function only the tests call
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


def unreferenced_public_functions(package, exported):
    """"module.name" of each public module-level function of the package
    directory ``package`` that is not in ``exported`` and that no code of
    the package names outside the function's own body."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    read = sum((_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in exported
            and read[node.name] == _names(node)[node.name]]


def test_every_public_function_is_run_or_exported():
    assert unreferenced_public_functions(PACKAGE, set(qcharlab.__all__)) == []


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
    assert unreferenced_public_functions(tmp_path, {"exported"}) == ["one.recursive"]
