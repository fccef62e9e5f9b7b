"""No module of the package takes another module's private names.

A private name is one that starts with ``_`` and is not a dunder.  A
module takes one by importing it (``from .market import _Memo``) or by
reading it off an imported module of the package (``market._Memo``).
Tests are free to use private names; the package itself is not.
"""

import ast
from pathlib import Path

import pytest

import punk_hedonics

MODULES = sorted(Path(punk_hedonics.__file__).parent.glob("*.py"))


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source):
    """(line, name) of each private name the module source takes from the package."""
    tree = ast.parse(source)
    modules = set()                         # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "punk_hedonics"):
            for alias in node.names:
                if is_private(alias.name):
                    found.append((node.lineno, alias.name))
                if node.module is None or node.module == "punk_hedonics":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "punk_hedonics":
                    modules.add(alias.asname or alias.name.partition(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_takes_no_private_name_from_another(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


def test_guard_finds_each_form():
    source = ("from .tweets import _utc_day, KeywordFilter\n"
              "from punk_hedonics.market import _Memo as Memo\n"
              "from . import market, __version__\n"
              "import punk_hedonics.panel\n"
              "market._day_number(market.Sales)\n"
              "punk_hedonics.panel._private\n"
              "other._ignored\n")
    assert private_uses(source) == [(1, "_utc_day"), (2, "_Memo"), (5, "market._day_number"),
                                    (6, "punk_hedonics.panel._private")]
