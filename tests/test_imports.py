"""Import hygiene of the package's modules.

No module takes another module's private names.  A private name is one
that starts with ``_`` and is not a dunder.  A module takes one by
importing it (``from .market import _Memo``) or by reading it off an
imported module of the package (``market._Memo``).  Tests are free to use
private names; the package itself is not.

Every name a module imports is used in it.  ``__init__.py`` is exempt:
its imports are the package's API.
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


def unused_imports(source):
    """(line, name) of each name the module source imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_guard_finds_each_form():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import datetime as dt\n"
              "from .econometrics import AdfResult, adf_test\n"
              "from . import market as m, panel\n"
              "def f(x: dt.date) -> None:\n"
              "    return adf_test(panel)\n")
    assert unused_imports(source) == [(2, "os"), (4, "AdfResult"), (5, "m")]
