"""Import hygiene of the package's modules.

No module takes another module's private names.  A private name is one
that starts with ``_`` and is not a dunder.  A module takes one by
importing it (``from .market import _Memo``) or by reading it off an
imported module of the package (``market._Memo``).  Tests are free to use
private names; the package itself is not.

Every name a module imports is used in it.  ``__init__.py`` is exempt:
its imports are the package's API.

Only ``ingest.py`` reads text formats: no other module calls
``.fromisoformat`` or ``csv.reader``, whose grammars differ between
Python versions or need ``ingest``'s row numbers and errors.

No module uses builtin ``sum``, whose float total is compensated from
Python 3.12 on, so that no output depends on the Python version.

No module reads numpy's ``linalg``: no fit calls LAPACK, and one rank
rule judges every fit.

No module imports ``fractions`` or ``decimal``, and importing
``punk_hedonics.cli`` loads neither: the exact ADF fits run in integers,
so no run pays for those modules' memory.
"""

import ast
import os
import subprocess
import sys
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
              "from .econometrics import ConstantColumnError, adf_test\n"
              "from . import market as m, panel\n"
              "def f(x: dt.date) -> None:\n"
              "    return adf_test(panel)\n")
    assert unused_imports(source) == [(2, "os"), (4, "ConstantColumnError"), (5, "m")]


def text_format_calls(source):
    """(line, callee) of each ``.fromisoformat`` or ``csv.reader`` call in the module source."""
    calls = [node.func for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    return sorted((func.lineno, ast.unparse(func)) for func in calls
                  if func.attr == "fromisoformat" or ast.unparse(func) == "csv.reader")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "ingest.py"],
                         ids=lambda p: p.name)
def test_only_ingest_reads_text_formats(path):
    assert text_format_calls(path.read_text(encoding="utf-8")) == []


def test_text_format_guard_finds_each_form():
    source = ("import csv\n"
              "import datetime as dt\n"
              "from datetime import date\n"
              "dt.datetime.fromisoformat(a)\n"
              "date.fromisoformat(b)\n"
              "rows = csv.reader(c)\n"
              "csv.writer(d)\n"
              "fromisoformat(e)\n")
    assert text_format_calls(source) == [(4, "dt.datetime.fromisoformat"),
                                         (5, "date.fromisoformat"), (6, "csv.reader")]


def builtin_sum_uses(source):
    """(line, name) of each read of the name ``sum`` in the module source:
    a call of builtin ``sum`` or a reference to it."""
    return sorted((node.lineno, node.id) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "sum"
                  and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_builtin_sum(path):
    assert builtin_sum_uses(path.read_text(encoding="utf-8")) == []


def test_builtin_sum_guard_finds_each_form():
    source = ("total = sum(values)\n"
              "totals = list(map(sum, rows))\n"
              "mask.sum()\n"
              "np.sum(values)\n"
              "math.fsum(values)\n"
              "normalize_valence_sum(total)\n")
    assert builtin_sum_uses(source) == [(1, "sum"), (2, "sum")]


def linalg_uses(source):
    """(line, name) of each read of ``linalg`` in the module source: an
    attribute or a name ``linalg``, or an import of or from a module path
    holding it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id == "linalg":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, name) for name in (node.module or "", *(
                alias.name for alias in node.names)) if "linalg" in name.split(".")]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if "linalg" in alias.name.split(".")]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_linalg(path):
    assert linalg_uses(path.read_text(encoding="utf-8")) == []


def test_linalg_guard_finds_each_form():
    source = ("s = np.linalg.svd(R, compute_uv=False)\n"
              "module = numpy.linalg\n"
              "from numpy.linalg import lstsq\n"
              "from numpy import linalg\n"
              "import numpy.linalg as la\n"
              "np.add.reduce(v)\n"
              "np.linalg_like\n")
    assert linalg_uses(source) == [(1, "np.linalg"), (2, "numpy.linalg"), (3, "numpy.linalg"),
                                   (4, "linalg"), (5, "numpy.linalg")]


EXACT_NUMBER_MODULES = ("fractions", "decimal")


def exact_number_imports(source):
    """(line, module) of each import of or from ``fractions`` or ``decimal``
    in the module source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.partition(".")[0] in EXACT_NUMBER_MODULES]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_fractions_or_decimal(path):
    assert exact_number_imports(path.read_text(encoding="utf-8")) == []


def test_exact_number_guard_finds_each_form():
    source = ("from fractions import Fraction\n"
              "import decimal\n"
              "import os, fractions as fr\n"
              "from decimal import Decimal as D\n"
              "from .fractions import helper\n"
              "import numbers\n")
    assert exact_number_imports(source) == [(1, "fractions"), (2, "decimal"), (3, "fractions"),
                                            (4, "decimal")]


def test_cli_import_loads_neither_fractions_nor_decimal():
    """A fresh interpreter that imports the command line, numpy and every
    package module with it, has neither module loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(punk_hedonics.__file__).parent.parent)}
    env.pop("PYTHONSTARTUP", None)
    probe = ("import sys, punk_hedonics.cli; "
             "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert loaded.strip() == "[]"
