"""Rules on the package source, checked on every run."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "treedisk"


def test_no_check_depends_on_assert():
    # python -O strips assert statements, so every check must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SRC.is_dir() and not found, "assert statements in src/treedisk: %s" % ", ".join(found)


def test_no_scipy_import():
    # the runtime needs numpy alone; scipy is a test dependency
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += ["%s:%d" % (path.name, node.lineno) for name in names
                      if name.split(".")[0] == "scipy"]
    assert SRC.is_dir() and not found, "scipy imports in src/treedisk: %s" % ", ".join(found)


def test_a_solve_and_the_pencil_load_no_scipy():
    code = (
        "import sys\n"
        "import treedisk, treedisk.cli\n"
        "from treedisk.exterior import RadialSource\n"
        "from treedisk.transmission import (TransmissionConfig, assemble_system,\n"
        "                                   plasmonic_pencil, solve_transmission)\n"
        "from treedisk.tree import TreeParams\n"
        "params = TreeParams(p=2, ell=0.5, omega=0.4)\n"
        "ring = RadialSource(R=1.0, r_max=2.0, terms=[(1, {0: 1.0}), (-1, {0: 1.0})])\n"
        "solve_transmission(TransmissionConfig(params=params, level=3, alpha1=1.0,\n"
        "                                      alpha0=0.3, c_root=1.0, exterior_source=ring))\n"
        "system = assemble_system(TransmissionConfig(params=params, level=3, alpha1=1.0))\n"
        "plasmonic_pencil(system.C, system.D, count=8)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert out == "[]\n"


def test_the_cli_leaves_the_acceptance_suite_unloaded():
    # only `treedisk selftest` and the tests run it, and they import it
    code = "import sys, treedisk.cli\nprint('treedisk.acceptance' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert out == "False\n"


def _identifiers(node) -> Counter:
    """How often each identifier occurs in the code under node: names,
    attributes and imported names.  Docstrings, comments and other strings
    are not code."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
    return found


def test_every_definition_has_a_caller():
    """Every function, class and method defined in src/treedisk is named on a
    user path: in src/treedisk outside its own definition, in demos/, or in
    perfbench/ outside perfbench/tests.  Dunder methods are exempt.

    A name is matched without its owner, so definitions that share a name
    hide each other: a call of ExteriorSymbol.coeff would also count for a
    method coeff of any other class.
    """
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    named = sum((_identifiers(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if named[name] == _identifiers(node)[name]:
                unused.append((path.name, node.lineno, name))
    assert SRC.is_dir() and not unused, "named on no user path: %s" % ", ".join(
        "%s:%d %s" % site for site in sorted(unused))
