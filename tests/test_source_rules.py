"""Rules on the package source, checked on every run."""

import ast
import contextlib
import inspect
import io
import os
import runpy
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

from treedisk import cli

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
    method coeff of any other class.  test_every_function_runs_on_a_user_path
    runs the functions and sees each one apart; this rule also covers the
    classes and what perfbench names.
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


# Functions that no user path runs in the test process, (file, name) -> why.
NOT_RUN = {
    ("cli.py", "_pickled"): "runs only in a forked tree.csv writer whose write failed "
                            "(test_cli's forked-writer tests)",
}

_BASE = "tree.p = 2\ntree.ell = 0.5\ntree.omega = 0.4\n"
_CONFIGS = {
    # an exterior source
    "ring": _BASE + "interface.N = 3\ntransmission.alpha1 = 1\ntransmission.alpha0 = 0.25\n"
                    "source.exterior.profile.1 = 1\nsource.exterior.profile.-1 = 1\n",
    # a tree source and c_root on a p = 3 tree with complex data
    "complex": "tree.p = 3\ntree.ell = 0.4\ntree.omega = 0.3\ninterface.N = 2\n"
               "transmission.alpha1 = 1+0.5j\ntransmission.alpha0 = 0.25\n"
               "transmission.c_root = 0.3\ntransmission.source_depth = 5\n"
               "source.tree.constant = 0.7\nsource.exterior.profile.1 = 1\n",
    "manufactured": _BASE + "transmission.levels = 3, 4, 5\ntransmission.manufactured_mode = 1\n",
    # a subnormal source is refused with exit 3, an unknown key with exit 2
    "subnormal": _BASE + "source.exterior.profile.1 = 1e-320\nsource.exterior.profile.-1 = 1e-320\n",
    "unknown_key": _BASE + "tree.colour = 3\n",
}


def _function_codes(path) -> dict:
    """(file, first line, name) -> code of every function and method defined
    in path, compiled from its text: not the module, the class bodies, the
    lambdas or the comprehensions."""
    found = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [const for const in code.co_consts if isinstance(const, types.CodeType)]
        # a class body is not an optimized scope; lambdas and comprehensions
        # are named <lambda>, <listcomp>, <genexpr> and so on
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            found[(path.name, code.co_firstlineno, code.co_name)] = code
    return found


def _user_paths(tmp_path) -> list:
    """Run the demos and every subcommand of cli.main in this process; the
    exit codes of the subcommands."""
    configs = {}
    for name, text in _CONFIGS.items():
        configs[name] = str(tmp_path / (name + ".ini"))
        Path(configs[name]).write_text(text)
    out = str(tmp_path / "out")
    argvs = [
        ["validate", "--config", configs["ring"]],
        ["validate", "--config", configs["unknown_key"]],
        ["tree-dtn", "--config", configs["ring"], "--depth", "3", "--out", out + "_dtn.csv"],
        ["exterior-dtn", "--radius", "1", "--level", "2", "--modes", "64", "--out", out + "_sym.csv"],
        ["transmission", "--config", configs["ring"], "--out-prefix", out + "_ring_"],
        ["transmission", "--config", configs["complex"], "--out-prefix", out + "_complex_"],
        ["transmission", "--config", configs["subnormal"], "--out-prefix", out + "_subnormal_"],
        ["convergence", "--config", configs["manufactured"], "--out", out + "_conv.csv"],
        ["plasmonic", "--config", configs["ring"], "--out", out + "_pencil.csv"],
        ["selftest"],
    ]
    codes = [cli.main(argv) for argv in argvs]
    for path in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")
    return codes


def test_every_function_runs_on_a_user_path(tmp_path, monkeypatch):
    """Every function and method in src/treedisk runs when the demos, the
    acceptance suite (treedisk selftest) and every subcommand run in this
    process, traced by sys.setprofile, or is in NOT_RUN with its reason.

    The traced code objects are told apart by file, first line and name,
    so a method is not hidden by another of the same name.  Without os.fork
    the tree.csv writer runs here (cli._in_child).  The package's
    functools caches are cleared first, so what an earlier test cached runs
    again.  The package is imported before the trace starts, so a function
    that runs only on import counts as not run.
    """
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        defined.update(_function_codes(path))
    for name, module in list(sys.modules.items()):
        if name.startswith("treedisk."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    monkeypatch.delattr(os, "fork")
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = _user_paths(tmp_path)
        finally:
            sys.setprofile(None)
    assert codes == [0, 2, 0, 0, 0, 0, 3, 0, 0, 0]
    ran = {(Path(code.co_filename).name, code.co_firstlineno, code.co_name) for code in ran
           if Path(code.co_filename).resolve().parent == SRC}
    missing = sorted(key for key in set(defined) - ran if key[::2] not in NOT_RUN)
    assert SRC.is_dir() and not missing, "run on no user path: %s" % ", ".join(
        "%s:%d %s" % key for key in missing)
    # each exemption names a function that is defined and does not run
    assert all(any(key[::2] == site for key in set(defined) - ran) for site in NOT_RUN)

