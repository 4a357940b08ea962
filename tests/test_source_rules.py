"""Rules on the package source, checked on every run."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import os
import runpy
import subprocess
import sys
import types
from collections import Counter, defaultdict
from functools import cached_property
from pathlib import Path

import pytest

from treedisk import cli
from treedisk.errors import CutoffTooSmall

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

# Defaulted parameters that the user paths do not both leave at the default
# and set to another value, "module.qualname(parameter)" -> why the default
# stays.
NOT_VARIED = {
    "cli.main(argv)": "the treedisk console script calls main() without argv, which "
                      "parse_args reads from sys.argv; the traced paths pass argv",
    "exterior._source_integral(with_log)": "only ExteriorField.eval of a mode-0 source sets it, "
                                           "and no user path evaluates one",
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
    # an interface of radius 2.5 and an exterior source with a mode-0 term
    "radius": _BASE + "interface.N = 3\ninterface.radius = 2.5\ntransmission.alpha1 = 1\n"
                      "transmission.alpha0 = 0.25\nsource.exterior.r_max = 4\n"
                      "source.exterior.profile.1 = 1\nsource.exterior.profile.-1 = 1\n"
                      "source.exterior.profile.0 = 1, -0.25\n",
    "manufactured": _BASE + "transmission.levels = 3, 4, 5\ntransmission.manufactured_mode = 1\n",
    # a subnormal source is refused with exit 3, an unknown key with exit 2
    "subnormal": _BASE + "source.exterior.profile.1 = 1e-320\nsource.exterior.profile.-1 = 1e-320\n",
    "unknown_key": _BASE + "tree.colour = 3\n",
    # an interval tree (p = 1, sigma n/a) that breaks the three structural
    # inequalities, with overrides at N1, naming no edge, not positive and
    # beyond the float range
    "broken": "tree.p = 1\ntree.ell = 2\ntree.omega = 1\ntree.N1 = 2\n"
              "tree.length_override.2.0 = 1\ntree.length_override.0.3 = 1\n"
              "tree.weight_override.0.0 = -1\ntree.weight_override.1.0 = 5e-324\n",
    # omega above ell, so sigma reaches 1/2, written with a [section] header,
    # a comment and a blank line
    "sections": "# sigma >= 1/2\n[tree]\np = 2\nell = 0.5\n\nomega = 0.6\n",
    # no source at all above 64 cells: h = 0, g = 0, and exterior.csv lists
    # the 2 * 16 p^N + 1 modes of the cutoff, every one zero
    "unforced": _BASE + "interface.N = 9\ntransmission.alpha1 = 1\ntransmission.alpha0 = 0.25\n"
                        "transmission.source_depth = 9\n",
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


def _perfbench_inputs():
    """perfbench's workloads module and, per workload, its name, its seed-7
    input and a reference: for the CLI op the library solve of its input,
    which gives the discretization defect that the CLI does not print."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = []
    for name in workloads.WORKLOADS:
        ini = workloads.generate(name, 7)
        reference = workloads.reference_outputs(name, ini) if workloads.OPS[name] == "cli" else None
        inputs.append((name, ini, reference))
    return workloads, inputs


def _user_paths(tmp_path, perfbench) -> tuple:
    """Run the demos, every subcommand of cli.main and one op of each
    perfbench workload, set up and run, in this process; the exit codes of
    the subcommands and the perfbench Workloads."""
    configs = {}
    for name, text in _CONFIGS.items():
        configs[name] = str(tmp_path / (name + ".ini"))
        Path(configs[name]).write_text(text)
    out = str(tmp_path / "out")
    argvs = [
        ["--help"],
        ["validate", "--config", configs["ring"]],
        ["validate", "--config", configs["unknown_key"]],
        ["validate", "--config", configs["broken"]],
        ["validate", "--config", configs["sections"]],
        ["tree-dtn", "--config", configs["ring"], "--depth", "3", "--out", out + "_dtn.csv"],
        ["exterior-dtn", "--radius", "1", "--level", "2", "--modes", "64", "--out", out + "_sym.csv"],
        ["transmission", "--config", configs["ring"], "--out-prefix", out + "_ring_"],
        ["transmission", "--config", configs["complex"], "--out-prefix", out + "_complex_"],
        ["transmission", "--config", configs["radius"], "--out-prefix", out + "_radius_"],
        ["transmission", "--config", configs["subnormal"], "--out-prefix", out + "_subnormal_"],
        ["transmission", "--config", configs["unforced"], "--out-prefix", out + "_unforced_"],
        ["convergence", "--config", configs["manufactured"], "--out", out + "_conv.csv"],
        # the default levels interface.N .. interface.N + 3
        ["convergence", "--config", configs["ring"], "--out", out + "_ring_conv.csv"],
        ["plasmonic", "--config", configs["ring"], "--out", out + "_pencil.csv"],
        ["selftest"],
    ]
    codes = [cli.main(argv) for argv in argvs]
    # a mode cutoff below 16 p^level cells warns
    with pytest.warns(CutoffTooSmall):
        codes.append(cli.main(["exterior-dtn", "--radius", "1", "--level", "2", "--modes", "32",
                               "--out", out + "_coarse_sym.csv"]))
    for path in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")
    workloads, inputs = perfbench
    ops = [workloads.Workload(name, ini, workdir=str(tmp_path / name), reference=reference)
           for name, ini, reference in inputs]
    for op in ops:
        op.run()
    return codes, ops


def _defaulted_parameters() -> dict:
    """code -> [(label, parameter, default)] for every function, method and
    dataclass constructor of src/treedisk with a defaulted parameter; the
    label is "module.qualname(parameter)", a constructor named by its class.

    Functions are found on the modules and their classes, unwrapped from
    decorators, properties and static or class methods.  A def or lambda
    with defaults elsewhere (nested in a function, say) would not be found,
    so there must be none.
    """
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("treedisk" if path.stem == "__init__" else "treedisk." + path.stem)
        functions = []
        for value in vars(module).values():
            value = inspect.unwrap(value)
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for member in vars(value).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, cached_property):
                        member = member.func
                    if inspect.isfunction(member):
                        functions.append(inspect.unwrap(member))
            elif inspect.isfunction(value) and value.__module__ == module.__name__:
                functions.append(value)
        short = module.__name__.rpartition(".")[2]
        for func in functions:
            qualname = func.__qualname__.removesuffix(".__init__")
            params = [(name, param.default) for name, param in inspect.signature(func).parameters.items()
                      if param.default is not inspect.Parameter.empty]
            if params:
                if func.__code__.co_flags & (inspect.CO_GENERATOR | inspect.CO_COROUTINE):
                    raise TypeError("%s.%s: a generator resumes with its current locals"
                                    % (short, qualname))
                found[func.__code__] = [("%s.%s(%s)" % (short, qualname, name), name, default)
                                        for name, default in params]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        top = {id(node) for body in bodies for node in body}
        hidden = ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef))
                  and id(node) not in top and (isinstance(node, ast.ClassDef) or node.args.defaults
                                               or any(node.args.kw_defaults))]
        assert not hidden, "defaults or classes that _defaulted_parameters does not find: %s" % hidden
    return found


def _at_default(value, default) -> bool:
    """Whether a parameter's value is its default: the same object, or equal to it."""
    if value is default:
        return True
    try:
        return bool(value == default)
    except (TypeError, ValueError):
        # an array of several values, which is no default here
        return False


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The user paths run once in this process under sys.settrace.

    Returns the exit codes of the subcommands, the code objects that ran,
    for each defaulted parameter (_defaulted_parameters) the set of answers
    to whether a call left it at its default, and per file of src/treedisk
    the lines that ran: a frame of src/treedisk gets the line tracer, any
    other frame only its call event.  Without os.fork the tree.csv writer
    runs here (cli._in_child).  The package's functools caches are cleared
    first, so what an earlier test cached runs again.  The package is
    imported and the perfbench inputs and references are made before the
    trace starts, so a function or line that runs only on import or for a
    reference counts as not run.
    """
    tmp_path = tmp_path_factory.mktemp("user_paths")
    perfbench = _perfbench_inputs()
    watched = _defaulted_parameters()
    for name, module in list(sys.modules.items()):
        if name.startswith("treedisk."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    ran, seen, lines = set(), defaultdict(set), defaultdict(set)
    # a code object's file name is its module's __file__, whatever the path
    files = {importlib.import_module("treedisk" if path.stem == "__init__" else "treedisk." + path.stem)
             .__file__: path.name for path in SRC.glob("*.py")}

    def line(frame, event, arg):
        if event == "line":
            lines[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        ran.add(frame.f_code)
        for label, name, default in watched.get(frame.f_code, ()):
            seen[label].add(_at_default(frame.f_locals[name], default))
        return line if frame.f_code.co_filename in files else None

    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(os, "fork")
        patch.chdir(tmp_path)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            previous = sys.gettrace()
            sys.settrace(call)
            try:
                codes, ops = _user_paths(tmp_path, perfbench)
            finally:
                sys.settrace(previous)
    failures = {op.name: op.check(op.outputs()) for op in ops}
    assert not any(failures.values()), failures
    labels = [label for params in watched.values() for label, _, _ in params]
    return codes, ran, {label: seen[label] for label in labels}, dict(lines)


def test_every_function_runs_on_a_user_path(traced):
    """Every function and method in src/treedisk runs when the demos, the
    acceptance suite (treedisk selftest), every subcommand and one op of
    each perfbench workload run in this process (traced), or is in NOT_RUN
    with its reason.

    The traced code objects are told apart by file, first line and name,
    so a method is not hidden by another of the same name.
    """
    codes, ran, _, _ = traced
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        defined.update(_function_codes(path))
    assert codes == [0, 0, 2, 2, 2, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0]
    ran = {(Path(code.co_filename).name, code.co_firstlineno, code.co_name) for code in ran
           if Path(code.co_filename).resolve().parent == SRC}
    missing = sorted(key for key in set(defined) - ran if key[::2] not in NOT_RUN)
    assert SRC.is_dir() and not missing, "run on no user path: %s" % ", ".join(
        "%s:%d %s" % key for key in missing)
    # each exemption names a function that is defined and does not run
    assert all(any(key[::2] == site for key in set(defined) - ran) for site in NOT_RUN)


def test_every_default_is_a_choice(traced):
    """Every defaulted parameter of a function, method or dataclass
    constructor in src/treedisk is a choice that the user paths make: some
    traced call leaves it at its default and some call gives it another
    value, or it is in NOT_VARIED with its reason.  A default that every
    call overrides is a parameter that should be required, and one that no
    call changes is a constant.  The default is told by value
    (_at_default), so an argument equal to it counts as leaving it.
    """
    verdicts = {frozenset(): "never runs", frozenset({False}): "never left at its default",
                frozenset({True}): "never given another value"}
    flagged = {label: verdicts[frozenset(seen)] for label, seen in traced[2].items()
               if seen != {True, False}}
    found = sorted("%s %s" % item for item in flagged.items() if item[0] not in NOT_VARIED)
    assert not found, "defaults that are no choice: %s" % "; ".join(found)
    # each exemption names a defaulted parameter that is not varied
    assert set(NOT_VARIED) <= set(flagged)


# Statements of src/treedisk that no user path runs, (file, function, the
# first line of the arm's first statement) -> why the arm stays.  An arm is
# a run of consecutive statements of one block that do not run.
NOT_RUN_ARMS = {
    ("acceptance.py", "criterion_4",
     'return (name, False, "draw %d is not admissible: %s" % (i, "; ".join(report.failures)))'):
        "a failure report: every seeded draw is admissible (test_acceptance fails one)",
    ("acceptance.py", "criterion_9",
     'return (name, False, "draw %d (alpha1 %r, alpha0 %r) violates %s"'):
        "a failure report: every seeded draw meets its sign condition (test_acceptance fails one)",
    ("calculus.py", "_solve_vertices", "values.append(0.0)"):
        "full trees: every user path solves on a compressed tree; the tests use the full-tree "
        "solve as the reference of the compressed one",
    ("calculus.py", "solve_harmonic_dirichlet", "top, means = depth - 1, [None] * depth + [leaf_values]"):
        "full trees, the tests' reference for the compressed solve",
    ("calculus.py", "solve_harmonic_dirichlet", "return TreeFunction(tree, coeffs)"):
        "full trees, the tests' reference for the compressed solve",
    ("calculus.py", "solve_poisson_zero_trace", "return TreeFunction(tree, coeffs)"):
        "full trees, the tests' reference for the compressed solve",
    ("calculus.py", "_particular", "end *= ell"):
        "tree sources of degree >= 1, which TransmissionConfig.tree_source admits and the INI "
        "format cannot write",
    ("calculus.py", "_end_flux", "der *= ell"):
        "tree sources of degree >= 1, which the INI format cannot write",
    ("circle.py", "cell_averages", "chunk = decomp.p ** (g.level - n)"):
        "a cell datum finer than the level, which convergence_study admits as a manufactured "
        "datum; criterion 8's is at the coarsest study level",
    ("circle.py", "_error_series", "return acc, n + 1, 0.0"):
        "a series negligible before n_max: criterion 5's terms for cos theta decay like "
        "p^(-2n(1 - r)), far above 1e-17 of the sum at its n_max = 14",
    ("cli.py", "_in_child", "read_end, write_end = os.pipe()"):
        "the fork and the forked child: the trace removes os.fork (test_cli's forked-writer tests)",
    ("csvtext.py", "_decimal", "i[moved] += step[step != 0]"):
        "a floor(log10|x|) that rounding puts one off, next to a power of ten, or digits that "
        "round to 10^17 (test_csvtext's neighbours of powers of ten)",
    ("csvtext.py", "_put_reals", "_put_by_percent(out, x, slow, plus)"):
        "values left to %: ties within 2^-40, NaN, infinity and |X| > 280 (test_csvtext)",
    ("exterior.py", "_source_integral", "vals = vals * np.log(s)"):
        "with_log, which only ExteriorField.eval of a mode-0 source sets (NOT_VARIED)",
    ("exterior.py", "ExteriorField.eval", "ia = _source_integral(self.source, k, 1.0, ri)"):
        "the particular part of a mode-0 source, which no user path evaluates",
    ("transmission.py", "_givens", "return 1.0, 0.0, a"):
        "an exact breakdown of GMRES: a Krylov space that A P^-1 maps into itself",
    ("transmission.py", "_gmres", "grown = np.empty((min(2 * len(basis), steps + 1), b.size), dtype=b.dtype)"):
        "more than 16 GMRES steps: the Chan preconditioner takes 7-8 for a constant alpha0, which "
        "is all the INI format writes",
}


def _unrun_arms(path, ran_lines) -> dict:
    """(file, function, first line) -> line number of each arm of path's
    functions that does not run (NOT_RUN_ARMS), but error handling.

    A statement runs when a line it spans ran.  Error handling is a raise
    statement, an except body and an if arm whose last statement is a
    raise.  Module and class bodies run on import and are not counted, nor
    are docstrings and the functions of NOT_RUN.  A function is named by
    its qualified name without <locals>.
    """
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    found = {}

    def runs(node):
        return not ran_lines.isdisjoint(range(node.lineno, node.end_lineno + 1))

    def block(body, function):
        arm = []
        for node in body + [None]:
            if node is not None and not isinstance(node, ast.Raise) and not runs(node):
                arm.append(node)
                continue
            if arm:
                found[(path.name, function, source[arm[0].lineno - 1].strip())] = arm[0].lineno
                arm = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                define(node, function + ".")
            elif node is not None:
                for sub in _arms(node):
                    block(sub, function)

    def define(node, prefix):
        body = node.body[1:] if _is_docstring(node.body[0]) else node.body
        if (path.name, node.name) not in NOT_RUN:
            block(body, prefix + node.name)

    for node in ast.parse(text, filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            define(node, "")
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    define(member, node.name + ".")
    return found


def _is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
        node.value.value, str)


def _arms(node) -> list:
    """The blocks of statements of a compound statement, but error handling:
    except bodies, and if arms whose last statement raises."""
    arms = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
    if isinstance(node, ast.If):
        arms = [arm for arm in arms if arm and not isinstance(arm[-1], ast.Raise)]
    return [arm for arm in arms if arm]


def test_every_branch_runs_on_a_user_path(traced):
    """Every statement inside a function of src/treedisk runs on the traced
    user paths (traced), is error handling, or is the first of an arm in
    NOT_RUN_ARMS with its reason (_unrun_arms).  The function rule and
    the default rule read the same traced run.
    """
    lines = traced[3]
    unrun = {}
    for path in sorted(SRC.glob("*.py")):
        unrun.update(_unrun_arms(path, lines.get(path.name, set())))
    missing = sorted((file, line, function, first) for (file, function, first), line in unrun.items()
                     if (file, function, first) not in NOT_RUN_ARMS)
    assert SRC.is_dir() and not missing, "%d arms run on no user path:\n%s" % (
        len(missing), "\n".join("%s:%d %s: %s" % arm for arm in missing))
    # each exemption names an arm that exists and does not run
    assert set(NOT_RUN_ARMS) <= set(unrun), sorted(set(NOT_RUN_ARMS) - set(unrun))
    assert len(NOT_RUN_ARMS) <= 18
