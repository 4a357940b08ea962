"""Command line front end.

Subcommands parse a flat INI config, run one pipeline stage, and write CSV
artifacts atomically (temp file + rename) together with a `key=value`
manifest recording the config hash, the effective parameters, and the wall
time.  Numbers are written with 17 significant digits so identical configs
reproduce byte-identical CSVs.

Every CSV goes through one writer (_fill_csv), which streams chunks of
at most _CHUNK_ROWS rows into the temp file.  A chunk is one row laid out
as literal text and columns: numbers, or text from csvtext.cells.
csvtext.join builds the chunk's bytes with numpy, each row in fixed cells
of one uint8 matrix whose padding it drops: integers as %d, reals as
%.17g, complex values as %.17g%+.17gj, byte for byte what `%` writes
(csvtext says how, and when it leaves a value to `%`).  tree.csv holds
one record per stored row and coefficient of the tree solution on the
compressed source tree (_tree_chunks): n, k, edges, coeff_index, value,
standing for the edges k .. k + edges - 1 of generation n, so the full
tree is never built.  exterior.csv is streamed from the exterior field,
and the exterior-dtn dump from the symbol, _CHUNK_ROWS modes at a time
(_mode_chunks), so no array over all their modes is held.  The tree-dtn
matrix repeats a few distinct values, so its values are formatted once
per bit pattern and gathered as text.

tree.csv is written in a forked child (_in_child), which starts as soon
as the tree solution exists (transmission.reconstruct_tree): this process
then solves the exterior side, runs its checks and writes g.csv and
exterior.csv, and waits for the child before it writes the manifest.  The
child reads the tree solution through copy-on-write and writes through
the same writer into the temp file this process opened, so the bytes are
those of an in-process write; this process renames the file once the
child has succeeded and removes it when the child fails or is killed.
Fork is POSIX only: without os.fork (Windows) tree.csv is written
in-process.

`transmission` refuses what it would print wrongly: a g that is not finite,
a trace defect above 1e-10 at the scale of g (transmission.reconstruct),
or a flux residual above the discretization defect + 1e-10, exits 3 and
leaves no file and no directory; a tree.csv writer that has started is
killed.  Each temp file lives in the nearest
existing directory of its output (_atomic_file) until its rename, and the
output directory is made only then, after every check has passed.  A
process killed before that leaves its `.tmp-*.part` files in that
directory, and one killed between the renames also the outputs already
renamed, but never a manifest: the manifest is written last.

Exit codes: 0 success, 2 configuration or validation failure (any
errors.InvalidInput, a problem larger than the size budgets included),
3 numerical failure (any other errors.TreediskError, a failed
errors.NumericalCheckFailed check included, or a LinAlgError).
"""

import argparse
import contextlib
import functools
import math
import os
import pickle
import signal
import sys
import tempfile
import time
import warnings

import numpy as np

from . import csvtext
from .config import RunConfig, parse_config
from .dtn import condensed_dtn
from .errors import AssemblyTooLarge, InvalidInput, NumericalCheckFailed, TreediskError
from .exterior import check_cutoff, check_mode_budget, dtn_symbol
from .transmission import (
    TransmissionConfig,
    assemble_system,
    check_pencil_count,
    convergence_study,
    plasmonic_pencil,
    reconstruct,
    reconstruct_tree,
    solve_interface,
)
from .tree import validate_params

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the flux residual `transmission` accepts beyond the discretization defect
_FLUX_SLACK = 1e-10


# Rows per chunk of a CSV write: a chunk's text is built in one matrix
# (csvtext.join) and written before the next, so a write holds at most this
# many rows of text.  At 2^12 the exterior.csv write of N=10 peaks at 0.73
# MiB (tracemalloc); in the command 2^11 is 2-4 ms slower, and 2^13 no faster
# with 230 more page faults (2-vCPU AMD EPYC, 80 alternating commands each).
_CHUNK_ROWS = 2**12


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary file handle; what is written replaces `path` when the block ends.

    The temp file is made in the nearest existing directory of `path`: its
    own directory when that exists.  The missing directories are made only
    when the block ends, just before the rename, so a block that raises
    leaves none behind; they lie inside that nearest directory, so the
    rename stays on one file system.  The file gets the mode open() would
    give it, 0o666 less the umask: mkstemp makes the temp file 0o600, and
    os.replace keeps that mode.  The temp file is removed when the block
    raises, also when a forked child wrote it through the handle and was
    killed (cli._in_child).
    """
    directory = os.path.dirname(os.path.abspath(path))
    nearest = directory
    while not os.path.isdir(nearest):
        nearest = os.path.dirname(nearest)
    fd, tmp = tempfile.mkstemp(dir=nearest, prefix=".tmp-", suffix=".part")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.makedirs(directory, exist_ok=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# the warning CPython 3.12+ gives when os.fork() runs with other threads alive
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


@contextlib.contextmanager
def _in_child(write):
    """Run write() in a forked child while the block runs here; wait for it on exit.

    The child leaves by os._exit, and an exception it raises reaches the
    parent pickled through a pipe (RuntimeError(repr(exc)) when it does not
    round-trip) and is raised there after the block; a child that ends with
    no message and a nonzero wait status is a RuntimeError.  A block that
    raises keeps nothing the child writes, so the child is killed (SIGKILL)
    and reaped, and the block's exception is raised.  Without os.fork
    (Windows) write() runs here before the block.
    """
    if not hasattr(os, "fork"):
        write()
        yield
        return
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # numpy's OpenBLAS pool makes the process multi-threaded, but the
            # child runs no BLAS: it only formats text, writes one file and
            # calls os._exit.  OpenBLAS registers a pthread_atfork handler
            # for its pool, and glibc malloc is fork-safe.
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        try:
            os.close(read_end)
            message = b""
            try:
                write()
            except BaseException as exc:
                message = _pickled(exc)
            with os.fdopen(write_end, "wb") as fh:
                fh.write(message)
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        yield
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        # the pipe is read before waitpid: a message larger than the pipe
        # buffer would otherwise block the child, and the child the parent
        try:
            with os.fdopen(read_end, "rb") as fh:
                message = fh.read()
        finally:
            _, status = os.waitpid(pid, 0)
    if message:
        raise pickle.loads(message)
    if status != 0:
        raise RuntimeError("the forked writer ended with wait status %d" % status)


def _pickled(exc: BaseException) -> bytes:
    """exc pickled, or RuntimeError(repr(exc)) pickled when exc does not round-trip."""
    try:
        message = pickle.dumps(exc)
        pickle.loads(message)
        return message
    except Exception:
        return pickle.dumps(RuntimeError(repr(exc)))


def _row(columns) -> list:
    """The fields of a CSV row of equal-length columns: the columns, comma separated."""
    fields = []
    for col in columns:
        fields += [col, ","]
    fields[-1] = "\n"
    return fields


def _write_chunks(path: str, header, chunks):
    """Write a CSV atomically (_atomic_file, _fill_csv)."""
    with _atomic_file(path) as fh:
        _fill_csv(fh, header, chunks)


def _fill_csv(fh, header, chunks):
    """Write the header, then each chunk, to fh and flush it.

    This is the one CSV writer.  A chunk is the fields of csvtext.join,
    which lays each out in one buffer per file.  The bytes are those of a
    row-by-row writer whatever the chunks are, so identical data give
    identical files.  The forked tree.csv writer leaves by os._exit, which
    flushes nothing.
    """
    fh.write((",".join(header) + "\n").encode())
    buffer = bytearray()
    for chunk in chunks:
        fh.write(csvtext.join(chunk, buffer))
    fh.flush()


def _write_csv(path: str, header, columns):
    """Write equal-length numpy columns as CSV, _CHUNK_ROWS rows per chunk."""
    columns = [np.asarray(col) for col in columns]
    size = len(columns[0])
    _write_chunks(path, header, (_row([col[lo:lo + _CHUNK_ROWS] for col in columns])
                                 for lo in range(0, size, _CHUNK_ROWS)))


def _distinct_text(values):
    """%.17g of each real value as a text column (csvtext.cells), formatted once
    per distinct bit pattern (-0.0 stays apart from 0.0, which is equal as a value)."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    return csvtext.cells(keys.view(np.float64))[inverse.ravel()]


def _write_manifest(path: str, command: str, cfg: RunConfig | None, started: float, outputs,
                    results=()):
    """command, config, parameters, outputs, the `key=value` lines of results, wall time."""
    lines = ["command=%s" % command]
    if cfg is not None:
        if cfg.path:
            lines.append("config_path=%s" % cfg.path)
        lines.append("config_sha256=%s" % cfg.sha256())
        for key, value in cfg.echo():
            lines.append("param.%s=%s" % (key, value))
    for out in outputs:
        lines.append("output=%s" % out)
    lines += results
    lines.append("wall_time_s=%.3f" % (time.monotonic() - started))
    with _atomic_file(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def _cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    report = validate_params(cfg.params())
    print("p = %d" % cfg.get("tree.p"))
    print("ell = %r" % cfg.get("tree.ell"))
    print("omega = %r" % cfg.get("tree.omega"))
    print("r = %r" % report.r)
    if report.sigma is None:
        print("sigma = n/a (interval tree, oracle only)")
    else:
        print("sigma = %.5f" % report.sigma)
    print("corridor constant = %r" % report.min_C)
    if report.failures:
        for failure in report.failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


def _matrix_chunks(A):
    """Chunks of (row, col, value) for a dense real matrix, one matrix row each.

    The row index is a literal of the chunk; the column indices are
    text formatted once, and the values text formatted once per distinct
    value of the row: the matrix repeats a few values (12 among 4.2M
    entries of tree-dtn at depth 10).  A matrix row is within the dense
    budget of 4096 cells, so within _CHUNK_ROWS.
    """
    cols = csvtext.cells(np.arange(A.shape[1]))
    for i, row in enumerate(A):
        yield ["%d," % i, cols, ",", _distinct_text(row), "\n"]


def _cmd_tree_dtn(args) -> int:
    started = time.monotonic()
    cfg = parse_config(args.config)
    A = condensed_dtn(cfg.params(), args.depth)
    _write_chunks(args.out, ("row", "col", "value"), _matrix_chunks(A))
    _write_manifest(args.out + ".manifest", "tree-dtn", cfg, started, [args.out])
    return EXIT_OK


def _cmd_exterior_dtn(args) -> int:
    started = time.monotonic()
    # the budget bounds the 2 M + 1 rows written, not the symbol
    check_mode_budget(args.modes)
    symbol = dtn_symbol(args.radius, args.modes)
    check_cutoff(args.modes, args.p, args.level)
    _write_chunks(args.out, ("k", "value"), _mode_chunks(args.modes, symbol.block))
    _write_manifest(args.out + ".manifest", "exterior-dtn", None, started, [args.out])
    return EXIT_OK


def _tree_chunks(u):
    """Chunks of tree.csv (n, k, edges, coeff_index, value) for the tree
    function u, whose tree may be compressed: a record per stored row and
    coefficient, so the full tree is never built.

    Stored row r of generation n stands for the edges k .. k + edges - 1,
    k = r edges, edges = u.tree.multiplicity(n).  A chunk is a block of at
    most _CHUNK_ROWS // (q + 1) stored rows.
    """
    for n, coeffs in enumerate(u.coeffs):
        m = u.tree.multiplicity(n)
        rows, width = coeffs.shape
        block = max(1, _CHUNK_ROWS // width)
        index = np.tile(np.arange(width), block)
        for r0 in range(0, rows, block):
            stored = coeffs[r0:r0 + block]
            k = np.repeat(np.arange(r0 * m, (r0 + len(stored)) * m, m), width)
            yield _row(["%d" % n, k, "%d" % m, index[:stored.size], stored.ravel()])


def _mode_chunks(M: int, block):
    """Chunks of a CSV over the modes -M..M: k, then the values block(lo, hi)
    of the modes lo..hi-1, as re and im when they are complex.  They are
    formed _CHUNK_ROWS modes at a time (exterior.csv from
    ExteriorField.trace0_block, the exterior-dtn dump from
    ExteriorSymbol.block), so no array over all the modes is held."""
    for lo in range(-M, M + 1, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, M + 1)
        values = block(lo, hi)
        parts = [values.real, values.imag] if np.iscomplexobj(values) else [values]
        yield _row([csvtext.range_cells(lo, hi - lo), *parts])


def _cmd_transmission(args) -> int:
    started = time.monotonic()
    cfg = parse_config(args.config)
    solving = time.monotonic()
    tcfg = cfg.transmission()
    # tree.csv's k and edges columns are int64, which must count the edges
    # of the deepest generation, source_depth + 1: refused before any work
    p, deepest = tcfg.params.p, tcfg.source_depth + 1
    if p**deepest > np.iinfo(np.int64).max:
        raise AssemblyTooLarge("the %d^%d edges of generation %d exceed the int64 edge index of "
                               "tree.csv" % (p, deepest, deepest))
    # solve_transmission, split where tree.csv's writer can start
    system = assemble_system(tcfg)
    g = solve_interface(system)
    # what is printed must hold: a g that is not finite, a trace defect
    # (reconstruct) or a flux residual beyond the bound the benchmark checks
    # exits 3 and leaves no file (module docstring)
    if not np.isfinite(g.values).all():
        raise NumericalCheckFailed("the interface datum g is not finite")
    tree_side = reconstruct_tree(system, g)
    prefix = args.out_prefix
    # tree.csv on the second core while the exterior side is solved and
    # checked here (module docstring); this process owns its temp file, so
    # a killed child or a refusal, which kills the child, leaves none behind
    with _atomic_file(prefix + "tree.csv") as tree_fh, \
            _in_child(lambda: _fill_csv(tree_fh, ("n", "k", "edges", "coeff_index", "value"),
                                        _tree_chunks(tree_side.u_rows))):
        sol = reconstruct(system, g, tree_side)
        if not sol.flux_residual <= sol.discretization_defect + _FLUX_SLACK:
            raise NumericalCheckFailed("flux residual %.3e exceeds the discretization defect %.3e + %g"
                                       % (sol.flux_residual, sol.discretization_defect, _FLUX_SLACK))
        writing = time.monotonic()
        _write_csv(prefix + "g.csv", ("level", "cell", "value"),
                   [np.full(g.values.size, g.level), np.arange(g.values.size), g.values])
        _write_chunks(prefix + "exterior.csv", ("k", "re", "im"),
                      _mode_chunks(sol.u_ext.M, sol.u_ext.trace0_block))
    reported = [("condition estimate", sol.condition_estimate),
                ("trace defect", sol.trace_defect),
                ("flux residual", sol.flux_residual),
                ("discretization defect", sol.discretization_defect)]
    outputs = [prefix + name for name in ("g.csv", "tree.csv", "exterior.csv")]
    results = ["%s=%.17g" % (name.replace(" ", "_"), value) for name, value in reported]
    # the tree.csv writer starts inside stage.solve_s; stage.write_s is
    # g.csv, exterior.csv and the wait for the writer
    results += ["stage.solve_s=%.3f" % (writing - solving),
                "stage.write_s=%.3f" % (time.monotonic() - writing)]
    _write_manifest(prefix + "manifest.txt", "transmission", cfg, started, outputs, results)
    for name, value in reported:
        print("%s = %.17g" % (name, value))
    return EXIT_OK


def _cmd_convergence(args) -> int:
    started = time.monotonic()
    cfg = parse_config(args.config)
    levels = cfg.get("transmission.levels")
    if levels is None:
        base = cfg.get("interface.N")
        levels = list(range(base, base + 4))
    study = convergence_study(cfg.transmission(level=min(levels)), levels,
                              manufactured=cfg.manufactured())
    columns = [study.levels, study.dof, study.err_l2, study.err_h12, study.rate_running]
    _write_csv(args.out, ("N", "dof", "err_l2", "err_h12", "rate_running"), columns)
    _write_manifest(args.out + ".manifest", "convergence", cfg, started, [args.out])
    print("rho_hat = %.17g" % study.rho_hat)
    if study.rho_admissible_max is not None:
        print("rho admissible bound = %.17g" % study.rho_admissible_max)
    return EXIT_OK


def _cmd_plasmonic(args) -> int:
    started = time.monotonic()
    cfg = parse_config(args.config)
    tcfg = TransmissionConfig(params=cfg.params(), level=cfg.get("interface.N"),
                              alpha1=1.0, alpha0=0.0, R=cfg.get("interface.radius"))
    count = cfg.get("transmission.pencil_count")
    check_pencil_count(count)
    system = assemble_system(tcfg)
    values = plasmonic_pencil(system.C, system.D, count=count)
    values = np.asarray(values, dtype=complex)
    _write_csv(args.out, ("index", "re", "im"), [np.arange(values.size), values.real, values.imag])
    _write_manifest(args.out + ".manifest", "plasmonic", cfg, started, [args.out])
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_NUMERICAL


def _checked(kind, test, requirement):
    """An argparse type: parse with `kind`, then require `test(value)`."""
    def parse(text):
        if not test(value := kind(text)):
            raise argparse.ArgumentTypeError("%s is not %s" % (text, requirement))
        return value

    parse.__name__ = kind.__name__
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call only: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(prog="treedisk",
                                     description="Tree-disk transmission pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the structural parameter conditions")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("tree-dtn", help="dump the condensed tree DtN matrix")
    sp.add_argument("--config", required=True)
    sp.add_argument("--depth", required=True, type=_checked(int, lambda n: n >= 0, ">= 0"))
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_tree_dtn)

    sp = sub.add_parser("exterior-dtn", help="dump the exterior DtN symbol")
    sp.add_argument("--radius", required=True,
                    type=_checked(float, lambda r: 0 < r < math.inf, "a finite number > 0"))
    sp.add_argument("--level", required=True, type=_checked(int, lambda n: n >= 0, ">= 0"))
    sp.add_argument("--modes", required=True, type=_checked(int, lambda m: m >= 0, ">= 0"))
    sp.add_argument("--p", default=2, type=_checked(int, lambda p: p >= 1, ">= 1"))
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_exterior_dtn)

    sp = sub.add_parser("transmission", help="solve the interface problem")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out-prefix", required=True)
    sp.set_defaults(func=_cmd_transmission)

    sp = sub.add_parser("convergence", help="run a level-refinement study")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_convergence)

    sp = sub.add_parser("plasmonic", help="compute the coupling pencil eigenvalues")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_plasmonic)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InvalidInput as exc:
        print("%s: %s" % (exc.kind, exc), file=sys.stderr)
        return EXIT_CONFIG
    except (TreediskError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
