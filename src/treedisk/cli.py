"""Command line front end.

Subcommands parse a flat INI config, run one pipeline stage, and write CSV
artifacts atomically (temp file + rename) together with a `key=value`
manifest recording the config hash, the effective parameters, and the wall
time.  Numbers are written with 17 significant digits so identical configs
reproduce byte-identical CSVs.

Exit codes: 0 success, 2 configuration or validation failure, 3 numerical
failure.
"""

import argparse
import math
import os
import sys
import tempfile
import time

import numpy as np

from .config import RunConfig, parse_config
from .dtn import condensed_dtn
from .errors import ConfigError, StructuralConditionViolated, TreediskError
from .exterior import check_cutoff, dtn_symbol
from .transmission import (
    TransmissionConfig,
    assemble_system,
    convergence_study,
    plasmonic_pencil,
    solve_transmission,
)
from .tree import validate_params

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    """One CSV field: 17 significant digits, complex only when needed."""
    z = complex(x)
    if z.imag == 0.0:
        return "%.17g" % z.real
    return "%.17g%+.17gj" % (z.real, z.imag)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header, columns):
    """Write equal-length numpy columns as CSV, one `%` format per row.

    Fields read as `_fmt` writes them: integers as %d (the text of %.17g for
    |k| <= 2**53, which every index column meets), reals as %.17g, complex
    values as %.17g when imag == 0.0 (-0.0 included) and as %.17g%+.17gj
    otherwise.  Rows are cut into runs over which each complex column stays
    in one of its two cases, and each run is formatted with its own row
    format, so a column with no complex entries never pays for them.
    """
    columns = [np.asarray(c) for c in columns]
    cplx = [c.imag != 0.0 if np.iscomplexobj(c) else None for c in columns]
    n = len(columns[0])
    cuts = np.zeros(n, dtype=bool)
    for mask in cplx:
        if mask is not None:
            cuts[1:] |= mask[1:] != mask[:-1]
    bounds = [0, *np.flatnonzero(cuts).tolist(), n] if n else []
    lines = [",".join(header)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        fmt, parts = [], []
        for col, mask in zip(columns, cplx):
            col = col[lo:hi]
            if mask is not None and mask[lo]:
                fmt.append("%.17g%+.17gj")
                parts += [col.real, col.imag]
            elif col.dtype.kind in "iu":
                fmt.append("%d")
                parts.append(col)
            else:
                fmt.append("%.17g")
                parts.append(col.real)
        lines += map(",".join(fmt).__mod__, zip(*[part.tolist() for part in parts]))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_manifest(path: str, command: str, cfg: RunConfig | None, started: float, outputs):
    lines = ["command=%s" % command]
    if cfg is not None:
        if cfg.path:
            lines.append("config_path=%s" % cfg.path)
        lines.append("config_sha256=%s" % cfg.sha256())
        for key, value in cfg.echo():
            lines.append("param.%s=%s" % (key, value))
    for out in outputs:
        lines.append("output=%s" % out)
    lines.append("wall_time_s=%.3f" % (time.monotonic() - started))
    _atomic_write(path, "\n".join(lines) + "\n")


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


def _cmd_tree_dtn(args) -> int:
    started = time.monotonic()
    cfg = parse_config(args.config)
    op = condensed_dtn(cfg.params(), args.depth, allow_large=args.allow_large)
    rows, cols = np.divmod(np.arange(op.matrix.size), op.size)
    _write_csv(args.out, ("row", "col", "value"), [rows, cols, op.matrix.ravel()])
    _write_manifest(args.out + ".manifest", "tree-dtn", cfg, started, [args.out])
    return EXIT_OK


def _cmd_exterior_dtn(args) -> int:
    started = time.monotonic()
    symbol = dtn_symbol(args.radius, args.modes)
    check_cutoff(args.modes, args.p**args.level)
    _write_csv(args.out, ("k", "value"), [symbol.ks(), symbol.values])
    _write_manifest(args.out + ".manifest", "exterior-dtn", None, started, [args.out])
    return EXIT_OK


def _tree_columns(coeffs):
    """Columns n, k, coeff_index, value of the per-generation coefficient arrays."""
    per_gen = [(np.full(gen.size, n), *np.divmod(np.arange(gen.size), gen.shape[1]), gen.ravel())
               for n, gen in enumerate(coeffs)]
    return [np.concatenate(col) for col in zip(*per_gen)]


def _cmd_transmission(args) -> int:
    started = time.monotonic()
    cfg = parse_config(args.config)
    sol = solve_transmission(cfg.transmission())
    prefix = args.out_prefix
    g = sol.g.values
    _write_csv(prefix + "g.csv", ("level", "cell", "value"),
               [np.full(g.size, sol.g.level), np.arange(g.size), g])
    _write_csv(prefix + "tree.csv", ("n", "k", "coeff_index", "value"),
               _tree_columns(sol.u_tree.coeffs))
    trace = sol.u_ext.trace0()
    _write_csv(prefix + "exterior.csv", ("k", "re", "im"),
               [trace.ks(), trace.coeffs.real, trace.coeffs.imag])
    outputs = [prefix + name for name in ("g.csv", "tree.csv", "exterior.csv")]
    _write_manifest(prefix + "manifest.txt", "transmission", cfg, started, outputs)
    print("condition estimate = %s" % _fmt(sol.condition_estimate))
    print("trace defect = %s" % _fmt(sol.trace_defect))
    print("flux residual = %s" % _fmt(sol.flux_residual))
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
    print("rho_hat = %s" % _fmt(study.rho_hat))
    if study.rho_admissible_max is not None:
        print("rho admissible bound = %s" % _fmt(study.rho_admissible_max))
    return EXIT_OK


def _cmd_plasmonic(args) -> int:
    started = time.monotonic()
    cfg = parse_config(args.config)
    tcfg = TransmissionConfig(params=cfg.params(), level=cfg.get("interface.N"),
                              alpha1=1.0, alpha0=0.0, R=cfg.get("interface.radius"))
    system = assemble_system(tcfg)
    count = cfg.get("transmission.pencil_count")
    values = plasmonic_pencil(system.C, system.D, count=count)
    values = np.asarray(values, dtype=complex)
    _write_csv(args.out, ("index", "re", "im"), [np.arange(values.size), values.real, values.imag])
    _write_manifest(args.out + ".manifest", "plasmonic", cfg, started, [args.out])
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run_all(verbose=True)
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_NUMERICAL


def _checked(kind, test, requirement):
    """An argparse type: parse with `kind`, then require `test(value)`."""
    def parse(text):
        if not test(value := kind(text)):
            raise argparse.ArgumentTypeError("%s is not %s" % (text, requirement))
        return value

    parse.__name__ = kind.__name__
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treedisk",
                                     description="Tree-disk transmission pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the structural parameter conditions")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("tree-dtn", help="dump the condensed tree DtN matrix")
    sp.add_argument("--config", required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--allow-large", action="store_true")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except StructuralConditionViolated as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (TreediskError, AssertionError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
