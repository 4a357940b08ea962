"""The three workloads: seeded inputs, the op each one times, and its checks.

Every input is an INI text generated from a seed by `generate`.  The seed
changes values, never problem sizes, so every seed does the same amount of
work.  The program only ever sees the generated INI (or the
TransmissionConfig that `treedisk.config` builds from it).

A run with seed s cycles through the inputs of the INPUTS_PER_RUN seeds
`input_seeds(s)`, one per op, so no op repeats the input of the op before it.
A cache kept across calls and keyed on the input therefore misses on every
op but those that come back to an input INPUTS_PER_RUN ops later; `op_s`
cannot judge a cache that holds that many inputs.

Why these three:

* cli_transmission_n10 -- `treedisk transmission` through `treedisk.cli.main`
  at p=2, N=10 (1,024 cells).  The dense interface layers (C_N, the LU solve,
  reconstruction) and the CLI's CSV output dominate.
* deep_source_n6 -- library `solve_transmission` at N=6 with a source tree
  of depth 18 (2^19 leaf edges).  The tree-side sparse factorizations
  dominate; exterior and interface changes should leave it unchanged.
* pencil_p3_n5 -- `assemble_system` plus `plasmonic_pencil(count=8)` on a
  p=3 tree with seeded overrides on the first two generations (243 cells).
  The only workload with p != 2 and a non-geometric top, so a fast path that
  covers only geometric p=2 trees shows here.  At N=6 (729 cells) the two
  dense 729x729 pencil matrices outgrow a core's L2 cache, and the op time
  followed the load of other tenants on the host's shared cache: whole runs
  read 2.0 s or 3.7 s for the same op.  At N=5 they fit, an op takes about
  0.1 s, and a run's median is taken over about 170 ops.
"""

import contextlib
import hashlib
import io
import os
import random
import shutil

TRACE_DEFECT_MAX = 1e-10
SOLVER_TOL = 1e-10
PENCIL_TOL = 1e-8
REFERENCE_RTOL = 1e-9

# sizes per workload; the seed never changes them
SIZES = {
    "cli_transmission_n10": {"p": 2, "N": 10, "source_depth": 14, "cells": 1024},
    "deep_source_n6": {"p": 2, "N": 6, "source_depth": 18, "cells": 64},
    "pencil_p3_n5": {"p": 3, "N": 5, "N1": 2, "cells": 243, "pencil_count": 8},
}
INPUTS_PER_RUN = 4
# run seeds 0 .. SHIPPED_SEEDS-1 have stored references for all their inputs
SHIPPED_SEEDS = 20
OPS = {"cli_transmission_n10": "cli", "deep_source_n6": "solve", "pencil_p3_n5": "pencil"}
WORKLOADS = tuple(SIZES)


def _ring_source(rng):
    """Real exterior ring source: mode pairs +-k with a shared radial profile."""
    lines = ["source.exterior.r_max = %r" % rng.uniform(1.5, 2.5)]
    for k in sorted(rng.sample(range(1, 7), 3)):
        profile = ", ".join("%r" % rng.uniform(-1.0, 1.0) for _ in range(2))
        lines.append("source.exterior.profile.%d = %s" % (k, profile))
        lines.append("source.exterior.profile.-%d = %s" % (k, profile))
    return lines


def generate(workload, seed):
    """The INI text of one workload and seed."""
    if workload not in SIZES:
        raise ValueError("unknown workload %r" % (workload,))
    size = SIZES[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "pencil_p3_n5":
        p, ell, omega, n1 = size["p"], 0.5, 0.3, size["N1"]
        lines = ["tree.p = %d" % p, "tree.ell = %r" % ell, "tree.omega = %r" % omega,
                 "tree.N1 = %d" % n1, "interface.N = %d" % size["N"]]
        for n in range(n1):
            for k in range(p**n):
                lines.append("tree.length_override.%d.%d = %r" % (n, k, ell**n * rng.uniform(0.8, 1.25)))
                lines.append("tree.weight_override.%d.%d = %r" % (n, k, omega**n * rng.uniform(0.8, 1.25)))
        lines += ["transmission.alpha1 = 1", "transmission.alpha0 = 0",
                  "transmission.pencil_count = %d" % size["pencil_count"]]
    else:
        # sign condition (i): Re alpha1 >= 0, Re alpha0 >= 0, with a positive sum
        lines = ["tree.p = %d" % size["p"], "tree.ell = 0.5", "tree.omega = 0.4",
                 "interface.N = %d" % size["N"],
                 "transmission.alpha1 = %r" % rng.uniform(0.5, 2.0),
                 "transmission.alpha0 = %r" % rng.uniform(0.1, 1.0),
                 "transmission.c_root = %r" % rng.uniform(-1.0, 1.0),
                 "transmission.source_depth = %d" % size["source_depth"],
                 "source.tree.constant = %r" % rng.uniform(-1.0, 1.0)]
        lines += _ring_source(rng)
    return "\n".join(lines) + "\n"


def input_seeds(seed):
    """The seeds of the inputs a run with this seed cycles through."""
    return list(range(seed, seed + INPUTS_PER_RUN))


def input_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()


def to_json(out):
    """Outputs with complex lists stored as [re, im] pairs."""
    return {k: [[complex(z).real, complex(z).imag] for z in v] if isinstance(v, list) else v
            for k, v in out.items()}


def from_json(data):
    return {k: [complex(*z) for z in v] if isinstance(v, list) else v
            for k, v in (data or {}).items()}


# ---------------------------------------------------------------------------
# ops (run inside a worker process, with treedisk importable)


class Workload:
    """One workload's op and the checks on its outputs.

    `run()` is the timed op; `outputs()` collects what it produced (outside
    the timed region); `check(out)` returns the failed checks, empty when the
    op is correct.  `op` is "cli", "solve" or "pencil"; by default the
    workload's own.
    """

    def __init__(self, name, ini, workdir=None, reference=None, op=None):
        import treedisk.cli
        import treedisk.transmission
        from treedisk.config import parse_text

        self.name = name
        self.op = op or OPS[name]
        self.reference = reference or {}
        self.cli = treedisk.cli
        self.transmission = treedisk.transmission
        self.result = None
        self.out_dir = None
        if self.op == "cli":
            os.makedirs(workdir, exist_ok=True)
            self.config_path = os.path.join(workdir, "run.ini")
            with open(self.config_path, "w", encoding="utf-8") as fh:
                fh.write(ini)
            self.out_dir = os.path.join(workdir, "out")
        else:
            self.config = parse_text(ini).transmission()

    def run(self):
        # module attributes are looked up per call, so traced wrappers apply
        if self.op == "cli":
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(["transmission", "--config", self.config_path,
                                      "--out-prefix", os.path.join(self.out_dir, "run_")])
            self.result = (code, stdout.getvalue())
        elif self.op == "solve":
            self.result = self.transmission.solve_transmission(self.config)
        else:
            system = self.transmission.assemble_system(self.config)
            self.result = self.transmission.plasmonic_pencil(
                system.C, system.D, count=SIZES[self.name]["pencil_count"])

    def outputs(self):
        """What the op produced, as plain numbers; removes the CLI's files."""
        if self.op == "cli":
            code, text = self.result
            out = {"exit_code": code, "bytes_written": 0, "g": None}
            for line in text.splitlines():
                key, sep, value = line.partition(" = ")
                if sep and key in ("trace defect", "flux residual"):
                    out[key.replace(" ", "_")] = float(value)
            if os.path.isdir(self.out_dir):
                for entry in os.scandir(self.out_dir):
                    out["bytes_written"] += entry.stat().st_size
                g_path = os.path.join(self.out_dir, "run_g.csv")
                if os.path.exists(g_path):
                    with open(g_path, encoding="utf-8") as fh:
                        out["g"] = [complex(row.split(",")[2]) for row in fh.read().splitlines()[1:]]
                shutil.rmtree(self.out_dir)
            return out
        if self.op == "solve":
            sol = self.result
            return {"g": [complex(v) for v in sol.g.values], "trace_defect": sol.trace_defect,
                    "flux_residual": sol.flux_residual,
                    "discretization_defect": sol.discretization_defect}
        return {"pencil": [complex(z) for z in self.result]}

    def check(self, out):
        return check_outputs(self.name, out, self.reference)


def reference_outputs(name, ini):
    """Library outputs for one input: what the stored reference holds.

    The CLI workload's reference comes from the library solve behind the
    CLI, which also reports the discretization defect the CLI does not print.
    """
    work = Workload(name, ini, op="solve" if OPS[name] == "cli" else None)
    work.run()
    return work.outputs()


def _max_rel_diff(values, ref):
    scale = max(max(abs(complex(z)) for z in ref), 1e-300)
    return max(abs(complex(a) - complex(b)) for a, b in zip(values, ref)) / scale


def check_outputs(name, out, reference):
    """Failed checks of one op's outputs (empty list: the op is correct).

    Bound checks always run.  The comparison with the stored reference runs
    when `reference` holds one for this seed.
    """
    failures = []
    if name == "pencil_p3_n5":
        values = out.get("pencil") or []
        if len(values) != SIZES[name]["pencil_count"]:
            return ["pencil has %d values, expected %d" % (len(values), SIZES[name]["pencil_count"])]
        zeros = [z for z in values if abs(z) <= PENCIL_TOL]
        if len(zeros) != 1:
            failures.append("%d pencil values within %g of 0, expected 1" % (len(zeros), PENCIL_TOL))
        rest = [z for z in values if abs(z) > PENCIL_TOL]
        if any(abs(z.imag) > PENCIL_TOL or not z.real < 0 for z in rest):
            failures.append("nonzero pencil values not negative reals: %r" % (rest,))
        if "pencil" in reference:
            diff = _max_rel_diff(values, reference["pencil"])
            if not diff <= REFERENCE_RTOL:
                failures.append("pencil differs from reference by %.3e relative" % diff)
        return failures

    if out.get("exit_code", 0) != 0:
        return ["CLI exited with %r" % (out["exit_code"],)]
    trace = out.get("trace_defect")
    flux = out.get("flux_residual")
    disc = out.get("discretization_defect", reference.get("discretization_defect"))
    if trace is None or not trace <= TRACE_DEFECT_MAX:
        failures.append("trace defect %r exceeds %g" % (trace, TRACE_DEFECT_MAX))
    if flux is None or disc is None or not flux <= disc + SOLVER_TOL:
        failures.append("flux residual %r exceeds discretization defect %r + %g"
                        % (flux, disc, SOLVER_TOL))
    g = out.get("g")
    if g is None or len(g) != SIZES[name]["cells"]:
        failures.append("g has %s values, expected %d"
                        % ("no" if g is None else len(g), SIZES[name]["cells"]))
    elif "g" in reference:
        diff = _max_rel_diff(g, reference["g"])
        if not diff <= REFERENCE_RTOL:
            failures.append("g differs from reference by %.3e relative" % diff)
    return failures
