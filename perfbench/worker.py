"""One workload process: set up, run ops in a closed loop, report as JSON.

Reads a spec from stdin (written by run.py) and prints one JSON line.  With
`"mode": "reference"` it instead prints the library outputs of each of the
spec's inputs, which run.py uses for the bound checks of an unseen seed and
make_reference.py stores for the shipped seeds.

The loop is closed: one caller, one op at a time.  Op k runs on input
k mod INPUTS_PER_RUN, so successive ops never share an input.  The first op
is a warm-up; it is checked and counted but not timed.  The reported ready
time (the end of set-up) and the set-up peak RSS are taken right after it;
the peak RSS at the end of the loop is reported too.  Timed ops continue
while the elapsed loop time plus the last op's time fits in the spec's
budget.  The calibration kernel runs at the start and after every op
(outside the op's time; set-up includes its first two runs), so each op
carries the mean of the kernel's times just before and just after it.  In a
traced run untraced and traced ops alternate, so the run also
measures the tracing overhead; run.py has alternate workers start with
either kind, so that neither always gets the first op after the warm-up.
"""

import json
import os
import resource
import shutil
import sys
import time


def _record():
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "calibration": "%d products of %dx%d, %d copies of %d doubles, %d loop steps; "
                           "reference %g s" % (CAL_PRODUCTS, CAL_N, CAL_N, CAL_COPIES, CAL_COPY,
                                               CAL_LOOP, CAL_REF_S)}


# The calibration kernel, run before and after every op: dense products of a
# CAL_N x CAL_N matrix (compute in cache), copies of a CAL_COPY-double array
# (memory traffic past the core's own cache) and a CAL_LOOP-step Python loop
# (the interpreter), the three kinds of work the ops do.  CAL_REF_S is its
# time on an uncontended 2-vCPU Xeon at 2.0 GHz with one BLAS thread; run.py
# scales each op's time by CAL_REF_S over the kernel's time around that op.
CAL_N = 200
CAL_PRODUCTS = 5
CAL_COPY = 1_000_000
CAL_COPIES = 2
CAL_LOOP = 15_000
CAL_REF_S = 0.0044


class Calibration:
    """Times the calibration kernel; allocates nothing per call."""

    def __init__(self):
        import numpy

        self.numpy = numpy
        rng = numpy.random.default_rng(0)
        self.a = rng.random((CAL_N, CAL_N))
        self.product = numpy.empty_like(self.a)
        self.src = rng.random(CAL_COPY)
        self.dst = numpy.empty_like(self.src)
        self()  # the first run faults in dst's pages

    def __call__(self):
        started = time.perf_counter()
        for _ in range(CAL_PRODUCTS):
            self.numpy.matmul(self.a, self.a, out=self.product)
        for _ in range(CAL_COPIES):
            self.numpy.copyto(self.dst, self.src)
        total = 0
        for i in range(CAL_LOOP):
            total += i * i
        return time.perf_counter() - started


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _one_op(work, tracer, sites, op_id):
    """Run, time and check one op; returns (seconds, failures, outputs)."""
    if tracer is not None:
        tracer.op_id = op_id
        tracer.install(sites)
        root = tracer.enter("op")
    started = time.perf_counter()
    try:
        work.run()
    except Exception as exc:  # a failed op is counted, not fatal
        failures = ["raised %s: %s" % (type(exc).__name__, exc)]
        out = {}
    else:
        failures = None
    seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.leave(root, raised=failures is not None)
        tracer.uninstall()
    if failures is None:
        out = work.outputs()
        failures = work.check(out)
    return seconds, failures, out


def measure(spec):
    import tracer as tracing
    import workloads

    calibrate = Calibration()
    cal = [calibrate()]  # the kernel's last time, taken before the next op

    import treedisk.cli  # noqa: F401  (find_sites wraps what is imported)
    import treedisk.transmission  # noqa: F401

    inis = spec["inis"]
    tracer = sites = None
    absent = []
    if spec["trace"]:
        tracer = tracing.Tracer()
        sites, absent = tracing.find_sites()

    ops = []

    def run_op(kind):
        op_id = len(ops)
        k = op_id % len(inis)
        # one input's config lives only for its op, as in a caller that
        # solves one problem after another; building it is not timed
        work = workloads.Workload(spec["workload"], inis[k], os.path.join(spec["workdir"], str(k)),
                                  workloads.from_json(spec["references"][k]))
        traced = kind == "traced"
        seconds, failures, out = _one_op(work, tracer if traced else None, sites, op_id)
        cal.append(calibrate())
        ops.append({"kind": kind, "seconds": seconds, "cal": (cal[-2] + cal[-1]) / 2,
                    "failures": failures, "bytes_written": out.get("bytes_written", 0)})
        if failures and work.out_dir is not None:
            shutil.rmtree(work.out_dir, ignore_errors=True)
        last.clear()
        last.update(work.reference, **out)
        return seconds

    last = {}
    run_op("warmup")
    ready = time.monotonic()
    # later ops grow the peak by allocator fragmentation, which differs by up
    # to ~10% between identical processes; the peak after one op does not, so
    # it takes the tight bound and the end-of-run peak the loose one
    rss_after_setup = _peak_rss_mb()
    loop_start = time.perf_counter()
    seconds = 0.0
    minimum = 3 if tracer is not None else 2  # the warm-up plus one op of each kind
    while len(ops) < minimum or time.perf_counter() - loop_start + seconds <= spec["budget_s"]:
        traced = tracer is not None and len(ops) % 2 == int(not spec["untraced_first"])
        seconds = run_op("traced" if traced else "untraced")
    loop_s = time.perf_counter() - loop_start

    layers = {}
    if tracer is not None:
        for op_id, by_name in tracing.self_times(tracer.spans).items():
            layers[str(op_id)] = {name: list(v) for name, v in by_name.items()}
        counters = {str(op_id): dict(c) for op_id, c in tracer.counters.items()}
    else:
        counters = {}
    # set-up is scaled by the kernel's time at its start and after the warm-up
    return {"ready": ready, "setup_cal": ops[0]["cal"], "loop_s": loop_s, "ops": ops,
            "layers": layers, "counters": counters,
            "absent": absent, "record": _record(),
            "peak_rss_mb": rss_after_setup, "peak_rss_end_mb": _peak_rss_mb(),
            "defects": {k: last[k] for k in ("trace_defect", "flux_residual",
                                              "discretization_defect") if k in last}}


def main():
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    if spec.get("mode") == "reference":
        import workloads

        result = {"references": [workloads.to_json(workloads.reference_outputs(spec["workload"], ini))
                                 for ini in spec["inis"]]}
    else:
        result = measure(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
