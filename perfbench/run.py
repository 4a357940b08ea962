"""treedisk benchmark: end-to-end op time, set-up time and memory per workload,
and per-layer self time from a separate traced run.

    python3 perfbench/run.py --workload deep_source_n6 --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

Run it from the root of a checkout; it imports treedisk from `src/`.  The
inputs are generated here from the seed (see workloads.py) and handed to
worker processes, which import the program and run the op in a closed loop.
Each workload runs in its own processes: WORKERS of them one after the
other, each set up from scratch, so set-up is measured several times and the
peak RSS of one process never adds another's.  BLAS runs one thread per
process.  Only the benchmark's own processes are measured; nothing
machine-wide is traced.

Times are scaled to a fixed speed of the host.  On a shared host the same
op runs up to 1.5x slower while other tenants load the core, in stretches of
seconds to whole runs, so the median op time of a 25 s run moved by 10-30%
between runs of the same code.  A fixed kernel of dense products, memory
copies and interpreted Python (worker.Calibration) slows down with it, so
each op's wall time is multiplied by CAL_REF_S over the kernel's mean time
just before and after the op: `op_s` is the median of these scaled times and
`setup_s` the median of the processes' scaled set-up times.  Over ten seeds
the quartile spread of the run medians fell from 0.09 to 0.02
(pencil_p3_n5), from 0.11 to 0.08 (deep_source_n6) and from 0.11 to 0.08
(cli_transmission_n10); the long ops of the last two sample the host's
speed only at their ends.  The unscaled medians and the host's speed
(CAL_REF_S over the kernel's median time) are printed beside them.
Per-layer self times are unscaled wall times.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  Every op,
warm-ups included, is checked: trace defect, flux residual against the
discretization defect, pencil location, and, for the seeds shipped in
reference/, g and the pencil values against stored outputs.
"""

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 150
BLAS_THREADS = "1"
WORKERS = 3

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "peak_rss_end_mb": "MiB"}


PER_LAYER_UNITS = dict(
    [(span + suffix, unit) for span in tracer.SPANS
     for suffix, unit in ((".self_s", "s"), (".calls", "count"))]
    + [("tree.leaves_built", "count"), ("cli.bytes_written", "bytes"), ("trace.op_s", "s"),
       ("trace.overhead_ratio", "ratio")])


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def reference_for(workload, seed, ini):
    path = os.path.join(HERE, "reference", workload + ".json.gz")
    if not os.path.exists(path):
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        entry = json.load(fh).get(str(seed))
    if entry is None:
        return None
    if entry["sha256"] != workloads.input_hash(ini):
        raise BenchError("reference for %s seed %d was made from other inputs" % (workload, seed))
    return entry["outputs"]


def run_worker(spec):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONDONTWRITEBYTECODE="1")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps(spec), env=env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out after %d s" % WORKER_TIMEOUT_S) from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    result["setup_s"] = result.get("ready", spawned) - spawned
    return result


def run_workload(name, seed, seconds, trace):
    """Run one workload in WORKERS fresh processes; returns the summary."""
    seeds = workloads.input_seeds(seed)
    inis = [workloads.generate(name, s) for s in seeds]
    references = [reference_for(name, s, ini) for s, ini in zip(seeds, inis)]
    stored = sum(r is not None for r in references)
    workdir = os.path.join(HERE, "_work", "%d" % os.getpid())
    base = {"workload": name, "src": SRC}
    try:
        unseen = [k for k, r in enumerate(references) if r is None]
        if unseen and workloads.OPS[name] == "cli":
            # the CLI does not print the discretization defect its flux bound needs
            lib = run_worker(dict(base, mode="reference", inis=[inis[k] for k in unseen]))
            for k, out in zip(unseen, lib["references"]):
                references[k] = {"discretization_defect": out["discretization_defect"]}
        results = []
        for i in range(WORKERS):
            # a worker stops before an op that would overrun its share, so
            # the next worker gets what it left
            budget = (seconds - sum(r["loop_s"] for r in results)) / (WORKERS - i)
            results.append(run_worker(dict(base, mode="measure", trace=bool(trace),
                                           untraced_first=i % 2 == 0, inis=inis,
                                           references=references, budget_s=budget,
                                           workdir=os.path.join(workdir, str(i)))))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(name, seed, inis, stored, results)


def _median(values):
    return statistics.median(values) if values else 0.0


def _scaled(seconds, cal):
    """A wall time at the host speed where the calibration kernel takes CAL_REF_S."""
    return seconds * worker.CAL_REF_S / cal


def summarize(name, seed, inis, stored, results):
    ops = [op for r in results for op in r["ops"]]
    untraced = [op for op in ops if op["kind"] == "untraced"]
    traced = [op for op in ops if op["kind"] == "traced"]
    failures = [f for op in ops for f in op["failures"]]
    failed = sum(1 for op in ops if op["failures"])
    setup = [_scaled(r["setup_s"], r["setup_cal"]) for r in results]
    end_to_end = {"op_s": _median([_scaled(op["seconds"], op["cal"]) for op in untraced]),
                  "setup_s": _median(setup),
                  "peak_rss_mb": _median([r["peak_rss_mb"] for r in results]),
                  "peak_rss_end_mb": _median([r["peak_rss_end_mb"] for r in results])}
    wall = {"op_s": _median([op["seconds"] for op in untraced]),
            "setup_s": _median([r["setup_s"] for r in results]),
            "host_speed": worker.CAL_REF_S / _median([op["cal"] for op in ops])}
    per_process = {"setup_s": setup,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in results],
                   "peak_rss_end_mb": [r["peak_rss_end_mb"] for r in results]}

    per_op = [(layers, r["counters"].get(op_id, {}))
              for r in results for op_id, layers in r["layers"].items()]
    per_layer = {}
    raised = {}
    if per_op:
        for span in tracer.SPANS:
            per_layer[span + ".self_s"] = _median([l.get(span, [0.0])[0] for l, _ in per_op])
            per_layer[span + ".calls"] = _median([l.get(span, [0, 0])[1] for l, _ in per_op])
        for counter, _ in tracer.COUNTERS.values():
            per_layer[counter] = _median([c.get(counter, 0) for _, c in per_op])
        per_layer["cli.bytes_written"] = _median(
            [op["bytes_written"] for op in ops if op["kind"] == "traced"])
        per_layer["trace.op_s"] = _median([_scaled(op["seconds"], op["cal"]) for op in traced])
        per_layer["trace.overhead_ratio"] = per_layer["trace.op_s"] / end_to_end["op_s"]
        raised = {span: sum(l.get(span, [0, 0, 0])[2] for l, _ in per_op) for span in tracer.SPANS}
    if stored == len(inis):
        reference = "stored"
    else:
        reference = "unseen seed: bound checks only for %d of %d inputs" % (len(inis) - stored,
                                                                           len(inis))
    return {"workload": name, "seed": seed, "input_sha256": workloads.input_hash("".join(inis)),
            "input_seeds": workloads.input_seeds(seed), "reference": reference,
            "attempted": len(ops), "failed": failed, "failures": failures[:5],
            "op_times": [op["seconds"] for op in untraced], "wall": wall,
            "end_to_end": end_to_end, "per_process": per_process, "per_layer": per_layer,
            "raised": raised,
            "absent_spans": sorted({a for r in results for a in r["absent"]}),
            "defects": results[-1]["defects"],
            "record": dict(results[-1]["record"], nproc=os.cpu_count(),
                           mem_total_mb=_mem_total_mb(), traced="benchmark processes only")}


def _mem_total_mb():
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def report(summary, trace):
    """Human-readable lines, then the JSON result line."""
    print("workload %s  seed %d  input seeds %s  inputs sha256 %s  reference: %s" % (
        summary["workload"], summary["seed"], summary["input_seeds"], summary["input_sha256"],
        summary["reference"]))
    print("record %s" % json.dumps(summary["record"], sort_keys=True))
    e2e = summary["end_to_end"]
    procs = summary["per_process"]
    wall = summary["wall"]
    print("  %-40s %14.6f s      scaled, median of %d ops" % (
        "op_s", e2e["op_s"], len(summary["op_times"])))
    print("  %-40s %14.6f s      scaled, median of processes %s" % (
        "setup_s", e2e["setup_s"], " ".join("%.3f" % v for v in procs["setup_s"])))
    print("  %-40s %14.6f s      unscaled; ops %s" % (
        "op_wall_s", wall["op_s"], " ".join("%.3f" % v for v in summary["op_times"])))
    print("  %-40s %14.6f s      unscaled" % ("setup_wall_s", wall["setup_s"]))
    print("  %-40s %14.6f        calibration reference over the kernel's median time" % (
        "host_speed", wall["host_speed"]))
    print("  %-40s %14.1f MiB    after set-up, median of processes %s" % (
        "peak_rss_mb", e2e["peak_rss_mb"], " ".join("%.1f" % v for v in procs["peak_rss_mb"])))
    print("  %-40s %14.1f MiB    at the end, median of processes %s" % (
        "peak_rss_end_mb", e2e["peak_rss_end_mb"],
        " ".join("%.1f" % v for v in procs["peak_rss_end_mb"])))
    print("  %-40s %14.6f        %d failed of %d attempted" % (
        "fail_ratio", summary["failed"] / summary["attempted"], summary["failed"],
        summary["attempted"]))
    for failure in summary["failures"]:
        print("  failed: %s" % failure)
    print("  defects of the last op: %s" % json.dumps(summary["defects"], sort_keys=True))
    if trace:
        if summary["absent_spans"]:
            print("  spans absent at this commit: %s" % ", ".join(summary["absent_spans"]))
        units = PER_LAYER_UNITS
        for key, value in sorted(summary["per_layer"].items(), key=lambda kv: kv[0]):
            print("  %-40s %14.6f %s" % (key, value, units[key]))
        print("  %-40s %14.6f s      traced op_s minus untraced op_s" % (
            "trace.overhead_s", summary["per_layer"]["trace.op_s"] - summary["end_to_end"]["op_s"]))
        print("  raised calls per span: %s" % " ".join(
            "%s=%d" % kv for kv in sorted(summary["raised"].items())))
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = summary["per_layer"] if trace else summary["end_to_end"]
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, one run each)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treedisk", "__init__.py")):
        print("no treedisk sources under %s" % SRC, file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    try:
        results = {}
        for name in names:
            for trace in traces:
                summary = run_workload(name, args.seed, args.seconds, trace)
                results["%s/trace%d" % (name, trace)] = report(summary, trace)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
