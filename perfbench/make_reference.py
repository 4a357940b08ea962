"""Regenerate reference/<workload>.json.gz, the stored outputs of the shipped seeds.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  It stores every input seed that the run
seeds 0 .. SHIPPED_SEEDS-1 cycle through.  Each entry holds the SHA-256 of the
generated inputs and the library's outputs for them: g and the
discretization defect for the two solve workloads, the pencil values for
pencil_p3_n5.  run.py refuses a stored entry whose hash no longer matches the
generator, so regenerate after changing workloads.generate.
"""

import gzip
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # the thread count run.py uses

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

STORED = ("g", "pencil", "discretization_defect")


def main():
    seeds = sorted({s for run_seed in range(workloads.SHIPPED_SEEDS)
                    for s in workloads.input_seeds(run_seed)})
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name in workloads.WORKLOADS:
        entries = {}
        for seed in seeds:
            ini = workloads.generate(name, seed)
            out = workloads.reference_outputs(name, ini)
            failures = workloads.check_outputs(name, out, {})
            if failures:
                raise SystemExit("%s seed %d fails its bound checks: %s" % (name, seed, failures))
            entries[str(seed)] = {"sha256": workloads.input_hash(ini),
                                  "outputs": workloads.to_json(
                                      {k: v for k, v in out.items() if k in STORED})}
            print("%s seed %d stored" % (name, seed), flush=True)
        path = os.path.join(HERE, "reference", name + ".json.gz")
        # mtime=0 keeps the file byte-identical when the outputs are
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(entries, sort_keys=True).encode())


if __name__ == "__main__":
    main()
