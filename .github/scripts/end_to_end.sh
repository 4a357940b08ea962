#!/usr/bin/env bash
# treedisk transmission and convergence end to end, with every warning an
# error.  Run it from the root of a checkout, with treedisk importable:
#
#     bash -eo pipefail .github/scripts/end_to_end.sh
#
# Its inputs and outputs go to $RUNNER_TEMP, or to a new temporary directory.
set -eo pipefail
tmp="${RUNNER_TEMP:-$(mktemp -d)}"

# `treedisk transmission`: a warning from the CSV text kernel or the forked
# writer fails the run; under -X dev a pipe or temp file left unclosed is a
# ResourceWarning, which a finalizer only prints, so the run also requires an
# empty stderr
no_stderr() {
  "$@" 2> "$tmp/stderr.txt" && status=0 || status=$?
  cat "$tmp/stderr.txt" >&2
  [ "$status" -eq 0 ] && [ ! -s "$tmp/stderr.txt" ]
}

# the benchmark's unseen seed 41, generated (read-only) by perfbench/workloads.py
python -c "import sys; sys.path.insert(0, 'perfbench'); import workloads; sys.stdout.write(workloads.generate('cli_transmission_n10', 41))" > "$tmp/seed41.ini"
no_stderr python -X dev -W error -m treedisk.cli transmission --config "$tmp/seed41.ini" --out-prefix "$tmp/seed41_"

# a p = 3 tree with complex alpha1, so g, the tree coefficients and the trace
# are complex and tree.csv's records are built from complex text
printf '%s\n' "tree.p = 3" "tree.ell = 0.4" "tree.omega = 0.3" "interface.N = 4" \
  "transmission.alpha1 = 1+0.5j" "transmission.alpha0 = 0.25" "transmission.c_root = 0.3" \
  "transmission.source_depth = 8" "source.tree.constant = 0.7" \
  "source.exterior.r_max = 2" "source.exterior.profile.1 = 1" "source.exterior.profile.-1 = 1" \
  > "$tmp/p3_complex.ini"
no_stderr python -X dev -W error -m treedisk.cli transmission --config "$tmp/p3_complex.ini" --out-prefix "$tmp/p3_complex_"

# `treedisk convergence`: a ring source over levels 3..6 passes the
# finiteness, monotonicity and rate checks and runs the folds between cells
# and modes
printf '%s\n' "tree.p = 2" "tree.ell = 0.5" "tree.omega = 0.4" "interface.N = 3" \
  "transmission.alpha1 = 1" "transmission.alpha0 = 0.3" "transmission.levels = 3, 4, 5, 6" \
  "source.exterior.r_max = 2" "source.exterior.profile.1 = 1" "source.exterior.profile.-1 = 1" \
  > "$tmp/ring.ini"
python -W error -m treedisk.cli convergence --config "$tmp/ring.ini" --out "$tmp/ring.csv"
