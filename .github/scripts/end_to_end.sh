#!/usr/bin/env bash
# treedisk transmission, validate, tree-dtn, plasmonic, exterior-dtn and convergence
# end to end, with every warning an error.  Run it from the root of a checkout, with treedisk importable:
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

# `treedisk transmission` with no forcing, an exterior ring alone (no tree
# source, no c_root): D_N is read off the source tree that assembly builds
# for the harmonic part alone
printf '%s\n' "tree.p = 2" "tree.ell = 0.5" "tree.omega = 0.4" "interface.N = 7" \
  "transmission.alpha1 = 1.2" "transmission.alpha0 = 0.4" \
  "source.exterior.r_max = 2" "source.exterior.profile.2 = 1, -0.5" "source.exterior.profile.-2 = 1, -0.5" \
  > "$tmp/unforced.ini"
no_stderr python -X dev -W error -m treedisk.cli transmission --config "$tmp/unforced.ini" --out-prefix "$tmp/unforced_"

# `treedisk transmission` with the root datum alone (c_root = 2.5, alpha0 =
# 0, no source) on the GMRES path (p^N = 128 cells): u_T = u_Omega = 2.5
# solves the problem, so every value in g.csv is 2.5
printf '%s\n' "tree.p = 2" "tree.ell = 0.5" "tree.omega = 0.4" "interface.N = 7" \
  "transmission.alpha1 = 1" "transmission.alpha0 = 0" "transmission.c_root = 2.5" \
  > "$tmp/root_only.ini"
no_stderr python -X dev -W error -m treedisk.cli transmission --config "$tmp/root_only.ini" --out-prefix "$tmp/root_only_"
python - "$tmp/root_only_g.csv" <<'EOF'
import csv, sys
with open(sys.argv[1], newline="") as f:
    values = [complex(row["value"]) for row in csv.DictReader(f)]
worst = max(abs(v - 2.5) for v in values) / 2.5
print("root datum alone: %d values, max |g - 2.5| / 2.5 = %.2e" % (len(values), worst))
if len(values) != 128 or not worst <= 1e-12:
    sys.exit("g.csv is not the constant root datum 2.5")
EOF

# `treedisk transmission` on an interface of radius 2.5 with an exterior
# source that has a mode-0 term: R != 1 in the source integrals and the
# k = 0 formula (b_0 and its log R) end to end
printf '%s\n' "tree.p = 2" "tree.ell = 0.5" "tree.omega = 0.4" "interface.radius = 2.5" "interface.N = 5" \
  "transmission.alpha1 = 1" "transmission.alpha0 = 0.25" "source.exterior.r_max = 4" \
  "source.exterior.profile.1 = 1" "source.exterior.profile.-1 = 1" "source.exterior.profile.0 = 1, -0.25" \
  > "$tmp/radius.ini"
no_stderr python -X dev -W error -m treedisk.cli transmission --config "$tmp/radius.ini" --out-prefix "$tmp/radius_"

# `treedisk transmission` on the N = 7 ring source scaled by 1e100: the
# trace gate is 1e-10 at the scale of max|g|, so a source of any normal scale
# solves (an absolute gate refused it with exit 3)
printf '%s\n' "tree.p = 2" "tree.ell = 0.5" "tree.omega = 0.4" "interface.N = 7" \
  "transmission.alpha1 = 1" "transmission.alpha0 = 0.25" "source.exterior.r_max = 2" \
  "source.exterior.profile.1 = 1e100" "source.exterior.profile.-1 = 1e100" \
  > "$tmp/scaled.ini"
no_stderr python -X dev -W error -m treedisk.cli transmission --config "$tmp/scaled.ini" --out-prefix "$tmp/scaled_"

# `treedisk validate` on a tree that breaks the three structural
# inequalities: exit 2, with each failure on stderr
printf '%s\n' "tree.p = 2" "tree.ell = 2" "tree.omega = 0.5" > "$tmp/broken.ini"
python -W error -m treedisk.cli validate --config "$tmp/broken.ini" 2> "$tmp/stderr.txt" && status=0 || status=$?
cat "$tmp/stderr.txt" >&2
[ "$status" -eq 2 ]
[ "$(grep -c "^FAIL: " "$tmp/stderr.txt")" -eq 3 ]
for failure in "ell < 1 fails" "ell < omega*p fails" "omega*p < 1/ell fails"; do
  grep -qF "FAIL: $failure" "$tmp/stderr.txt"
done

# `treedisk tree-dtn` at depth 6: the condensed tree's 128 x 128 DtN matrix
# is symmetric, and each row carries the constant flux (1 - r) / 128 of
# criterion 2, with r = ell / (p omega) = 0.625
printf '%s\n' "tree.p = 2" "tree.ell = 0.5" "tree.omega = 0.4" > "$tmp/tree_dtn.ini"
no_stderr python -X dev -W error -m treedisk.cli tree-dtn --config "$tmp/tree_dtn.ini" --depth 6 --out "$tmp/tree_dtn.csv"
python - "$tmp/tree_dtn.csv" <<'EOF'
import csv, sys
import numpy as np
A = np.zeros((128, 128))
with open(sys.argv[1], newline="") as f:
    rows = list(csv.DictReader(f))
for row in rows:
    A[int(row["row"]), int(row["col"])] = float(row["value"])
flux = 0.375 / 128
worst = float(np.abs(A.sum(axis=1) - flux).max()) / flux
print("tree-dtn at depth 6: %d entries, max |row sum - 0.375/128| / (0.375/128) = %.2e" % (len(rows), worst))
if len(rows) != 128 * 128 or not np.array_equal(A, A.T) or not worst <= 1e-10:
    sys.exit("tree-dtn matrix is not symmetric with row sums 0.375/128")
EOF

# `treedisk plasmonic` on a p = 3 tree with overrides below N1 = 2: D_N is
# read off the source tree with a non-geometric top
printf '%s\n' "tree.p = 3" "tree.ell = 0.5" "tree.omega = 0.3" "tree.N1 = 2" "interface.N = 4" \
  "tree.length_override.0.0 = 1.1" "tree.weight_override.0.0 = 0.9" \
  "tree.length_override.1.2 = 0.6" "tree.weight_override.1.0 = 0.35" \
  "transmission.pencil_count = 6" \
  > "$tmp/pencil_p3.ini"
no_stderr python -X dev -W error -m treedisk.cli plasmonic --config "$tmp/pencil_p3.ini" --out "$tmp/pencil_p3.csv"

# `treedisk convergence`: a ring source over levels 3..6 passes the
# finiteness, monotonicity and rate checks and runs the folds between cells
# and modes
printf '%s\n' "tree.p = 2" "tree.ell = 0.5" "tree.omega = 0.4" "interface.N = 3" \
  "transmission.alpha1 = 1" "transmission.alpha0 = 0.3" "transmission.levels = 3, 4, 5, 6" \
  "source.exterior.r_max = 2" "source.exterior.profile.1 = 1" "source.exterior.profile.-1 = 1" \
  > "$tmp/ring.ini"
python -W error -m treedisk.cli convergence --config "$tmp/ring.ini" --out "$tmp/ring.csv"

# `treedisk convergence` on a p = 1 tree, where every level has one cell:
# exit 2 before any level is solved, with no CSV left behind
printf '%s\n' "tree.p = 1" "tree.ell = 0.5" "tree.omega = 1" "interface.N = 3" \
  "transmission.alpha1 = 1" "transmission.alpha0 = 0.3" > "$tmp/interval.ini"
python -W error -m treedisk.cli convergence --config "$tmp/interval.ini" --out "$tmp/interval.csv" && status=0 || status=$?
[ "$status" -eq 2 ]
[ ! -e "$tmp/interval.csv" ]

# the same study without transmission.levels: the default levels
# interface.N .. interface.N + 3
grep -v "transmission.levels" "$tmp/ring.ini" > "$tmp/ring_default.ini"
python -W error -m treedisk.cli convergence --config "$tmp/ring_default.ini" --out "$tmp/ring_default.csv"

# `treedisk exterior-dtn` at the mode budget: its 2^24 + 1 rows (289 MB) are
# streamed from the symbol's blocks a chunk at a time, so the command peaks
# under 128 MiB (37 MiB on a 2-vCPU host, against 293 MiB when the symbol
# held all its values); it fails above that
python - "$tmp/symbol.csv" <<'EOF'
import resource, subprocess, sys
subprocess.run([sys.executable, "-W", "error", "-m", "treedisk.cli", "exterior-dtn", "--radius", "1",
                "--level", "19", "--modes", "8388608", "--out", sys.argv[1]], check=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print("exterior-dtn at 8388608 modes: peak %.0f MiB" % peak)
if peak > 128:
    sys.exit("peak RSS %.0f MiB exceeds 128 MiB" % peak)
EOF
rm -f "$tmp/symbol.csv"
