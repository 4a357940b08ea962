"""Oversize problems fail with AssemblyTooLarge before they allocate.

Each case runs in a child process whose address space is capped at 2 GiB
(RLIMIT_AS), with BLAS on one thread, so a guard that allocates before it
checks fails there with MemoryError instead of taking the test runner down.
The interface solve forms no dense operator, so it runs past the dense
budget within the same cap, and the source tree is solved compressed at the
interface level, so a source depth whose full tree is far beyond the leaf
budget solves too; only the rows it stores count against the tree budget.
"""

import os
import pathlib
import resource
import subprocess
import sys

import pytest

import treedisk

ADDRESS_SPACE = 2 * 1024**3
SRC = str(pathlib.Path(treedisk.__file__).resolve().parent.parent)
TESTS = str(pathlib.Path(__file__).resolve().parent)

SETUP = """
from treedisk.dtn import condensed_dtn, tree_dtn_operator, truncated_dtn
from treedisk.errors import AssemblyTooLarge
from treedisk.transmission import TransmissionConfig, assemble_system
from treedisk.tree import TreeParams, build_condensed, build_truncated
P = TreeParams(p=2, ell=0.5, omega=0.4)
"""

LIBRARY_CASES = {
    "tree_dtn": "tree_dtn_operator(build_condensed(P, 13, level=13)).matrix",
    "condensed_dtn": "condensed_dtn(P, 30)",
    "truncated_dtn": "truncated_dtn(P, 30)",
    "assemble_system": "assemble_system(TransmissionConfig(params=P, level=40, alpha1=1.0))",
    "interface_matrix": "assemble_system(TransmissionConfig(params=P, level=13, alpha1=1.0)).M",
    "build_condensed": "build_condensed(P, 40)",
    "build_truncated": "build_truncated(P, 40)",
    "compressed_tree_rows": "build_condensed(P, 10**9, level=4)",
    "path_rows": "build_truncated(TreeParams(p=1, ell=0.5, omega=1.0), 10**9)",
    # 1,031 generations of one row fit the row budget, but the leaf row
    # stands for 2^1031 edges, which no float counts
    "leaf_row_float_range": "build_condensed(TreeParams(p=2, ell=0.99, omega=0.5), 1030, level=0)",
    # 902 generations of one row fit every budget, but omega^901 underflows
    # below the normal floats and the elimination would divide 0 by 0
    "deep_edge_weight": "build_condensed(P, 900, level=0)",
    # an unforced solve builds its source tree at assembly too, so the
    # config refuses it before anything is built
    "unforced_deep_source": "assemble_system(TransmissionConfig(params=P, level=0, alpha1=1.0, "
                            "source_depth=900))",
}

SOLVE_BEYOND_DENSE_BUDGET = """
from treedisk.exterior import RadialSource
from treedisk.transmission import TransmissionConfig, solve_transmission
from treedisk.tree import TreeParams
ring = RadialSource(R=1.0, r_max=2.0, terms=[(1, {0: 1.0}), (-1, {0: 1.0}), (3, {1: 0.5}),
                                             (-3, {1: 0.5})])
cfg = TransmissionConfig(params=TreeParams(p=2, ell=0.5, omega=0.4), level=13, alpha1=1.0,
                         alpha0=0.3, c_root=1.0, exterior_source=ring)
sol = solve_transmission(cfg)
if not sol.flux_residual <= sol.discretization_defect + 1e-10:
    raise SystemExit("flux residual %r, discretization defect %r"
                     % (sol.flux_residual, sol.discretization_defect))
"""

# run with the tests' directory on sys.path, for the expansion oracle
DEEP_SOURCE_TREE = """
import numpy as np
from oracles import expanded
from treedisk.errors import AssemblyTooLarge
from treedisk.exterior import RadialSource
from treedisk.transmission import TransmissionConfig, solve_transmission
from treedisk.tree import TreeParams
ring = RadialSource(R=1.0, r_max=2.0, terms=[(1, {0: 1.0}), (-1, {0: 1.0})])
cfg = TransmissionConfig(params=TreeParams(p=2, ell=0.5, omega=0.4), level=4, alpha1=1.0,
                         alpha0=0.3, c_root=1.0, exterior_source=ring, source_depth=40,
                         tree_source=np.full((42, 1), 0.7))
sol = solve_transmission(cfg)
if not sol.flux_residual <= sol.discretization_defect + 1e-10:
    raise SystemExit("flux residual %r, discretization defect %r"
                     % (sol.flux_residual, sol.discretization_defect))
try:
    expanded(sol.u_rows)
except AssemblyTooLarge:
    pass
else:
    raise SystemExit("the full source tree of 2^41 leaves was expanded")
"""


CONFIG = "tree.p = 2\ntree.ell = 0.5\ntree.omega = 0.4\n"
CLI_CASES = {
    "interface_level": CONFIG + "interface.N = 40\n",
    # solved compressed, but tree.csv's int64 edge index cannot count the
    # 2^63 edges of generation 63
    "source_depth": CONFIG + "transmission.source_depth = 62\nsource.tree.constant = 1.0\n",
    # stored one row per cell below N, these trees still exceed the row budget
    "compressed_source_depth":
        CONFIG + "transmission.source_depth = 1000000000\nsource.tree.constant = 1.0\n",
    "unforced_source_depth": CONFIG + "transmission.source_depth = 1000000000\n",
    # within the row budget, but the deepest edge weight is not a normal float
    "deep_source_edge_weight":
        CONFIG + "interface.N = 0\ntransmission.c_root = 1\ntransmission.source_depth = 900\n",
    # the exterior solve holds every mode up to the largest source mode
    "exterior_source_mode": CONFIG + "source.exterior.profile.1000000000 = 1.0\n",
}
CONVERGENCE_CASES = {
    # the manufactured datum holds every mode up to its own
    "manufactured_mode": CONFIG + "transmission.manufactured_mode = 1000000000\n",
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _run(args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          preexec_fn=_limit_address_space, timeout=300)


@pytest.mark.parametrize("call", LIBRARY_CASES.values(), ids=LIBRARY_CASES.keys())
def test_oversize_call_raises_before_allocating(call):
    code = SETUP + "try:\n    %s\nexcept AssemblyTooLarge:\n    pass\nelse:\n    raise SystemExit(1)\n"
    proc = _run(["-c", code % call])
    assert proc.returncode == 0, proc.stderr


def test_solve_runs_past_the_dense_budget():
    # 8,192 cells, twice the dense budget, with a source tree of 2^18 leaves
    proc = _run(["-c", SOLVE_BEYOND_DENSE_BUDGET])
    assert proc.returncode == 0, proc.stderr


def test_solve_with_a_source_tree_beyond_the_tree_budget():
    # the source tree of depth 41 is solved one row per cell below N=4;
    # only its expansion to 2^41 leaf edges is refused
    proc = _run(["-c", "import sys\nsys.path.insert(0, %r)\n" % TESTS + DEEP_SOURCE_TREE])
    assert proc.returncode == 0, proc.stderr


def _assert_refused(proc, tmp_path):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("problem too large: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not list(tmp_path.glob("run_*"))


@pytest.mark.parametrize("text", CLI_CASES.values(), ids=CLI_CASES.keys())
def test_oversize_transmission_exits_2(text, tmp_path):
    path = tmp_path / "big.ini"
    path.write_text(text)
    proc = _run(["-m", "treedisk.cli", "transmission", "--config", str(path),
                 "--out-prefix", str(tmp_path / "run_")])
    _assert_refused(proc, tmp_path)


@pytest.mark.parametrize("text", CONVERGENCE_CASES.values(), ids=CONVERGENCE_CASES.keys())
def test_oversize_convergence_exits_2(text, tmp_path):
    path = tmp_path / "big.ini"
    path.write_text(text)
    proc = _run(["-m", "treedisk.cli", "convergence", "--config", str(path),
                 "--out", str(tmp_path / "run_convergence.csv")])
    _assert_refused(proc, tmp_path)


def test_oversize_exterior_dtn_exits_2(tmp_path):
    proc = _run(["-m", "treedisk.cli", "exterior-dtn", "--radius", "1", "--level", "3",
                 "--modes", "100000000000", "--out", str(tmp_path / "run_symbol.csv")])
    _assert_refused(proc, tmp_path)
