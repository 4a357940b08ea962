import math

import numpy as np
import pytest

from treedisk.circle import MultiscaleDecomposition
from treedisk.dtn import (
    coercivity_check,
    compress,
    condensed_dtn,
    dtn_convergence_rate,
    tree_dtn_operator,
    truncated_dtn,
)
from treedisk.errors import AssemblyTooLarge, DepthMismatch, InsufficientDepths
from treedisk.exterior import MODE_OVERSAMPLING, dtn_galerkin, dtn_symbol
from treedisk.tree import TreeParams, build_condensed, build_truncated

REF = TreeParams(p=2, ell=0.5, omega=0.4, L0=1.0, omega0=1.0)
UNIT_INTERVAL = TreeParams(p=1, ell=0.5, omega=1.0, L0=1.0, omega0=1.0)


def test_interval_truncated_matches_series_resistance():
    # p=1 chain of N edges: D = (1 - ell^N)^{-1} * (1 - ell) / L0 when omega = 1
    for n_edges in range(1, 7):
        A = truncated_dtn(UNIT_INTERVAL, n_edges - 1)
        expected = 0.5 / (1.0 - 0.5**n_edges)
        assert A.shape == (1, 1)
        assert A[0, 0] == pytest.approx(expected, abs=1e-14)
    assert truncated_dtn(UNIT_INTERVAL, 2)[0, 0] == pytest.approx(0.5714285714285714, abs=1e-12)


def test_interval_condensed_is_exact_at_every_level():
    for n in range(1, 7):
        A = condensed_dtn(UNIT_INTERVAL, n)
        assert A.shape == (1, 1)
        assert A[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_condensed_row_sums_equal_radial_flux():
    # constant boundary data 1: total flux omega0 * (1 - r) / L0, split evenly
    r = REF.ell / (REF.p * REF.omega)
    for n in (2, 4, 6):
        A = condensed_dtn(REF, n)
        m = A.shape[0]
        assert m == REF.p ** (n + 1)
        rows = A.sum(axis=1)
        expected = (1.0 - r) / m
        assert np.max(np.abs(rows - expected)) < 1e-12 * abs(expected) * m


def test_condensation_consistency_under_compression():
    fine = condensed_dtn(REF, 5)
    for n in (1, 2, 3):
        coarse = condensed_dtn(REF, n)
        squeezed = compress(fine, REF.p, n + 1)
        assert squeezed.shape == coarse.shape
        scale = np.abs(coarse).max()
        assert np.abs(squeezed - coarse).max() < 1e-12 * scale


def test_compress_refuses_refinement():
    A = condensed_dtn(REF, 2)
    # 8 cells: level 4 is finer, and 3 cells of p = 3 do not divide them
    for p, level in ((2, 4), (3, 1), (2, -1)):
        with pytest.raises(InsufficientDepths):
            compress(A, p, level)
    # p = 1 has one cell at every level
    one = condensed_dtn(UNIT_INTERVAL, 3)
    assert np.array_equal(compress(one, 1, 2), one)


def test_compress_preserves_total_flux():
    A = condensed_dtn(REF, 4)
    total = A.sum()
    for level in range(4, -1, -1):
        A = compress(A, REF.p, level)
        assert A.sum() == pytest.approx(total, rel=1e-13)


def test_symmetry_and_coercivity():
    A = condensed_dtn(REF, 4)
    report = coercivity_check(A)
    assert report.symmetry_defect < 1e-12
    assert report.eig_min > 0.0
    # constants see the full flux, split evenly across the 2^{N+1} leaf cells
    assert report.const_image == pytest.approx(A.sum() / len(A), rel=1e-12)
    # the defect is relative to the largest entry
    assert coercivity_check(np.array([[2.0, 1.0], [0.0, 2.0]])).symmetry_defect == 0.5


def test_weight_scaling_is_linear():
    scaled = TreeParams(p=2, ell=0.5, omega=0.4, L0=1.0, omega0=3.0)
    a = condensed_dtn(REF, 3)
    b = condensed_dtn(scaled, 3)
    assert np.abs(b - 3.0 * a).max() < 1e-12 * np.abs(a).max()


def test_truncated_flux_defect_decays_like_r():
    # relative defect of total flux vs the condensed limit shrinks by ~r per level
    r = REF.ell / (REF.p * REF.omega)
    ref = condensed_dtn(REF, 9)
    defects = []
    for d in range(2, 7):
        trunc = truncated_dtn(REF, d).sum()
        exact = compress(ref, REF.p, d).sum()
        defects.append(abs(trunc - exact) / exact)
    ratios = [defects[i + 1] / defects[i] for i in range(len(defects) - 1)]
    assert all(d2 < d1 for d1, d2 in zip(defects, defects[1:]))
    assert ratios[-1] == pytest.approx(r, rel=0.05)


def test_convergence_rate_interval():
    rec = dtn_convergence_rate(UNIT_INTERVAL, [3, 4, 5, 6, 7, 8])
    assert rec.rho_hat is None
    assert rec.rate_per_level == pytest.approx(math.log(2.0), rel=0.05)
    assert rec.residual < 0.05


def test_convergence_rate_interval_general_weight():
    params = TreeParams(p=1, ell=0.5, omega=0.9, L0=1.0, omega0=1.0)
    rec = dtn_convergence_rate(params, [3, 4, 5, 6, 7, 8])
    assert rec.rate_per_level == pytest.approx(math.log(0.9 / 0.5), rel=0.05)


def test_convergence_rate_reference_tree():
    rec = dtn_convergence_rate(REF, [2, 3, 4, 5])
    assert rec.rho_hat is not None and rec.rho_hat > 0.0
    assert all(e2 < e1 for e1, e2 in zip(rec.errors, rec.errors[1:]))
    # deep ratio settles near p^{-1} for smooth data
    assert rec.errors[-1] / rec.errors[-2] == pytest.approx(0.5, abs=0.1)


def test_convergence_rate_needs_three_depths():
    with pytest.raises(InsufficientDepths):
        dtn_convergence_rate(REF, [2, 2, 3])


def test_dense_assembly_guard():
    # 8192 cells, one level past the 4096-cell budget, for every dense builder
    with pytest.raises(AssemblyTooLarge):
        condensed_dtn(REF, 12)
    with pytest.raises(AssemblyTooLarge):
        truncated_dtn(REF, 13)
    with pytest.raises(AssemblyTooLarge):
        tree_dtn_operator(build_condensed(REF, 13, level=13)).matrix
    decomp = MultiscaleDecomposition(R=1.0, p=2, n_max=13)
    with pytest.raises(AssemblyTooLarge):
        dtn_galerkin(decomp, 13, dtn_symbol(1.0, MODE_OVERSAMPLING * 2**13))


def test_tree_dtn_operator_needs_a_tail():
    # a full tree has no subtree below its leaves to merge into one edge
    for tree in (build_condensed(REF, 3), build_truncated(REF, 3)):
        with pytest.raises(DepthMismatch, match="no tail"):
            tree_dtn_operator(tree)
