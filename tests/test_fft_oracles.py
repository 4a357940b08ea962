"""FFT kernels of the exterior side against their dense constructions.

The dense functions below are the phase-table formulas the FFT paths
replaced: O(p^N * M) time and memory, kept here as oracles only.  The
matrix-free interface operator and its GMRES solve are checked against the
dense M and LAPACK's solve and 1-norm condition number.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, given, note, settings
from hypothesis import strategies as st

from treedisk import circle as ci
from treedisk import transmission
from treedisk.acceptance import _random_admissible_params
from treedisk.errors import InvalidInput, SingularInterfaceOperator
from treedisk.exterior import (
    MODE_OVERSAMPLING,
    RadialSource,
    dtn_galerkin,
    dtn_symbol,
    galerkin_row,
    layer_symbols,
)
from treedisk.transmission import TransmissionConfig, assemble_system, plasmonic_pencil, solve_interface
from treedisk.tree import TreeParams

R = 1.3
CASES = [(1, n) for n in range(4)] + [(2, n) for n in range(10)] + [(3, n) for n in range(6)]


def sinc_cells(ks, pn):
    # average magnitude of e^{ik.} over a cell of pn cells; exact zero on the
    # aliased multiples k = m pn (m != 0), where np.sinc leaves ~1e-16 dust
    s = np.sinc(ks / pn)
    s[(ks % pn == 0) & (ks != 0)] = 0.0
    return s


def mode_split(ks, pn):
    # k = r + a pn with 0 <= r < pn, and the weight (-1)^a sinc(k / pn)
    r = ks % pn
    a = (ks - r) // pn
    return r, np.where(a % 2, -1.0, 1.0) * sinc_cells(ks, pn)


def dense_galerkin_row(symbol, pn):
    ks = symbol.ks()
    weights = symbol.values * sinc_cells(ks, pn) ** 2 / float(pn) ** 2
    phases = np.mod(np.outer(np.arange(pn), ks), pn)
    return 2.0 * math.pi * symbol.R * (np.cos(2.0 * math.pi * phases / pn) @ weights)


def dense_to_fourier(values, pn, M):
    ks = np.arange(-M, M + 1)
    r, weight = mode_split(ks, pn)
    idx = np.outer(r, 2 * np.arange(pn) + 1) % (2 * pn)
    return (np.exp(-1j * np.pi * idx / pn) @ values) * weight / pn


def dense_cell_averages(g, pn):
    r, weight = mode_split(g.ks(), pn)
    idx = np.outer(2 * np.arange(pn) + 1, r) % (2 * pn)
    return np.exp(1j * np.pi * idx / pn) @ (g.coeffs * weight)


def rel_err(fast, dense):
    return float(np.abs(fast - dense).max() / max(np.abs(dense).max(), 1e-300))


def _symbols(radius, M):
    """(name, symbol) of the DtN map and the three layer operators."""
    names = ("DtN", "SingleLayer", "DoubleLayerT", "Hypersingular")
    return zip(names, (dtn_symbol(radius, M),) + layer_symbols(radius, 2.0 * radius, M))


@pytest.mark.parametrize("p,N", CASES)
def test_galerkin_matches_dense_row(p, N):
    pn = p**N
    dec = ci.MultiscaleDecomposition(R=R, p=p, n_max=N + 1)
    for name, symbol in _symbols(R, MODE_OVERSAMPLING * pn):
        A = dtn_galerkin(dec, N, symbol)
        row = dense_galerkin_row(symbol, pn)
        dense = row[np.mod(np.subtract.outer(np.arange(pn), np.arange(pn)), pn)]
        assert rel_err(A, dense) <= 1e-13, (name, p, N)


@pytest.mark.parametrize("p,N", CASES)
def test_to_fourier_and_cell_averages_match_dense(p, N):
    pn = p**N
    dec = ci.MultiscaleDecomposition(R=R, p=p, n_max=N + 1)
    rng = np.random.default_rng(1000 * p + N)
    # cutoffs below, near and far above the number of cells
    for M in sorted({max(pn // 3, 1), pn + 1, 4 * pn + 3}):
        values = rng.standard_normal(pn) + 1j * rng.standard_normal(pn)
        fast = ci.PiecewiseConstantFn(dec, N, values).to_fourier(M).coeffs
        assert rel_err(fast, dense_to_fourier(values, pn, M)) <= 1e-13, (p, N, M)

        g = ci.FourierFn(R, rng.standard_normal(2 * M + 1) + 1j * rng.standard_normal(2 * M + 1))
        assert rel_err(ci.cell_averages(dec, g, N), dense_cell_averages(g, pn)) <= 1e-13, (p, N, M)


# largest N with p^N <= 256 (p = 1 has a single cell at every level)
MAX_LEVEL = {1: 3, 2: 8, 3: 5}


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([1, 2, 3]), radius=st.floats(min_value=0.5, max_value=3.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_fft_kernels_match_dense_on_random_inputs(p, radius, seed, data):
    N = data.draw(st.integers(min_value=0, max_value=MAX_LEVEL[p]), label="N")
    pn = p**N
    M = data.draw(st.integers(min_value=1, max_value=4 * pn + 3), label="M")
    dec = ci.MultiscaleDecomposition(R=radius, p=p, n_max=N + 1)
    cutoff = MODE_OVERSAMPLING * pn
    for name, symbol in _symbols(radius, cutoff):
        row = dense_galerkin_row(symbol, pn)
        dense = row[np.mod(np.subtract.outer(np.arange(pn), np.arange(pn)), pn)]
        assert rel_err(dtn_galerkin(dec, N, symbol), dense) <= 1e-13, (name, p, N, M)

    rng = np.random.default_rng(seed)
    values = rng.standard_normal(pn) + 1j * rng.standard_normal(pn)
    fast = ci.PiecewiseConstantFn(dec, N, values).to_fourier(M).coeffs
    assert rel_err(fast, dense_to_fourier(values, pn, M)) <= 1e-13, (p, N, M)
    g = ci.FourierFn(radius, rng.standard_normal(2 * M + 1) + 1j * rng.standard_normal(2 * M + 1))
    assert rel_err(ci.cell_averages(dec, g, N), dense_cell_averages(g, pn)) <= 1e-13, (p, N, M)


def test_condition_estimate_within_factor_n_of_svd():
    cfg = TransmissionConfig(params=TreeParams(p=2, ell=0.5, omega=0.4), level=4,
                             alpha1=complex(0.7, 0.2), alpha0=0.3)
    system = assemble_system(cfg)
    solve_interface(system)
    n = system.h.size
    exact = float(np.linalg.cond(system.M))
    assert exact / n <= system.condition_estimate <= exact * n


P3_OVERRIDES = TreeParams(p=3, ell=0.6, omega=0.3, N1=2,
                          length_overrides={(0, 0): 1.2, (1, 2): 0.5},
                          weight_overrides={(0, 0): 0.9, (1, 0): 0.35})
RING = RadialSource(R=1.0, r_max=2.0, terms=[(1, {0: 1.0}), (-1, {0: 1.0}), (2, {1: 0.5j}),
                                             (-2, {1: -0.5j})])
# (alpha1, alpha0): real, complex, per-cell, case (ii)
COEFFS = [(1.0, 0.3), (0.7 + 0.4j, 0.2 - 0.5j), (1.3, "cells"), (-0.4 + 1.5j, 0.1 + 0.8j)]


def _system(params, N, alpha1, alpha0):
    if isinstance(alpha0, str):
        alpha0 = np.random.default_rng(N).uniform(0.1, 2.0, params.p**N)
    return assemble_system(TransmissionConfig(params=params, level=N, alpha1=alpha1, alpha0=alpha0,
                                              c_root=0.6, exterior_source=RING))


@pytest.mark.parametrize("p,N", [(1, 3), (2, 0), (2, 5), (3, 3)])
def test_galerkin_row_eigenvalues_diagonalize_the_circulant(p, N):
    dec = ci.MultiscaleDecomposition(R=R, p=p, n_max=N + 1)
    symbol = dtn_symbol(R, MODE_OVERSAMPLING * p**N)
    C = dtn_galerkin(dec, N, symbol)
    eigs = np.fft.fft(galerkin_row(dec, N, symbol))
    assert np.abs(eigs.imag).max() <= 1e-13 * max(np.abs(eigs).max(), 1e-300)
    x = np.random.default_rng(p + N).standard_normal(p**N)
    assert rel_err(np.fft.ifft(eigs.real * np.fft.fft(x)), C @ x) <= 1e-13


@pytest.mark.parametrize("params,N", [(TreeParams(p=2, ell=0.5, omega=0.4), 6), (P3_OVERRIDES, 4)])
@pytest.mark.parametrize("alpha1,alpha0", COEFFS)
def test_interface_operator_matches_dense(params, N, alpha1, alpha0):
    system = _system(params, N, alpha1, alpha0)
    M = system.M
    rng = np.random.default_rng(N)
    x = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
    assert rel_err(system.apply(x), M @ x) <= 1e-13
    # the condition estimate reads M^H s as conj(M conj(s)): M is complex symmetric
    assert np.abs(M - M.T).max() <= 1e-14 * np.abs(M).max()
    assert rel_err(np.conj(system.apply(np.conj(x))), M.conj().T @ x) <= 1e-13


@pytest.mark.parametrize("params,N", [(TreeParams(p=2, ell=0.5, omega=0.4), 3),
                                      (TreeParams(p=2, ell=0.5, omega=0.4), 8),
                                      (TreeParams(p=1, ell=0.5, omega=1.0), 4),
                                      (P3_OVERRIDES, 2), (P3_OVERRIDES, 5)])
@pytest.mark.parametrize("alpha1,alpha0", COEFFS)
def test_solve_interface_matches_dense_solve(params, N, alpha1, alpha0):
    system = _system(params, N, alpha1, alpha0)
    g = solve_interface(system).values
    M = system.M
    assert rel_err(g, np.linalg.solve(M, -system.h)) <= 1e-12
    exact = float(np.linalg.cond(M, 1))
    assert exact / 3 <= system.condition_estimate <= exact * (1 + 1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_solve_interface_matches_dense_on_random_admissible_trees(seed):
    rng = np.random.default_rng(seed)
    params = _random_admissible_params(rng)
    N = params.N1 + int(rng.integers(0, 3))
    if params.p**N > 729:
        N = params.N1
    alpha1 = complex(rng.uniform(0.05, 3.0), rng.uniform(-1.0, 1.0))
    system = _system(params, N, alpha1, complex(rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0)))
    assert rel_err(solve_interface(system).values, np.linalg.solve(system.M, -system.h)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(N=st.integers(min_value=3, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1),
       size=st.floats(min_value=1.0, max_value=28.0))
def test_solve_interface_matches_dense_for_rough_per_cell_alpha0(N, seed, size):
    # alpha0 drawn independently per cell, complex, |alpha0| <= size <= 28,
    # with Re alpha0 >= 0 (sign condition (i)); the Chan preconditioner sees
    # only its mean, so this is where GMRES needs the most steps
    assert transmission._KRYLOV_MAX_ITER == 100
    rng = np.random.default_rng(seed)
    cells = 2**N
    alpha0 = size * rng.uniform(0.0, 1.0, cells) * np.exp(1j * rng.uniform(-0.5 * np.pi, 0.5 * np.pi, cells))
    system = assemble_system(TransmissionConfig(params=TreeParams(p=2, ell=0.5, omega=0.4), level=N,
                                                alpha1=1.0, alpha0=alpha0, c_root=0.6,
                                                exterior_source=RING))
    applications = []
    apply = system.apply

    def counted(x):
        applications.append(x.size)
        return apply(x)

    system.apply = counted
    g = solve_interface(system).values
    note("N=%d, max |alpha0| %.2f: %d applications of M" % (N, size, len(applications)))
    low = len(applications) // 100 * 100
    event("N=%d: %d-%d applications" % (N, low, low + 99))
    assert rel_err(g, np.linalg.solve(system.M, -system.h)) <= 1e-12


@pytest.mark.parametrize("N", [3, 6])
def test_every_nonzero_pencil_eigenvalue_is_singular(N):
    params = TreeParams(p=2, ell=0.5, omega=0.4)
    system = assemble_system(TransmissionConfig(params=params, level=N, alpha1=1.0))
    values = plasmonic_pencil(system.C, system.D, count=2**N)
    for alpha1 in values[1:]:
        singular = assemble_system(TransmissionConfig(params=params, level=N, alpha1=alpha1,
                                                      exterior_source=RING))
        with pytest.raises(SingularInterfaceOperator):
            solve_interface(singular)


def _p3_overrides():
    rng = np.random.default_rng(7)
    overrides = {(n, k): 0.5**n * rng.uniform(0.8, 1.25) for n in range(2) for k in range(3**n)}
    weights = {(n, k): 0.3**n * rng.uniform(0.8, 1.25) for n in range(2) for k in range(3**n)}
    return TreeParams(p=3, ell=0.5, omega=0.3, N1=2, length_overrides=overrides,
                      weight_overrides=weights)


def test_eigh_pencil_matches_eig():
    for params in (TreeParams(p=2, ell=0.5, omega=0.4), _p3_overrides()):
        system = assemble_system(TransmissionConfig(params=params, level=3, alpha1=1.0))
        fast = np.array(plasmonic_pencil(system.C, system.D, count=system.h.size))
        dense = scipy.linalg.eig(system.C, system.D, right=False)
        dense = dense[np.argsort(-dense.real)]
        assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


PENCIL_CASES = ([(TreeParams(p=2, ell=0.5, omega=0.4), N) for N in range(7)]
                + [(_p3_overrides(), N) for N in range(3, 6)])


@pytest.mark.parametrize("params, N", PENCIL_CASES,
                         ids=["p2-N%d" % N for N in range(7)] + ["p3-N%d" % N for N in range(3, 6)])
def test_pencil_matches_scipy_eigh(params, N):
    # every value of the FFT-reduced pencil against LAPACK's generalized
    # symmetric-definite solve, nearest zero first
    system = assemble_system(TransmissionConfig(params=params, level=N, alpha1=1.0))
    fast = np.array(plasmonic_pencil(system.C, system.D, count=system.h.size))
    dense = scipy.linalg.eigh(system.C, system.D, eigvals_only=True)[::-1]
    assert fast.shape == dense.shape
    assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


def test_pencil_count_beyond_the_cells_and_one_cell():
    params = TreeParams(p=2, ell=0.5, omega=0.4)
    system = assemble_system(TransmissionConfig(params=params, level=3, alpha1=1.0))
    values = plasmonic_pencil(system.C, system.D, count=100)
    assert len(values) == 8
    assert values == plasmonic_pencil(system.C, system.D, count=8)
    one = assemble_system(TransmissionConfig(params=params, level=0, alpha1=1.0))
    assert one.C.shape == (1, 1)
    only = plasmonic_pencil(one.C, one.D, count=5)
    assert len(only) == 1 and abs(only[0]) <= 1e-12


def test_pencil_constant_value_is_a_rayleigh_quotient():
    # a C that does not annihilate the constants moves the first value off 0
    system = assemble_system(TransmissionConfig(params=TreeParams(p=2, ell=0.5, omega=0.4), level=4,
                                                alpha1=1.0))
    shift = 1e-3
    first = plasmonic_pencil(system.C + shift / 16, system.D, count=1)[0]
    assert first.real == pytest.approx(shift * 16 / system.D.sum(), rel=1e-9)


def test_pencil_rejects_a_non_circulant_or_an_indefinite_pencil():
    system = assemble_system(TransmissionConfig(params=_p3_overrides(), level=3, alpha1=1.0))
    C, D = system.C, system.D
    bent = C.copy()
    bent[0, 1] += 1e-9
    bent[1, 0] += 1e-9
    with pytest.raises(InvalidInput, match="circulant"):
        plasmonic_pencil(bent, D)
    with pytest.raises(InvalidInput):
        plasmonic_pencil(C, D[:-1, :-1])
    # s = 1^T D 1 < 0, and s > 0 with a negative direction of zero mean
    v = np.zeros(C.shape[0])
    v[:2] = 1.0, -1.0
    for indefinite in (-D, D - 10.0 * np.abs(D).max() * np.outer(v, v)):
        with pytest.raises(np.linalg.LinAlgError):
            plasmonic_pencil(C, indefinite, count=2)


def test_projector_error_check_raises_under_optimize_flag():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "from treedisk import circle as ci\n"
        "ci.ar_norm = lambda *args: 0.0\n"
        "D = ci.MultiscaleDecomposition(R=1.0, p=2, n_max=24)\n"
        "g = ci.FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5})\n"
        "try:\n"
        "    ci.projector_error_check(D, g, 3, 0.33904, 0.42)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert "raised: projector error bound violated" in out
