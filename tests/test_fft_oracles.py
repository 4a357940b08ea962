"""FFT kernels of the exterior side against their dense constructions.

The dense functions below are the phase-table formulas the FFT paths
replaced: O(p^N * M) time and memory, kept here as oracles only.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from treedisk import circle as ci
from treedisk.exterior import MODE_OVERSAMPLING, dtn_galerkin, dtn_symbol, layer_symbols
from treedisk.transmission import TransmissionConfig, assemble_system, plasmonic_pencil, solve_interface
from treedisk.tree import TreeParams

R = 1.3
CASES = [(1, n) for n in range(4)] + [(2, n) for n in range(10)] + [(3, n) for n in range(6)]


def dense_galerkin_row(symbol, pn):
    ks = symbol.ks()
    weights = symbol.values * ci._sinc_cells(ks, pn) ** 2 / float(pn) ** 2
    phases = np.mod(np.outer(np.arange(pn), ks), pn)
    return 2.0 * math.pi * symbol.R * (np.cos(2.0 * math.pi * phases / pn) @ weights)


def dense_to_fourier(values, pn, M):
    ks = np.arange(-M, M + 1)
    r, weight = ci._mode_split(ks, pn)
    idx = np.outer(r, 2 * np.arange(pn) + 1) % (2 * pn)
    return (np.exp(-1j * np.pi * idx / pn) @ values) * weight / pn


def dense_cell_averages(g, pn):
    r, weight = ci._mode_split(g.ks(), pn)
    idx = np.outer(2 * np.arange(pn) + 1, r) % (2 * pn)
    return np.exp(1j * np.pi * idx / pn) @ (g.coeffs * weight)


def rel_err(fast, dense):
    return float(np.abs(fast - dense).max() / max(np.abs(dense).max(), 1e-300))


def _symbols(M):
    return (dtn_symbol(R, M),) + layer_symbols(R, 2.0 * R, M)


@pytest.mark.parametrize("p,N", CASES)
def test_galerkin_matches_dense_row(p, N):
    pn = p**N
    dec = ci.MultiscaleDecomposition(R=R, p=p, n_max=N + 1)
    for symbol in _symbols(MODE_OVERSAMPLING * pn):
        A = dtn_galerkin(dec, N, symbol).matrix
        row = dense_galerkin_row(symbol, pn)
        dense = row[np.mod(np.subtract.outer(np.arange(pn), np.arange(pn)), pn)]
        assert rel_err(A, dense) <= 1e-13, (symbol.tag, p, N)


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
    for symbol in (dtn_symbol(radius, cutoff),) + layer_symbols(radius, 2.0 * radius, cutoff):
        row = dense_galerkin_row(symbol, pn)
        dense = row[np.mod(np.subtract.outer(np.arange(pn), np.arange(pn)), pn)]
        assert rel_err(dtn_galerkin(dec, N, symbol).matrix, dense) <= 1e-13, (symbol.tag, p, N, M)

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


def test_eigh_pencil_matches_eig():
    rng = np.random.default_rng(7)
    overrides = {(n, k): 0.5**n * rng.uniform(0.8, 1.25) for n in range(2) for k in range(3**n)}
    weights = {(n, k): 0.3**n * rng.uniform(0.8, 1.25) for n in range(2) for k in range(3**n)}
    cases = [
        TreeParams(p=2, ell=0.5, omega=0.4),
        TreeParams(p=3, ell=0.5, omega=0.3, N1=2, length_overrides=overrides, weight_overrides=weights),
    ]
    for params in cases:
        system = assemble_system(TransmissionConfig(params=params, level=3, alpha1=1.0))
        fast = np.array(plasmonic_pencil(system.C, system.D, count=system.h.size))
        dense = scipy.linalg.eig(system.C, system.D, right=False)
        dense = dense[np.argsort(-dense.real)]
        assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


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
