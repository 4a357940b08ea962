"""Circle decomposition, projectors, multiscale norms."""

import math

import numpy as np
import pytest

from oracles import cells_l2_norm, ks, mode, project_PN, sobolev_norm, to_fourier
from treedisk import circle as ci
from treedisk.errors import ExponentOrderViolated

D = ci.MultiscaleDecomposition(R=1.0, p=2, n_max=24)


def _indicator(n, K, M):
    """The modes |k| <= M of the indicator of cell K of level n."""
    values = np.zeros(D.n_cells(n))
    values[K] = 1.0
    return to_fourier(ci.PiecewiseConstantFn(D, n, values), M)


def test_cell_geometry():
    assert D.n_cells(3) == 8
    assert D.cell_measure(3) == pytest.approx(2 * math.pi / 8)
    # partition of unity and nesting
    tot = sum(_indicator(2, K, 12).coeffs for K in range(4))
    ref = np.zeros(25, complex)
    ref[12] = 1.0
    np.testing.assert_allclose(tot, ref, atol=1e-15)


def test_indicator_closed_form():
    for n, K, M in [(2, 1, 16), (3, 5, 31)]:
        f = _indicator(n, K, M)
        k = ks(f)
        a, b = 2 * np.pi * K / 2**n, 2 * np.pi * (K + 1) / 2**n
        safe = np.where(k == 0, 1, k)
        ref = np.where(k == 0, 2.0**-n, (np.exp(-1j * k * a) - np.exp(-1j * k * b)) / (2j * np.pi * safe))
        np.testing.assert_allclose(f.coeffs, ref, atol=1e-14)
    triv = _indicator(0, 0, 8)
    assert mode(triv, 0) == 1.0
    assert np.abs(np.delete(triv.coeffs, 8)).max() == 0.0


def test_indicator_parseval():
    M = 4000
    f = _indicator(3, 2, M)
    gap = abs(2 * math.pi * float((np.abs(f.coeffs) ** 2).sum()) - 2 * math.pi / 8)
    assert gap < 2.0 / M


def test_project_exponential_average():
    g = ci.FourierFn.from_modes(1.0, {1: 1.0})
    avg = ci.cell_averages(D, g, 2)
    a = 2 * np.pi * np.arange(4) / 4
    b = a + np.pi / 2
    ref = (np.exp(1j * b) - np.exp(1j * a)) / (1j * (b - a))
    np.testing.assert_allclose(avg, ref, atol=1e-14)


def test_projection_identities():
    rng = np.random.default_rng(5)
    h = ci.PiecewiseConstantFn(D, 4, rng.standard_normal(16))
    # idempotent and P_N P_n = P_min
    same = project_PN(D, h, 4)
    np.testing.assert_allclose(same.values, h.values)
    p1 = project_PN(D, project_PN(D, h, 3), 2)
    p2 = project_PN(D, h, 2)
    np.testing.assert_allclose(p1.values, p2.values, atol=1e-14)
    one = ci.FourierFn.from_modes(1.0, {0: 1.0})
    np.testing.assert_allclose(project_PN(D, one, 3).values, 1.0)


def test_proj_norm_aliasing_formula():
    rng = np.random.default_rng(9)
    g = ci.FourierFn(1.0, rng.standard_normal(33) + 1j * rng.standard_normal(33))
    for n in [0, 1, 2, 3, 5, 8]:
        brute = cells_l2_norm(project_PN(D, g, n)) ** 2
        assert ci.proj_norm_sq(D, g, n) == pytest.approx(brute, abs=1e-12)
    # contraction and Pythagoras
    for n in range(6):
        assert ci.proj_norm_sq(D, g, n) <= ci.l2_norm_sq(g) + 1e-12
        e = ci.err_norm_sq(D, g, n)
        assert e == pytest.approx(ci.l2_norm_sq(g) - ci.proj_norm_sq(D, g, n), abs=1e-12)


@pytest.mark.parametrize("p", [2, 3])
def test_to_fourier_vanishes_exactly_at_aliased_modes(p):
    # the cell average of e^{ik.} is zero for k = m p^n, m != 0, and the
    # alias fold keeps that zero exact
    rng = np.random.default_rng(p)
    dec = ci.MultiscaleDecomposition(R=1.0, p=p, n_max=6)
    for n in range(4):
        pn = p**n
        M = 7 * pn + 2
        g = ci.PiecewiseConstantFn(dec, n, rng.standard_normal(pn) + 1j * rng.standard_normal(pn))
        f = to_fourier(g, M)
        k = ks(f)
        aliased = (k % pn == 0) & (k != 0)
        assert np.all(f.coeffs[aliased] == 0)
        assert np.all(f.coeffs[~aliased] != 0)


@pytest.mark.parametrize("p,n", [(2, 12), (3, 7)])
def test_to_fourier_keeps_every_mode_to_rounding(p, n):
    # the sine of the alias fold is taken at min(r, p^n - r); at r near p^n
    # the plain sin(pi r / p^n) puts these modes up to 3e-13 off
    dec = ci.MultiscaleDecomposition(R=1.0, p=p, n_max=n)
    pn = p**n
    values = np.zeros(pn)
    values[0] = 1.0
    f = to_fourier(ci.PiecewiseConstantFn(dec, n, values), 4 * pn + 3)
    k = ks(f)
    near = np.abs(k) < pn // 2
    ref = np.exp(-1j * np.pi * k[near] / pn) * np.sinc(k[near] / pn) / pn
    assert np.max(np.abs(f.coeffs[near] - ref) / np.abs(ref)) <= 1e-14


def test_to_fourier_roundtrip():
    rng = np.random.default_rng(13)
    h = ci.PiecewiseConstantFn(D, 3, rng.standard_normal(8))
    g = to_fourier(h, 3000)
    # high cutoff recovers the L2 norm and the cell averages
    assert ci.sobolev_norms(g, 0)[0] == pytest.approx(cells_l2_norm(h), rel=1e-3)
    np.testing.assert_allclose(np.real(ci.cell_averages(D, g, 3)), h.values, atol=5e-3)
    # integral is exact at any cutoff (k = 0 coefficient)
    assert mode(to_fourier(h, 2), 0) * 2 * math.pi == pytest.approx(D.cell_measure(3) * h.values.sum())


def test_ar_norm_basics():
    c = ci.FourierFn.from_modes(1.0, {0: 3.0})
    assert ci.ar_norm(D, c, 0.3) == pytest.approx(3 * math.sqrt(2 * math.pi), rel=1e-14)
    # a constant is in V_0: the series stops after its first level, with no tail
    rep = ci.ar_norm_report(D, c, 0.33904)
    assert rep.levels_used == 1 and rep.tail_sq_estimate == 0.0
    # monotone in r
    g = ci.FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5, 3: 0.2, -3: 0.2})
    assert ci.ar_norm(D, g, 0.45) >= ci.ar_norm(D, g, 0.2)
    with pytest.raises(ExponentOrderViolated):
        ci.ar_norm(D, g, 0.7)


def test_ar_vs_fourier_sobolev_equivalence():
    # record boundedness both ways on a small corpus at r = 0.33904
    r = 0.33904
    corpus = [
        ci.FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5}),
        ci.FourierFn.from_modes(1.0, {2: 1.0, -2: 1.0, 5: 0.3, -5: 0.3}),
        ci.FourierFn.from_modes(1.0, {0: 1.0, 7: 0.1, -7: 0.1}),
    ]
    ratios = [ci.ar_norm(D, g, r) / ci.sobolev_norms(g, r)[0] for g in corpus]
    for q in ratios:
        assert 0.2 < q < 5.0


def test_projector_error_bound_cos():
    g = ci.FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5})
    prev = None
    for N in range(2, 11):
        lhs, rhs = ci.projector_error_check(D, g, N, 0.33904, 0.42)
        assert lhs <= rhs
        # decays at least like 2^{-0.081 N}
        if prev is not None:
            assert lhs <= prev * 2 ** -0.08096 + 1e-12
        prev = lhs
    with pytest.raises(ExponentOrderViolated):
        ci.projector_error_check(D, g, 3, 0.42, 0.33904)


def test_sobolev_norm_and_duality():
    g = ci.FourierFn.from_modes(2.0, {3: 1.0})
    h12, l2 = ci.sobolev_norms(g, 0.5, 0)
    assert h12**2 == pytest.approx(2 * math.pi * 2 * 10**0.5)
    assert l2 == pytest.approx(math.sqrt(2 * math.pi * 2))
    rng = np.random.default_rng(21)
    for _ in range(5):
        h = ci.FourierFn(1.0, rng.standard_normal(17) + 1j * rng.standard_normal(17))
        u = ci.FourierFn(1.0, rng.standard_normal(17) + 1j * rng.standard_normal(17))
        lhs = abs(2 * math.pi * h.R * (h.coeffs @ np.conj(u.coeffs)))
        assert lhs <= ci.sobolev_norms(h, -0.5)[0] * ci.sobolev_norms(u, 0.5)[0] + 1e-12
    with pytest.raises(ValueError):
        ci.sobolev_norms(g, 0.5, 1.5)


@pytest.mark.parametrize("p,n", [(2, 9), (3, 5)])
def test_sobolev_norms_match_the_whole_array_oracle(p, n):
    # the norms of cell modes and of a FourierFn, summed a block at a time
    # over several blocks, against one sum over each whole array of modes
    rng = np.random.default_rng(p)
    dec = ci.MultiscaleDecomposition(R=1.3, p=p, n_max=n)
    cells = ci.PiecewiseConstantFn(dec, n, rng.standard_normal(p**n) + 1j * rng.standard_normal(p**n))
    M = 16 * p**n
    fourier = ci.FourierFn(1.3, rng.standard_normal(41) + 1j * rng.standard_normal(41))
    whole = to_fourier(cells, M)
    assert len(list(ci.mode_blocks(M, 1))) > 1
    orders = (0, 0.5, -0.5, 1)
    for modes, oracle in [(ci.CellModes(cells, M), whole), (fourier, fourier)]:
        got = ci.sobolev_norms(modes, *orders)
        assert got == pytest.approx([sobolev_norm(oracle, s) for s in orders], rel=1e-13, abs=0)


@pytest.mark.parametrize("p,N", [(1, 2), (2, 0), (2, 6), (3, 4), (2, 9)])
def test_alias_classes_derive_from_a_larger_cutoff(p, N):
    # the classes of a cutoff M are those of a larger cutoff M0 on the same
    # cells shifted by M0 - M (columns rotated) when their rows are as wide;
    # a cutoff with narrower rows has the rows r = (j - M) mod pn of its own
    # width.  Each fold builds them afresh, so folds of the same modes at
    # two cutoffs agree on the classes they share.  The blocks of a fold
    # are whole rows covering -M..M, and their reciprocals are 1/k
    pn = p**N
    r0, sine0 = ci._alias_classes(16 * pn, pn)
    for M in (16 * pn, 16 * pn - 1, 16 * pn - 5, pn + 3, 2, 0):
        r, sine = ci._alias_classes(M, pn)
        width = min(pn, 2 * M + 1)
        assert r.shape == sine.shape == (width,), M
        assert np.array_equal(r, (np.arange(width) - M) % pn), M
        assert np.array_equal(sine, pn * np.sin(np.pi * np.minimum(r, pn - r) / pn) / np.pi), M
        if width == r0.size:
            turn = (16 * pn - M) % width
            assert np.array_equal(r, np.roll(r0, -turn)), M
            assert np.array_equal(sine, np.roll(sine0, -turn)), M
        blocks = list(ci.mode_blocks(M, pn))
        assert blocks[0][0] == -M and blocks[-1][1] == M + 1, M
        assert all(hi == lo2 for (_, hi), (lo2, _) in zip(blocks, blocks[1:])), M
        assert all((lo + M) % width == 0 and hi - lo >= min(ci.BLOCK_MODES, 2 * M + 1 - (lo + M))
                   for lo, hi in blocks), M
        ks = np.arange(-M, M + 1, dtype=float)
        ks[M] = np.inf
        inv = np.concatenate([ci._reciprocals(lo, hi) for lo, hi in blocks])
        assert inv.tobytes() == (1.0 / ks).tobytes(), M


@pytest.mark.parametrize("p,N", [(2, 3), (3, 4), (2, 9)])
def test_a_fold_takes_whole_rows_until_its_last_add(p, N):
    # any split of the modes into whole rows, the last row unfinished and
    # padded with zeros, gives the bits of the fold of mode_blocks' blocks;
    # an add after an unfinished row raises instead of dropping it
    pn, M = p**N, 16 * p**N
    rng = np.random.default_rng(pn)
    x = rng.standard_normal(2 * M + 1) + 1j * rng.standard_normal(2 * M + 1)
    expected = ci._folded(lambda lo, hi: x[lo + M : hi + M], M, pn).folded()
    for rows in (1, 3, 7):
        fold = ci.Fold(M, pn)
        for lo in range(0, x.size, rows * pn):
            fold.add(x[lo : lo + rows * pn])
        assert fold.folded().tobytes() == expected.tobytes(), rows
    fold = ci.Fold(M, pn)
    fold.add(x[: pn + 1])
    with pytest.raises(ValueError):
        fold.add(x[pn + 1 :])


