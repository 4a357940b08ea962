import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from oracles import eval_mode, ks, mode, padded, trace0, trace1, whole
from treedisk.circle import CellModes, FourierFn, MultiscaleDecomposition, PiecewiseConstantFn, mode_blocks
from treedisk.errors import CutoffTooSmall, ScaleEqualsRadius
from treedisk.exterior import (
    MODE_OVERSAMPLING,
    RadialSource,
    _source_integral,
    bie_dtn_crosscheck,
    circulant_view,
    dtn_galerkin,
    dtn_symbol,
    layer_symbols,
    single_layer_quadrature,
    solve_exterior_dirichlet,
)

R = 1.0
R_SCALE = 2.0


def test_symbol_values_and_symmetry():
    dtn = dtn_symbol(R, 8)
    single, double_t, hyper = layer_symbols(R, R_SCALE, 8)
    assert dtn.coeff(0) == 0.0
    assert dtn.coeff(3) == pytest.approx(-3.0)
    assert single.coeff(2) == pytest.approx(0.25)
    assert single.coeff(0) == pytest.approx(math.log(2.0))
    assert double_t.coeff(0) == -1.0 and double_t.coeff(5) == 0.0
    assert hyper.coeff(4) == pytest.approx(2.0)
    for sym in (dtn, single, double_t, hyper):
        values = sym.block(-8, 9)
        assert np.array_equal(values, values[::-1])


def test_symbols_form_any_block_from_their_closed_form():
    # a symbol holds no values, so a cutoff of 10^11 modes is no allocation:
    # a block reads the closed form, zero beyond the cutoff
    M = 10**11
    dtn = dtn_symbol(R, M)
    assert dtn.block(M - 2, M + 2).tolist() == [-(M - 2.0), -(M - 1.0), -float(M), 0.0]
    assert dtn.block(-M - 1, -M + 1).tolist() == [0.0, -float(M)]
    assert dtn.coeff(M + 1) == 0.0
    single, double_t, hyper = layer_symbols(R, R_SCALE, M)
    assert single.block(M, M + 2).tolist() == [R / (2.0 * M), 0.0]
    assert double_t.block(-1, 2).tolist() == [0.0, -1.0, 0.0]
    assert hyper.block(M, M + 1)[0] == pytest.approx(M / (2.0 * R))


def test_scale_equal_radius_rejected():
    with pytest.raises(ScaleEqualsRadius):
        layer_symbols(R, R, 4)
    with pytest.raises(ScaleEqualsRadius):
        single_layer_quadrature(R, R, 2)


def test_dtn_symbol_coercive_off_constants():
    sym = dtn_symbol(R, 64)
    for k in range(1, 65):
        assert -sym.coeff(k) >= math.sqrt(1.0 + k * k) / (R * math.sqrt(2.0))


def test_single_layer_quadrature_oracle():
    single, _, _ = layer_symbols(R, R_SCALE, 8)
    for k in range(0, 9):
        err = abs(single_layer_quadrature(R, R_SCALE, k) - single.coeff(k))
        assert err <= 1e-6
        assert err <= 1e-12


def test_boundary_equation_crosscheck():
    assert bie_dtn_crosscheck(R, R_SCALE, 64) <= 1e-12
    assert bie_dtn_crosscheck(R, 3.0, 64) == pytest.approx(bie_dtn_crosscheck(R, R_SCALE, 64))
    # mode 0 documents the radiation-class gap: S_0 * 0 + (1 - T_0)/2 = 1
    single, double_t, _ = layer_symbols(R, R_SCALE, 4)
    dtn = dtn_symbol(R, 4)
    assert single.coeff(0) * dtn.coeff(0) + 0.5 * (1.0 - double_t.coeff(0)) == pytest.approx(1.0)


def test_hypersingular_matches_dtn_and_double_layer():
    single, double_t, hyper = layer_symbols(R, R_SCALE, 32)
    dtn = dtn_symbol(R, 32)
    for k in range(1, 33):
        # R_k = -dtn_k (1 + T*_k)/2 for k != 0
        assert hyper.coeff(k) == pytest.approx(-0.5 * dtn.coeff(k) * (1.0 + double_t.coeff(k)))


def test_harmonic_extension_and_gamma1():
    g = FourierFn.from_modes(R, {2: 1.0, -1: 0.5})
    u = solve_exterior_dirichlet(g, None)
    assert eval_mode(u, 2, 2.0) == pytest.approx(0.25)
    assert eval_mode(u, -1, 4.0) == pytest.approx(0.125)
    t1 = trace1(u)
    assert mode(t1, 2) == pytest.approx(-2.0)
    assert mode(t1, -1) == pytest.approx(-0.5)
    # traces reproduce the data
    t0 = trace0(u)
    assert mode(t0, 2) == pytest.approx(1.0) and mode(t0, -1) == pytest.approx(0.5)


def test_constant_data_is_constant_field():
    g = FourierFn.from_modes(R, {0: 2.5})
    u = solve_exterior_dirichlet(g, None)
    assert eval_mode(u, 0, 7.0) == pytest.approx(2.5)
    assert abs(mode(trace1(u), 0)) == 0.0


def _bump_source(k, r_max):
    # f = Laplace of (R/r)^|k| (1 - chi), chi the cubic smoothstep on [R, r_max]
    a = abs(k)
    d = r_max - R
    chi_p = {0: -6 * R / d**2 - 6 * R**2 / d**3, 1: 6 / d**2 + 12 * R / d**3, 2: -6 / d**3}
    chi_pp = {0: 6 / d**2 + 12 * R / d**3, 1: -12 / d**3}
    prof = {}
    for m, c in chi_pp.items():
        prof[m - a] = prof.get(m - a, 0.0) - c * R**a
    for m, c in chi_p.items():
        prof[m - a - 1] = prof.get(m - a - 1, 0.0) - (1 - 2 * a) * c * R**a
    return RadialSource(R, r_max, [(k, prof)])


def _bump_exact(k, r, r_max):
    t = np.clip((np.asarray(r, float) - R) / (r_max - R), 0.0, 1.0)
    chi = t**2 * (3.0 - 2.0 * t)
    return (R / np.asarray(r, float)) ** abs(k) * (1.0 - chi)


def test_manufactured_bump_recovery():
    r_max = 2.0
    radii = np.array([1.0, 1.2, 1.5, 1.9, 2.0, 2.7, 5.0])
    for k in (0, 1, 3):
        src = _bump_source(k, r_max)
        g = FourierFn.from_modes(R, {k: 1.0})
        u = solve_exterior_dirichlet(g, src)
        got = np.array([eval_mode(u, k, r) for r in radii])
        assert np.abs(got - _bump_exact(k, radii, r_max)).max() <= 1e-8
        # support ends at r_max: field vanishes outside
        assert abs(eval_mode(u, k, 10.0)) <= 1e-12


def test_field_superposition():
    src = _bump_source(2, 2.0)
    g1 = FourierFn.from_modes(R, {2: 1.0})
    g2 = FourierFn.from_modes(R, {1: 0.5, 0: 1.0})
    u1, u2 = solve_exterior_dirichlet(g1, src), solve_exterior_dirichlet(g2, None)
    v = solve_exterior_dirichlet(FourierFn.from_modes(R, {2: 1.0, 1: 0.5, 0: 1.0}), src)
    for k in (0, 1, 2):
        assert eval_mode(u1, k, 1.8) + eval_mode(u2, k, 1.8) == pytest.approx(eval_mode(v, k, 1.8), abs=1e-13)


@pytest.mark.parametrize("radius", [1.0, 1.3])
def test_lift_hands_over_the_source_modes(radius):
    # b_k of a source mode does not depend on g: reusing the zero-trace
    # solve's gives the same field bit for bit, the mean mode included
    src = RadialSource(R=radius, r_max=2.0 * radius,
                       terms=[(0, {0: 0.4}), (2, {1: 1.0, -1: 0.5j}), (-2, {1: 1.0, -1: -0.5j})])
    lift = solve_exterior_dirichlet(None, src)
    for g in (FourierFn.from_modes(radius, {0: 0.5, 1: 1.0, -3: 0.25j}),
              FourierFn.from_modes(radius, {3: 1.0, -3: 1.0})):
        u = solve_exterior_dirichlet(g, src, lift=lift)
        fresh = solve_exterior_dirichlet(g, src)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(whole(u), whole(fresh)))
    other = RadialSource(R=radius, r_max=2.0 * radius, terms=[(1, {0: 1.0})])
    with pytest.raises(ValueError):
        solve_exterior_dirichlet(g, other, lift=lift)


def _oracle_modes(g, source, R):
    """Per-mode solve into a dict k -> (a_k, b_k), over the source modes and the
    modes with nonzero data, kept as the oracle of the array solve."""
    modes_k = set(source.modes()) if source is not None else set()
    if g is not None:
        modes_k |= {int(k) for k in ks(g) if mode(g, int(k)) != 0}
    modes = {}
    for k in sorted(modes_k):
        ghat = complex(mode(g, k)) if g is not None else 0.0
        ak = abs(k)
        if ak > 0:
            i_minus = _source_integral(source, k, 1.0 - ak, np.inf, scale=R) if source else 0.0
            b_c = -R * i_minus / (2.0 * ak)
            modes[k] = (ghat - b_c, b_c)
        else:
            i_a = _source_integral(source, k, 1.0, np.inf) if source else 0.0
            modes[k] = (ghat + i_a * math.log(R), -i_a)
    return modes


def _oracle_add(u, v):
    out = dict(u)
    for k, (a_c, b_c) in v.items():
        a0, b0 = out.get(k, (0.0, 0.0))
        out[k] = (a0 + a_c, b0 + b_c)
    return out


def _oracle_traces(modes, R):
    m = max((abs(k) for k in modes), default=0)
    t0 = np.zeros(2 * m + 1, dtype=complex)
    t1 = np.zeros(2 * m + 1, dtype=complex)
    for k, (a_c, b_c) in modes.items():
        if k == 0:
            t0[m], t1[m] = a_c + b_c * math.log(R), b_c / R
        else:
            t0[k + m], t1[k + m] = a_c + b_c, abs(k) * (b_c - a_c) / R
    return t0, t1


# the ids name the radiation class the field is solved in, the bounded one
@pytest.mark.parametrize("radius", [1.0, 0.5, 2.0], ids=lambda r: "%r-bounded" % r)
def test_array_field_matches_per_mode_oracle(radius):
    rng = np.random.default_rng(7)
    src = RadialSource(radius, 1.7 * radius, [(k, {0: 0.4 - 0.2j, -2: 1.1}) for k in (-9, 0, 2, 3)])
    # data of degree 6 padded with zeros to 40 modes: the field's extent is
    # set by the source mode 9, not by the padding
    g = padded(FourierFn(radius, rng.standard_normal(13) + 1j * rng.standard_normal(13)), 40)
    g2 = FourierFn.from_modes(radius, {1: 0.3, -4: 2.0 - 1j, 0: 0.8})
    fields = [solve_exterior_dirichlet(g, src),
              solve_exterior_dirichlet(g2, None),
              solve_exterior_dirichlet(None, src, R=radius)]
    modes = _oracle_add(_oracle_add(_oracle_modes(g, src, radius),
                                    _oracle_modes(g2, None, radius)),
                        _oracle_modes(None, src, radius))
    t0, t1 = _oracle_traces(modes, radius)
    M = max(u.M for u in fields)
    got0 = sum(padded(trace0(u), M).coeffs for u in fields)
    got1 = sum(padded(trace1(u), M).coeffs for u in fields)
    assert got0.shape == t0.shape == (19,)
    assert np.abs(got0 - t0).max() <= 1e-14 * np.abs(t0).max()
    assert np.abs(got1 - t1).max() <= 1e-14 * np.abs(t1).max()
    for k in range(-10, 11):
        coeffs = np.sum([np.concatenate(u.block(k, k + 1)) for u in fields], axis=0)
        assert np.allclose(coeffs, modes.get(k, (0.0, 0.0)), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("radius", [1.0, 1.3])
@pytest.mark.parametrize("with_source", [False, True], ids=["data", "data-and-source"])
def test_eval_is_the_sum_of_every_mode(radius, with_source):
    # eval sums the modes a block at a time, a (points x modes) product per
    # block and per _EVAL_POINTS points; the per-mode oracle summed over
    # every |k| <= M in the order of k agrees to rounding.  The field's
    # modes |k| < 16 * 2^8 are two blocks (the mode 16 * 2^8 is an aliased
    # zero), and the 2 x 70 points of a broadcast grid are three chunks
    rng = np.random.default_rng(7)
    cells = PiecewiseConstantFn(MultiscaleDecomposition(R=radius, p=2, n_max=8), 8,
                                rng.standard_normal(256) + 1j * rng.standard_normal(256))
    src = None
    if with_source:
        src = RadialSource(radius, 1.5 * radius, [(k, {0: 0.4 - 0.2j, -1: 1.1}) for k in (-3, 0, 2)])
    u = solve_exterior_dirichlet(CellModes(cells, 16 * 2**8), src)
    assert u.M == 16 * 2**8 - 1 and len(list(mode_blocks(u.M, 1))) == 2
    r = radius * np.array([[1.0], [1.6]]) + np.zeros(70)
    r[0] += radius * np.linspace(0.0, 0.15, 70)
    theta = np.linspace(0.0, 6.0, 70)
    grid = u.eval(r, theta)
    assert grid.shape == (2, 70)
    points = np.broadcast_to(theta, r.shape).ravel()
    expected = np.zeros(r.size, dtype=complex)
    for k in range(-u.M, u.M + 1):
        expected = expected + np.asarray(eval_mode(u, k, r.ravel())) * np.exp(1j * k * points)
    assert np.abs(grid.ravel() - expected).max() <= 1e-13 * np.abs(expected).max()
    one = u.eval(r[1, 3], theta[3])
    assert one.shape == () and one == pytest.approx(grid[1, 3], rel=1e-14)


def test_eval_is_finite_where_the_growing_power_overflows():
    # (r / R)^|k| overflows at r = 2 R for |k| > 1024, and the field's modes
    # run to |k| = 4095; a mode without a growing part (b_k = 0) must not
    # form it, or 0 * inf turns eval into NaN with a RuntimeWarning
    rng = np.random.default_rng(7)
    cells = PiecewiseConstantFn(MultiscaleDecomposition(R=1.0, p=2, n_max=8), 8,
                                rng.standard_normal(256))
    src = RadialSource(1.0, 1.5, [(k, {0: 1.0}) for k in (-1, 1)])
    u = solve_exterior_dirichlet(CellModes(cells, 16 * 2**8), src)
    r = np.array([1.0, 1.02, 1.1, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = u.eval(r, 0.3)
    assert np.isfinite(values).all()
    # at r = 2 the modes |k| > 64 add less than 2^-64 of the data's size
    low = sum(eval_mode(u, k, 2.0) * np.exp(0.3j * k) for k in range(-64, 65))
    assert values[-1] == pytest.approx(low, rel=1e-14, abs=1e-14)


def test_radial_source_validation():
    with pytest.raises(ValueError):
        RadialSource(2.0, 1.0, [])
    src = RadialSource(1.0, 2.0, [(1, {0: 1.0}), (1, {0: 2.0}), (-1, {0: 3.0})])
    assert src.modes() == [-1, 1]
    assert src.profile_value(1, 1.5) == pytest.approx(3.0)
    assert src.profile_value(1, 2.5) == 0.0


def test_eval_inside_disk_rejected():
    u = solve_exterior_dirichlet(FourierFn.from_modes(R, {1: 1.0}), None)
    with pytest.raises(ValueError):
        u.eval(np.array([1.0, 0.5]), 0.0)


def test_galerkin_dtn_structure():
    dec = MultiscaleDecomposition(R=R, p=2, n_max=10)
    zero = dtn_galerkin(dec, 0, dtn_symbol(R, MODE_OVERSAMPLING))
    assert zero.shape == (1, 1) and zero[0, 0] == 0.0
    two = dtn_galerkin(dec, 1, dtn_symbol(R, 2 * MODE_OVERSAMPLING))
    assert two[0, 0] < 0.0
    assert two[0, 0] == pytest.approx(two[1, 1]) and two[0, 1] == pytest.approx(two[1, 0])
    assert two[0, 1] == pytest.approx(-two[0, 0])
    A = dtn_galerkin(dec, 3, dtn_symbol(R, MODE_OVERSAMPLING * 8))
    assert np.abs(A - A.T).max() <= 1e-10
    assert np.abs(A @ np.ones(8)).max() <= 1e-10
    assert np.linalg.eigvalsh(0.5 * (A + A.T)).max() <= 1e-10


def test_galerkin_other_symbols():
    dec = MultiscaleDecomposition(R=R, p=2, n_max=10)
    n, pn = 2, 4
    single, double_t, hyper = layer_symbols(R, R_SCALE, MODE_OVERSAMPLING * pn)
    S = dtn_galerkin(dec, n, single)
    assert np.linalg.eigvalsh(0.5 * (S + S.T)).min() > 0.0
    H = dtn_galerkin(dec, n, hyper)
    ev = np.linalg.eigvalsh(0.5 * (H + H.T))
    assert ev.min() >= -1e-12 and np.abs(H @ np.ones(pn)).max() <= 1e-12
    T = dtn_galerkin(dec, n, double_t)
    assert np.abs(T - T[0, 0]).max() <= 1e-14
    assert T[0, 0] == pytest.approx(-2.0 * math.pi * R / pn**2)


def test_galerkin_entries_converge_for_single_layer():
    dec = MultiscaleDecomposition(R=R, p=2, n_max=10)
    changes = []
    for M in (64, 128, 256):
        a = dtn_galerkin(dec, 2, layer_symbols(R, R_SCALE, M)[0])
        b = dtn_galerkin(dec, 2, layer_symbols(R, R_SCALE, 2 * M)[0])
        changes.append(np.abs(a - b).max())
    assert changes[0] < 1e-4
    # tail is Theta(M^{-2}): each doubling cuts the change by about 4
    assert changes[2] < changes[1] < changes[0]
    assert changes[1] / changes[0] == pytest.approx(0.25, abs=0.1)


def test_galerkin_warns_on_small_cutoff():
    dec = MultiscaleDecomposition(R=R, p=2, n_max=10)
    with pytest.warns(CutoffTooSmall):
        dtn_galerkin(dec, 3, dtn_symbol(R, 16))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 27])
def test_circulant_matches_scipy(n):
    rng = np.random.default_rng(n)
    row = rng.standard_normal(n)
    assert np.array_equal(circulant_view(row), scipy.linalg.circulant(row))
