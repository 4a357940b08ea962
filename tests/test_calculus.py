"""Edgewise polynomial calculus, solves and integral identities."""

import math

import numpy as np
import pytest

from treedisk import calculus as ca
from treedisk.errors import NotGeometric
from treedisk.tree import TreeParams, build_condensed, build_truncated

REF = TreeParams(p=2, ell=0.5, omega=0.4)
INTERVAL = TreeParams(p=1, ell=0.5, omega=1.0)


def random_polynomial(tree, rng, degree=2, complex_=False):
    shape = lambda n: (tree.p**n, degree + 1)
    cs = [rng.standard_normal(shape(n)) for n in range(tree.depth + 1)]
    if complex_:
        cs = [c + 1j * rng.standard_normal(c.shape) for c in cs]
    return ca.TreeFunction(tree, cs)


def random_continuous(tree, rng, degree=2):
    # random polynomial data with constants adjusted for vertex continuity
    f = random_polynomial(tree, rng, degree)
    for n in range(1, tree.depth + 1):
        parent_end = f.end_values(n - 1)
        f.coeffs[n][:, 0] = parent_end[np.arange(tree.p**n) // tree.p]
    return f


def test_constant_measure():
    T = build_truncated(REF, 6)
    one = ca.constant_function(T, 1.0)
    assert ca.l2_norm(one) ** 2 == pytest.approx(T.total_measure(), rel=1e-14)
    assert ca.h1_seminorm(one) == 0.0


def test_eval_and_vertex_values():
    T = build_truncated(REF, 2)
    f = ca.from_vertex_values(T, 1.0, [np.array([2.0]), np.array([3.0, 0.0]), np.array([4.0, 2.0, 1.0, -1.0])])
    assert f.root_value == 1.0
    assert f.eval_edge(0, 0, 0.5) == pytest.approx(1.5)
    assert f.continuity_defect() == 0.0
    np.testing.assert_allclose(f.leaf_values(), [4.0, 2.0, 1.0, -1.0])


def test_interval_poisson():
    # u'' = 1 on [0, 1], u(0) = u(1) = 0  ->  u = (x^2 - x)/2
    T = build_truncated(INTERVAL, 0)
    u = ca.solve_poisson_zero_trace(T, ca.constant_function(T, 1.0))
    np.testing.assert_allclose(u.coeffs[0], [[0.0, -0.5, 0.5]], atol=1e-15)
    assert ca.l2_norm(u) == pytest.approx(math.sqrt(1.0 / 120.0), rel=1e-12)


def test_interval_harmonic_chain():
    # three edges 1, 1/2, 1/4: linear ramp 0 -> 1, slope 1/total length
    T = build_truncated(INTERVAL, 2)
    u = ca.solve_harmonic_dirichlet(T, np.array([1.0]))
    for n in range(3):
        assert u.coeffs[n][0, 1] == pytest.approx(1 / 1.75)
    assert ca.h1_seminorm(u) ** 2 == pytest.approx(1 / 1.75)


def test_radial_flux_reference():
    f, rec = ca.radial_harmonic(REF, N=4, boundary_value=1.0, condensed=True)
    assert rec.flux == pytest.approx(0.375, abs=1e-15)
    np.testing.assert_allclose(f.leaf_values(), 1.0)
    assert ca.kirchhoff_residual(f).relative < 1e-14
    # truncated flux exceeds the infinite-tree value and converges to it
    prev = None
    for N in range(2, 12):
        _, rt = ca.radial_harmonic(REF, N=N, boundary_value=1.0, condensed=False)
        expect = (1 - 0.625) / (1 - 0.625 ** (N + 1))
        assert rt.flux == pytest.approx(expect, rel=1e-13)
        assert rt.flux > 0.375
        if prev is not None:
            assert rt.flux < prev
        prev = rt.flux


def test_radial_needs_geometric():
    P = TreeParams(p=2, ell=0.5, omega=0.4, N1=1, length_overrides={(0, 0): 1.5})
    with pytest.raises(NotGeometric):
        ca.radial_harmonic(P, 3)


def test_harmonic_matches_radial():
    T = build_condensed(REF, 4)
    f, _ = ca.radial_harmonic(REF, N=4, condensed=True)
    u = ca.solve_harmonic_dirichlet(T, np.ones(T.n_leaves))
    d = u - f
    assert max(float(np.abs(c).max()) for c in d.coeffs) < 1e-13


def test_harmonic_energy_orthogonality():
    # E(f) splits: harmonic part with f's traces plus zero-trace remainder
    rng = np.random.default_rng(7)
    T = build_condensed(REF, 3)
    f = random_continuous(T, rng, degree=3)
    h = ca.solve_harmonic_dirichlet(T, f.leaf_values(), root_value=f.root_value)
    f0 = f - h
    assert abs(f0.root_value) < 1e-12
    assert np.abs(f0.leaf_values()).max() < 1e-12
    cross = ca.h1_inner(f0, h)
    assert abs(cross) < 1e-11 * ca.h1_seminorm(f) ** 2
    lhs = ca.h1_seminorm(f) ** 2
    rhs = ca.h1_seminorm(f0) ** 2 + ca.h1_seminorm(h) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_poisson_solves_laplacian():
    rng = np.random.default_rng(3)
    T = build_condensed(REF, 3)
    for trial in range(3):
        s = random_polynomial(T, rng, degree=2, complex_=(trial == 2))
        u = ca.solve_poisson_zero_trace(T, s)
        lap, kres = ca.laplacian(u)
        d = lap - s
        assert max(float(np.abs(c).max()) for c in d.coeffs) < 1e-12
        assert kres.relative < 1e-12
        assert u.continuity_defect() < 1e-13
        assert abs(u.root_value) < 1e-14
        assert np.abs(u.leaf_values()).max() < 1e-13


def test_complex_harmonic():
    T = build_truncated(REF, 3)
    rng = np.random.default_rng(11)
    g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    u = ca.solve_harmonic_dirichlet(T, g, root_value=0.5j)
    assert ca.kirchhoff_residual(u).relative < 1e-13
    np.testing.assert_allclose(u.leaf_values(), g, atol=1e-14)
    assert u.root_value == 0.5j


def test_green_identity_random_pairs():
    rng = np.random.default_rng(19)
    T = build_condensed(REF, 3)
    for _ in range(10):
        s = random_polynomial(T, rng, degree=2)
        u = ca.solve_poisson_zero_trace(T, s) + ca.solve_harmonic_dirichlet(
            T, rng.standard_normal(T.n_leaves), root_value=rng.standard_normal()
        )
        v = ca.solve_poisson_zero_trace(T, random_polynomial(T, rng, degree=1))
        rep = ca.green_identity_check(u, v)
        assert rep.relative < 1e-12


def test_green_identity_quadrature_oracle():
    # independent check of the volume terms by Gauss-Legendre quadrature
    rng = np.random.default_rng(23)
    T = build_truncated(REF, 2)
    s = random_polynomial(T, rng, degree=2)
    u = ca.solve_poisson_zero_trace(T, s)
    v = ca.solve_harmonic_dirichlet(T, rng.standard_normal(4), root_value=0.0)
    x64, w64 = np.polynomial.legendre.leggauss(12)
    lap, _ = ca.laplacian(u)
    du, dv = u.derivative(), v.derivative()
    bulk = grad = 0.0
    for n in range(T.depth + 1):
        for k in range(T.p**n):
            ell, w = T.lengths[n][k], T.weights[n][k]
            xs = 0.5 * ell * (x64 + 1)
            ws = 0.5 * ell * w64
            bulk += w * (ws * lap.eval_edge(n, k, xs) * v.eval_edge(n, k, xs)).sum()
            grad += w * (ws * du.eval_edge(n, k, xs) * dv.eval_edge(n, k, xs)).sum()
    pairing = (ca.leaf_flux(u) * v.leaf_values()).sum()
    assert pairing == pytest.approx(bulk + grad, rel=1e-12)
    rep = ca.green_identity_check(u, v)
    assert rep.defect == pytest.approx(abs(pairing - bulk - grad), abs=1e-12)


def test_green_identity_rejects_nonzero_root():
    T = build_truncated(REF, 1)
    u = ca.constant_function(T, 1.0)
    v = ca.constant_function(T, 1.0)
    with pytest.raises(ValueError):
        ca.green_identity_check(u, v)


def test_leaf_flux_radial():
    f, rec = ca.radial_harmonic(REF, N=3, condensed=True)
    flux = ca.leaf_flux(f)
    # per-leaf share of the total current
    np.testing.assert_allclose(flux.sum(), rec.flux, rtol=1e-13)
    np.testing.assert_allclose(flux, rec.flux / 16)


def test_poincare_interval():
    # exact constant on a root-clamped interval of length L is 2L/pi
    T = build_truncated(INTERVAL, 0)
    assert ca.poincare_constant(T) == pytest.approx(2 / math.pi, rel=2e-2)
    T2 = build_truncated(INTERVAL, 4)
    L = T2.total_length()
    assert ca.poincare_constant(T2) == pytest.approx(2 * L / math.pi, rel=2e-2)


def test_poincare_brackets_limit():
    # truncated constants increase, condensed decrease; they pinch the
    # infinite-tree value near 1.095
    cond = [ca.poincare_constant(build_condensed(REF, N)) for N in range(1, 7)]
    trunc = [ca.poincare_constant(build_truncated(REF, N)) for N in range(1, 7)]
    for a, b in zip(cond, cond[1:]):
        assert b <= a + 1e-12
    for a, b in zip(trunc, trunc[1:]):
        assert b >= a - 1e-12
    for c, t in zip(cond, trunc):
        assert t < c
    assert cond[-1] - trunc[-1] < 0.004
    assert cond[-1] == pytest.approx(1.09579, abs=2e-4)
