"""Edgewise polynomial calculus, solves and integral identities."""

import math

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    combined,
    constant_function,
    from_vertex_values,
    kirchhoff_residual,
    l2_inner,
    total_length,
    total_measure,
)
from treedisk import calculus as ca
from treedisk.tree import TreeParams, build_condensed, build_truncated

REF = TreeParams(p=2, ell=0.5, omega=0.4)
INTERVAL = TreeParams(p=1, ell=0.5, omega=1.0)


def l2_norm(f):
    return math.sqrt(max(float(np.real(l2_inner(f, f))), 0.0))


def h1_inner(f, g):
    return l2_inner(f.derivative(), g.derivative())


def h1_seminorm(f):
    return l2_norm(f.derivative())


def eval_edge(f, n, k, x):
    """Edge (n, k) of f at the local coordinates x, by Horner."""
    c = f.coeffs[n][k]
    val = np.zeros_like(np.asarray(x, dtype=np.result_type(c.dtype, float)))
    for j in range(c.shape[0] - 1, -1, -1):
        val = val * x + c[j]
    return val


def continuity_defect(f):
    """Max jump across interior vertices (roots excluded: no constraint at o)."""
    worst = 0.0
    for n in range(f.tree.depth):
        parents = ca._parent_rows(f.end_values(n), f.tree.p, f.tree.merged(n + 1))
        jump = np.abs(f.coeffs[n + 1][:, 0] - parents)
        if jump.size:
            worst = max(worst, float(jump.max()))
    return worst


def radial_harmonic(params, N, boundary_value=1.0, condensed=True):
    """(f, flux): the closed-form harmonic function of a geometric tree that
    depends on the generation only, and its flux through the root.

    Flux conservation across generations forces the edge slope s_n =
    s_0 / (p omega)^n; the root-to-boundary drop is the geometric series
    L0 sum r^n with r = ell/(p omega).  On the condensed tree the stretched
    leaf edge restores the full series, so the flux constant equals the
    infinite-tree value F = omega0 * (1 - r) * boundary_value / L0.
    """
    r = params.r
    pw = params.p * params.omega
    if condensed:
        tree = build_condensed(params, N)
        s0 = boundary_value * (1.0 - r) / params.L0
    else:
        tree = build_truncated(params, N)
        s0 = boundary_value * (1.0 - r) / (params.L0 * (1.0 - r ** (N + 1)))
    gens = tree.depth + 1
    slopes = s0 / pw ** np.arange(gens)
    vals = s0 * params.L0 * (1.0 - r ** (np.arange(gens) + 1)) / (1.0 - r)
    vals[-1] = boundary_value
    coeffs = []
    for n in range(tree.depth + 1):
        c = np.zeros((tree.p**n, 2))
        c[:, 0] = vals[n - 1] if n > 0 else 0.0
        c[:, 1] = slopes[n]
        coeffs.append(c)
    return ca.TreeFunction(tree, coeffs), float(params.omega0 * s0)


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
    one = constant_function(T, 1.0)
    assert l2_norm(one) ** 2 == pytest.approx(total_measure(T), rel=1e-14)
    assert h1_seminorm(one) == 0.0


def test_eval_and_vertex_values():
    T = build_truncated(REF, 2)
    f = from_vertex_values(T, 1.0, [np.array([2.0]), np.array([3.0, 0.0]), np.array([4.0, 2.0, 1.0, -1.0])])
    assert f.root_value == 1.0
    assert eval_edge(f, 0, 0, 0.5) == pytest.approx(1.5)
    assert continuity_defect(f) == 0.0
    np.testing.assert_allclose(f.leaf_values(), [4.0, 2.0, 1.0, -1.0])


def test_interval_poisson():
    # u'' = 1 on [0, 1], u(0) = u(1) = 0  ->  u = (x^2 - x)/2
    T = build_truncated(INTERVAL, 0)
    u = ca.solve_poisson_zero_trace(T, constant_function(T, 1.0), 0.0)
    np.testing.assert_allclose(u.coeffs[0], [[0.0, -0.5, 0.5]], atol=1e-15)
    assert l2_norm(u) == pytest.approx(math.sqrt(1.0 / 120.0), rel=1e-12)


def test_interval_harmonic_chain():
    # three edges 1, 1/2, 1/4: linear ramp 0 -> 1, slope 1/total length
    T = build_truncated(INTERVAL, 2)
    u = ca.solve_harmonic_dirichlet(T, np.array([1.0]))
    for n in range(3):
        assert u.coeffs[n][0, 1] == pytest.approx(1 / 1.75)
    assert h1_seminorm(u) ** 2 == pytest.approx(1 / 1.75)


def test_radial_flux_reference():
    f, flux = radial_harmonic(REF, N=4, boundary_value=1.0, condensed=True)
    assert flux == pytest.approx(0.375, abs=1e-15)
    np.testing.assert_allclose(f.leaf_values(), 1.0)
    assert kirchhoff_residual(f).relative < 1e-14
    # truncated flux exceeds the infinite-tree value and converges to it
    prev = None
    for N in range(2, 12):
        _, flux = radial_harmonic(REF, N=N, boundary_value=1.0, condensed=False)
        expect = (1 - 0.625) / (1 - 0.625 ** (N + 1))
        assert flux == pytest.approx(expect, rel=1e-13)
        assert flux > 0.375
        if prev is not None:
            assert flux < prev
        prev = flux


def test_harmonic_matches_radial():
    T = build_condensed(REF, 4)
    f, _ = radial_harmonic(REF, N=4, condensed=True)
    u = ca.solve_harmonic_dirichlet(T, np.ones(T.n_leaves))
    d = combined((1, u), (-1, f))
    assert max(float(np.abs(c).max()) for c in d.coeffs) < 1e-13


def test_harmonic_energy_orthogonality():
    # E(f) splits: harmonic part with f's traces plus zero-trace remainder
    rng = np.random.default_rng(7)
    T = build_condensed(REF, 3)
    f = random_continuous(T, rng, degree=3)
    # shifted to the root value 0 of the harmonic solve
    f = combined((1, f), (-f.root_value, constant_function(T, 1.0)))
    h = ca.solve_harmonic_dirichlet(T, f.leaf_values())
    f0 = combined((1, f), (-1, h))
    assert abs(f0.root_value) < 1e-12
    assert np.abs(f0.leaf_values()).max() < 1e-12
    cross = h1_inner(f0, h)
    assert abs(cross) < 1e-11 * h1_seminorm(f) ** 2
    lhs = h1_seminorm(f) ** 2
    rhs = h1_seminorm(f0) ** 2 + h1_seminorm(h) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_poisson_solves_laplacian():
    rng = np.random.default_rng(3)
    T = build_condensed(REF, 3)
    for trial in range(3):
        s = random_polynomial(T, rng, degree=2, complex_=(trial == 2))
        u = ca.solve_poisson_zero_trace(T, s, 0.0)
        d = combined((1, ca.laplacian(u)), (-1, s))
        assert max(float(np.abs(c).max()) for c in d.coeffs) < 1e-12
        assert kirchhoff_residual(u).relative < 1e-12
        assert continuity_defect(u) < 1e-13
        assert abs(u.root_value) < 1e-14
        assert np.abs(u.leaf_values()).max() < 1e-13


def test_complex_harmonic():
    T = build_truncated(REF, 3)
    rng = np.random.default_rng(11)
    g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    u = ca.solve_harmonic_dirichlet(T, g)
    assert kirchhoff_residual(u).relative < 1e-13
    np.testing.assert_allclose(u.leaf_values(), g, atol=1e-14)
    assert u.root_value == 0


def test_green_identity_random_pairs():
    rng = np.random.default_rng(19)
    T = build_condensed(REF, 3)
    for _ in range(10):
        s = random_polynomial(T, rng, degree=2)
        u = combined((1, ca.solve_poisson_zero_trace(T, s, 0.0)), (1, ca.solve_harmonic_dirichlet(
            T, rng.standard_normal(T.n_leaves)
        )))
        v = ca.solve_poisson_zero_trace(T, random_polynomial(T, rng, degree=1), 0.0)
        rep = ca.green_identity_check(u, v)
        assert rep.relative < 1e-12


def test_green_identity_quadrature_oracle():
    # independent check of the volume terms by Gauss-Legendre quadrature
    rng = np.random.default_rng(23)
    T = build_truncated(REF, 2)
    s = random_polynomial(T, rng, degree=2)
    u = ca.solve_poisson_zero_trace(T, s, 0.0)
    v = ca.solve_harmonic_dirichlet(T, rng.standard_normal(4))
    x64, w64 = np.polynomial.legendre.leggauss(12)
    lap = ca.laplacian(u)
    du, dv = u.derivative(), v.derivative()
    bulk = grad = 0.0
    for n in range(T.depth + 1):
        for k in range(T.p**n):
            ell, w = T.lengths[n][k], T.weights[n][k]
            xs = 0.5 * ell * (x64 + 1)
            ws = 0.5 * ell * w64
            bulk += w * (ws * eval_edge(lap, n, k, xs) * eval_edge(v, n, k, xs)).sum()
            grad += w * (ws * eval_edge(du, n, k, xs) * eval_edge(dv, n, k, xs)).sum()
    pairing = (ca.leaf_flux(u) * v.leaf_values()).sum()
    assert pairing == pytest.approx(bulk + grad, rel=1e-12)
    rep = ca.green_identity_check(u, v)
    assert rep.defect == pytest.approx(abs(pairing - bulk - grad), abs=1e-12)


def test_green_identity_rejects_nonzero_root():
    T = build_truncated(REF, 1)
    u = constant_function(T, 1.0)
    v = constant_function(T, 1.0)
    with pytest.raises(ValueError):
        ca.green_identity_check(u, v)


def test_leaf_flux_radial():
    f, total = radial_harmonic(REF, N=3, condensed=True)
    flux = ca.leaf_flux(f)
    # per-leaf share of the total current
    np.testing.assert_allclose(flux.sum(), total, rtol=1e-13)
    np.testing.assert_allclose(flux, total / 16)


def test_leaf_flux_matches_full_derivative():
    rng = np.random.default_rng(11)
    for tree in (build_condensed(TreeParams(p=3, ell=0.6, omega=0.3), 2), build_truncated(REF, 4)):
        f = random_polynomial(tree, rng, degree=3, complex_=True)
        full = tree.weights[tree.depth] * f.derivative().end_values(tree.depth)
        assert np.array_equal(ca.leaf_flux(f), full)


# ---------------------------------------------------------------------------
# Poincare constant via a cubic Rayleigh-Ritz pencil (a test oracle: nothing
# in the package needs it)

# local basis on [0, 1]: hat functions plus two interior bubbles
_BASIS = [
    np.array([1.0, -1.0]),
    np.array([0.0, 1.0]),
    np.array([0.0, 1.0, -1.0]),
    np.array([0.0, -0.5, 1.5, -1.0]),
]


def _local_matrices():
    k = np.zeros((4, 4))
    m = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            pi, pj = _BASIS[i], _BASIS[j]
            prod = np.convolve(pi, pj)
            m[i, j] = (prod / np.arange(1, prod.size + 1)).sum()
            di = np.polynomial.polynomial.polyder(pi)
            dj = np.polynomial.polynomial.polyder(pj)
            dprod = np.convolve(di, dj)
            k[i, j] = (dprod / np.arange(1, dprod.size + 1)).sum()
    return k, m


_K_LOC, _M_LOC = _local_matrices()


def poincare_constant(tree):
    """1/sqrt(a_N) where a_N is the smallest eigenvalue of the
    stiffness/mass pencil over continuous piecewise-cubic functions
    vanishing at the root (leaves unconstrained)."""
    p = tree.p
    offsets = np.cumsum([0] + [p**n for n in range(tree.depth + 1)])
    nv = offsets[-1]
    ne = sum(tree.rows)
    ndof = nv + 2 * ne
    A = np.zeros((ndof, ndof))
    B = np.zeros((ndof, ndof))
    edge_no = 0
    for n in range(tree.depth + 1):
        for k in range(p**n):
            ell = tree.lengths[n][k]
            w = tree.weights[n][k]
            if n == 0:
                dofs = [None, offsets[0] + k]
            else:
                dofs = [offsets[n - 1] + k // p, offsets[n] + k]
            dofs += [nv + 2 * edge_no, nv + 2 * edge_no + 1]
            k_e = (w / ell) * _K_LOC
            m_e = (w * ell) * _M_LOC
            for i in range(4):
                if dofs[i] is None:
                    continue
                for j in range(4):
                    if dofs[j] is None:
                        continue
                    A[dofs[i], dofs[j]] += k_e[i, j]
                    B[dofs[i], dofs[j]] += m_e[i, j]
            edge_no += 1
    a = float(scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=[0, 0])[0])
    assert a > 0, "nonpositive Rayleigh quotient %g" % a
    return 1.0 / math.sqrt(a)


def test_poincare_interval():
    # exact constant on a root-clamped interval of length L is 2L/pi
    T = build_truncated(INTERVAL, 0)
    assert poincare_constant(T) == pytest.approx(2 / math.pi, rel=2e-2)
    T2 = build_truncated(INTERVAL, 4)
    L = total_length(T2)
    assert poincare_constant(T2) == pytest.approx(2 * L / math.pi, rel=2e-2)


def test_poincare_brackets_limit():
    # truncated constants increase, condensed decrease; they pinch the
    # infinite-tree value near 1.095
    cond = [poincare_constant(build_condensed(REF, N)) for N in range(1, 7)]
    trunc = [poincare_constant(build_truncated(REF, N)) for N in range(1, 7)]
    for a, b in zip(cond, cond[1:]):
        assert b <= a + 1e-12
    for a, b in zip(trunc, trunc[1:]):
        assert b >= a - 1e-12
    for c, t in zip(cond, trunc):
        assert t < c
    assert cond[-1] - trunc[-1] < 0.004
    assert cond[-1] == pytest.approx(1.09579, abs=2e-4)
