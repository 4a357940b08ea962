"""Numbered acceptance checks covering the full pipeline.

Each criterion function returns (name, ok, detail) and is independent of
the others; run_all executes them in order and prints one PASS/FAIL line
per criterion.  All randomized checks use fixed seeds so the suite is
deterministic.
"""

import math
import time

import numpy as np

from . import calculus, circle
from .circle import FourierFn, MultiscaleDecomposition, PiecewiseConstantFn
from .dtn import coercivity_check, compress, condensed_dtn, truncated_dtn
from .errors import SingularInterfaceOperator
from .exterior import (
    bie_dtn_crosscheck,
    dtn_galerkin,
    dtn_symbol,
    single_layer_quadrature,
    layer_symbols,
)
from .transmission import (
    TransmissionConfig,
    assemble_system,
    convergence_study,
    plasmonic_pencil,
    solve_interface,
)
from .exterior import RadialSource
from .tree import TreeParams, build_condensed, build_truncated, validate_params

REF = TreeParams(p=2, ell=0.5, omega=0.4, L0=1.0, omega0=1.0)
INTERVAL = TreeParams(p=1, ell=0.5, omega=1.0, L0=1.0, omega0=1.0)


def criterion_1():
    """Interval DtN: truncated scalar series and exact condensation."""
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 7):
        truncated = truncated_dtn(INTERVAL, n - 1)[0, 0]
        expected = 0.5 / (1.0 - 0.5**n)
        worst = max(worst, abs(truncated - expected))
        condensed = condensed_dtn(INTERVAL, n)[0, 0]
        worst = max(worst, abs(condensed - 0.5))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    return ("interval truncated/condensed DtN oracle", ok,
            "max defect %.2e, %.2fs" % (worst, elapsed))


def criterion_2():
    """Constant boundary data carries the uniform radial flux density."""
    start = time.monotonic()
    total_flux = 0.375
    worst = 0.0
    for n in range(2, 9):
        A = condensed_dtn(REF, n)
        cell_flux = A @ np.ones(len(A))
        expected = total_flux / len(A)
        worst = max(worst, np.abs(cell_flux / expected - 1.0).max())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    return ("radial constant-flux oracle", ok,
            "max relative defect %.2e, %.2fs" % (worst, elapsed))


def criterion_3():
    """Compression of a deeper condensed map reproduces the shallower one."""
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4):
        fine = compress(condensed_dtn(REF, n + 3), REF.p, n + 1)
        coarse = condensed_dtn(REF, n)
        worst = max(worst, np.abs(fine - coarse).max())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    return ("condensation exactness under compression", ok,
            "max entrywise defect %.2e, %.2fs" % (worst, elapsed))


def _random_admissible_params(rng):
    p = int(rng.choice([2, 3]))
    ell = float(rng.uniform(0.25, 0.85))
    # admissible corridor: ell/p < omega < min(ell, 1/(p*ell))
    lo, hi = ell / p, min(ell, 1.0 / (p * ell))
    omega = lo + (hi - lo) * float(rng.uniform(0.1, 0.9))
    L0 = float(rng.uniform(0.5, 2.0))
    omega0 = float(rng.uniform(0.5, 2.0))
    N1 = int(rng.choice([0, 0, 1, 2]))
    length_overrides, weight_overrides = {}, {}
    for n in range(N1):
        k = int(rng.integers(0, p**n))
        length_overrides[(n, k)] = L0 * ell**n * float(rng.uniform(0.7, 1.3))
        weight_overrides[(n, k)] = omega0 * omega**n * float(rng.uniform(0.7, 1.3))
    return TreeParams(p=p, ell=ell, omega=omega, L0=L0, omega0=omega0, N1=N1,
                      length_overrides=length_overrides, weight_overrides=weight_overrides)


def criterion_4():
    """Symmetrized condensed DtN is positive definite for random parameters."""
    name = "randomized coercivity and symmetry"
    rng = np.random.default_rng(1404)
    min_eig, max_sym = np.inf, 0.0
    for i in range(10):
        params = _random_admissible_params(rng)
        report = validate_params(params)
        if not report.ok:
            return (name, False, "draw %d is not admissible: %s" % (i, "; ".join(report.failures)))
        check = coercivity_check(condensed_dtn(params, params.N1 + 2))
        min_eig = min(min_eig, check.eig_min)
        max_sym = max(max_sym, check.symmetry_defect)
    ok = min_eig > 0.0 and max_sym < 1e-9
    return (name, ok,
            "min eigenvalue %.3e, max symmetry defect %.2e" % (min_eig, max_sym))


def criterion_5():
    """Projector error bound for cos theta between two trace orders."""
    decomp = MultiscaleDecomposition(R=1.0, p=2, n_max=14)
    g = FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5})
    sigma = REF.sigma
    sigma_prime = 0.42
    violations = 0
    margin = np.inf
    for n in range(2, 11):
        lhs, _ = circle.projector_error_check(decomp, g, n, sigma, sigma_prime)
        rhs = 2.667 * 2.0 ** (-n * (sigma_prime - sigma)) * circle.ar_norm(decomp, g, sigma_prime)
        if lhs > rhs:
            violations += 1
        margin = min(margin, rhs / lhs)
    ok = violations == 0
    return ("projector error bound for cos theta", ok,
            "%d violations, min bound/error ratio %.3f" % (violations, margin))


def criterion_6():
    """Exterior symbol suite: quadrature, cross-check, Galerkin signs."""
    worst_quad = 0.0
    for k in range(0, 9):
        exact = layer_symbols(1.0, 2.0, 16)[0].coeff(k)
        quad = single_layer_quadrature(1.0, 2.0, k)
        worst_quad = max(worst_quad, abs(quad - exact))
    cross = bie_dtn_crosscheck(1.0, 2.0, 64)
    decomp = MultiscaleDecomposition(R=1.0, p=2, n_max=6)
    check = coercivity_check(dtn_galerkin(decomp, 3, dtn_symbol(1.0, 16 * 8)))
    ok = (worst_quad <= 1e-6 and cross <= 1e-12 and check.const_image <= 1e-10
          and check.eig_max <= 1e-10)
    return ("exterior symbol suite", ok,
            "quadrature defect %.2e, cross-check %.2e, A1 %.2e, max eig %.2e"
            % (worst_quad, cross, check.const_image, check.eig_max))


def _random_kirchhoff_fn(tree, rng, degree):
    """Random polynomial made flux-conserving by fixing one child slope per vertex."""
    f = calculus.TreeFunction(
        tree, [rng.standard_normal((tree.p**n, degree + 1)) for n in range(tree.depth + 1)])
    p = tree.p
    for n in range(1, tree.depth + 1):
        f.coeffs[n][:, 0] = f.end_values(n - 1)[np.arange(p**n) // p]
        parent_flux = tree.weights[n - 1] * f.derivative().end_values(n - 1)
        child_flux = tree.weights[n] * f.coeffs[n][:, 1]
        sums = child_flux.reshape(-1, p).sum(axis=1)
        first = np.arange(0, p**n, p)
        f.coeffs[n][first, 1] += (parent_flux - sums) / tree.weights[n][first]
    return f


def _random_zero_root_continuous(tree, rng, degree):
    f = calculus.TreeFunction(
        tree, [rng.standard_normal((tree.p**n, degree + 1)) for n in range(tree.depth + 1)])
    f.coeffs[0][0, 0] = 0.0
    for n in range(1, tree.depth + 1):
        parent_end = f.end_values(n - 1)
        f.coeffs[n][:, 0] = parent_end[np.arange(tree.p**n) // tree.p]
    return f


def criterion_7():
    """Green identity on randomized Kirchhoff/continuous polynomial pairs."""
    rng = np.random.default_rng(1407)
    worst = 0.0
    for i in range(100):
        depth = int(rng.integers(1, 6))
        degree = int(rng.integers(1, 5))
        if i % 2 == 0:
            tree = build_condensed(REF, depth - 1)
        else:
            tree = build_truncated(REF, depth)
        u = _random_kirchhoff_fn(tree, rng, degree)
        v = _random_zero_root_continuous(tree, rng, degree)
        report = calculus.green_identity_check(u, v)
        worst = max(worst, report.relative)
    ok = worst <= 1e-9
    return ("Green identity on random polynomial pairs", ok,
            "max relative defect %.2e over 100 pairs" % worst)


def criterion_8():
    """Manufactured interface data: smooth decay and exact cell data."""
    start = time.monotonic()
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3)
    smooth = FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5})
    study = convergence_study(cfg, [3, 4, 5, 6, 7, 8], manufactured=smooth)
    monotone = all(b < a for a, b in zip(study.err_h12, study.err_h12[1:]))
    decomp = MultiscaleDecomposition(R=1.0, p=2, n_max=10)
    rng = np.random.default_rng(1408)
    v3 = PiecewiseConstantFn(decomp, 3, rng.normal(size=8))
    exact = convergence_study(cfg, [3, 4, 5, 6, 7, 8], manufactured=v3)
    elapsed = time.monotonic() - start
    ok = monotone and study.rho_hat > 0 and max(exact.err_h12) <= 1e-9 and elapsed < 120.0
    return ("manufactured transmission convergence", ok,
            "rho_hat %.3f, cell-data error %.2e, %.2fs"
            % (study.rho_hat, max(exact.err_h12), elapsed))


def criterion_9():
    """The admissible sign conditions solve; a pencil eigenvalue does not."""
    name = "solvability under the sign conditions"
    rng = np.random.default_rng(1409)
    worst_cond = 0.0
    solvable = 0
    for i in range(40):
        if i < 20:
            alpha1 = complex(rng.uniform(0.05, 3.0), rng.uniform(-1.0, 1.0))
            alpha0 = complex(rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0))
        else:
            alpha1 = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.05, 3.0))
            alpha0 = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0))
        cfg = TransmissionConfig(params=REF, level=3, alpha1=alpha1, alpha0=alpha0)
        which = "case_i" if i < 20 else "case_ii"
        if not cfg.solvability()[which]:
            return (name, False, "draw %d (alpha1 %r, alpha0 %r) violates %s"
                    % (i, alpha1, alpha0, which))
        system = assemble_system(cfg)
        cond = float(np.linalg.cond(system.M))
        worst_cond = max(worst_cond, cond)
        if math.isfinite(cond) and cond < 1e12:
            solvable += 1
    system = assemble_system(TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.0))
    lam = plasmonic_pencil(system.C, system.D, 3)[1]
    singular_cfg = TransmissionConfig(
        params=REF, level=3, alpha1=lam, alpha0=0.0,
        exterior_source=RadialSource(R=1.0, r_max=2.0, terms=[(1, {0: 1.0}), (-1, {0: 1.0})]))
    try:
        solve_interface(assemble_system(singular_cfg))
        raised = False
    except SingularInterfaceOperator:
        raised = True
    ok = solvable == 40 and raised
    return (name, ok,
            "%d/40 nonsingular, worst condition %.2e, pencil eigenvalue rejected: %s"
            % (solvable, worst_cond, raised))


def criterion_10():
    """Pencil eigenvalues: one zero on constants, the rest negative reals."""
    worst_imag, worst_real, worst_const = 0.0, -np.inf, 0.0
    for n in (3, 4, 5, 6):
        system = assemble_system(TransmissionConfig(params=REF, level=n, alpha1=1.0, alpha0=0.0))
        values = plasmonic_pencil(system.C, system.D, count=2**n)
        worst_const = max(worst_const, abs(values[0]))
        for z in values[1:]:
            worst_imag = max(worst_imag, abs(z.imag))
            worst_real = max(worst_real, z.real)
        ones = np.ones(2**n)
        worst_const = max(worst_const, np.abs(system.C @ ones).max())
    ok = worst_imag <= 1e-8 and worst_real < 0.0 and worst_const <= 1e-8
    return ("plasmonic pencil location", ok,
            "max |Im| %.2e, max nonzero Re %.3f, constant-mode defect %.2e"
            % (worst_imag, worst_real, worst_const))


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(verbose: bool = False):
    """Run every criterion; returns a list of (name, ok, detail) tuples."""
    results = []
    for index, criterion in enumerate(CRITERIA, start=1):
        try:
            name, ok, detail = criterion()
        except Exception as exc:
            doc = (criterion.__doc__ or criterion.__name__).strip().rstrip(".")
            name, ok, detail = doc, False, "raised %s: %s" % (type(exc).__name__, exc)
        results.append((name, ok, detail))
        if verbose:
            print("%s %2d. %s (%s)" % ("PASS" if ok else "FAIL", index, name, detail))
    return results
