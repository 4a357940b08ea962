"""Coupled tree-disk transmission solver on the interface circle.

The interface equation is M g = -h with M = -C + alpha1 D + alpha0, where C
is the exterior DtN map, D the tree DtN map, and alpha0 acts by
multiplication.  Discretization is Galerkin on the piecewise-constant cells
V_N for both operators: D comes from the condensed finite tree (exact on
V_N; dtn.tree_dtn_operator), C from the Fourier symbol at cutoff 16 p^N.  The
right-hand side h = -gamma1 v_f + alpha1 gamma1(c u1 + u_f) collects the
source lifts: v_f solves the exterior problem with zero trace, u_f a tree
Poisson problem with zero trace, and u1 is a root bump carrying the root
value c without contributing any leaf flux.

M is never formed on the solve path.  C is circulant, so it acts by FFT
with the eigenvalues fft(row); D acts by one sweep over its level-N
elimination; the alpha0 mass is a diagonal.  M g = -h is solved by GMRES,
preconditioned on the right by T. Chan's optimal circulant of M, and the
condition number is a Hager-Higham 1-norm estimate; M is complex
symmetric (M^T = M), so the estimate applies M and M^{-1} and never an
adjoint.  The dense C, D and M are properties of InterfaceSystem, for the
pencil and for tests; the pencil reduces to one symmetric eigvalsh, so no
module here needs scipy.

The source side runs on the condensed source tree compressed at level N
(tree.build_condensed with level=N): every generation below N stores one
row per cell, which is exact because the subtrees below N >= N1 are
geometric, the tree forcing is one polynomial per generation, and the
leaf data is g, constant per cell.  The lifts, the harmonic part and the
leaf fluxes then cost O(p^N * depth) whatever the source depth; a cell's
flux is its row's flux times the p^(depth - N) leaf edges under it.  The
full tree solution TransmissionSolution.u_tree is expanded from the rows
on first access only.

Sign conventions: both volume equations are driven as Delta u = f (the
exterior solver already uses this convention, so no negation occurs
anywhere), and the solved system is M g = -h.
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import circle
from .calculus import (
    TreeFunction,
    constant_function,
    leaf_flux,
    solve_harmonic_dirichlet,
    solve_poisson_zero_trace,
)
from .circle import MultiscaleDecomposition, PiecewiseConstantFn
# compress is not called here; it stays importable from this module because
# perfbench's tracer test wraps this binding
from .dtn import TreeDtN, compress, tree_dtn_operator  # noqa: F401
from .errors import (
    Alpha1Zero,
    AssemblyTooLarge,
    DepthBelowChartLevel,
    DepthMismatch,
    InsufficientLevels,
    InvalidInput,
    NonPositiveParameter,
    SingularInterfaceOperator,
)
from .exterior import (
    MODE_OVERSAMPLING,
    RadialSource,
    circulant,
    circulant_view,
    dtn_symbol,
    galerkin_row,
    gamma1_exterior,
    solve_exterior_dirichlet,
)
from .tree import FiniteTree, TreeParams, build_condensed, check_tree_budget

_COND_LIMIT = 1e12

# GMRES stops at a relative residual of 1e-12 (1e-13 stagnates above the
# rounding floor).  With the Chan preconditioner it takes 7-8 steps at every
# level for a constant alpha0, and up to about 55 for a rough per-cell one;
# a solve that needs more than _KRYLOV_MAX_ITER has failed.
_KRYLOV_RTOL = 1e-12
_KRYLOV_MAX_ITER = 100


def root_bump(tree: FiniteTree) -> TreeFunction:
    """The ansatz function u1: (1 - t/l_root)^2 on the root edge, zero beyond.

    u1(o) = 1, the trace and the leaf fluxes vanish identically, and the
    Laplacian is the constant 2/l_root^2 on the root edge, so u1 carries a
    root value into the source problem without touching the interface.
    """
    u1 = constant_function(tree, 0.0)
    u1.coeffs[0] = _root_bump_coeffs(tree)
    return u1


def _root_bump_coeffs(tree: FiniteTree) -> np.ndarray:
    """Root-edge coefficients of u1; every other edge of u1 is zero."""
    l0 = tree.lengths[0][0]
    return np.array([[1.0, -2.0 / l0, 1.0 / l0**2]])


@dataclass
class TransmissionConfig:
    """Data of the transmission problem and its discretization level.

    alpha0 may be a scalar or a per-cell array at the solve level (the
    cellwise realization of a bounded multiplication coefficient).
    tree_source is the tree forcing f_T as a (source_depth + 2, q + 1)
    array: row n holds the ascending coefficients of the polynomial on
    every edge of generation n of the condensed tree at source_depth
    (default level + 4), whose generations run from 0 to source_depth + 1.
    """

    params: TreeParams
    level: int
    alpha1: complex
    alpha0: object = 0.0
    c_root: complex = 0.0
    tree_source: np.ndarray | None = None
    exterior_source: RadialSource | None = None
    source_depth: int | None = None
    R: float = 1.0

    def __post_init__(self):
        if complex(self.alpha1) == 0:
            raise Alpha1Zero("alpha1 must be nonzero")
        if self.level < max(self.params.N1, 0):
            raise DepthBelowChartLevel(
                "level %d below the geometric generation %d" % (self.level, self.params.N1))
        if self.source_depth is None:
            self.source_depth = self.level + 4
        if self.source_depth < self.level:
            raise DepthBelowChartLevel("source depth below solve level")
        if self.exterior_source is not None and abs(self.exterior_source.R - self.R) > 1e-12:
            raise ValueError("exterior source annulus must start at the interface radius")

    def alpha0_cells(self) -> np.ndarray:
        n = self.params.p**self.level
        arr = np.atleast_1d(np.asarray(self.alpha0, dtype=complex))
        if arr.size == 1:
            return np.full(n, arr[0])
        if arr.size != n:
            raise ValueError("alpha0 needs 1 or %d values, got %d" % (n, arr.size))
        return arr

    def solvability(self) -> dict:
        """The two sign conditions under which M is provably injective."""
        a1 = complex(self.alpha1)
        a0 = self.alpha0_cells()
        case_i = a1.real >= 0 and a0.real.min() >= 0 and a1.real + a0.real.min() > 0
        case_ii = a1.imag >= 0 and a0.imag.min() >= 0 and a1.imag + a0.imag.min() > 0
        return {"case_i": bool(case_i), "case_ii": bool(case_ii)}


def _source_tree(cfg: TransmissionConfig) -> FiniteTree:
    """The condensed tree at source_depth, compressed below the solve level."""
    return build_condensed(cfg.params, cfg.source_depth, level=cfg.level)


def _tree_forcing(cfg: TransmissionConfig, tree: FiniteTree) -> TreeFunction | None:
    """f_T - c * Lap(u1) on the compressed source tree, or None when both vanish.

    Generation n of f_T is row n of cfg.tree_source on every row of the
    tree, a read-only zero-stride view (zero without a tree source).
    Lap(u1) is the constant 2/l_root^2 on the root edge and zero elsewhere,
    so only generation 0 changes.  A tree_source of another shape than
    (source_depth + 2, q + 1) raises DepthMismatch.
    """
    f = cfg.tree_source
    if f is not None:
        f = np.asarray(f)
        if f.ndim != 2 or f.shape[0] != cfg.source_depth + 2 or not f.shape[1]:
            raise DepthMismatch("tree_source needs one coefficient row per generation, shape "
                                "(%d, q + 1), got %r" % (cfg.source_depth + 2, f.shape))
    elif cfg.c_root == 0:
        return None
    else:
        f = np.zeros((tree.depth + 1, 1))
    coeffs = [np.broadcast_to(f[n], (rows, f.shape[1])) for n, rows in enumerate(tree.rows)]
    if cfg.c_root != 0:
        root = coeffs[0].astype(complex)
        root[0, 0] -= (2.0 / tree.lengths[0][0] ** 2) * complex(cfg.c_root)
        coeffs[0] = root
    return TreeFunction(tree, coeffs)


def _cell_flux(f: TreeFunction) -> np.ndarray:
    """Leaf flux of f summed over each level-N cell of its compressed tree.

    The leaf rows are the cells, and each stands for p^(depth - N) leaf
    edges with the same flux.
    """
    return leaf_flux(f) * f.tree.multiplicity(f.tree.depth)


@dataclass
class InterfaceSystem:
    """Level-N operators and rhs of the interface equation M g = -h.

    c_row is the circulant row of C_N (exterior.galerkin_row) and dtn is
    D_N as its level-N elimination; neither is a p^N x p^N array.  C, D
    and M are dense properties, built on each access within the dense
    operator budget.  mass is the diagonal of the alpha0 mass matrix:
    alpha0 times the cell measure, per cell.  The system also keeps the
    tree side of h for `reconstruct`: the Poisson lift u_f on the source
    tree (compressed at the solve level; u_f.tree keeps its elimination)
    and its per-cell leaf flux flux_f.  Without tree forcing u_f is None
    and flux_f is zero; `reconstruct` then builds the source tree.
    """

    decomp: MultiscaleDecomposition
    c_row: np.ndarray
    dtn: TreeDtN
    mass: np.ndarray
    h: np.ndarray
    config: TransmissionConfig
    u_f: TreeFunction | None
    flux_f: np.ndarray
    condition_estimate: float | None = None

    @property
    def C(self) -> np.ndarray:
        return circulant(self.c_row)

    @property
    def D(self) -> np.ndarray:
        return self.dtn.matrix

    @property
    def M(self) -> np.ndarray:
        M = complex(self.config.alpha1) * self.D
        M -= self.C
        M[np.diag_indices_from(M)] += self.mass
        return M

    @cached_property
    def c_eigs(self) -> np.ndarray:
        """Eigenvalues of C_N on the fft basis: fft of its circulant row."""
        return np.fft.fft(self.c_row).real

    def apply(self, x) -> np.ndarray:
        """M x: C by FFT, D by its tree sweep, the mass as a diagonal."""
        y = complex(self.config.alpha1) * self.dtn.apply(x)
        y -= np.fft.ifft(self.c_eigs * np.fft.fft(x))
        y += self.mass * x
        return y


def assemble_system(cfg: TransmissionConfig) -> InterfaceSystem:
    """Build the C_N row, the D_N elimination, the alpha0 mass and the cell integrals of h.

    h_N[K] = int_{Gamma_K} (-gamma1 v_f + alpha1 gamma1(c u1 + u_f)) ds; the
    root bump contributes no flux, so its only effect is the -c Lap(u1)
    forcing inside u_f.  The source tree is built only when forced
    (tree_source or c_root), and v_f only enters h.  The source tree and
    the symbol are checked against their budgets (tree.check_tree_budget,
    exterior.MODE_BUDGET) before anything of their size is allocated, built
    here or not; nothing here is p^N x p^N.
    """
    p = cfg.params.p
    check_tree_budget(cfg.params, cfg.source_depth + 1, cfg.level)
    pn = p**cfg.level
    symbol = dtn_symbol(cfg.R, MODE_OVERSAMPLING * pn)
    dtn = tree_dtn_operator(cfg.params, cfg.level)
    n_max = max(cfg.level, cfg.source_depth + 1) + 1
    decomp = MultiscaleDecomposition(R=cfg.R, p=p, n_max=n_max)
    c_row = galerkin_row(decomp, cfg.level, symbol)
    mass = cfg.alpha0_cells() * decomp.cell_measure(cfg.level)

    h = np.zeros(pn, dtype=complex)
    if cfg.exterior_source is not None:
        v_f = solve_exterior_dirichlet(None, cfg.exterior_source, R=cfg.R)
        h -= circle.cell_integrals(decomp, gamma1_exterior(v_f), cfg.level)
    u_f = None
    flux_f = np.zeros(pn)
    if cfg.tree_source is not None or cfg.c_root != 0:
        tree = _source_tree(cfg)
        u_f = solve_poisson_zero_trace(tree, _tree_forcing(cfg, tree))
        flux_f = _cell_flux(u_f)
        h += complex(cfg.alpha1) * flux_f
    return InterfaceSystem(decomp=decomp, c_row=c_row, dtn=dtn, mass=mass, h=h, config=cfg,
                           u_f=u_f, flux_f=flux_f)


class _Unconverged(Exception):
    """An inner GMRES solve missed _KRYLOV_RTOL within _KRYLOV_MAX_ITER steps."""


def _givens(a, b):
    """(c, s, r): c real, [[c, s], [-conj(s), c]] maps (a, b) to (r, 0)."""
    if b == 0:
        return 1.0, 0.0, a
    if a == 0:
        return 0.0, 1.0, b
    r = math.hypot(abs(a), abs(b))
    phase = a / abs(a)
    return abs(a) / r, phase * b.conjugate() / r, phase * r


def _gmres(matvec, precond, b):
    """(x, converged): ||b - A x|| <= _KRYLOV_RTOL ||b|| when converged.

    Full GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) on
    A P^{-1}, x = P^{-1} y: with the preconditioner on the right the
    least-squares residual that Givens rotations track is the residual of
    A x itself.  The Arnoldi vectors are orthogonalized by classical
    Gram-Schmidt run twice; there is no restart.  Without convergence x
    is the minimal-residual iterate after _KRYLOV_MAX_ITER steps.
    """
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return np.zeros(b.size, dtype=complex), True
    k_max = _KRYLOV_MAX_ITER
    basis = np.empty((k_max + 1, b.size), dtype=complex)
    hess = np.zeros((k_max + 1, k_max), dtype=complex)
    rot = []
    rhs = np.zeros(k_max + 1, dtype=complex)
    rhs[0] = scale
    basis[0] = b / scale
    converged = False
    for j in range(k_max):
        w = matvec(precond(basis[j]))
        for _ in range(2):
            coef = basis[: j + 1].conj() @ w
            w -= coef @ basis[: j + 1]
            hess[: j + 1, j] += coef
        norm = float(np.linalg.norm(w))
        col = hess[:, j]
        for i, (c, s) in enumerate(rot):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s.conjugate() * col[i]
        c, s, col[j] = _givens(col[j], norm)
        rot.append((c, s))
        rhs[j + 1] = -s.conjugate() * rhs[j]
        rhs[j] *= c
        residual = abs(rhs[j + 1])
        converged = residual <= _KRYLOV_RTOL * scale
        if converged or norm == 0.0 or not math.isfinite(residual):
            break
        basis[j + 1] = w / norm
    # a zero pivot means A P^{-1} is singular on the Krylov space: the
    # iterate stops before it
    pivots = np.diagonal(hess)[: len(rot)]
    k = len(rot) if pivots.all() else int(np.argmin(pivots != 0))
    y = np.linalg.solve(hess[:k, :k], rhs[:k]) if k else rhs[:0]
    return precond(y @ basis[:k]), converged and k == len(rot)


def _inverse(matvec, precond):
    """x -> A^{-1} x by preconditioned GMRES, raising _Unconverged on a missed tolerance."""
    def solve(x):
        y, converged = _gmres(matvec, precond, x)
        if not converged:
            raise _Unconverged
        return y
    return solve


def _sign(y):
    """y / |y| entrywise, 1 where y vanishes (LAPACK zlacn2)."""
    mag = np.abs(y)
    out = np.ones(y.size, dtype=complex)
    nz = mag > np.finfo(float).tiny
    out[nz] = y[nz] / mag[nz]
    return out


def _norm1_estimate(apply, n: int) -> float:
    """Lower bound on ||A||_1 from products with a complex symmetric A: LAPACK's zlacn2.

    Hager's method as refined by Higham (ACM TOMS 14, 1988), the estimator
    behind LAPACK's condition numbers: a power-like iteration on unit
    vectors e_j, at most five rounds, then the alternating-sign test vector.
    It reads A^H s only through |A^H s|, which is |A conj(s)| when
    A^T = A, so A is the only operator it applies.
    """
    y = apply(np.full(n, 1.0 / n, dtype=complex))
    est = float(np.abs(y).sum())
    if n == 1:
        return est
    j = int(np.argmax(np.abs(apply(_sign(y).conj()))))
    for _ in range(4):
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
        y = apply(x)
        est_old, est = est, float(np.abs(y).sum())
        if est <= est_old:
            break
        z = np.abs(apply(_sign(y).conj()))
        j_last, j = j, int(np.argmax(z))
        if z[j_last] == z[j]:
            break
    alt = (1.0 + np.arange(n) / (n - 1.0)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return max(est, 2.0 * float(np.abs(apply(alt.astype(complex))).sum()) / (3.0 * n))


def solve_interface(sys: InterfaceSystem) -> PiecewiseConstantFn:
    """Solve M g = -h by GMRES with one refinement step; residual <= 1e-10 ||h||.

    M acts matrix-free (InterfaceSystem.apply).  The right preconditioner
    is T. Chan's optimal circulant of M, -lambda_C + alpha1 chan(D) +
    mean(mass), applied by two FFTs (SIAM J. Sci. Stat. Comput. 9, 1988).
    The 1-norm condition number is the Hager-Higham estimate of ||M||_1
    times that of ||M^{-1}||_1.  C and D are real symmetric and the mass is
    diagonal, so M^T = M and both estimates need products with M alone:
    those with M^{-1} are GMRES solves, and the estimate is inf when one of
    them misses its tolerance.  An estimate beyond 1e12 raises
    SingularInterfaceOperator and reports the nearest plasmonic pencil
    eigenvalue as a diagnostic when the dense pencil fits its budget.
    """
    n = sys.h.size
    eigs = complex(sys.config.alpha1) * sys.dtn.chan_eigs() - sys.c_eigs + sys.mass.mean()
    # a singular M can zero an eigenvalue exactly (a pencil eigenvector that
    # is a Fourier mode); eps keeps the preconditioner invertible
    eigs[eigs == 0] = np.finfo(float).eps * np.abs(eigs).max()

    def precond(x):
        return np.fft.ifft(np.fft.fft(x) / eigs)

    try:
        inverse_norm = _norm1_estimate(_inverse(sys.apply, precond), n)
    except _Unconverged:
        inverse_norm = math.inf
    cond = _norm1_estimate(sys.apply, n) * inverse_norm
    sys.condition_estimate = cond
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        message = "interface operator condition %.3e" % cond
        try:
            evs = plasmonic_pencil(sys.C, sys.D, count=min(n, 8))
        except AssemblyTooLarge:
            evs = []
        if evs:
            a1 = complex(sys.config.alpha1)
            message += "; nearest pencil eigenvalue %r" % min(evs, key=lambda z: abs(z - a1))
        raise SingularInterfaceOperator(message)
    rhs = -sys.h
    g, _ = _gmres(sys.apply, precond, rhs)
    g = g + _gmres(sys.apply, precond, rhs - sys.apply(g))[0]
    if np.abs(g.imag).max() <= 1e-12 * max(np.abs(g).max(), 1e-300):
        g = g.real.astype(float)
    scale = float(np.linalg.norm(sys.h))
    residual = float(np.linalg.norm(sys.apply(g) + sys.h))
    if not residual <= 1e-10 * max(scale, 1e-300):
        raise SingularInterfaceOperator(
            "residual %.3e exceeds 1e-10 of ||h|| = %.3e (condition %.3e)"
            % (residual, scale, cond))
    return PiecewiseConstantFn(sys.decomp, sys.config.level, g)


@dataclass
class TransmissionSolution:
    """Reconstructed two-sided solution with its consistency defects.

    flux_residual tests the flux transmission condition in the V_N pairing
    using only the reconstructed fields; it is bounded by the solver
    tolerance plus discretization_defect, the band-limitation error of the
    alpha0 mass term (the exterior trace carries finitely many modes while
    the assembled mass matrix integrates the cell functions exactly).
    u_rows is the tree solution on the compressed source tree, one row per
    cell below the solve level; u_tree is its expansion to the full tree.
    """

    g: PiecewiseConstantFn
    u_rows: TreeFunction
    u_ext: object
    trace_defect: float
    flux_residual: float
    discretization_defect: float
    condition_estimate: float

    @cached_property
    def u_tree(self) -> TreeFunction:
        """u_rows on the full source tree, built on first access.

        Raises AssemblyTooLarge, before allocating, when the full tree is
        beyond the tree budget (tree.check_tree_budget).
        """
        return self.u_rows.expanded()


def reconstruct(system: InterfaceSystem, g: PiecewiseConstantFn) -> TransmissionSolution:
    """Rebuild u_T = u + c u1 + u_f and u_Omega = v + v_f from the trace g.

    u_Omega is one exterior solve with trace g and the exterior source,
    which by linearity is v + v_f.  The flux-condition residual is
    recomputed from the reconstructed fields (leaf fluxes and per-mode
    derivatives), not from the solved matrices, so it is an independent
    check of the transmission conditions in the V_N pairing.  Interface
    traces match by construction: the leaf rows of the compressed source
    tree carry the cells of g, the exterior modes carry its Fourier
    coefficients at the assembly cutoff; a trace defect above 1e-10, or
    NaN, raises AssertionError.  The config and u_f come from `system`,
    the solved system, and the source tree from u_f when there is one, so
    the tree is built and eliminated once per solve.
    """
    cfg = system.config
    pn = cfg.params.p**cfg.level
    decomp = g.decomp
    u_f, flux_f = system.u_f, system.flux_f
    tree = _source_tree(cfg) if u_f is None else u_f.tree
    # the leaf rows of the compressed tree are the cells, so g itself is
    # the leaf data
    u = solve_harmonic_dirichlet(tree, g.values, root_value=0.0)
    flux_u = _cell_flux(u)
    # u_T: one array per generation, a copy of u_f with the columns of
    # u (and of c u1 on the root edge) added one by one; a strided 1-D add
    # is several times faster than one add over the (rows, 2) block.  Each
    # generation of u is freed once it is added.
    coeffs = u.coeffs
    del u
    if cfg.c_root != 0:
        root = complex(cfg.c_root) * _root_bump_coeffs(tree)
        root[:, :2] += coeffs[0]
        coeffs[0] = root
    if u_f is not None:
        for n, cf in enumerate(u_f.coeffs):
            c = cf.astype(np.result_type(cf, coeffs[n]))
            for j in range(coeffs[n].shape[1]):
                c[:, j] += coeffs[n][:, j]
            coeffs[n] = c
    u_T = TreeFunction(tree, coeffs)

    g_fourier = g.to_fourier(MODE_OVERSAMPLING * pn)
    u_ext = solve_exterior_dirichlet(g_fourier, cfg.exterior_source, R=cfg.R)

    tree_trace = np.abs(u_T.leaf_values() - g.values).max() if pn else 0.0
    diff = u_ext.trace0() - g_fourier
    m = g_fourier.M
    ext_trace = np.abs(diff.coeffs[diff.M - m : diff.M + m + 1]).max()
    trace_defect = float(max(tree_trace, ext_trace))
    if not trace_defect <= 1e-10:
        raise AssertionError("interface traces disagree by %.3e" % trace_defect)

    flux_ext = circle.cell_integrals(decomp, gamma1_exterior(u_ext), cfg.level)
    flux_tree = _cell_flux(u_T)
    a0 = cfg.alpha0_cells()
    mass = a0 * circle.cell_integrals(decomp, g_fourier, cfg.level)
    mass_exact = a0 * decomp.cell_measure(cfg.level) * g.values
    resid_vec = flux_ext - complex(cfg.alpha1) * flux_tree - mass
    # normalize by the pre-cancellation flux magnitudes (the harmonic tree
    # flux and the source flux can cancel when g is nearly constant)
    a1 = abs(complex(cfg.alpha1))
    scale = max(np.abs(flux_ext).max(), a1 * np.abs(flux_u).max(),
                a1 * np.abs(flux_f).max(), np.abs(mass).max(), 1e-300)
    flux_residual = float(np.abs(resid_vec).max() / scale)
    discretization_defect = float(np.abs(mass - mass_exact).max() / scale)
    return TransmissionSolution(
        g=g, u_rows=u_T, u_ext=u_ext, trace_defect=trace_defect,
        flux_residual=flux_residual, discretization_defect=discretization_defect,
        condition_estimate=system.condition_estimate,
    )


def solve_transmission(cfg: TransmissionConfig) -> TransmissionSolution:
    """Assemble, solve, and reconstruct in one call."""
    system = assemble_system(cfg)
    g = solve_interface(system)
    return reconstruct(system, g)


@dataclass
class ConvergenceStudy:
    levels: list
    dof: list
    err_l2: list
    err_h12: list
    rate_running: list
    rho_hat: float
    rho_admissible_max: float | None
    reference: str


def convergence_study(cfg: TransmissionConfig, N_list, manufactured=None) -> ConvergenceStudy:
    """Per-level interface errors in band-limited L^2 and H^{1/2} norms.

    With `manufactured` given (a FourierFn or PiecewiseConstantFn g*), the
    rhs at each level is injected as h := -M_N (P_N g*) so the solve
    recovers the projected datum and the reported error is against g*
    itself; otherwise the finest level serves as reference and is excluded
    from the fit.  Norms use a fixed Fourier cutoff (oversampled finest
    level) so levels are compared consistently.  Raises AssertionError
    unless the H^{1/2} errors are monotone nonincreasing with a positive
    fitted rate; both checks are skipped once the errors sit at the
    rounding floor (datum resolved exactly).
    """
    levels = sorted(set(int(n) for n in N_list))
    needed = 2 if manufactured is not None else 3
    if len(levels) < needed:
        raise InsufficientLevels("need at least %d distinct levels, got %r" % (needed, levels))
    p = cfg.params.p
    m_ref = MODE_OVERSAMPLING * p ** max(levels)

    if manufactured is None and cfg.tree_source is not None and cfg.source_depth < max(levels):
        raise DepthBelowChartLevel(
            "tree source lives at depth %d, below the finest study level %d"
            % (cfg.source_depth, max(levels)))

    coeffs = []
    for n in levels:
        if manufactured is not None:
            cfg_n = dataclasses.replace(cfg, level=n, source_depth=None, c_root=0,
                                        tree_source=None, exterior_source=None)
        else:
            sd = cfg.source_depth if cfg.tree_source is not None else max(cfg.source_depth, n)
            cfg_n = dataclasses.replace(cfg, level=n, source_depth=sd)
        system = assemble_system(cfg_n)
        if manufactured is not None:
            datum = np.asarray(circle.cell_averages(system.decomp, manufactured, n), dtype=complex)
            system.h = -system.apply(datum)
        g = solve_interface(system)
        coeffs.append(g.to_fourier(m_ref))

    if manufactured is not None:
        if isinstance(manufactured, PiecewiseConstantFn):
            ref = manufactured.to_fourier(m_ref)
        else:
            ref = manufactured
        fit_idx = list(range(len(levels)))
    else:
        ref = coeffs[-1]
        fit_idx = list(range(len(levels) - 1))

    err_l2, err_h12 = [], []
    for c in coeffs:
        diff = c - ref
        err_l2.append(diff.l2_norm())
        err_h12.append(circle.sobolev_norm_fourier(diff, 0.5))
    fit_levels = [levels[i] for i in fit_idx]
    fit_errs = [max(err_h12[i], 1e-300) for i in fit_idx]
    slope = np.polynomial.polynomial.polyfit(fit_levels, np.log(fit_errs), 1)[1]
    rho_hat = float(-slope / math.log(p)) if p > 1 else float(-slope)

    rate_running = [float("nan")]
    for i in range(1, len(fit_idx)):
        step = fit_levels[i] - fit_levels[i - 1]
        rate_running.append(
            math.log(max(fit_errs[i - 1], 1e-300) / max(fit_errs[i], 1e-300)) / (step * math.log(p)))
    while len(rate_running) < len(levels):
        rate_running.append(float("nan"))

    scale = max(ref.l2_norm(), 1e-300)
    if max(fit_errs) > 1e-12 * scale:
        tol = 1e-12 * max(fit_errs)
        if any(e2 > e1 + tol for e1, e2 in zip(fit_errs, fit_errs[1:])):
            raise AssertionError(
                "interface errors are not monotone nonincreasing: %r" % (fit_errs,))
        if not rho_hat > 0:
            raise AssertionError("fitted rate is not positive: %r" % (rho_hat,))

    sigma = cfg.params.sigma
    rho_max = (1.0 - 2.0 * sigma) / 2.0 if sigma is not None else None
    return ConvergenceStudy(
        levels=levels, dof=[p**n for n in levels], err_l2=err_l2, err_h12=err_h12,
        rate_running=rate_running, rho_hat=rho_hat, rho_admissible_max=rho_max,
        reference="manufactured" if manufactured is not None else "finest level")


def check_pencil_count(count: int) -> None:
    """Raise NonPositiveParameter for a pencil count below 1."""
    if count < 1:
        raise NonPositiveParameter("pencil count must be >= 1, got %d" % count)


def plasmonic_pencil(C, D, count: int = 8):
    """The count generalized eigenvalues alpha of C g = alpha D g nearest zero, nearest first.

    These are the coupling parameters at which -C + alpha D is singular
    (alpha0 = 0).  C must be a real symmetric circulant (InvalidInput
    otherwise) whose eigenvalues lambda = rfft(C[:, 0]) are negative off the
    constants, as for C_N, and D real symmetric positive definite
    (np.linalg.LinAlgError otherwise, which the CLI reports with exit 3).
    The definite pencil is reduced to one standard symmetric problem
    (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 15): with
    S = (-C)^{+1/2}, zero on the constants, u = D 1, s = 1^T u and the
    rank-one update D~ = D - u u^T / s, each eigenvector but the constants
    is D-orthogonal to 1 and has alpha = -1/mu for an eigenvalue mu > 0 of
    K = S D~ S.
    K is one rfft2 of D and its inverse, scaled by root (x) root, root =
    (-lambda)^{-1/2}, with the rank-one term subtracted in Fourier space, so
    the work is one eigvalsh of size n.  The constants' alpha is their
    Rayleigh quotient lambda_0 / (s / n), zero up to rounding; every other
    alpha is negative.  A count below 1 raises NonPositiveParameter.
    """
    check_pencil_count(count)
    C, D = np.asarray(C), np.asarray(D)
    if C.ndim != 2 or C.shape != D.shape or C.shape[0] != C.shape[1] or not C.size:
        raise InvalidInput("pencil matrices must be square and share a level")
    n, col = C.shape[0], C[:, 0]
    if not np.array_equal(C, circulant_view(col)):
        raise InvalidInput("the exterior pencil matrix C must be circulant")
    lam = np.fft.rfft(col).real
    u = D.sum(axis=1)
    s = float(u.sum())
    if not s > 0 or not (lam[1:] < 0).all():
        raise np.linalg.LinAlgError("the pencil (C, D) is not definite")
    root = np.zeros(lam.size)
    root[1:] = (-lam[1:]) ** -0.5
    # K in Fourier space: rfft2(D) minus the transform of u u^T / s, scaled,
    # then inverted axis by axis, so at most two n x (n/2 + 1) arrays live
    z = np.fft.rfft2(D)
    z -= np.multiply.outer(np.fft.fft(u), np.fft.rfft(u) / s)
    z *= np.concatenate((root, root[1:(n + 1) // 2][::-1]))[:, None]
    z *= root
    z = np.fft.ifft(z, axis=0)
    k = np.fft.irfft(z, n, axis=1)
    del z
    mu = np.linalg.eigvalsh(k)
    del k
    # the constants' mu is zero up to rounding; the others are all positive
    # exactly when D is positive definite
    mu = np.delete(mu, np.argmin(np.abs(mu)))[::-1]
    if mu.size and not mu[-1] > 0:
        raise np.linalg.LinAlgError("the pencil matrix D is not positive definite")
    alpha = [lam[0] / (s / n)] + [-1.0 / m for m in mu[: count - 1]]
    return [complex(a) for a in alpha]
