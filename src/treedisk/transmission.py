"""Coupled tree-disk transmission solver on the interface circle.

The interface equation is M g = -h with M = -C + alpha1 D + alpha0, where C
is the exterior DtN map, D the tree DtN map, and alpha0 acts by
multiplication.  Discretization is Galerkin on the piecewise-constant cells
V_N for both operators: D comes from the condensed finite tree (exact on
V_N; dtn.tree_dtn), C from the Fourier symbol at cutoff 16 p^N.  The
right-hand side h = -gamma1 v_f + alpha1 gamma1(c u1 + u_f) collects the
source lifts: v_f solves the exterior problem with zero trace, u_f a tree
Poisson problem with zero trace, and u1 is a root bump carrying the root
value c without contributing any leaf flux.

Sign conventions: both volume equations are driven as Delta u = f (the
exterior solver already uses this convention, so no negation occurs
anywhere), and the solved system is M g = -h.
"""

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import circle
from .calculus import (
    TreeFunction,
    constant_function,
    leaf_flux,
    solve_harmonic_dirichlet,
    solve_poisson_zero_trace,
)
from .circle import FourierFn, MultiscaleDecomposition, PiecewiseConstantFn
# compress is not called here; it stays importable from this module because
# perfbench's tracer test wraps this binding
from .dtn import GalerkinOperator, compress, tree_dtn  # noqa: F401
from .errors import (
    Alpha1Zero,
    DepthBelowChartLevel,
    InsufficientLevels,
    SingularInterfaceOperator,
)
from .exterior import (
    MODE_OVERSAMPLING,
    ExteriorField,
    RadialSource,
    dtn_galerkin,
    dtn_symbol,
    gamma1_exterior,
    solve_exterior_dirichlet,
)
from .tree import FiniteTree, TreeParams, build_condensed

_COND_LIMIT = 1e12


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
    tree_source must live on the condensed tree of params at source_depth
    (default level + 4); that tree is then the source tree of the solve.
    """

    params: TreeParams
    level: int
    alpha1: complex
    alpha0: object = 0.0
    c_root: complex = 0.0
    tree_source: TreeFunction | None = None
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


def _tree_forcing(cfg: TransmissionConfig, tree: FiniteTree) -> TreeFunction | None:
    """f_T - c * Lap(u1) on the source tree, or None when both vanish.

    f_T must live on the condensed tree of cfg.params at source_depth.
    Lap(u1) is the constant 2/l_root^2 on the root edge and zero elsewhere,
    so only generation 0 changes; the other generations are those of f_T,
    or zero-stride zero views without a tree source.
    """
    f = cfg.tree_source
    if f is not None and (f.tree.depth != cfg.source_depth + 1 or not f.tree.condensed
                          or f.tree.params != cfg.params):
        raise DepthBelowChartLevel("tree_source must live on the condensed tree of depth %d"
                                   % (cfg.source_depth + 1))
    if cfg.c_root == 0:
        return f
    if f is None:
        coeffs = [np.broadcast_to(0.0, (tree.p**n, 1)) for n in range(tree.depth + 1)]
    else:
        coeffs = list(f.coeffs)
    root = coeffs[0].astype(complex)
    root[0, 0] -= (2.0 / tree.lengths[0][0] ** 2) * complex(cfg.c_root)
    return TreeFunction(tree, [root] + coeffs[1:])


def _source_lifts(cfg: TransmissionConfig):
    """The source tree, the lifts u_f and v_f, and the per-cell leaf flux of u_f.

    The source tree is the tree of cfg.tree_source, or the condensed tree
    at source_depth when only c_root forces the tree.  Without tree forcing
    the tree and u_f are None (the flux of u_f is then zero), so nothing of
    source_depth is built; v_f is None without an exterior source.
    """
    pn = cfg.params.p**cfg.level
    tree = u_f = None
    flux_f = np.zeros(pn)
    if cfg.tree_source is not None:
        tree = cfg.tree_source.tree
    elif cfg.c_root != 0:
        tree = build_condensed(cfg.params, cfg.source_depth)
    if tree is not None:
        forcing = _tree_forcing(cfg, tree)
        u_f = solve_poisson_zero_trace(tree, forcing)
        flux_f = leaf_flux(u_f).reshape(pn, -1).sum(axis=1)
    v_f = None
    if cfg.exterior_source is not None:
        v_f = solve_exterior_dirichlet(None, cfg.exterior_source, R=cfg.R)
    return tree, u_f, flux_f, v_f


@dataclass
class InterfaceSystem:
    """Assembled level-N matrices and rhs of the interface equation M g = -h.

    It also keeps the source lifts behind h (see `_source_lifts`), from
    which `reconstruct` rebuilds the volume solutions.  tree is None when
    nothing forces the tree; `reconstruct` then builds the source tree.
    """

    decomp: MultiscaleDecomposition
    C: np.ndarray
    D: np.ndarray
    A0: np.ndarray
    h: np.ndarray
    config: TransmissionConfig
    tree: FiniteTree | None
    u_f: TreeFunction | None
    flux_f: np.ndarray
    v_f: ExteriorField | None
    condition_estimate: float | None = None

    @property
    def M(self) -> np.ndarray:
        return -self.C + complex(self.config.alpha1) * self.D + self.A0

    def hermitian_min_eig(self) -> float:
        m = self.M
        return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def assemble_system(cfg: TransmissionConfig) -> InterfaceSystem:
    """Build C_N, D_N, A0_N and the cell integrals of the source term h.

    h_N[K] = int_{Gamma_K} (-gamma1 v_f + alpha1 gamma1(c u1 + u_f)) ds; the
    root bump contributes no flux, so its only effect is the -c Lap(u1)
    forcing inside u_f.
    """
    p = cfg.params.p
    pn = p**cfg.level
    n_max = max(cfg.level, cfg.source_depth + 1) + 1
    decomp = MultiscaleDecomposition(R=cfg.R, p=p, n_max=n_max)
    C = dtn_galerkin(decomp, cfg.level, dtn_symbol(cfg.R, MODE_OVERSAMPLING * pn)).matrix
    D = tree_dtn(cfg.params, cfg.level).matrix
    A0 = np.diag(cfg.alpha0_cells() * decomp.cell_measure(cfg.level))

    tree, u_f, flux_f, v_f = _source_lifts(cfg)
    h = np.zeros(pn, dtype=complex)
    if v_f is not None:
        h -= circle.cell_integrals(decomp, gamma1_exterior(v_f), cfg.level)
    if u_f is not None:
        h += complex(cfg.alpha1) * flux_f
    return InterfaceSystem(decomp=decomp, C=C, D=D, A0=A0, h=h, config=cfg,
                           tree=tree, u_f=u_f, flux_f=flux_f, v_f=v_f)


def solve_interface(sys: InterfaceSystem) -> PiecewiseConstantFn:
    """Solve M g = -h by LU with one refinement step; residual <= 1e-10 ||h||.

    The 1-norm condition number is estimated from the LU factors (LAPACK
    gecon, no SVD); an estimate beyond 1e12 raises SingularInterfaceOperator
    and reports the nearest plasmonic pencil eigenvalue as a diagnostic.
    """
    M = sys.M
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M)
    gecon, = scipy.linalg.get_lapack_funcs(("gecon",), (lu,))
    rcond, _ = gecon(lu, np.linalg.norm(M, 1), norm="1")
    cond = 1.0 / rcond if rcond > 0 else math.inf
    sys.condition_estimate = cond
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        evs = plasmonic_pencil(sys.C, sys.D, count=min(sys.h.size, 8))
        a1 = complex(sys.config.alpha1)
        nearest = min(evs, key=lambda z: abs(z - a1))
        raise SingularInterfaceOperator(
            "interface operator condition %.3e; nearest pencil eigenvalue %r" % (cond, nearest))
    rhs = -sys.h
    g = scipy.linalg.lu_solve((lu, piv), rhs)
    g = g + scipy.linalg.lu_solve((lu, piv), rhs - M @ g)
    if np.abs(g.imag).max() <= 1e-12 * max(np.abs(g).max(), 1e-300):
        g = g.real.astype(float)
    scale = float(np.linalg.norm(sys.h))
    residual = float(np.linalg.norm(M @ g + sys.h))
    if residual > 1e-10 * max(scale, 1e-300):
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
    """

    g: PiecewiseConstantFn
    u_tree: TreeFunction
    u_ext: object
    trace_defect: float
    flux_residual: float
    discretization_defect: float
    condition_estimate: float
    meta: dict


def reconstruct(system: InterfaceSystem, g: PiecewiseConstantFn) -> TransmissionSolution:
    """Rebuild u_T = u + c u1 + u_f and u_Omega = v + v_f from the trace g.

    The flux-condition residual is recomputed from the reconstructed fields
    (leaf fluxes and per-mode derivatives), not from the solved matrices,
    so it is an independent check of the transmission conditions in the
    V_N pairing.  Interface traces match by construction: the tree leaf
    values carry the refined cells of g, the exterior modes carry its
    Fourier coefficients at the assembly cutoff.  The config, the source
    tree and the source lifts all come from `system`, the solved system.
    """
    cfg = system.config
    p = cfg.params.p
    pn = p**cfg.level
    decomp = g.decomp
    tree, u_f, flux_f, v_f = system.tree, system.u_f, system.flux_f, system.v_f
    if tree is None:
        tree = build_condensed(cfg.params, cfg.source_depth)
    refined = np.repeat(g.values, p ** (tree.depth - cfg.level))
    u = solve_harmonic_dirichlet(tree, refined, root_value=0.0)
    flux_u = leaf_flux(u).reshape(pn, -1).sum(axis=1)
    # u_T: one array per generation, a copy of u_f with the columns of
    # u (and of c u1 on the root edge) added one by one; a strided 1-D add
    # is several times faster than one add over the (rows, 2) block
    coeffs = list(u.coeffs)
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
    v = solve_exterior_dirichlet(g_fourier, None, R=cfg.R)
    u_ext = v
    if v_f is not None:
        u_ext = u_ext + v_f

    tree_trace = np.abs(u_T.leaf_values() - refined).max() if pn else 0.0
    diff = u_ext.trace0() - g_fourier
    m = g_fourier.M
    ext_trace = np.abs(diff.coeffs[diff.M - m : diff.M + m + 1]).max()
    trace_defect = float(max(tree_trace, ext_trace))
    if trace_defect > 1e-10:
        raise AssertionError("interface traces disagree by %.3e" % trace_defect)

    flux_ext = circle.cell_integrals(decomp, gamma1_exterior(u_ext), cfg.level)
    flux_tree = leaf_flux(u_T).reshape(pn, -1).sum(axis=1)
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
        g=g, u_tree=u_T, u_ext=u_ext, trace_defect=trace_defect,
        flux_residual=flux_residual, discretization_defect=discretization_defect,
        condition_estimate=system.condition_estimate,
        meta={"level": cfg.level, "solvability": cfg.solvability()},
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


def _projected_datum(manufactured, decomp, p, n):
    """Cell averages of the datum on level n (exact for piecewise constants)."""
    if isinstance(manufactured, PiecewiseConstantFn):
        if n >= manufactured.level:
            return np.asarray(manufactured.refine(n).values, dtype=complex)
        q = p ** (manufactured.level - n)
        return np.asarray(manufactured.values, dtype=complex).reshape(-1, q).mean(axis=1)
    return np.asarray(circle.cell_averages(decomp, manufactured, n), dtype=complex)


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
            system.h = -(system.M @ _projected_datum(manufactured, system.decomp, p, n))
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


def plasmonic_pencil(C, D, count: int = 8):
    """Generalized eigenvalues alpha of C g = alpha D g, nearest zero first.

    These are the coupling parameters at which -C + alpha D is singular
    (alpha0 = 0).  C and D are real symmetric and D is positive definite,
    so the pencil is solved as a symmetric-definite problem (eigh): every
    eigenvalue is real, the constant vector gives alpha = 0 and the rest are
    negative.
    """
    cm = C.matrix if isinstance(C, GalerkinOperator) else np.asarray(C)
    dm = D.matrix if isinstance(D, GalerkinOperator) else np.asarray(D)
    if cm.shape != dm.shape:
        raise ValueError("pencil matrices must share a level")
    vals = scipy.linalg.eigh(cm, dm, eigvals_only=True)[::-1]
    return [complex(v) for v in vals[: min(count, vals.size)]]
