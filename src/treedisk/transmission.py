"""Coupled tree-disk transmission solver on the interface circle.

The interface equation is M g = -h with M = -C + alpha1 D + alpha0, where C
is the exterior DtN map, D the tree DtN map, and alpha0 acts by
multiplication.  Discretization is Galerkin on the piecewise-constant cells
V_N for both operators: D comes from the condensed source tree (exact on
V_N; dtn.tree_dtn_operator), C from the Fourier symbol at cutoff 16 p^N.
The right-hand side h = -gamma1 v_f + alpha1 gamma1 u_f collects the
source lifts: v_f solves the exterior problem with zero trace, and u_f the
tree Poisson problem Lap u_f = f_T with the root value u_f(o) = c and zero
leaf trace, so the root datum is a boundary value of the lift.

At p^N <= dtn._TOP_CELLS = 64 cells M g = -h is solved directly: M is
formed densely (InterfaceSystem.M), and one LU solve of M [g | X] = [-h | I]
gives g and M^{-1}, so the 1-norm condition number is exact.  At that size
a Krylov solve costs more than the 64 x 64 factorization, most of it in
numpy's per-call overhead.  Above 64 cells M g = -h is solved by GMRES,
preconditioned on the right by T. Chan's optimal circulant P of M, and the
condition number is a Hager-Higham 1-norm estimate; M is complex symmetric
(M^T = M), so the estimate applies M and M^{-1} and never an adjoint.  M is
never formed on that path: C is circulant, so it acts by FFT with the
eigenvalues fft(row); D acts by one sweep over its level-N elimination; the
alpha0 mass is a diagonal, and one GMRES step is one fused product
M P^{-1} v: one forward FFT, one batched inverse FFT for P^{-1} v and
-C P^{-1} v, and one D sweep.  The solve runs in the data's arithmetic,
which TransmissionConfig fixes once, when it is built: when alpha1, alpha0,
c_root and the sources are real, h, the mass and M are real, and every
vector, FFT (rfft/irfft), matrix, factorization and Givens rotation is
float64.  C (a read-only circulant view), D and M are properties of
InterfaceSystem, for the pencil and for tests; the pencil reduces to one
symmetric eigvalsh, so no module here needs scipy.

The tree side runs on one tree per solve, the condensed source tree
compressed at level N (tree.build_condensed with level=N), built and
eliminated once at assembly: every generation below N stores one row per
cell, which is exact because the subtrees below N >= N1 are geometric, the
tree forcing is one polynomial per generation, and the leaf data is g,
constant per cell.  D_N, the lifts, the harmonic part and the leaf fluxes
all read its elimination, and cost O(p^N * depth) whatever the source
depth; a cell's flux is its row's flux times the p^(depth - N) leaf edges
under it.  The tree solution is kept in these rows
(TransmissionSolution.u_rows) and is never expanded to the full tree.

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
    leaf_flux,
    solve_harmonic_dirichlet,
    solve_poisson_zero_trace,
)
from .circle import MultiscaleDecomposition, PiecewiseConstantFn
# compress is not called here; it stays importable from this module because
# perfbench's tracer test wraps this binding
from .dtn import _TOP_CELLS, TreeDtN, compress, tree_dtn_operator  # noqa: F401
from .errors import (
    Alpha1Zero,
    AssemblyTooLarge,
    DepthBelowChartLevel,
    DepthMismatch,
    InsufficientLevels,
    InvalidInput,
    NonPositiveParameter,
    NumericalCheckFailed,
    SingularInterfaceOperator,
)
from .exterior import (
    MODE_OVERSAMPLING,
    ExteriorField,
    RadialSource,
    circulant_view,
    dtn_symbol,
    galerkin_row,
    solve_exterior_dirichlet,
)
from .tree import FiniteTree, TreeParams, build_condensed, check_tree_budget, require_valid

_COND_LIMIT = 1e12

# GMRES stops at a relative residual of 1e-12 (1e-13 stagnates above the
# rounding floor).  With the Chan preconditioner it takes 7-8 steps at every
# level for a constant alpha0, and up to about 55 for a rough per-cell one;
# a solve that needs more than _KRYLOV_MAX_ITER has failed.  The refinement
# solve starts from a residual of about 1e-12 ||h||, so 1e-4 of its own rhs
# takes it to rounding level (3 steps instead of 7).  The estimate's inner
# solves keep _KRYLOV_RTOL: at 1e-6 the inverse-norm estimate overshoots the
# exact ||M^{-1}||_1.
_KRYLOV_RTOL = 1e-12
_REFINE_RTOL = 1e-4
_KRYLOV_MAX_ITER = 100
# rows of the GMRES basis allocated at first; the basis doubles when full.
# All _KRYLOV_MAX_ITER + 1 rows at once give the same bits but are slower:
# on p = 2 solves with a rough complex alpha0 (10^U(-3, 3) e^(i U(-1.5, 1.5))
# per cell; 2-vCPU host, BLAS on one thread) one solve_interface took
# 1.93-2.02 s against 1.45-1.62 s at N = 16 (127 GMRES steps, though it
# peaked 17 MiB lower without the doubling's copy), and at N = 12 (371
# steps) it peaked 1.3-3.5 MiB higher.
_BASIS_ROWS = 16


def _exact_real(x) -> np.ndarray:
    """x as float64 when its imaginary parts are exactly 0, else as complex128.

    No copy is made when x has the dtype already (the real part of a
    complex x is a view).  Scalars come back as 0-d arrays; index with [()]
    for a numpy scalar.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x) and x.imag.any():
        return x.astype(complex, copy=False)
    return x.real.astype(float, copy=False)


@dataclass(frozen=True)
class TransmissionConfig:
    """Data of the transmission problem and its discretization level.

    alpha0 may be a scalar or a per-cell array at the solve level (the
    cellwise realization of a bounded multiplication coefficient).
    tree_source is the tree forcing f_T as a (source_depth + 2, q + 1)
    array: row n holds the ascending coefficients of the polynomial on
    every edge of generation n of the condensed tree at source_depth
    (default level + 4), whose generations run from 0 to source_depth + 1.

    Building the frozen config is the one place the data are typed and
    checked: alpha1 and c_root become numpy scalars, alpha0 and tree_source
    arrays, float64 when their imaginary parts are exactly 0, else
    complex128 (_exact_real).  Then the tree's structural conditions
    (tree.require_valid, StructuralConditionViolated), the tree budget
    (tree.check_tree_budget, by exponent first), the length of alpha0
    (InvalidInput) and the shape of tree_source (DepthMismatch) are
    checked, so a config that exists is valid.  The 16 p^N exterior modes
    are formed a block at a time, so the mode budget does not bound a
    solve.  dataclasses.replace changes one and checks again.
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
        def store(name, value):
            object.__setattr__(self, name, value)

        store("alpha1", _exact_real(self.alpha1)[()])
        store("c_root", _exact_real(self.c_root)[()])
        store("alpha0", _exact_real(self.alpha0))
        if self.tree_source is not None:
            store("tree_source", _exact_real(self.tree_source))
        if self.alpha1 == 0:
            raise Alpha1Zero("alpha1 must be nonzero")
        if self.level < max(self.params.N1, 0):
            raise DepthBelowChartLevel(
                "level %d below the geometric generation %d" % (self.level, self.params.N1))
        if self.source_depth is None:
            store("source_depth", self.level + 4)
        if self.source_depth < self.level:
            raise DepthBelowChartLevel("source depth below solve level")
        if self.exterior_source is not None and abs(self.exterior_source.R - self.R) > 1e-12 * self.R:
            raise ValueError("exterior source annulus must start at the interface radius")
        require_valid(self.params)
        check_tree_budget(self.params, self.source_depth + 1, self.level)
        n = self.params.p**self.level
        if self.alpha0.size not in (1, n):
            raise InvalidInput("alpha0 needs 1 or %d values, got %d" % (n, self.alpha0.size))
        f = self.tree_source
        if f is not None and (f.ndim != 2 or f.shape[0] != self.source_depth + 2 or not f.shape[1]):
            raise DepthMismatch("tree_source needs one coefficient row per generation, shape "
                                "(%d, q + 1), got %r" % (self.source_depth + 2, f.shape))

    def alpha0_cells(self) -> np.ndarray:
        """alpha0 per level-N cell as a read-only broadcast, in alpha0's dtype."""
        return np.broadcast_to(self.alpha0.ravel(), self.params.p**self.level)

    def solvability(self) -> dict:
        """The two sign conditions under which M is provably injective."""
        a1 = complex(self.alpha1)
        a0 = self.alpha0_cells()
        case_i = a1.real >= 0 and a0.real.min() >= 0 and a1.real + a0.real.min() > 0
        case_ii = a1.imag >= 0 and a0.imag.min() >= 0 and a1.imag + a0.imag.min() > 0
        return {"case_i": bool(case_i), "case_ii": bool(case_ii)}


def _tree_forcing(cfg: TransmissionConfig, tree: FiniteTree) -> TreeFunction:
    """The tree forcing f_T on the compressed source tree.

    Generation n is row n of cfg.tree_source on every row of the tree, a
    read-only zero-stride view (zero without a tree source), and the tail
    generations are one such view of their rows.  The forcing is real when
    tree_source has no imaginary part (TransmissionConfig types it).
    """
    f = cfg.tree_source
    if f is None:
        f = np.zeros((tree.depth + 1, 1))
    level, q = tree.level, f.shape[1]
    coeffs = [np.broadcast_to(f[n], (tree.rows[n], q)) for n in range(level + 1)]
    tail = np.broadcast_to(f[level + 1 :, None], (tree.depth - level, tree.rows[-1], q))
    return TreeFunction(tree, coeffs, tail)


def _added(a, b) -> np.ndarray:
    """A copy of the coefficients a with the columns of b added one by one;
    a strided add per column is several times faster than one add over the
    (rows, 2) block."""
    c = a.astype(np.result_type(a, b))
    for j in range(b.shape[-1]):
        c[..., j] += b[..., j]
    return c


def _cell_flux(f: TreeFunction) -> np.ndarray:
    """Leaf flux of f summed over each level-N cell of its compressed tree.

    The leaf rows are the cells, and each stands for p^(depth - N) leaf
    edges with the same flux.
    """
    return leaf_flux(f) * f.tree.multiplicity(f.tree.depth)


def _circulant(eigs, x) -> np.ndarray:
    """The circulants with eigenvalues eigs (on the fft basis, last axis) applied to x.

    Real x and eigs, eigs symmetric (eigs[k] = eigs[n - k]), take rfft and
    irfft with eigs[..., : n//2 + 1] and give real output; anything else
    takes the complex fft.
    """
    n = x.size
    if np.isrealobj(x) and np.isrealobj(eigs):
        return np.fft.irfft(eigs[..., : n // 2 + 1] * np.fft.rfft(x), n)
    return np.fft.ifft(eigs * np.fft.fft(x))


@dataclass
class InterfaceSystem:
    """Level-N operators and rhs of the interface equation M g = -h.

    c_row is the circulant row of C_N (exterior.galerkin_row) and dtn is
    D_N as its level-N elimination; neither is a p^N x p^N array.  C is
    the read-only circulant view of c_row (exterior.circulant_view), which
    stores 2 p^N values; D and M are dense properties, built on each
    access within the dense operator budget.  apply, precond and
    apply_preconditioned act without forming M, for the GMRES solve above
    64 cells; at or below 64 cells solve_interface forms M.  alpha1 is
    config.alpha1, typed by the config.  mass is the diagonal of the alpha0
    mass matrix: alpha0 times the cell measure, per cell.  mass and h are
    float64 when the data are real, and M is then real symmetric.
    The system also keeps what the reconstruction reads: tree, the source
    tree compressed at the solve level, whose elimination dtn shares; the
    Poisson lift u_f on it and its per-cell leaf flux flux_f; and the
    exterior lift v_f, whose source-mode coefficients b_k the exterior
    solve with trace g reuses.  Without tree forcing u_f is None and flux_f
    is zero; without an exterior source v_f is None.  condition_estimate
    is not a constructor argument: solve_interface records it, and it is
    None before the solve.
    """

    decomp: MultiscaleDecomposition
    c_row: np.ndarray
    tree: FiniteTree
    dtn: TreeDtN
    mass: np.ndarray
    h: np.ndarray
    config: TransmissionConfig
    u_f: TreeFunction | None
    flux_f: np.ndarray
    v_f: ExteriorField | None = None
    condition_estimate: float | None = dataclasses.field(default=None, init=False)

    @property
    def dtype(self) -> np.dtype:
        """float64 when M is real, else complex128."""
        return np.result_type(self.config.alpha1, self.mass)

    @property
    def C(self) -> np.ndarray:
        return circulant_view(self.c_row)

    @property
    def D(self) -> np.ndarray:
        return self.dtn.matrix

    @property
    def M(self) -> np.ndarray:
        """alpha1 D - C + diag(mass), dense, in the dtype of M."""
        M = self.D.astype(self.dtype)
        M *= self.config.alpha1
        M -= self.C
        M[np.diag_indices_from(M)] += self.mass
        return M

    @cached_property
    def c_eigs(self) -> np.ndarray:
        """Eigenvalues of C_N on the fft basis: fft of its circulant row."""
        return np.fft.fft(self.c_row).real

    @cached_property
    def chan_eigs(self) -> np.ndarray:
        """Eigenvalues e of T. Chan's optimal circulant P of M on the fft basis.

        P = -lambda_C + alpha1 chan(D) + mean(mass) (SIAM J. Sci. Stat.
        Comput. 9, 1988), real when M is.  A singular M can zero an
        eigenvalue exactly (a pencil eigenvector that is a Fourier mode);
        eps keeps P invertible.
        """
        eigs = self.config.alpha1 * self.dtn.chan_eigs() - self.c_eigs + self.mass.mean()
        eigs[eigs == 0] = np.finfo(float).eps * np.abs(eigs).max()
        return eigs

    @cached_property
    def _step_eigs(self) -> np.ndarray:
        """[1/e; -lambda_C/e]: P^{-1} and -C P^{-1} on the fft basis."""
        return np.stack((1.0 / self.chan_eigs, -self.c_eigs / self.chan_eigs))

    def apply(self, x) -> np.ndarray:
        """M x in the dtype of x and M: C by FFT, D by its tree sweep, the mass as a diagonal."""
        return self.config.alpha1 * self.dtn.apply(x) - _circulant(self.c_eigs, x) + self.mass * x

    def precond(self, x) -> np.ndarray:
        """P^{-1} x by two FFTs."""
        return _circulant(self._step_eigs[0], x)

    def apply_preconditioned(self, x) -> np.ndarray:
        """M P^{-1} x by one fused FFT step.

        One forward and one batched inverse FFT, then one D sweep: the
        inverse FFT of fft(x) [1/e; -lambda_C/e] gives y = P^{-1} x and
        -C y together, and M y = alpha1 D y + (-C y) + mass y.
        """
        y, minus_cy = _circulant(self._step_eigs, x)
        return self.config.alpha1 * self.dtn.apply(y) + minus_cy + self.mass * y


def assemble_system(cfg: TransmissionConfig) -> InterfaceSystem:
    """Build the C_N row, the source tree, the alpha0 mass and the cell integrals of h.

    h_N[K] = int_{Gamma_K} (-gamma1 v_f + alpha1 gamma1 u_f) ds, where the
    one tree lift u_f solves Lap u_f = f_T with u_f(o) = c and zero leaf
    trace.  The source tree is built and eliminated once, forced or not:
    D_N is read off its elimination, u_f is solved on it when forced
    (tree_source or c_root), and reconstruct_tree solves the
    harmonic part on it.  v_f only enters h.  h is formed in the dtype of
    its terms: the cell integrals of gamma1 v_f are real when its
    modes are conjugate-symmetric bit for bit, and the other terms are real
    when alpha1, c_root and tree_source have no imaginary part.  The tree
    budget, the length of alpha0 and the shape of tree_source were checked
    when cfg was built (TransmissionConfig), so nothing is refused here once
    work has started; nothing here is p^N x p^N, and the DtN symbol -|k|/R
    at cutoff 16 p^N is folded into c_row a block of modes at a time
    (exterior.ExteriorSymbol), never held whole.
    """
    p = cfg.params.p
    pn = p**cfg.level
    symbol = dtn_symbol(cfg.R, MODE_OVERSAMPLING * pn)
    tree = build_condensed(cfg.params, cfg.source_depth, level=cfg.level)
    dtn = tree_dtn_operator(tree)
    n_max = max(cfg.level, cfg.source_depth + 1) + 1
    decomp = MultiscaleDecomposition(R=cfg.R, p=p, n_max=n_max)
    c_row = galerkin_row(decomp, cfg.level, symbol)
    mass = cfg.alpha0_cells() * decomp.cell_measure(cfg.level)

    h = np.zeros(pn)
    v_f = None
    if cfg.exterior_source is not None:
        v_f = solve_exterior_dirichlet(None, cfg.exterior_source)
        # gamma1 v_f over its few source modes (v_f has no data)
        flux = circle.FourierFn(v_f.R, v_f.trace1_of(-v_f.M, *v_f.block(-v_f.M, v_f.M + 1)))
        flux_integrals = circle.cell_integrals(decomp, flux, cfg.level)
        # conjugate-symmetric modes integrate to real cell values; the
        # imaginary parts of the fold are rounding only
        h = h - (flux_integrals.real if flux.is_real() else flux_integrals)
    u_f = None
    flux_f = np.zeros(pn)
    if cfg.tree_source is not None or cfg.c_root != 0:
        u_f = solve_poisson_zero_trace(tree, _tree_forcing(cfg, tree), cfg.c_root)
        flux_f = _cell_flux(u_f)
        h = h + cfg.alpha1 * flux_f
    return InterfaceSystem(decomp=decomp, c_row=c_row, tree=tree, dtn=dtn, mass=mass, h=h,
                           config=cfg, u_f=u_f, flux_f=flux_f, v_f=v_f)


class _Unconverged(Exception):
    """An inner GMRES solve missed _KRYLOV_RTOL within _KRYLOV_MAX_ITER steps."""


def _givens(a, b: float):
    """(c, s, r): c real, [[c, s], [-conj(s), c]] maps (a, b) to (r, 0), for b >= 0.

    At a = 0 the phase of a is 1, which gives (0, 1, b) exactly.
    """
    if b == 0:
        return 1.0, 0.0, a
    r = math.hypot(abs(a), b)
    phase = a / abs(a) if a else 1.0
    return abs(a) / r, phase * b / r, phase * r


def _ldexp(x, e: int) -> np.ndarray:
    """x 2^e, exact where it stays normal: ldexp of x's real and imaginary
    parts, as 2^e itself can overflow."""
    x = np.ascontiguousarray(x)
    return np.ldexp(x.view(np.float64), e).view(x.dtype)


def _gmres(step, precond, b, rtol=_KRYLOV_RTOL):
    """(x, converged): ||b - A x|| <= rtol ||b|| when converged.

    Full GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) on
    A P^{-1}, x = P^{-1} y: with the preconditioner on the right the
    least-squares residual that Givens rotations track is the residual of
    A x itself.  step applies A P^{-1} and precond P^{-1}; both must keep
    the dtype of b, in which all the work runs.  The Arnoldi vectors are
    orthogonalized by classical Gram-Schmidt run twice; there is no
    restart, and at most min(_KRYLOV_MAX_ITER, n) steps.  The basis starts
    as an array of _BASIS_ROWS rows and doubles when full, up to one row
    more than the steps.  Each Hessenberg column is rotated as Python
    scalars and kept as a list, and y comes from back substitution over
    those columns.  Without convergence x is the minimal-residual iterate
    after the last step.  solve_interface hands it a b of unit scale, so
    its norms neither underflow nor overflow.
    """
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return np.zeros(b.size, dtype=b.dtype), True
    steps = min(_KRYLOV_MAX_ITER, b.size)
    basis = np.empty((min(_BASIS_ROWS, steps + 1), b.size), dtype=b.dtype)
    basis[0] = b / scale
    cols, rot, rhs = [], [], [scale]
    converged = False
    for j in range(steps):
        w = step(basis[j])
        # conj(V) w as conj(V conj(w)): one vector is conjugated, not V
        coef = (basis[: j + 1] @ w.conj()).conj()
        w -= coef @ basis[: j + 1]
        again = (basis[: j + 1] @ w.conj()).conj()
        w -= again @ basis[: j + 1]
        coef += again
        norm = float(np.linalg.norm(w))
        col = coef.tolist()
        for i, (c, s) in enumerate(rot):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s.conjugate() * col[i]
        c, s, col[j] = _givens(col[j], norm)
        rot.append((c, s))
        cols.append(col)
        rhs.append(-s.conjugate() * rhs[j])
        rhs[j] *= c
        residual = abs(rhs[j + 1])
        converged = residual <= rtol * scale
        if converged or norm == 0.0 or not math.isfinite(residual):
            break
        if j + 1 == len(basis):
            grown = np.empty((min(2 * len(basis), steps + 1), b.size), dtype=b.dtype)
            grown[: len(basis)] = basis
            basis = grown
        basis[j + 1] = w / norm
    # a zero pivot means A P^{-1} is singular on the Krylov space: the
    # iterate stops before it
    k = next((j for j, col in enumerate(cols) if col[j] == 0), len(cols))
    y, r = [], rhs[:k]
    for col in reversed(cols[:k]):
        yj = r.pop() / col[len(r)]
        r = [ri - ci * yj for ri, ci in zip(r, col)]
        y.append(yj)
    y.reverse()
    return precond(np.array(y, dtype=b.dtype) @ basis[:k]), converged and k == len(cols)


def _inverse(step, precond):
    """x -> A^{-1} x by preconditioned GMRES, raising _Unconverged on a missed tolerance."""
    def solve(x):
        y, converged = _gmres(step, precond, x)
        if not converged:
            raise _Unconverged
        return y
    return solve


def _sign(y):
    """y / |y| entrywise, 1 where y vanishes: LAPACK zlacn2, and dlacn2's +-1 for real y."""
    mag = np.abs(y)
    out = np.ones(y.size, dtype=y.dtype)
    nz = mag > np.finfo(float).tiny
    out[nz] = y[nz] / mag[nz]
    return out


def _norm1_estimate(apply, n: int, dtype) -> float:
    """Lower bound on ||A||_1 from products with a symmetric A: LAPACK's zlacn2 or dlacn2.

    Hager's method as refined by Higham (ACM TOMS 14, 1988), the estimator
    behind LAPACK's condition numbers: a power-like iteration on unit
    vectors e_j, at most five rounds, then the alternating-sign test vector.
    It reads A^H s only through |A^H s|, which is |A conj(s)| when
    A^T = A, so A is the only operator it applies.  The test vectors are of
    the given dtype: float64 for a real A runs dlacn2, whose signs are those
    zlacn2 takes for a real y.  It runs on the GMRES path alone, so n > 64.
    """
    y = apply(np.full(n, 1.0 / n, dtype=dtype))
    est = float(np.abs(y).sum())
    j = int(np.argmax(np.abs(apply(_sign(y).conj()))))
    for _ in range(4):
        x = np.zeros(n, dtype=dtype)
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
    return max(est, 2.0 * float(np.abs(apply(alt.astype(dtype))).sum()) / (3.0 * n))


def _check_condition(sys: InterfaceSystem, cond: float) -> None:
    """Record cond as sys.condition_estimate; raise SingularInterfaceOperator beyond _COND_LIMIT.

    An infinite or NaN cond raises too.  The message names the plasmonic
    pencil eigenvalue nearest alpha1 when the dense pencil fits its budget.
    """
    sys.condition_estimate = cond
    if math.isfinite(cond) and cond <= _COND_LIMIT:
        return
    message = "interface operator condition %.3e" % cond
    try:
        evs = plasmonic_pencil(sys.C, sys.D, count=min(sys.h.size, 8))
    except AssemblyTooLarge:
        evs = []
    if evs:
        a1 = complex(sys.config.alpha1)
        message += "; nearest pencil eigenvalue %r" % min(evs, key=lambda z: abs(z - a1))
    raise SingularInterfaceOperator(message)


def solve_interface(sys: InterfaceSystem) -> PiecewiseConstantFn:
    """Solve M g = -h, directly at p^N <= 64 cells, else by GMRES; residual <= 1e-10 ||h||.

    Everything runs in the dtype of M and h: float64 when alpha1, alpha0
    and h are real, else complex128.  At p^N <= dtn._TOP_CELLS = 64 cells
    M is formed densely (InterfaceSystem.M, far inside the dense budget)
    and one LU solve of M [g | X] = [-h | I] gives g and X = M^{-1}, so the
    condition number ||M||_1 ||X||_1 is exact; an exactly singular M
    (np.linalg.LinAlgError) has condition inf.  Above 64 cells M acts
    matrix-free (InterfaceSystem.apply): GMRES is preconditioned on the
    right by T. Chan's optimal circulant P of M (InterfaceSystem.chan_eigs),
    and each step is InterfaceSystem.apply_preconditioned, one forward FFT,
    one batched inverse FFT for P^{-1} v and -C P^{-1} v, and one D sweep.
    That solve stops at _KRYLOV_RTOL; its refinement step solves for the
    residual to _REFINE_RTOL of that residual, which is rounding level.
    Its 1-norm condition number is the Hager-Higham estimate of ||M||_1
    times that of ||M^{-1}||_1.  C and D are real symmetric and the mass is
    diagonal, so M^T = M and both estimates need products with M alone:
    those with M^{-1} are GMRES solves to _KRYLOV_RTOL, and the estimate is
    inf when one of them misses its tolerance.  A condition number beyond
    1e12 raises SingularInterfaceOperator and reports the nearest plasmonic
    pencil eigenvalue as a diagnostic when the dense pencil fits its budget.
    h is scaled by 2^-e, e the exponent of max|h| (math.frexp), and the
    solve runs at that unit scale, where no norm of GMRES or of the
    residual gate, residual <= 1e-10 ||h||, underflows or overflows; g is
    scaled back by 2^e.  Scaling by a power of two is exact and every step
    of the solve is linear, so g is that of the unscaled solve bit for bit,
    and data of any normal scale solve alike.  An h that is not finite, or
    whose largest entry is subnormal (too few digits to solve for), raises
    NumericalCheckFailed before the solve.
    """
    n = sys.h.size
    big = float(np.abs(sys.h).max())
    if not math.isfinite(big):
        raise NumericalCheckFailed("the right-hand side h is not finite")
    if 0.0 < big < np.finfo(float).tiny:
        raise NumericalCheckFailed("max|h| = %.3e is subnormal: the sources are too small to "
                                   "solve for in float64" % big)
    e = math.frexp(big)[1]
    h = _ldexp(sys.h, -e)
    dtype = np.result_type(sys.dtype, h)
    rhs = -h.astype(dtype)
    if n <= _TOP_CELLS:
        M = sys.M
        apply = M.__matmul__
        try:
            X = np.linalg.solve(M, np.column_stack((rhs, np.eye(n, dtype=dtype))))
        except np.linalg.LinAlgError:
            cond = math.inf
        else:
            cond = float(np.linalg.norm(M, 1) * np.linalg.norm(X[:, 1:], 1))
        # an infinite cond raises, so X exists past this check
        _check_condition(sys, cond)
        g = X[:, 0]
    else:
        apply = sys.apply
        step, precond = sys.apply_preconditioned, sys.precond
        try:
            inverse_norm = _norm1_estimate(_inverse(step, precond), n, dtype)
        except _Unconverged:
            inverse_norm = math.inf
        _check_condition(sys, _norm1_estimate(apply, n, dtype) * inverse_norm)
        g, _ = _gmres(step, precond, rhs)
        g = g + _gmres(step, precond, rhs - apply(g), _REFINE_RTOL)[0]
    scale = float(np.linalg.norm(h))
    residual = float(np.linalg.norm(apply(g) + h))
    if not residual <= 1e-10 * scale:
        raise SingularInterfaceOperator(
            "residual %.3e exceeds 1e-10 of ||h|| = %.3e, h scaled by 2^%d (condition %.3e)"
            % (residual, scale, -e, sys.condition_estimate))
    return PiecewiseConstantFn(sys.decomp, sys.config.level, _ldexp(g, e))


@dataclass
class TransmissionSolution:
    """Reconstructed two-sided solution with its consistency defects.

    flux_residual tests the flux transmission condition in the V_N pairing
    using only the reconstructed fields; it is bounded by the solver
    tolerance plus discretization_defect, the band-limitation error of the
    alpha0 mass term (the exterior trace carries finitely many modes while
    the assembled mass matrix integrates the cell functions exactly).
    u_rows is the tree solution on the compressed source tree, one row per
    cell below the solve level.
    """

    g: PiecewiseConstantFn
    u_rows: TreeFunction
    u_ext: object
    trace_defect: float
    flux_residual: float
    discretization_defect: float
    condition_estimate: float


@dataclass
class TreeSolution:
    """The tree side of a reconstruction (reconstruct_tree).

    u_rows is u_T = u + u_f on the compressed source tree, one row per
    cell below the solve level; flux_u is the per-cell leaf flux of
    its harmonic part u, which the flux residual's scale needs.
    """

    u_rows: TreeFunction
    flux_u: np.ndarray


def reconstruct_tree(system: InterfaceSystem, g: PiecewiseConstantFn) -> TreeSolution:
    """The first step of the reconstruction: u_T = u + u_f from the trace g.

    u is harmonic on the source tree with leaf values g and root value 0,
    and the lift u_f carries the root datum c.  u_f and the source tree
    come from `system`, the solved system, so the harmonic solve reuses
    the elimination that assembly made for D_N and u_f.  This step needs
    no exterior mode; the CLI starts writing tree.csv from it, a record per
    stored row of u_T and coefficient, while `reconstruct`, the second
    step, runs.
    """
    u_f, tree = system.u_f, system.tree
    # the leaf rows of the compressed tree are the cells, so g itself is
    # the leaf data
    u = solve_harmonic_dirichlet(tree, g.values)
    flux_u = _cell_flux(u)
    # u_T: a copy of u_f with the columns of u added, one array per
    # generation up to the level and one block for the tail; each of u's
    # arrays is freed once it is added
    coeffs, tail = u.coeffs[: tree.level + 1], u.tail
    del u
    if u_f is not None:
        for n, cf in enumerate(u_f.coeffs[: tree.level + 1]):
            coeffs[n] = _added(cf, coeffs[n])
        tail = _added(u_f.tail, tail)
    return TreeSolution(u_rows=TreeFunction(tree, coeffs, tail), flux_u=flux_u)


def reconstruct(system: InterfaceSystem, g: PiecewiseConstantFn,
                tree_side: TreeSolution) -> TransmissionSolution:
    """The second step of the reconstruction: u_Omega = v + v_f from the
    trace g, and the checks of both sides against each other.

    tree_side is reconstruct_tree(system, g), with u_T.  u_Omega is
    one exterior solve with trace g and the exterior source, which by
    linearity is v + v_f.  The flux-condition residual is recomputed from
    the reconstructed fields (leaf fluxes and per-mode derivatives), not
    from the solved matrices, so it is an independent check of the
    transmission conditions in the V_N pairing.  Interface traces match by
    construction: the leaf rows of the compressed source tree carry the
    cells of g, the exterior modes carry its Fourier coefficients at the
    assembly cutoff, so the traces differ by rounding at the scale of g.  A
    trace defect above 1e-10 2^e, e the exponent of max|g| (math.frexp, as
    solve_interface scales h), or NaN, raises NumericalCheckFailed; the
    defect is reported unscaled.  The exterior solve takes the source
    modes' b_k from system.v_f, so no source integral is computed twice.

    No array over the 2 * 16 p^N + 1 exterior modes is held: g's modes
    (circle.CellModes, one fft of g) and the field's traces are formed in
    one pass, a block of circle.mode_blocks at a time; the trace defect is
    a maximum over blocks, and the exterior cell fluxes and the alpha0 mass
    are running folds (circle.Fold), which share one set of twiddles.  The
    results are those of folding whole arrays, bit for bit.
    """
    cfg = system.config
    pn = cfg.params.p**cfg.level
    decomp = g.decomp
    u_T, flux_u, flux_f = tree_side.u_rows, tree_side.flux_u, system.flux_f

    m = MODE_OVERSAMPLING * pn
    g_modes = circle.CellModes(g, m)
    u_ext = solve_exterior_dirichlet(g_modes, cfg.exterior_source, lift=system.v_f)

    # one pass over the modes, each block of g's modes formed once: the
    # trace defect and the alpha0 mass (the fold of g's modes) over |k| <= m,
    # the exterior flux (the fold of the conormal trace) over |k| <= u_ext.M
    mass_fold, flux_fold = circle.Fold(m, pn), circle.Fold(u_ext.M, pn)
    ext_trace = []
    for lo, hi in circle.mode_blocks(max(m, u_ext.M), pn):
        g_k = g_modes.block(lo, hi)
        a, b = u_ext.block(lo, hi, g_k.copy())
        inner = slice(max(-m - lo, 0), max(m + 1 - lo, 0))
        if g_k[inner].size:
            ext_trace.append(np.abs(u_ext.trace0_of(lo, a, b) - g_k)[inner].max())
            mass_fold.add(g_k[inner])
        flux_fold.add(u_ext.trace1_of(lo, a, b)[max(-u_ext.M - lo, 0) : max(u_ext.M + 1 - lo, 0)])

    tree_trace = np.abs(u_T.leaf_values() - g.values).max()
    trace_defect = float(max(tree_trace, np.max(ext_trace)))
    bound = math.ldexp(1e-10, math.frexp(float(np.abs(g.values).max()))[1])
    if not trace_defect <= bound:
        raise NumericalCheckFailed("interface traces disagree by %.3e, beyond %.3e (1e-10 "
                                   "at the scale of max|g|)" % (trace_defect, bound))

    phases = circle.twiddles(pn)
    measure = decomp.cell_measure(cfg.level)
    flux_ext = flux_fold.averages(phases) * measure
    flux_tree = _cell_flux(u_T)
    a0 = cfg.alpha0_cells()
    mass = a0 * (mass_fold.averages(phases) * measure)
    mass_exact = a0 * measure * g.values
    resid_vec = flux_ext - cfg.alpha1 * flux_tree - mass
    # normalize by the pre-cancellation flux magnitudes (the harmonic tree
    # flux and the source flux can cancel when g is nearly constant); no
    # floor, so data of any normal scale read the same bits, and 0 at scale 0
    a1 = abs(cfg.alpha1)
    scale = max(np.abs(flux_ext).max(), a1 * np.abs(flux_u).max(),
                a1 * np.abs(flux_f).max(), np.abs(mass).max())
    flux_residual = float(np.abs(resid_vec).max() / scale) if scale else 0.0
    discretization_defect = float(np.abs(mass - mass_exact).max() / scale) if scale else 0.0
    return TransmissionSolution(
        g=g, u_rows=u_T, u_ext=u_ext, trace_defect=trace_defect,
        flux_residual=flux_residual, discretization_defect=discretization_defect,
        condition_estimate=system.condition_estimate,
    )


def solve_transmission(cfg: TransmissionConfig) -> TransmissionSolution:
    """Assemble, solve, and reconstruct in one call: the tree side
    (reconstruct_tree), then the exterior side and the checks (reconstruct)."""
    system = assemble_system(cfg)
    g = solve_interface(system)
    return reconstruct(system, g, reconstruct_tree(system, g))


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
    level) so levels are compared consistently.  Raises
    NumericalCheckFailed when an error or the fitted rate is not finite, or
    unless the H^{1/2} errors are monotone nonincreasing with a positive
    fitted rate; these two checks are skipped once the errors sit at the
    rounding floor, at most 1e-12 times the reference's L^2 norm (datum
    resolved exactly, or a zero solution).  A tree of p = 1, where every
    level has one cell, raises InvalidInput.  The finest level's config is
    built first, so its tree budget is checked before any level is solved.
    Each level's modes at the cutoff m_ref = 16 p^N_max are formed from its
    cells (circle.CellModes) and both norms of its difference from the
    reference are summed one block at a time (circle.sobolev_norms), so no
    array over the 2 m_ref + 1 modes is held and no mode budget applies.
    """
    levels = sorted(set(int(n) for n in N_list))
    needed = 2 if manufactured is not None else 3
    if len(levels) < needed:
        raise InsufficientLevels("need at least %d distinct levels, got %r" % (needed, levels))
    p = cfg.params.p
    if p == 1:
        raise InvalidInput("a level study needs p >= 2: at p = 1 every level has one cell")

    if manufactured is None and cfg.tree_source is not None and cfg.source_depth < max(levels):
        raise DepthBelowChartLevel(
            "tree source lives at depth %d, below the finest study level %d"
            % (cfg.source_depth, max(levels)))

    def level_config(n):
        if manufactured is not None:
            return dataclasses.replace(cfg, level=n, source_depth=None, c_root=0,
                                       tree_source=None, exterior_source=None)
        sd = cfg.source_depth if cfg.tree_source is not None else max(cfg.source_depth, n)
        return dataclasses.replace(cfg, level=n, source_depth=sd)

    # building the finest config checks its tree budget (by exponent, so
    # before p^level is formed) before any level is solved
    level_config(max(levels))
    m_ref = MODE_OVERSAMPLING * p ** max(levels)

    modes = []
    for n in levels:
        system = assemble_system(level_config(n))
        if manufactured is not None:
            datum = np.asarray(circle.cell_averages(system.decomp, manufactured, n), dtype=complex)
            system.h = -system.apply(datum)
        modes.append(circle.CellModes(solve_interface(system), m_ref))

    if manufactured is not None:
        if isinstance(manufactured, PiecewiseConstantFn):
            ref = circle.CellModes(manufactured, m_ref)
        else:
            ref = manufactured
        fit_idx = list(range(len(levels)))
    else:
        ref = modes[-1]
        fit_idx = list(range(len(levels) - 1))

    err_l2, err_h12 = [], []
    for c in modes:
        # the finest level as reference differs from itself by exactly 0
        l2, h12 = (0.0, 0.0) if c is ref else circle.sobolev_norms(circle.ModeDifference(c, ref), 0, 0.5)
        err_l2.append(l2)
        err_h12.append(h12)
    fit_levels = [levels[i] for i in fit_idx]
    fit_errs = [max(err_h12[i], 1e-300) for i in fit_idx]
    # the least-squares slope of the log errors over the levels, in centred
    # form; the logs are taken relative to the first, which leaves the slope
    # as it is and makes equal errors (a zero solution's, floored) fit 0
    x = np.array(fit_levels, dtype=float)
    x -= x.mean()
    y = np.log(fit_errs)
    rho_hat = float(x @ (y[0] - y) / (x @ x) / math.log(p))

    rate_running = [float("nan")]
    for i in range(1, len(fit_idx)):
        step = fit_levels[i] - fit_levels[i - 1]
        rate_running.append(math.log(fit_errs[i - 1] / fit_errs[i]) / (step * math.log(p)))
    while len(rate_running) < len(levels):
        rate_running.append(float("nan"))

    # an infinite reference makes the floor test below pass everything
    if not np.isfinite(err_l2 + err_h12 + [rho_hat]).all():
        raise NumericalCheckFailed("interface errors are not finite: err_l2 %r, err_h12 %r, "
                                   "rho_hat %r" % (err_l2, err_h12, rho_hat))
    # the floor test reads the unfloored errors: a zero solution (every error
    # and the reference 0) sits at the floor, not above it
    if max(err_h12[i] for i in fit_idx) > 1e-12 * circle.sobolev_norms(ref, 0)[0]:
        tol = 1e-12 * max(fit_errs)
        if any(e2 > e1 + tol for e1, e2 in zip(fit_errs, fit_errs[1:])):
            raise NumericalCheckFailed(
                "interface errors are not monotone nonincreasing: %r" % (fit_errs,))
        if not rho_hat > 0:
            raise NumericalCheckFailed("fitted rate is not positive: %r" % (rho_hat,))

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

    The pencil of n = p^N cells has n values, so a count above n gives all n.
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
