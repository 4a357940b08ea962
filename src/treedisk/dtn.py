"""Dirichlet-to-Neumann matrices of finite trees on the cell spaces V_N.

The Galerkin entry pairs the conormal density of a harmonic extension with
a cell indicator,

    A[K][L] = integral over Gamma of (D 1_{Gamma_{N,L}}) 1_{Gamma_{N,K}} ds
            = omega_{N,K} * u_L'(ell-) restricted to leaf K,

because the cell measure in the density cancels against the one in the
pairing.  In graph form this is exactly the boundary Schur complement of
the weighted graph Laplacian (conductances omega_e / ell_e, root clamped):

    A = Q_BB - Q_BI Q_II^{-1} Q_IB.

It is assembled by eliminating the interior vertices from the leaves to the
root (calculus.tree_elimination).  Eliminating X_{n,k} subtracts one
rank-one term beta beta^T / pivot, where beta, supported on the leaves
below X_{n,k}, holds the leaf conductances scaled by c / pivot once per
generation on the way up; so generation n adds p^n diagonal blocks of size
p^{depth-n} to A = diag(leaf conductances) - sum beta beta^T / pivot.

Condensing the tree (stretching the generation-(N+1) leaf edges by
1/(1-r)) makes A agree with the infinite-tree map composed with P_{N+1};
truncating instead leaves a geometrically decaying defect.

The interface solver tests D against level-N cells.  tree_dtn builds that
p^N x p^N matrix directly: on a level-N indicator the p leaf edges below
X_{N,k} carry one value, so they merge into one edge of summed
conductance before the dense elimination starts.  compress, the Galerkin
restriction of a finer matrix, stays as the identity this rests on
(acceptance criterion 3) and as its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import tree_elimination
from .errors import AssemblyTooLarge, InsufficientDepths
from .tree import TreeParams, build_condensed, build_truncated

MAX_DENSE_LEAVES = 4096


@dataclass
class GalerkinOperator:
    """Dense matrix of an operator tested against level-`level` indicators."""

    level: int
    matrix: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def symmetry_defect(self) -> float:
        scale = max(float(np.abs(self.matrix).max()), 1e-300)
        return float(np.abs(self.matrix - self.matrix.T).max()) / scale


def _check_dense(n_cells: int, allow_large: bool) -> None:
    if n_cells > MAX_DENSE_LEAVES and not allow_large:
        raise AssemblyTooLarge(
            "%d leaf cells exceed the dense limit %d (pass allow_large to override)"
            % (n_cells, MAX_DENSE_LEAVES)
        )


def _schur_boundary(c, pivot) -> np.ndarray:
    """Dense boundary Schur complement from a leaves-to-root elimination.

    c[-1] holds the boundary-edge conductances, c[n] and pivot[n] those of
    the interior vertices X_{n,k} (calculus.tree_elimination).  The leaves
    below each vertex are contiguous, so generation n acts on pivot[n].size
    diagonal blocks of equal size.
    """
    A = np.diag(c[-1])
    beta = c[-1]
    for n in range(len(pivot) - 1, -1, -1):
        blocks_n = pivot[n].size
        beta = beta.reshape(blocks_n, -1)
        m = beta.shape[1]
        # the diagonal blocks of A, as a writeable einsum view
        diag_blocks = np.einsum("ijik->ijk", A.reshape(blocks_n, m, blocks_n, m))
        diag_blocks -= (beta / pivot[n][:, None])[:, :, None] * beta[:, None, :]
        beta = beta * (c[n] / pivot[n])[:, None]
    return A


def condensed_dtn(params: TreeParams, N: int, allow_large: bool = False) -> GalerkinOperator:
    """DtN matrix of the condensed tree; level N+1 cells.

    Admits p = 1 (the interval oracle) even though sigma is undefined there;
    condensation only needs r = ell/(p omega) < 1.
    """
    tree = build_condensed(params, N)
    _check_dense(tree.n_leaves, allow_large)
    A = _schur_boundary(*tree_elimination(tree))
    return GalerkinOperator(level=tree.depth, matrix=A, kind="tree_dtn", meta={"params": params, "condensed": True, "N": N})


def tree_dtn(params: TreeParams, N: int) -> GalerkinOperator:
    """DtN matrix D_N of the condensed tree tested against level-N cells.

    Equals compress(condensed_dtn(params, N), N): a level-N indicator sets
    the p stretched leaf edges below X_{N,k} to one value, so they act as a
    single edge with their summed conductance.  The elimination of the
    condensed tree runs on vectors; the dense matrix is p^N x p^N from the
    start, with generation N eliminated as p^N blocks of size one.
    """
    tree = build_condensed(params, N)
    c, pivot = tree_elimination(tree)
    merged = c[N + 1].reshape(params.p**N, -1).sum(axis=1)
    A = _schur_boundary(c[: N + 1] + [merged], pivot)
    return GalerkinOperator(level=N, matrix=A, kind="tree_dtn", meta={"params": params, "condensed": True, "N": N})


def truncated_dtn(params: TreeParams, depth: int, allow_large: bool = False) -> GalerkinOperator:
    """DtN matrix of the plain truncated tree with edge generations 0..depth."""
    tree = build_truncated(params, depth)
    _check_dense(tree.n_leaves, allow_large)
    A = _schur_boundary(*tree_elimination(tree))
    return GalerkinOperator(level=depth, matrix=A, kind="tree_dtn", meta={"params": params, "condensed": False, "N": depth})


def compress(op: GalerkinOperator, level: int) -> GalerkinOperator:
    """Galerkin restriction to the coarser space V_level.

    Coarse indicators are sums of their children, so entries aggregate:
    B[J][J'] = sum over child cells of A[K][K'].
    """
    if level > op.level:
        raise InsufficientDepths("cannot compress level %d to finer level %d" % (op.level, level))
    p = op.meta["params"].p if "params" in op.meta else op.meta["p"]
    q = p ** (op.level - level)
    m = op.size // q
    B = op.matrix.reshape(m, q, m, q).sum(axis=(1, 3))
    meta = dict(op.meta)
    meta["compressed_from"] = op.level
    return GalerkinOperator(level=level, matrix=B, kind=op.kind, meta=meta)


@dataclass
class CoercivityReport:
    symmetry_defect: float
    eig_min: float
    eig_max: float
    const_image: float

    @property
    def positive_definite(self) -> bool:
        return self.eig_min > 0


def coercivity_check(op: GalerkinOperator) -> CoercivityReport:
    """Spectral summary of the symmetrized matrix plus the constant-vector image."""
    sym = 0.5 * (op.matrix + op.matrix.T)
    if np.iscomplexobj(sym):
        sym = 0.5 * (op.matrix + op.matrix.conj().T)
    vals = np.linalg.eigvalsh(np.real_if_close(sym))
    const = np.ones(op.size)
    return CoercivityReport(
        symmetry_defect=op.symmetry_defect(),
        eig_min=float(vals[0]),
        eig_max=float(vals[-1]),
        const_image=float(np.abs(op.matrix @ const).max()),
    )


@dataclass
class ConvergenceRecord:
    depths: list
    errors: list
    rate_per_level: float
    rho_hat: float | None
    residual: float
    measure: str


def _fit_rate(depths, errors):
    logs = np.log(np.maximum(errors, 1e-300))
    coef = np.polynomial.polynomial.polyfit(depths, logs, 1)
    fit = coef[0] + coef[1] * np.asarray(depths, dtype=float)
    return -float(coef[1]), float(np.abs(fit - logs).max())


def dtn_convergence_rate(
    params: TreeParams, depths, ref_extra: int = 2, modes=(1, 2, 3), allow_large: bool = False
) -> ConvergenceRecord:
    """Fitted geometric rate of ||D P_N g - D g|| as N grows.

    For p >= 2 the errors are measured in the Fourier H^{-1/2} norm on
    smooth test modes, with D realized exactly on a fine condensed level
    (so only the projection error D P_N vs D remains); rho_hat = rate/log p
    matches O(p^{-rho N}) statements.  For p = 1 every V_N is the constants
    and the projection error vanishes, so the truncation defect
    |truncated - condensed| is fitted instead; the interval formula makes
    that rate -log(r) in the deep limit, r = ell/(p*omega).
    """
    depths = sorted(depths)
    if len(set(depths)) < 3:
        raise InsufficientDepths("need at least 3 distinct depths, got %r" % (depths,))
    if params.p == 1:
        ref = condensed_dtn(params, max(max(depths), params.N1), allow_large=allow_large)
        errors = [abs(float(truncated_dtn(params, d).matrix[0, 0] - ref.matrix[0, 0])) for d in depths]
        rate, residual = _fit_rate(depths, errors)
        return ConvergenceRecord(
            depths=list(depths), errors=errors, rate_per_level=rate, rho_hat=None, residual=residual,
            measure="truncation defect (scalar)",
        )

    from . import circle

    n_ref = max(max(depths) + ref_extra, params.N1)
    level = n_ref + 1
    ref = condensed_dtn(params, n_ref, allow_large=allow_large)
    decomp = circle.MultiscaleDecomposition(R=1.0, p=params.p, n_max=level)
    mu = decomp.cell_measure(level)
    m_eval = 8 * decomp.n_cells(level)
    tests = [circle.FourierFn.from_modes(1.0, {k: 0.5, -k: 0.5}) for k in modes]
    dens_ref = []
    for g in tests:
        avg = np.real(circle.cell_averages(decomp, g, level))
        dens_ref.append(ref.matrix @ avg / mu)
    errors = []
    for d in depths:
        worst = 0.0
        for g, dref in zip(tests, dens_ref):
            coarse = np.real(circle.cell_averages(decomp, g, d))
            refined = np.repeat(coarse, decomp.p ** (level - d))
            dens = ref.matrix @ refined / mu
            diff = circle.PiecewiseConstantFn(decomp, level, dens - dref)
            worst = max(worst, circle.sobolev_norm_fourier(diff.to_fourier(m_eval), -0.5))
        errors.append(worst)
    rate, residual = _fit_rate(depths, errors)
    return ConvergenceRecord(
        depths=list(depths), errors=errors, rate_per_level=rate, rho_hat=rate / math.log(params.p),
        residual=residual, measure="H^{-1/2} projection error on smooth modes",
    )
