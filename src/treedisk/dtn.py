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
root (tree.FiniteTree.elimination).  Eliminating X_{n,k} subtracts one
rank-one term beta beta^T / pivot, where beta, supported on the leaves
below X_{n,k}, holds the leaf conductances scaled by c / pivot once per
generation on the way up; so generation n adds p^n diagonal blocks of size
p^{depth-n} to A = diag(leaf conductances) - sum beta beta^T / pivot.

Condensing the tree (stretching the generation-(N+1) leaf edges by
1/(1-r)) makes A agree with the infinite-tree map composed with P_{N+1};
truncating instead leaves a geometrically decaying defect.

The interface solver tests D against level-N cells.  On a level-N
indicator the p leaf edges below X_{N,k} carry one value, so they merge
into one edge of summed conductance; tree_dtn_operator eliminates the
condensed tree compressed at level N (one leaf row per cell) and keeps
that level-N elimination as a TreeDtN, which applies D by one upward and
one downward sweep in O(p^N), gives T. Chan's optimal circulant of D from
the per-generation autocorrelations of beta, and gathers the dense
p^N x p^N matrix only when asked (TreeDtN.matrix).  compress, the Galerkin
restriction of a finer matrix, stays as the identity this rests on
(acceptance criterion 3) and as its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssemblyTooLarge, InsufficientDepths
from .tree import TreeParams, _child_sums, build_condensed, build_truncated

# Dense operators cost memory quadratic in the cell count: a p = 2, N = 12
# solve (4096 cells) peaked at 2,251 MiB on a 7 GB host, and 8192 cells
# would need about 9 GiB.
DENSE_CELL_BUDGET = 4096

# dtn_convergence_rate measures on the Fourier modes cos(k theta) of
# _RATE_MODES against a reference _RATE_REF_EXTRA levels below the deepest
# depth fitted
_RATE_MODES = (1, 2, 3)
_RATE_REF_EXTRA = 2


@dataclass
class GalerkinOperator:
    """Dense matrix of an operator tested against level-`level` cells of branching p."""

    p: int
    level: int
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def symmetry_defect(self) -> float:
        scale = max(float(np.abs(self.matrix).max()), 1e-300)
        return float(np.abs(self.matrix - self.matrix.T).max()) / scale


def _check_dense(n_cells: int) -> None:
    """Raise AssemblyTooLarge before a dense n_cells x n_cells operator is built."""
    if n_cells > DENSE_CELL_BUDGET:
        raise AssemblyTooLarge("%d cells exceed the dense operator budget of %d cells"
                               % (n_cells, DENSE_CELL_BUDGET))


def _schur_boundary(c, pivot) -> np.ndarray:
    """Dense boundary Schur complement from a leaves-to-root elimination.

    c[-1] holds the boundary-edge conductances, c[n] and pivot[n] those of
    the interior vertices X_{n,k} (tree.FiniteTree.elimination).  The leaves
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


def condensed_dtn(params: TreeParams, N: int) -> GalerkinOperator:
    """DtN matrix of the condensed tree; level N+1 cells.

    Admits p = 1 (the interval oracle) even though sigma is undefined there;
    condensation only needs r = ell/(p omega) < 1.
    """
    _check_dense(params.p ** (N + 1))
    tree = build_condensed(params, N)
    A = _schur_boundary(*tree.elimination)
    return GalerkinOperator(p=params.p, level=tree.depth, matrix=A)


@dataclass
class TreeDtN:
    """D_N of the condensed tree, held as its level-N elimination.

    c and pivot are those of tree.FiniteTree.elimination cut at generation N,
    with c[-1] the merged leaf conductances, one per level-N cell (the
    arguments of _schur_boundary).  apply and chan_eigs cost O(p^N) and
    O(N p^N log p^N); matrix gathers the dense p^N x p^N matrix.
    """

    p: int
    level: int
    c: list
    pivot: list

    @property
    def size(self) -> int:
        return self.c[-1].size

    @property
    def matrix(self) -> np.ndarray:
        _check_dense(self.size)
        return _schur_boundary(self.c, self.pivot)

    @cached_property
    def _shares(self) -> list:
        """c / pivot per generation: the share of its load a vertex hands up."""
        return [cn / pn for cn, pn in zip(self.c, self.pivot)]

    def apply(self, x) -> np.ndarray:
        """D x: the leaf fluxes c_leaf (x - u) of the harmonic extension u of x.

        One upward pass collects the leaf loads c_leaf x at each vertex and
        hands the share c / pivot on to its parent; one downward pass
        substitutes from the clamped root, as calculus._solve_vertices.
        """
        c, pivot = self.c, self.pivot
        leaf = c[-1] * x
        # X_{N,k} has the merged leaf edge as its only child
        collected = [leaf]
        for n in range(len(pivot) - 1, 0, -1):
            collected.append(_child_sums(self._shares[n] * collected[-1], self.p))
        collected.reverse()
        u = collected[0] / pivot[0]
        for n in range(1, len(pivot)):
            u = c[n] * np.repeat(u, self.p)
            u += collected[n]
            u /= pivot[n]
        leaf -= c[-1] * u
        return leaf

    def chan_eigs(self) -> np.ndarray:
        """Eigenvalues e_k^* D e_k of T. Chan's optimal circulant, e_k = fft basis.

        Generation n subtracts sum_v beta_v beta_v^T / pivot_v over blocks of
        m = p^(N-n) leaves, so its cyclic diagonal sums are the block
        autocorrelations of beta: one rfft of the rows zero-padded to 2m,
        weighted by 1 / pivot and summed, then folded onto the p^N lags.
        """
        c, pivot = self.c, self.pivot
        size = self.size
        sums = np.zeros(size)
        sums[0] = c[-1].sum()
        beta = c[-1]
        for n in range(len(pivot) - 1, -1, -1):
            beta = beta.reshape(pivot[n].size, -1)
            m = beta.shape[1]
            spectrum = np.fft.rfft(beta, n=2 * m, axis=1)
            power = (spectrum.real**2 + spectrum.imag**2) / pivot[n][:, None]
            corr = np.fft.irfft(power.sum(axis=0), n=2 * m)
            lags = np.arange(1 - m, m)
            sums -= np.bincount(lags % size, corr[lags], size)
            beta = beta * self._shares[n][:, None]
        return np.fft.fft(sums).real / size


def tree_dtn_operator(params: TreeParams, N: int) -> TreeDtN:
    """D_N of the condensed tree tested against level-N cells, as a TreeDtN.

    A level-N indicator sets the p stretched leaf edges below X_{N,k} to
    one value, so they act as a single edge with their summed conductance.
    The condensed tree is built compressed at level N, so its leaf
    generation is already one row per cell, standing for those p edges, and
    the merged conductance is the p-fold child sum of that row.
    """
    c, pivot = build_condensed(params, N, level=N).elimination
    merged = _child_sums(c[N + 1], params.p, merged=True)
    return TreeDtN(p=params.p, level=N, c=c[: N + 1] + [merged], pivot=pivot)


def truncated_dtn(params: TreeParams, depth: int) -> GalerkinOperator:
    """DtN matrix of the plain truncated tree with edge generations 0..depth."""
    _check_dense(params.p**depth)
    A = _schur_boundary(*build_truncated(params, depth).elimination)
    return GalerkinOperator(p=params.p, level=depth, matrix=A)


def compress(op: GalerkinOperator, level: int) -> GalerkinOperator:
    """Galerkin restriction to the coarser space V_level.

    Coarse indicators are sums of their children, so entries aggregate:
    B[J][J'] = sum over child cells of A[K][K'].
    """
    if level > op.level:
        raise InsufficientDepths("cannot compress level %d to finer level %d" % (op.level, level))
    q = op.p ** (op.level - level)
    m = op.size // q
    B = op.matrix.reshape(m, q, m, q).sum(axis=(1, 3))
    return GalerkinOperator(p=op.p, level=level, matrix=B)


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


def dtn_convergence_rate(params: TreeParams, depths) -> ConvergenceRecord:
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
        ref = condensed_dtn(params, max(max(depths), params.N1))
        errors = [abs(float(truncated_dtn(params, d).matrix[0, 0] - ref.matrix[0, 0])) for d in depths]
        rate, residual = _fit_rate(depths, errors)
        return ConvergenceRecord(
            depths=list(depths), errors=errors, rate_per_level=rate, rho_hat=None, residual=residual,
            measure="truncation defect (scalar)",
        )

    from . import circle

    n_ref = max(max(depths) + _RATE_REF_EXTRA, params.N1)
    level = n_ref + 1
    ref = condensed_dtn(params, n_ref)
    decomp = circle.MultiscaleDecomposition(R=1.0, p=params.p, n_max=level)
    mu = decomp.cell_measure(level)
    m_eval = 8 * decomp.n_cells(level)
    tests = [circle.FourierFn.from_modes(1.0, {k: 0.5, -k: 0.5}) for k in _RATE_MODES]
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
