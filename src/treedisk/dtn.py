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
indicator every leaf below X_{N,k} carries one value, so the subtree below
X_{N,k} acts as one edge of the conductance it hands up when eliminated,
which the elimination of a condensed tree compressed at level N already
adds into pivot[N].  Condensation is exact, so tree_dtn_operator reads D_N
off such a tree at any depth (the solver's source tree), builds none, and
keeps the level-N elimination as a TreeDtN, which applies D by one upward
and one downward sweep in O(p^N).  Every other form reads the one sum over
generations (_generations): the dense matrix (TreeDtN.matrix, and the
plain arrays of condensed_dtn and truncated_dtn) starts it at
diag(c_leaf) with beta = c_leaf, T. Chan's optimal circulant of D
(chan_eigs) takes the autocorrelations of its beta blocks, and the top of
the sweep, from the largest level k with p^k <= _TOP_CELLS up to the root
and back, is one Green block G (_green: the loads collected at level k to
the vertex values there) summed over generations 0..k from beta = 1.  So
apply runs only the N - k generations below k in Python.  At p^N <=
_TOP_CELLS the interface solve is direct and takes D as a dense array.
compress, the Galerkin restriction of a finer matrix, stays as the
identity this rests on (acceptance criterion 3) and as its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssemblyTooLarge, DepthMismatch, InsufficientDepths
from .tree import FiniteTree, TreeParams, _child_sums, build_condensed, build_truncated

# Dense operators cost memory quadratic in the cell count: a p = 2, N = 12
# solve (4096 cells) peaked at 2,251 MiB on a 7 GB host, and 8192 cells
# would need about 9 GiB.
DENSE_CELL_BUDGET = 4096

# TreeDtN.apply replaces the sweep above the largest level with at most
# _TOP_CELLS vertices by one dense Green block.  On a 2-vCPU AMD EPYC host
# (BLAS on one thread) one p = 2 apply takes 1.8 us at N = 6 and 13 us at
# N = 10, against 14 and 25 us for the whole sweep; 32 cells take 3.9 and
# 15 us, and 128 cells save at most 1.7 us more with a block four times
# the size.  At p^N <= _TOP_CELLS cells the interface solve is one dense LU
# solve instead of GMRES (transmission.solve_interface): at p = 2, N = 6
# building D (TreeDtN.matrix) takes 40 us, one LU solve for g and
# M^{-1} 50 us and the whole interface solve 0.18 ms, against 0.54 ms for
# GMRES and its condition estimate, whose cost there is numpy's call
# overhead more than arithmetic.
_TOP_CELLS = 64

# dtn_convergence_rate measures on the Fourier modes cos(k theta) of
# _RATE_MODES against a reference _RATE_REF_EXTRA levels below the deepest
# depth fitted
_RATE_MODES = (1, 2, 3)
_RATE_REF_EXTRA = 2


def check_dense(p: int, level: int) -> None:
    """Raise AssemblyTooLarge before a dense operator on the p^level cells is built.

    A level past the budget's bit length is refused before p^level is
    formed, as tree.check_tree_budget does.
    """
    if p > 1 and level >= DENSE_CELL_BUDGET.bit_length() or p**level > DENSE_CELL_BUDGET:
        raise AssemblyTooLarge("%d^%d cells exceed the dense operator budget of %d cells"
                               % (p, level, DENSE_CELL_BUDGET))


def _generations(c, pivot, beta):
    """(beta, pivot[n]) per generation n, leaves first, of sum beta beta^T / pivot.

    beta starts at the given leaf weights and is scaled by c[n] / pivot[n]
    on the way up; generation n has pivot[n].size rows, one per vertex
    X_{n,k}, over the contiguous leaves below it.
    """
    for n in range(len(pivot) - 1, -1, -1):
        beta = beta.reshape(pivot[n].size, -1)
        yield beta, pivot[n]
        beta = beta * (c[n] / pivot[n])[:, None]


def _subtract_generations(A, c, pivot, beta) -> np.ndarray:
    """A - sum beta beta^T / pivot over _generations, in place, block by diagonal block."""
    for beta, piv in _generations(c, pivot, beta):
        blocks_n, m = beta.shape
        # the diagonal blocks of A, as a writeable einsum view
        diag_blocks = np.einsum("ijik->ijk", A.reshape(blocks_n, m, blocks_n, m))
        diag_blocks -= (beta / piv[:, None])[:, :, None] * beta[:, None, :]
    return A


def condensed_dtn(params: TreeParams, N: int) -> np.ndarray:
    """DtN matrix of the condensed tree; level N+1 cells.

    Admits p = 1 (the interval oracle) even though sigma is undefined there;
    condensation only needs r = ell/(p omega) < 1.
    """
    check_dense(params.p, N + 1)
    c, pivot = build_condensed(params, N).elimination
    return _subtract_generations(np.diag(c[-1]), c, pivot, c[-1])


@dataclass
class TreeDtN:
    """D_N of the condensed tree, held as its level-N elimination.

    c and pivot are those of tree.FiniteTree.elimination cut at generation N,
    with c[-1] the merged conductance of the subtree below each level-N
    vertex, one per cell.  matrix, _green and chan_eigs read one sum over
    generations (_generations).  apply and chan_eigs cost O(p^N) and
    O(N p^N log p^N); matrix gathers the dense p^N x p^N matrix within the
    dense budget.  apply builds the Green block of the top levels on first
    use (_green), so neither matrix nor chan_eigs pays for it.
    """

    p: int
    c: list
    pivot: list

    @property
    def size(self) -> int:
        return self.c[-1].size

    @property
    def matrix(self) -> np.ndarray:
        check_dense(self.p, len(self.pivot) - 1)
        return _subtract_generations(np.diag(self.c[-1]), self.c, self.pivot, self.c[-1])

    @cached_property
    def _shares(self) -> list:
        """c / pivot per generation: the share of its load a vertex hands up."""
        return [cn / pn for cn, pn in zip(self.c, self.pivot)]

    @cached_property
    def _green(self) -> tuple:
        """(k, G): k the largest level <= N with p^k <= _TOP_CELLS, G its Green block.

        G maps the loads collected at the p^k vertices of level k to the
        vertex values there.  It is the sum over generations 0..k with unit
        weights at level k: G = sum beta beta^T / pivot, beta = 1 at level k.
        """
        k = 0
        while k < len(self.pivot) - 1 and self.p ** (k + 1) <= _TOP_CELLS:
            k += 1
        m = self.p**k
        green = _subtract_generations(np.zeros((m, m)), self.c, self.pivot[: k + 1], np.ones(m))
        return k, np.negative(green, out=green)

    def apply(self, x) -> np.ndarray:
        """D x: the leaf fluxes c_leaf (x - u) of the harmonic extension u of x.

        One upward pass collects the leaf loads c_leaf x at each vertex and
        hands the share c / pivot on to its parent, down to level k; the
        Green block G turns the loads at level k into the vertex values
        there; one downward pass substitutes from level k, as
        calculus._solve_vertices does from the clamped root.  When N <= k
        no generation is swept.
        """
        c, pivot, shares, p = self.c, self.pivot, self._shares, self.p
        k, green = self._green
        leaf = c[-1] * x
        # X_{N,k} has the merged leaf edge as its only child
        collected = [leaf]
        for n in range(len(pivot) - 1, k, -1):
            collected.append(_child_sums(shares[n] * collected[-1], p))
        u = green @ collected.pop()
        for n in range(k + 1, len(pivot)):
            u = c[n] * np.repeat(u, p)
            u += collected.pop()
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
        size = self.size
        sums = np.zeros(size)
        sums[0] = self.c[-1].sum()
        for beta, piv in _generations(self.c, self.pivot, self.c[-1]):
            m = beta.shape[1]
            spectrum = np.fft.rfft(beta, n=2 * m, axis=1)
            power = (spectrum.real**2 + spectrum.imag**2) / piv[:, None]
            corr = np.fft.irfft(power.sum(axis=0), n=2 * m)
            lags = np.arange(1 - m, m)
            sums -= np.bincount(lags % size, corr[lags], size)
        return np.fft.fft(sums).real / size


def tree_dtn_operator(tree: FiniteTree) -> TreeDtN:
    """D_N on level-N cells of a condensed tree compressed at its level N.

    The tail below X_{N,k} acts as one edge whose conductance is the p-fold
    child sum of the share it hands up (tree.tail_elimination), the term
    tree.elimination adds into pivot[N].  c and pivot are the arrays of
    tree.elimination up to generation N, shared, not copied.  A tree
    without a tail raises DepthMismatch.
    """
    if tree.depth == tree.level:
        raise DepthMismatch("D_N is read off a tree compressed below its level; this tree "
                            "of depth %d has no tail" % tree.depth)
    N = tree.level
    c, pivot = tree.elimination
    merged = _child_sums(tree.tail_elimination[2], tree.p, merged=True)
    return TreeDtN(p=tree.p, c=c[: N + 1] + [merged], pivot=pivot[: N + 1])


def truncated_dtn(params: TreeParams, depth: int) -> np.ndarray:
    """DtN matrix of the plain truncated tree with edge generations 0..depth."""
    check_dense(params.p, depth)
    c, pivot = build_truncated(params, depth).elimination
    return _subtract_generations(np.diag(c[-1]), c, pivot, c[-1])


def compress(A: np.ndarray, p: int, level: int) -> np.ndarray:
    """Galerkin restriction of a DtN matrix of branching p to the coarser space V_level.

    Coarse indicators are sums of their children, so entries aggregate:
    B[J][J'] = sum over child cells of A[K][K'].  Raises InsufficientDepths
    unless p^level divides the number of cells of A.
    """
    size, m = A.shape[0], p**level
    if level < 0 or size % m:
        raise InsufficientDepths("cannot compress %d cells to level %d of branching %d"
                                 % (size, level, p))
    q = size // m
    return A.reshape(m, q, m, q).sum(axis=(1, 3))


@dataclass
class CoercivityReport:
    symmetry_defect: float
    eig_min: float
    eig_max: float
    const_image: float


def coercivity_check(A: np.ndarray) -> CoercivityReport:
    """Spectral summary of the symmetrized real matrix A plus the constant-vector image."""
    vals = np.linalg.eigvalsh(0.5 * (A + A.T))
    scale = max(float(np.abs(A).max()), 1e-300)
    return CoercivityReport(
        symmetry_defect=float(np.abs(A - A.T).max()) / scale,
        eig_min=float(vals[0]),
        eig_max=float(vals[-1]),
        const_image=float(np.abs(A @ np.ones(A.shape[0])).max()),
    )


@dataclass
class ConvergenceRecord:
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
    smooth test modes (the modes of the cell differences, formed and summed
    a block at a time), with D realized exactly on a fine condensed level
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
        errors = [abs(float(truncated_dtn(params, d)[0, 0] - ref[0, 0])) for d in depths]
        rate, residual = _fit_rate(depths, errors)
        return ConvergenceRecord(
            errors=errors, rate_per_level=rate, rho_hat=None, residual=residual,
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
        dens_ref.append(ref @ avg / mu)
    errors = []
    for d in depths:
        worst = 0.0
        for g, dref in zip(tests, dens_ref):
            coarse = np.real(circle.cell_averages(decomp, g, d))
            refined = np.repeat(coarse, decomp.p ** (level - d))
            dens = ref @ refined / mu
            diff = circle.PiecewiseConstantFn(decomp, level, dens - dref)
            worst = max(worst, circle.sobolev_norms(circle.CellModes(diff, m_eval), -0.5)[0])
        errors.append(worst)
    rate, residual = _fit_rate(depths, errors)
    return ConvergenceRecord(
        errors=errors, rate_per_level=rate, rho_hat=rate / math.log(params.p),
        residual=residual, measure="H^{-1/2} projection error on smooth modes",
    )
