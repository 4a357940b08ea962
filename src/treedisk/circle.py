"""Multiscale decomposition of a circle and the associated function spaces.

The circle of radius R is split at level n into p^n equal arcs (cells)
Gamma_{n,k} = {R e^{i theta} : theta in [2 pi k / p^n, 2 pi (k+1) / p^n)}.
Children refine parents p-adically, every cell has measure 2 pi R / p^n,
and the level-n piecewise-constant functions V_n carry the orthogonal
projectors P_n (cell averages).

Two concrete function classes cover everything the pipeline needs:
PiecewiseConstantFn (values on the cells of one level) and FourierFn
(finitely many modes g(theta) = sum g_k e^{i k theta}).  The average of a
Fourier mode over cell K of level n is

    avg_K(e^{ik.}) = exp(i pi k (2K+1) / p^n) * sinc(k / p^n),

and with k = r + a p^n (0 <= r < p^n) the phase only depends on r, up to
the sign (-1)^a.  Folding the weighted coefficients by r therefore turns
both directions between cell values and modes into one DFT of length p^n:
cell averages of M modes cost O(M + p^n log p^n), not O(M p^n).  The sinc
is set to exactly zero at the aliased multiples k = m p^n (m != 0), so
projector identities such as P_N P_n = P_min(N,n) hold to rounding error.

Projected norms never materialize fine levels: with k = r + a p^n,

    ||P_n g||^2 = 2 pi R * sum_r |S_r|^2,
    S_r = sum_a g_{r + a p^n} (-1)^a sinc((r + a p^n)/p^n),

which keeps the multiscale A^r norms O(M) per level.

This module also houses the boundary traces of tree functions: the leaf
values as a level-N cell function (gamma0) and the conormal density
omega_K u'_K / |Gamma_{N,K}| (gamma1), plus the piecewise-linear lifting
of interface data onto a tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus
from .errors import DepthMismatch, ExponentOrderViolated, KirchhoffViolated
from .tree import FiniteTree


class MultiscaleDecomposition:
    """Equal-arc p-adic partition hierarchy of the circle of radius R."""

    def __init__(self, R: float = 1.0, p: int = 2, n_max: int = 24):
        if R <= 0 or p < 1 or n_max < 0:
            raise ValueError("need R > 0, p >= 1, n_max >= 0")
        self.R = float(R)
        self.p = int(p)
        self.n_max = int(n_max)

    @property
    def circumference(self) -> float:
        return 2 * math.pi * self.R

    def n_cells(self, n: int) -> int:
        return self.p**n

    def cell_measure(self, n: int) -> float:
        return self.circumference / self.p**n

    def cell_angle(self, n: int) -> float:
        return 2 * math.pi / self.p**n

    def cell_diameter(self, n: int) -> float:
        """Chord of one arc: 2 R sin(pi / p^n), at most 2 pi R / p^n."""
        if self.p**n == 1:
            return 2 * self.R
        return 2 * self.R * math.sin(math.pi / self.p**n)

    def regularity_constants(self) -> dict:
        # diam <= c1 * p^{-n} and |U \ (U+h)| <= c2 |h| for arcs (d = 1)
        return {"c1": 2 * math.pi * self.R, "c2": 1.0}

    def translation_defect(self, n: int, h: float) -> float:
        """|U \\ (U + h)| for a level-n arc shifted by arclength h."""
        return min(abs(h), self.cell_measure(n))


class PiecewiseConstantFn:
    """Function constant on each level-`level` cell."""

    def __init__(self, decomp: MultiscaleDecomposition, level: int, values):
        values = np.asarray(values)
        if values.shape != (decomp.n_cells(level),):
            raise DepthMismatch(
                "level %d needs %d cell values, got shape %r" % (level, decomp.n_cells(level), values.shape)
            )
        self.decomp = decomp
        self.level = level
        self.values = values

    def refine(self, level: int) -> "PiecewiseConstantFn":
        if level < self.level:
            raise DepthMismatch("cannot refine to a coarser level")
        reps = self.decomp.p ** (level - self.level)
        return PiecewiseConstantFn(self.decomp, level, np.repeat(self.values, reps))

    def l2_norm(self) -> float:
        return math.sqrt(self.decomp.cell_measure(self.level) * float((np.abs(self.values) ** 2).sum()))

    def integral(self):
        return self.decomp.cell_measure(self.level) * self.values.sum()

    def to_fourier(self, M: int) -> "FourierFn":
        pn = self.decomp.n_cells(self.level)
        ks = np.arange(-M, M + 1)
        r, weight = _mode_split(ks, pn)
        W = np.exp(-1j * np.pi * np.arange(pn) / pn) * np.fft.fft(self.values)
        return FourierFn(self.decomp.R, W[r] * weight / pn)

    def _align(self, other):
        lvl = max(self.level, other.level)
        return self.refine(lvl), other.refine(lvl)

    def __add__(self, other):
        a, b = self._align(other)
        return PiecewiseConstantFn(a.decomp, a.level, a.values + b.values)

    def __sub__(self, other):
        a, b = self._align(other)
        return PiecewiseConstantFn(a.decomp, a.level, a.values - b.values)

    def __mul__(self, scalar):
        return PiecewiseConstantFn(self.decomp, self.level, self.values * scalar)

    __rmul__ = __mul__


class FourierFn:
    """Finite Fourier series on the circle, g(theta) = sum_k c_k e^{i k theta}."""

    def __init__(self, R: float, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size % 2 == 0:
            raise ValueError("coefficients must be a centered odd-length vector")
        self.R = float(R)
        self.coeffs = coeffs

    @property
    def M(self) -> int:
        return (self.coeffs.size - 1) // 2

    def ks(self) -> np.ndarray:
        return np.arange(-self.M, self.M + 1)

    @classmethod
    def from_modes(cls, R, modes: dict, M=None) -> "FourierFn":
        if M is None:
            M = max((abs(k) for k in modes), default=0)
        coeffs = np.zeros(2 * M + 1, dtype=complex)
        for k, v in modes.items():
            coeffs[k + M] = v
        return cls(R, coeffs)

    def coeff(self, k: int) -> complex:
        return self.coeffs[k + self.M] if abs(k) <= self.M else 0.0j

    def eval(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return np.exp(1j * np.outer(theta, self.ks())) @ self.coeffs

    def is_real(self, tol: float = 1e-12) -> bool:
        flipped = np.conj(self.coeffs[::-1])
        scale = max(float(np.abs(self.coeffs).max()), 1e-300)
        return float(np.abs(self.coeffs - flipped).max()) <= tol * scale

    def l2_norm(self) -> float:
        return math.sqrt(2 * math.pi * self.R * float((np.abs(self.coeffs) ** 2).sum()))

    def pad_to(self, M: int) -> "FourierFn":
        if M < self.M:
            raise ValueError("cannot truncate with pad_to")
        out = np.zeros(2 * M + 1, dtype=complex)
        out[M - self.M : M + self.M + 1] = self.coeffs
        return FourierFn(self.R, out)

    def _align(self, other):
        M = max(self.M, other.M)
        return self.pad_to(M), other.pad_to(M)

    def __add__(self, other):
        a, b = self._align(other)
        return FourierFn(a.R, a.coeffs + b.coeffs)

    def __sub__(self, other):
        a, b = self._align(other)
        return FourierFn(a.R, a.coeffs - b.coeffs)

    def __mul__(self, scalar):
        return FourierFn(self.R, self.coeffs * scalar)

    __rmul__ = __mul__


def inner(f: FourierFn, g: FourierFn) -> complex:
    """Sesquilinear L^2(Gamma) product, integral of f * conj(g)."""
    a, b = f._align(g)
    return 2 * math.pi * a.R * complex(a.coeffs @ np.conj(b.coeffs))


def _sinc_cells(ks, pn):
    # average magnitude of e^{ik.} over a level-n cell; exact zero on the
    # aliased multiples k = m p^n (m != 0) where np.sinc leaves ~1e-16 dust
    s = np.sinc(ks / pn)
    s[(ks % pn == 0) & (ks != 0)] = 0.0
    return s


def _mode_split(ks, pn):
    r = ks % pn
    a = (ks - r) // pn
    sign = np.where(a % 2, -1.0, 1.0)
    return r, sign * _sinc_cells(ks, pn)


def cell_averages(decomp: MultiscaleDecomposition, g, n: int) -> np.ndarray:
    """Averages of g over the level-n cells (complex for Fourier input)."""
    if isinstance(g, PiecewiseConstantFn):
        if g.level <= n:
            return np.repeat(g.values, decomp.p ** (n - g.level))
        chunk = decomp.p ** (g.level - n)
        return g.values.reshape(decomp.n_cells(n), chunk).mean(axis=1)
    pn = decomp.n_cells(n)
    r, weight = _mode_split(g.ks(), pn)
    folded = g.coeffs * weight
    S = np.bincount(r, folded.real, pn) + 1j * np.bincount(r, folded.imag, pn)
    return pn * np.fft.ifft(S * np.exp(1j * np.pi * np.arange(pn) / pn))


def cell_integrals(decomp: MultiscaleDecomposition, g, n: int) -> np.ndarray:
    return cell_averages(decomp, g, n) * decomp.cell_measure(n)


def project_PN(decomp: MultiscaleDecomposition, g, n: int) -> PiecewiseConstantFn:
    """Orthogonal projection onto V_n: the cell-average function."""
    if n > decomp.n_max:
        raise DepthMismatch("level %d exceeds n_max %d" % (n, decomp.n_max))
    vals = cell_averages(decomp, g, n)
    if isinstance(g, PiecewiseConstantFn) and np.isrealobj(g.values):
        vals = np.real(vals)
    elif isinstance(g, FourierFn) and g.is_real(1e-11):
        vals = np.real(vals)
    return PiecewiseConstantFn(decomp, n, vals)


def indicator_fourier(decomp: MultiscaleDecomposition, n: int, K: int, M: int) -> FourierFn:
    """Fourier coefficients of the level-n cell indicator 1_{Gamma_{n,K}}."""
    pn = decomp.n_cells(n)
    ks = np.arange(-M, M + 1)
    idx = (-ks * (2 * K + 1)) % (2 * pn)
    coeffs = np.exp(1j * np.pi * idx / pn) * _sinc_cells(ks, pn) / pn
    return FourierFn(decomp.R, coeffs)


def l2_norm_sq(g) -> float:
    return float(g.l2_norm() ** 2)


def proj_norm_sq(decomp: MultiscaleDecomposition, g, n: int) -> float:
    """||P_n g||^2 without forming level-n values (aliased mode sums)."""
    if isinstance(g, PiecewiseConstantFn):
        if n >= g.level:
            return l2_norm_sq(g)
        return l2_norm_sq(project_PN(decomp, g, n))
    pn = decomp.n_cells(n)
    r, weight = _mode_split(g.ks(), pn)
    uniq, inv = np.unique(r, return_inverse=True)
    S = np.zeros(uniq.size, dtype=complex)
    np.add.at(S, inv, g.coeffs * weight)
    return 2 * math.pi * decomp.R * float((np.abs(S) ** 2).sum())


def err_norm_sq(decomp: MultiscaleDecomposition, g, n: int) -> float:
    """||g - P_n g||^2 by Pythagoras (P_n is orthogonal)."""
    return max(l2_norm_sq(g) - proj_norm_sq(decomp, g, n), 0.0)


@dataclass
class ArNormReport:
    value: float
    levels_used: int
    tail_sq_estimate: float


def ar_norm_report(decomp: MultiscaleDecomposition, g, r: float) -> ArNormReport:
    """||g||_{A^r}^2 = ||P_0 g||^2 + sum_{n>=0} p^{2nr} ||g - P_n g||^2.

    The series is summed until the terms are negligible or n_max is hit;
    the remainder is estimated by the limiting geometric ratio p^{2(r-1)}
    (valid once the projector error decays at first order).
    """
    if not 0 < r < 0.5:
        raise ExponentOrderViolated("A^r norms require 0 < r < 1/2, got r=%g" % r)
    p = decomp.p
    acc = proj_norm_sq(decomp, g, 0)
    top = decomp.n_max if isinstance(g, FourierFn) else min(g.level, decomp.n_max)
    term = 0.0
    n_used = 0
    for n in range(top + 1):
        e = err_norm_sq(decomp, g, n)
        term = p ** (2 * n * r) * e
        acc += term
        n_used = n + 1
        if term <= 1e-17 * acc:
            term = 0.0
            break
    q = float(p) ** (2 * (r - 1))
    tail = term * q / (1 - q)
    return ArNormReport(value=math.sqrt(acc), levels_used=n_used, tail_sq_estimate=tail)


def ar_norm(decomp: MultiscaleDecomposition, g, r: float) -> float:
    return ar_norm_report(decomp, g, r).value


def sobolev_norm_fourier(g: FourierFn, s: float) -> float:
    """Fourier H^s norm, (2 pi R sum (1+k^2)^s |g_k|^2)^{1/2}."""
    if abs(s) > 1:
        raise ValueError("|s| <= 1 expected, got %g" % s)
    ks = g.ks()
    return math.sqrt(2 * math.pi * g.R * float(((1 + ks.astype(float) ** 2) ** s * np.abs(g.coeffs) ** 2).sum()))


def projector_error_check(decomp: MultiscaleDecomposition, g: FourierFn, N: int, sigma: float, sigma_prime: float):
    """Both sides of ||P_N g - g||_{A^sigma} <= C p^{-N(sigma'-sigma)} ||g||_{A^sigma'}
    with C = p^{2 sigma}/(p^{2 sigma} - 1); returns (lhs, rhs).

    The left side uses the exact splitting P_n(g - P_N g) = 0 for n <= N and
    = P_n g - g + (g - P_N g) for n > N, so only projector errors of g appear.
    """
    if not 0 < sigma < sigma_prime < 0.5:
        raise ExponentOrderViolated(
            "need 0 < sigma d < sigma' d < 1/2, got sigma=%g sigma'=%g" % (sigma, sigma_prime)
        )
    p = decomp.p
    eN = err_norm_sq(decomp, g, N)
    s1 = (p ** (2 * sigma * (N + 1)) - 1) / (p ** (2 * sigma) - 1)
    acc = s1 * eN
    for n in range(N + 1, decomp.n_max + 1):
        term = p ** (2 * n * sigma) * err_norm_sq(decomp, g, n)
        acc += term
        if term <= 1e-17 * acc:
            break
    lhs = math.sqrt(acc)
    const = p ** (2 * sigma) / (p ** (2 * sigma) - 1)
    rhs = const * p ** (-N * (sigma_prime - sigma)) * ar_norm(decomp, g, sigma_prime)
    if not lhs <= rhs * (1 + 1e-9):
        raise AssertionError("projector error bound violated: %g > %g" % (lhs, rhs))
    return lhs, rhs


# ---------------------------------------------------------------------------
# traces and lifting


@dataclass
class LeafDensity:
    """Conormal trace density on the leaf cells: h_K = omega_K u'_K(ell-) / |Gamma_{N,K}|."""

    decomp: MultiscaleDecomposition
    level: int
    values: np.ndarray

    def as_fn(self) -> PiecewiseConstantFn:
        return PiecewiseConstantFn(self.decomp, self.level, self.values)

    def pair_with(self, v: PiecewiseConstantFn):
        """Duality pairing integral of density * v over Gamma (bilinear)."""
        if v.level != self.level:
            v = project_PN(v.decomp, v, self.level) if v.level > self.level else v.refine(self.level)
        return self.decomp.cell_measure(self.level) * (self.values * v.values).sum()


def _check_tree_vs_decomp(tree: FiniteTree, decomp: MultiscaleDecomposition):
    if tree.p != decomp.p:
        raise DepthMismatch("tree branching %d != decomposition branching %d" % (tree.p, decomp.p))
    if tree.depth > decomp.n_max:
        raise DepthMismatch("tree depth %d exceeds decomposition n_max %d" % (tree.depth, decomp.n_max))


def gamma0(f: calculus.TreeFunction, decomp: MultiscaleDecomposition) -> PiecewiseConstantFn:
    """Dirichlet trace: leaf values as a cell function at the leaf level."""
    _check_tree_vs_decomp(f.tree, decomp)
    return PiecewiseConstantFn(decomp, f.tree.depth, f.leaf_values())


def gamma1(f: calculus.TreeFunction, decomp: MultiscaleDecomposition, tol: float = 1e-8) -> LeafDensity:
    """Conormal trace density; requires f to have an L^2 Laplacian."""
    _check_tree_vs_decomp(f.tree, decomp)
    res = calculus.kirchhoff_residual(f)
    if res.relative > tol:
        raise KirchhoffViolated(
            "interior flux imbalance %g (relative %g) exceeds %g" % (res.max_abs, res.relative, tol)
        )
    level = f.tree.depth
    return LeafDensity(decomp, level, calculus.leaf_flux(f) / decomp.cell_measure(level))


def lift_to_tree(decomp: MultiscaleDecomposition, g, tree: FiniteTree) -> calculus.TreeFunction:
    """Piecewise-linear lifting: v(o) = 0 and v(X_{n,k}) = average of g on Gamma_{n,k}.

    The Dirichlet trace of the result at depth N is exactly P_N g.
    """
    _check_tree_vs_decomp(tree, decomp)
    values = [project_PN(decomp, g, n).values for n in range(tree.depth + 1)]
    return calculus.from_vertex_values(tree, 0.0, values)
