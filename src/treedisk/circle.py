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
the sign (-1)^a.  For k != 0 (Briggs and Henson, The DFT, SIAM 1995)

    (-1)^a sinc(k / p^n) = p^n sin(pi r / p^n) / (pi k),

so every bridge between cell values and modes is one fold (Fold): sum
the coefficients divided by k over alias rows of p^n modes, then multiply
by the sine, a function of r alone; mode 0 (weight 1) is set apart.  Both
directions cost one DFT of length p^n: O(M + p^n log p^n) for M modes, not
O(M p^n).  The sine is an exact zero at r = 0, so the aliased multiples
k = m p^n (m != 0) drop out and identities such as P_N P_n = P_min(N,n)
hold to rounding error.  It is evaluated at min(r, p^n - r): near
r = p^n, sin(pi r / p^n) is off by about 1e-14.  The Galerkin weights of
a symbol fold with sinc^2 (alias_fold).

Mode space is visited a block at a time (mode_blocks: whole alias rows,
at least BLOCK_MODES modes per block), with 1/k formed per block.  A fold
(Fold) takes the modes in the order of k, a block of whole rows at a
time, and adds the rows in order, each to the running sum, as one sum
over every row would, so its bits do not depend on the blocks.  The
modes come from objects with a cutoff M and a function block(lo, hi) of
the modes lo..hi-1, zero beyond M: FourierFn (from its centred values),
exterior.ExteriorSymbol (from its closed form in |k|) and CellModes (the
modes of cell values at a cutoff, formed per block from one fft) give
them, so no fold, norm or transform from cells to modes holds an array
over all 2M + 1 modes.  Modes combined from several objects run to the
largest of their cutoffs (the exterior field's to its data's, or to a
source mode further out), where the others' modes are zero.

The norms take modes and never materialize fine levels: the Fourier H^s
norms (sobolev_norms) sum over one block at a time, and ||P_n g||^2 =
2 pi R sum_r |S_r|^2 with S the fold of g, so the multiscale A^r norms
cost O(M) per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthMismatch, ExponentOrderViolated, NumericalCheckFailed


class MultiscaleDecomposition:
    """Equal-arc p-adic partition hierarchy of the circle of radius R."""

    def __init__(self, R: float, p: int, n_max: int):
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

    def block(self, lo: int, hi: int) -> np.ndarray:
        """The coefficients of the modes lo..hi-1, zero beyond M."""
        return centred_block(self.coeffs, lo, hi)

    @classmethod
    def from_modes(cls, R, modes: dict) -> "FourierFn":
        """The series of the modes {k: c_k}, cut at the largest |k|."""
        M = max((abs(k) for k in modes), default=0)
        coeffs = np.zeros(2 * M + 1, dtype=complex)
        for k, v in modes.items():
            coeffs[k + M] = v
        return cls(R, coeffs)

    def is_real(self) -> bool:
        """Whether c_{-k} = conj(c_k) exactly, so that the function is real."""
        return not (self.coeffs - np.conj(self.coeffs[::-1])).any()


# The least number of modes in a block of mode_blocks: a block's numpy calls
# then cost little beside its arithmetic, and a block of complex values
# takes 64 KiB.  The 2 * 16 p^N + 1 modes of a solve are one block at p^N <=
# 64 cells and nine at p = 2, N = 10.
BLOCK_MODES = 2**12


def mode_blocks(M: int, width: int):
    """(lo, hi): the modes -M..M in blocks of whole rows of min(width, 2M + 1)
    modes, at least BLOCK_MODES modes per block but the last."""
    w = min(width, 2 * M + 1)
    step = -(-BLOCK_MODES // w) * w
    for lo in range(-M, M + 1, step):
        yield lo, min(lo + step, M + 1)


def centred_block(values, lo: int, hi: int) -> np.ndarray:
    """The modes lo..hi-1 of the centred values (modes -M..M), zero beyond M,
    as a new array (ExteriorField writes into the blocks of its data)."""
    M = (values.size - 1) // 2
    out = np.zeros(hi - lo, dtype=values.dtype)
    a, b = max(lo, -M), min(hi, M + 1)
    if a < b:
        out[a - lo : b - lo] = values[a + M : b + M]
    return out


def _reciprocals(lo: int, hi: int) -> np.ndarray:
    """1/k for the modes lo..hi-1, 0 for the mode 0 that callers set apart."""
    ks = np.arange(lo, hi, dtype=float)
    if lo <= 0 < hi:
        ks[-lo] = np.inf
    return 1.0 / ks


def _alias_classes(M: int, pn: int):
    """The alias classes of the modes |k| <= M on pn cells (module docstring).

    The centred modes, cut into rows of width min(pn, 2M + 1), put mode k
    in column (k + M) mod width, and column j holds the modes of the class
    r[j] = (j - M) mod pn.  Returns (r, sine): sine[j] = pn sin(pi r[j] /
    pn) / pi, so that (-1)^a sinc(k / pn) = sine[j] / k for k != 0.
    """
    r = (np.arange(min(pn, 2 * M + 1)) - M) % pn
    return r, _sine(r, pn)


def _sine(r, pn: int) -> np.ndarray:
    """pn sin(pi r / pn) / pi for the classes r, taken at min(r, pn - r)."""
    return pn * np.sin(np.pi * np.minimum(r, pn - r) / pn) / np.pi


class Fold:
    """The alias fold of the centred modes -M..M (module docstring), taken
    in the order of k, a block of whole rows at a time.

    add(x) takes the next x.size modes, whose reciprocals 1/k it forms, and
    adds their rows (w = min(pn, 2M + 1) modes each) to the running sum S
    in order: S is added to the first of them and the rows are summed, and
    numpy sums the rows of a 2-D array one after the other, so S has the
    bits of one sum over every row, which the rows' own sum added to S
    would not.  Every add but the last is whole rows, as mode_blocks gives
    them; the last row may be unfinished, and is padded with zeros, so an
    add after it raises ValueError.  Rows of one mode (pn = 1) are summed
    pairwise instead, so there the bits are those of one sum when all the
    modes come in one add, as mode_blocks gives up to BLOCK_MODES modes.
    """

    def __init__(self, M: int, pn: int, power: int = 1):
        self.r, self.sine = _alias_classes(M, pn)
        self.M, self.pn, self.power = M, pn, power
        self.next = -M
        self.S = None

    def add(self, x) -> None:
        lo, width = self.next, self.r.size
        if (lo + self.M) % width:
            raise ValueError("modes from %d follow an unfinished row of %d modes" % (lo, width))
        self.next = lo + x.size
        if lo <= 0 < self.next:
            self.x0 = x[-lo]
        v = x * _reciprocals(lo, self.next) ** self.power
        if v.size % width:
            v = np.concatenate((v, np.zeros(width - v.size % width, dtype=v.dtype)))
        rows = v.reshape(-1, width)
        if self.S is not None:
            rows[0] += self.S
        self.S = rows.sum(axis=0)

    def classes(self):
        """(r, S) once every mode is added: S[j] sums x_k ((-1)^a sinc(k /
        pn))^power over the modes of class r[j]."""
        S = self.S * self.sine**self.power
        S[self.M % self.r.size] += self.x0
        return self.r, S

    def folded(self) -> np.ndarray:
        """S_r over the pn classes, once every mode is added."""
        r, S = self.classes()
        out = np.zeros(self.pn, dtype=S.dtype)
        out[r] = S
        return out

    def averages(self, phases) -> np.ndarray:
        """The pn cell averages of the modes (power 1), once every mode is added;
        phases = twiddles(pn), built once by a caller that folds more than once."""
        return self.pn * np.fft.ifft(self.folded() * phases)


def _folded(block, M: int, pn: int, power: int = 1) -> Fold:
    """The Fold of the modes block(lo, hi), |k| <= M, one block of mode_blocks at a time."""
    fold = Fold(M, pn, power)
    for lo, hi in mode_blocks(M, pn):
        fold.add(block(lo, hi))
    return fold


def alias_fold(block, M: int, pn: int) -> np.ndarray:
    """S_r = sum_a x_k sinc^2(k / pn) over k = r + a pn, r < pn: the fold of
    the Galerkin weights of a symbol (exterior.galerkin_row).

    block(lo, hi) gives the centred mode values x_lo..x_{hi-1}, |k| <= M,
    one block of mode_blocks at a time (Fold, with power 2).  The aliased
    multiples k = m pn (m != 0) add exact zeros.
    """
    return _folded(block, M, pn, 2).folded()


def twiddles(pn: int) -> np.ndarray:
    """e^{i pi j / pn}, j < pn: the phases that turn the fold of the modes
    into the DFT of the cell averages (Fold.averages)."""
    return np.exp(1j * np.pi * np.arange(pn) / pn)


class CellModes:
    """The modes |k| <= M of piecewise-constant cell values, formed a block at a time.

    With W = e^{-i pi j / pn} fft(values) / pn, mode k != 0 of class r = k
    mod pn is W_r sine_r / k (module docstring) and mode 0 is W_0, so one
    fft of the pn values gives every block; base holds W_r sine_r.  Every
    block is formed when asked, as a new array that the caller may write
    into.
    """

    def __init__(self, g: PiecewiseConstantFn, M: int):
        pn = g.decomp.n_cells(g.level)
        W = np.exp(-1j * np.pi * np.arange(pn) / pn) * np.fft.fft(g.values) / pn
        self.R = g.decomp.R
        self.M = M
        self.mean = W[0]
        self.base = W * _sine(np.arange(pn), pn)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """The modes lo..hi-1, zero beyond M, as a new array."""
        modes = self.base[np.arange(lo, hi) % self.base.size] * _reciprocals(lo, hi)
        if lo <= 0 < hi:
            modes[-lo] = self.mean
        modes[: max(-self.M - lo, 0)] = 0
        modes[max(self.M + 1 - lo, 0) :] = 0
        return modes


def cell_averages(decomp: MultiscaleDecomposition, g, n: int) -> np.ndarray:
    """Averages of g over the level-n cells (complex for Fourier input).

    g is a PiecewiseConstantFn, or modes with M and block(lo, hi) (a
    FourierFn, say), folded a block at a time (Fold).
    """
    if isinstance(g, PiecewiseConstantFn):
        if g.level <= n:
            return np.repeat(g.values, decomp.p ** (n - g.level))
        chunk = decomp.p ** (g.level - n)
        return g.values.reshape(decomp.n_cells(n), chunk).mean(axis=1)
    pn = decomp.n_cells(n)
    return _folded(g.block, g.M, pn).averages(twiddles(pn))


def cell_integrals(decomp: MultiscaleDecomposition, g, n: int) -> np.ndarray:
    return cell_averages(decomp, g, n) * decomp.cell_measure(n)


def l2_norm_sq(g) -> float:
    return sobolev_norms(g, 0)[0] ** 2


def proj_norm_sq(decomp: MultiscaleDecomposition, g, n: int) -> float:
    """||P_n g||^2 of the modes g (a FourierFn, say) without forming level-n
    values (aliased mode sums)."""
    _, S = _folded(g.block, g.M, decomp.n_cells(n)).classes()
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
    """||g||_{A^r}^2 = ||P_0 g||^2 + sum_{n>=0} p^{2nr} ||g - P_n g||^2 of the modes g.

    The series is summed until the terms are negligible or n_max is hit;
    the remainder is estimated by the limiting geometric ratio p^{2(r-1)}
    (valid once the projector error decays at first order).
    """
    if not 0 < r < 0.5:
        raise ExponentOrderViolated("A^r norms require 0 < r < 1/2, got r=%g" % r)
    acc, n_used, term = _error_series(decomp, g, r, 0, proj_norm_sq(decomp, g, 0))
    q = float(decomp.p) ** (2 * (r - 1))
    tail = term * q / (1 - q)
    return ArNormReport(value=math.sqrt(acc), levels_used=n_used, tail_sq_estimate=tail)


def _error_series(decomp: MultiscaleDecomposition, g, r: float, start: int, acc: float):
    """acc + sum_{start <= n <= n_max} p^{2nr} ||g - P_n g||^2, stopped at the
    first negligible term; (sum, levels summed from 0, last term, or 0 once
    negligible)."""
    term, n = 0.0, start - 1
    for n in range(start, decomp.n_max + 1):
        term = decomp.p ** (2 * n * r) * err_norm_sq(decomp, g, n)
        acc += term
        if term <= 1e-17 * acc:
            return acc, n + 1, 0.0
    return acc, n + 1, term


def ar_norm(decomp: MultiscaleDecomposition, g, r: float) -> float:
    return ar_norm_report(decomp, g, r).value


def sobolev_norms(g, *orders) -> list:
    """Fourier H^s norms (2 pi R sum_k (1+k^2)^s |g_k|^2)^{1/2}, |s| <= 1, of
    the modes g, one for each s of orders (s = 0 is the L^2 norm).

    g has R, M and block(lo, hi) (a FourierFn or CellModes), and the sums
    are taken one block of mode_blocks at a time, all orders in one pass.
    """
    if any(abs(s) > 1 for s in orders):
        raise ValueError("|s| <= 1 expected, got %r" % (orders,))
    sums = np.zeros(len(orders))
    for lo, hi in mode_blocks(g.M, 1):
        sq = np.abs(g.block(lo, hi)) ** 2
        weight = 1 + np.arange(lo, hi, dtype=float) ** 2
        sums += [float((weight**s * sq).sum()) for s in orders]
    return [math.sqrt(2 * math.pi * g.R * t) for t in sums]


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
    lhs = math.sqrt(_error_series(decomp, g, sigma, N + 1, s1 * eN)[0])
    const = p ** (2 * sigma) / (p ** (2 * sigma) - 1)
    rhs = const * p ** (-N * (sigma_prime - sigma)) * ar_norm(decomp, g, sigma_prime)
    if not lhs <= rhs * (1 + 1e-9):
        raise NumericalCheckFailed("projector error bound violated: %g > %g" % (lhs, rhs))
    return lhs, rhs
