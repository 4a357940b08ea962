"""Exterior planar Laplace tools outside a disk of radius R.

On the circle of radius R every boundary operator of the exterior Laplace
problem acts diagonally on Fourier modes, so the Dirichlet-to-Neumann map
and the layer potentials S, T* and the hypersingular operator are carried
around as symbols s_k (ExteriorSymbol): R, the cutoff M and the closed form
in |k|, from which every caller forms a block of modes at a time, so no
symbol holds its 2M+1 values.  The symbol values are cross-checked two
independent ways: against direct quadrature of the log kernel (with a
singularity-graded Gauss rule, since the kernel is only weakly singular)
and against the boundary-equation identity linking S, T and the DtN map.

Source terms are radial Laurent-polynomial profiles supported in an
annulus [R, r_max]; the exterior Dirichlet problem Delta u = f is solved
per mode by variation of parameters around the homogeneous pair
(r^{|k|}, r^{-|k|}), or (1, log r) for the mean mode, in the bounded
radiation class: solutions stay O(1) at infinity.

Normal direction convention: the conormal trace gamma1
(ExteriorField.trace1_of) is d/dr at r = R, pointing out of the disk into
the exterior domain.
"""

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .circle import BLOCK_MODES, MultiscaleDecomposition, alias_fold, mode_blocks
from .dtn import check_dense
from .errors import AssemblyTooLarge, CutoffTooSmall, NonPositiveParameter, ScaleEqualsRadius

MODE_OVERSAMPLING = 16

# The modes an input names are capped at the tree's leaf budget: the
# rows of `treedisk exterior-dtn --modes`, a source's modes and a
# manufactured datum's, each of which is visited or written mode by mode.
# Symbols, a solve and a convergence study form their modes per block
# (ExteriorSymbol, ExteriorField, circle.CellModes) and are bound by the
# tree budget alone.
MODE_BUDGET = 2**23

_GL64 = np.polynomial.legendre.leggauss(64)
_GL24 = np.polynomial.legendre.leggauss(24)

# the node budget of single_layer_quadrature
_QUADRATURE_NODES = 2048

# ExteriorField.eval takes at most this many points with one block of
# modes, so its (points x modes) arrays hold at most 4 MiB each
_EVAL_POINTS = 64


@dataclass(frozen=True)
class ExteriorSymbol:
    """Fourier symbol s_k, |k| <= M, of a boundary operator on the circle,
    formed a block at a time from its closed form in |k|.

    form maps an array of |k| to the symbol's values there; no array over
    all 2M+1 modes is held, so M is bounded by no budget.
    """

    R: float
    M: int
    form: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.R <= 0:
            raise NonPositiveParameter("radius must be positive")

    def block(self, lo: int, hi: int) -> np.ndarray:
        """s_lo..s_{hi-1}, zero beyond M."""
        a, b = max(lo, -self.M), min(hi, self.M + 1)
        values = self.form(np.abs(np.arange(a, b)))
        if (a, b) == (lo, hi):
            return values
        out = np.zeros(hi - lo)
        out[a - lo : a - lo + values.size] = values
        return out

    def coeff(self, k: int) -> float:
        return float(self.block(k, k + 1)[0])


def check_mode_budget(M: int) -> None:
    """Raise AssemblyTooLarge when M is beyond MODE_BUDGET: an input that
    names modes up to M holds or writes every mode up to it."""
    if M > MODE_BUDGET:
        raise AssemblyTooLarge("modes up to %d exceed the mode budget of %d" % (M, MODE_BUDGET))


def dtn_symbol(R: float, M: int) -> ExteriorSymbol:
    """Exterior DtN symbol: s_0 = 0, s_k = -|k|/R.

    Non-positive with kernel the constants; the harmonic extension of
    e^{ik theta} is (R/r)^{|k|} e^{ik theta}, whose radial derivative at R
    is -|k|/R.
    """
    return ExteriorSymbol(R, M, lambda ak: -ak / R)


def layer_symbols(R: float, r_scale: float, M: int):
    """Symbols of the single layer S, transposed double layer T*, and hypersingular R.

    S_0 = R log(r_scale/R), S_k = R/(2|k|); T*_0 = -1, T*_k = 0;
    R_0 = 0, R_k = |k|/(2R).  r_scale is the fundamental-solution scale and
    must differ from R so that S is injective.
    """
    if R <= 0:
        raise NonPositiveParameter("radius must be positive")
    if r_scale == R:
        raise ScaleEqualsRadius("r_scale = R makes the single layer singular on constants")
    s_0 = R * math.log(r_scale / R)
    return (
        ExteriorSymbol(R, M, lambda ak: np.where(ak == 0, s_0, R / (2.0 * np.maximum(ak, 1)))),
        ExteriorSymbol(R, M, lambda ak: np.where(ak == 0, -1.0, 0.0)),
        ExteriorSymbol(R, M, lambda ak: ak / (2.0 * R)),
    )


def bie_dtn_crosscheck(R: float, r_scale: float, M: int) -> float:
    """Max defect of S_k * dtn_k + (1 - T_k)/2 over modes 1 <= |k| <= M.

    The identity encodes the Dirichlet boundary equation at zero volume
    source; mode 0 is excluded because the log-growth and bounded radiation
    classes differ there (including it gives defect 1 by design).  The
    symbols are read a block of mode_blocks at a time.
    """
    single, double_t, _ = layer_symbols(R, r_scale, M)
    dtn = dtn_symbol(R, M)
    worst = 0.0
    for lo, hi in mode_blocks(M, 1):
        defect = single.block(lo, hi) * dtn.block(lo, hi) + 0.5 * (1.0 - double_t.block(lo, hi))
        worst = max(worst, np.abs(defect[np.arange(lo, hi) != 0]).max(initial=0.0))
    return float(worst)


def single_layer_quadrature(R: float, r_scale: float, k: int) -> float:
    """Direct kernel quadrature of (S e^{ik.})(x) at x = (R, 0).

    Integrates (R/2pi) log(r_scale / (2R sin(theta/2))) cos(k theta) over
    the circle.  The kernel is log-singular at theta = 0, so the rule
    grades panels geometrically toward the singularity and applies
    Gauss-Legendre on each, plus the analytic integral of the log tail;
    this reproduces S_k to near machine precision within the node budget.
    """
    if r_scale == R:
        raise ScaleEqualsRadius("r_scale = R makes the single layer singular on constants")
    a = abs(int(k))
    q = _GL24[0].size
    n_panels = max((_QUADRATURE_NODES // 2) // q, 4)
    eps_cut = 1e-15
    ratio = (eps_cut / math.pi) ** (1.0 / n_panels)
    breaks = math.pi * ratio ** np.arange(n_panels + 1)
    total = 0.0
    for lo, hi in zip(breaks[1:], breaks[:-1]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        theta = mid + half * _GL24[0]
        vals = np.log(r_scale / (2.0 * R * np.sin(theta / 2.0))) * np.cos(a * theta)
        total += half * float(_GL24[1] @ vals)
    # analytic tail over [0, eps]: kernel ~ log(r_scale/(R theta)), cos ~ 1
    eps = breaks[-1]
    total += eps * (math.log(r_scale / (R * eps)) + 1.0)
    return float(R / math.pi * total)


# ---------------------------------------------------------------------------
# radial sources and per-mode exterior solves


def _as_profile(profile) -> dict:
    if isinstance(profile, dict):
        return {int(m): complex(c) for m, c in profile.items() if c != 0}
    arr = np.atleast_1d(np.asarray(profile, dtype=complex))
    return {m: complex(c) for m, c in enumerate(arr) if c != 0}


@dataclass
class RadialSource:
    """Volume source f(r, theta) = sum_k f_k(r) e^{ik theta} in an annulus.

    Each profile f_k is a Laurent polynomial in r (dict power -> coeff, or
    an ascending coefficient array), supported on [R, r_max] and zero
    outside.  Real sources satisfy f_{-k} = conj(f_k).  A mode beyond
    MODE_BUDGET raises AssemblyTooLarge, since the exterior solve visits
    every mode up to it.
    """

    R: float
    r_max: float
    terms: list = field(default_factory=list)

    def __post_init__(self):
        if not (0 < self.R < self.r_max):
            raise NonPositiveParameter("need 0 < R < r_max")
        merged = {}
        for k, profile in self.terms:
            check_mode_budget(abs(int(k)))
            prof = _as_profile(profile)
            if int(k) in merged:
                for m, c in prof.items():
                    merged[int(k)][m] = merged[int(k)].get(m, 0.0) + c
            else:
                merged[int(k)] = prof
        self.terms = sorted(merged.items())

    def modes(self):
        return [k for k, _ in self.terms]

    def profile_value(self, k: int, r):
        scalar = np.isscalar(r)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros(r.shape, dtype=complex)
        for mode, prof in self.terms:
            if mode == k:
                for m, c in prof.items():
                    out = out + c * r**m
        out[(r < self.R) | (r > self.r_max)] = 0.0
        return complex(out[0]) if scalar else out


def _source_integral(source: RadialSource, k: int, expo: float, upper: float,
                     with_log: bool = False, scale: float = 1.0) -> complex:
    """Gauss integral of (s/scale)^expo * f_k(s) (optionally * log s) over [R, min(upper, r_max)]."""
    hi = min(upper, source.r_max)
    if hi <= source.R:
        return 0.0
    mid, half = 0.5 * (hi + source.R), 0.5 * (hi - source.R)
    s = mid + half * _GL64[0]
    vals = (s / scale)**expo * source.profile_value(k, s)
    if with_log:
        vals = vals * np.log(s)
    return complex(half * (_GL64[1] @ vals))


def _support(data) -> int:
    """The largest |k| with a nonzero mode in data (M and block(lo, hi)), 0
    when there is none.

    Bands of BLOCK_MODES modes on each side are scanned from the outside
    in, then the modes |k| <= BLOCK_MODES that remain as one block.
    """
    top = data.M
    while top > BLOCK_MODES:
        lo = top - BLOCK_MODES + 1
        pos = np.flatnonzero(data.block(lo, top + 1))
        neg = np.flatnonzero(data.block(-top, 1 - lo))
        if pos.size or neg.size:
            return int(max(lo + pos[-1] if pos.size else 0, top - neg[0] if neg.size else 0))
        top = lo - 1
    return int(np.abs(np.flatnonzero(data.block(-top, top + 1)) - top).max(initial=0))


@dataclass
class ExteriorField:
    """Per-mode exterior solution a_k (R/r)^{|k|} + b_k (r/R)^{|k|} + particular part.

    The modes run over |k| <= M, where M is the largest |k| that is a
    source mode or carries nonzero data.  Mode 0 carries a constant a_0 and
    a coefficient b_0 of log r, which cancels the log growth of the
    source's mean.  Normalizing the powers at R keeps every coefficient of
    the order of the data, whatever R and |k|.  The particular part
    vanishes along with its derivative at r = R, so traces at the boundary
    involve only (a, b).

    The field holds R, the source, the Dirichlet data and the few modes
    the solve sets apart: data gives the data's modes g_k a block at a time
    (data.block(lo, hi): a FourierFn, or circle.CellModes of g's cells),
    and fixed maps each source mode to its b_k.  There a_k = g_k - b_k
    (a_0 = g_0 - b_0 log R); elsewhere a_k = g_k, b_k = 0.
    block forms (a, b) over the modes lo..hi-1, trace0_of and trace1_of the
    traces from them, trace0_block the Dirichlet trace's modes, and eval
    the field at points from one block of (a, b) at a time; no method
    holds an array over all the modes |k| <= M.
    """

    R: float
    M: int
    data: object
    fixed: dict
    source: RadialSource | None = None

    def block(self, lo: int, hi: int, data=None):
        """(a, b) over the modes lo..hi-1, zero beyond M.

        data, the data's modes lo..hi-1 when the caller has formed them
        already, is written into and returned as a; otherwise the data
        forms a new block (circle.CellModes, FourierFn.block), and a is that.
        """
        if self.data is None:
            a = np.zeros(hi - lo, dtype=complex)
        else:
            a = np.asarray(self.data.block(lo, hi) if data is None else data, dtype=complex)
            a[: max(-self.M - lo, 0)] = 0
            a[max(self.M + 1 - lo, 0) :] = 0
        b = np.zeros_like(a)
        for k, b_k in self.fixed.items():
            if lo <= k < hi:
                ghat = complex(a[k - lo])
                a[k - lo] = ghat - b_k if k else ghat - b_k * math.log(self.R)
                b[k - lo] = b_k
        return a, b

    def eval(self, r, theta):
        """The field at the points (r, theta), in their broadcast shape; r < R
        raises ValueError.

        The modes are summed one block of mode_blocks at a time, as a
        (points x modes) product of a_k (R/r)^|k| e^{ik theta} (one complex
        exp per entry), for at most _EVAL_POINTS points at once.  The growing part b_k (r/R)^|k|, and
        b_0 log r at k = 0, is formed only where b_k != 0: the power
        overflows far from R at a large |k|, and 0 * inf is NaN.  Each
        source mode then adds its particular part point by point.
        """
        r, theta = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
        shape, r, theta = r.shape, r.ravel(), theta.ravel()
        if np.any(r < self.R):
            raise ValueError("exterior field evaluated inside the disk")
        out = np.zeros(r.size, dtype=complex)
        for lo, hi in mode_blocks(self.M, 1):
            a, b = self.block(lo, hi)
            ks = np.arange(lo, hi)
            for i in range(0, r.size, _EVAL_POINTS):
                pts = slice(i, i + _EVAL_POINTS)
                # (R/r)^|k| e^{ik theta} as one complex exponential
                decay = np.multiply.outer(np.log(self.R / r[pts]), np.abs(ks))
                out[pts] += np.exp(decay + 1j * np.multiply.outer(theta[pts], ks)) @ a
                for j in np.flatnonzero(b):
                    grow = np.log(r[pts]) if ks[j] == 0 else (r[pts] / self.R) ** abs(ks[j])
                    out[pts] += b[j] * grow * np.exp(1j * ks[j] * theta[pts])
        for k in self.source.modes() if self.source is not None else ():
            ak = abs(k)
            part = np.zeros(r.size, dtype=complex)
            for i in np.flatnonzero(r > self.source.R):
                ri = r[i]
                if ak == 0:
                    ia = _source_integral(self.source, k, 1.0, ri)
                    il = _source_integral(self.source, k, 1.0, ri, with_log=True)
                    part[i] = math.log(ri) * ia - il
                else:
                    im = _source_integral(self.source, k, 1.0 - ak, ri)
                    ip = _source_integral(self.source, k, 1.0 + ak, ri)
                    part[i] = (ri**ak * im - ri**(-ak) * ip) / (2.0 * ak)
            out += part * np.exp(1j * k * theta)
        return out.reshape(shape)

    def trace0_of(self, lo: int, a, b) -> np.ndarray:
        """The Dirichlet trace's modes from lo on, from their (a, b) (block):
        a_k + b_k, and a_0 + b_0 log R."""
        coeffs = a + b
        if lo <= 0 < lo + a.size:
            coeffs[-lo] = a[-lo] + b[-lo] * math.log(self.R)
        return coeffs

    def trace1_of(self, lo: int, a, b) -> np.ndarray:
        """The conormal trace's modes from lo on, from their (a, b) (block):
        |k| (b_k - a_k) / R, and b_0 / R."""
        coeffs = np.abs(np.arange(lo, lo + a.size)) * (b - a) / self.R
        if lo <= 0 < lo + a.size:
            coeffs[-lo] = b[-lo] / self.R
        return coeffs

    def trace0_block(self, lo: int, hi: int) -> np.ndarray:
        """The Dirichlet trace's modes lo..hi-1."""
        return self.trace0_of(lo, *self.block(lo, hi))


def solve_exterior_dirichlet(g, source: RadialSource | None, R: float | None = None,
                             lift: ExteriorField | None = None) -> ExteriorField:
    """Solve Delta u = f outside the disk with u = g on the boundary circle.

    Per mode k the solution is fixed by the Dirichlet value at R and the
    bounded radiation class, which kills the growing part (r^{|k|}, and
    log r at k = 0, adjusting the free constant).  Modes without a source
    term are a_k = g_k, b_k = 0 (b_0 cancels only a source's log growth),
    and are formed from g a block at a time when asked (ExteriorField); the
    source modes take the formulas below one by one.  g is a FourierFn,
    modes with R, M and block(lo, hi) (circle.CellModes, say), or None.
    b_k does not depend on g: lift, a solution for the same source (the one
    with g = None, say), hands over its b_k on the source modes, so their
    integrals are not computed again.
    """
    if R is None:
        R = g.R if g is not None else (source.R if source is not None else None)
    if R is None:
        raise ValueError("radius must be given when both g and source are absent")
    if g is not None and abs(g.R - R) > 1e-12 * R:
        raise ValueError("boundary data radius differs from R")
    if source is not None and abs(source.R - R) > 1e-12 * R:
        raise ValueError("source annulus does not start at R")

    ks = source.modes() if source is not None else []
    M = max((abs(k) for k in ks), default=0)
    if g is not None:
        M = max(M, _support(g))
    if lift is not None and source is not None and lift.source is not source:
        raise ValueError("the lift solves another source")
    fixed = {}
    for k in ks:
        ak = abs(k)
        if lift is not None:
            # as an array of the lift's b_k would hold it
            fixed[k] = np.complex128(lift.fixed[k])
        elif ak > 0:
            fixed[k] = -R * _source_integral(source, k, 1.0 - ak, np.inf, scale=R) / (2.0 * ak)
        else:
            fixed[k] = -_source_integral(source, k, 1.0, np.inf)
    return ExteriorField(R=float(R), M=M, data=g, fixed=fixed, source=source)


# ---------------------------------------------------------------------------
# symbol Galerkin matrices on the multiscale cells


def check_cutoff(M: int, p: int, level: int):
    """Warn (CutoffTooSmall) when M modes under-resolve the entries on the p^level cells.

    p^level exceeds M once level reaches M's bit length (p >= 2), so such
    a level warns before p^level is formed, as tree.check_tree_budget does.
    """
    if p > 1 and level >= int(M).bit_length() or M < MODE_OVERSAMPLING * p**level:
        warnings.warn(CutoffTooSmall(
            "mode cutoff %d below %d * %d^%d cells; entry tails unresolved"
            % (M, MODE_OVERSAMPLING, p, level)))


def galerkin_row(decomp: MultiscaleDecomposition, N: int, symbol: ExteriorSymbol) -> np.ndarray:
    """Row a of the Galerkin matrix A[K][L] = 2 pi R sum_k s_k (1hat_L)_k (1hat_K)_{-k} on level N.

    The cell phases make A a symmetric circulant: its entries depend on
    (K - L) mod p^N only, through the row

        a_j = 2 pi R sum_k w_k cos(2 pi j k / p^N),  w_k = s_k sinc^2(k / p^N) / p^{2N}.

    Folding the weights onto k mod p^N (circle.alias_fold with power 2)
    turns that sum into the real part of one FFT of length p^N, so the row
    costs O(M + p^N log p^N) time, and fft(a) holds the eigenvalues of A.
    The symbol is folded a block at a time, so the row takes O(p^N) memory
    besides one block of modes.  For the DtN symbol the sinc zeros at
    aliased modes give A 1 = 0 up to rounding and the quadratic form 2 pi R sum s_k |g_M(k)|^2 <= 0, so A is negative
    semidefinite at every cutoff.  Entries of the order-one symbols (DtN,
    hypersingular) depend on the cutoff M (their diagonal grows like log M);
    the summable layer symbols converge with tail O(M^{-2}).
    """
    if abs(symbol.R - decomp.R) > 1e-12 * decomp.R:
        raise ValueError("symbol radius differs from the decomposition radius")
    pn = decomp.n_cells(N)
    check_cutoff(symbol.M, decomp.p, N)
    folded = alias_fold(symbol.block, symbol.M, pn, power=2) / float(pn) ** 2
    return 2.0 * math.pi * decomp.R * np.fft.fft(folded).real


def circulant_view(row: np.ndarray) -> np.ndarray:
    """The circulant with first column row as a read-only strided view: entry
    (i, j) is row[(i - j) mod n], read from the reversed doubled row, so only
    2n values are stored."""
    n = row.size
    doubled = np.concatenate((row, row))[::-1]
    return np.lib.stride_tricks.sliding_window_view(doubled, n)[n - 1::-1]


def dtn_galerkin(decomp: MultiscaleDecomposition, N: int, symbol: ExteriorSymbol) -> np.ndarray:
    """Dense level-N Galerkin matrix of a symbol: a copy of the circulant view
    of galerkin_row."""
    check_dense(decomp.p, N)
    return circulant_view(galerkin_row(decomp, N, symbol)).copy()
