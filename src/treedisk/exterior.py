"""Exterior planar Laplace tools outside a disk of radius R.

On the circle of radius R every boundary operator of the exterior Laplace
problem acts diagonally on Fourier modes, so the Dirichlet-to-Neumann map
and the layer potentials S, T* and the hypersingular operator are carried
around as symbol sequences s_k.  The symbol values are cross-checked two
independent ways: against direct quadrature of the log kernel (with a
singularity-graded Gauss rule, since the kernel is only weakly singular)
and against the boundary-equation identity linking S, T and the DtN map.

Source terms are radial Laurent-polynomial profiles supported in an
annulus [R, r_max]; the exterior Dirichlet problem Delta u = f is solved
per mode by variation of parameters around the homogeneous pair
(r^{|k|}, r^{-|k|}), or (1, log r) for the mean mode, in the bounded
radiation class: solutions stay O(1) at infinity.

Normal direction convention: gamma1 is d/dr at r = R, pointing out of the
disk into the exterior domain.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .circle import FourierFn, MultiscaleDecomposition, alias_fold
from .dtn import check_dense
from .errors import AssemblyTooLarge, CutoffTooSmall, NonPositiveParameter, ScaleEqualsRadius

MODE_OVERSAMPLING = 16

# Symbols hold 2M+1 values: M is capped at the tree's leaf budget, which
# bounds an interface solve (MODE_OVERSAMPLING * p^N modes) at 2^19 cells.
MODE_BUDGET = 2**23

_GL64 = np.polynomial.legendre.leggauss(64)
_GL24 = np.polynomial.legendre.leggauss(24)

# the node budget of single_layer_quadrature
_QUADRATURE_NODES = 2048


@dataclass
class ExteriorSymbol:
    """Fourier symbol s_k, |k| <= M, of a boundary operator on the circle.

    values holds s_{-M}..s_M, an odd number of values.
    """

    R: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size % 2 == 0:
            raise ValueError("need 2M+1 symbol values")

    @property
    def M(self) -> int:
        return (self.values.size - 1) // 2

    def ks(self):
        return np.arange(-self.M, self.M + 1)

    def coeff(self, k: int) -> float:
        if abs(k) > self.M:
            raise IndexError("mode %d beyond cutoff %d" % (k, self.M))
        return float(self.values[k + self.M])

    def apply(self, g: FourierFn) -> FourierFn:
        """Multiply a Fourier function by the symbol (modes beyond M are dropped)."""
        m = min(self.M, g.M)
        values = self.values[self.M - m : self.M + m + 1]
        return FourierFn(self.R, values * g.coeffs[g.M - m : g.M + m + 1])


def check_mode_budget(M: int) -> None:
    """Raise AssemblyTooLarge before the 2M+1 values of modes |k| <= M are allocated."""
    if M > MODE_BUDGET:
        raise AssemblyTooLarge("modes up to %d exceed the mode budget of %d" % (M, MODE_BUDGET))


def _modes(M: int) -> np.ndarray:
    """The mode numbers -M..M, once M is within MODE_BUDGET."""
    check_mode_budget(M)
    return np.arange(-M, M + 1)


def dtn_symbol(R: float, M: int) -> ExteriorSymbol:
    """Exterior DtN symbol: s_0 = 0, s_k = -|k|/R.

    Non-positive with kernel the constants; the harmonic extension of
    e^{ik theta} is (R/r)^{|k|} e^{ik theta}, whose radial derivative at R
    is -|k|/R.
    """
    if R <= 0:
        raise NonPositiveParameter("radius must be positive")
    return ExteriorSymbol(R, -np.abs(_modes(M)) / R)


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
    ak = np.abs(_modes(M))
    safe = np.maximum(ak, 1)
    single = np.where(ak == 0, R * math.log(r_scale / R), R / (2.0 * safe))
    double_t = np.where(ak == 0, -1.0, 0.0)
    hyper = ak / (2.0 * R)
    return (
        ExteriorSymbol(R, single),
        ExteriorSymbol(R, double_t),
        ExteriorSymbol(R, hyper),
    )


def bie_dtn_crosscheck(R: float, r_scale: float, M: int) -> float:
    """Max defect of S_k * dtn_k + (1 - T_k)/2 over modes 1 <= |k| <= M.

    The identity encodes the Dirichlet boundary equation at zero volume
    source; mode 0 is excluded because the log-growth and bounded radiation
    classes differ there (including it gives defect 1 by design).
    """
    single, double_t, _ = layer_symbols(R, r_scale, M)
    dtn = dtn_symbol(R, M)
    ks = dtn.ks()
    keep = ks != 0
    defect = single.values * dtn.values + 0.5 * (1.0 - double_t.values)
    return float(np.abs(defect[keep]).max())


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
    MODE_BUDGET raises AssemblyTooLarge, since the exterior solve holds
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

    def is_real(self, tol: float = 1e-12) -> bool:
        prof = dict(self.terms)
        for k, pk in prof.items():
            qk = prof.get(-k, {})
            keys = set(pk) | set(qk)
            for m in keys:
                if abs(pk.get(m, 0.0) - np.conj(qk.get(m, 0.0))) > tol:
                    return False
        return True


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


def _centered(coeffs, M: int) -> np.ndarray:
    """Centered coefficients padded with zeros (or cut) to modes |k| <= M."""
    out = np.zeros(2 * M + 1, dtype=complex)
    c = (coeffs.size - 1) // 2
    m = min(M, c)
    out[M - m : M + m + 1] = coeffs[c - m : c + m + 1]
    return out


@dataclass
class ExteriorField:
    """Per-mode exterior solution a_k (R/r)^{|k|} + b_k (r/R)^{|k|} + particular part.

    `a` and `b` are centered coefficient arrays over |k| <= M, where M is the
    largest |k| that is a source mode or carries nonzero data.  Mode 0
    carries a constant a_0 and a coefficient b_0 of log r, which cancels
    the log growth of the source's mean.  Normalizing the powers at R
    keeps every coefficient of the order of the data, whatever R and |k|.  The
    particular part vanishes along with its derivative at r = R, so traces
    at the boundary involve only (a, b).
    """

    R: float
    a: np.ndarray
    b: np.ndarray
    source: RadialSource | None = None

    @property
    def M(self) -> int:
        return (self.a.size - 1) // 2

    def mode_coeffs(self, k: int):
        k = int(k)
        if abs(k) > self.M:
            return (0.0, 0.0)
        return (complex(self.a[k + self.M]), complex(self.b[k + self.M]))

    def eval_mode(self, k: int, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < self.R):
            raise ValueError("exterior field evaluated inside the disk")
        a_c, b_c = self.mode_coeffs(k)
        ak = abs(int(k))
        if ak == 0:
            out = a_c + b_c * np.log(r) + 0j
        else:
            out = a_c * (self.R / r)**ak + b_c * (r / self.R)**ak + 0j
        if self.source is not None and k in self.source.modes():
            for i, ri in enumerate(r):
                if ri <= self.source.R:
                    continue
                if ak == 0:
                    ia = _source_integral(self.source, k, 1.0, ri)
                    il = _source_integral(self.source, k, 1.0, ri, with_log=True)
                    out[i] += math.log(ri) * ia - il
                else:
                    im = _source_integral(self.source, k, 1.0 - ak, ri)
                    ip = _source_integral(self.source, k, 1.0 + ak, ri)
                    out[i] += (ri**ak * im - ri**(-ak) * ip) / (2.0 * ak)
        return out if out.size > 1 else complex(out[0])

    def eval(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
        ks = set((np.flatnonzero((self.a != 0) | (self.b != 0)) - self.M).tolist())
        if self.source is not None:
            ks |= set(self.source.modes())
        for k in sorted(ks):
            out = out + np.asarray(self.eval_mode(k, r)) * np.exp(1j * k * theta)
        return out

    def trace0(self) -> FourierFn:
        coeffs = self.a + self.b
        coeffs[self.M] = self.a[self.M] + self.b[self.M] * math.log(self.R)
        return FourierFn(self.R, coeffs)

    def trace1(self) -> FourierFn:
        ak = np.abs(np.arange(-self.M, self.M + 1))
        coeffs = ak * (self.b - self.a) / self.R
        coeffs[self.M] = self.b[self.M] / self.R
        return FourierFn(self.R, coeffs)

    def __add__(self, other):
        if not isinstance(other, ExteriorField):
            return NotImplemented
        if abs(self.R - other.R) > 1e-12 * self.R:
            raise ValueError("field radii differ")
        M = max(self.M, other.M)
        a = _centered(self.a, M) + _centered(other.a, M)
        b = _centered(self.b, M) + _centered(other.b, M)
        if self.source is not None and other.source is not None:
            if abs(self.source.r_max - other.source.r_max) > 1e-12:
                raise ValueError("cannot merge sources with different supports")
            src = RadialSource(self.R, self.source.r_max,
                               list(self.source.terms) + list(other.source.terms))
        else:
            src = self.source or other.source
        return ExteriorField(self.R, a, b, source=src)


def solve_exterior_dirichlet(g, source: RadialSource | None, R: float | None = None) -> ExteriorField:
    """Solve Delta u = f outside the disk with u = g on the boundary circle.

    Per mode k the solution is fixed by the Dirichlet value at R and the
    bounded radiation class, which kills the growing part (r^{|k|}, and
    log r at k = 0, adjusting the free constant).  Modes k != 0 without a
    source term are a_k = g_k, b_k = 0 and are set as arrays; the source
    modes and the mean mode take the formulas below one by one.
    """
    if R is None:
        R = g.R if g is not None else (source.R if source is not None else None)
    if R is None:
        raise ValueError("radius must be given when both g and source are absent")
    if g is not None and abs(g.R - R) > 1e-12 * R:
        raise ValueError("boundary data radius differs from R")
    if source is not None and abs(source.R - R) > 1e-12 * R:
        raise ValueError("source annulus does not start at R")

    ks = set(source.modes()) if source is not None else set()
    M = max((abs(k) for k in ks), default=0)
    data = np.zeros(1, dtype=complex) if g is None else g.coeffs
    nonzero = np.flatnonzero(data) - (data.size - 1) // 2
    if nonzero.size:
        M = max(M, int(np.abs(nonzero).max()))
    a = _centered(data, M)
    b = np.zeros_like(a)
    if a[M] != 0:
        ks.add(0)
    for k in sorted(ks):
        ghat = complex(a[k + M])
        ak = abs(k)
        if ak > 0:
            i_minus = _source_integral(source, k, 1.0 - ak, np.inf, scale=R)
            b_c = -R * i_minus / (2.0 * ak)
            a_c = ghat - b_c
        else:
            b_c = -(_source_integral(source, k, 1.0, np.inf) if source else 0.0)
            a_c = ghat - b_c * math.log(R)
        a[k + M], b[k + M] = a_c, b_c
    return ExteriorField(R=float(R), a=a, b=b, source=source)


def gamma1_exterior(u: ExteriorField) -> FourierFn:
    """Outward radial derivative of the field at r = R, as a Fourier function."""
    return u.trace1()


# ---------------------------------------------------------------------------
# symbol Galerkin matrices on the multiscale cells


def check_cutoff(M: int, pn: int):
    """Warn (CutoffTooSmall) when M modes under-resolve the entries on pn cells."""
    if M < MODE_OVERSAMPLING * pn:
        warnings.warn(CutoffTooSmall(
            "mode cutoff %d below %d * %d cells; entry tails unresolved"
            % (M, MODE_OVERSAMPLING, pn)))


def galerkin_row(decomp: MultiscaleDecomposition, N: int, symbol: ExteriorSymbol) -> np.ndarray:
    """Row a of the Galerkin matrix A[K][L] = 2 pi R sum_k s_k (1hat_L)_k (1hat_K)_{-k} on level N.

    The cell phases make A a symmetric circulant: its entries depend on
    (K - L) mod p^N only, through the row

        a_j = 2 pi R sum_k w_k cos(2 pi j k / p^N),  w_k = s_k sinc^2(k / p^N) / p^{2N}.

    Folding the weights onto k mod p^N (circle.alias_fold with power 2)
    turns that sum into the real part of one FFT of length p^N, so the row
    costs O(M + p^N log p^N) time and O(M + p^N) memory, and fft(a) holds
    the eigenvalues of A.  For the DtN symbol the sinc zeros at
    aliased modes give A 1 = 0 up to rounding and
    the quadratic form 2 pi R sum s_k |g_M(k)|^2 <= 0, so A is negative
    semidefinite at every cutoff.  Entries of the order-one symbols (DtN,
    hypersingular) depend on the cutoff M (their diagonal grows like log M);
    the summable layer symbols converge with tail O(M^{-2}).
    """
    if abs(symbol.R - decomp.R) > 1e-12 * decomp.R:
        raise ValueError("symbol radius differs from the decomposition radius")
    pn = decomp.n_cells(N)
    check_cutoff(symbol.M, pn)
    folded = alias_fold(symbol.values, pn, power=2) / float(pn) ** 2
    return 2.0 * math.pi * decomp.R * np.fft.fft(folded).real


def circulant_view(row: np.ndarray) -> np.ndarray:
    """The circulant with first column row as a read-only strided view: entry
    (i, j) is row[(i - j) mod n], read from the reversed doubled row, so only
    2n values are stored."""
    n = row.size
    doubled = np.concatenate((row, row))[::-1]
    return np.lib.stride_tricks.sliding_window_view(doubled, n)[n - 1::-1]


def circulant(row: np.ndarray) -> np.ndarray:
    """The dense circulant with first column row: a copy of circulant_view."""
    check_dense(row.size)
    return circulant_view(row).copy()


def dtn_galerkin(decomp: MultiscaleDecomposition, N: int, symbol: ExteriorSymbol) -> np.ndarray:
    """Dense level-N Galerkin matrix of a symbol: the circulant of galerkin_row."""
    check_dense(decomp.n_cells(N))
    return circulant(galerkin_row(decomp, N, symbol))
