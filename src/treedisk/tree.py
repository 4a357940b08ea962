"""Self-similar p-adic metric trees: parameters, validation, finite portions.

The infinite tree has one edge e_{n,k} per generation n >= 0 and branch index
k in {0, .., p^n - 1}; the children of e_{n,k} are e_{n+1, p*k+j} for
j in {0, .., p-1}.  Edge (n, k) has length ell_{n,k} and conductivity weight
omega_{n,k}.  The geometric profile is ell_{n,k} = L0 * ell^n and
omega_{n,k} = omega0 * omega^n; per-edge overrides are admitted strictly
below generation N1, so every subtree hanging off generation N >= N1 is
exactly geometric.

Structural conditions:  ell < omega * p < 1/ell, and the trace-order
parameter sigma = (1 - (log ell - log omega)/log p) / 2 must satisfy
sigma < 1/2 (interface dimension d = 1).  The contraction ratio of the
root-to-boundary distance series is r = ell / (p * omega) in (0, 1).

The degenerate family p = 1 (a path) is admitted as a closed-form oracle;
sigma is undefined there and validation reports are marked oracle-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssemblyTooLarge,
    CondensationBelowGeometricGeneration,
    NonPositiveParameter,
    StructuralConditionViolated,
)


@dataclass(frozen=True)
class EdgeRef:
    """Address (generation n, branch k) of one edge."""

    n: int
    k: int

    def parent(self, p: int) -> "EdgeRef | None":
        if self.n == 0:
            return None
        return EdgeRef(self.n - 1, self.k // p)

    def children(self, p: int) -> list["EdgeRef"]:
        return [EdgeRef(self.n + 1, p * self.k + j) for j in range(p)]


@dataclass(frozen=True)
class TreeParams:
    """Parameters of the weighted self-similar tree."""

    p: int
    ell: float
    omega: float
    L0: float = 1.0
    omega0: float = 1.0
    N1: int = 0
    length_overrides: dict = field(default_factory=dict)
    weight_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise NonPositiveParameter("p must be an integer >= 1, got %r" % (self.p,))
        for name in ("ell", "omega", "L0", "omega0"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float, np.floating)) and math.isfinite(val) and val > 0):
                raise NonPositiveParameter("%s must be a finite positive number, got %r" % (name, val))
        if not isinstance(self.N1, (int, np.integer)) or self.N1 < 0:
            raise NonPositiveParameter("N1 must be an integer >= 0, got %r" % (self.N1,))

    @property
    def r(self) -> float:
        """Contraction ratio ell / (p * omega) of the distance-to-boundary series."""
        return self.ell / (self.p * self.omega)

    @property
    def sigma(self) -> float | None:
        """Trace order (1 - (log ell - log omega)/log p)/2; None for p = 1."""
        if self.p == 1:
            return None
        return 0.5 * (1.0 - (math.log(self.ell) - math.log(self.omega)) / math.log(self.p))


@dataclass
class ValidationReport:
    sigma: float | None
    r: float
    min_C: float
    failures: list
    oracle_only: bool

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_params(params: TreeParams) -> ValidationReport:
    """Check the structural inequalities and compute (sigma, r, minimal C).

    The minimal corridor constant C >= 1 is the smallest constant with
    C^-1 ell^n <= ell_{n,k} <= C ell^n and likewise for weights, taken over
    the geometric profile (contributing L0, omega0 and their inverses) and
    every override.
    """
    p, ell, omega = params.p, params.ell, params.omega
    failures = []
    if not ell < 1.0:
        failures.append("ell < 1 fails: ell=%g" % ell)
    if not ell < omega * p:
        failures.append("ell < omega*p fails: ell=%g, omega*p=%g" % (ell, omega * p))
    if not omega * p < 1.0 / ell:
        failures.append("omega*p < 1/ell fails: omega*p=%g, 1/ell=%g" % (omega * p, 1.0 / ell))

    ratios = [params.L0, 1.0 / params.L0, params.omega0, 1.0 / params.omega0]
    for (n, k), val in params.length_overrides.items():
        if n >= params.N1:
            failures.append("length override at generation %d not below N1=%d" % (n, params.N1))
            continue
        if not (val > 0 and math.isfinite(val)):
            failures.append("length override at (%d,%d) not positive" % (n, k))
            continue
        ratios += [val / ell**n, ell**n / val]
    for (n, k), val in params.weight_overrides.items():
        if n >= params.N1:
            failures.append("weight override at generation %d not below N1=%d" % (n, params.N1))
            continue
        if not (val > 0 and math.isfinite(val)):
            failures.append("weight override at (%d,%d) not positive" % (n, k))
            continue
        ratios += [val / omega**n, omega**n / val]
    min_C = max(ratios)

    sigma = params.sigma
    oracle_only = p == 1
    if not oracle_only:
        # sigma > 0 is equivalent to ell < omega*p, already checked; the trace
        # machinery additionally needs sigma * d < 1/2 with d = 1.
        if not sigma < 0.5:
            failures.append("sigma*d < 1/2 fails: sigma=%g (requires omega < ell)" % sigma)
    return ValidationReport(sigma=sigma, r=params.r, min_C=min_C, failures=failures, oracle_only=oracle_only)


def require_valid(params: TreeParams) -> ValidationReport:
    report = validate_params(params)
    if not report.ok:
        raise StructuralConditionViolated("; ".join(report.failures))
    return report


class FiniteTree:
    """A finite portion of the tree: edges e_{n,k} for n <= depth.

    Per-generation arrays:  lengths[n][k], weights[n][k], dist[n][k] where
    dist is the root distance L_{n,k} of the far vertex X_{n,k}.  The root
    vertex o sits at distance 0 below edge (0, 0).
    """

    def __init__(self, params: TreeParams, depth: int, lengths, weights, condensed: bool = False):
        self.params = params
        self.depth = depth
        self.lengths = lengths
        self.weights = weights
        self.condensed = condensed
        self.dist = []
        prev = None
        for n in range(depth + 1):
            if n == 0:
                d = lengths[0].copy()
            else:
                d = np.repeat(prev, params.p) + lengths[n]
            self.dist.append(d)
            prev = d

    @property
    def p(self) -> int:
        return self.params.p

    @property
    def n_leaves(self) -> int:
        return self.p**self.depth

    @property
    def n_edges(self) -> int:
        return sum(self.p**n for n in range(self.depth + 1))

    def edge_count_by_generation(self) -> list:
        return [self.p**n for n in range(self.depth + 1)]

    def total_length(self) -> float:
        return float(sum(arr.sum() for arr in self.lengths))

    def total_measure(self) -> float:
        """mu(T) = sum of omega_e * ell_e over edges."""
        return float(sum((self.lengths[n] * self.weights[n]).sum() for n in range(self.depth + 1)))


class TruncatedTree(FiniteTree):
    """Edges of generations 0..N with lengths straight from the parameters."""


class CondensedTree(FiniteTree):
    """Depth N+1 tree whose leaf edges absorb the geometric tails.

    Each leaf edge at generation N+1 is stretched to ell_{N+1,k} / (1 - r):
    the extra length equals the distance from X_{N+1,k} to the boundary
    through the (geometric) subtree hanging below it, so root-to-leaf
    distances match root-to-boundary distances of the infinite tree.
    """

    @property
    def n_cond(self) -> int:
        return self.depth - 1


# A tree costs memory linear in its leaves: 2^19 leaves (a depth-18 source
# tree solve) peaked at about 253 MiB, so 2^23 leaves take 3-4 GiB and
# 2^24 do not fit a machine with 8 GB.
TREE_LEAF_BUDGET = 2**23


def _profile(params: TreeParams, depth: int):
    if params.p**depth > TREE_LEAF_BUDGET:
        raise AssemblyTooLarge("%d^%d leaves exceed the tree budget of %d leaves"
                               % (params.p, depth, TREE_LEAF_BUDGET))
    lengths, weights = [], []
    for n in range(depth + 1):
        ln = np.full(params.p**n, params.L0 * params.ell**n)
        wn = np.full(params.p**n, params.omega0 * params.omega**n)
        if n < params.N1:
            for (m, k), val in params.length_overrides.items():
                if m == n:
                    ln[k] = val
            for (m, k), val in params.weight_overrides.items():
                if m == n:
                    wn[k] = val
        lengths.append(ln)
        weights.append(wn)
    return lengths, weights


def build_truncated(params: TreeParams, N: int) -> TruncatedTree:
    """Finite tree with edges of generations 0..N."""
    require_valid(params)
    if N < 0:
        raise NonPositiveParameter("depth N must be >= 0, got %d" % N)
    lengths, weights = _profile(params, N)
    return TruncatedTree(params, N, lengths, weights)


def build_condensed(params: TreeParams, N: int) -> CondensedTree:
    """Condensed tree of the truncation at N: depth N+1, stretched leaf edges."""
    require_valid(params)
    if N < 0:
        raise NonPositiveParameter("condensation generation N must be >= 0, got %d" % N)
    if N < params.N1:
        raise CondensationBelowGeometricGeneration(
            "condensation at N=%d requires geometric subtrees (N1=%d)" % (N, params.N1)
        )
    r = params.r
    if not r < 1.0:
        raise StructuralConditionViolated("r = ell/(p*omega) = %g must be < 1" % r)
    lengths, weights = _profile(params, N + 1)
    lengths[N + 1] = lengths[N + 1] / (1.0 - r)
    return CondensedTree(params, N + 1, lengths, weights, condensed=True)
