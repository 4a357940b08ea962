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

A finite tree stores one row per edge of each generation, or is compressed
below a level N >= N1: generations n <= N keep their p^n rows, and every
generation n > N has p^N rows, row k standing for the p^(n-N) edges of
that generation under cell (N, k).  Below N1 every subtree is geometric,
so those edges carry the same length and weight; functions that are also
the same on them (forcing constant per generation, leaf data constant per
cell) are stored and solved in O(p^N * depth).  The merged generations
N+1..depth, the tail, are geometric, so the tree keeps one length, weight,
conductance and pivot per tail generation, as (G, p^N) read-only blocks
of stride 0 over the rows.  `FiniteTree.expanded` gives the full tree
back, within the tree budget.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AssemblyTooLarge,
    CondensationBelowGeometricGeneration,
    NonPositiveParameter,
    StructuralConditionViolated,
)


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


def _is_edge(p: int, n: int, k: int) -> bool:
    """Whether (n, k) is an edge: 0 <= n and 0 <= k < p^n.

    p^b > k for p >= 2 and b the bit length of k, so p^n is never taken
    with more bits than k.
    """
    return 0 <= n and 0 <= k < p ** min(n, int(k).bit_length())


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
    for name, overrides, base in (("length", params.length_overrides, ell),
                                  ("weight", params.weight_overrides, omega)):
        for (n, k), val in overrides.items():
            if n >= params.N1:
                failures.append("%s override at generation %d not below N1=%d" % (name, n, params.N1))
                continue
            if not _is_edge(p, n, k):
                failures.append("%s override at (%d,%d) names no edge (generation %d has %d^%d edges)"
                                % (name, n, k, n, p, n))
                continue
            if not (val > 0 and math.isfinite(val)):
                failures.append("%s override at (%d,%d) not positive" % (name, n, k))
                continue
            # in log space: base^n underflows to 0 at a deep generation
            log_ratio = abs(math.log(val) - n * math.log(base))
            if not log_ratio < math.log(sys.float_info.max):
                failures.append("%s override at (%d,%d) is 10^%.1f times the geometric %s, "
                                "beyond the float range" % (name, n, k, log_ratio / math.log(10), name))
                continue
            ratios.append(math.exp(log_ratio))
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


def _child_sums(x, p, merged=False):
    """Sum over the p children of every parent: x[p k] + ... + x[p k + p - 1].

    Adds the p strided slices x[j::p], several times faster than
    x.reshape(-1, p).sum(axis=1) for small p.  For a merged generation
    (FiniteTree.merged) every child of row k is row k, and the sum is
    x + x (+= x ...), the additions of the strided sum over p equal
    children in the same order.  For p = 1 this is x itself.
    """
    if p == 1:
        return x
    if merged:
        out = x + x
        for _ in range(2, p):
            out += x
        return out
    out = x[0::p] + x[1::p]
    for j in range(2, p):
        out += x[j::p]
    return out


def _rows_block(values, rows: int) -> np.ndarray:
    """One value per generation as a read-only (len(values), rows) block of stride 0 over the rows."""
    values = np.asarray(values, dtype=float)
    block = np.ndarray((values.size, rows), float, buffer=values, strides=(values.itemsize, 0))
    block.flags.writeable = False
    return block


class FiniteTree:
    """A finite portion of the tree: edges e_{n,k} for n <= depth.

    Per-generation arrays lengths[n][k] and weights[n][k].  build_truncated
    takes them straight from the parameters; build_condensed stretches the
    leaf edges so that they absorb the geometric tails.  The leaves-to-root
    `elimination` the tree determines is computed on first access and kept.

    rows[n] is the number of rows stored for generation n: p^n on a full
    tree.  On a compressed tree a generation with as many rows as its
    parent generation (`merged`) stores one row for all p children of each
    parent row, and each row stands for `multiplicity(n)` edges; n_leaves
    counts stored rows.

    The merged generations level+1..depth are the tail (none on a full
    tree, where level = depth).  They are deeper than N1, so each has one
    length and one weight: the tree is built from the arrays of generations
    0..level and one value per tail generation, and keeps the tail as the
    (G, rows) read-only blocks tail_lengths and tail_weights, of stride 0
    over the rows; lengths[n] and weights[n] of a tail generation are rows
    of them.
    """

    def __init__(self, params: TreeParams, lengths, weights, tail_lengths=(), tail_weights=()):
        self.params = params
        gens = len(tail_lengths)
        self.level = len(lengths) - 1
        self.depth = self.level + gens
        tail = _rows_block([*tail_lengths, *tail_weights], len(lengths[-1]))
        self.tail_lengths, self.tail_weights = tail[:gens], tail[gens:]
        self.lengths = list(lengths) + list(self.tail_lengths)
        self.weights = list(weights) + list(self.tail_weights)
        self.rows = tuple(len(arr) for arr in self.lengths)

    @property
    def p(self) -> int:
        return self.params.p

    def merged(self, n: int) -> bool:
        """Whether generation n stores one row for the p children of each row of n - 1."""
        return self.rows[n] == self.rows[n - 1]

    def multiplicity(self, n: int) -> int:
        """Number of generation-n edges each stored row stands for."""
        return self.p**n // self.rows[n]

    @property
    def n_leaves(self) -> int:
        return self.rows[self.depth]

    @cached_property
    def tail_elimination(self) -> tuple:
        """(c, pivot, share) of the tail, one value per generation.

        c holds the conductances of generations level+1..depth and pivot
        the pivots of level+1..depth-1, as read-only blocks of stride 0
        over the rows; share is the part c a / pivot of its load that a
        vertex of generation level+1 hands up (c itself when those are the
        leaf edges), a row of stride 0, None without a tail.  Every row of
        a tail generation sees the same subtree, so the recurrence of
        `elimination` runs on one float per generation, with the
        operations it applies to each row.
        """
        p = self.p
        c = (self.tail_weights[:, 0] / self.tail_lengths[:, 0]).tolist()
        pivot, share = [], c[-1:]
        for cn in reversed(c[:-1]):
            a = _child_sums(share[0], p, merged=True)
            pivot.append(cn + a)
            share[0] = cn * a / pivot[-1]
        block = _rows_block(c + pivot[::-1] + share, self.rows[-1])
        gens = len(c)
        return block[:gens], block[gens : 2 * gens - 1], block[-1] if gens else None

    @cached_property
    def elimination(self) -> tuple:
        """Leaves-to-root elimination of the clamped graph Laplacian.

        (c, pivot): c[n] holds the conductances omega_e / ell_e of
        generation n, and for n < depth pivot[n] = c[n] + a[n], where a[n]
        is the effective conductance of the subtree below X_{n,k} with its
        leaves clamped,

            a[n] = sum over children of c[n+1] a[n+1] / pivot[n+1],

        and a leaf edge passes its whole conductance.  With that subtree
        eliminated, X_{n,k} keeps the single equation
        pivot u(X) - c u(parent) = (load collected from below), and the
        vertex hands the share c / pivot of its collected load on to its
        parent.  A tree has no cycles, so nothing fills in (Parter, SIAM
        Review 3, 1961).  The tail generations are rows of
        tail_elimination, and generations 0..level continue from its
        share.  Every solve on the tree shares the arrays, so they are
        read-only.
        """
        p, level = self.p, self.level
        tail_c, tail_pivot, share = self.tail_elimination
        c = [w / ln for w, ln in zip(self.weights[: level + 1], self.lengths[: level + 1])]
        top, below = (level - 1, c[level]) if share is None else (level, share)
        pivot = [None] * (top + 1)
        for n in range(top, -1, -1):
            a = _child_sums(below, p, self.merged(n + 1))
            pivot[n] = c[n] + a
            below = c[n] * a
            below /= pivot[n]
        for arr in c + pivot:
            arr.setflags(write=False)
        return c + list(tail_c), pivot + list(tail_pivot)

    def expanded(self) -> "FiniteTree":
        """The full tree this one stands for: each row repeated over its edges.

        A full tree is returned as it is; a compressed one is checked
        against the tree budget (check_tree_budget) before anything is
        allocated.
        """
        if self.rows[self.depth] == self.p**self.depth:
            return self
        check_tree_budget(self.params, self.depth, self.depth)
        reps = [self.multiplicity(n) for n in range(self.depth + 1)]
        return FiniteTree(self.params,
                          [np.repeat(arr, m) for arr, m in zip(self.lengths, reps)],
                          [np.repeat(arr, m) for arr, m in zip(self.weights, reps)])


# A tree costs memory linear in its stored rows: 2^19 leaves (a depth-18
# full source tree solve, 2^20 rows) peaked at about 253 MiB, so 2^23
# leaves take 3-4 GiB and 2^24 do not fit a machine with 8 GB.  A full tree
# with p >= 2 stores fewer than two rows per leaf, so the row bound of twice
# the leaf budget refuses none of them that the leaf bound admits; it bounds
# the depth of a path (p = 1) and of a compressed tree, which stores p^N
# rows for every generation below N.
TREE_LEAF_BUDGET = 2**23


def check_tree_budget(params: TreeParams, depth: int, level: int):
    """Raise AssemblyTooLarge for a tree of generations 0..depth compressed
    below level (level >= depth: full) that is beyond the tree budget.

    Nothing of the tree's size is allocated here: the leaf rows p^min(depth,
    level) must be within TREE_LEAF_BUDGET, all stored rows within twice
    that, and the p^(depth - level) edges a leaf row stands for must be a
    finite float, since fluxes and measures are summed over them.  The
    deepest length, weight and conductance omega/ell, compared in log space,
    must be normal floats: a weight of 0 makes the elimination divide 0 by 0.
    """
    p = params.p
    top = min(depth, level)
    if p > 1 and top >= TREE_LEAF_BUDGET.bit_length() or p**top > TREE_LEAF_BUDGET:
        raise AssemblyTooLarge("%d^%d leaves exceed the tree budget of %d leaves"
                               % (p, top, TREE_LEAF_BUDGET))
    top_rows = (p ** (top + 1) - 1) // (p - 1) if p > 1 else top + 1
    rows = top_rows + (depth - top) * p**top
    if rows > 2 * TREE_LEAF_BUDGET:
        raise AssemblyTooLarge("%d stored rows exceed the tree budget of %d rows"
                               % (rows, 2 * TREE_LEAF_BUDGET))
    if (depth - top) * math.log(p) > math.log(sys.float_info.max):
        raise AssemblyTooLarge("a leaf row standing for %d^%d edges exceeds the float range"
                               % (p, depth - top))
    log_length = math.log(params.L0) + depth * math.log(params.ell)
    log_weight = math.log(params.omega0) + depth * math.log(params.omega)
    for name, value in (("length", log_length), ("weight", log_weight),
                        ("conductance", log_weight - log_length)):
        if not math.log(sys.float_info.min) <= value <= math.log(sys.float_info.max):
            raise AssemblyTooLarge("the edge %s of generation %d, 10^%.1f, is not a normal float"
                                   % (name, depth, value / math.log(10)))


def _profile(params: TreeParams, depth: int, level: int):
    """Lengths and weights of generations 0..depth, compressed below level:
    arrays of the generations up to level, then one length and one weight
    per tail generation (FiniteTree's arguments)."""
    check_tree_budget(params, depth, level)
    lengths, weights = [], []
    top = min(depth, level)
    for n in range(top + 1):
        rows = params.p**n
        ln = np.full(rows, params.L0 * params.ell**n)
        wn = np.full(rows, params.omega0 * params.omega**n)
        if n < params.N1:
            for (m, k), val in params.length_overrides.items():
                if m == n:
                    ln[k] = val
            for (m, k), val in params.weight_overrides.items():
                if m == n:
                    wn[k] = val
        lengths.append(ln)
        weights.append(wn)
    tail = range(top + 1, depth + 1)
    return (lengths, weights, [params.L0 * params.ell**n for n in tail],
            [params.omega0 * params.omega**n for n in tail])


def build_truncated(params: TreeParams, N: int) -> FiniteTree:
    """Finite tree with edges of generations 0..N."""
    require_valid(params)
    if N < 0:
        raise NonPositiveParameter("depth N must be >= 0, got %d" % N)
    return FiniteTree(params, *_profile(params, N, N))


def build_condensed(params: TreeParams, N: int, level: int | None = None) -> FiniteTree:
    """Condensed tree of the truncation at N: depth N+1, stretched leaf edges.

    Each leaf edge at generation N+1 is stretched to ell_{N+1,k} / (1 - r):
    the extra length equals the distance from X_{N+1,k} to the boundary
    through the (geometric) subtree hanging below it, so root-to-leaf
    distances match root-to-boundary distances of the infinite tree.

    With level (N1 <= level <= N) the tree is compressed below that level:
    every generation beyond it stores p^level rows, one per cell of the
    level.  Without it the tree is full.
    """
    require_valid(params)
    if N < 0:
        raise NonPositiveParameter("condensation generation N must be >= 0, got %d" % N)
    if N < params.N1:
        raise CondensationBelowGeometricGeneration(
            "condensation at N=%d requires geometric subtrees (N1=%d)" % (N, params.N1)
        )
    if level is None:
        level = N + 1
    elif not params.N1 <= level <= N:
        raise CondensationBelowGeometricGeneration(
            "compression at level %d needs N1=%d <= level <= N=%d" % (level, params.N1, N))
    r = params.r
    if not r < 1.0:
        raise StructuralConditionViolated("r = ell/(p*omega) = %g must be < 1" % r)
    lengths, weights, tail_lengths, tail_weights = _profile(params, N + 1, level)
    if tail_lengths:
        tail_lengths[-1] = tail_lengths[-1] / (1.0 - r)
    else:
        lengths[N + 1] = lengths[N + 1] / (1.0 - r)
    return FiniteTree(params, lengths, weights, tail_lengths, tail_weights)
