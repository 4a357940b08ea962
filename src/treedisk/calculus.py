"""Calculus of piecewise-polynomial functions on finite weighted trees.

A TreeFunction stores one polynomial per edge in the local coordinate
x = t - (L_{n,k} - ell_{n,k}) in [0, ell_{n,k}], i.e. x measures arclength
from the parent-side vertex.  All integrals against the weighted measure
d mu = omega_e dx are evaluated in closed form, so norms, the Green
identity and the orthogonal splitting hold to rounding error for
polynomial data.

The weighted Laplacian acts edgewise as f'' ; membership in its L^2 domain
additionally requires continuity and the Kirchhoff flux balance

    omega_{n,k} f'_{n,k}(ell-) = sum_j omega_{n+1,pk+j} f'_{n+1,pk+j}(0+)

at every interior vertex.  Harmonic and Poisson solves reduce to clamped
weighted graph-Laplacian systems with conductances omega_e / ell_e.  A
tree has no cycles, so Gaussian elimination from the leaves to the root
creates no fill: one upward sweep of effective conductances, one upward
pass of loads and one downward substitution solve them in O(#vertices).
The Poisson particular part (the double antiderivative of the source) is
evaluated in closed form from the source coefficients, and the sums over
the p children of each vertex add p strided slices, so a solve passes
over each generation's rows a fixed, small number of times.

Every kernel reads the tree's rows, so the same code solves on a tree
compressed below level N (tree.FiniteTree): where a generation has as many
rows as its parent generation, the p children of a row are that row
itself, their sum is the p-fold sum x + x (+= x ...) that the strided sum
of p equal children adds in the same order, and a parent value needs no
repeat.  For data that is the same on the edges a row stands for, the
compressed solve gives bit for bit the rows of the full solve, in
O(p^N * depth).  `TreeFunction.expanded` repeats the rows onto the full
tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthMismatch, KirchhoffViolated, NotGeometric
from .tree import FiniteTree, TreeParams, _child_sums, build_condensed, build_truncated, require_valid

# ---------------------------------------------------------------------------
# small dense polynomial helpers (rows = edges, columns = ascending coeffs)


def _pad(c, q):
    if c.shape[1] >= q:
        return c
    out = np.zeros((c.shape[0], q), dtype=c.dtype)
    out[:, : c.shape[1]] = c
    return out


def _poly_eval(c, x):
    """Evaluate each row polynomial at its own abscissa x (array).

    Horner in place on one output array, starting from the top coefficient.
    """
    q = c.shape[1] - 1
    if q == 0:
        return c[:, 0].astype(np.result_type(c.dtype, np.asarray(x).dtype))
    val = c[:, q] * x
    for j in range(q - 1, 0, -1):
        val += c[:, j]
        val *= x
    val += c[:, 0]
    return val

def _poly_der(c):
    if c.shape[1] == 1:
        return np.zeros_like(c[:, :1])
    return c[:, 1:] * np.arange(1, c.shape[1])


def _poly_defint(c, lengths):
    """Integral over [0, ell] per row."""
    val = np.zeros(c.shape[0], dtype=c.dtype)
    x = np.asarray(lengths)
    for j in range(c.shape[1] - 1, -1, -1):
        val = (val + c[:, j] / (j + 1)) * x
    return val


def _poly_mul(c1, c2):
    out = np.zeros((c1.shape[0], c1.shape[1] + c2.shape[1] - 1), dtype=np.result_type(c1.dtype, c2.dtype))
    for i in range(c1.shape[1]):
        for j in range(c2.shape[1]):
            out[:, i + j] += c1[:, i] * c2[:, j]
    return out


class TreeFunction:
    """Piecewise-polynomial function on a finite tree.

    coeffs[n] has shape (tree.rows[n], q_n + 1) (p^n rows on a full tree);
    ascending powers of the local coordinate on each edge.
    """

    def __init__(self, tree: FiniteTree, coeffs):
        if len(coeffs) != tree.depth + 1:
            raise DepthMismatch("expected %d generations of coefficients, got %d" % (tree.depth + 1, len(coeffs)))
        self.tree = tree
        self.coeffs = [np.atleast_2d(np.asarray(c)) for c in coeffs]
        for n, c in enumerate(self.coeffs):
            if c.shape[0] != tree.rows[n]:
                raise DepthMismatch("generation %d needs %d rows, got %d" % (n, tree.rows[n], c.shape[0]))

    @property
    def root_value(self):
        return self.coeffs[0][0, 0]

    def start_values(self, n):
        return self.coeffs[n][:, 0]

    def end_values(self, n):
        return _poly_eval(self.coeffs[n], self.tree.lengths[n])

    def vertex_values(self):
        """Values at X_{n,k} (far vertex of each edge), per generation."""
        return [self.end_values(n) for n in range(self.tree.depth + 1)]

    def leaf_values(self):
        return self.end_values(self.tree.depth)

    def eval_edge(self, n, k, x):
        c = self.coeffs[n][k]
        val = np.zeros_like(np.asarray(x, dtype=np.result_type(c.dtype, float)))
        for j in range(c.shape[0] - 1, -1, -1):
            val = val * x + c[j]
        return val

    def expanded(self) -> "TreeFunction":
        """The same function on the full tree (tree.expanded()), each row
        repeated over the edges it stands for; a function on a full tree is
        returned as it is."""
        tree = self.tree.expanded()
        if tree is self.tree:
            return self
        return TreeFunction(tree, [np.repeat(c, self.tree.multiplicity(n), axis=0)
                                   for n, c in enumerate(self.coeffs)])

    def derivative(self) -> "TreeFunction":
        return TreeFunction(self.tree, [_poly_der(c) for c in self.coeffs])

    def continuity_defect(self) -> float:
        """Max jump across interior vertices (roots excluded: no constraint at o)."""
        worst = 0.0
        p = self.tree.p
        for n in range(self.tree.depth):
            ends = self.end_values(n)
            starts = self.start_values(n + 1)
            jump = np.abs(starts - _parent_rows(ends, p, self.tree.merged(n + 1)))
            if jump.size:
                worst = max(worst, float(jump.max()))
        return worst

    def _binary(self, other, sign):
        cs = []
        for n in range(self.tree.depth + 1):
            q = max(self.coeffs[n].shape[1], other.coeffs[n].shape[1])
            cs.append(_pad(self.coeffs[n], q) + sign * _pad(other.coeffs[n], q))
        return TreeFunction(self.tree, cs)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        return TreeFunction(self.tree, [c * scalar for c in self.coeffs])

    __rmul__ = __mul__


def constant_function(tree: FiniteTree, value=1.0) -> TreeFunction:
    return TreeFunction(tree, [np.full((rows, 1), value) for rows in tree.rows])


def from_vertex_values(tree: FiniteTree, root_value, vertex_values) -> TreeFunction:
    """Piecewise-linear interpolant of prescribed vertex values.

    vertex_values[n][k] is the value at X_{n,k}; the value at o is root_value.
    """
    coeffs = []
    for n in range(tree.depth + 1):
        if n == 0:
            a = np.full(1, root_value, dtype=np.result_type(np.asarray(root_value).dtype, float))
        else:
            a = _parent_rows(vertex_values[n - 1], tree.p, tree.merged(n))
        b = np.asarray(vertex_values[n])
        dtype = np.result_type(a.dtype, b.dtype, float)
        c = np.empty((tree.rows[n], 2), dtype=dtype)
        c[:, 0] = a
        slope = np.subtract(b, a, dtype=dtype)
        slope /= tree.lengths[n]
        c[:, 1] = slope
        coeffs.append(c)
    return TreeFunction(tree, coeffs)


# ---------------------------------------------------------------------------
# norms and pairings


def l2_inner(f: TreeFunction, g: TreeFunction):
    """Weighted L^2 inner product, conjugating the second argument."""
    _same_tree(f.tree, g.tree)
    acc = 0.0
    for n in range(f.tree.depth + 1):
        prod = _poly_mul(f.coeffs[n], np.conj(g.coeffs[n]))
        acc = acc + f.tree.multiplicity(n) * (f.tree.weights[n] * _poly_defint(prod, f.tree.lengths[n])).sum()
    return acc


def l2_norm(f: TreeFunction) -> float:
    return math.sqrt(max(float(np.real(l2_inner(f, f))), 0.0))


def h1_inner(f: TreeFunction, g: TreeFunction):
    return l2_inner(f.derivative(), g.derivative())


def h1_seminorm(f: TreeFunction) -> float:
    return l2_norm(f.derivative())


def _same_tree(a: FiniteTree, b: FiniteTree):
    if a is not b and (a.depth != b.depth or a.p != b.p or a.rows != b.rows):
        raise DepthMismatch("functions live on different trees")


def _parent_rows(x, p, merged):
    """The parent values x on the rows of the child generation: x itself for a
    merged generation, np.repeat(x, p) otherwise."""
    return x if merged else np.repeat(x, p)


# ---------------------------------------------------------------------------
# Laplacian, Kirchhoff residual, traces


@dataclass
class KirchhoffResidual:
    """Flux imbalance at interior vertices X_{n,k}, n < depth."""

    values: list
    scale: float

    @property
    def max_abs(self) -> float:
        return max((float(np.abs(v).max()) for v in self.values if v.size), default=0.0)

    @property
    def relative(self) -> float:
        return self.max_abs / max(self.scale, 1e-300)


def kirchhoff_residual(f: TreeFunction) -> KirchhoffResidual:
    tree = f.tree
    p = tree.p
    der = f.derivative()
    values = []
    scale = 0.0
    for n in range(tree.depth):
        out_flux = tree.weights[n] * der.end_values(n)
        in_flux = tree.weights[n + 1] * der.start_values(n + 1)
        merged = tree.merged(n + 1)
        values.append(out_flux - _child_sums(in_flux, p, merged))
        mags = np.abs(out_flux) + _child_sums(np.abs(in_flux), p, merged)
        if mags.size:
            scale = max(scale, float(mags.max()))
    return KirchhoffResidual(values=values, scale=scale)


def laplacian(f: TreeFunction):
    """Edgewise second derivative together with the Kirchhoff residual report."""
    lap = TreeFunction(f.tree, [_poly_der(_poly_der(c)) for c in f.coeffs])
    return lap, kirchhoff_residual(f)


def leaf_flux(f: TreeFunction) -> np.ndarray:
    """omega_{N,K} * f'_{N,K}(ell-) at every leaf edge (one value per leaf
    row, the flux through each of the edges the row stands for).

    Dividing by the boundary cell measures |Gamma_{N,K}| turns this into
    the distributional normal-derivative trace density.
    """
    tree = f.tree
    c = f.coeffs[tree.depth]
    q = c.shape[1] - 1
    if q == 0:
        return np.zeros(c.shape[0], dtype=np.result_type(c.dtype, float))
    # Horner on the derivative's coefficients j c_j, without forming them
    ell = tree.lengths[tree.depth]
    der = np.multiply(c[:, q], q, dtype=np.result_type(c.dtype, float))
    for j in range(q - 1, 0, -1):
        der *= ell
        der += c[:, j] * j if j > 1 else c[:, 1]
    der *= tree.weights[tree.depth]
    return der


@dataclass
class GreenReport:
    defect: float
    scale: float

    @property
    def relative(self) -> float:
        return self.defect / max(self.scale, 1e-300)


def green_identity_check(u: TreeFunction, v: TreeFunction) -> GreenReport:
    """Defect of (gamma1 u, gamma0 v) = int (Lap u) v dmu + int u' v' dmu.

    The boundary pairing reduces to sum_K omega_K u'_K(ell) v(X_K) over the
    leaves (the cell measures cancel between the density and the pairing).
    Requires v(o) = 0; u should satisfy Kirchhoff for the identity to hold.
    """
    _same_tree(u.tree, v.tree)
    vmax = max(float(np.abs(c).max()) for c in v.coeffs)
    if abs(v.root_value) > 1e-10 * max(vmax, 1.0):
        raise ValueError("green_identity_check requires v(o) = 0, got %r" % (v.root_value,))
    pairing = u.tree.multiplicity(u.tree.depth) * (leaf_flux(u) * v.leaf_values()).sum()
    lap, _ = laplacian(u)
    du, dv = u.derivative(), v.derivative()
    bulk = 0.0
    grad = 0.0
    for n in range(u.tree.depth + 1):
        w, ln, m = u.tree.weights[n], u.tree.lengths[n], u.tree.multiplicity(n)
        bulk = bulk + m * (w * _poly_defint(_poly_mul(lap.coeffs[n], v.coeffs[n]), ln)).sum()
        grad = grad + m * (w * _poly_defint(_poly_mul(du.coeffs[n], dv.coeffs[n]), ln)).sum()
    defect = abs(pairing - bulk - grad)
    scale = abs(pairing) + abs(bulk) + abs(grad)
    return GreenReport(defect=float(defect), scale=float(scale))


# ---------------------------------------------------------------------------
# clamped graph-Laplacian solves


def _solve_vertices(tree: FiniteTree, loads):
    """Vertex values of the clamped graph system, per generation, leaves last.

    loads[n] (n < depth) is the right-hand side at X_{n,k}; the leaves and
    the root o are clamped at zero, which loads nothing.  One upward pass
    collects the loads through tree.elimination, one downward pass
    substitutes.
    """
    p = tree.p
    c, pivot = tree.elimination
    collected = [None] * tree.depth
    up = None
    for n in range(tree.depth - 1, -1, -1):
        # zero leaves add the +0.0 that their products would
        collected[n] = loads[n] + (0.0 if up is None else _child_sums(up, p, tree.merged(n + 1)))
        up = c[n] * collected[n]
        up /= pivot[n]
    values = []
    parent = 0.0
    for n in range(tree.depth):
        if n:
            parent = _parent_rows(values[-1], p, tree.merged(n))
        v = c[n] * parent + collected[n]
        v /= pivot[n]
        values.append(v)
    values.append(0.0)
    return values


def solve_harmonic_dirichlet(tree: FiniteTree, leaf_values, root_value=0.0) -> TreeFunction:
    """Edgewise-linear function, harmonic off the vertices, with prescribed
    leaf values and root value; Kirchhoff holds at interior vertices.

    The elimination is carried in deviations, so that no slope is the
    difference of two nearly equal vertex values (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 1).  Upward, m[n] is the mean
    of the leaf values below X_{n,k}, weighted by the share c a / pivot of
    each child (a leaf edge hands up its conductance):

        m[n] = first + sum_children share (m[n+1] - first) / a,

    with first the first child's mean and a the sum of the shares, the
    effective conductance below X; equal children give first exactly.
    Downward, u(X_{n,k}) = m[n] + w[n] with w[n] = c[n] d[n] / pivot[n],
    where d[n] = u(parent) - m[n] is (m[n-1] - m[n]) + w[n-1], or r0 - m[0]
    at the root, and edge n has slope (w[n] - d[n]) / ell[n] (w = 0 on a
    leaf edge).  Below a compressed level every row has one child, so d[n]
    = w[n-1] and the leaf flux is a product of shares: exact at any depth.
    """
    leaf_values = np.asarray(leaf_values)
    if leaf_values.shape != (tree.n_leaves,):
        raise DepthMismatch("expected %d leaf values, got shape %r" % (tree.n_leaves, leaf_values.shape))
    p = tree.p
    c, pivot = tree.elimination
    means = [None] * tree.depth + [leaf_values]
    share = c[tree.depth]
    for n in range(tree.depth - 1, -1, -1):
        merged = tree.merged(n + 1)
        below = means[n + 1]
        first = below if merged else below[0::p]
        a = _child_sums(share, p, merged)
        spread = _child_sums(share * (below - _parent_rows(first, p, merged)), p, merged)
        spread /= a
        means[n] = first + spread
        share = c[n] * a
        share /= pivot[n]

    dtype = np.result_type(leaf_values, np.asarray(root_value), float)
    coeffs = []
    start, d = root_value, root_value - means[0]
    for n in range(tree.depth + 1):
        if n:
            merged = tree.merged(n)
            start = _parent_rows(means[n - 1] + w, p, merged)
            d = _parent_rows(means[n - 1], p, merged) - means[n]
            d += _parent_rows(w, p, merged)
        w = c[n] * d / pivot[n] if n < tree.depth else 0.0
        coef = np.empty((tree.rows[n], 2), dtype=dtype)
        coef[:, 0] = start
        coef[:, 1] = (w - d) / tree.lengths[n]
        coeffs.append(coef)
    return TreeFunction(tree, coeffs)


def solve_poisson_zero_trace(tree: FiniteTree, source: TreeFunction) -> TreeFunction:
    """Solve Lap u = source edgewise with u(o) = 0 and zero leaf values.

    Zero traces at both ends approximate the homogeneous-boundary space of
    the infinite tree.  On each edge u = w + linear, where w is the double
    antiderivative of the source with w(0) = w'(0) = 0: its coefficient of
    x^{j+2} is s_j / ((j+1)(j+2)), and its end values w(ell), w'(ell) come
    in closed form from the source coefficients by Horner.  The vertex
    values solve the clamped graph system, and the linear part corrects w
    to them.  The source arrays are only read.
    """
    _same_tree(source.tree, tree)
    p = tree.p
    cond = tree.elimination[0]
    dtype = np.result_type(*(c.dtype for c in source.coeffs), float)
    coeffs = [None] * (tree.depth + 1)
    w_end = [None] * (tree.depth + 1)
    loads = [None] * tree.depth
    for n in range(tree.depth, -1, -1):
        s, ell = source.coeffs[n], tree.lengths[n]
        d = s.shape[1] - 1
        c = np.empty((s.shape[0], d + 3), dtype=dtype)
        # w(ell) by Horner from the top coefficient; each column c[:, 2:]
        # is written once, here, and c[:, :2] after the vertex solve
        end = s[:, d] / ((d + 1) * (d + 2))
        c[:, d + 2] = end
        for j in range(d - 1, -1, -1):
            end *= ell
            term = s[:, j] / ((j + 1) * (j + 2))
            c[:, j + 2] = term
            end += term
        end *= ell
        end *= ell
        coeffs[n], w_end[n] = c, end
        # load at X_{n,k}: c w(ell) - omega w'(ell) on its own edge, minus
        # the children's c w(ell)
        own = cond[n] * end
        if n < tree.depth:
            # w'(ell) by Horner; its coefficient of x^j is s_j / (j+1)
            der = s[:, d] / (d + 1)
            for j in range(d - 1, -1, -1):
                der *= ell
                der += s[:, j] / (j + 1)
            der *= ell
            der *= tree.weights[n]
            loads[n] = np.subtract(own, der, dtype=dtype)
            loads[n] -= _child_sums(below, p, tree.merged(n + 1))
        below = own
    values = _solve_vertices(tree, loads)

    for n, c in enumerate(coeffs):
        a = np.zeros(1, dtype=dtype) if n == 0 else _parent_rows(values[n - 1], p, tree.merged(n))
        c[:, 0] = a
        # the linear part (values[n] - a - w(ell)) / ell; a may be values[n - 1]
        a = np.subtract(values[n], a)
        a -= w_end[n]
        a /= tree.lengths[n]
        c[:, 1] = a
    return TreeFunction(tree, coeffs)


# ---------------------------------------------------------------------------
# radial solutions on geometric trees


@dataclass
class RadialRecord:
    flux: float


def radial_harmonic(params: TreeParams, N: int, boundary_value: float = 1.0, condensed: bool = True):
    """Closed-form harmonic function depending on the generation only.

    Flux conservation across generations forces the edge slope s_n =
    s_0 / (p omega)^n; the root-to-boundary drop is the geometric series
    L0 sum r^n with r = ell/(p omega).  On the condensed tree the stretched
    leaf edge restores the full series, so the flux constant equals the
    infinite-tree value F = omega0 * (1 - r) * boundary_value / L0.
    """
    if params.N1 != 0 or params.length_overrides or params.weight_overrides:
        raise NotGeometric("radial solutions need a purely geometric tree")
    require_valid(params)
    r = params.r
    pw = params.p * params.omega
    if condensed:
        tree = build_condensed(params, N)
        s0 = boundary_value * (1.0 - r) / params.L0
    else:
        tree = build_truncated(params, N)
        s0 = boundary_value * (1.0 - r) / (params.L0 * (1.0 - r ** (N + 1)))
    gens = tree.depth + 1
    slopes = s0 / pw ** np.arange(gens)
    vals = s0 * params.L0 * (1.0 - r ** (np.arange(gens) + 1)) / (1.0 - r)
    vals[-1] = boundary_value
    coeffs = []
    for n in range(tree.depth + 1):
        c = np.zeros((tree.p**n, 2))
        c[:, 0] = vals[n - 1] if n > 0 else 0.0
        c[:, 1] = slopes[n]
        coeffs.append(c)
    f = TreeFunction(tree, coeffs)
    return f, RadialRecord(flux=float(params.omega0 * s0))
