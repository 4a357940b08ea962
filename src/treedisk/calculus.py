"""Calculus of piecewise-polynomial functions on finite weighted trees.

A TreeFunction stores one polynomial per edge in the local coordinate
x = t - (L_{n,k} - ell_{n,k}) in [0, ell_{n,k}], i.e. x measures arclength
from the parent-side vertex.  All integrals against the weighted measure
d mu = omega_e dx are evaluated in closed form, so the Green identity
holds to rounding error for polynomial data.

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
O(p^N * depth), and never builds the full tree.

The merged generations level+1..depth (the tail, FiniteTree) are one
block in every solve: a function keeps their coefficients as one
(G, rows, q + 1) array, and the solves form the particular parts, the
loads and the coefficients of all tail generations in block operations
against the tree's tail blocks.  Only the recurrences along the
generations (collected loads up, vertex values and harmonic corrections
down) step through the tail one generation at a time, each element with
the operations of the per-generation solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthMismatch
from .tree import FiniteTree, _child_sums

# ---------------------------------------------------------------------------
# small dense polynomial helpers (rows = edges, columns = ascending coeffs)


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

    Given a tail, a (G, rows, q + 1) array of the coefficients of the tree's
    tail generations level+1..depth, coeffs holds generations 0..level and
    the tail generations are appended as views of it.  `tail` is that
    block, which the solves take for a compressed tree's tail (every solve
    returns one); it is None for a function given one array per
    generation, and on a full tree.
    """

    def __init__(self, tree: FiniteTree, coeffs, tail=None):
        self.tree = tree
        self.coeffs = [np.atleast_2d(np.asarray(c)) for c in coeffs]
        given = len(self.coeffs)
        if tail is not None:
            tail = np.asarray(tail)
            if given != tree.level + 1 or tail.ndim != 3:
                raise DepthMismatch("a tail block of shape (G, rows, q + 1) follows %d generations, "
                                    "got %d and shape %r" % (tree.level + 1, given, tail.shape))
            self.coeffs += list(tail)
        self.tail = tail
        if len(self.coeffs) != tree.depth + 1:
            raise DepthMismatch("expected %d generations of coefficients, got %d"
                                % (tree.depth + 1, len(self.coeffs)))
        for n, c in enumerate(self.coeffs):
            if c.shape[0] != tree.rows[n]:
                raise DepthMismatch("generation %d needs %d rows, got %d" % (n, tree.rows[n], c.shape[0]))

    @property
    def root_value(self):
        return self.coeffs[0][0, 0]

    def end_values(self, n):
        return _poly_eval(self.coeffs[n], self.tree.lengths[n])

    def leaf_values(self):
        return self.end_values(self.tree.depth)

    def derivative(self) -> "TreeFunction":
        return TreeFunction(self.tree, [_poly_der(c) for c in self.coeffs])


def _same_tree(a: FiniteTree, b: FiniteTree):
    if a is not b and (a.depth != b.depth or a.p != b.p or a.rows != b.rows):
        raise DepthMismatch("functions live on different trees")


def _parent_rows(x, p, merged):
    """The parent values x on the rows of the child generation: x itself for a
    merged generation, np.repeat(x, p) otherwise."""
    return x if merged else np.repeat(x, p)


# ---------------------------------------------------------------------------
# Laplacian, traces


def laplacian(f: TreeFunction) -> TreeFunction:
    """Edgewise second derivative."""
    return TreeFunction(f.tree, [_poly_der(_poly_der(c)) for c in f.coeffs])


def leaf_flux(f: TreeFunction) -> np.ndarray:
    """omega_{N,K} * f'_{N,K}(ell-) at every leaf edge (one value per leaf
    row, the flux through each of the edges the row stands for).

    Dividing by the boundary cell measures |Gamma_{N,K}| turns this into
    the distributional normal-derivative trace density.  Every solve gives
    leaf edges of degree q >= 1; a constant (q = 0) gives c 0 omega, a zero
    with the sign of c.
    """
    tree = f.tree
    c = f.coeffs[tree.depth]
    q = c.shape[1] - 1
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
    lap = laplacian(u)
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


def _solve_vertices(tree: FiniteTree, loads, tail_loads, root_value):
    """Vertex values of the clamped graph system.

    loads[n] is the right-hand side at X_{n,k} for the generations n <
    depth up to the level, tail_loads the (G - 1, rows) block of those
    below it (None on a full tree); the leaves are clamped at zero, which
    loads nothing, and the root o at root_value.  One upward pass collects
    the loads through tree.elimination, one downward pass substitutes
    from root_value; the zero leaves add the +0.0 that their products
    would.  Returns (values, tail_values): values[n] for the generations
    up to the level, followed on a full tree by the leaves' 0.0, and on a
    compressed tree the (G + 1, rows) block of generations level..depth,
    values[level] its first row and the clamped leaves its last.
    """
    p = tree.p
    c, pivot = tree.elimination
    up = None
    if tail_loads is not None:
        tail_c, tail_pivot = tree.tail_elimination[:2]
        tail_collected = np.empty_like(tail_loads)
        for i in range(len(tail_loads) - 1, -1, -1):
            gathered = np.add(tail_loads[i], 0.0 if up is None else _child_sums(up, p, merged=True),
                              tail_collected[i])
            up = tail_c[i] * gathered
            np.divide(up, tail_pivot[i], up)
    collected = [None] * len(loads)
    for n in range(len(loads) - 1, -1, -1):
        collected[n] = loads[n] + (0.0 if up is None else _child_sums(up, p, tree.merged(n + 1)))
        up = c[n] * collected[n]
        up /= pivot[n]
    values = []
    parent = root_value
    for n in range(len(loads)):
        if n:
            parent = _parent_rows(values[-1], p, tree.merged(n))
        v = c[n] * parent + collected[n]
        v /= pivot[n]
        values.append(v)
    if tail_loads is None:
        values.append(0.0)
        return values, None
    tail_values = np.empty((len(tail_loads) + 2, tree.rows[-1]), dtype=values[-1].dtype)
    tail_values[0] = values[-1]
    for i, v in enumerate(tail_values[1:-1]):
        np.multiply(tail_c[i], tail_values[i], v)
        np.add(v, tail_collected[i], v)
        np.divide(v, tail_pivot[i], v)
    tail_values[-1] = 0.0
    return values, tail_values


def _mean(below, share, p, merged):
    """The weighted mean of the leaf values below X_{n,k} and the effective
    conductance a below it, from the means and shares of its children
    (solve_harmonic_dirichlet)."""
    first = below if merged else below[0::p]
    a = _child_sums(share, p, merged)
    spread = _child_sums(share * (below - _parent_rows(first, p, merged)), p, merged)
    spread /= a
    return first + spread, a


def solve_harmonic_dirichlet(tree: FiniteTree, leaf_values) -> TreeFunction:
    """Edgewise-linear function, harmonic off the vertices, with prescribed
    leaf values and root value 0; Kirchhoff holds at interior vertices.

    The elimination is carried in deviations, so that no slope is the
    difference of two nearly equal vertex values (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 1).  Upward, m[n] is the mean
    of the leaf values below X_{n,k}, weighted by the share c a / pivot of
    each child (a leaf edge hands up its conductance):

        m[n] = first + sum_children share (m[n+1] - first) / a,

    with first the first child's mean and a the sum of the shares, the
    effective conductance below X; equal children give first exactly.
    Downward, u(X_{n,k}) = m[n] + w[n] with w[n] = c[n] d[n] / pivot[n],
    where d[n] = u(parent) - m[n] is (m[n-1] - m[n]) + w[n-1], or 0.0 - m[0]
    at the root (0.0 - m keeps the sign of a zero m), and edge n has slope
    (w[n] - d[n]) / ell[n] (w = 0 on a leaf edge).  Below a compressed level every row has one child, so d[n]
    = w[n-1] and the leaf flux is a product of shares: exact at any depth.

    In the tail the one child's mean is first itself, so m[n] - first is
    exactly 0 for finite means and every tail mean above the leaves is the
    one computed from them; the tail's means, d and slopes are blocks, and
    only w steps down the tail one generation at a time.
    """
    leaf_values = np.asarray(leaf_values)
    if leaf_values.shape != (tree.n_leaves,):
        raise DepthMismatch("expected %d leaf values, got shape %r" % (tree.n_leaves, leaf_values.shape))
    p, level, depth = tree.p, tree.level, tree.depth
    c, pivot = tree.elimination
    tail_c, tail_pivot, tail_share = tree.tail_elimination
    gens = depth - level
    below, share = leaf_values, c[depth]
    if gens > 1:
        below = _mean(below, share, p, merged=True)[0]
        share = tail_share
    tail_mean = below
    if gens:
        top, means = level, [None] * (level + 1)
    else:
        top, means = depth - 1, [None] * depth + [leaf_values]
    for n in range(top, -1, -1):
        means[n], a = _mean(below, share, p, tree.merged(n + 1))
        below = means[n]
        share = c[n] * a
        share /= pivot[n]

    dtype = np.result_type(leaf_values, float)
    coeffs = []
    start, d = 0.0, 0.0 - means[0]
    for n in range(len(means)):
        if n:
            merged = tree.merged(n)
            start = _parent_rows(means[n - 1] + w, p, merged)
            d = _parent_rows(means[n - 1], p, merged) - means[n]
            d += _parent_rows(w, p, merged)
        w = c[n] * d / pivot[n] if n < depth else 0.0
        coef = np.empty((tree.rows[n], 2), dtype=dtype)
        coef[:, 0] = start
        coef[:, 1] = (w - d) / tree.lengths[n]
        coeffs.append(coef)
    if not gens:
        return TreeFunction(tree, coeffs)

    # generations level..depth: means, w, and d of level+1..depth
    rows = tree.rows[depth]
    m = np.empty((gens + 1, rows), dtype=dtype)
    m[0] = means[level]
    m[1:-1] = tail_mean
    m[-1] = leaf_values
    w_tail = np.empty((gens + 1, rows), dtype=dtype)
    w_tail[0] = w
    w_tail[-1] = 0.0
    d_tail = m[:-1] - m[1:]
    for i, (d, w) in enumerate(zip(d_tail, w_tail[1:-1])):
        np.add(d, w_tail[i], d)
        np.multiply(tail_c[i], d, w)
        np.divide(w, tail_pivot[i], w)
    d_tail[-1] += w_tail[-2]
    tail = np.empty((gens, rows, 2), dtype=dtype)
    np.add(m[:-1], w_tail[:-1], out=tail[:, :, 0])
    slope = w_tail[1:] - d_tail
    slope /= tree.tail_lengths
    tail[:, :, 1] = slope
    return TreeFunction(tree, coeffs, tail)


def _particular(s, ell, dtype):
    """The coefficients (columns 2..) and end value w(ell) of the double
    antiderivative w of the source rows s, w(0) = w'(0) = 0: column j + 2
    is s_j / ((j+1)(j+2)), and w(ell) comes by Horner from the top
    coefficient.  Columns 0 and 1 are left for the linear part.  s is one
    generation's (rows, d + 1) or the tail's (G, rows, d + 1)."""
    d = s.shape[-1] - 1
    c = np.empty(s.shape[:-1] + (d + 3,), dtype=dtype)
    end = s[..., d] / ((d + 1) * (d + 2))
    c[..., d + 2] = end
    for j in range(d - 1, -1, -1):
        end *= ell
        term = s[..., j] / ((j + 1) * (j + 2))
        c[..., j + 2] = term
        end += term
    end *= ell
    end *= ell
    return c, end


def _end_flux(s, ell, weight):
    """omega w'(ell) of the double antiderivative of the source rows s, by
    Horner: w' has the coefficient s_j / (j+1) of x^j."""
    d = s.shape[-1] - 1
    der = s[..., d] / (d + 1)
    for j in range(d - 1, -1, -1):
        der *= ell
        der += s[..., j] / (j + 1)
    der *= ell
    der *= weight
    return der


def _linear_part(c, parent, value, end, ell):
    """Columns 0 and 1 of c: the value at the parent vertex and the slope
    (value - parent - w(ell)) / ell that corrects w to the vertex values."""
    c[..., 0] = parent
    slope = np.subtract(value, parent)
    slope -= end
    slope /= ell
    c[..., 1] = slope


def solve_poisson_zero_trace(tree: FiniteTree, source: TreeFunction, root_value) -> TreeFunction:
    """Solve Lap u = source edgewise with u(o) = root_value and zero leaf values.

    Zero leaf values approximate the homogeneous-boundary space of the
    infinite tree; root_value is the root Dirichlet datum.  On each edge
    u = w + linear, where w is the double antiderivative of the source with
    w(0) = w'(0) = 0 (_particular).  The vertex values solve the graph
    system clamped at root_value and zero, and the linear part corrects w
    to them.  The load at X_{n,k} is c w(ell) - omega w'(ell) on its own
    edge, minus the children's c w(ell).  The tail's w, loads and
    coefficients are formed as blocks.  The source arrays are only read.
    """
    _same_tree(source.tree, tree)
    p, level, depth = tree.p, tree.level, tree.depth
    cond = tree.elimination[0]
    dtype = np.result_type(*(c.dtype for c in source.coeffs), root_value, float)
    tail = tail_end = tail_loads = below = None
    if level < depth:
        s, ell = source.tail, tree.tail_lengths
        if s is None:
            raise DepthMismatch("a source on a tree compressed below level %d gives generations "
                                "%d..%d as one tail block" % (level, level + 1, depth))
        tail, tail_end = _particular(s, ell, dtype)
        own = tree.tail_elimination[0] * tail_end
        tail_loads = np.subtract(own[:-1], _end_flux(s[:-1], ell[:-1], tree.tail_weights[:-1]),
                                 dtype=dtype)
        tail_loads -= _child_sums(own[1:], p, merged=True)
        below = own[0]
    coeffs = [None] * (level + 1)
    w_end = [None] * (level + 1)
    loads = [None] * min(level + 1, depth)
    for n in range(level, -1, -1):
        s, ell = source.coeffs[n], tree.lengths[n]
        coeffs[n], w_end[n] = _particular(s, ell, dtype)
        own = cond[n] * w_end[n]
        if n < depth:
            loads[n] = np.subtract(own, _end_flux(s, ell, tree.weights[n]), dtype=dtype)
            loads[n] -= _child_sums(below, p, tree.merged(n + 1))
        below = own
    values, tail_values = _solve_vertices(tree, loads, tail_loads, root_value)

    for n, c in enumerate(coeffs):
        parent = np.full(1, root_value, dtype) if n == 0 else _parent_rows(values[n - 1], p, tree.merged(n))
        _linear_part(c, parent, values[n], w_end[n], tree.lengths[n])
    if tail is None:
        return TreeFunction(tree, coeffs)
    _linear_part(tail, tail_values[:-1], tail_values[1:], tail_end, tree.tail_lengths)
    return TreeFunction(tree, coeffs, tail)
