"""Oracles that several test modules share.

Nothing in the package calls these: each is a plain construction, a
closed-form sum or a direct read that a test checks the package against.
"""

import math
from dataclasses import dataclass

import numpy as np

from treedisk.calculus import (
    TreeFunction,
    _parent_rows,
    _poly_defint,
    _poly_mul,
    _same_tree,
    solve_poisson_zero_trace,
)
from treedisk.circle import BLOCK_MODES, CellModes, FourierFn, PiecewiseConstantFn, cell_averages
from treedisk.errors import DepthMismatch
from treedisk.exterior import _source_integral
from treedisk.tree import FiniteTree, _child_sums, check_tree_budget


def mode(g, k: int) -> complex:
    """The coefficient of e^{ik theta} in the FourierFn g, 0 beyond its cutoff."""
    return g.coeffs[k + g.M] if abs(k) <= g.M else 0.0j


def ks(g) -> np.ndarray:
    """The mode numbers -M..M of the FourierFn g."""
    return np.arange(-g.M, g.M + 1)


def to_fourier(g: PiecewiseConstantFn, M: int) -> FourierFn:
    """The modes |k| <= M of cell values as one array (circle.CellModes
    forms them a block at a time, with the same bits)."""
    return FourierFn(g.decomp.R, CellModes(g, M).block(-M, M + 1))


def padded(g: FourierFn, M: int) -> FourierFn:
    """g with zero modes up to the cutoff M >= g.M."""
    if M < g.M:
        raise ValueError("cannot truncate by padding")
    out = np.zeros(2 * M + 1, dtype=complex)
    out[M - g.M : M + g.M + 1] = g.coeffs
    return FourierFn(g.R, out)


def difference(f: FourierFn, g: FourierFn) -> FourierFn:
    """f - g as one array at the larger cutoff."""
    M = max(f.M, g.M)
    return FourierFn(f.R, padded(f, M).coeffs - padded(g, M).coeffs)


def sobolev_norm(g: FourierFn, s: float) -> float:
    """The Fourier H^s norm (2 pi R sum (1+k^2)^s |g_k|^2)^{1/2} over the
    whole array of g's modes; s = 0 is the L^2 norm."""
    weight = (1 + ks(g).astype(float) ** 2) ** s
    return math.sqrt(2 * math.pi * g.R * float((weight * np.abs(g.coeffs) ** 2).sum()))


def study_errors(cells, reference, M: int):
    """(err_l2, err_h12) of convergence_study the whole-array way: each
    level's cell values (PiecewiseConstantFn) as one array of modes at the
    cutoff M, minus the reference's modes (a FourierFn, or the modes at M
    of cell values), at the larger cutoff."""
    if isinstance(reference, PiecewiseConstantFn):
        reference = to_fourier(reference, M)
    diffs = [difference(to_fourier(g, M), reference) for g in cells]
    return [sobolev_norm(d, 0) for d in diffs], [sobolev_norm(d, 0.5) for d in diffs]


def eval_mode(field, k: int, r):
    """Mode k of the exterior.ExteriorField field at the radii r >= R, one
    mode at a time: a_k (R/r)^|k| (+ b_k (r/R)^|k| where b_k != 0), a_0 +
    b_0 log r at k = 0, and the particular part of a source mode."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < field.R):
        raise ValueError("exterior field evaluated inside the disk")
    k = int(k)
    a, b = field.block(k, k + 1)
    a_c, b_c = complex(a[0]), complex(b[0])
    ak = abs(k)
    if ak == 0:
        out = a_c + b_c * np.log(r) + 0j
    else:
        out = a_c * (field.R / r) ** ak + 0j
        if b_c != 0:
            out += b_c * (r / field.R) ** ak
    if field.source is not None and k in field.source.modes():
        for i, ri in enumerate(r):
            if ri <= field.source.R:
                continue
            if ak == 0:
                ia = _source_integral(field.source, k, 1.0, ri)
                il = _source_integral(field.source, k, 1.0, ri, with_log=True)
                out[i] += math.log(ri) * ia - il
            else:
                im = _source_integral(field.source, k, 1.0 - ak, ri)
                ip = _source_integral(field.source, k, 1.0 + ak, ri)
                out[i] += (ri**ak * im - ri**(-ak) * ip) / (2.0 * ak)
    return out if out.size > 1 else complex(out[0])


def project_PN(decomp, g, n: int) -> PiecewiseConstantFn:
    """Orthogonal projection onto V_n: the cell-average function."""
    if n > decomp.n_max:
        raise DepthMismatch("level %d exceeds n_max %d" % (n, decomp.n_max))
    vals = cell_averages(decomp, g, n)
    if isinstance(g, PiecewiseConstantFn) and np.isrealobj(g.values):
        vals = np.real(vals)
    elif isinstance(g, FourierFn) and g.is_real():
        vals = np.real(vals)
    return PiecewiseConstantFn(decomp, n, vals)


def cells_l2_norm(f: PiecewiseConstantFn) -> float:
    """The L^2 norm of cell values: sqrt(cell measure * sum |v|^2)."""
    return float(np.sqrt(f.decomp.cell_measure(f.level) * (np.abs(f.values) ** 2).sum()))


def whole(field):
    """(a, b) of an exterior.ExteriorField over all its modes |k| <= M, as two arrays."""
    return field.block(-field.M, field.M + 1)


def trace0(field) -> FourierFn:
    """The Dirichlet trace of an exterior.ExteriorField over all its modes."""
    return FourierFn(field.R, field.trace0_of(-field.M, *whole(field)))


def trace1(field) -> FourierFn:
    """The conormal trace of an exterior.ExteriorField over all its modes."""
    return FourierFn(field.R, field.trace1_of(-field.M, *whole(field)))


def expanded_tree(tree: FiniteTree) -> FiniteTree:
    """The full tree that a compressed one stands for: each row repeated over
    its edges.  A full tree is returned as it is; a compressed one is checked
    against the tree budget (check_tree_budget) before anything is allocated.
    """
    if tree.rows[tree.depth] == tree.p**tree.depth:
        return tree
    check_tree_budget(tree.params, tree.depth, tree.depth)
    reps = [tree.multiplicity(n) for n in range(tree.depth + 1)]
    return FiniteTree(tree.params,
                      [np.repeat(arr, m) for arr, m in zip(tree.lengths, reps)],
                      [np.repeat(arr, m) for arr, m in zip(tree.weights, reps)], (), ())


def expanded(f: TreeFunction) -> TreeFunction:
    """The same function on the full tree (expanded_tree), each row repeated
    over the edges it stands for; a function on a full tree is returned as it is."""
    tree = expanded_tree(f.tree)
    if tree is f.tree:
        return f
    return TreeFunction(tree, [np.repeat(c, f.tree.multiplicity(n), axis=0)
                               for n, c in enumerate(f.coeffs)])


def pad(c, q: int):
    """The coefficient rows c with zero columns appended up to q columns."""
    if c.shape[1] >= q:
        return c
    out = np.zeros((c.shape[0], q), dtype=c.dtype)
    out[:, : c.shape[1]] = c
    return out


def combined(*terms) -> TreeFunction:
    """sum_i c_i f_i of the pairs (c_i, f_i), functions on one tree, generation
    by generation, each padded with zero coefficients to the largest degree."""
    tree = terms[0][1].tree
    for _, f in terms:
        _same_tree(tree, f.tree)
    coeffs = []
    for n in range(tree.depth + 1):
        q = max(f.coeffs[n].shape[1] for _, f in terms)
        coeffs.append(sum(c * pad(f.coeffs[n], q) for c, f in terms))
    return TreeFunction(tree, coeffs)


def constant_function(tree, value=1.0) -> TreeFunction:
    return TreeFunction(tree, [np.full((rows, 1), value) for rows in tree.rows])


def root_bump(tree) -> TreeFunction:
    """The root bump u1 = (1 - t/l_root)^2 on the root edge, zero beyond:
    u1(o) = 1, its leaf values and leaf fluxes vanish, and its Laplacian is
    the constant 2/l_root^2 on the root edge."""
    u1 = constant_function(tree, 0.0)
    l0 = tree.lengths[0][0]
    u1.coeffs[0] = np.array([[1.0, -2.0 / l0, 1.0 / l0**2]])
    return u1


def bump_lift(forcing: TreeFunction, c) -> TreeFunction:
    """The tree lift with Laplacian forcing, root value c and zero leaf
    trace by the root-bump ansatz, on a full tree: c u1 plus the Poisson
    solve of forcing - c Lap(u1) with root value 0."""
    tree = forcing.tree
    lap_u1 = constant_function(tree, 0.0)
    lap_u1.coeffs[0] = np.array([[2.0 / tree.lengths[0][0] ** 2]])
    rest = solve_poisson_zero_trace(tree, combined((1, forcing), (-c, lap_u1)), 0.0)
    return combined((c, root_bump(tree)), (1, rest))


def from_vertex_values(tree, root_value, vertex_values) -> TreeFunction:
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


def l2_inner(f: TreeFunction, g: TreeFunction):
    """Weighted L^2 inner product, conjugating the second argument."""
    _same_tree(f.tree, g.tree)
    acc = 0.0
    for n in range(f.tree.depth + 1):
        prod = _poly_mul(f.coeffs[n], np.conj(g.coeffs[n]))
        acc = acc + f.tree.multiplicity(n) * (f.tree.weights[n] * _poly_defint(prod, f.tree.lengths[n])).sum()
    return acc


def total_length(tree) -> float:
    return float(sum(tree.multiplicity(n) * arr.sum() for n, arr in enumerate(tree.lengths)))


def total_measure(tree) -> float:
    """mu(T) = sum of omega_e * ell_e over edges."""
    return float(sum(tree.multiplicity(n) * (tree.lengths[n] * tree.weights[n]).sum()
                     for n in range(tree.depth + 1)))


def root_distances(tree) -> list:
    """[n][k]: the root distance L_{n,k} of the far vertex X_{n,k}, per stored row.

    The root vertex o sits at distance 0 below edge (0, 0).
    """
    dist = [tree.lengths[0].copy()]
    for n in range(1, tree.depth + 1):
        dist.append(_parent_rows(dist[-1], tree.p, tree.merged(n)) + tree.lengths[n])
    return dist


@dataclass
class KirchhoffResidual:
    """Flux imbalance at interior vertices X_{n,k}, n < depth."""

    values: list
    scale: float

    @property
    def relative(self) -> float:
        worst = max((float(np.abs(v).max()) for v in self.values if v.size), default=0.0)
        return worst / max(self.scale, 1e-300)


def kirchhoff_residual(f: TreeFunction) -> KirchhoffResidual:
    """The flux imbalance at each interior vertex: the outflux of its parent
    edge minus the summed influx of its child edges.  scale is the largest
    sum of those flux magnitudes at one vertex."""
    tree = f.tree
    p = tree.p
    der = f.derivative()
    values = []
    scale = 0.0
    for n in range(tree.depth):
        out_flux = tree.weights[n] * der.end_values(n)
        in_flux = tree.weights[n + 1] * der.coeffs[n + 1][:, 0]
        merged = tree.merged(n + 1)
        values.append(out_flux - _child_sums(in_flux, p, merged))
        mags = np.abs(out_flux) + _child_sums(np.abs(in_flux), p, merged)
        if mags.size:
            scale = max(scale, float(mags.max()))
    return KirchhoffResidual(values=values, scale=scale)


def green_by_sweep(op, k: int) -> np.ndarray:
    """The Green block of a dtn.TreeDtN at level k by the apply sweep.

    The sweep from level k to the root and back, run on the p^k unit loads
    (the columns of the identity): each column's loads are collected up to
    the root with the share c / pivot handed on, then the vertex values are
    substituted down to level k.
    """
    c, pivot, p = op.c, op.pivot, op.p
    collected = [np.eye(p**k)]
    for n in range(k, 0, -1):
        collected.append(_child_sums((c[n] / pivot[n])[:, None] * collected[-1], p))
    u = collected.pop() / pivot[0][:, None]
    for n in range(1, k + 1):
        u = c[n][:, None] * np.repeat(u, p, axis=0)
        u += collected.pop()
        u /= pivot[n][:, None]
    return u


def support_by_scan(data) -> int:
    """The largest |k| with a nonzero mode in data (M and block(lo, hi)), 0
    when there is none: bands of BLOCK_MODES modes on each side, scanned
    from the outside in, then the modes |k| <= BLOCK_MODES that remain as
    one block."""
    top = data.M
    while top > BLOCK_MODES:
        lo = top - BLOCK_MODES + 1
        pos = np.flatnonzero(data.block(lo, top + 1))
        neg = np.flatnonzero(data.block(-top, 1 - lo))
        if pos.size or neg.size:
            return int(max(lo + pos[-1] if pos.size else 0, top - neg[0] if neg.size else 0))
        top = lo - 1
    return int(np.abs(np.flatnonzero(data.block(-top, top + 1)) - top).max(initial=0))
