"""Oracles that several test modules share.

Nothing in the package calls these: each is a plain construction, a
closed-form sum or a direct read that a test checks the package against.
"""

from dataclasses import dataclass

import numpy as np

from treedisk.calculus import TreeFunction, _parent_rows, _poly_defint, _poly_mul, _same_tree
from treedisk.tree import _child_sums


def mode(g, k: int) -> complex:
    """The coefficient of e^{ik theta} in the FourierFn g, 0 beyond its cutoff."""
    return g.coeffs[k + g.M] if abs(k) <= g.M else 0.0j


def constant_function(tree, value=1.0) -> TreeFunction:
    return TreeFunction(tree, [np.full((rows, 1), value) for rows in tree.rows])


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
