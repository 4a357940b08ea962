"""Tree elimination kernel against the sparse graph-Laplacian solves.

The functions below assemble the clamped weighted graph Laplacian as a
scipy CSR matrix, split it into interior and leaf blocks and factor the
interior block with splu: the construction the elimination kernel replaced,
kept here as the oracle only.  sparse_poisson also keeps the particular
parts of the old Poisson solve, double antiderivative arrays built with
_poly_antider, where the kernel evaluates them in closed form.  The
level-N builder tree_dtn_operator is checked, through its dense matrix on
source trees of depth N+1 .. N+13, against the level-(N+1) condensed
matrix and the sparse Schur complement summed down with compress, and
its matrix-free form (the sweep D x and T. Chan's circulant eigenvalues)
against that dense matrix.  The same kernels on a source tree compressed
below level N are checked bit for bit against the full tree.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    expanded,
    expanded_tree,
    from_vertex_values,
    kirchhoff_residual,
    l2_inner,
    pad,
    root_distances,
    total_measure,
)
from treedisk import calculus as ca
from treedisk import dtn, transmission
from treedisk.acceptance import _random_admissible_params
from treedisk.dtn import compress, condensed_dtn, tree_dtn_operator, truncated_dtn
from treedisk.errors import CondensationBelowGeometricGeneration, DepthMismatch
from treedisk.tree import TreeParams, _child_sums, build_condensed, build_truncated

PARAMS = {
    "interval": TreeParams(p=1, ell=0.5, omega=1.0),
    "p2": TreeParams(p=2, ell=0.5, omega=0.4),
    "p3": TreeParams(p=3, ell=0.6, omega=0.3, L0=1.3, omega0=0.8),
    "p3_overrides": TreeParams(
        p=3, ell=0.6, omega=0.3, N1=2,
        length_overrides={(0, 0): 1.2, (1, 2): 0.5},
        weight_overrides={(0, 0): 0.9, (1, 0): 0.35},
    ),
    "p2_overrides": TreeParams(
        p=2, ell=0.5, omega=0.4, N1=1, length_overrides={(0, 0): 0.7}, weight_overrides={(0, 0): 1.4},
    ),
}
MAX_LEAVES = 729


def _cases():
    cases = []
    for name, params in PARAMS.items():
        depth = 0
        # p = 1 has a single leaf at every depth
        while params.p**depth <= MAX_LEAVES and depth <= 9:
            cases.append((name, "truncated", depth))
            if depth >= 1 and depth - 1 >= params.N1:
                cases.append((name, "condensed", depth - 1))
            depth += 1
    return cases


CASES = _cases()


def _tree(name, kind, depth):
    if kind == "compressed":
        return build_condensed(PARAMS[name], depth, level=PARAMS[name].N1)
    build = build_condensed if kind == "condensed" else build_truncated
    return build(PARAMS[name], depth)


# ---------------------------------------------------------------------------
# sparse oracle


def sparse_system(tree):
    """Clamped graph Laplacian over all vertices X_{n,k} (root clamped out), CSR."""
    p = tree.p
    offsets = np.cumsum([0] + [p**n for n in range(tree.depth + 1)])
    rows, cols, vals = [], [], []
    for n in range(tree.depth + 1):
        c = tree.weights[n] / tree.lengths[n]
        idx = offsets[n] + np.arange(p**n)
        rows.append(idx)
        cols.append(idx)
        vals.append(c)
        if n > 0:
            par = offsets[n - 1] + np.arange(p**n) // p
            rows += [par, par, idx]
            cols += [par, idx, par]
            vals += [c, -c, -c]
    Q = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(offsets[-1],) * 2
    )
    interior = np.arange(offsets[tree.depth])
    boundary = offsets[tree.depth] + np.arange(tree.n_leaves)
    lu = scipy.sparse.linalg.splu(Q[interior][:, interior].tocsc()) if interior.size else None
    return {
        "lu": lu,
        "Q_ib": Q[interior][:, boundary].tocsc(),
        "Q_bi": Q[boundary][:, interior].tocsc(),
        "Q_bb": Q[boundary][:, boundary].tocsc(),
        "offsets": offsets,
    }


def _solve(lu, b):
    if np.iscomplexobj(b):
        return lu.solve(b.real.copy()) + 1j * lu.solve(b.imag.copy())
    return lu.solve(b)


def sparse_schur(tree):
    fac = sparse_system(tree)
    q_bb = fac["Q_bb"].toarray()
    if fac["lu"] is None:
        return q_bb
    return q_bb - fac["Q_bi"] @ fac["lu"].solve(fac["Q_ib"].toarray())


def sparse_harmonic(tree, leaf_values):
    """The harmonic function with the leaf values and root value 0, by a sparse LU."""
    fac = sparse_system(tree)
    dtype = np.result_type(leaf_values.dtype, float)
    u_int = np.zeros(0, dtype=dtype)
    if fac["lu"] is not None:
        u_int = _solve(fac["lu"], -(fac["Q_ib"] @ leaf_values).astype(dtype))
    offsets = fac["offsets"]
    values = [u_int[offsets[n] : offsets[n + 1]] for n in range(tree.depth)]
    return from_vertex_values(tree, 0.0, values + [leaf_values.astype(dtype)])


def _poly_antider(c):
    out = np.zeros((c.shape[0], c.shape[1] + 1), dtype=c.dtype)
    out[:, 1:] = c / np.arange(1, c.shape[1] + 1)
    return out


def sparse_poisson(tree, source):
    p = tree.p
    w_parts = [_poly_antider(_poly_antider(c)) for c in source.coeffs]
    w_end = [ca._poly_eval(w_parts[n], tree.lengths[n]) for n in range(tree.depth + 1)]
    wder_end = [ca._poly_eval(ca._poly_der(w_parts[n]), tree.lengths[n]) for n in range(tree.depth + 1)]
    fac = sparse_system(tree)
    offsets = fac["offsets"]
    dtype = np.result_type(*(c.dtype for c in source.coeffs), float)
    rhs = np.zeros(offsets[tree.depth], dtype=dtype)
    for n in range(tree.depth):
        idx = offsets[n] + np.arange(p**n)
        rhs[idx] += -tree.weights[n] * wder_end[n] + tree.weights[n] / tree.lengths[n] * w_end[n]
        rhs[idx] -= (tree.weights[n + 1] / tree.lengths[n + 1] * w_end[n + 1]).reshape(-1, p).sum(axis=1)
    u_int = _solve(fac["lu"], rhs) if fac["lu"] is not None else rhs
    coeffs = []
    for n in range(tree.depth + 1):
        a = np.zeros(1, dtype=dtype) if n == 0 else u_int[offsets[n - 1] : offsets[n]][np.arange(p**n) // p]
        b = u_int[offsets[n] : offsets[n + 1]] if n < tree.depth else np.zeros(p**n, dtype=dtype)
        c = pad(w_parts[n].astype(dtype), max(w_parts[n].shape[1], 2))
        c[:, 0] += a
        c[:, 1] += (b - a - w_end[n]) / tree.lengths[n]
        coeffs.append(c)
    return ca.TreeFunction(tree, coeffs)


# ---------------------------------------------------------------------------
# comparisons


def _rel(got, ref):
    return float(np.abs(np.asarray(got) - np.asarray(ref)).max() / max(np.abs(ref).max(), 1e-300))


def _rel_fn(got, ref):
    assert len(got.coeffs) == len(ref.coeffs)
    scale = max(float(np.abs(c).max()) for c in ref.coeffs)
    diff = 0.0
    for g, r in zip(got.coeffs, ref.coeffs):
        q = max(g.shape[1], r.shape[1])
        diff = max(diff, float(np.abs(pad(g, q) - pad(r, q)).max()))
    return diff / max(scale, 1e-300)


def _random_source(tree, rng, degree, complex_=True):
    def gen(n):
        c = rng.standard_normal((tree.p**n, degree + 1))
        return c + 1j * rng.standard_normal(c.shape) if complex_ else c
    return ca.TreeFunction(tree, [gen(n) for n in range(tree.depth + 1)])


def _check_tree(tree, rng):
    leaves = rng.standard_normal(tree.n_leaves) + 1j * rng.standard_normal(tree.n_leaves)
    assert _rel_fn(ca.solve_harmonic_dirichlet(tree, leaves), sparse_harmonic(tree, leaves)) <= 1e-12
    real = rng.standard_normal(tree.n_leaves)
    assert _rel_fn(ca.solve_harmonic_dirichlet(tree, real), sparse_harmonic(tree, real)) <= 1e-12
    source = _random_source(tree, rng, degree=2)
    assert _rel_fn(ca.solve_poisson_zero_trace(tree, source), sparse_poisson(tree, source)) <= 1e-12


@pytest.mark.parametrize("name,kind,depth", CASES)
def test_dtn_matches_sparse_schur_complement(name, kind, depth):
    if kind == "condensed":
        A = condensed_dtn(PARAMS[name], depth)
    else:
        A = truncated_dtn(PARAMS[name], depth)
    assert _rel(A, sparse_schur(_tree(name, kind, depth))) <= 1e-12


@pytest.mark.parametrize("name,kind,depth", CASES)
def test_solves_match_sparse_solves(name, kind, depth):
    _check_tree(_tree(name, kind, depth), np.random.default_rng(depth + 31 * len(name)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_admissible_trees_match_sparse_oracle(seed):
    rng = np.random.default_rng(seed)
    params = _random_admissible_params(rng)
    checks = [
        (condensed_dtn(params, params.N1 + 2), build_condensed(params, params.N1 + 2)),
        (truncated_dtn(params, params.N1 + 3), build_truncated(params, params.N1 + 3)),
    ]
    for A, tree in checks:
        assert _rel(A, sparse_schur(tree)) <= 1e-12
        _check_tree(tree, rng)


# ---------------------------------------------------------------------------
# level-N builder against the level-(N+1) matrix summed down


def _level_cases():
    cases = []
    for name, params in PARAMS.items():
        N = params.N1
        # p = 1 has a single cell at every level
        while params.p ** (N + 1) <= MAX_LEAVES and N <= 9:
            cases.append((name, N))
            N += 1
    return cases


# D_N is read off source trees 1 .. _SOURCE_EXTRA generations deeper than
# the level-N tree of depth N + 1
_SOURCE_EXTRA = 12


def _check_level_builder(params, N):
    ref = compress(condensed_dtn(params, N), params.p, N)
    oracle = compress(sparse_schur(build_condensed(params, N)), params.p, N)
    for depth in range(N, N + _SOURCE_EXTRA + 1):
        tree = build_condensed(params, depth, level=N)
        op = tree_dtn_operator(tree)
        D = op.matrix
        assert D.shape == (params.p**N, params.p**N)
        assert _rel(D, ref) <= 1e-12
        assert _rel(D, oracle) <= 1e-12
        # the operator holds the tree's elimination arrays, not copies
        assert all(op.pivot[n] is tree.elimination[1][n] for n in range(N + 1))
        assert all(op.c[n] is tree.elimination[0][n] for n in range(N + 1))


@pytest.mark.parametrize("name,N", _level_cases())
def test_level_builder_matches_compressed_condensed_dtn(name, N):
    _check_level_builder(PARAMS[name], N)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_level_builder_matches_on_random_admissible_trees(seed):
    params = _random_admissible_params(np.random.default_rng(seed))
    for N in range(params.N1, params.N1 + 3):
        if params.p ** (N + 1) <= MAX_LEAVES:
            _check_level_builder(params, N)


# ---------------------------------------------------------------------------
# matrix-free D_N against the dense level-N matrix


def _chan_oracle(D):
    """diag(F^H D F) for the unitary DFT basis F of numpy's ifft, by two FFTs."""
    return np.diagonal(np.fft.fft(np.fft.ifft(D, axis=1), axis=0)).real


def _check_operator(params, N, rng):
    op = tree_dtn_operator(build_condensed(params, N, level=N))
    D = op.matrix
    assert (op.p, op.size) == (params.p, params.p**N)
    x = rng.standard_normal(op.size) + 1j * rng.standard_normal(op.size)
    assert _rel(op.apply(x), D @ x) <= 1e-12
    assert _rel(op.apply(x.real), D @ x.real) <= 1e-12
    assert _rel(op.chan_eigs(), _chan_oracle(D)) <= 1e-12


@pytest.mark.parametrize("name,N", _level_cases())
def test_operator_matches_dense_level_matrix(name, N):
    _check_operator(PARAMS[name], N, np.random.default_rng(N + 7 * len(name)))


def test_operator_matches_dense_below_its_green_block():
    # PARAMS has no p = 4 tree, and its level cases stop at p^(N+1) <= 729;
    # at N = 4 (256 cells) the 64-cell block leaves one generation to sweep
    params = TreeParams(p=4, ell=0.5, omega=0.3)
    _check_operator(params, 4, np.random.default_rng(4))
    k, green = tree_dtn_operator(build_condensed(params, 4, level=4))._green
    assert k == 3
    assert green.shape[0] == green.shape[1] <= dtn._TOP_CELLS


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_operator_matches_dense_on_random_admissible_trees(seed):
    rng = np.random.default_rng(seed)
    params = _random_admissible_params(rng)
    for N in range(params.N1, params.N1 + 3):
        if params.p**N <= MAX_LEAVES:
            _check_operator(params, N, rng)


# ---------------------------------------------------------------------------
# closed-form Poisson kernel against the antiderivative formula


POISSON_TREES = [("interval", "truncated", 6), ("p2", "condensed", 4), ("p3_overrides", "truncated", 3)]


@pytest.mark.parametrize("name,kind,depth", POISSON_TREES)
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_poisson_matches_oracle_by_source_degree(name, kind, depth, complex_, degree):
    tree = _tree(name, kind, depth)
    source = _random_source(tree, np.random.default_rng(17 * degree + depth), degree, complex_)
    u = ca.solve_poisson_zero_trace(tree, source)
    assert [c.shape[1] for c in u.coeffs] == [degree + 3] * (tree.depth + 1)
    assert np.iscomplexobj(u.coeffs[0]) == complex_
    assert _rel_fn(u, sparse_poisson(tree, source)) <= 1e-12


@pytest.mark.parametrize("name,kind,depth", POISSON_TREES)
def test_poisson_matches_oracle_on_root_only_broadcast_forcing(name, kind, depth):
    # the solve path's forcing without a tree source: a complex root edge and
    # zero-stride read-only zero generations below it
    tree = _tree(name, kind, depth)
    root = np.array([[0.3 - 1.2j]])
    zeros = [np.broadcast_to(0.0, (tree.p**n, 1)) for n in range(1, tree.depth + 1)]
    source = ca.TreeFunction(tree, [root] + zeros)
    u = ca.solve_poisson_zero_trace(tree, source)
    assert _rel_fn(u, sparse_poisson(tree, source)) <= 1e-12
    assert np.array_equal(root, [[0.3 - 1.2j]])
    assert all(not z.flags.writeable and not z.any() for z in zeros)


def test_poisson_leaves_its_source_untouched():
    tree = _tree("p3_overrides", "truncated", 3)
    rng = np.random.default_rng(3)
    for degree in (0, 2):
        source = _random_source(tree, rng, degree)
        before = [c.copy() for c in source.coeffs]
        u = ca.solve_poisson_zero_trace(tree, source)
        assert all(np.array_equal(a, b) for a, b in zip(source.coeffs, before))
        assert not any(np.shares_memory(a, b) for a, b in zip(u.coeffs, source.coeffs))


def _vertices_with_leaf_products(tree, loads, leaf_values):
    """The clamped vertex solve with root value 0 that forms the products
    of the leaf conductances and leaf_values."""
    c, pivot = tree.elimination
    collected = [None] * tree.depth
    up = c[tree.depth] * leaf_values
    for n in range(tree.depth - 1, -1, -1):
        collected[n] = loads[n] + _child_sums(up, tree.p, tree.merged(n + 1))
        up = c[n] * collected[n]
        up /= pivot[n]
    values = []
    parent = 0.0
    for n in range(tree.depth):
        if n:
            parent = ca._parent_rows(values[-1], tree.p, tree.merged(n))
        v = c[n] * parent + collected[n]
        v /= pivot[n]
        values.append(v)
    return values


@pytest.mark.parametrize("name,kind,depth", POISSON_TREES + [("p3_overrides", "compressed", 6)])
@pytest.mark.parametrize("complex_", [False, True])
def test_zero_leaves_are_skipped_bit_for_bit(name, kind, depth, complex_):
    # the Poisson lift clamps its leaves at zero and skips their product;
    # the vertex values keep the bits of the product with a zero array,
    # signed zeros included, also where the tail's loads are one block
    tree = _tree(name, kind, depth)
    rng = np.random.default_rng(depth)
    dtype = complex if complex_ else float
    signed_zero = complex(-0.0, -0.0) if complex_ else -0.0
    random_loads = []
    for n in range(tree.depth):
        load = rng.standard_normal(tree.rows[n]).astype(dtype)
        if complex_:
            load.imag = rng.standard_normal(load.size)
        load[::3] = signed_zero
        random_loads.append(load)
    zero_loads = [np.full(tree.rows[n], signed_zero) for n in range(tree.depth)]
    zeros = np.zeros(tree.n_leaves, dtype=dtype)
    top = min(tree.level + 1, tree.depth)
    for loads in (random_loads, zero_loads):
        tail_loads = np.array(loads[top:]) if tree.level < tree.depth else None
        values, tail_values = ca._solve_vertices(tree, loads[:top], tail_loads)
        full = _vertices_with_leaf_products(tree, loads, zeros)
        if tail_values is None:
            skipped = values[:-1]
            assert values[-1] == 0.0
        else:
            skipped = values + list(tail_values[1:-1])
            assert tail_values[0].tobytes() == values[-1].tobytes()
            assert tail_values[-1].tobytes() == zeros.tobytes()
        assert len(skipped) == len(full)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(skipped, full))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("complex_", [False, True])
def test_child_sums_match_reshape_sum(p, complex_):
    rng = np.random.default_rng(p)
    for parents in (1, 5, 81):
        x = rng.standard_normal(parents * p)
        if complex_:
            x = x + 1j * rng.standard_normal(x.size)
        assert _rel(_child_sums(x, p), x.reshape(-1, p).sum(axis=1)) <= 1e-15


# ---------------------------------------------------------------------------
# the source tree compressed below level N against the full tree


COMPRESSED_PARAMS = {
    "interval": TreeParams(p=1, ell=0.5, omega=1.0),
    "p2": TreeParams(p=2, ell=0.5, omega=0.4),
    "p3_overrides": PARAMS["p3_overrides"],
    "p4": TreeParams(p=4, ell=0.5, omega=0.3, L0=0.8, omega0=1.3),
    "p2_overrides": PARAMS["p2_overrides"],
}
# (level N, source depth): the source tree is condensed at the source depth
# and has depth source depth + 1; source_depth == level is the shallowest
COMPRESSED_DEPTHS = {
    "interval": [(0, 0), (2, 6)],
    "p2": [(0, 3), (2, 2), (3, 7)],
    "p3_overrides": [(2, 2), (2, 4), (3, 4)],
    "p4": [(1, 1), (2, 4)],
    "p2_overrides": [(1, 1), (1, 6), (3, 5)],
}


def _compressed_cases():
    return [(name, N, depth) for name in COMPRESSED_PARAMS for N, depth in COMPRESSED_DEPTHS[name]]


def _expand_rows(tree, arrays):
    return [np.repeat(a, tree.multiplicity(n), axis=0) for n, a in enumerate(arrays)]


def _vertex_values(f):
    """Values at X_{n,k} (far vertex of each edge), per generation."""
    return [f.end_values(n) for n in range(f.tree.depth + 1)]


def _generation_rows(tree, rows):
    """The function with coefficient row rows[n] on every edge of generation
    n of a compressed tree, as _tree_forcing builds it: zero-stride rows up
    to the level, then the tail generations as one zero-stride block."""
    level, width = tree.level, rows.shape[1]
    top = [np.broadcast_to(r, (k, width)) for r, k in zip(rows[: level + 1], tree.rows)]
    tail = np.broadcast_to(rows[level + 1 :, None], (tree.depth - level, tree.rows[-1], width))
    return ca.TreeFunction(tree, top, tail)


def _assert_bits(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and np.array_equal(g, r)


@pytest.mark.parametrize("name,N,depth", _compressed_cases())
@pytest.mark.parametrize("complex_", [False, True])
def test_compressed_tree_solves_match_the_full_tree_bit_for_bit(name, N, depth, complex_):
    params = COMPRESSED_PARAMS[name]
    tree = build_condensed(params, depth, level=N)
    full = build_condensed(params, depth)
    p = params.p
    assert tree.rows == tuple(p ** min(n, N) for n in range(depth + 2))
    assert expanded_tree(tree).rows == full.rows
    _assert_bits(_expand_rows(tree, tree.lengths), full.lengths)
    _assert_bits(_expand_rows(tree, root_distances(tree)), root_distances(full))

    # the elimination: conductances and pivots
    c, pivot = tree.elimination
    c_full, pivot_full = full.elimination
    _assert_bits(_expand_rows(tree, c), c_full)
    _assert_bits(_expand_rows(tree, pivot), pivot_full)

    rng = np.random.default_rng(depth + 10 * N + len(name))
    # the harmonic part: leaf data constant per level-N cell
    g = rng.standard_normal(p**N)
    if complex_:
        g = g + 1j * rng.standard_normal(g.size)
    u = ca.solve_harmonic_dirichlet(tree, g)
    u_full = ca.solve_harmonic_dirichlet(full, np.repeat(g, full.n_leaves // g.size))
    _assert_bits(expanded(u).coeffs, u_full.coeffs)
    _assert_bits(_expand_rows(tree, _vertex_values(u)), _vertex_values(u_full))
    _assert_bits([np.repeat(ca.leaf_flux(u), tree.multiplicity(tree.depth))], [ca.leaf_flux(u_full)])
    _assert_bits(_expand_rows(tree, kirchhoff_residual(u).values),
                 kirchhoff_residual(u_full).values)
    # totals and pairings count each row once per edge it stands for
    assert total_measure(tree) == pytest.approx(total_measure(full), rel=1e-14)
    assert l2_inner(u, u) == pytest.approx(l2_inner(u_full, u_full), rel=1e-13)

    # the Poisson lift: forcing constant per generation, as zero-stride rows;
    # u (root value 0) pairs with it in the Green identity
    for degree in (0, 2):
        rows = rng.standard_normal((depth + 2, degree + 1))
        if complex_:
            rows = rows + 1j * rng.standard_normal(rows.shape)
        source = _generation_rows(tree, rows)
        source_full = ca.TreeFunction(full, [np.tile(r, (p**n, 1)) for n, r in enumerate(rows)])
        u_f = ca.solve_poisson_zero_trace(tree, source)
        u_f_full = ca.solve_poisson_zero_trace(full, source_full)
        _assert_bits(expanded(u_f).coeffs, u_f_full.coeffs)
        _assert_bits([np.repeat(u_f.leaf_values(), tree.multiplicity(tree.depth))],
                     [u_f_full.leaf_values()])
        green = ca.green_identity_check(u_f, u)
        assert green.scale == pytest.approx(ca.green_identity_check(u_f_full, u_full).scale, rel=1e-13)
        assert green.relative <= 1e-12
        # a cell's flux is its row's flux times the leaf edges under it
        cell = transmission._cell_flux(u_f)
        summed = ca.leaf_flux(u_f_full).reshape(p**N, -1).sum(axis=1)
        assert _rel(cell, summed) <= 1e-14


@pytest.mark.parametrize("name", ["interval", "p2", "p3_overrides", "p4"])
@pytest.mark.parametrize("extra", [10, 40, 200])
def test_harmonic_cell_flux_is_exact_deep_below_the_level(name, extra):
    # every row below the level is a chain ending in one leaf value, so its
    # vertex values crowd that value; the cell flux still matches D_N g
    params = COMPRESSED_PARAMS[name]
    N = max(params.N1, 2)
    rng = np.random.default_rng(extra)
    g = rng.standard_normal(params.p**N) + 1j * rng.standard_normal(params.p**N)
    u = ca.solve_harmonic_dirichlet(build_condensed(params, N + extra, level=N), g)
    op = tree_dtn_operator(build_condensed(params, N, level=N))
    assert _rel(transmission._cell_flux(u), op.apply(g)) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_compressed_tree_matches_on_random_admissible_trees(seed):
    rng = np.random.default_rng(seed)
    params = _random_admissible_params(rng)
    N = params.N1 + int(rng.integers(0, 2))
    depth = N + int(rng.integers(0, 3))
    tree, full = build_condensed(params, depth, level=N), build_condensed(params, depth)
    g = rng.standard_normal(params.p**N) + 1j * rng.standard_normal(params.p**N)
    u = ca.solve_harmonic_dirichlet(tree, g)
    u_full = ca.solve_harmonic_dirichlet(full, np.repeat(g, full.n_leaves // g.size))
    _assert_bits(expanded(u).coeffs, u_full.coeffs)
    rows = rng.standard_normal((depth + 2, 2)) + 1j * rng.standard_normal((depth + 2, 2))
    source = _generation_rows(tree, rows)
    source_full = ca.TreeFunction(full, [np.tile(r, (params.p**n, 1)) for n, r in enumerate(rows)])
    _assert_bits(expanded(ca.solve_poisson_zero_trace(tree, source)).coeffs,
                 ca.solve_poisson_zero_trace(full, source_full).coeffs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), per_row=st.booleans(), data=st.data())
def test_tail_blocks_match_the_expanded_tree(seed, per_row, data):
    # the tail (generations level+1..depth) as one block in the elimination
    # and both solves, against the same solves on the expanded tree: p = 2 or
    # 3, overrides above N1, up to 12 tail generations, and a tail source
    # the same on every row or one per row
    rng = np.random.default_rng(seed)
    params = _random_admissible_params(rng)
    p = params.p
    level = params.N1 + data.draw(st.integers(0, 1), label="level - N1")
    gens = data.draw(st.integers(1, min(12, 14 - level) if p == 2 else 9 - level), label="tail")
    tree = build_condensed(params, level + gens - 1, level=level)
    full = expanded_tree(tree)
    assert tree.depth - tree.level == gens and full.level == full.depth

    for ours, theirs in zip(tree.elimination, full.elimination):
        assert len(ours) == len(theirs)
        for n, (a, b) in enumerate(zip(ours, theirs)):
            assert _rel(np.repeat(a, tree.multiplicity(n)), b) <= 1e-13

    degree = int(rng.integers(0, 3))
    complex_ = bool(rng.integers(0, 2))

    def coeffs(shape):
        c = rng.standard_normal(shape)
        return c + 1j * rng.standard_normal(shape) if complex_ else c

    rows = tree.rows[-1]
    top = [coeffs((tree.rows[n], degree + 1)) for n in range(level + 1)]
    tail = (coeffs((gens, rows, degree + 1)) if per_row
            else np.broadcast_to(coeffs((gens, 1, degree + 1)), (gens, rows, degree + 1)))
    source = ca.TreeFunction(tree, top, tail)
    assert source.tail is tail
    u_f = ca.solve_poisson_zero_trace(tree, source)
    assert u_f.tail.shape == (gens, rows, degree + 3)
    assert _rel_fn(expanded(u_f), ca.solve_poisson_zero_trace(full, expanded(source))) <= 1e-13

    g = coeffs(rows)
    u = ca.solve_harmonic_dirichlet(tree, g)
    u_full = ca.solve_harmonic_dirichlet(full, np.repeat(g, tree.multiplicity(tree.depth)))
    assert _rel_fn(expanded(u), u_full) <= 1e-13


def test_a_compressed_source_gives_its_tail_as_one_block():
    # one array per generation leaves the tail to the caller: the Poisson
    # solve takes a compressed tree's tail generations as one block
    tree = build_condensed(TreeParams(p=2, ell=0.5, omega=0.4), 4, level=2)
    rows = np.ones((tree.depth + 1, 1))
    per_generation = ca.TreeFunction(tree, [np.broadcast_to(r, (k, 1)) for r, k in zip(rows, tree.rows)])
    assert per_generation.tail is None
    with pytest.raises(DepthMismatch, match="one tail block"):
        ca.solve_poisson_zero_trace(tree, per_generation)
    assert ca.solve_poisson_zero_trace(tree, _generation_rows(tree, rows)).tail.shape == (3, 4, 3)


def test_a_deep_tail_holds_one_value_per_generation():
    # p = 2, level 12, depth 40: as arrays over the rows, the lengths,
    # weights, conductances and pivots of the 28 tail generations of 4,096
    # rows would hold 3.7 MB
    params = TreeParams(p=2, ell=0.5, omega=0.4)
    assert build_condensed(params, 4, level=2).elimination
    tracemalloc.start()
    try:
        tree = build_condensed(params, 39, level=12)
        assert tree.elimination
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.depth == 40 and tree.rows[-1] == 2**12
    assert peak <= 2**19, peak


def test_compression_needs_a_geometric_level():
    params = COMPRESSED_PARAMS["p3_overrides"]
    with pytest.raises(CondensationBelowGeometricGeneration):
        build_condensed(params, 4, level=1)
    with pytest.raises(CondensationBelowGeometricGeneration):
        build_condensed(params, 4, level=5)
    assert build_condensed(params, 4, level=4).rows[-2:] == (81, 81)
