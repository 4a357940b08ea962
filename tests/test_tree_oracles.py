"""Tree elimination kernel against the sparse graph-Laplacian solves.

The functions below assemble the clamped weighted graph Laplacian as a
scipy CSR matrix, split it into interior and leaf blocks and factor the
interior block with splu: the construction the elimination kernel replaced,
kept here as the oracle only.  sparse_poisson also keeps the particular
parts of the old Poisson solve, double antiderivative arrays built with
_poly_antider, where the kernel evaluates them in closed form.  The
level-N builder tree_dtn is checked against the level-(N+1) condensed
matrix summed down with compress.
"""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from treedisk import calculus as ca
from treedisk.acceptance import _random_admissible_params
from treedisk.dtn import compress, condensed_dtn, tree_dtn, truncated_dtn
from treedisk.tree import TreeParams, build_condensed, build_truncated

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
    build = build_condensed if kind == "condensed" else build_truncated
    return build(PARAMS[name], depth)


# ---------------------------------------------------------------------------
# sparse oracle


def sparse_system(tree):
    """Clamped graph Laplacian over all vertices X_{n,k} (root clamped out), CSR."""
    p = tree.p
    offsets = ca._vertex_offsets(tree)
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


def sparse_harmonic(tree, leaf_values, root_value):
    fac = sparse_system(tree)
    dtype = np.result_type(leaf_values.dtype, type(root_value), float)
    u_int = np.zeros(0, dtype=dtype)
    if fac["lu"] is not None:
        b = -(fac["Q_ib"] @ leaf_values).astype(dtype)
        b[0] += (tree.weights[0][0] / tree.lengths[0][0]) * root_value
        u_int = _solve(fac["lu"], b)
    offsets = fac["offsets"]
    values = [u_int[offsets[n] : offsets[n + 1]] for n in range(tree.depth)]
    return ca.from_vertex_values(tree, root_value, values + [leaf_values.astype(dtype)])


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
        c = ca._pad(w_parts[n].astype(dtype), max(w_parts[n].shape[1], 2))
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
        diff = max(diff, float(np.abs(ca._pad(g, q) - ca._pad(r, q)).max()))
    return diff / max(scale, 1e-300)


def _random_source(tree, rng, degree, complex_=True):
    def gen(n):
        c = rng.standard_normal((tree.p**n, degree + 1))
        return c + 1j * rng.standard_normal(c.shape) if complex_ else c
    return ca.TreeFunction(tree, [gen(n) for n in range(tree.depth + 1)])


def _check_tree(tree, rng):
    leaves = rng.standard_normal(tree.n_leaves) + 1j * rng.standard_normal(tree.n_leaves)
    root = complex(rng.standard_normal(), rng.standard_normal())
    assert _rel_fn(ca.solve_harmonic_dirichlet(tree, leaves, root), sparse_harmonic(tree, leaves, root)) <= 1e-12
    real = rng.standard_normal(tree.n_leaves)
    assert _rel_fn(ca.solve_harmonic_dirichlet(tree, real, 0.0), sparse_harmonic(tree, real, 0.0)) <= 1e-12
    source = _random_source(tree, rng, degree=2)
    assert _rel_fn(ca.solve_poisson_zero_trace(tree, source), sparse_poisson(tree, source)) <= 1e-12


@pytest.mark.parametrize("name,kind,depth", CASES)
def test_dtn_matches_sparse_schur_complement(name, kind, depth):
    if kind == "condensed":
        op = condensed_dtn(PARAMS[name], depth)
    else:
        op = truncated_dtn(PARAMS[name], depth)
    assert _rel(op.matrix, sparse_schur(_tree(name, kind, depth))) <= 1e-12


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
    for op, tree in checks:
        assert _rel(op.matrix, sparse_schur(tree)) <= 1e-12
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


def _check_level_builder(params, N):
    op = tree_dtn(params, N)
    ref = compress(condensed_dtn(params, N), N)
    assert op.level == ref.level == N
    assert op.matrix.shape == (params.p**N, params.p**N)
    assert _rel(op.matrix, ref.matrix) <= 1e-12


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


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("complex_", [False, True])
def test_child_sums_match_reshape_sum(p, complex_):
    rng = np.random.default_rng(p)
    for parents in (1, 5, 81):
        x = rng.standard_normal(parents * p)
        if complex_:
            x = x + 1j * rng.standard_normal(x.size)
        assert _rel(ca._child_sums(x, p), x.reshape(-1, p).sum(axis=1)) <= 1e-15
