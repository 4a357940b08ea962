import dataclasses
import functools
import math

import numpy as np
import pytest

from treedisk import calculus, circle, dtn, transmission
from treedisk import tree as tree_module
from treedisk.calculus import TreeFunction
from treedisk.circle import FourierFn, MultiscaleDecomposition, PiecewiseConstantFn
from treedisk.errors import (
    Alpha1Zero,
    DepthBelowChartLevel,
    DepthMismatch,
    InsufficientLevels,
    SingularInterfaceOperator,
)
from treedisk.exterior import RadialSource
from treedisk.transmission import (
    TransmissionConfig,
    assemble_system,
    convergence_study,
    plasmonic_pencil,
    reconstruct,
    root_bump,
    solve_interface,
    solve_transmission,
)
from treedisk.tree import TreeParams, build_condensed

REF = TreeParams(p=2, ell=0.5, omega=0.4, L0=1.0, omega0=1.0)


def _ext_source(k=1, amp=1.0):
    terms = [(k, {0: amp})]
    if k != 0:
        terms.append((-k, {0: amp}))
    return RadialSource(R=1.0, r_max=2.0, terms=terms)


def test_zero_sources_give_zero_trace():
    sol = solve_transmission(TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3))
    assert np.abs(sol.g.values).max() == 0.0
    assert sol.trace_defect == 0.0
    assert sol.flux_residual == 0.0


def test_interface_matrix_composition():
    cfg = TransmissionConfig(params=REF, level=3, alpha1=2.0 + 1.0j, alpha0=0.25)
    sy = assemble_system(cfg)
    mu = sy.decomp.cell_measure(3)
    expected = -sy.C + (2.0 + 1.0j) * sy.D + 0.25 * mu * np.eye(8)
    assert np.abs(sy.M - expected).max() < 1e-14
    # D is the condensed tree map: row sums carry the radial flux per cell
    assert np.abs(sy.D.sum(axis=1) - 0.375 / 8).max() < 1e-12


def test_tree_dtn_block_closed_form_at_level_one():
    # one junction below the root edge: each branch collapses to the series
    # admittance Y = omega0*omega*(1-r)/(L0*ell), the root edge to Y0 = 1,
    # giving D = Y I - Y^2/(Y0 + 2Y) J
    sy = assemble_system(TransmissionConfig(params=REF, level=1, alpha1=1.0, alpha0=0.0))
    Y = 0.4 * (1.0 - 0.625) / 0.5
    expected = Y * np.eye(2) - Y**2 / (1.0 + 2.0 * Y) * np.ones((2, 2))
    assert np.abs(sy.D - expected).max() < 1e-13


def test_rhs_superposition():
    base = dict(params=REF, level=3, alpha1=2.0, alpha0=0.5)
    h_ext = assemble_system(TransmissionConfig(**base, exterior_source=_ext_source(2, 0.3))).h
    h_root = assemble_system(TransmissionConfig(**base, c_root=0.8)).h
    h_both = assemble_system(TransmissionConfig(**base, exterior_source=_ext_source(2, 0.3),
                                                c_root=0.8)).h
    assert np.abs(h_ext + h_root - h_both).max() < 1e-12
    h_scaled = assemble_system(TransmissionConfig(**base, c_root=1.6)).h
    assert np.abs(h_scaled - 2.0 * h_root).max() < 1e-12


def test_constant_equilibrium_recovered():
    # alpha0 = 0 with only a root value c: u_T = c and u_Omega = c solve the
    # problem exactly, so the interface trace must be the constant c
    cfg = TransmissionConfig(params=REF, level=4, alpha1=2.0, alpha0=0.0, c_root=2.5)
    sol = solve_transmission(cfg)
    assert np.abs(sol.g.values - 2.5).max() < 1e-10
    assert sol.flux_residual < 1e-10
    assert sol.u_tree.root_value == pytest.approx(2.5, abs=1e-10)


def test_lift_choice_does_not_change_the_trace():
    # replacing the quadratic root bump by a cubic one with the same root
    # value and vanishing boundary data must leave h and g unchanged
    cfg_a = TransmissionConfig(params=REF, level=3, alpha1=1.5, alpha0=0.4, c_root=1.0)
    sy_a = assemble_system(cfg_a)
    cubic = np.zeros((cfg_a.source_depth + 2, 2))
    l0 = REF.L0
    # -Lap((1 - t/l0)^3) = -6/l0^2 + 6 t/l0^3
    cubic[0] = [-6.0 / l0**2, 6.0 / l0**3]
    cfg_b = TransmissionConfig(params=REF, level=3, alpha1=1.5, alpha0=0.4,
                               tree_source=cubic, source_depth=cfg_a.source_depth)
    sy_b = assemble_system(cfg_b)
    assert np.abs(sy_a.h - sy_b.h).max() < 1e-12
    g_a = solve_interface(sy_a)
    g_b = solve_interface(sy_b)
    assert np.abs(g_a.values - g_b.values).max() < 1e-12


def test_root_bump_properties():
    tree = build_condensed(REF, 4)
    u1 = root_bump(tree)
    assert u1.root_value == 1.0
    assert np.abs(u1.leaf_values()).max() == 0.0
    from treedisk.calculus import leaf_flux

    assert np.abs(leaf_flux(u1)).max() == 0.0


def test_flux_residual_within_discretization_defect():
    cfg = TransmissionConfig(params=REF, level=3, alpha1=2.0, alpha0=0.5, c_root=1.5,
                             exterior_source=_ext_source(1))
    cfg.tree_source = np.full((cfg.source_depth + 2, 1), 0.7)
    sol = solve_transmission(cfg)
    assert sol.trace_defect <= 1e-10
    assert sol.flux_residual <= sol.discretization_defect + 1e-10
    assert sol.u_tree.root_value == pytest.approx(1.5, abs=1e-10)


@pytest.mark.parametrize("R", [0.5, 2.0])
def test_interface_radius_away_from_one_at_high_mode_cutoff(R):
    # the exterior modes run up to 16 * 2^7 = 2048, where R^{|k|} over- or
    # underflows a float; the mode coefficients must stay of the data's size
    source = RadialSource(R=R, r_max=2.0 * R, terms=[(1, {0: 1.0}), (-1, {0: 1.0})])
    cfg = TransmissionConfig(params=REF, level=7, alpha1=1.0, alpha0=0.3, exterior_source=source, R=R)
    sol = solve_transmission(cfg)
    assert sol.trace_defect <= 1e-10
    assert sol.flux_residual <= sol.discretization_defect + 1e-10


def test_case_ii_purely_imaginary_coupling_solves():
    cfg = TransmissionConfig(params=REF, level=4, alpha1=1j, alpha0=0.0,
                             exterior_source=_ext_source(2, 0.4))
    sol = solve_transmission(cfg)
    assert sol.meta["solvability"] == {"case_i": False, "case_ii": True}
    assert sol.flux_residual < 1e-10
    assert np.isfinite(sol.condition_estimate)


def _hermitian_min_eig(m):
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def test_hermitian_part_positive_for_case_i_data():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a1 = rng.uniform(0.2, 3.0) + 1j * rng.uniform(0.0, 2.0)
        a0 = rng.uniform(0.0, 2.0, size=16)
        sy = assemble_system(TransmissionConfig(params=REF, level=4, alpha1=a1, alpha0=a0))
        assert sy.config.solvability()["case_i"]
        assert _hermitian_min_eig(sy.M) > 0.0


def test_manufactured_smooth_datum_converges():
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3)
    gstar = FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5})
    st = convergence_study(cfg, [3, 4, 5, 6, 7], manufactured=gstar)
    assert st.rho_hat > 0.3
    assert all(b < a for a, b in zip(st.err_h12, st.err_h12[1:]))
    assert all(b < a for a, b in zip(st.err_l2, st.err_l2[1:]))
    assert len(st.rate_running) == len(st.levels)
    assert st.dof == [8, 16, 32, 64, 128]
    assert st.reference == "manufactured"
    assert st.rho_admissible_max == pytest.approx((1 - 2 * REF.sigma) / 2, abs=1e-12)


def test_piecewise_constant_datum_recovered_exactly():
    # a datum already in V_3 is resolved by every level >= 3
    dec = MultiscaleDecomposition(R=1.0, p=2, n_max=10)
    rng = np.random.default_rng(7)
    v3 = PiecewiseConstantFn(dec, 3, rng.normal(size=8))
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3)
    st = convergence_study(cfg, [3, 4, 5, 6], manufactured=v3)
    assert max(st.err_h12) < 1e-9
    assert max(st.err_l2) < 1e-9


def test_self_reference_study_with_exterior_source():
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3,
                             exterior_source=_ext_source(1))
    st = convergence_study(cfg, [3, 4, 5, 6], manufactured=None)
    assert st.reference == "finest level"
    assert st.err_h12[-1] == 0.0
    assert all(b < a for a, b in zip(st.err_h12[:-1], st.err_h12[1:-1]))
    assert st.rho_hat > 0.3
    assert len(st.rate_running) == len(st.levels)
    assert math.isnan(st.rate_running[-1])


def test_study_needs_enough_levels():
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3)
    gstar = FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5})
    with pytest.raises(InsufficientLevels):
        convergence_study(cfg, [3], manufactured=gstar)
    with pytest.raises(InsufficientLevels):
        convergence_study(cfg, [3, 4], manufactured=None)


def test_pencil_level_one_closed_form():
    # both matrices diagonalize on [1,1], [1,-1]; the nonzero eigenvalue is
    # (C00-C01)/(D00-D01) with C00-C01 = -(8/pi) sum_{odd k<=31} 1/k at the
    # default cutoff M=32 and D00-D01 = Y = 0.3
    sy = assemble_system(TransmissionConfig(params=REF, level=1, alpha1=1.0, alpha0=0.0))
    evs = plasmonic_pencil(sy.C, sy.D, 2)
    harmonic = sum(1.0 / k for k in range(1, 32, 2))
    expected = -(8.0 / math.pi) * harmonic / 0.3
    assert abs(evs[0]) < 1e-12
    assert evs[1].real == pytest.approx(expected, rel=1e-12)
    assert abs(evs[1].imag) < 1e-12


def test_pencil_structure_across_levels():
    leading = []
    for n in [2, 3, 4, 5]:
        sy = assemble_system(TransmissionConfig(params=REF, level=n, alpha1=1.0, alpha0=0.0))
        evs = plasmonic_pencil(sy.C, sy.D, count=2**n)
        assert abs(evs[0]) < 1e-10
        ones = np.ones(2**n)
        assert np.abs(sy.C @ ones).max() < 1e-10
        for z in evs[1:]:
            assert abs(z.imag) <= 1e-8
            assert z.real < 0.0
        leading.append(evs[1].real)
    # the leading nonzero eigenvalue converges geometrically at ratio 1/2
    diffs = [abs(a - b) for a, b in zip(leading, leading[1:])]
    ratios = [d2 / d1 for d1, d2 in zip(diffs, diffs[1:])]
    for q in ratios:
        assert q == pytest.approx(0.5, abs=0.15)


def test_pencil_scales_inversely_with_tree_weight():
    scaled = dataclasses.replace(REF, omega0=3.0)
    sy1 = assemble_system(TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.0))
    sy3 = assemble_system(TransmissionConfig(params=scaled, level=3, alpha1=1.0, alpha0=0.0))
    ev1 = plasmonic_pencil(sy1.C, sy1.D, 8)
    ev3 = plasmonic_pencil(sy3.C, sy3.D, 8)
    for a, b in zip(ev1[1:], ev3[1:]):
        assert b.real == pytest.approx(a.real / 3.0, rel=1e-10)


def test_singular_at_pencil_eigenvalue():
    sy = assemble_system(TransmissionConfig(params=REF, level=4, alpha1=1.0, alpha0=0.0))
    lam = plasmonic_pencil(sy.C, sy.D, 3)[1]
    bad = assemble_system(TransmissionConfig(params=REF, level=4, alpha1=lam, alpha0=0.0,
                                             exterior_source=_ext_source(1)))
    with pytest.raises(SingularInterfaceOperator):
        solve_interface(bad)


def test_pencil_shape_mismatch_rejected():
    sy3 = assemble_system(TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.0))
    sy2 = assemble_system(TransmissionConfig(params=REF, level=2, alpha1=1.0, alpha0=0.0))
    with pytest.raises(ValueError):
        plasmonic_pencil(sy3.C, sy2.D)


def test_config_validation():
    with pytest.raises(Alpha1Zero):
        TransmissionConfig(params=REF, level=3, alpha1=0.0, alpha0=0.3)
    bumpy = dataclasses.replace(REF, N1=2, length_overrides={(0, 0): 0.9})
    with pytest.raises(DepthBelowChartLevel):
        TransmissionConfig(params=bumpy, level=1, alpha1=1.0)
    with pytest.raises(DepthBelowChartLevel):
        TransmissionConfig(params=REF, level=4, alpha1=1.0, source_depth=3)
    with pytest.raises(ValueError):
        TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=np.ones(5)).alpha0_cells()


def test_tree_source_on_wrong_tree_rejected():
    # the source needs one row for each of the 8 generations of the
    # condensed tree at source_depth 6: rows for a shallower or a deeper
    # tree, one value per generation without a coefficient axis, and no
    # coefficients at all are refused
    for rows in [np.ones((6, 1)), np.ones((9, 1)), np.ones(8), np.ones((8, 0)),
                 np.ones((8, 1, 1))]:
        cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3,
                                 tree_source=rows, source_depth=6)
        with pytest.raises(DepthMismatch):
            assemble_system(cfg)


def test_reconstruct_matches_band_limited_exterior_trace():
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3,
                             exterior_source=_ext_source(1))
    sy = assemble_system(cfg)
    g = solve_interface(sy)
    sol = reconstruct(sy, g)
    assert sol.trace_defect <= 1e-10
    assert sol.condition_estimate == sy.condition_estimate
    r = np.linspace(1.0, 3.0, 7)
    vals = sol.u_ext.eval(r, np.zeros_like(r))
    assert np.all(np.isfinite(vals))


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_reconstruct_reuses_the_assembled_source_lifts(monkeypatch):
    calls = _count_calls(monkeypatch, transmission, "solve_poisson_zero_trace")
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3, c_root=0.5,
                             exterior_source=_ext_source(2))
    solve_transmission(cfg)
    assert len(calls) == 1


def _record_trees(monkeypatch):
    """(stage, depth, leaf rows) of every tree built through the modules' bindings or eliminated."""
    trees = []

    def recorded(stage, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tree = result if stage == "built" else args[0]
            trees.append((stage, tree.depth, tree.n_leaves))
            return result
        return wrapper

    builders = {name: getattr(tree_module, name) for name in ("build_condensed", "build_truncated")}
    for module in (transmission, tree_module, dtn, calculus):
        for name, fn in builders.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded("built", fn))
    eliminated = functools.cached_property(recorded("eliminated", tree_module.FiniteTree.elimination.func))
    eliminated.__set_name__(tree_module.FiniteTree, "elimination")
    monkeypatch.setattr(tree_module.FiniteTree, "elimination", eliminated)
    return trees


def _leaves_stretched(tree):
    """Whether the leaf edges are those of a condensed tree: ell_{depth} / (1 - r)."""
    return bool(np.all(tree.lengths[tree.depth] == REF.L0 * REF.ell**tree.depth / (1.0 - REF.r)))


@pytest.mark.parametrize("tree_source", [False, True])
def test_no_full_source_tree_per_solve(monkeypatch, tree_source):
    # the source tree of depth source_depth + 1 is built and eliminated
    # once, compressed to one row per cell below the level; the Poisson
    # lift and the harmonic solve of reconstruct share its elimination
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3, c_root=0.5,
                             exterior_source=_ext_source(2))
    if tree_source:
        cfg.tree_source = np.full((cfg.source_depth + 2, 1), 0.7)
    trees = _record_trees(monkeypatch)
    solve_transmission(cfg)
    deep = [t for t in trees if t[1] == cfg.source_depth + 1]
    assert deep == [("built", cfg.source_depth + 1, 2**3), ("eliminated", cfg.source_depth + 1, 2**3)]
    # D_N is eliminated on the condensed tree compressed at level N, so no
    # tree of the solve stores more than p^N rows in a generation
    assert max(rows for _, _, rows in trees) == 2**3


def test_each_solve_builds_one_compressed_source_tree(monkeypatch):
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3, c_root=0.5)
    builds = _count_calls(monkeypatch, transmission, "build_condensed")
    sol = solve_transmission(cfg)
    assert len(builds) == 1
    assert sol.u_rows.tree.rows == (1, 2, 4) + (8,) * 6
    assert sol.u_tree.tree.depth == cfg.source_depth + 1 and _leaves_stretched(sol.u_tree.tree)
    assert sol.u_tree.tree.rows == tuple(2**n for n in range(cfg.source_depth + 2))
    # a tree source is rows of coefficients, not a tree: the solve builds its own
    cfg.tree_source = np.full((cfg.source_depth + 2, 1), 0.7)
    sol = solve_transmission(cfg)
    assert len(builds) == 2
    assert sol.u_rows.tree.n_leaves == 8


@pytest.mark.parametrize("source", ["none", "ring", "wide ring"])
def test_reconstruct_splits_the_modes_once(monkeypatch, source):
    # g's modes and both cell integrals share one split of the 16 p^N
    # modes; an exterior source mode beyond them needs a split of its own
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3, c_root=0.5)
    if source == "ring":
        cfg.exterior_source = _ext_source(2)
    elif source == "wide ring":
        cfg.exterior_source = _ext_source(200)
    sy = assemble_system(cfg)
    g = solve_interface(sy)
    expected = reconstruct(sy, g)
    sizes = []
    original = circle._mode_split

    def counted(ks, pn):
        sizes.append(ks.size)
        return original(ks, pn)

    monkeypatch.setattr(circle, "_mode_split", counted)
    sol = reconstruct(sy, g)
    expected_sizes = [2 * 16 * 8 + 1]
    if source == "wide ring":
        # the exterior flux carries modes up to 200
        expected_sizes.append(2 * 200 + 1)
    assert sizes == expected_sizes
    assert sol.flux_residual == expected.flux_residual
    assert sol.discretization_defect == expected.discretization_defect


def test_manufactured_study_solves_no_source_lift(monkeypatch):
    # the manufactured rhs replaces h, so the root value c_root must not
    # cost a Poisson solve per level nor change an error
    gstar = FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5})
    plain = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3)
    expected = convergence_study(plain, [3, 4, 5], manufactured=gstar)
    solves = _count_calls(monkeypatch, transmission, "solve_poisson_zero_trace")
    st = convergence_study(dataclasses.replace(plain, c_root=1.5), [3, 4, 5], manufactured=gstar)
    assert len(solves) == 0
    assert st.err_h12 == expected.err_h12
    assert st.err_l2 == expected.err_l2


def _source_depth_builds(monkeypatch, cfg):
    builds = []
    original = transmission.build_condensed

    def counted(params, N, **kwargs):
        if N == cfg.source_depth:
            builds.append(N)
        return original(params, N, **kwargs)

    monkeypatch.setattr(transmission, "build_condensed", counted)
    return builds


def test_source_tree_is_built_only_when_read(monkeypatch):
    # no tree forcing: assembly reads only C and D, reconstruct needs the tree
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3,
                             exterior_source=_ext_source(2))
    builds = _source_depth_builds(monkeypatch, cfg)
    sy = assemble_system(cfg)
    assert builds == []
    assert sy.u_f is None and not sy.flux_f.any()
    sol = reconstruct(sy, solve_interface(sy))
    assert len(builds) == 1
    assert sol.u_tree.tree.depth == cfg.source_depth + 1 and _leaves_stretched(sol.u_tree.tree)
    assert sol.trace_defect <= 1e-10
    assert sol.flux_residual <= sol.discretization_defect + 1e-10


def test_reconstruct_refuses_a_nan_trace():
    # a NaN trace compares false against every bound; the check must not pass it
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3, c_root=0.5,
                             exterior_source=_ext_source(2))
    sy = assemble_system(cfg)
    g = PiecewiseConstantFn(sy.decomp, cfg.level, np.full(2**cfg.level, np.nan))
    with pytest.raises(AssertionError, match="traces disagree"):
        reconstruct(sy, g)


def _padded(f):
    q = max(c.shape[1] for c in f.coeffs)
    return [np.pad(c, ((0, 0), (0, q - c.shape[1]))) for c in f.coeffs]


def _assert_same_function(got, expected):
    for a, b in zip(_padded(got), _padded(expected)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("with_source", [False, True])
def test_tree_forcing_matches_full_tree_formula(with_source):
    cfg = TransmissionConfig(params=REF, level=2, alpha1=1.0, c_root=0.8 - 0.3j)
    full = build_condensed(REF, cfg.source_depth)
    tree = build_condensed(REF, cfg.source_depth, level=cfg.level)
    if with_source:
        rng = np.random.default_rng(5)
        cfg.tree_source = rng.standard_normal((full.depth + 1, 3))
        f = TreeFunction(full, [np.tile(row, (2**n, 1)) for n, row in enumerate(cfg.tree_source)])
    else:
        f = calculus.constant_function(full, 0.0)
    lap_u1 = calculus.constant_function(full, 0.0)
    lap_u1.coeffs[0] = np.array([[2.0 / full.lengths[0][0] ** 2]])
    expected = f - lap_u1 * complex(cfg.c_root)
    _assert_same_function(transmission._tree_forcing(cfg, tree).expanded(), expected)
    # without c_root the generations are views of the tree source's rows
    cfg.c_root = 0.0
    forcing = transmission._tree_forcing(cfg, tree)
    if with_source:
        assert all(np.shares_memory(c, cfg.tree_source) for c in forcing.coeffs)
    else:
        assert forcing is None


def test_reconstruct_adds_the_root_bump_on_the_root_edge():
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.5, alpha0=0.3, c_root=-0.7 + 0.2j,
                             exterior_source=_ext_source(1))
    sy = assemble_system(cfg)
    sol = reconstruct(sy, solve_interface(sy))
    tree = sy.u_f.tree.expanded()
    refined = np.repeat(sol.g.values, 2 ** (tree.depth - cfg.level))
    u = transmission.solve_harmonic_dirichlet(tree, refined, root_value=0.0)
    expected = u + root_bump(tree) * complex(cfg.c_root) + sy.u_f.expanded()
    _assert_same_function(sol.u_tree, expected)


def _tree_source_config(c_root):
    return TransmissionConfig(params=REF, level=3, alpha1=1.2, alpha0=0.4, c_root=c_root,
                              tree_source=np.full((9, 1), 0.6 - 0.25j),
                              exterior_source=_ext_source(2, 0.3))


@pytest.mark.parametrize("c_root", [0.0, -0.45])
def test_repeated_solves_are_bit_identical(c_root):
    # the solve must not write into the tree source it is handed
    cfg = _tree_source_config(c_root)
    before = cfg.tree_source.copy()
    first, second = solve_transmission(cfg), solve_transmission(cfg)
    assert np.array_equal(first.g.values, second.g.values)
    for a, b in zip(first.u_tree.coeffs, second.u_tree.coeffs):
        assert np.array_equal(a, b)
    assert np.array_equal(cfg.tree_source, before)


@pytest.mark.parametrize("with_source", [False, True])
@pytest.mark.parametrize("c_root", [0.0, 0.8 - 0.3j])
def test_reconstructed_tree_solution_matches_sum_of_lifts(with_source, c_root):
    cfg = _tree_source_config(c_root)
    if not with_source:
        cfg.tree_source = None
    sy = assemble_system(cfg)
    sol = reconstruct(sy, solve_interface(sy))
    tree = sol.u_tree.tree
    refined = np.repeat(sol.g.values, 2 ** (tree.depth - cfg.level))
    expected = transmission.solve_harmonic_dirichlet(tree, refined, root_value=0.0)
    expected = expected + root_bump(tree) * complex(cfg.c_root)
    if sy.u_f is not None:
        expected = expected + sy.u_f.expanded()
    diff = expected - sol.u_tree
    scale = max(float(np.abs(c).max()) for c in expected.coeffs)
    assert max(float(np.abs(c).max()) for c in diff.coeffs) <= 1e-15 * scale
