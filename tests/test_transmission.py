import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    bump_lift,
    combined,
    constant_function,
    expanded,
    expanded_tree,
    study_errors,
    to_fourier,
    whole,
)
from treedisk import calculus, dtn, exterior, transmission
from treedisk import tree as tree_module
from treedisk.calculus import TreeFunction
from treedisk.circle import CellModes, FourierFn, MultiscaleDecomposition, PiecewiseConstantFn, sobolev_norms
from treedisk.config import parse_text
from treedisk.errors import (
    Alpha1Zero,
    AssemblyTooLarge,
    DepthBelowChartLevel,
    DepthMismatch,
    InsufficientLevels,
    InvalidInput,
    NumericalCheckFailed,
    SingularInterfaceOperator,
    StructuralConditionViolated,
)
from treedisk.exterior import RadialSource
from treedisk.transmission import (
    TransmissionConfig,
    assemble_system,
    convergence_study,
    plasmonic_pencil,
    reconstruct,
    reconstruct_tree,
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


@pytest.mark.parametrize("params,level,alpha1,c", [
    (REF, 4, 2.0, 2.5),  # dense
    (REF, 7, 2.0, 2.5),  # GMRES
    (TreeParams(p=3, ell=0.4, omega=0.3), 3, 1.0 + 0.5j, 2.5 - 1.0j),  # dense, complex
])
def test_constant_equilibrium_recovered(params, level, alpha1, c):
    # alpha0 = 0 with only a root value c: u_T = c and u_Omega = c solve the
    # problem exactly, so the interface trace must be the constant c
    cfg = TransmissionConfig(params=params, level=level, alpha1=alpha1, alpha0=0.0, c_root=c)
    sol = solve_transmission(cfg)
    assert np.abs(sol.g.values - c).max() < 1e-10
    assert sol.flux_residual < 1e-10
    assert sol.u_rows.root_value == pytest.approx(c, abs=1e-10)


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


def test_flux_residual_within_discretization_defect():
    cfg = TransmissionConfig(params=REF, level=3, alpha1=2.0, alpha0=0.5, c_root=1.5,
                             exterior_source=_ext_source(1))
    cfg = dataclasses.replace(cfg, tree_source=np.full((cfg.source_depth + 2, 1), 0.7))
    sol = solve_transmission(cfg)
    assert sol.trace_defect <= 1e-10
    assert sol.flux_residual <= sol.discretization_defect + 1e-10
    assert sol.u_rows.root_value == pytest.approx(1.5, abs=1e-10)


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
    assert cfg.solvability() == {"case_i": False, "case_ii": True}
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


def test_a_zero_solution_study_returns():
    # no source and no root datum: g is 0 at every level and so is the
    # reference, so every error sits at the rounding floor and the
    # monotonicity and rate checks are skipped
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.5)
    st = convergence_study(cfg, [3, 4, 5, 6], manufactured=None)
    assert st.err_l2 == st.err_h12 == [0.0] * 4
    assert st.rate_running[1:3] == [0.0, 0.0]


@pytest.mark.parametrize("levels", [[3, 4, 5, 6], [3, 4, 5, 7, 8, 9, 10, 11]])
def test_a_zero_solution_study_fits_a_rate_of_0(levels):
    # every fitted error is floored at 1e-300, so the fit is flat: rho_hat
    # is +0.0, as rate_running reads.  The mean of 7 floored logs is one ulp
    # off them, so logs centred on it over levels whose mean is inexact fit
    # 4.8e-30 (polyfit fitted -5.3e-14 at the first levels)
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.5)
    st = convergence_study(cfg, levels, manufactured=None)
    assert st.rho_hat == 0.0 and math.copysign(1.0, st.rho_hat) == 1.0
    assert st.rate_running[1:-1] == [0.0] * (len(levels) - 2)


def test_a_study_refuses_p_1_before_solving(monkeypatch):
    def solve_interface(system):
        raise AssertionError("level %d solved before the refusal" % system.config.level)

    monkeypatch.setattr(transmission, "solve_interface", solve_interface)
    cfg = TransmissionConfig(params=TreeParams(p=1, ell=0.5, omega=1.0), level=3, alpha1=1.0,
                             alpha0=0.3)
    for manufactured in (None, FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5})):
        with pytest.raises(InvalidInput, match="p >= 2"):
            convergence_study(cfg, [3, 4, 5], manufactured=manufactured)


@pytest.mark.parametrize("levels, manufactured, source_depth", [
    # the source tree of level 22 at depth 26 stores 2^23 - 1 + 5 * 2^22 rows
    ([3, 4, 22], FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5}), None),
    # 2^19 rows in each of 42 generations below level 19 exceed the tree budget
    ([3, 4, 19], None, 60),
], ids=["manufactured", "tree-budget"])
def test_study_checks_the_finest_level_before_solving(monkeypatch, levels, manufactured,
                                                      source_depth):
    def solve_interface(system):
        raise AssertionError("level %d solved before the budget check" % system.config.level)

    monkeypatch.setattr(transmission, "solve_interface", solve_interface)
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3, source_depth=source_depth)
    with pytest.raises(AssemblyTooLarge, match="tree budget"):
        convergence_study(cfg, levels, manufactured=manufactured)


def test_a_study_runs_with_its_modes_beyond_the_mode_budget(monkeypatch):
    # the mode budget bounds what holds every mode at once, not a study: at
    # level 6 the reference cutoff 16 * 2^6 is over a budget of 1000, and
    # every level's modes are formed and summed a block at a time
    monkeypatch.setattr(exterior, "MODE_BUDGET", 1000)
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3,
                             exterior_source=_ext_source(1))
    st = convergence_study(cfg, [3, 4, 5, 6], manufactured=None)
    assert st.err_h12[-1] == 0.0 and all(b < a for a, b in zip(st.err_h12[:-1], st.err_h12[1:-1]))


def _fitted_rate(levels, errors, p):
    slope = np.polynomial.polynomial.polyfit(levels, np.log(np.maximum(errors, 1e-300)), 1)[1]
    return -slope / math.log(p)


@pytest.mark.parametrize("p, datum", [(2, "fourier"), (2, None), (3, "cells"), (3, None)])
def test_study_norms_match_the_whole_array_path(monkeypatch, p, datum):
    # the streamed norms against the whole-array path (oracles.study_errors):
    # every level's g as one array of modes at 16 p^N_max minus the
    # reference's, from the g that the study solved for
    solved = []

    def solve_interface(system):
        solved.append(original(system))
        return solved[-1]

    original = transmission.solve_interface
    monkeypatch.setattr(transmission, "solve_interface", solve_interface)
    params = TreeParams(p=p, ell=0.5 if p == 2 else 0.4, omega=0.4 if p == 2 else 0.3)
    levels = [3, 4, 5, 6] if p == 2 else [2, 3, 4]
    decomp = MultiscaleDecomposition(R=1.0, p=p, n_max=8)
    rng = np.random.default_rng(p)
    manufactured = {"fourier": FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5, 3: 0.2j, -3: -0.2j}),
                    "cells": PiecewiseConstantFn(decomp, 5, rng.standard_normal(p**5)),
                    None: None}[datum]
    cfg = TransmissionConfig(params=params, level=levels[0], alpha1=1.0 + 0.3j, alpha0=0.25,
                             exterior_source=None if datum else _ext_source(1))
    st = convergence_study(cfg, levels, manufactured=manufactured)
    reference = manufactured if datum else solved[-1]
    err_l2, err_h12 = study_errors(solved, reference, 16 * p ** max(levels))
    fit = slice(None) if datum else slice(None, -1)
    assert st.err_l2 == pytest.approx(err_l2, rel=1e-13, abs=0)
    assert st.err_h12 == pytest.approx(err_h12, rel=1e-13, abs=0)
    assert st.rho_hat == pytest.approx(_fitted_rate(levels[fit], err_h12[fit], p), rel=1e-13)


class _Difference:
    """The modes of a - b, two modes objects on one circle, a block at a time."""

    def __init__(self, a, b):
        self.a, self.b, self.R, self.M = a, b, a.R, max(a.M, b.M)

    def block(self, lo, hi):
        return self.a.block(lo, hi) - self.b.block(lo, hi)


@pytest.mark.parametrize("datum", ["fourier", None])
def test_study_walk_has_the_bits_of_each_level_s_norms(monkeypatch, datum):
    # the study walks the modes once, forming each block of the reference's
    # modes once; every level's errors have the bits of circle.sobolev_norms
    # of that level's difference from the reference, summed on its own
    solved = []

    def solve_interface(system):
        solved.append(original(system))
        return solved[-1]

    original = transmission.solve_interface
    monkeypatch.setattr(transmission, "solve_interface", solve_interface)
    levels = [3, 4, 5, 6]
    manufactured = FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5, 3: 0.2j, -3: -0.2j}) if datum else None
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0 + 0.3j, alpha0=0.25,
                             exterior_source=None if datum else _ext_source(1))
    st = convergence_study(cfg, levels, manufactured=manufactured)
    m_ref = 16 * 2**6
    ref = manufactured if datum else CellModes(solved[-1], m_ref)
    norms = [sobolev_norms(_Difference(CellModes(g, m_ref), ref), 0, 0.5) for g in solved]
    if not datum:
        norms[-1] = [0.0, 0.0]
    assert st.err_l2 == [l2 for l2, _ in norms] and st.err_h12 == [h12 for _, h12 in norms]


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


def test_singular_operator_names_the_nearest_pencil_eigenvalue(monkeypatch):
    sy = assemble_system(TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.0))
    lam = plasmonic_pencil(sy.C, sy.D, 3)[1]
    cfg = TransmissionConfig(params=REF, level=3, alpha1=lam, alpha0=0.0,
                             exterior_source=_ext_source(1))
    with pytest.raises(SingularInterfaceOperator) as exc:
        solve_interface(assemble_system(cfg))
    assert str(exc.value).endswith("; nearest pencil eigenvalue %r" % lam)
    # past the dense budget the pencil is skipped and the solve still
    # raises: 128 cells take the GMRES path, and at the real budget its
    # message names the eigenvalue too
    sy = assemble_system(TransmissionConfig(params=REF, level=7, alpha1=1.0, alpha0=0.0))
    lam = plasmonic_pencil(sy.C, sy.D, 3)[1]
    cfg = TransmissionConfig(params=REF, level=7, alpha1=lam, alpha0=0.0,
                             exterior_source=_ext_source(1))
    with pytest.raises(SingularInterfaceOperator) as exc:
        solve_interface(assemble_system(cfg))
    assert str(exc.value).endswith("; nearest pencil eigenvalue %r" % lam)
    monkeypatch.setattr(dtn, "DENSE_CELL_BUDGET", 64)
    with pytest.raises(SingularInterfaceOperator) as exc:
        solve_interface(assemble_system(cfg))
    assert "pencil" not in str(exc.value)


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


# the wrong tree_source shapes are those of test_tree_source_on_wrong_tree_rejected
@pytest.mark.parametrize("fields, error, message", [
    ({"alpha0": np.ones(5)}, InvalidInput, "alpha0 needs 1 or 8 values, got 5"),
    ({"tree_source": np.ones((6, 1)), "source_depth": 6}, DepthMismatch, r"got \(6, 1\)"),
    ({"tree_source": np.ones((9, 1)), "source_depth": 6}, DepthMismatch, r"got \(9, 1\)"),
    ({"tree_source": np.ones(8), "source_depth": 6}, DepthMismatch, r"got \(8,\)"),
    ({"tree_source": np.ones((8, 0)), "source_depth": 6}, DepthMismatch, r"got \(8, 0\)"),
    ({"tree_source": np.ones((8, 1, 1)), "source_depth": 6}, DepthMismatch, r"got \(8, 1, 1\)"),
    # the modes are formed per block, so the tree bounds the level: at level
    # 22 the source tree at depth 26 stores 2^23 - 1 + 5 * 2^22 rows
    ({"level": 22}, AssemblyTooLarge, "29360127 stored rows exceed the tree budget"),
    # omega * p = 5 is not below 1 / ell = 2
    ({"params": TreeParams(p=2, ell=0.5, omega=2.5)}, StructuralConditionViolated,
     r"omega\*p < 1/ell fails"),
    # relative to R, as the exterior solve checks the radii
    ({"R": 1e-3, "exterior_source": RadialSource(R=1e-3 * (1 + 1e-10), r_max=2e-3, terms=[(1, {0: 1.0})])},
     ValueError, "must start at the interface radius"),
], ids=["alpha0-length", "tree-source-shallow", "tree-source-deep", "tree-source-1d",
        "tree-source-no-coefficients", "tree-source-3d", "tree-budget", "structural", "source-radius"])
def test_bad_data_refused_before_anything_is_built(monkeypatch, fields, error, message):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for module, name in [(transmission, "dtn_symbol"), (transmission, "tree_dtn_operator"),
                         (transmission, "galerkin_row"), (transmission, "build_condensed"),
                         (tree_module, "build_condensed"), (dtn, "build_condensed")]:
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(error, match=message):
        TransmissionConfig(**{"params": REF, "level": 3, "alpha1": 1.0, **fields})


def test_config_is_frozen_and_replace_checks_again():
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.alpha0 = 0.5
    with pytest.raises(DepthMismatch):
        dataclasses.replace(cfg, tree_source=np.ones((cfg.source_depth + 1, 1)))


# the shape of a benchmark input: the parser makes every coefficient complex,
# here with zero imaginary parts, and the ring source is a real function
REAL_TEXT = """
[tree]
p = 2
ell = 0.5
omega = 0.4
[interface]
N = 5
[transmission]
alpha1 = 1.3
alpha0 = 0.6
c_root = -0.4
source_depth = 9
[source.tree]
constant = 0.5
[source.exterior]
r_max = 1.8
profile.1 = 0.7, -0.2
profile.-1 = 0.7, -0.2
profile.3 = -0.3, 0.9
profile.-3 = -0.3, 0.9
"""


def test_parser_built_config_is_typed_real():
    # the parser returns complex values; the config stores their real parts
    cfg = parse_text(REAL_TEXT).transmission()
    assert cfg.alpha1.dtype == cfg.c_root.dtype == np.float64
    assert cfg.alpha0.dtype == cfg.tree_source.dtype == np.float64
    assert (cfg.alpha1, cfg.c_root, float(cfg.alpha0)) == (1.3, -0.4, 0.6)
    assert np.all(cfg.tree_source == 0.5)


def test_real_data_take_the_real_path():
    sy = assemble_system(parse_text(REAL_TEXT).transmission())
    assert sy.h.dtype == sy.mass.dtype == sy.flux_f.dtype == sy.dtype == np.float64
    g = solve_interface(sy).values
    assert g.dtype == np.float64
    exact = np.linalg.solve(sy.M, -sy.h)
    assert np.abs(g - exact).max() <= 1e-12 * np.abs(exact).max()


def test_real_data_give_real_tree_rows():
    # the parser's complex c_root with a zero imaginary part adds a real
    # root bump, so no generation of u_rows turns complex
    sol = solve_transmission(parse_text(REAL_TEXT).transmission())
    assert [c.dtype for c in sol.u_rows.coeffs] == [np.float64] * len(sol.u_rows.coeffs)
    cfg = dataclasses.replace(parse_text(REAL_TEXT).transmission(), c_root=-0.4 + 0.1j)
    assert solve_transmission(cfg).u_rows.coeffs[0].dtype == np.complex128


def test_tree_source_on_wrong_tree_rejected():
    # the source needs one row for each of the 8 generations of the
    # condensed tree at source_depth 6: rows for a shallower or a deeper
    # tree, one value per generation without a coefficient axis, and no
    # coefficients at all are refused
    for rows in [np.ones((6, 1)), np.ones((9, 1)), np.ones(8), np.ones((8, 0)),
                 np.ones((8, 1, 1))]:
        with pytest.raises(DepthMismatch):
            TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3,
                               tree_source=rows, source_depth=6)


def _reconstruct(system, g):
    """Both steps of the reconstruction, as solve_transmission chains them."""
    return reconstruct(system, g, reconstruct_tree(system, g))


def test_reconstruct_matches_band_limited_exterior_trace():
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3,
                             exterior_source=_ext_source(1))
    sy = assemble_system(cfg)
    g = solve_interface(sy)
    sol = _reconstruct(sy, g)
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


def test_reconstruct_reuses_the_exterior_lift(monkeypatch):
    # the source modes' b_k come from assemble_system's exterior lift, and
    # g's mean is no source mode, so reconstruct integrates nothing
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3, c_root=0.5,
                             exterior_source=_ext_source(2))
    system = assemble_system(cfg)
    g = solve_interface(system)
    integrals = _count_calls(monkeypatch, exterior, "_source_integral")
    sol = _reconstruct(system, g)
    assert not integrals
    monkeypatch.undo()
    fresh = exterior.solve_exterior_dirichlet(to_fourier(g, 16 * 8), cfg.exterior_source)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(whole(sol.u_ext), whole(fresh)))


def test_reconstruct_holds_no_array_over_all_modes():
    # at p = 2, N = 12 the 2 * 16 * 4096 + 1 exterior modes take 2 MiB as one
    # complex array; reconstruct forms them a block at a time, so its traced
    # peak stays below that, tree work included
    cfg = parse_text(REAL_TEXT.replace("N = 5", "N = 12").replace("source_depth = 9",
                                                                 "source_depth = 16")).transmission()
    system = assemble_system(cfg)
    g = solve_interface(system)
    whole = (2 * exterior.MODE_OVERSAMPLING * 2**12 + 1) * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        sol = _reconstruct(system, g)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert sol.trace_defect <= 1e-10 and sol.flux_residual <= sol.discretization_defect + 1e-10
    assert peak < whole, "reconstruct peaked %d bytes above entry" % peak


def test_a_solve_runs_with_its_modes_beyond_the_mode_budget(monkeypatch):
    # the mode budget bounds what holds every mode at once, not a solve: at
    # level 7 the 16 * 2^7 modes are over a budget of 1000, and the solve runs
    monkeypatch.setattr(exterior, "MODE_BUDGET", 1000)
    cfg = TransmissionConfig(params=REF, level=7, alpha1=1.0, alpha0=0.3, c_root=0.5,
                             exterior_source=_ext_source(2))
    sol = solve_transmission(cfg)
    assert sol.u_ext.M == 16 * 2**7
    assert sol.trace_defect <= 1e-10 and sol.flux_residual <= sol.discretization_defect + 1e-10


def test_source_modes_beyond_the_assembly_cutoff_fold_whole():
    # p = 3, N = 2: the assembly cutoff is 16 * 9 = 144 and the source modes
    # 200 and -150 lie beyond it, so the field runs to |k| = 200 and g's
    # modes are zero past 144.  reconstruct folds every block of the field's
    # modes; the flux residual recomputed from whole arrays, with the cell
    # averages exp(i pi k (2K+1) / p^N) sinc(k / p^N) of every mode, agrees.
    # A ring of modes +-4 makes g vary over the cells, so the residual is
    # the discretization defect of the alpha0 mass (about 1e-2), far above
    # its rounding
    params = TreeParams(p=3, ell=0.4, omega=0.3)
    src = RadialSource(R=1.0, r_max=2.0, terms=[(200, {0: 1.0}), (-150, {0: 0.5 - 0.25j}),
                                                (4, {0: 1.0}), (-4, {0: 1.0})])
    cfg = TransmissionConfig(params=params, level=2, alpha1=1.0, alpha0=16.0, c_root=0.3,
                             exterior_source=src)
    system = assemble_system(cfg)
    g = solve_interface(system)
    tree_side = reconstruct_tree(system, g)
    sol = reconstruct(system, g, tree_side)
    assert sol.u_ext.M == 200
    assert sol.trace_defect <= math.ldexp(1e-10, math.frexp(float(np.abs(g.values).max()))[1])

    def cell_integrals(modes):
        k = np.arange(-modes.M, modes.M + 1)
        cells = np.arange(9)[:, None]
        averages = np.exp(1j * np.pi * k * (2 * cells + 1) / 9) * np.sinc(k / 9)
        return averages @ modes.coeffs * g.decomp.cell_measure(2)

    u = sol.u_ext
    flux_ext = cell_integrals(FourierFn(1.0, u.trace1_of(-u.M, *whole(u))))
    mass = 16.0 * cell_integrals(to_fourier(g, 16 * 9))
    flux_tree = transmission._cell_flux(sol.u_rows)
    residual = np.abs(flux_ext - flux_tree - mass).max()
    scale = max(np.abs(flux_ext).max(), np.abs(tree_side.flux_u).max(),
                np.abs(system.flux_f).max(), np.abs(mass).max())
    assert sol.flux_residual == pytest.approx(residual / scale, rel=1e-12, abs=0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_interface_solve_scales_bit_for_bit(dtype):
    # the solve runs on h scaled to unit size by a power of two, so h times
    # 2^k, however far from 1, solves to g times 2^k bit for bit: on the
    # dense path (8 cells) and on the GMRES path (128 cells)
    rng = np.random.default_rng(4)
    alpha1 = 1.0 if dtype is float else 1.0 + 0.5j
    for level in (3, 7):
        system = assemble_system(TransmissionConfig(params=REF, level=level, alpha1=alpha1,
                                                    alpha0=0.3))
        h = rng.standard_normal(2**level).astype(dtype)
        if dtype is complex:
            h += 1j * rng.standard_normal(2**level)
        system.h = h
        g = solve_interface(system).values
        assert g.dtype == np.dtype(dtype)
        for k in (-1000, -300, 300, 1000):
            system.h = h * 2.0**k
            assert np.array_equal(solve_interface(system).values, g * 2.0**k), (level, k)


@functools.cache
def _ring_defects(k: int) -> tuple:
    """(flux residual, discretization defect) of the solve at p = 2, N = 7
    with a ring source of modes +-1 scaled by 2^k."""
    cfg = TransmissionConfig(params=REF, level=7, alpha1=1.0, alpha0=0.25,
                             exterior_source=_ext_source(1, 2.0**k))
    sol = solve_transmission(cfg)
    return sol.flux_residual, sol.discretization_defect


@pytest.mark.parametrize("k", [-332, -664, -996, -1000])
def test_flux_residual_and_defect_do_not_depend_on_the_data_scale(k):
    # the fluxes scale with the sources by 2^k exactly and both numbers are
    # ratios of them, so they keep their bits down to 2^-1000, where the
    # cell fluxes lie far below 1e-300
    assert _ring_defects(k) == _ring_defects(0)


@pytest.mark.parametrize("value, message", [(np.nan, "not finite"), (np.inf, "not finite"),
                                            (1e-310, "subnormal")])
def test_solve_refuses_a_rhs_it_cannot_solve_for(value, message):
    system = assemble_system(TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3))
    system.h = np.zeros(8)
    system.h[3] = value
    with pytest.raises(NumericalCheckFailed, match=message):
        solve_interface(system)


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
    # the source tree of depth source_depth + 1 is the one tree of a solve:
    # built and eliminated once, compressed to one row per cell below the
    # level; D_N, the Poisson lift and the harmonic solve of reconstruct
    # share its elimination
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3, c_root=0.5,
                             exterior_source=_ext_source(2))
    if tree_source:
        cfg = dataclasses.replace(cfg, tree_source=np.full((cfg.source_depth + 2, 1), 0.7))
    trees = _record_trees(monkeypatch)
    sy = assemble_system(cfg)
    _reconstruct(sy, solve_interface(sy))
    depth = cfg.source_depth + 1
    assert trees == [("built", depth, 2**3), ("eliminated", depth, 2**3)]
    assert sy.u_f.tree is sy.tree
    pivot = sy.tree.elimination[1]
    assert all(sy.dtn.pivot[n] is pivot[n] for n in range(cfg.level + 1))


def test_each_solve_builds_one_compressed_source_tree(monkeypatch):
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3, c_root=0.5)
    builds = _count_calls(monkeypatch, transmission, "build_condensed")
    sol = solve_transmission(cfg)
    assert len(builds) == 1
    assert sol.u_rows.tree.rows == (1, 2, 4) + (8,) * 6
    full = expanded_tree(sol.u_rows.tree)
    assert full.depth == cfg.source_depth + 1 and _leaves_stretched(full)
    assert full.rows == tuple(2**n for n in range(cfg.source_depth + 2))
    # a tree source is rows of coefficients, not a tree: the solve builds its own
    cfg = dataclasses.replace(cfg, tree_source=np.full((cfg.source_depth + 2, 1), 0.7))
    sol = solve_transmission(cfg)
    assert len(builds) == 2
    assert sol.u_rows.tree.n_leaves == 8


@pytest.mark.parametrize("extra", [40, 200])
def test_flux_gate_holds_far_below_the_solve_level(extra):
    # a source tree 40 or 200 generations below N = 4, one row per cell:
    # the harmonic leaf fluxes carry no cancellation at any depth
    depth = 4 + extra
    cfg = TransmissionConfig(params=REF, level=4, alpha1=1.0, alpha0=0.3, c_root=1.0,
                             exterior_source=_ext_source(1), source_depth=depth,
                             tree_source=np.full((depth + 2, 1), 0.7))
    sol = solve_transmission(cfg)
    assert sol.flux_residual <= sol.discretization_defect + 1e-10


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


def test_unforced_solve_builds_one_tree_at_assembly(monkeypatch):
    # no tree forcing: assembly builds and eliminates the source tree for
    # D_N alone, and the harmonic solve of reconstruct reuses it
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3,
                             exterior_source=_ext_source(2))
    trees = _record_trees(monkeypatch)
    sy = assemble_system(cfg)
    depth = cfg.source_depth + 1
    one_tree = [("built", depth, 2**3), ("eliminated", depth, 2**3)]
    assert trees == one_tree
    assert sy.u_f is None and not sy.flux_f.any()
    sol = _reconstruct(sy, solve_interface(sy))
    assert trees == one_tree
    assert sol.u_rows.tree is sy.tree
    full = expanded_tree(sol.u_rows.tree)
    assert full.depth == depth and _leaves_stretched(full)
    assert sol.trace_defect <= 1e-10
    assert sol.flux_residual <= sol.discretization_defect + 1e-10


@pytest.mark.parametrize("tree_data", [False, True])
def test_sources_of_any_normal_scale_solve_alike(tree_data):
    # the ring source of r_max 2 on p = 2, N = 7, with or without c_root and
    # a constant tree source, all scaled by s: the traces differ by rounding
    # at the scale of g, and the trace gate is 1e-10 at the scale of max|g|,
    # so every scale from 1e-300 to 1e300 solves to s times the unit datum
    # (an absolute gate refused 1e11 and 1e50..1e300)
    def solve(s):
        ring = RadialSource(R=1.0, r_max=2.0, terms=[(1, {0: s}), (-1, {0: s})])
        cfg = TransmissionConfig(params=REF, level=7, alpha1=1.0, alpha0=0.25, exterior_source=ring)
        if tree_data:
            cfg = dataclasses.replace(cfg, c_root=0.6 * s,
                                      tree_source=np.full((cfg.source_depth + 2, 1), -0.4 * s))
        return solve_transmission(cfg).g.values

    unit = solve(1.0)
    for s in [10.0**j for j in range(-300, 301, 50)] + [1e11]:
        assert np.abs(solve(s) - s * unit).max() <= 1e-12 * s * np.abs(unit).max(), s


def test_reconstruct_refuses_a_nan_trace():
    # a NaN trace compares false against every bound; the check must not pass it
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3, c_root=0.5,
                             exterior_source=_ext_source(2))
    sy = assemble_system(cfg)
    g = PiecewiseConstantFn(sy.decomp, cfg.level, np.full(2**cfg.level, np.nan))
    with pytest.raises(AssertionError, match="traces disagree"):
        _reconstruct(sy, g)


def _padded(f):
    q = max(c.shape[1] for c in f.coeffs)
    return [np.pad(c, ((0, 0), (0, q - c.shape[1]))) for c in f.coeffs]


def _assert_same_function(got, expected):
    for a, b in zip(_padded(got), _padded(expected)):
        assert np.array_equal(a, b)


def _full_forcing(cfg, full):
    """f_T of cfg on the full source tree, one edge at a time."""
    if cfg.tree_source is None:
        return constant_function(full, 0.0)
    return TreeFunction(full, [np.tile(row, (full.p**n, 1)) for n, row in enumerate(cfg.tree_source)])


def _assert_close_function(got, expected, rtol):
    diff = combined((1, expected), (-1, got))
    scale = max(float(np.abs(c).max()) for c in expected.coeffs)
    assert max(float(np.abs(c).max()) for c in diff.coeffs) <= rtol * scale


@pytest.mark.parametrize("with_source", [False, True])
def test_tree_forcing_matches_full_tree_formula(with_source):
    # the root value c enters the lift as its boundary value, not the forcing
    cfg = TransmissionConfig(params=REF, level=2, alpha1=1.0, c_root=0.8 - 0.3j)
    full = build_condensed(REF, cfg.source_depth)
    tree = build_condensed(REF, cfg.source_depth, level=cfg.level)
    if with_source:
        rng = np.random.default_rng(5)
        cfg = dataclasses.replace(cfg, tree_source=rng.standard_normal((full.depth + 1, 3)))
    forcing = transmission._tree_forcing(cfg, tree)
    _assert_same_function(expanded(forcing), _full_forcing(cfg, full))
    # the generations are read-only views of the tree source's rows
    assert not any(c.flags.writeable for c in forcing.coeffs + [forcing.tail])
    if with_source:
        assert all(np.shares_memory(c, cfg.tree_source) for c in forcing.coeffs)


def test_reconstruct_matches_the_root_bump_lift():
    # the lift with root value c against the ansatz c u1 + Poisson(-c Lap u1)
    cfg = TransmissionConfig(params=REF, level=3, alpha1=1.5, alpha0=0.3, c_root=-0.7 + 0.2j,
                             exterior_source=_ext_source(1))
    sy = assemble_system(cfg)
    sol = _reconstruct(sy, solve_interface(sy))
    tree = expanded_tree(sy.u_f.tree)
    refined = np.repeat(sol.g.values, 2 ** (tree.depth - cfg.level))
    u = transmission.solve_harmonic_dirichlet(tree, refined)
    expected = combined((1, u), (1, bump_lift(_full_forcing(cfg, tree), complex(cfg.c_root))))
    _assert_close_function(expanded(sol.u_rows), expected, 1e-15)
    assert sol.u_rows.root_value == cfg.c_root


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
    for a, b in zip(first.u_rows.coeffs, second.u_rows.coeffs):
        assert np.array_equal(a, b)
    assert np.array_equal(cfg.tree_source, before)


@pytest.mark.parametrize("with_source", [False, True])
@pytest.mark.parametrize("c_root", [0.0, 0.8 - 0.3j])
def test_reconstructed_tree_solution_matches_sum_of_lifts(with_source, c_root):
    cfg = _tree_source_config(c_root)
    if not with_source:
        cfg = dataclasses.replace(cfg, tree_source=None)
    sy = assemble_system(cfg)
    sol = _reconstruct(sy, solve_interface(sy))
    tree = expanded_tree(sol.u_rows.tree)
    refined = np.repeat(sol.g.values, 2 ** (tree.depth - cfg.level))
    expected = combined((1, transmission.solve_harmonic_dirichlet(tree, refined)),
                        (1, bump_lift(_full_forcing(cfg, tree), complex(cfg.c_root))))
    _assert_close_function(expanded(sol.u_rows), expected, 1e-15)


# ---------------------------------------------------------------------------
# the Krylov solver alone, on dense operators


def _counted(product, calls):
    def step(v):
        calls.append(v.size)
        return product(v)
    return step


def test_gmres_on_the_identity_takes_one_step():
    b = np.random.default_rng(0).standard_normal(12)
    calls = []
    # a step must return a new array: _gmres orthogonalizes it in place
    x, converged = transmission._gmres(_counted(np.copy, calls), np.copy, b)
    assert converged and len(calls) == 1
    assert np.abs(x - b).max() <= 1e-15 * np.abs(b).max()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_gmres_matches_a_dense_nonsymmetric_solve(dtype):
    rng = np.random.default_rng(3)
    A = 6.0 * np.eye(20) + rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    if dtype is np.complex128:
        A = A + 1j * rng.standard_normal((20, 20))
        b = b + 1j * rng.standard_normal(20)
    # a diagonal right preconditioner P: the steps apply A P^{-1}
    d = rng.uniform(1.0, 3.0, 20)
    x, converged = transmission._gmres(lambda v: A @ (v / d), lambda v: v / d, b)
    exact = np.linalg.solve(A, b)
    assert converged and x.dtype == dtype
    assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()


def test_gmres_reports_a_missed_tolerance(monkeypatch):
    rng = np.random.default_rng(5)
    A = 6.0 * np.eye(20) + rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    calls = []
    monkeypatch.setattr(transmission, "_KRYLOV_MAX_ITER", 3)
    x, converged = transmission._gmres(_counted(lambda v: A @ v, calls), np.copy, b)
    assert not converged and len(calls) == 3
    assert np.linalg.norm(A @ x - b) < np.linalg.norm(b)


def test_gmres_takes_at_most_n_steps():
    rng = np.random.default_rng(8)
    A = 2.0 * np.eye(8) + rng.standard_normal((8, 8))
    b = rng.standard_normal(8)
    calls = []
    # no residual meets a zero tolerance, so only n bounds the steps
    x, _ = transmission._gmres(_counted(lambda v: A @ v, calls), np.copy, b, rtol=0.0)
    exact = np.linalg.solve(A, b)
    assert len(calls) <= 8
    assert np.abs(x - exact).max() <= 1e-10 * np.abs(exact).max()
