"""Parameter validation and finite-tree construction."""

import math

import numpy as np
import pytest

from oracles import root_distances, total_length, total_measure
from treedisk.errors import (
    CondensationBelowGeometricGeneration,
    NonPositiveParameter,
    StructuralConditionViolated,
)
from treedisk.tree import (
    TreeParams,
    build_condensed,
    build_truncated,
    validate_params,
)

REF = TreeParams(p=2, ell=0.5, omega=0.4)


def test_reference_invariants():
    rep = validate_params(REF)
    assert rep.ok
    assert not rep.oracle_only
    assert REF.r == pytest.approx(0.625, abs=0)
    assert REF.sigma == pytest.approx(0.3390359526, abs=1e-9)
    assert rep.min_C == 1.0


def test_sigma_closed_form():
    # sigma = (1 - (log ell - log omega)/log p) / 2
    P = TreeParams(p=3, ell=0.4, omega=0.35)
    assert P.sigma == pytest.approx(0.5 * (1 - math.log(0.4 / 0.35) / math.log(3)))


def test_structural_conditions():
    assert not validate_params(TreeParams(p=2, ell=0.9, omega=0.4)).ok  # omega p < 1/ell fails
    assert not validate_params(TreeParams(p=2, ell=0.5, omega=0.2)).ok  # ell < omega p fails
    rep = validate_params(TreeParams(p=2, ell=0.9, omega=0.9))
    assert any("sigma" in f for f in rep.failures)  # sigma = 1/2 exactly
    with pytest.raises(StructuralConditionViolated):
        build_truncated(TreeParams(p=2, ell=0.5, omega=0.2), 3)


def test_p1_is_oracle_only():
    rep = validate_params(TreeParams(p=1, ell=0.5, omega=1.0))
    assert rep.ok and rep.oracle_only and rep.sigma is None


def test_bad_parameters_raise():
    for kw in [dict(p=0), dict(ell=0.0), dict(omega=-1.0), dict(L0=0.0), dict(omega0=float("nan")), dict(N1=-1)]:
        base = dict(p=2, ell=0.5, omega=0.4)
        base.update(kw)
        with pytest.raises(NonPositiveParameter):
            TreeParams(**base)


def test_truncated_shape_and_distances():
    T = build_truncated(REF, 2)
    assert T.rows == (1, 2, 4)
    assert T.n_leaves == 4
    np.testing.assert_allclose(root_distances(T)[2], 1.75)
    assert total_length(T) == pytest.approx(3.0)  # one edge of each length 1, .5, .25 per branch
    # mu(T_N) = sum (p ell omega)^n -> geometric
    T20 = build_truncated(REF, 20)
    assert total_measure(T20) == pytest.approx((1 - 0.4**21) / 0.6, rel=1e-15)
    assert abs(total_measure(T20) - 1 / 0.6) < 1e-8


def test_condensed_leaf_stretch():
    C = build_condensed(REF, 3)
    assert C.depth == 4
    # leaf edges ell^4 / (1 - r) with r = 5/8
    np.testing.assert_allclose(C.lengths[4], 0.5**4 / (1 - 0.625))
    np.testing.assert_allclose(C.lengths[3], 0.5**3)
    # root-to-leaf distance equals the infinite-tree escape distance L0/(1-r)... no:
    # sum ell^n for n <= 3 plus stretched tail = sum_{n<=3} + ell^4/(1-r)
    d = sum(0.5**n for n in range(4)) + 0.5**4 / 0.375
    np.testing.assert_allclose(root_distances(C)[4], d)


def test_p1_condensed_completes_geodesic():
    P = TreeParams(p=1, ell=0.5, omega=1.0)
    assert total_length(build_truncated(P, 3)) == pytest.approx(1.875)
    # condensing restores the full ray length L0/(1-ell) = 2
    assert total_length(build_condensed(P, 3)) == pytest.approx(2.0)
    assert total_length(build_condensed(P, 7)) == pytest.approx(2.0)


def test_overrides_only_below_n1():
    P = TreeParams(
        p=2, ell=0.5, omega=0.4, N1=2,
        length_overrides={(1, 0): 0.6, (0, 0): 1.2},
        weight_overrides={(1, 1): 0.5},
    )
    rep = validate_params(P)
    assert rep.ok
    # corridor picks up the worst override-to-profile ratio
    assert rep.min_C >= 1.25
    T = build_truncated(P, 3)
    assert T.lengths[0][0] == 1.2
    assert T.lengths[1][0] == 0.6 and T.lengths[1][1] == 0.5
    assert T.weights[1][1] == 0.5 and T.weights[1][0] == 0.4
    # geometric from N1 on
    np.testing.assert_allclose(T.lengths[2], 0.25)
    np.testing.assert_allclose(T.weights[3], 0.4**3)


def test_override_outside_window_rejected():
    P = TreeParams(p=2, ell=0.5, omega=0.4, N1=1, length_overrides={(1, 0): 0.6})
    assert not validate_params(P).ok
    with pytest.raises(StructuralConditionViolated):
        build_truncated(P, 2)


@pytest.mark.parametrize("overrides", [dict(length_overrides={(1, -1): 0.3}),
                                       dict(length_overrides={(1, 2): 0.3}),
                                       dict(weight_overrides={(0, -1): 0.5})])
def test_override_on_a_missing_edge_rejected(overrides):
    P = TreeParams(p=2, ell=0.5, omega=0.4, N1=2, **overrides)
    assert not validate_params(P).ok
    with pytest.raises(StructuralConditionViolated, match="names no edge"):
        build_condensed(P, 2)


def test_condensation_needs_geometric_tail():
    P = TreeParams(p=2, ell=0.5, omega=0.4, N1=2, length_overrides={(1, 0): 0.6})
    with pytest.raises(CondensationBelowGeometricGeneration):
        build_condensed(P, 1)
    C = build_condensed(P, 2)
    assert C.depth == 3


def test_distances_and_elimination_are_computed_when_read():
    for tree in (build_truncated(REF, 3), build_condensed(REF, 3, level=2)):
        assert "elimination" not in vars(tree)
        assert tree.elimination is tree.elimination
        c, pivot = tree.elimination
        assert not any(arr.flags.writeable for arr in c + pivot)
