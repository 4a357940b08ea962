"""One test per numbered acceptance criterion.

Each test delegates to the matching function in treedisk.acceptance, so
`pytest -v` prints exactly one pass/fail line per criterion and a failure
carries the criterion's own diagnostic detail.
"""

from treedisk import acceptance
from treedisk.transmission import TransmissionConfig
from treedisk.tree import ValidationReport


def _check(criterion):
    name, ok, detail = criterion()
    assert ok, "%s: %s" % (name, detail)


def test_criterion_01_interval_dtn_oracle():
    _check(acceptance.criterion_1)


def test_criterion_02_radial_constant_flux_oracle():
    _check(acceptance.criterion_2)


def test_criterion_03_condensation_exact_under_compression():
    _check(acceptance.criterion_3)


def test_criterion_04_randomized_coercivity_and_symmetry():
    _check(acceptance.criterion_4)


def test_criterion_05_projector_error_bound():
    _check(acceptance.criterion_5)


def test_criterion_06_exterior_symbol_suite():
    _check(acceptance.criterion_6)


def test_criterion_07_green_identity_random_pairs():
    _check(acceptance.criterion_7)


def test_criterion_08_manufactured_transmission_convergence():
    _check(acceptance.criterion_8)


def test_criterion_09_solvability_sign_conditions():
    _check(acceptance.criterion_9)


def test_criterion_10_plasmonic_pencil_location():
    _check(acceptance.criterion_10)


def test_run_all_prints_one_line_per_criterion(capsys):
    results = acceptance.run_all()
    assert len(results) == len(acceptance.CRITERIA) == 10
    assert all(ok for _, ok, _ in results)
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)


def test_run_all_guards_raising_criteria():
    def boom():
        """A criterion that cannot finish."""
        raise ValueError("synthetic")

    original = acceptance.CRITERIA
    acceptance.CRITERIA = (boom,)
    try:
        results = acceptance.run_all()
    finally:
        acceptance.CRITERIA = original
    (name, ok, detail), = results
    assert not ok
    assert "ValueError" in detail and "synthetic" in detail
    assert name == "A criterion that cannot finish"


def test_inadmissible_draw_fails_criterion_4(monkeypatch):
    # a plain `assert` here would vanish under python -O
    def reject(params):
        return ValidationReport(sigma=None, r=params.r, min_C=1.0,
                                failures=["synthetic failure"], oracle_only=False)

    monkeypatch.setattr(acceptance, "validate_params", reject)
    name, ok, detail = acceptance.criterion_4()
    assert not ok
    assert "draw 0" in detail and "synthetic failure" in detail


def test_sign_condition_violation_fails_criterion_9(monkeypatch):
    monkeypatch.setattr(TransmissionConfig, "solvability",
                        lambda self: {"case_i": False, "case_ii": False})
    name, ok, detail = acceptance.criterion_9()
    assert not ok
    assert "draw 0" in detail and "case_i" in detail
