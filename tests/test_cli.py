"""Command line subcommands: artifacts, exit codes, determinism."""

import subprocess
import sys

import numpy as np
import pytest

from treedisk import cli
from treedisk.dtn import condensed_dtn
from treedisk.errors import CutoffTooSmall
from treedisk.transmission import TransmissionConfig, assemble_system, plasmonic_pencil
from treedisk.tree import TreeParams

REF_TEXT = """
[tree]
p = 2
ell = 0.5
omega = 0.4

[interface]
radius = 1.0
N = 3

[transmission]
alpha1 = 1.0
alpha0 = 0.25

[source.exterior]
r_max = 2.0
profile.1 = 1.0
profile.-1 = 1.0
"""


@pytest.fixture
def ref_config(tmp_path):
    path = tmp_path / "ref.ini"
    path.write_text(REF_TEXT)
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_validate_ok(ref_config, capsys):
    assert cli.main(["validate", "--config", ref_config]) == 0
    out = capsys.readouterr().out
    assert "sigma = 0.33904" in out
    assert out.strip().endswith("ok")


def test_validate_rejects_bad_parameters(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("tree.p = 2\ntree.ell = 0.5\ntree.omega = 0.6\n")
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "FAIL" in capsys.readouterr().err


def test_missing_config_file_is_config_error(capsys):
    assert cli.main(["validate", "--config", "/nonexistent.ini"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(REF_TEXT + "tree.unknown = 1\n")
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_tree_dtn_dump(ref_config, tmp_path):
    out = tmp_path / "dtn.csv"
    assert cli.main(["tree-dtn", "--config", ref_config, "--depth", "2",
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["row", "col", "value"]
    op = condensed_dtn(TreeParams(p=2, ell=0.5, omega=0.4), 2)
    assert len(rows) == op.size**2
    matrix = np.zeros((op.size, op.size))
    for i, j, v in rows:
        matrix[int(i), int(j)] = float(v)
    assert np.abs(matrix - op.matrix).max() == 0.0
    manifest = (tmp_path / "dtn.csv.manifest").read_text()
    assert "command=tree-dtn" in manifest
    assert "param.tree.p=2" in manifest


def test_exterior_dtn_dump(tmp_path):
    out = tmp_path / "symbol.csv"
    with pytest.warns(CutoffTooSmall):
        assert cli.main(["exterior-dtn", "--radius", "2.0", "--level", "3",
                         "--modes", "8", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["k", "value"]
    values = {int(k): float(v) for k, v in rows}
    assert values[0] == 0.0
    assert values[3] == pytest.approx(-1.5)
    assert values[-3] == pytest.approx(-1.5)


def test_exterior_dtn_warns_at_levels_too_large_for_a_matrix(tmp_path):
    # 2^20 cells: the warning comes from the cutoff alone, no C_N is built
    with pytest.warns(CutoffTooSmall):
        assert cli.main(["exterior-dtn", "--radius", "1.0", "--level", "20",
                         "--modes", "8", "--out", str(tmp_path / "symbol.csv")]) == 0


def test_transmission_artifacts_and_determinism(ref_config, tmp_path, capsys):
    prefix_a = str(tmp_path / "a_")
    prefix_b = str(tmp_path / "b_")
    assert cli.main(["transmission", "--config", ref_config,
                     "--out-prefix", prefix_a]) == 0
    out = capsys.readouterr().out
    assert "condition estimate" in out and "flux residual" in out
    header, rows = _read_csv(tmp_path / "a_g.csv")
    assert header == ["level", "cell", "value"]
    assert len(rows) == 8
    manifest = (tmp_path / "a_manifest.txt").read_text()
    assert "command=transmission" in manifest
    assert "config_sha256=" in manifest
    assert manifest.count("output=") == 3
    assert "wall_time_s=" in manifest

    assert cli.main(["transmission", "--config", ref_config,
                     "--out-prefix", prefix_b]) == 0
    for name in ("g.csv", "tree.csv", "exterior.csv"):
        a = (tmp_path / ("a_" + name)).read_bytes()
        b = (tmp_path / ("b_" + name)).read_bytes()
        assert a == b


def test_transmission_at_pencil_eigenvalue_exits_3(tmp_path, capsys):
    params = TreeParams(p=2, ell=0.5, omega=0.4)
    system = assemble_system(TransmissionConfig(params=params, level=3,
                                                alpha1=1.0, alpha0=0.0))
    lam = plasmonic_pencil(system.C, system.D, 2)[1]
    text = REF_TEXT.replace("alpha1 = 1.0", "alpha1 = %r" % lam.real)
    text = text.replace("alpha0 = 0.25", "alpha0 = 0.0")
    path = tmp_path / "singular.ini"
    path.write_text(text)
    assert cli.main(["transmission", "--config", str(path),
                     "--out-prefix", str(tmp_path / "s_")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_convergence_study(ref_config, tmp_path, capsys):
    text = REF_TEXT + "[transmission]\nlevels = 3, 4, 5\nmanufactured_mode = 1\n"
    path = tmp_path / "conv.ini"
    path.write_text(text)
    out = tmp_path / "conv.csv"
    assert cli.main(["convergence", "--config", str(path), "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["N", "dof", "err_l2", "err_h12", "rate_running"]
    assert [int(r[0]) for r in rows] == [3, 4, 5]
    assert [int(r[1]) for r in rows] == [8, 16, 32]
    errs = [float(r[3]) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert "rho_hat" in capsys.readouterr().out


def test_plasmonic_dump(ref_config, tmp_path):
    out = tmp_path / "pencil.csv"
    assert cli.main(["plasmonic", "--config", ref_config, "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["index", "re", "im"]
    assert len(rows) == 8
    assert abs(float(rows[0][1])) < 1e-10
    assert all(float(r[1]) < 0 for r in rows[1:])
    assert all(float(r[2]) == 0.0 for r in rows)


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10 and all(line.startswith("PASS") for line in lines)


def test_module_entry_point(ref_config):
    proc = subprocess.run([sys.executable, "-m", "treedisk.cli",
                           "validate", "--config", ref_config],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout
