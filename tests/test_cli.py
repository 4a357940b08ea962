"""Command line subcommands: artifacts, exit codes, determinism."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedisk import cli
from treedisk.config import parse_config
from treedisk.dtn import condensed_dtn
from treedisk.errors import CutoffTooSmall
from treedisk.exterior import dtn_symbol
from treedisk.transmission import (
    TransmissionConfig,
    assemble_system,
    convergence_study,
    plasmonic_pencil,
    solve_transmission,
)
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


# complex interface data (alpha1 off the real axis) and a tree source, so
# g, the tree coefficients and the exterior trace are all complex
COMPLEX_TEXT = REF_TEXT.replace("alpha1 = 1.0", "alpha1 = 1.0+0.5j") + """
[transmission]
c_root = 0.3
[source.tree]
constant = 0.7
"""


def _fmt(x):
    """Row-wise field formatting of the CSV writer, kept as the oracle."""
    z = complex(x)
    if z.imag == 0.0:
        return "%.17g" % z.real
    return "%.17g%+.17gj" % (z.real, z.imag)


def _oracle_csv(header, rows):
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


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


@pytest.mark.parametrize("text", [REF_TEXT.replace("alpha1 = 1.0", "alpha1 = nan"),
                                  REF_TEXT + "source.exterior.profile.2 = inf, 1\n"],
                         ids=["complex", "list"])
def test_non_finite_config_value_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["transmission", "--config", str(path),
                     "--out-prefix", str(tmp_path / "run_")]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--radius", "0"), ("--radius", "nan"),
                                         ("--modes", "-3"), ("--level", "-1"), ("--p", "0")])
def test_exterior_dtn_bad_argument_exits_2(tmp_path, capsys, flag, value):
    args = {"--radius": "1.0", "--level": "3", "--modes": "64", "--p": "2"}
    args[flag] = value
    argv = ["exterior-dtn", "--out", str(tmp_path / "symbol.csv")]
    for key, val in args.items():
        argv += [key, val]
    assert cli.main(argv) == 2
    assert "argument %s" % flag in capsys.readouterr().err
    assert not (tmp_path / "symbol.csv").exists()


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


_ABOVE_LEVEL = REF_TEXT + "[tree]\nN1 = 4\n"


@pytest.mark.parametrize("text, argv, message", [
    (REF_TEXT.replace("alpha1 = 1.0", "alpha1 = 0"), ["transmission", "--out-prefix", "OUT/run_"],
     "invalid input: alpha1 must be nonzero"),
    (REF_TEXT.replace("p = 2", "p = 0"), ["validate"], "invalid input: p must be"),
    (_ABOVE_LEVEL, ["transmission", "--out-prefix", "OUT/run_"], "invalid input: level 3 below"),
    (_ABOVE_LEVEL, ["plasmonic", "--out", "OUT/pencil.csv"], "invalid input: level 3 below"),
    (REF_TEXT + "[transmission]\nsource_depth = 2\n", ["transmission", "--out-prefix", "OUT/run_"],
     "invalid input: source depth below"),
    (REF_TEXT, ["tree-dtn", "--depth", "-1", "--out", "OUT/dtn.csv"], "argument --depth"),
    (_ABOVE_LEVEL, ["tree-dtn", "--depth", "2", "--out", "OUT/dtn.csv"],
     "invalid input: condensation at N=2"),
    (REF_TEXT + "[transmission]\nlevels = 3, 4\n", ["convergence", "--out", "OUT/conv.csv"],
     "invalid input: need at least 3"),
], ids=["alpha1-zero", "p-zero", "level-below-N1", "pencil-level-below-N1",
        "source-depth-below-level", "tree-dtn-negative-depth", "tree-dtn-depth-below-N1",
        "two-levels"])
def test_invalid_input_exits_2(tmp_path, capsys, text, argv, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    argv = [argv[0], "--config", str(path)] + [a.replace("OUT", str(tmp_path)) for a in argv[1:]]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


# without an exterior source, whose annulus would refuse the radius first
_NEGATIVE_RADIUS = REF_TEXT.split("[source.exterior]")[0].replace("radius = 1.0", "radius = -1")


@pytest.mark.parametrize("text, argv, message", [
    (_NEGATIVE_RADIUS, ["transmission", "--out-prefix", "OUT/run_"], "radius must be positive"),
    (_NEGATIVE_RADIUS, ["plasmonic", "--out", "OUT/pencil.csv"], "radius must be positive"),
    (_NEGATIVE_RADIUS, ["convergence", "--out", "OUT/conv.csv"], "radius must be positive"),
    (REF_TEXT.replace("r_max = 2.0", "r_max = 0.5"), ["transmission", "--out-prefix", "OUT/run_"],
     "need 0 < R < r_max"),
    (REF_TEXT + "[transmission]\npencil_count = -1\n", ["plasmonic", "--out", "OUT/pencil.csv"],
     "pencil count must be >= 1"),
    (REF_TEXT + "[transmission]\npencil_count = 0\n", ["plasmonic", "--out", "OUT/pencil.csv"],
     "pencil count must be >= 1"),
], ids=["transmission-radius", "plasmonic-radius", "convergence-radius", "r_max-below-radius",
        "pencil-count-negative", "pencil-count-zero"])
def test_invalid_value_exits_2_with_one_line(tmp_path, capsys, text, argv, message):
    # these values were checked by plain ValueErrors, which escaped main as
    # a traceback with exit 1, or (the pencil count) not checked at all
    path = tmp_path / "bad.ini"
    path.write_text(text)
    argv = [argv[0], "--config", str(path)] + [a.replace("OUT", str(tmp_path)) for a in argv[1:]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and message in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


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


def test_selftest_passes_under_optimize():
    # python -O strips assert statements; every criterion must still check
    proc = subprocess.run([sys.executable, "-O", "-m", "treedisk.cli", "selftest"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 10 and all(line.startswith("PASS") for line in lines)


def test_module_entry_point(ref_config):
    proc = subprocess.run([sys.executable, "-m", "treedisk.cli",
                           "validate", "--config", ref_config],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_module_entry_point_raises_no_runpy_warning(ref_config):
    # runpy warns when the package import already loaded treedisk.cli
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "treedisk.cli",
                           "validate", "--config", ref_config],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_csv_writer_matches_row_oracle(tmp_path):
    nan, inf = float("nan"), float("inf")
    ints = np.array([0, -3, 7, 2**53, 12, -1, 5, 9])
    reals = np.array([-0.0, 0.0, nan, inf, -inf, 1e-300, -2.5, 1.0 / 3.0])
    cplx = np.array([1 + 0j, complex(-2.0, -0.0), 1 - 2j, complex(0.0, nan), 3j,
                     complex(-0.0, 0.0), complex(inf, 1.0), 0.1 + 0.2j])
    other = np.array([2j, 2j, 0.5, 0.5, 0.5, 1e-20j, complex(-0.0, -0.0), -1j])
    header = ("i", "x", "z", "w")
    out = tmp_path / "w.csv"
    cli._write_csv(str(out), header, [ints, reals, cplx, other])
    rows = [(int(i), x, z, w) for i, x, z, w in zip(ints, reals, cplx, other)]
    assert out.read_bytes() == _oracle_csv(header, rows)
    cli._write_csv(str(out), header, [col[:0] for col in (ints, reals, cplx, other)])
    assert out.read_bytes() == _oracle_csv(header, [])


# small pools, so that drawn columns repeat most of their values
_INTS = np.array([-7, -1, 0, 3, 2**53])
_FLOATS = np.concatenate([
    [0.0, -0.0, float("inf"), -float("inf"), 5e-324, 1e-300, -2.5, 1.0 / 3.0],
    # NaN with two payloads and with the sign bit set
    np.array([0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000],
             dtype=np.uint64).view(np.float64),
])
_IMAGS = np.array([0.0, -0.0, float("nan"), 2.5, -1e-300])


@st.composite
def _repeating_columns(draw):
    n = draw(st.sampled_from([0, 1, 64]))

    def pick(pool):
        return pool[draw(st.lists(st.integers(0, pool.size - 1), min_size=n, max_size=n))]

    cplx = []
    for _ in range(2):
        z = np.empty(n, dtype=complex)
        z.real, z.imag = pick(_FLOATS), pick(_IMAGS)
        cplx.append(z)
    return [pick(_INTS), pick(_FLOATS), *cplx]


@settings(max_examples=40, deadline=None)
@given(columns=_repeating_columns())
def test_csv_writer_matches_row_oracle_on_repeated_values(columns, tmp_path_factory):
    header = ("i", "x", "z", "w")
    out = tmp_path_factory.getbasetemp() / "repeated.csv"
    cli._write_csv(str(out), header, columns)
    rows = [(int(i), x, z, w) for i, x, z, w in zip(*columns)]
    assert out.read_bytes() == _oracle_csv(header, rows)


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(-2**53, 2**53 - 80), offsets=st.lists(st.integers(0, 80), max_size=100))
def test_csv_writer_matches_row_oracle_on_index_ranges(lo, offsets, tmp_path_factory):
    # an integer column whose range fits its length is formatted over that
    # range and gathered by offset; a sparser one goes through np.unique
    col = lo + np.array(offsets, dtype=np.int64)
    out = tmp_path_factory.getbasetemp() / "ranges.csv"
    cli._write_csv(str(out), ("i", "j"), [col, col[::-1].copy()])
    rows = [(int(i), int(j)) for i, j in zip(col, col[::-1])]
    assert out.read_bytes() == _oracle_csv(("i", "j"), rows)


@pytest.mark.parametrize("text", [REF_TEXT, COMPLEX_TEXT], ids=["real", "complex"])
def test_transmission_csvs_match_row_oracle(text, tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(text)
    prefix = str(tmp_path / "t_")
    assert cli.main(["transmission", "--config", str(path), "--out-prefix", prefix]) == 0
    sol = solve_transmission(parse_config(str(path)).transmission())
    tree_rows = []
    for n, gen in enumerate(sol.u_tree.coeffs):
        for k in range(gen.shape[0]):
            for j in range(gen.shape[1]):
                tree_rows.append((n, k, j, gen[k, j]))
    trace = sol.u_ext.trace0()
    expected = {
        "g.csv": _oracle_csv(("level", "cell", "value"),
                             [(sol.g.level, K, v) for K, v in enumerate(sol.g.values)]),
        "tree.csv": _oracle_csv(("n", "k", "coeff_index", "value"), tree_rows),
        "exterior.csv": _oracle_csv(("k", "re", "im"),
                                    [(int(k), c.real, c.imag)
                                     for k, c in zip(trace.ks(), trace.coeffs)]),
    }
    for name, data in expected.items():
        assert (tmp_path / ("t_" + name)).read_bytes() == data, name
    if text is COMPLEX_TEXT:
        assert b"j" in expected["g.csv"] and b"j" in expected["tree.csv"]
    # 16 p^N = 128 modes; the top one is an aliased zero and gets no row
    assert len(trace.coeffs) == 255


def test_matrix_and_table_csvs_match_row_oracle(ref_config, tmp_path):
    out = tmp_path / "dtn.csv"
    assert cli.main(["tree-dtn", "--config", ref_config, "--depth", "2", "--out", str(out)]) == 0
    m = condensed_dtn(TreeParams(p=2, ell=0.5, omega=0.4), 2).matrix
    rows = [(i, j, m[i, j]) for i in range(m.shape[0]) for j in range(m.shape[1])]
    assert out.read_bytes() == _oracle_csv(("row", "col", "value"), rows)

    out = tmp_path / "symbol.csv"
    with pytest.warns(CutoffTooSmall):
        assert cli.main(["exterior-dtn", "--radius", "0.7", "--level", "3",
                         "--modes", "9", "--out", str(out)]) == 0
    symbol = dtn_symbol(0.7, 9)
    rows = [(int(k), symbol.coeff(int(k))) for k in symbol.ks()]
    assert out.read_bytes() == _oracle_csv(("k", "value"), rows)

    path = tmp_path / "conv.ini"
    path.write_text(REF_TEXT + "[transmission]\nlevels = 3, 4, 5\nmanufactured_mode = 1\n")
    out = tmp_path / "conv.csv"
    assert cli.main(["convergence", "--config", str(path), "--out", str(out)]) == 0
    cfg = parse_config(str(path))
    study = convergence_study(cfg.transmission(level=3), [3, 4, 5], manufactured=cfg.manufactured())
    rows = list(zip(study.levels, study.dof, study.err_l2, study.err_h12, study.rate_running))
    assert out.read_bytes() == _oracle_csv(("N", "dof", "err_l2", "err_h12", "rate_running"), rows)

    out = tmp_path / "pencil.csv"
    assert cli.main(["plasmonic", "--config", ref_config, "--out", str(out)]) == 0
    system = assemble_system(TransmissionConfig(params=TreeParams(p=2, ell=0.5, omega=0.4),
                                                level=3, alpha1=1.0, alpha0=0.0))
    values = plasmonic_pencil(system.C, system.D, count=8)
    rows = [(i, z.real, z.imag) for i, z in enumerate(values)]
    assert out.read_bytes() == _oracle_csv(("index", "re", "im"), rows)
