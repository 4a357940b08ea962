"""Command line subcommands: artifacts, exit codes, determinism."""

import io
import os
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expanded, ks, trace0
from treedisk import cli, transmission
from treedisk.calculus import TreeFunction
from treedisk.config import parse_config, parse_text
from treedisk.dtn import condensed_dtn
from treedisk.errors import CutoffTooSmall, NumericalCheckFailed
from treedisk.exterior import dtn_symbol
from treedisk.transmission import (
    TransmissionConfig,
    assemble_system,
    convergence_study,
    plasmonic_pencil,
    solve_transmission,
)
from treedisk.tree import TreeParams, build_condensed

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

# an interface of radius 2.5 and an exterior source with a mode-0 term: the
# source integrals scaled by R, and b_0 log R in the mode-0 trace
RADIUS_TEXT = REF_TEXT.replace("radius = 1.0", "radius = 2.5").replace("r_max = 2.0", "r_max = 4.0") + """
[source.exterior]
profile.0 = 1.0, -0.25
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


def _per_edge(text: bytes) -> bytes:
    """tree.csv's records (n,k,edges,coeff_index,value) expanded over their
    edges, edge-major and coefficient-minor, as the per-edge rows
    n,k,coeff_index,value: the bytes _oracle_csv writes for every edge.  The
    records of a stored row are consecutive."""
    lines = text.decode().splitlines()
    assert lines[0] == "n,k,edges,coeff_index,value"
    records = [line.split(",", 3) for line in lines[1:]]
    out, i = ["n,k,coeff_index,value"], 0
    while i < len(records):
        n, k, edges, _ = records[i]
        j = i
        while j < len(records) and records[j][:3] == [n, k, edges]:
            j += 1
        for e in range(int(k), int(k) + int(edges)):
            out += ["%s,%d,%s" % (n, e, record[3]) for record in records[i:j]]
        i = j
    return ("\n".join(out) + "\n").encode()


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
    (REF_TEXT + "[transmission]\nlevels =\n", ["convergence", "--out", "OUT/conv.csv"],
     "line 20: bad value for 'transmission.levels': empty list"),
    (REF_TEXT.replace("p = 2", "p = 1").replace("omega = 0.4", "omega = 1.0"),
     ["convergence", "--out", "OUT/conv.csv"], "invalid input: a level study needs p >= 2"),
    (REF_TEXT + "[source.exterior]\nprofile.2 =\n", ["transmission", "--out-prefix", "OUT/run_"],
     "line 20: bad value for 'source.exterior.profile.2': empty list"),
], ids=["alpha1-zero", "p-zero", "level-below-N1", "pencil-level-below-N1",
        "source-depth-below-level", "tree-dtn-negative-depth", "tree-dtn-depth-below-N1",
        "two-levels", "empty-levels", "convergence-p-1", "empty-profile"])
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


def test_convergence_checks_the_finest_level_before_solving(tmp_path, capsys, monkeypatch):
    # the source tree of level 22 exceeds the tree budget; the levels 3 and
    # 4 are not solved first
    def solve_interface(system):
        raise RuntimeError("level %d solved before the budget check" % system.config.level)

    monkeypatch.setattr(transmission, "solve_interface", solve_interface)
    path = tmp_path / "conv.ini"
    path.write_text(REF_TEXT + "[transmission]\nlevels = 3, 4, 22\nmanufactured_mode = 1\n")
    out = tmp_path / "conv.csv"
    assert cli.main(["convergence", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("problem too large: ") and "tree budget" in err
    assert list(tmp_path.iterdir()) == [path]


def test_pencil_count_is_checked_before_assembly(tmp_path, capsys, monkeypatch):
    def assemble(cfg):
        raise RuntimeError("assembled before the pencil count was checked")

    monkeypatch.setattr(cli, "assemble_system", assemble)
    path = tmp_path / "bad.ini"
    path.write_text(REF_TEXT + "[transmission]\npencil_count = 0\n")
    assert cli.main(["plasmonic", "--config", str(path), "--out", str(tmp_path / "pencil.csv")]) == 2
    assert capsys.readouterr().err == "invalid input: pencil count must be >= 1, got 0\n"
    assert list(tmp_path.iterdir()) == [path]


# generation 1 of p = 2 has the edges (1, 0) and (1, 1) only
_MISSING_EDGE = REF_TEXT + "[tree]\nN1 = 2\nlength_override.1.5 = 0.3\n"
_NO_EDGE = "length override at (1,5) names no edge (generation 1 has 2^1 edges)\n"


@pytest.mark.parametrize("argv, err", [
    (["validate"], "FAIL: " + _NO_EDGE),
    (["transmission", "--out-prefix", "OUT/run_"], "invalid parameters: " + _NO_EDGE),
    (["plasmonic", "--out", "OUT/pencil.csv"], "invalid parameters: " + _NO_EDGE),
    (["tree-dtn", "--depth", "3", "--out", "OUT/dtn.csv"], "invalid parameters: " + _NO_EDGE),
], ids=["validate", "transmission", "plasmonic", "tree-dtn"])
def test_override_on_a_missing_edge_exits_2(tmp_path, capsys, argv, err):
    path = tmp_path / "bad.ini"
    path.write_text(_MISSING_EDGE)
    argv = [argv[0], "--config", str(path)] + [a.replace("OUT", str(tmp_path)) for a in argv[1:]]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == [path]


# generation 1500 of ell = 0.5, omega = 0.4: ell^1500 and omega^1500
# underflow to 0, and the corridor ratios are beyond the float range
_DEEP_OVERRIDE = REF_TEXT.replace("N = 3", "N = 2000") + "[tree]\nN1 = 2000\n%s_override.1500.0 = 0.3\n"
_DEEP_RATIO = {"length": "10^451.0", "weight": "10^596.4"}


@pytest.mark.parametrize("kind", ["length", "weight"])
@pytest.mark.parametrize("argv", [["validate"], ["transmission", "--out-prefix", "OUT/run_"]],
                         ids=["validate", "transmission"])
def test_deep_override_exits_2(tmp_path, capsys, kind, argv):
    path = tmp_path / "deep.ini"
    path.write_text(_DEEP_OVERRIDE % kind)
    argv = [argv[0], "--config", str(path)] + [a.replace("OUT", str(tmp_path)) for a in argv[1:]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if argv[0] == "validate":
        assert err == ("FAIL: %s override at (1500,0) is %s times the geometric %s, beyond the float range\n"
                       % (kind, _DEEP_RATIO[kind], kind))
    assert list(tmp_path.iterdir()) == [path]


def test_tree_dtn_dump(ref_config, tmp_path):
    out = tmp_path / "dtn.csv"
    assert cli.main(["tree-dtn", "--config", ref_config, "--depth", "2",
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["row", "col", "value"]
    A = condensed_dtn(TreeParams(p=2, ell=0.5, omega=0.4), 2)
    assert len(rows) == A.size
    matrix = np.zeros(A.shape)
    for i, j, v in rows:
        matrix[int(i), int(j)] = float(v)
    assert np.abs(matrix - A).max() == 0.0
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


def test_exterior_dtn_streams_its_modes(tmp_path):
    # 2^21 + 1 rows (36 MiB of text) are written from the symbol's blocks,
    # _CHUNK_ROWS modes at a time; one array over the modes and their values
    # takes 32 MiB
    out = tmp_path / "symbol.csv"
    tracemalloc.start()
    try:
        assert cli.main(["exterior-dtn", "--radius", "1", "--level", "16",
                         "--modes", "1048576", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 30 * 2**20
    with open(out, "rb") as fh:
        assert fh.readline() == b"k,value\n" and fh.readline() == b"-1048576,-1048576\n"
    assert peak < 4 * 2**20, peak


def test_exterior_dtn_refuses_modes_beyond_the_mode_budget(tmp_path, capsys):
    # the budget bounds the rows written: one mode past it exits 2
    out = tmp_path / "symbol.csv"
    assert cli.main(["exterior-dtn", "--radius", "1", "--level", "19",
                     "--modes", "8388609", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("problem too large: modes up to 8388609 exceed the "
                                       "mode budget of 8388608\n")
    assert os.listdir(tmp_path) == []


# the refusals compare p^level by its exponent: at these levels p^level has
# more than 4300 digits, past what %d formats, and 3^100000000 took about a
# minute to compute; the bound leaves room for a loaded machine
_FAST_S = 5.0


def test_tree_dtn_refuses_a_huge_depth_without_forming_p_to_the_depth(ref_config, tmp_path,
                                                                       capsys):
    started = time.monotonic()
    assert cli.main(["tree-dtn", "--config", ref_config, "--depth", "20000",
                     "--out", str(tmp_path / "dtn.csv")]) == 2
    assert time.monotonic() - started < _FAST_S
    assert capsys.readouterr().err == ("problem too large: 2^20001 cells exceed the dense "
                                       "operator budget of 4096 cells\n")
    assert not (tmp_path / "dtn.csv").exists()


@pytest.mark.parametrize("p, level", [(2, 14300), (3, 100000000)])
def test_exterior_dtn_warns_at_a_huge_level_without_forming_p_to_the_level(tmp_path, p, level):
    started = time.monotonic()
    with pytest.warns(CutoffTooSmall, match=r"below 16 \* %d\^%d cells" % (p, level)):
        assert cli.main(["exterior-dtn", "--radius", "1.0", "--p", str(p), "--level", str(level),
                         "--modes", "8", "--out", str(tmp_path / "symbol.csv")]) == 0
    assert time.monotonic() - started < _FAST_S


def test_transmission_artifacts_and_determinism(ref_config, tmp_path, capsys):
    prefix_a = str(tmp_path / "a_")
    prefix_b = str(tmp_path / "b_")
    assert cli.main(["transmission", "--config", ref_config,
                     "--out-prefix", prefix_a]) == 0
    out = capsys.readouterr().out.splitlines()
    names = ["condition estimate", "trace defect", "flux residual", "discretization defect"]
    assert [line.partition(" = ")[0] for line in out] == names
    header, rows = _read_csv(tmp_path / "a_g.csv")
    assert header == ["level", "cell", "value"]
    assert len(rows) == 8
    manifest = (tmp_path / "a_manifest.txt").read_text()
    assert "command=transmission" in manifest
    assert "config_sha256=" in manifest
    assert manifest.count("output=") == 3
    assert "wall_time_s=" in manifest
    # the reported numbers, as printed, and the time of the solve and of the writes
    lines = manifest.splitlines()
    for name, line in zip(names, out):
        assert "%s=%s" % (name.replace(" ", "_"), line.partition(" = ")[2]) in lines
    assert sum(line.startswith(("stage.solve_s=", "stage.write_s=")) for line in lines) == 2

    assert cli.main(["transmission", "--config", ref_config,
                     "--out-prefix", prefix_b]) == 0
    for name in ("g.csv", "tree.csv", "exterior.csv"):
        a = (tmp_path / ("a_" + name)).read_bytes()
        b = (tmp_path / ("b_" + name)).read_bytes()
        assert a == b


def test_outputs_take_their_mode_from_the_umask(ref_config, tmp_path, capsys):
    # the temp file behind each atomic write is created 0600; the outputs
    # must get 0666 less the umask, as a plain open() would give them
    old = os.umask(0o022)
    try:
        assert cli.main(["transmission", "--config", ref_config,
                         "--out-prefix", str(tmp_path / "m_")]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    names = ("g.csv", "tree.csv", "exterior.csv", "manifest.txt")
    modes = {name: stat.S_IMODE((tmp_path / ("m_" + name)).stat().st_mode) for name in names}
    assert modes == dict.fromkeys(names, 0o644)


# the forked tree.csv writer, its exit and its errors: POSIX only
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is POSIX only")


def _assert_no_child_and_no_temp_file(directory):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(directory.glob(".tmp-*.part"))


@needs_fork
def test_failed_tree_write_in_the_child_raises_its_error(ref_config, tmp_path, capsys):
    # tree.csv is written by a forked child: the rename onto a directory
    # fails there, and the parent raises that OSError after its own writes
    (tmp_path / "t_tree.csv").mkdir()
    with pytest.raises(IsADirectoryError) as failure:
        cli.main(["transmission", "--config", ref_config, "--out-prefix", str(tmp_path / "t_")])
    assert failure.value.filename2 == str(tmp_path / "t_tree.csv")
    _assert_no_child_and_no_temp_file(tmp_path)
    assert (tmp_path / "t_exterior.csv").is_file()
    assert not (tmp_path / "t_manifest.txt").exists()


@needs_fork
def test_parent_write_error_wins_over_the_child_s(ref_config, tmp_path, capsys):
    (tmp_path / "t_tree.csv").mkdir()
    (tmp_path / "t_exterior.csv").mkdir()
    with pytest.raises(IsADirectoryError) as failure:
        cli.main(["transmission", "--config", ref_config, "--out-prefix", str(tmp_path / "t_")])
    assert failure.value.filename2 == str(tmp_path / "t_exterior.csv")
    _assert_no_child_and_no_temp_file(tmp_path)


class TwoPartError(Exception):
    """Pickles, but does not unpickle: its args hold one of its two parts."""

    def __init__(self, what, where):
        super().__init__("%s at %s" % (what, where))


def _local_error():
    class LocalError(Exception):
        """A class local to a function: pickle cannot find it by name."""

    return LocalError("no rows")


@needs_fork
@pytest.mark.parametrize("error", [_local_error, lambda: TwoPartError("no rows", "generation 0")],
                         ids=["does-not-pickle", "does-not-unpickle"])
def test_child_error_that_does_not_round_trip_arrives_as_its_repr(error, ref_config, tmp_path,
                                                                   monkeypatch, capsys):
    def tree_chunks(u):
        raise error()

    monkeypatch.setattr(cli, "_tree_chunks", tree_chunks)
    with pytest.raises(RuntimeError, match="Error\\('no rows"):
        cli.main(["transmission", "--config", ref_config, "--out-prefix", str(tmp_path / "t_")])
    _assert_no_child_and_no_temp_file(tmp_path)


@needs_fork
def test_killed_child_is_an_error(ref_config, tmp_path, monkeypatch, capsys):
    # a child that sends no message (killed, say by the OOM killer) has
    # not written tree.csv: the command must not report success.  The child
    # dies inside the write, after the temp file exists
    def tree_chunks(u):
        os.kill(os.getpid(), signal.SIGKILL)
        yield

    monkeypatch.setattr(cli, "_tree_chunks", tree_chunks)
    with pytest.raises(RuntimeError, match="wait status"):
        cli.main(["transmission", "--config", ref_config, "--out-prefix", str(tmp_path / "t_")])
    # the parent made the temp file the child was writing, and removes it
    _assert_no_child_and_no_temp_file(tmp_path)
    assert not (tmp_path / "t_tree.csv").exists()


@needs_fork
def test_interrupt_in_the_parent_waits_for_the_child(ref_config, tmp_path, monkeypatch, capsys):
    write_chunks = cli._write_chunks

    def interrupted(path, header, chunks):
        if path.endswith("exterior.csv"):
            raise KeyboardInterrupt
        write_chunks(path, header, chunks)

    monkeypatch.setattr(cli, "_write_chunks", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["transmission", "--config", ref_config, "--out-prefix", str(tmp_path / "t_")])
    _assert_no_child_and_no_temp_file(tmp_path)


def test_without_fork_the_files_are_the_same(tmp_path, monkeypatch, capsys):
    # where os.fork is missing (Windows) tree.csv is written in-process
    path = tmp_path / "run.ini"
    path.write_text(COMPLEX_TEXT)
    assert cli.main(["transmission", "--config", str(path), "--out-prefix", str(tmp_path / "a_")]) == 0
    monkeypatch.delattr(os, "fork")
    assert cli.main(["transmission", "--config", str(path), "--out-prefix", str(tmp_path / "b_")]) == 0
    for name in ("g.csv", "tree.csv", "exterior.csv"):
        assert (tmp_path / ("a_" + name)).read_bytes() == (tmp_path / ("b_" + name)).read_bytes()


def test_fork_with_a_thread_alive_gives_no_deprecation_warning(ref_config, tmp_path, capsys):
    # CPython 3.12+ warns on os.fork() in a multi-threaded process; the
    # writer's fork is safe (see cli._in_child) and the warning must not escape
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["transmission", "--config", ref_config,
                             "--out-prefix", str(tmp_path / "t_")]) == 0
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


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


_SCALED = ("tree.p = 2\ntree.ell = 0.5\ntree.omega = 0.4\ninterface.N = 7\n"
           "source.exterior.profile.1 = %s\nsource.exterior.profile.-1 = %s\n")


def _run_scaled(scale, out):
    """treedisk transmission on the N = 7 ring source scaled by `scale`, in a
    child process, with every warning an error."""
    path = out.parent / ("scaled_%s.ini" % scale)
    path.write_text(_SCALED % (scale, scale))
    return subprocess.run([sys.executable, "-W", "error", "-m", "treedisk.cli", "transmission",
                           "--config", str(path), "--out-prefix", str(out / "t_")],
                          capture_output=True, text=True)


def test_transmission_solves_sources_of_any_normal_scale(tmp_path):
    # the interface solve runs on h scaled to unit size by a power of two,
    # where GMRES's and the residual gate's norms neither underflow nor
    # overflow, and the trace gate is 1e-10 at the scale of max|g|, so a
    # source of 1e-200 or 1e200 solves to that factor times the datum of the
    # unit source; at 1e-320 the rhs is subnormal and refused, with exit 3
    # and no file
    g = {}
    for scale in ("1", "1e-200", "1e200"):
        out = tmp_path / scale
        proc = _run_scaled(scale, out)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        assert sorted(os.listdir(out)) == ["t_exterior.csv", "t_g.csv", "t_manifest.txt",
                                           "t_tree.csv"]
        g[scale] = np.loadtxt(out / "t_g.csv", delimiter=",", skiprows=1)[:, 2]
    for scale in ("1e-200", "1e200"):
        assert np.abs(g[scale] / float(scale) - g["1"]).max() <= 1e-12 * np.abs(g["1"]).max()
    out = tmp_path / "1e-320"
    proc = _run_scaled("1e-320", out)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical failure: ") and "is subnormal" in proc.stderr
    assert not out.exists()


def test_transmission_refuses_a_flux_residual_beyond_its_bound(tmp_path, monkeypatch, capsys):
    # a g that does not solve the interface equation leaves a flux residual
    # of order 1, which must exit 3 and leave no file
    solve = cli.solve_interface

    def solve_off(system):
        g = solve(system)
        g.values[0] += 1.0
        return g

    monkeypatch.setattr(cli, "solve_interface", solve_off)
    path = tmp_path / "scaled.ini"
    path.write_text(_SCALED % (1, 1))
    out = tmp_path / "out"
    assert cli.main(["transmission", "--config", str(path), "--out-prefix", str(out / "t_")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: flux residual")
    assert not out.exists()


@needs_fork
@pytest.mark.parametrize("exists", [False, True], ids=["new-directory", "existing-directory"])
def test_refusal_after_the_tree_writer_started_leaves_nothing(exists, ref_config, tmp_path,
                                                              monkeypatch, capsys):
    # the tree.csv writer starts before the exterior side is checked; a
    # refusal then kills it and leaves no file, no temp file and no new
    # directory: the temp file lives in the nearest existing directory
    started = []
    in_child = cli._in_child

    def recorded(write):
        started.append(1)
        return in_child(write)

    monkeypatch.setattr(cli, "_in_child", recorded)
    monkeypatch.setattr(cli, "_FLUX_SLACK", -1.0)
    out = tmp_path / "out"
    if exists:
        out.mkdir()
    prefix = out / "t_" if exists else out / "run" / "t_"
    assert cli.main(["transmission", "--config", ref_config, "--out-prefix", str(prefix)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: flux residual")
    assert started == [1]
    _assert_no_child_and_no_temp_file(tmp_path)
    if exists:
        assert not list(out.iterdir())
    else:
        assert not out.exists()


@needs_fork
def test_refusal_kills_the_tree_writer(ref_config, tmp_path, monkeypatch, capsys):
    # a refusal deletes what the tree.csv writer writes, so the writer is
    # killed, not waited for: one that would take 20 s holds nothing up
    def tree_chunks(u):
        time.sleep(20)
        yield b""

    monkeypatch.setattr(cli, "_tree_chunks", tree_chunks)
    monkeypatch.setattr(cli, "_FLUX_SLACK", -1.0)
    started = time.monotonic()
    assert cli.main(["transmission", "--config", ref_config,
                     "--out-prefix", str(tmp_path / "t_")]) == 3
    assert time.monotonic() - started < 5
    assert capsys.readouterr().err.startswith("numerical failure: flux residual")
    _assert_no_child_and_no_temp_file(tmp_path)
    assert sorted(os.listdir(tmp_path)) == ["ref.ini"]


def test_transmission_refuses_a_non_finite_g(ref_config, tmp_path, monkeypatch, capsys):
    solve = cli.solve_interface

    def solve_to_nan(system):
        g = solve(system)
        g.values[1] = float("nan")
        return g

    monkeypatch.setattr(cli, "solve_interface", solve_to_nan)
    assert cli.main(["transmission", "--config", ref_config,
                     "--out-prefix", str(tmp_path / "out" / "t_")]) == 3
    assert "g is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_only_the_package_s_own_checks_exit_3(ref_config, tmp_path, monkeypatch):
    # a failed check is errors.NumericalCheckFailed, which is also an
    # AssertionError; any other AssertionError is a fault and is not reported
    # as a numerical failure
    assert issubclass(NumericalCheckFailed, AssertionError)

    def failing(system, g, tree_side):
        raise AssertionError("not a check of the package")

    monkeypatch.setattr(cli, "reconstruct", failing)
    with pytest.raises(AssertionError, match="not a check"):
        cli.main(["transmission", "--config", ref_config, "--out-prefix", str(tmp_path / "t_")])


def test_the_parser_is_built_once_and_prints_as_a_fresh_one(capsys):
    cli._build_parser.cache_clear()
    argvs = (["--help"], ["transmission", "--help"], ["transmission"])
    texts = []
    for argv in argvs:
        assert cli.main(argv) == (2 if argv == ["transmission"] else 0)
        texts.append(capsys.readouterr())
    assert cli._build_parser.cache_info().misses == 1
    # a freshly built parser prints the same help and usage error, byte for byte
    fresh = cli._build_parser.__wrapped__()
    for argv, text in zip(argvs, texts):
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        assert capsys.readouterr() == text
    assert "the following arguments are required: --config, --out-prefix" in texts[2].err


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


def test_convergence_refuses_infinite_errors(tmp_path):
    # a source whose r_max is 1e300 overflows the coarse levels' errors to
    # inf, and with them the reference norm that scales the monotonicity and
    # rate checks; in a child process, since the suite's filter would raise
    # the overflow warnings, which the command only prints
    path = tmp_path / "overflow.ini"
    path.write_text("tree.p = 2\ntree.ell = 0.5\ntree.omega = 0.4\ninterface.N = 3\n"
                    "transmission.alpha1 = 1\ntransmission.alpha0 = 0.3\n"
                    "source.exterior.r_max = 1e300\n"
                    "source.exterior.profile.1 = 1\nsource.exterior.profile.-1 = 1\n")
    out = tmp_path / "conv.csv"
    proc = subprocess.run([sys.executable, "-m", "treedisk.cli", "convergence",
                           "--config", str(path), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure: interface errors are not finite" in proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["overflow.ini"]


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
    # integers up to 2**53 in magnitude, where %d is the text of %.17g
    col = lo + np.array(offsets, dtype=np.int64)
    out = tmp_path_factory.getbasetemp() / "ranges.csv"
    cli._write_csv(str(out), ("i", "j"), [col, col[::-1].copy()])
    rows = [(int(i), int(j)) for i, j in zip(col, col[::-1])]
    assert out.read_bytes() == _oracle_csv(("i", "j"), rows)


_NONZERO_IMAGS = _IMAGS[_IMAGS != 0.0]


@st.composite
def _chunked_columns(draw):
    """Columns of up to 40 rows and a split of them into chunks; in each chunk
    the complex column's imaginary parts are all zero, none zero or mixed."""
    n = draw(st.integers(0, 40))
    cuts = sorted(set(draw(st.lists(st.integers(0, n), max_size=6))) | {0, n})
    bounds = list(zip(cuts, cuts[1:]))

    def pick(pool, size):
        return pool[draw(st.lists(st.integers(0, pool.size - 1), min_size=size, max_size=size))]

    imag = np.concatenate([np.zeros(0)] + [
        pick(draw(st.sampled_from([np.array([0.0, -0.0]), _NONZERO_IMAGS, _IMAGS])), b - a)
        for a, b in bounds])
    cplx = np.empty(n, dtype=complex)
    cplx.real, cplx.imag = pick(_FLOATS, n), imag
    return [pick(_INTS, n), pick(_FLOATS, n), cplx], bounds


@settings(max_examples=60, deadline=None)
@given(drawn=_chunked_columns())
def test_csv_chunks_match_row_oracle_at_any_split(drawn, tmp_path_factory):
    columns, bounds = drawn
    # the reals once more as a text column, formatted per distinct bit pattern
    columns.append(cli._distinct_text(columns[1]))
    header = ("i", "x", "z", "t")
    out = tmp_path_factory.getbasetemp() / "chunks.csv"
    cli._write_chunks(str(out), header, [cli._row([col[a:b] for col in columns])
                                         for a, b in bounds])
    rows = [(int(i), x, z, x) for i, x, z in zip(*columns[:3])]
    assert out.read_bytes() == _oracle_csv(header, rows)


@pytest.mark.parametrize("chunk_rows", [2**16, 1000, 3])
def test_deep_tree_csv_matches_row_oracle_across_chunks(chunk_rows, tmp_path, monkeypatch):
    # source depth N + 8: each stored row of the deepest generation stands
    # for 2^9 edges; 2^16 and 1000 rows per chunk write a generation's
    # records in one chunk, 3 rows one stored row's records per chunk
    path = tmp_path / "deep.ini"
    path.write_text(COMPLEX_TEXT + "[transmission]\nsource_depth = 11\n")
    sol = solve_transmission(parse_config(str(path)).transmission())
    tree, deepest = sol.u_rows.tree, sol.u_rows.coeffs[-1]
    assert deepest.imag.any() and tree.multiplicity(tree.depth) == 2**9
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    prefix = str(tmp_path / "t_")
    assert cli.main(["transmission", "--config", str(path), "--out-prefix", prefix]) == 0
    rows = [(n, k, j, gen[k, j]) for n, gen in enumerate(expanded(sol.u_rows).coeffs)
            for k in range(gen.shape[0]) for j in range(gen.shape[1])]
    expected = _oracle_csv(("n", "k", "coeff_index", "value"), rows)
    assert _per_edge((tmp_path / "t_tree.csv").read_bytes()) == expected


@pytest.fixture(scope="module")
def deep_tree():
    """The compressed source tree of a p=2, N=3 solve at source depth 13,
    whose tree is one generation deeper: generation n > 3 stores 8 rows of
    2^(n-3) edges each, and generation 14 has 16384 edges, so its k text
    grows from 1 to 5 digits."""
    text = REF_TEXT + "[transmission]\nsource_depth = 13\n"
    return solve_transmission(parse_text(text).transmission()).u_rows.tree


def _from_bits(bits):
    """The float64 with these 64 bits."""
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# every kind of value the text kernel writes apart: any bit pattern (NaN
# payloads, infinities, subnormals, +-0.0), ties of the 17th digit that `%`
# rounds (1234567890123456.75), and |X| > 280, which `%` formats
_REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1234567890123456.75]),
    st.integers(4 * 10**15, 4 * 10**16 - 1).map(lambda i: i / 4),
    st.floats(1e281, 1.7e308).flatmap(lambda x: st.sampled_from([x, -x, 1 / x])),
)
_STORED = st.one_of(_REALS, st.builds(complex, _REALS, st.sampled_from([0.0, -0.0]) | _REALS))


@settings(max_examples=10, deadline=None)
@given(pool=st.lists(_STORED, min_size=1, max_size=40), chunk_rows=st.sampled_from([2**12, 12, 3]),
       data=st.data())
def test_tree_csv_matches_row_oracle_on_any_stored_values(deep_tree, pool, chunk_rows, data):
    # 2^12 rows per chunk put the 8 stored rows of generation 14, whose k
    # text runs from 0 to 14336, in one chunk, 12 rows 4 stored rows and 3
    # rows one; column 0 of a stored row holds its index, so an edge given
    # its neighbour row's record shows
    coeffs = []
    for n, rows in enumerate(deep_tree.rows):
        gen = np.array([pool[(n + i) % len(pool)] for i in range(rows * 3)]).reshape(rows, 3)
        if data.draw(st.booleans(), label="complex generation %d" % n):
            gen = gen.astype(complex)
        gen[:, 0] = np.arange(rows) + n / 64
        coeffs.append(gen)
    u = TreeFunction(deep_tree, coeffs)
    out = io.BytesIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        cli._fill_csv(out, ("n", "k", "edges", "coeff_index", "value"), cli._tree_chunks(u))
    rows = [(n, k, j, gen[k // (2**n // gen.shape[0]), j]) for n, gen in enumerate(coeffs)
            for k in range(2**n) for j in range(3)]
    assert _per_edge(out.getvalue()) == _oracle_csv(("n", "k", "coeff_index", "value"), rows)


class _Sink:
    """A file that keeps only the count of the bytes written to it."""

    size = 0

    def write(self, data):
        self.size += len(data)

    def flush(self):
        pass


def test_tree_csv_write_holds_about_one_chunk():
    # p=2 compressed below N=12 to source depth 16: 28,671 stored rows of 3
    # coefficients (random values, 2.7 MiB of text in all); a chunk is the
    # records of at most 2^12 // 3 stored rows, and the write holds its
    # matrix, its text and the kernel's temporaries at once.  Writing the
    # whole file's text at once fails this
    tree = build_condensed(TreeParams(p=2, ell=0.5, omega=0.4), 16, level=12)
    rng = np.random.default_rng(5)
    u = TreeFunction(tree, [rng.standard_normal((rows, 3)) for rows in tree.rows])
    sink = _Sink()
    tracemalloc.start()
    try:
        cli._fill_csv(sink, ("n", "k", "edges", "coeff_index", "value"), cli._tree_chunks(u))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 5 * 2**19
    assert peak <= 2**20, peak


@pytest.mark.parametrize("text", [REF_TEXT, COMPLEX_TEXT, RADIUS_TEXT], ids=["real", "complex", "radius"])
def test_transmission_csvs_match_row_oracle(text, tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(text)
    prefix = str(tmp_path / "t_")
    assert cli.main(["transmission", "--config", str(path), "--out-prefix", prefix]) == 0
    sol = solve_transmission(parse_config(str(path)).transmission())
    tree_rows = []
    for n, gen in enumerate(expanded(sol.u_rows).coeffs):
        for k in range(gen.shape[0]):
            for j in range(gen.shape[1]):
                tree_rows.append((n, k, j, gen[k, j]))
    trace = trace0(sol.u_ext)
    expected = {
        "g.csv": _oracle_csv(("level", "cell", "value"),
                             [(sol.g.level, K, v) for K, v in enumerate(sol.g.values)]),
        "tree.csv": _oracle_csv(("n", "k", "coeff_index", "value"), tree_rows),
        "exterior.csv": _oracle_csv(("k", "re", "im"),
                                    [(int(k), c.real, c.imag)
                                     for k, c in zip(ks(trace), trace.coeffs)]),
    }
    for name, data in expected.items():
        written = (tmp_path / ("t_" + name)).read_bytes()
        assert (_per_edge(written) if name == "tree.csv" else written) == data, name
    if text is COMPLEX_TEXT:
        assert b"j" in expected["g.csv"] and b"j" in expected["tree.csv"]
    # 16 p^N = 128 modes; the top one is an aliased zero and gets no row
    assert len(trace.coeffs) == 255


def test_a_source_tree_beyond_the_leaf_budget_writes_its_stored_rows(tmp_path, capsys):
    # p=2, N=3, source depth 30: generation 31 has 2^31 edges, beyond the
    # leaf budget of 2^23, in 8 stored rows; each generation's records tile
    # its edges in order, per coefficient
    path = tmp_path / "deep.ini"
    path.write_text(REF_TEXT + "[transmission]\nsource_depth = 30\n")
    assert cli.main(["transmission", "--config", str(path), "--out-prefix", str(tmp_path / "t_")]) == 0
    header, rows = _read_csv(tmp_path / "t_tree.csv")
    assert header == ["n", "k", "edges", "coeff_index", "value"]
    tiles = {}
    for n, k, edges, j, _ in rows:
        tiles.setdefault((int(n), int(j)), []).append((int(k), int(edges)))
    assert {n for n, _ in tiles} == set(range(32))
    for (n, _), tile in tiles.items():
        starts = [k for k, _ in tile] + [2**n]
        assert starts[0] == 0 and all(k + edges == after for (k, edges), after in zip(tile, starts[1:]))


@pytest.mark.parametrize("text, message", [
    (REF_TEXT.replace("N = 3", "N = 24"), "2^24 leaves exceed the tree budget"),
    (REF_TEXT + "[transmission]\nsource_depth = 62\n", "the 2^63 edges of generation 63 exceed"),
], ids=["interface-level", "edge-index"])
def test_oversize_transmission_exits_2_before_assembly(text, message, tmp_path, monkeypatch, capsys):
    def assemble(cfg):
        raise AssertionError("a refused problem was assembled")

    monkeypatch.setattr(cli, "assemble_system", assemble)
    path = tmp_path / "big.ini"
    path.write_text(text)
    assert cli.main(["transmission", "--config", str(path), "--out-prefix", str(tmp_path / "t_")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("problem too large: ") and message in err, err
    assert sorted(os.listdir(tmp_path)) == ["big.ini"]


def test_matrix_and_table_csvs_match_row_oracle(ref_config, tmp_path):
    out = tmp_path / "dtn.csv"
    assert cli.main(["tree-dtn", "--config", ref_config, "--depth", "2", "--out", str(out)]) == 0
    m = condensed_dtn(TreeParams(p=2, ell=0.5, omega=0.4), 2)
    rows = [(i, j, m[i, j]) for i in range(m.shape[0]) for j in range(m.shape[1])]
    assert out.read_bytes() == _oracle_csv(("row", "col", "value"), rows)

    out = tmp_path / "symbol.csv"
    with pytest.warns(CutoffTooSmall):
        assert cli.main(["exterior-dtn", "--radius", "0.7", "--level", "3",
                         "--modes", "9", "--out", str(out)]) == 0
    symbol = dtn_symbol(0.7, 9)
    rows = [(int(k), symbol.coeff(int(k))) for k in np.arange(-9, 10)]
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
