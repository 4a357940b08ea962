"""Flat INI config parsing and the objects it builds."""

import numpy as np
import pytest

from oracles import mode
from treedisk.circle import FourierFn
from treedisk.config import parse_config, parse_text
from treedisk.errors import ConfigError

BASE = """
[tree]
p = 2
ell = 0.5
omega = 0.4
"""


def test_sectioned_and_flat_spellings_agree():
    flat = "tree.p = 2\ntree.ell = 0.5\ntree.omega = 0.4\n"
    assert parse_text(BASE).values == parse_text(flat).values


def test_defaults_and_overridden_values():
    cfg = parse_text(BASE + "[interface]\nN = 5\n")
    assert cfg.get("tree.p") == 2
    assert cfg.get("tree.L0") == 1.0
    assert cfg.get("interface.N") == 5
    assert cfg.get("interface.radius") == 1.0
    assert cfg.get("transmission.alpha1") == 1.0 + 0j
    assert cfg.get("transmission.levels") is None


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\ntree.p = 2  # trailing\n; alt comment\n\ntree.ell = 0.5\ntree.omega = 0.4\n"
    cfg = parse_text(text)
    assert cfg.get("tree.p") == 2


def test_value_types():
    text = BASE + """
[transmission]
alpha1 = 1+2j
alpha0 = 0.25
levels = 3, 4, 5
source_depth = 7
[source.exterior]
r_max = 2.5
profile.1 = 1.0, -0.5
"""
    cfg = parse_text(text)
    assert cfg.get("transmission.alpha1") == 1 + 2j
    assert cfg.get("transmission.alpha0") == 0.25 + 0j
    assert cfg.get("transmission.levels") == [3, 4, 5]
    assert cfg.get("transmission.source_depth") == 7
    assert cfg.get("source.exterior.profile.1") == [1.0, -0.5]


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=r"line 2.*tree\.elll"):
        parse_text("tree.p = 2\ntree.elll = 0.5\n")


def test_mode_cutoff_key_rejected():
    # the exterior cutoff is fixed at 16 p^N; a key that would not change it is refused
    with pytest.raises(ConfigError, match=r"unknown key 'interface\.mode_cutoff'"):
        parse_text(BASE + "[interface]\nmode_cutoff = 64\n")


def test_run_keys_rejected():
    # nothing reads a seed or an output directory, so neither key is accepted
    with pytest.raises(ConfigError, match=r"line 3: unknown key 'run\.seed'"):
        parse_text("tree.p = 2\ntree.ell = 0.5\nrun.seed = 1\ntree.omega = 0.4\n")
    with pytest.raises(ConfigError, match=r"unknown section \[run\]"):
        parse_text(BASE + "[run]\nout_dir = out\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[trees\]"):
        parse_text("[trees]\np = 2\n")


def test_duplicate_key_rejected_across_spellings():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_text(BASE + "tree.ell = 0.6\n")


@pytest.mark.parametrize("key,alias", [
    ("source.exterior.profile.1", "source.exterior.profile.01"),
    ("source.exterior.profile.0", "source.exterior.profile.-0"),
    ("source.exterior.profile.-2", "source.exterior.profile.-02"),
    ("source.exterior.profile.1", "source.exterior.profile.\u0661"),  # an Arabic-Indic 1
    ("tree.length_override.1.0", "tree.length_override.01.0"),
    ("tree.weight_override.1.0", "tree.weight_override.1.00"),
])
def test_patterned_keys_have_one_spelling(key, alias):
    # a second spelling of one entry was summed (profiles) or overwrote the
    # first (overrides) without a word; only the %d spelling is a key
    text = "tree.p = 2\ntree.ell = 0.5\ntree.omega = 0.4\ntree.N1 = 2\n%s = 0.5\n" % key
    assert parse_text(text).get(key) in (0.5, [0.5])
    with pytest.raises(ConfigError, match=r"line 6: unknown key '%s'" % alias.replace(".", r"\.")):
        parse_text(text + "%s = 0.25\n" % alias)


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="bad value"):
        parse_text("tree.p = two\ntree.ell = 0.5\ntree.omega = 0.4\n")


@pytest.mark.parametrize("line", ["transmission.levels =", "transmission.levels = ,",
                                  "source.exterior.profile.1 =", "source.exterior.profile.-2 = , "])
def test_empty_list_value_rejected(line):
    # an empty level list crashed the convergence study, and an empty
    # profile was accepted as no source at all
    with pytest.raises(ConfigError, match=r"line 6: bad value for '[^']+': empty list"):
        parse_text(BASE + "%s\n" % line)


def test_non_finite_value_rejected():
    with pytest.raises(ConfigError, match="non-finite"):
        parse_text("tree.p = 2\ntree.ell = inf\ntree.omega = 0.4\n")
    # both parts of a complex value and every list item are checked too
    for line in ["transmission.alpha1 = nan", "transmission.c_root = 1+infj",
                 "source.exterior.profile.1 = inf, 1"]:
        with pytest.raises(ConfigError, match="line 4: non-finite"):
            parse_text("tree.p = 2\ntree.ell = 0.5\ntree.omega = 0.4\n%s\n" % line)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required"):
        parse_text("tree.p = 2\ntree.ell = 0.5\n")


def test_line_without_equals_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_text("[tree]\np 2\n")


def test_get_unknown_key_raises():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_text(BASE).get("tree.nope")


def test_params_with_overrides():
    text = BASE + "tree.N1 = 1\n[tree]\nlength_override.0.0 = 1.25\nweight_override.0.0 = 0.8\n"
    params = parse_text(text).params()
    assert params.N1 == 1
    assert params.length_overrides == {(0, 0): 1.25}
    assert params.weight_overrides == {(0, 0): 0.8}


def test_exterior_source_built_from_profiles():
    cfg = parse_text(BASE)
    assert cfg.exterior_source() is None
    text = BASE + "[source.exterior]\nr_max = 3.0\nprofile.1 = 1.0\nprofile.-1 = 1.0\n"
    source = parse_text(text).exterior_source()
    assert source.r_max == 3.0
    assert sorted(k for k, _ in source.terms) == [-1, 1]


def test_manufactured_datum():
    assert parse_text(BASE).manufactured() is None
    cfg = parse_text(BASE + "transmission.manufactured_mode = 2\n"
                            "transmission.manufactured_amplitude = 0.5\n")
    g = cfg.manufactured()
    assert isinstance(g, FourierFn)
    assert mode(g, 2) == 0.5 and mode(g, -2) == 0.5
    g0 = parse_text(BASE + "transmission.manufactured_mode = 0\n").manufactured()
    assert mode(g0, 0) == 1.0 and abs(mode(g0, 1)) == 0.0


def test_transmission_builder_defaults():
    cfg = parse_text(BASE + "[interface]\nN = 4\n")
    tcfg = cfg.transmission()
    assert tcfg.level == 4
    assert tcfg.source_depth == 8
    assert tcfg.tree_source is None and tcfg.exterior_source is None


def test_transmission_builder_constant_tree_source():
    cfg = parse_text(BASE + "[source.tree]\nconstant = 2.0\n[transmission]\nsource_depth = 5\n")
    tcfg = cfg.transmission(level=3)
    assert tcfg.source_depth == 5
    assert tcfg.tree_source is not None
    # one row per generation 0..6: the condensed source tree carries one
    # generation beyond source_depth
    assert tcfg.tree_source.shape == (7, 1)
    assert np.all(tcfg.tree_source == 2.0)


def test_sha256_and_echo(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE)
    cfg = parse_config(str(path))
    assert cfg.path == str(path)
    assert cfg.sha256() == parse_text(BASE).sha256()
    echoed = dict(cfg.echo())
    assert echoed["tree.p"] == 2 and echoed["interface.N"] == 3
    assert "transmission.levels" not in echoed


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/run.ini")
