"""Run configuration for the command line tools.

The format is flat INI text: `key = value` lines where the key carries its
section as a dotted prefix (`tree.ell = 0.5`).  A bracketed `[section]`
header sets the prefix for the bare keys that follow, so the two spellings

    [tree]
    ell = 0.5

and `tree.ell = 0.5` are equivalent.  `#` and `;` start comments.  Unknown
keys, malformed lines, and unparsable values are rejected with their line
number.
"""

import cmath
import dataclasses
import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .circle import FourierFn
from .errors import ConfigError
from .exterior import RadialSource, check_mode_budget
from .tree import TreeParams


def _parse_int(s):
    return int(s, 10)


def _parse_float(s):
    return float(s)


def _parse_complex(s):
    return complex(s.replace(" ", ""))


def _parse_list(s, parse_item):
    items = [parse_item(part.strip()) for part in s.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return items


def _parse_int_list(s):
    return _parse_list(s, _parse_int)


def _parse_float_list(s):
    return _parse_list(s, _parse_float)


# key -> (parser, default); required keys carry the sentinel _REQUIRED
_REQUIRED = object()

_KEYS = {
    "tree.p": (_parse_int, _REQUIRED),
    "tree.ell": (_parse_float, _REQUIRED),
    "tree.omega": (_parse_float, _REQUIRED),
    "tree.L0": (_parse_float, 1.0),
    "tree.omega0": (_parse_float, 1.0),
    "tree.N1": (_parse_int, 0),
    "interface.radius": (_parse_float, 1.0),
    "interface.N": (_parse_int, 3),
    "transmission.alpha1": (_parse_complex, complex(1.0)),
    "transmission.alpha0": (_parse_complex, complex(0.0)),
    "transmission.c_root": (_parse_complex, complex(0.0)),
    "transmission.source_depth": (_parse_int, None),
    "transmission.levels": (_parse_int_list, None),
    "transmission.pencil_count": (_parse_int, 8),
    "transmission.manufactured_mode": (_parse_int, None),
    "transmission.manufactured_amplitude": (_parse_complex, complex(1.0)),
    "source.tree.constant": (_parse_complex, complex(0.0)),
    "source.exterior.r_max": (_parse_float, 2.0),
}

# patterned keys: override corridor entries and exterior source profiles
_LENGTH_OVERRIDE = re.compile(r"^tree\.length_override\.(\d+)\.(\d+)$")
_WEIGHT_OVERRIDE = re.compile(r"^tree\.weight_override\.(\d+)\.(\d+)$")
_PROFILE = re.compile(r"^source\.exterior\.profile\.(-?\d+)$")
_PATTERNS = [
    (_LENGTH_OVERRIDE, _parse_float),
    (_WEIGHT_OVERRIDE, _parse_float),
    (_PROFILE, _parse_float_list),
]

_SECTIONS = ("tree", "interface", "transmission", "source.tree", "source.exterior")


@dataclass
class RunConfig:
    """Parsed and validated key/value configuration."""

    values: dict
    path: str | None
    text: str

    def get(self, key):
        if key in self.values:
            return self.values[key]
        if key in _KEYS:
            default = _KEYS[key][1]
            if default is _REQUIRED:
                raise ConfigError("missing required key %r" % key)
            return default
        raise ConfigError("unknown key %r" % key)

    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def echo(self):
        """All effective key/value pairs, sorted, for the run manifest; parse_text,
        which builds every RunConfig, refuses a config without a required key."""
        out = {key: self.get(key) for key in _KEYS}
        out.update(self.values)
        return sorted((k, v) for k, v in out.items() if v is not None)

    def params(self) -> TreeParams:
        length_overrides, weight_overrides = {}, {}
        for key, val in self.values.items():
            m = _LENGTH_OVERRIDE.match(key)
            if m:
                length_overrides[(int(m.group(1)), int(m.group(2)))] = val
            m = _WEIGHT_OVERRIDE.match(key)
            if m:
                weight_overrides[(int(m.group(1)), int(m.group(2)))] = val
        return TreeParams(
            p=self.get("tree.p"), ell=self.get("tree.ell"), omega=self.get("tree.omega"),
            L0=self.get("tree.L0"), omega0=self.get("tree.omega0"), N1=self.get("tree.N1"),
            length_overrides=length_overrides, weight_overrides=weight_overrides)

    def exterior_source(self) -> RadialSource | None:
        terms = []
        for key, val in self.values.items():
            m = _PROFILE.match(key)
            if m:
                terms.append((int(m.group(1)), val))
        if not terms:
            return None
        return RadialSource(R=self.get("interface.radius"),
                            r_max=self.get("source.exterior.r_max"), terms=terms)

    def manufactured(self) -> FourierFn | None:
        mode = self.get("transmission.manufactured_mode")
        if mode is None:
            return None
        check_mode_budget(abs(mode))
        amp = self.get("transmission.manufactured_amplitude")
        modes = {mode: amp} if mode == 0 else {mode: amp, -mode: amp}
        return FourierFn.from_modes(self.get("interface.radius"), modes)

    def transmission(self, level: int | None = None):
        """Build the TransmissionConfig at the given level (default interface.N).

        source.tree.constant becomes the tree source as one constant row per
        generation of the source tree, set by dataclasses.replace on a config
        that has checked the budgets, so no tree is built and the rows are
        within the tree budget.
        """
        from .transmission import TransmissionConfig

        if level is None:
            level = self.get("interface.N")
        cfg = TransmissionConfig(
            params=self.params(), level=level, alpha1=self.get("transmission.alpha1"),
            alpha0=self.get("transmission.alpha0"), c_root=self.get("transmission.c_root"),
            exterior_source=self.exterior_source(),
            source_depth=self.get("transmission.source_depth"), R=self.get("interface.radius"))
        const = self.get("source.tree.constant")
        if const != 0:
            cfg = dataclasses.replace(cfg, tree_source=np.full((cfg.source_depth + 2, 1), const))
        return cfg


def parse_text(text: str, origin: str = "<config>") -> RunConfig:
    values = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError("%s, line %d: unknown section [%s]" % (origin, lineno, section))
            continue
        if "=" not in line:
            raise ConfigError("%s, line %d: expected 'key = value', got %r"
                              % (origin, lineno, raw.strip()))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        candidates = ["%s.%s" % (section, key)] if section else []
        if "." in key:
            candidates.append(key)
        full, parser = None, None
        for cand in candidates:
            if cand in _KEYS:
                full, parser = cand, _KEYS[cand][0]
                break
            for pattern, pparser in _PATTERNS:
                if pattern.match(cand):
                    full, parser = cand, pparser
                    break
            if parser is not None:
                break
        if parser is None:
            shown = candidates[0] if candidates else key
            raise ConfigError("%s, line %d: unknown key %r" % (origin, lineno, shown))
        if full in values:
            raise ConfigError("%s, line %d: duplicate key %r" % (origin, lineno, full))
        try:
            parsed = parser(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError("%s, line %d: bad value for %r: %s"
                              % (origin, lineno, full, exc)) from exc
        items = parsed if isinstance(parsed, list) else [parsed]
        if not all(cmath.isfinite(x) for x in items if isinstance(x, (float, complex))):
            raise ConfigError("%s, line %d: non-finite value for %r" % (origin, lineno, full))
        values[full] = parsed
    for key, (_, default) in _KEYS.items():
        if default is _REQUIRED and key not in values:
            raise ConfigError("%s: missing required key %r" % (origin, key))
    return RunConfig(values=values, path=None if origin == "<config>" else origin, text=text)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %r: %s" % (path, exc)) from exc
    return parse_text(text, origin=path)
