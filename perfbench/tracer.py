"""Spans around the public functions of each treedisk layer.

The tracer lives entirely in the benchmark: it replaces module attributes of
the imported package with wrappers for the duration of one traced op and puts
the originals back afterwards.  Nothing machine-wide is traced.

A span name `<module>.<function>` has one primary site, the attribute its
callers look up.  Every other `treedisk.*` module global bound to the same
function object is wrapped under the same name, unless that binding is the
primary site of another span.  That is how `dtn.interior_factorization` (the
factorization behind D_N) stays apart from `calculus.interior_factorization`
(the one behind the tree source and harmonic solves), although both names
are bound to the same function.

A site that does not exist yields no span and no error, so the benchmark runs
unchanged on commits that delete or rename a wrapped function; the time then
shows up in the self time of the caller's span.
"""

import functools
import sys
import time
from collections import defaultdict

# span name -> primary site "module:attribute[.attribute]"
SPANS = {
    "cli.main": "treedisk.cli:main",
    "config.parse_config": "treedisk.config:parse_config",
    "transmission.assemble_system": "treedisk.transmission:assemble_system",
    "transmission.solve_interface": "treedisk.transmission:solve_interface",
    "transmission.reconstruct": "treedisk.transmission:reconstruct",
    "transmission.plasmonic_pencil": "treedisk.transmission:plasmonic_pencil",
    "exterior.dtn_galerkin": "treedisk.exterior:dtn_galerkin",
    "exterior.solve_exterior_dirichlet": "treedisk.exterior:solve_exterior_dirichlet",
    "dtn.condensed_dtn": "treedisk.dtn:condensed_dtn",
    "dtn.compress": "treedisk.dtn:compress",
    "dtn.interior_factorization": "treedisk.dtn:interior_factorization",
    "calculus.interior_factorization": "treedisk.calculus:interior_factorization",
    "calculus.solve_poisson_zero_trace": "treedisk.calculus:solve_poisson_zero_trace",
    "calculus.solve_harmonic_dirichlet": "treedisk.calculus:solve_harmonic_dirichlet",
    "calculus.leaf_flux": "treedisk.calculus:leaf_flux",
    "circle.cell_integrals": "treedisk.circle:cell_integrals",
    "circle.to_fourier": "treedisk.circle:PiecewiseConstantFn.to_fourier",
    "tree.build_condensed": "treedisk.tree:build_condensed",
}

# span name -> (counter name, function of the wrapped call's result)
COUNTERS = {
    "tree.build_condensed": ("tree.leaves_built", lambda tree: getattr(tree, "n_leaves", 0)),
}


def _resolve(site):
    """(owner, attribute name) of a site, or None when it does not exist."""
    module_name, _, path = site.partition(":")
    owner = sys.modules.get(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


def find_sites(spans=SPANS, package="treedisk"):
    """Map each span name to the (owner, attribute) pairs to wrap.

    Returns (sites, absent): absent lists the span names whose primary site
    is missing.
    """
    primaries = {}
    absent = []
    for name, site in spans.items():
        resolved = _resolve(site)
        if resolved is None:
            absent.append(name)
        else:
            primaries[name] = resolved
    claimed = {(id(owner), attr) for owner, attr in primaries.values()}
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    sites = {}
    for name, (owner, attr) in primaries.items():
        target = getattr(owner, attr)
        found = [(owner, attr)]
        for module in modules:
            for key, value in vars(module).items():
                if value is target and (id(module), key) not in claimed:
                    found.append((module, key))
                    claimed.add((id(module), key))
        sites[name] = found
    return sites, absent


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, op id, raised)."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self.op_id = None
        self._stack = []
        self._installed = []

    def enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, False])
        self._stack.append(index)
        return index

    def leave(self, index, raised=False):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = raised
        self._stack.pop()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.leave(index, raised=True)
                raise
            self.leave(index)
            if counter is not None:
                self.counters[self.op_id][counter[0]] += counter[1](result)
            return result

        return traced

    def install(self, sites):
        for name, pairs in sites.items():
            for owner, attr in pairs:
                original = getattr(owner, attr)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per op id: {span name: [self seconds, calls, raised calls]}.

    A span's self time is its duration minus the part of that interval its
    child spans cover.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
    for index, (name, start, end, _, op_id, raised) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out[op_id][name]
        entry[0] += (end - start) - covered
        entry[1] += 1
        entry[2] += int(raised)
    return out
