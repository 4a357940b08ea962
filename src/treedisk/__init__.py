"""Self-similar metric trees coupled to a disk exterior through
Dirichlet-to-Neumann maps."""

__version__ = "0.1.0"

# the command line module `cli` is not imported here: `python -m treedisk.cli`
# would otherwise find it in sys.modules before running it as __main__; nor is
# `acceptance`, which only `treedisk selftest` and the tests run, and which
# they import themselves
from . import calculus, circle, config, dtn, errors, exterior, transmission, tree

__all__ = ["calculus", "circle", "config", "dtn", "errors", "exterior", "transmission", "tree",
           "__version__"]
