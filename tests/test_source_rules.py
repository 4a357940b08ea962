"""Rules on the package source, checked on every run."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "treedisk"


def test_no_check_depends_on_assert():
    # python -O strips assert statements, so every check must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SRC.is_dir() and not found, "assert statements in src/treedisk: %s" % ", ".join(found)
