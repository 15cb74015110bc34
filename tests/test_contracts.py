"""Contract checks in the package must hold under `python -O`, which
strips `assert` statements, so the package may contain none."""

import ast
from pathlib import Path

import binomfactor


def test_package_has_no_assert():
    paths = sorted(Path(binomfactor.__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"
