"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import singscheme


def test_no_assert_statements():
    # `python -O` strips asserts, so a runtime check written as one would
    # silently vanish; checks in the package raise real exceptions.
    found = []
    for path in sorted(Path(singscheme.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
