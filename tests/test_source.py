"""Source-level rules for the package itself."""

import ast
import importlib
import importlib.util
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


def test_no_private_imports_between_modules():
    # A name a module keeps private has no contract with its siblings; what
    # another module needs is published under a public name.
    found = []
    for path in sorted(Path(singscheme.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert found == []


def test_sibling_imports_are_used():
    # A name imported from a sibling module and never referenced is either
    # dead or a re-export; an alias of that kind hides which module owns
    # the name.
    found = []
    for path in sorted(Path(singscheme.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module
            for alias in node.names
            if (alias.asname or alias.name) not in used
        ]
    assert found == []


def test_traced_benchmark_names_exist():
    # bench/run.py --trace 1 wraps these functions by name; a rename in the
    # package would otherwise only show up as a broken traced run.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"singscheme.{layer}"), name, None))
    ]
    assert missing == []
