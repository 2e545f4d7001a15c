"""Source-level rules for the package itself."""

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from collections import Counter
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


def test_no_none_comparison_on_interval_ends():
    # An open end of a Window or a DimValue is -inf or inf, so a clip or a
    # hull is one min and one max; comparing a .lo or .hi with None would
    # bring back the encoding that needed a branch at every end.
    found = []
    for path in sorted(Path(singscheme.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Attribute) and x.attr in ("lo", "hi") for x in operands) and any(
                isinstance(x, ast.Constant) and x.value is None for x in operands
            ):
                found.append(f"{path.name}:{node.lineno}")
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


# The sibling modules each package module may import from, following the
# pipeline chow -> cohomology -> chase -> criteria, with forms -> hilbert
# beside it; None lets cli import any module, which it does inside its
# handlers. A module missing here may import no sibling.
LAYERS = {
    "__init__": set(),
    "chow": set(),
    "cohomology": {"chow"},
    "criteria": {"cohomology"},
    "chase": {"chow", "cohomology"},
    "forms": {"chow"},
    "hilbert": {"forms"},
    "cli": None,
}


def test_module_layers():
    found = []
    for path in sorted(Path(singscheme.__file__).parent.glob("*.py")):
        allowed = LAYERS.get(path.stem, set())
        if allowed is None:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} -> {module}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for module in ([node.module] if node.module else [alias.name for alias in node.names])
            if module not in allowed
        ]
    assert found == []


def test_cli_reaches_the_ideal_chase_through_one_road():
    # chase.ideal_chase picks the Eagon-Northcott complex and dim Z; a CLI
    # that builds a complex or a chase itself would pick them a second time.
    tree = ast.parse((Path(singscheme.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    found = [
        f"cli.py:{node.lineno} {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in ("en_complex_tangent", "en_complex_pfaff", "windowed_chase")
    ]
    assert found == []


ROOT = Path(__file__).resolve().parents[1]


def _traced():
    """bench/spans.py TRACED: {layer: names} that bench/run.py --trace 1 wraps."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_benchmark_names_exist():
    # bench/run.py --trace 1 wraps these functions by name; a rename in the
    # package would otherwise only show up as a broken traced run.
    missing = [
        f"{layer}.{name}"
        for layer, names in _traced().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"singscheme.{layer}"), name, None))
    ]
    assert missing == []


def _mods_layer(node):
    """<layer> when node reads ctx.mods.<layer> or mods.<layer>, else None."""
    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name) and base.id == "mods" or isinstance(base, ast.Attribute) and base.attr == "mods":
            return node.attr
    return None


def _workload_reads():
    """(reads, ambiguous): every (layer, name, line) that bench/workloads.py
    reads as ctx.mods.<layer>.<name>, directly or through a local alias of
    ctx.mods.<layer> (co, C, ch, ...), and the aliases bound to two layers."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    reads, ambiguous = set(), []
    for func in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        bound: dict[str, set] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    for name, value in pairs:
                        if isinstance(name, ast.Name):
                            bound.setdefault(name.id, set()).add(_mods_layer(value))
        aliases = {name: layers.pop() for name, layers in bound.items() if layers != {None} and len(layers) == 1}
        ambiguous += [f"{func.name}: {name}" for name, layers in bound.items() if len(layers) > 1 and layers - {None}]
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                layer = _mods_layer(node.value)
                if layer is None and isinstance(node.value, ast.Name):
                    layer = aliases.get(node.value.id)
                if layer is not None:
                    reads.add((layer, node.attr, node.lineno))
    return reads, ambiguous


def test_benchmark_workload_names_exist():
    # a rename or deletion in the package would otherwise only show up as
    # failed benchmark items
    reads, ambiguous = _workload_reads()
    assert ambiguous == []
    assert ("cohomology", "tangent_sheaf") in {(layer, name) for layer, name, _ in reads}
    missing = [
        f"workloads.py:{line} {layer}.{name}"
        for layer, name, line in sorted(reads)
        if not hasattr(importlib.import_module(f"singscheme.{layer}"), name)
    ]
    assert missing == []


def _names(tree) -> set:
    """Every name that tree reads, as a Name, an attribute or an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _defined(node) -> list:
    """The names a module-level statement defines, dunders left out."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [target.id for target in targets if isinstance(target, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


# Module-level definitions that only the tests reach. It stays empty: a
# test-only definition belongs in tests/, not in the package.
TEST_ONLY: list[str] = []


def _package_trees() -> dict:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(singscheme.__file__).parent.glob("*.py"))
    }


def _readme_blocks() -> list:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [ast.parse(block) for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)]


def _parser_strings(trees) -> set:
    """The strings of cli.build_parser, as the set_defaults of acm-check
    names acm_check."""
    build_parser = next(node for node in trees["cli"].body if getattr(node, "name", None) == "build_parser")
    return {node.value for node in ast.walk(build_parser) if isinstance(node, ast.Constant)}


def _attribute_reads(tree) -> Counter:
    """How often tree reads each name as an attribute."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_definitions_are_reached_outside_the_tests():
    # A definition is reached when src/ uses it outside its own body, when
    # the benchmark traces or reads it, when a README python block names
    # it, or when the CLI names it in a string of build_parser.
    trees = _package_trees()
    reached = _parser_strings(trees).union(*map(_names, _readme_blocks()))
    reached |= {name for names in _traced().values() for name in names}
    reached |= {name for _, name, _ in _workload_reads()[0]}
    # how many module-level statements of src/ name each name
    statements = [(module, node, _names(node)) for module, tree in trees.items() for node in tree.body]
    uses = Counter(name for _, _, names in statements for name in names)
    found = [
        f"{module}.{name}"
        for module, node, names in statements
        for name in _defined(node)
        if name not in reached and uses[name] == (name in names)
    ]
    assert sorted(found) == TEST_ONLY


def test_class_members_are_reached_outside_the_tests():
    # A public method, property or classmethod of a public module-level
    # class is reached when its name is read as an attribute in src/
    # outside its own body, anywhere under bench/, in a README python
    # block, or in a string of build_parser. Members are matched by name
    # alone, so a name that two classes share is reached through either.
    trees = _package_trees()
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "bench").rglob("*.py"))]
    reached = _parser_strings(trees).union(*map(_attribute_reads, bench + _readme_blocks()))
    reads = sum(map(_attribute_reads, trees.values()), Counter())
    found = [
        f"{module}.{cls.name}.{member.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        and member.name not in reached
        and reads[member.name] == _attribute_reads(member)[member.name]
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # Importing dataclasses costs every one-shot command about 10 ms, as it
    # pulls in inspect, ast, dis and tokenize, and each dataclass another
    # millisecond to build; records are namedtuple or __slots__ classes.
    found = []
    for path in sorted(Path(singscheme.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []


# Imports every package module and runs one chase --json through cli.main,
# under -S so that no .pth file of the environment loads modules first.
_START_UP_CHILD = """
import contextlib, io, os, sys
sys.path.insert(0, sys.argv[1])
import singscheme.cli
for name in os.listdir(os.path.join(sys.argv[1], "singscheme")):
    if name.endswith(".py"):
        __import__("singscheme." + name[:-3])
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = singscheme.cli.main(["chase", "--pfaff=-2,-2,-2", "--r", "2", "--json"])
print(rc, bool(out.getvalue()), sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_start_up_loads_neither_dataclasses_nor_inspect():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _START_UP_CHILD, str(Path(singscheme.__file__).parents[1])],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "[]"]


# Runs four text commands, then one chase --json, through cli.main under
# -S, and prints after each whether json has been loaded.
_JSON_CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import singscheme.cli
for argv in (
    ["degree", "--n", "3", "--r", "1", "--d-list", "1"],
    ["cohomology", "--n", "3", "--sheaf", "O(-1)+O(-2)", "--twists=-1..2"],
    ["regularity", "--from-chase", "pfaff:1:-2,-2"],
    ["form", "sing", "--input", sys.argv[2]],
    ["chase", "--pfaff=-2,-2,-2", "--r", "2", "--json"],
):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = singscheme.cli.main(argv)
    print(argv[0], rc, bool(out.getvalue()), "json" in sys.modules)
"""


def test_only_json_output_loads_json(tmp_path):
    # json costs a one-shot command about 2.5 ms; only the commands that
    # read or write JSON import it
    form = tmp_path / "two_lines.form"
    form.write_text("z0*z2 dz1^dz3 - z0*z3 dz1^dz2 - z1*z2 dz0^dz3 + z1*z3 dz0^dz2\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _JSON_CHILD, str(Path(singscheme.__file__).parents[1]), str(form)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "degree 0 True False",
        "cohomology 0 True False",
        "regularity 0 True False",
        "form 0 True False",
        "chase 0 True True",
    ]
