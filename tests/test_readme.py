"""The README's examples, run as written.

Every `$ singscheme ...` line of the README is run in-process through
main(argv), in a directory holding the two files the examples read, and
its stdout must equal, line for line, the lines the README shows under
it (up to the next blank line, comment, command or fence). Every
```python block is executed in a fresh namespace.
"""

import shlex
from pathlib import Path

import pytest

from singscheme.cli import main
from singscheme.cohomology import table, tangent_sheaf

README = Path(__file__).resolve().parents[1] / "README.md"
TWO_LINES_FORM = "z0*z2 dz1^dz3 - z0*z3 dz1^dz2 - z1*z2 dz0^dz3 + z1*z3 dz0^dz2\n"


def readme_examples():
    """(command, expected stdout lines) for each `$ singscheme` line."""
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("$ singscheme "):
            continue
        shown = []
        for out in lines[i + 1:]:
            if not out.strip() or out.startswith(("#", "$ ", "```")):
                break
            shown.append(out)
        examples.append((line[2:], shown))
    return examples


def readme_python_blocks():
    """The body of each ```python block of the README."""
    blocks, body = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if body is None:
            if line.strip() == "```python":
                body = []
        elif line.strip() == "```":
            blocks.append("\n".join(body) + "\n")
            body = None
        else:
            body.append(line)
    return blocks


EXAMPLES = readme_examples()
PYTHON_BLOCKS = readme_python_blocks()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 12


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[cmd for cmd, _ in EXAMPLES])
def test_readme_command_output(command, shown, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SINGSCHEME_COLOR", "0")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t4.table.json").write_text(table(tangent_sheaf(4), -6, -1).dumps())
    (tmp_path / "two_lines.form").write_text(TWO_LINES_FORM)
    code = main(shlex.split(command)[1:])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.splitlines() == shown


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
