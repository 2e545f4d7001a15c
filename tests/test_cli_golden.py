"""Byte-identical CLI output, replayed from tests/cli_golden.json.

The golden file holds stdout, stderr and the exit code of every command
that bench/ref/cli.json pins, of every `$ singscheme` line of the README,
of `chase` in text, --json and --explain on each chase spec of the
benchmark, with and without --twists=-3..3, and on Pfaff data of dimension
4, `--pfaff=-2,-2 --r 4`. An output over GOLDEN_INLINE
bytes is stored as its sha256 digest. Each command runs in-process
through main(argv), in a directory holding the files the commands read.

An entry is re-recorded only for an intended output change, named in
CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import permutations
from pathlib import Path

import pytest

from singscheme.cli import main
from singscheme.cohomology import table, tangent_sheaf

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "cli_golden.json"
GOLDEN_INLINE = 8192
TWO_LINES = "z0*z2 dz1^dz3 - z0*z3 dz1^dz2 - z1*z2 dz0^dz3 + z1*z3 dz0^dz2"


def write_inputs(directory: Path) -> None:
    """The files the commands read, relative to the working directory: the
    README's, and the two-lines form under each renaming of its variables,
    two_lines_<perm>.form with z<i> renamed z<perm[i]>, as the benchmark
    writes them."""
    (directory / "t4.table.json").write_text(table(tangent_sheaf(4), -6, -1).dumps())
    (directory / "two_lines.form").write_text(TWO_LINES + "\n")
    for perm in map("".join, permutations("0123")):
        text = re.sub(r"z(\d)", lambda m: f"z{perm[int(m.group(1))]}", TWO_LINES)
        (directory / f"two_lines_{perm}.form").write_text(text + "\n")


def run(command: str) -> dict:
    """{"stdout", "stderr", "rc"} of one command, run in the current directory."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(shlex.split(command))
        except SystemExit as exc:
            rc = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "rc": rc}


def stored(result: dict) -> dict:
    """result with each output over GOLDEN_INLINE bytes as its digest."""
    return {
        key: {"sha256": hashlib.sha256(v.encode()).hexdigest()} if isinstance(v, str) and len(v.encode()) > GOLDEN_INLINE else v
        for key, v in result.items()
    }


def commands() -> list[str]:
    bench = json.loads((ROOT / "bench" / "ref" / "cli.json").read_text(encoding="utf-8"))
    out = [cmd.replace("{inputs}/", "") for cmd in bench]
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    out += [line.removeprefix("$ singscheme ") for line in readme if line.startswith("$ singscheme ")]
    chases = [cmd.removesuffix(" --json") for cmd in bench if cmd.startswith("chase ")]
    for base in chases:
        for twists in ("", " --twists=-3..3"):
            out += [f"{base}{twists}{mode}" for mode in ("", " --json", " --explain")]
    out += [f"chase --pfaff=-2,-2 --r 4{mode}" for mode in ("", " --json", " --explain")]
    return list(dict.fromkeys(out))


def record(directory: Path) -> dict:
    write_inputs(directory)
    return {cmd: stored(run(cmd)) for cmd in commands()}


GOLDEN_ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_golden_covers_every_command():
    assert sorted(GOLDEN_ENTRIES) == sorted(commands())


@pytest.mark.parametrize("command", sorted(GOLDEN_ENTRIES))
def test_cli_output_is_unchanged(command, tmp_path, monkeypatch):
    monkeypatch.setenv("SINGSCHEME_COLOR", "0")
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    assert stored(run(command)) == GOLDEN_ENTRIES[command]


if __name__ == "__main__":
    import os
    import tempfile

    os.environ["SINGSCHEME_COLOR"] = "0"
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        entries = record(Path(tmp))
        os.chdir(ROOT)
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries, {GOLDEN.stat().st_size} bytes", file=sys.stderr)
