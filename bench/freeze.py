"""Record the frozen references in bench/ref/ from the singscheme in ./src.

    python3 bench/freeze.py

The references are the answers of the commit they were frozen from. Every
later commit is checked against them by containment (see refs.py), so
re-freezing is a change of the benchmark itself and belongs in its own
change. Where a closed form exists, the recorded answer is first checked
against it here, so a wrong answer cannot be frozen.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import refs
import run
import workloads as W


def _dump(name: str, data: dict) -> None:
    path = W.REF_DIR / name
    W.REF_DIR.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path.relative_to(run.ROOT)} ({path.stat().st_size} bytes)")


def _encode(tab: dict) -> dict:
    enc = refs.encode_table(tab)
    if refs.decode_table(json.loads(json.dumps(enc))) != tab:
        raise SystemExit("table encoding does not round-trip")
    return enc


def freeze_closed_form(mods) -> dict:
    out = {}
    for key, kind, args in W.closed_form_catalog():
        ans = W.chase_answer(W.chase_call(mods, kind, args))
        out[key] = dict(ans, table=_encode(ans["table"]))
        print(f"  {key}: acm={ans['acm']} buchsbaum={ans['buchsbaum']} regularity={ans['regularity']}")
    return out


def _atoms(spec: str, n: int):
    """The sheaf grammar of the README, for the cohomology cross-check."""
    atoms = []
    for chunk in spec.split("+"):
        m = re.fullmatch(r"(?:O\((-?\d+)\)|Om\((\d+),(-?\d+)\)|(T))(?:\^(\d+))?", chunk)
        mult = int(m.group(5) or 1)
        if m.group(4):
            atoms.append((n - 1, n + 1, mult))
        elif m.group(1) is not None:
            atoms.append((0, int(m.group(1)), mult))
        else:
            atoms.append((int(m.group(2)), int(m.group(3)), mult))
    return atoms


def _cross_check(slot: str, argv, stdout: str) -> None:
    """Compare a recorded answer with a closed form, where one exists."""
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    if slot == "degree":
        d = [int(x) for x in opt["--d-list"].split(",")]
        want = f"{refs.split_degree(int(opt['--n']), d)}\n"
    elif slot == "pullback-degree":
        want = f"{refs.geometric_degree(int(opt['--k']), int(opt['--d']))}\n"
    elif slot == "cohomology":
        n = int(opt["--n"])
        atoms = _atoms(opt["--sheaf"], n)
        lo, hi = map(int, argv[-1].split("=")[1].split(".."))
        lines = stdout.splitlines()[2:]
        want_rows = [[refs.sheaf_h(n, atoms, q, t) for t in range(lo, hi + 1)] for q in range(n + 1)]
        if [[int(x) for x in line.split()[1:]] for line in lines] != want_rows:
            raise SystemExit(f"{' '.join(argv)}: table differs from Bott's formula")
        return
    elif slot == "form-pullback":
        want_line = f"split-formula degree: {refs.split_degree(int(opt['--n']), [0, -1])} (matches)"
        if want_line not in stdout.splitlines():
            raise SystemExit(f"{' '.join(argv)}: expected {want_line!r}")
        return
    elif slot == "form-sing":
        if "scheme: dim 1, degree 2" not in stdout.splitlines():
            raise SystemExit("two disjoint lines must have dim 1, degree 2")
        return
    else:
        return
    if stdout != want:
        raise SystemExit(f"{' '.join(argv)}: {stdout!r} != closed form {want!r}")


def freeze_cli() -> dict:
    inputs = run.OUT / "inputs"
    W.write_cli_inputs(inputs)
    env = run.child_env()
    tables = {}
    out = {}
    for slot, variants in W.cli_catalog().items():
        for i, (key, argv, rule) in enumerate(variants):
            argv = [a.replace("{inputs}", str(inputs)) for a in argv]
            proc = subprocess.run(
                [sys.executable, "-m", "singscheme.cli", *argv], cwd=run.ROOT, env=env, capture_output=True, text=True
            )
            entry = {"rc": proc.returncode}
            if rule == "exact":
                _cross_check(slot, argv, proc.stdout)
                entry["stdout"] = proc.stdout
            elif rule == "table":
                tab = refs.plain_table(json.loads(proc.stdout))
                tables[i] = tab
                entry["table"] = _encode(tab)
            elif rule == "verdict":
                entry["decision"] = json.loads(proc.stdout)["decision"]
            else:
                # the regularity variants chase the same specs, in the same order
                entry["regularity"] = int(proc.stdout)
                entry["exact"] = not refs.has_intervals(tables[i])
            out[key] = entry
            print(f"  {key}: rc={proc.returncode}")
    forms = {out[k]["stdout"] for k, _, _ in W.cli_catalog()["form-sing"]}
    if len(forms) != 1:
        raise SystemExit("form sing output depends on the variable order")
    return out


def main() -> int:
    mods = run.load_program()
    _dump("closed_form.json", freeze_closed_form(mods))
    _dump("cli.json", freeze_cli())
    return 0


if __name__ == "__main__":
    sys.exit(main())
