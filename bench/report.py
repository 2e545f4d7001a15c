"""Run every measured workload once and print one table of their metrics.

    python3 bench/report.py --seed 1 --seconds 24 [--trace 1]

Each workload runs as its own ``bench/run.py`` process, one after another.
The failure ratio is ``failed / attempted`` from each result line.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MEASURED = ("closed-form", "form-oracle", "form-calculus", "cli-oneshot")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    results = {}
    for w in MEASURED:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{w}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        results[w] = json.loads(proc.stdout.splitlines()[-1])
    first = next(iter(results.values()))
    names = list(first["metrics"])
    width = max(map(len, names + ["fail_ratio"])) + 2
    print(" " * width + "".join(f"{w:>16}" for w in results))
    for name in names:
        unit = first["metrics"][name]["unit"]
        cells = "".join(f"{r['metrics'][name]['value']:16.6g}" for r in results.values())
        print(f"{name:<{width}}{cells}  {unit}")
    ratios = "".join(f"{r['failed'] / r['attempted']:16.3g}" for r in results.values())
    print(f"{'fail_ratio':<{width}}{ratios}  failed/attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
