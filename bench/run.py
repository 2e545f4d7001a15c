"""Run one benchmark workload against the singscheme sources in ./src and
print its metrics; the last stdout line is the JSON result.

    python3 bench/run.py --workload closed-form --seed 1 --seconds 24 --trace 0

Run from the repository root (the checkout). With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` the run is split into an
untraced half and a traced half and the result holds the per-layer metrics,
including the traced/untraced wall ratio. Spans and per-item outcomes are
written under ``.bench_out/``. The exit code is 0 whenever the workload
ran, also when answers were wrong (``correct`` is then false), and 2 when
the program cannot be set up, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
SPAWN_PROBES = 5
MODULES = ("chow", "cohomology", "chase", "criteria", "forms", "hilbert", "cli")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cohomology.table_s": "s",
    "cohomology.sym_power_s": "s",
    "cohomology.sym_twists": "count",
    "cohomology.busy_s": "s",
    "chase.en_complex_s": "s",
    "chase.solve_s": "s",
    "chase.entries": "count",
    "chase.us_per_entry": "us",
    "chase.interval_entries": "count",
    "chase.exact_ratio": "ratio",
    "chase.busy_s": "s",
    "criteria.busy_s": "s",
    "criteria.undetermined": "count",
    "chow.busy_s": "s",
    "forms.chain_s": "s",
    "forms.contract_s": "s",
    "forms.minors_s": "s",
    "forms.parse_s": "s",
    "forms.print_s": "s",
    "forms.terms_out": "count",
    "forms.busy_s": "s",
    "hilbert.hf_s_total": "s",
    "hilbert.hf_max_s": "s",
    "hilbert.matrix_entries": "count",
    "hilbert.t_reached": "count",
    "hilbert.busy_s": "s",
    "cli.spawn_s": "s",
    "cli.import_s": "s",
    "cli.parse_s": "s",
    "cli.main_s": "s",
    "trace.overhead_ratio": "ratio",
}


# On a shared machine the host's speed drifts by tens of percent over
# minutes, and every timing drifts with it: on a shared 2-core machine one
# form-calculus pass took 2.2 s to 4.5 s within three minutes. A short
# pure-Python kernel, free of singscheme code, is timed between consecutive
# items (and set-up probes), and each time is reported at the speed where
# the kernel takes KERNEL_NOMINAL_S. An item's slowdown is the mean of the
# kernel times just before and after it, divided by KERNEL_NOMINAL_S. The
# median slowdown of a window of SMOOTH consecutive items, centred on the
# item where the sequence allows, divides its raw time, so one disturbed
# kernel sample moves nothing. Raw times stay in the result file under
# .bench_out/.
KERNEL_NOMINAL_S = 0.008
SMOOTH = 5
_KERNEL_FRACS = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}


def kernel_seconds() -> float:
    """Time one run of the calibration kernel: small-int arithmetic, then
    dict updates with Fraction products, the two kinds of work singscheme does."""
    t0 = perf_counter()
    s = 0
    for i in range(10000):
        s += i * i % 7
    acc = {}
    for (a, b), c in _KERNEL_FRACS.items():
        for (d, e), f in _KERNEL_FRACS.items():
            if (a + d) % 3 == 0:
                acc[a + d, b + e] = acc.get((a + d, b + e), 0) + c * f
    return perf_counter() - t0


def at_nominal_speed(raw: list[float], kernels: list[float]) -> list[float]:
    """Scale raw[i], timed between kernels[i] and kernels[i + 1], to the
    nominal speed."""
    slow = [(a + b) / (2 * KERNEL_NOMINAL_S) for a, b in zip(kernels, kernels[1:])]
    last = max(0, len(slow) - SMOOTH)
    scaled = []
    for i, r in enumerate(raw):
        start = min(max(0, i - SMOOTH // 2), last)
        scaled.append(r / statistics.median(slow[start : start + SMOOTH]))
    return scaled


class SetupError(Exception):
    pass


class ItemTimeout(BaseException):
    """Raised by SIGALRM at an item's deadline; a BaseException so that the
    program's own ``except Exception`` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


@dataclass
class Outcome:
    id: str
    status: str  # ok | wrong | error | timeout
    seconds: float  # failures count at the deadline
    detail: str = ""
    raw_s: float | None = None  # the measured time, before scaling to nominal speed


# ---------------------------------------------------------------- set-up


def load_program() -> SimpleNamespace:
    """Import singscheme from this checkout's src/, never from elsewhere."""
    if not (SRC / "singscheme" / "__init__.py").is_file():
        raise SetupError(f"no singscheme package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        mods = {m: importlib.import_module(f"singscheme.{m}") for m in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import singscheme: {exc}") from exc
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"singscheme was imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["SINGSCHEME_COLOR"] = "0"
    return env


def setup(workload: str, seed: int):
    """Import the program, make the inputs and load the references."""
    ctx = SimpleNamespace(
        root=ROOT, out=OUT, python=sys.executable, child_env=child_env(), mods=load_program(), tracer=None
    )
    OUT.mkdir(exist_ok=True)
    try:
        items = workloads.WORKLOADS[workload].make(seed, ctx)
    except (OSError, KeyError, ValueError) as exc:
        raise SetupError(f"cannot build the {workload} inputs: {type(exc).__name__}: {exc}") from exc
    return ctx, items


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        _, err = proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SetupError(f"set-up probe failed: {err.strip()}")
    return t1 - t0


def probe_cli(env: dict) -> tuple[float, float]:
    """Median seconds for a bare interpreter to start and exit, and for
    ``import singscheme.cli`` inside one."""
    timed_import = "import time; t = time.perf_counter(); import singscheme.cli; print(time.perf_counter() - t)"
    spawn, imp = [], []
    for _ in range(SPAWN_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        spawn.append(perf_counter() - t0)
        out = subprocess.run(
            [sys.executable, "-c", timed_import], cwd=ROOT, env=env, check=True, capture_output=True, text=True
        )
        imp.append(float(out.stdout))
    return statistics.median(spawn), statistics.median(imp)


# ---------------------------------------------------------------- measuring


def run_item(item, ctx, deadline: float) -> Outcome:
    if ctx.tracer is not None:
        ctx.tracer.item = item.id
        ctx.tracer.stack.clear()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        t0 = perf_counter()
        try:
            out = item.run(ctx)
        finally:
            seconds = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        return Outcome(item.id, "timeout", deadline, f"no answer within {deadline:g} s")
    except Exception as exc:  # a raising item is a failed item, never a crash
        return Outcome(item.id, "error", deadline, f"{type(exc).__name__}: {exc}")
    try:
        problems = item.check(out)
    except Exception as exc:
        problems = [f"checker raised {type(exc).__name__}: {exc}"]
    if problems:
        return Outcome(item.id, "wrong", deadline, "; ".join(problems[:3]))
    return Outcome(item.id, "ok", seconds)


def run_passes(items, ctx, deadline: float, seconds: float) -> list[list[Outcome]]:
    """Whole passes over the fixed item list, at least one, and no new pass
    once the last pass's duration would carry it past `seconds`. Times of
    answered items are then scaled to nominal speed."""
    passes = []
    kernels = [kernel_seconds()]
    start = perf_counter()
    while True:
        p0 = perf_counter()
        outs = []
        for it in items:
            outs.append(run_item(it, ctx, deadline))
            kernels.append(kernel_seconds())
        passes.append(outs)
        if perf_counter() - start + (perf_counter() - p0) > seconds:
            break
    flat = [o for outs in passes for o in outs]
    for o, scaled in zip(flat, at_nominal_speed([o.seconds for o in flat], kernels)):
        if o.status == "ok":
            o.raw_s, o.seconds = o.seconds, scaled
    return passes


def pass_wall(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, ceil(p * len(ordered)) - 1)]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def summary_lines(passes, header) -> list[str]:
    lines = [header]
    by_id = {}
    for outs in passes:
        for o in outs:
            by_id.setdefault(o.id, []).append(o)
    for item_id, outs in by_id.items():
        bad = [o for o in outs if o.status != "ok"]
        med = statistics.median(o.seconds for o in outs)
        note = f"  {bad[0].status}: {bad[0].detail}" if bad else ""
        lines.append(f"  {item_id:<48} {med * 1000:10.1f} ms  x{len(outs)}{note}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    try:
        ctx, items = setup(args.workload, args.seed)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        signal.signal(signal.SIGALRM, _on_alarm)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
        if args.trace:
            plain = run_passes(items, ctx, wl.deadline_s, args.seconds / 2)
            tracer = ctx.tracer = spans.Tracer()
            restore = tracer.install()
            try:
                traced = run_passes(items, ctx, wl.deadline_s, args.seconds / 2)
            finally:
                restore()
                ctx.tracer = None
            passes = plain + traced
            metrics = tracer.metrics(len(traced))
            metrics["cli.spawn_s"], metrics["cli.import_s"] = probe_cli(ctx.child_env)
            metrics["trace.overhead_ratio"] = statistics.median(map(pass_wall, traced)) / statistics.median(
                map(pass_wall, plain)
            )
            tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json", meta)
            units = PER_LAYER
        else:
            passes = run_passes(items, ctx, wl.deadline_s, args.seconds)
            # Each item counts once, at its median over the passes: a
            # percentile over all samples would land on the slowest or the
            # fastest sample of one item whenever 0.5 or 0.9 falls at the
            # edge of that item's block of samples.
            typical = [statistics.median(o.seconds for o in outs) for outs in zip(*passes)]
            metrics = {
                "wall_s": statistics.median(map(pass_wall, passes)),
                "latency_p50_ms": 1000 * nearest_rank(typical, 0.5),
                "latency_p90_ms": 1000 * nearest_rank(typical, 0.9),
                "peak_rss_mb": peak_rss_mb(children=args.workload == "cli-oneshot"),
            }
            kernels, probes = [kernel_seconds()], []
            for _ in range(SETUP_PROBES):
                probes.append(probe_setup(args.workload, args.seed))
                kernels.append(kernel_seconds())
            metrics["setup_s"] = statistics.median(at_nominal_speed(probes, kernels))
            meta["setup_raw_s"] = probes
            units = END_TO_END
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    outcomes = [o for outs in passes for o in outs]
    failed = sum(o.status != "ok" for o in outcomes)
    scaled = [o.raw_s / o.seconds for o in outcomes if o.raw_s]
    meta["host_slowdown"] = statistics.median(scaled) if scaled else None
    header = (
        f"{args.workload} seed={args.seed} trace={args.trace} python={meta['python']} nproc={meta['nproc']}"
        f" passes={len(passes)} items/pass={len(items)} samples={len(outcomes)} failed={failed}"
        f" host-slowdown={meta['host_slowdown'] or 0:.3f} (raw time / reported time)"
    )
    lines = summary_lines(passes, header)
    for name in units:
        lines.append(f"  {name:<28} {metrics[name]:.6g} {units[name]}")
    print("\n".join(lines))
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**meta, "metrics": metrics, "outcomes": [o.__dict__ for o in outcomes]}, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
