"""Tests of the benchmark itself: its checkers, deadlines and inputs.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

Run from the repository root; the program is imported from ./src.
"""

import copy
import hashlib
import json
import random
import signal
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refs  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

MODS = run.load_program()
MEASURED = ("closed-form", "form-oracle", "form-calculus", "cli-oneshot")


def _ctx():
    return SimpleNamespace(root=run.ROOT, out=run.OUT, python=sys.executable, child_env=run.child_env(), mods=MODS, tracer=None)


def _fingerprint(items) -> str:
    """Digest of everything an item's calls and checks were built from."""
    parts = []
    for it in items:
        for fn in (it.run, it.check):
            cells = [c.cell_contents for c in fn.__closure__ or ()]
            parts.append(repr((it.id, fn.__defaults__, cells)))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class TestInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in MEASURED:
            make = W.WORKLOADS[name].make
            with self.subTest(workload=name):
                self.assertEqual(_fingerprint(make(7, _ctx())), _fingerprint(make(7, _ctx())))
                self.assertNotEqual(_fingerprint(make(7, _ctx())), _fingerprint(make(8, _ctx())))


class TestCheckers(unittest.TestCase):
    def test_wrong_degree_is_rejected(self):
        item = next(it for it in W.make_form_oracle(1, _ctx()) if it.id == "pullback:n=3:fields=1,0")
        (dim, deg), formula = out = item.run(_ctx())
        self.assertEqual(item.check(out), [])
        self.assertTrue(item.check(((dim, deg + 1), formula)))
        self.assertTrue(item.check(((dim + 1, deg), formula)))
        self.assertTrue(item.check(((dim, deg), formula + 1)))

    def test_table_containment(self):
        frozen = W._load_ref("closed_form.json")
        ref = refs.decode_table(frozen[W.pfaff_key(2, 5, (-2, -2, -2), 1000)]["table"])
        self.assertEqual(refs.table_problems(ref, ref), [])
        q, t = next((q, t) for q, row in ref["rows"].items() for t, (lo, hi) in row.items() if hi is not None and hi > lo)
        lo, hi = ref["rows"][q][t]

        def changed(v):
            new = copy.deepcopy(ref)
            new["rows"][q][t] = v
            return refs.table_problems(new, ref)

        self.assertEqual(changed((lo + 1, hi)), [], "a sound tightening must pass")
        self.assertEqual(changed((hi, hi)), [], "pinning inside the interval must pass")
        self.assertTrue(changed((lo, hi + 1)), "a loosening must fail")
        self.assertTrue(changed((hi + 1, hi + 1)), "a value outside the interval must fail")
        qx, tx = next((q, t) for q, row in ref["rows"].items() for t, (a, b) in row.items() if a == b and a > 0)
        new = copy.deepcopy(ref)
        new["rows"][qx][tx] = (ref["rows"][qx][tx][0] - 1,) * 2
        self.assertTrue(refs.table_problems(new, ref), "an exact value must match exactly")
        w = next(q for q, w in ref["windows"].items() if w not in (None, refs.EMPTY) and w[0] is not None)
        new = copy.deepcopy(ref)
        new["windows"][w] = (None, ref["windows"][w][1])
        self.assertTrue(refs.table_problems(new, ref), "widening a window to a ray must fail")

    def test_cli_golden(self):
        golden = W._load_ref("cli.json")
        key = "degree --n 3 --r 1 --d-list 1"
        self.assertEqual(golden[key]["stdout"], "15\n")
        self.assertEqual(W.check_cli("exact", golden[key], 0, "15\n"), [])
        self.assertTrue(W.check_cli("exact", golden[key], 0, "16\n"))
        self.assertTrue(W.check_cli("exact", golden[key], 1, "15\n"))
        self.assertTrue(W.check_cli("verdict", {"rc": 0, "decision": "holds"}, 0, '{"decision": "fails"}'))
        self.assertEqual(W.check_cli("verdict", {"rc": 0, "decision": "undetermined"}, 0, '{"decision": "holds"}'), [])
        self.assertTrue(W.check_cli("upper", {"rc": 0, "regularity": 5, "exact": False}, 0, "6\n"))
        self.assertEqual(W.check_cli("upper", {"rc": 0, "regularity": 5, "exact": False}, 0, "4\n"), [])
        self.assertTrue(W.check_cli("upper", {"rc": 0, "regularity": 5, "exact": True}, 0, "4\n"))

    def test_golden_cli_run(self):
        key = "chase --pfaff=-2,-2,-2 --r 2 --json"
        rc, stdout = W.run_cli(_ctx(), key.split())
        self.assertEqual(W.check_cli("table", W._load_ref("cli.json")[key], rc, stdout), [])


class TestDeadlines(unittest.TestCase):
    def setUp(self):
        self.old = signal.signal(signal.SIGALRM, run._on_alarm)

    def tearDown(self):
        signal.signal(signal.SIGALRM, self.old)

    def test_overrun_is_a_timeout(self):
        def spin(ctx):
            while True:
                pass

        out = run.run_item(W.Item("spin", spin, lambda out: []), _ctx(), 0.2)
        self.assertEqual((out.status, out.seconds), ("timeout", 0.2))

    def test_raising_item_fails_at_its_deadline(self):
        def boom(ctx):
            raise AssertionError("planted")

        out = run.run_item(W.Item("boom", boom, lambda out: []), _ctx(), 3.0)
        self.assertEqual((out.status, out.seconds), ("error", 3.0))
        wrong = run.run_item(W.Item("wrong", lambda ctx: 1, lambda out: ["planted"]), _ctx(), 3.0)
        self.assertEqual((wrong.status, wrong.seconds), ("wrong", 3.0))


class TestNominalSpeed(unittest.TestCase):
    def test_scaling(self):
        k = run.KERNEL_NOMINAL_S
        self.assertEqual(run.at_nominal_speed([1.0, 2.0], [2 * k] * 3), [0.5, 1.0])
        spiked = run.at_nominal_speed([1.0] * 7, [k] * 3 + [9 * k] + [k] * 4)
        self.assertEqual(spiked, [1.0] * 7, "one slow kernel sample is outvoted")


class TestReferences(unittest.TestCase):
    def test_codec_round_trip(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 6)
            rows = {}
            for q in range(n + 1):
                row, t = {}, rng.randint(-50, 0)
                for piece in range(rng.randint(0, 3)):
                    coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, n + 1))]
                    kind = rng.choice(("exact", "interval", "open"))
                    for _ in range(rng.randint(1, 30)):
                        v = abs(sum(c * t**i for i, c in enumerate(coeffs)))
                        row[t] = (v, v) if kind == "exact" else (v, v + 3) if kind == "interval" else (v, None)
                        t += 1
                    t += rng.randint(0, 2)
                rows[q] = row
            windows = {q: rng.choice((None, refs.EMPTY, (-3, None), (None, 4), (0, 2))) for q in range(n + 1)}
            tab = {"n": n, "rows": rows, "windows": windows}
            self.assertEqual(refs.decode_table(json.loads(json.dumps(refs.encode_table(tab)))), tab)

    def test_closed_forms(self):
        self.assertEqual(refs.bott(3, 1, 0, 1), 1)
        self.assertEqual(refs.bott(2, 0, 2, 0), 6)
        self.assertEqual(refs.bott(2, 0, -3, 2), 1)
        self.assertEqual(refs.porteous_degree(3, (-2, -2)), 2)
        for n in range(3, 8):
            for k in range(1, n):
                for d in range(1, 6):
                    d_list = [d - 1] + [-1] * (n - k - 1)
                    self.assertEqual(refs.split_degree(n, d_list), refs.geometric_degree(k, d))

    def test_benchmark_json_agrees(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside bench/")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(W.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
