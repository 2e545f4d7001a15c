"""The traced run: spans around each call into singscheme's public
functions, recorded from the benchmark's side only.

``install`` replaces the listed functions in every loaded ``singscheme``
module that binds them (so calls between modules are caught too) and
returns a function that puts the originals back. A span is
``[name, start, end, parent, item]``; spans stay in memory and are written
once, when the run ends. Small hot helpers (``normalize_atom``,
``bott_dim``, polynomial arithmetic) are left unwrapped: wrapping them would
cost more than the work they do.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

CHILD_MARK = "bench-cli-child "

TRACED = {
    "chow": ("singular_degree_formula", "pullback_degree", "porteous_singular_degree"),
    "cohomology": ("table", "sym_power", "ext_power_split", "tensor_with_split"),
    "chase": (
        "chase", "windowed_chase", "en_complex_tangent", "en_complex_pfaff",
        "tangent_ideal_table", "pfaff_ideal_table",
    ),
    "criteria": (
        "acm_check", "buchsbaum_numeric", "regularity", "beilinson_rank_bound",
        "horrocks", "evans_griffith", "kpr",
    ),
    "forms": (
        "volume_contract_chain", "contract", "wedge", "minors_ideal",
        "coefficient_ideal", "parse_form", "form_str",
    ),
    "hilbert": ("hilbert_function", "scheme_degree_dim", "hilbert_profile"),
}


def _hf_matrix_entries(ideal, t):
    """Rows x columns of the Macaulay matrix behind hilbert_function(I, t),
    from the generator degrees."""
    nv = ideal.nvars
    cols = comb(t + nv - 1, nv - 1)
    rows = sum(comb(t - d + nv - 1, nv - 1) for d in ideal.degrees if d <= t)
    return rows * cols


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.counts = defaultdict(float)
        self.t_reached = 0
        self.cli_children = []

    def _count(self, name, args, out):
        c = self.counts
        if name == "cohomology.sym_power":
            c["cohomology.sym_twists"] += len(out.twists)
        elif name == "chase.windowed_chase":
            c["chase.entries"] += len(out.entries)
            c["chase.interval_entries"] += sum(1 for v in out.entries.values() if not v.is_exact)
        elif name == "forms.volume_contract_chain":
            c["forms.terms_out"] += sum(len(p.terms) for _, p in out.coeffs)
        elif name == "hilbert.hilbert_function":
            c["hilbert.matrix_entries"] += _hf_matrix_entries(*args)
            self.t_reached = max(self.t_reached, args[1])
        elif name.startswith("criteria.") and getattr(out, "decision", None) == "undetermined":
            c["criteria.undetermined"] += 1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, self.stack[-1] if self.stack else -1, self.item]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            self._count(name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "singscheme" or k.startswith("singscheme.")]
        undo = []
        for layer, names in TRACED.items():
            home = sys.modules[f"singscheme.{layer}"]
            for fname in names:
                fn = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    if m.__dict__.get(fname) is fn:
                        undo.append((m, fname, fn))
                        setattr(m, fname, wrapped)

        def restore():
            for m, fname, fn in undo:
                setattr(m, fname, fn)

        return restore

    def child_report(self, stderr: str) -> None:
        """Read the timings a cli_child.py process left on its last stderr line."""
        for line in reversed(stderr.splitlines()):
            if line.startswith(CHILD_MARK):
                self.cli_children.append(json.loads(line[len(CHILD_MARK):]))
                return

    # ------------------------------------------------------------ metrics

    def self_times(self):
        """(inclusive, self) seconds per span."""
        incl = [s[2] - s[1] for s in self.spans]
        covered = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                covered[s[3]] += incl[i]
        return incl, [a - b for a, b in zip(incl, covered)]

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, as totals per pass of the workload."""
        incl, own = self.self_times()
        by_name = defaultdict(float)
        busy = defaultdict(float)
        hf_max = 0.0
        for s, dt, st in zip(self.spans, incl, own):
            by_name[s[0]] += dt
            busy[s[0].split(".")[0]] += st
            if s[0] == "hilbert.hilbert_function":
                hf_max = max(hf_max, dt)
        c = self.counts
        entries = c["chase.entries"]
        cli = self.cli_children

        def per_pass(x):
            return x / passes

        def mean(key):
            return sum(r[key] for r in cli) / len(cli) if cli else 0.0

        m = {
            "cohomology.table_s": per_pass(by_name["cohomology.table"]),
            "cohomology.sym_power_s": per_pass(by_name["cohomology.sym_power"]),
            "cohomology.sym_twists": per_pass(c["cohomology.sym_twists"]),
            "chase.en_complex_s": per_pass(by_name["chase.en_complex_tangent"] + by_name["chase.en_complex_pfaff"]),
            "chase.solve_s": per_pass(by_name["chase.windowed_chase"]),
            "chase.entries": per_pass(entries),
            "chase.us_per_entry": 1e6 * by_name["chase.windowed_chase"] / entries if entries else 0.0,
            "chase.interval_entries": per_pass(c["chase.interval_entries"]),
            "chase.exact_ratio": (entries - c["chase.interval_entries"]) / entries if entries else 0.0,
            "criteria.undetermined": per_pass(c["criteria.undetermined"]),
            "forms.chain_s": per_pass(by_name["forms.volume_contract_chain"]),
            "forms.contract_s": per_pass(by_name["forms.contract"]),
            "forms.minors_s": per_pass(by_name["forms.minors_ideal"]),
            "forms.parse_s": per_pass(by_name["forms.parse_form"]),
            "forms.print_s": per_pass(by_name["forms.form_str"]),
            "forms.terms_out": per_pass(c["forms.terms_out"]),
            "hilbert.hf_s_total": per_pass(by_name["hilbert.hilbert_function"]),
            "hilbert.hf_max_s": hf_max,
            "hilbert.matrix_entries": per_pass(c["hilbert.matrix_entries"]),
            "hilbert.t_reached": self.t_reached,
            "cli.parse_s": mean("parse_s"),
            "cli.main_s": mean("main_s"),
        }
        for layer in TRACED:
            m[f"{layer}.busy_s"] = per_pass(busy[layer])
        return m

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "spans": self.spans, "cli_children": self.cli_children}, fh)
