"""The benchmark's workloads: seeded inputs, the calls into singscheme, and
the answer checks.

Every workload is a closed loop with one caller in one process: an item is
started only after the previous one has returned and been checked. The seed
picks the inputs; each workload's shape (which cases, how large) is fixed,
so that two seeds cost about the same and only the numbers differ.

An item's ``run`` is the timed call into the program and returns its output;
``check`` runs afterwards, untimed, and returns a list of problems (empty
when the answer is right). All calls go through module attributes
(``ctx.mods.chase.windowed_chase``), so the traced run can wrap them.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import refs

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "ref"


@dataclass
class Item:
    id: str
    run: object  # callable(ctx) -> output
    check: object  # callable(output) -> list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # callable(seed, ctx) -> list[Item]
    deadline_s: float


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _load_ref(name: str) -> dict:
    with open(REF_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


# ================================================================ closed-form
#
# The tangent half chases split tangent data F = O(s-3) + ... + O(s+2) of
# rank 6; a shift s changes every twist but not the number of Sym^j terms,
# so the seed moves the answers and not the cost. The Pfaff half chases
# split Pfaff data with twists in {-4,-3,-2} (the range where the data is
# consistent), queried over a wide twist range.

TANGENT_NS = (21, 24, 26)
TANGENT_SHIFTS = tuple(range(-3, 4))
PFAFF_SLOTS = ((1, 4, 1500), (2, 5, 1000), (3, 6, 600))  # (r, n, query radius)
PFAFF_TWISTS = (-4, -3, -2)


def tangent_key(n: int, shift: int) -> str:
    return f"tangent:n={n}:shift={shift}"


def pfaff_key(r: int, n: int, twists, radius: int) -> str:
    return f"pfaff:r={r}:n={n}:E={','.join(map(str, twists))}:R={radius}"


def closed_form_catalog():
    """Every (key, kind, args) the closed-form workload can draw."""
    out = []
    for n in TANGENT_NS:
        for s in TANGENT_SHIFTS:
            out.append((tangent_key(n, s), "tangent", (n, tuple(range(s - 3, s + 3)))))
    for r, n, radius in PFAFF_SLOTS:
        for tw in combinations_with_replacement(PFAFF_TWISTS, n - r):
            out.append((pfaff_key(r, n, tw, radius), "pfaff", (r, n, tw, radius)))
    return out


def chase_call(mods, kind: str, args):
    """The pipeline one closed-form case runs: chase, then the criteria."""
    C = mods.criteria
    if kind == "tangent":
        n, twists = args
        tab = mods.chase.tangent_ideal_table(mods.chow.SplitBundle(n, twists), n)
    else:
        r, n, twists, radius = args
        extra = [("I_Z", q, (-radius, radius)) for q in range(n + 1)]
        tab = mods.chase.pfaff_ideal_table(mods.chow.SplitBundle(n, twists), r, n, extra=extra)
    return tab, C.acm_check(tab).decision, C.buchsbaum_numeric(tab).decision, C.regularity(tab)


def chase_answer(out) -> dict:
    tab, acm, bb, reg = out
    return {"table": refs.plain_table(tab.to_json()), "acm": acm, "buchsbaum": bb, "regularity": reg}


def check_chase(ans: dict, ref: dict) -> list[str]:
    """Containment of the table, then the verdict and regularity rules."""
    problems = refs.table_problems(ans["table"], ref["table"])
    for name in ("acm", "buchsbaum"):
        if not refs.verdict_ok(ans[name], ref[name]):
            problems.append(f"{name}: {ans[name]} where the reference says {ref[name]}")
    exact = not refs.has_intervals(ref["table"])
    if not refs.regularity_ok(ans["regularity"], ref["regularity"], exact):
        problems.append(f"regularity {ans['regularity']} against reference {ref['regularity']}")
    return problems


def decode_chase_ref(entry: dict) -> dict:
    return dict(entry, table=refs.decode_table(entry["table"]))


def _sheaf_atoms(rng: random.Random, n: int):
    """Three atoms (p, k, mult): p = 0 is a line bundle O(k)."""
    return [(rng.choice((0, rng.randint(1, n - 1))), rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(3)]


def _make_sheaf(mods, n: int, atoms):
    co = mods.cohomology
    pairs = [(co.LineBundle(k) if p == 0 else co.CotangentPower(p, k), m) for p, k, m in atoms]
    return co.VirtualSheaf.from_pairs(n, pairs)


def _cohomology_item(rng: random.Random) -> Item:
    """cohomology.table rows on P^6..P^8, checked entry by entry by Bott."""
    sheaves = [(n, _sheaf_atoms(rng, n)) for n in (6, 7, 8)]
    lo, hi = -40, 40

    def run(ctx):
        return [ctx.mods.cohomology.table(_make_sheaf(ctx.mods, n, atoms), lo, hi).to_json() for n, atoms in sheaves]

    def check(out):
        problems = []
        for (n, atoms), data in zip(sheaves, out):
            tab = refs.plain_table(data)
            for q in range(n + 1):
                row = tab["rows"].get(q, {})
                if any(t not in row for t in range(lo, hi + 1)):
                    problems.append(f"P^{n} h^{q}: twists missing from [{lo}, {hi}]")
                for t in range(lo - 2 * n, hi + 2 * n + 1):
                    want = refs.sheaf_h(n, atoms, q, t)
                    if not refs.within((want, want), refs.value(tab, q, t)):
                        problems.append(f"P^{n} {atoms} h^{q}(t={t}) != {want}")
        return problems

    return Item("cohomology-rows", run, check)


def _criteria_item(rng: random.Random) -> Item:
    """Splitting criteria on split sums (all hold) and on T (Horrocks fails
    with the h^{n-1}(T(-n-1)) = 1 witness); the Beilinson bound on T is n."""
    splits = [(n, tuple(rng.randint(-5, 5) for _ in range(rng.randint(2, n)))) for n in range(4, 9)]

    def run(ctx):
        co, C = ctx.mods.cohomology, ctx.mods.criteria
        out = []
        for n, twists in splits:
            tab = co.table(co.VirtualSheaf.from_split(ctx.mods.chow.SplitBundle(n, twists)), -2 * n - 4, n + 4)
            try:
                k = C.kpr(tab, len(twists), n).decision
            except C.InapplicableError:
                k = "inapplicable"
            t_tab = co.table(co.tangent_sheaf(n), -n - 2, -1)
            h = C.horrocks(t_tab)
            out.append(
                (
                    C.horrocks(tab).decision,
                    C.evans_griffith(tab, len(twists), n).decision,
                    k,
                    h.decision,
                    [(q, t, v.lo, v.hi) for q, t, v in h.witnesses],
                    C.beilinson_rank_bound(t_tab, n),
                )
            )
        return out

    def check(out):
        problems = []
        for (n, twists), (hor, eg, k, t_hor, t_wit, bound) in zip(splits, out):
            limit = n - 1 if n % 2 == 0 else n - 2
            want_k = "holds" if len(twists) <= limit else "inapplicable"
            if (hor, eg, k) != ("holds", "holds", want_k):
                problems.append(f"split {twists} on P^{n}: {hor}/{eg}/{k}")
            if t_hor != "fails" or (n - 1, -n - 1, 1, 1) not in t_wit:
                problems.append(f"T on P^{n}: horrocks {t_hor} {t_wit}")
            if bound != n:
                problems.append(f"Beilinson bound on T_P^{n} is {bound}, not {n}")
        return problems

    return Item("split-criteria", run, check)


def _chow_item(rng: random.Random) -> Item:
    """The chow degree grid against the series written out in refs."""
    grid = [(n, r, tuple(rng.randint(0, 5) for _ in range(r))) for n in range(3, 10) for r in range(1, n)]
    pulls = [(n, k, d) for n in range(3, 10) for k in range(1, n) for d in range(1, 7)]
    pfaffs = [(n, tuple(rng.randint(-4, -2) for _ in range(rng.randint(1, n - 1)))) for n in range(3, 10)]

    def run(ctx):
        ch = ctx.mods.chow
        deg = [ch.singular_degree_formula(n, r, d) for n, r, d in grid]
        pb = [ch.pullback_degree(n, k, d) for n, k, d in pulls]
        por = []
        for n, tw in pfaffs:
            try:
                por.append(ch.porteous_singular_degree(n, ch.SplitBundle(n, tw)))
            except ch.PorteousInapplicableError:
                por.append(None)
        return deg, pb, por

    def check(out):
        deg, pb, por = out
        problems = [f"degree {c}: {v}" for c, v in zip(grid, deg) if v != refs.split_degree(c[0], c[2])]
        problems += [f"pullback {c}: {v}" for c, v in zip(pulls, pb) if v != refs.geometric_degree(c[1], c[2])]
        for (n, tw), v in zip(pfaffs, por):
            want = refs.porteous_degree(n, tw)
            if v != (want if want > 0 else None):
                problems.append(f"porteous P^{n} {tw}: {v} != {want}")
        return problems

    return Item("chow-grid", run, check)


def make_closed_form(seed: int, ctx) -> list[Item]:
    rng = _rng("closed-form", seed)
    frozen = _load_ref("closed_form.json")
    cases = []
    for n in TANGENT_NS:
        s = rng.choice(TANGENT_SHIFTS)
        cases.append((tangent_key(n, s), "tangent", (n, tuple(range(s - 3, s + 3)))))
    for r, n, radius in PFAFF_SLOTS:
        tw = tuple(sorted(rng.choice(PFAFF_TWISTS) for _ in range(n - r)))
        cases.append((pfaff_key(r, n, tw, radius), "pfaff", (r, n, tw, radius)))
    items = []
    for key, kind, args in cases:
        ref = decode_chase_ref(frozen[key])
        items.append(
            Item(
                key,
                lambda ctx, kind=kind, args=args: chase_call(ctx.mods, kind, args),
                lambda out, ref=ref: check_chase(chase_answer(out), ref),
            )
        )
    items += [_cohomology_item(rng), _criteria_item(rng), _chow_item(rng)]
    return items


# ================================================================ forms inputs


NONZERO = (-3, -2, -1, 1, 2, 3)


def random_poly(mods, rng: random.Random, nvars: int, degree: int, window: int | None = None, coeffs=NONZERO):
    """Homogeneous polynomial in the first `window` variables, coefficients
    drawn from `coeffs`; the default has no zero, so the term count does not
    depend on the seed."""
    window = nvars if window is None else window
    terms = {}
    for combo in combinations_with_replacement(range(window), degree):
        expo = [0] * nvars
        for i in combo:
            expo[i] += 1
        terms[tuple(expo)] = rng.choice(coeffs)
    return mods.forms.HomogeneousPoly.from_dict(nvars, terms)


def pullback_fields(mods, rng: random.Random, n: int, degrees, coeffs=NONZERO):
    """Fields of a linear pullback: nonconstant fields live in the first
    coordinates, each constant field is a remaining coordinate direction."""
    F = mods.forms
    nvars = n + 1
    window = nvars - sum(1 for d in degrees if d == 0)
    fields, direction = [], window
    for d in degrees:
        if d == 0:
            vec = [0] * nvars
            vec[direction] = 1
            direction += 1
            fields.append(F.constant_field(nvars, tuple(vec)))
        else:
            comps = tuple(
                random_poly(mods, rng, nvars, d, window, coeffs) if i < window else F.HomogeneousPoly.zero(nvars)
                for i in range(nvars)
            )
            fields.append(F.PolyVectorField(nvars, comps))
    return fields


# ================================================================ form-oracle


ORACLE_CASES = (
    (3, (1, 0)), (3, (1, 1)), (3, (2, 0)),
    (4, (1, 0, 0)), (4, (1, 1, 0)), (4, (2, 0, 0)),
    (5, (1, 0, 0, 0)), (5, (2, 0, 0, 0)),
)
CI_DEGREES = (2, 3, 4)
# Known defects, kept in their own workload: the Hilbert oracle asserts on
# (z0^d, z1^d) for d >= 5, and these two pullbacks do not finish.
DEFECT_CI_DEGREES = (5, 6, 7)
DEFECT_CASES = ((5, (1, 1)), (5, (2, 1, 0)))


def _flip_signs(mods, field, signs):
    """The field pulled back along z -> (signs[i] z_i)."""
    F = mods.forms

    def flip(poly, sign):
        coeffs = {}
        for expo, c in poly.terms:
            for e, s in zip(expo, signs):
                if e % 2 and s < 0:
                    c = -c
            coeffs[expo] = sign * c
        return F.HomogeneousPoly.from_dict(poly.nvars, coeffs)

    return F.PolyVectorField(field.nvars, tuple(flip(p, s) for p, s in zip(field.components, signs)))


def _pullback_item(rng: random.Random, mods, n: int, degrees) -> Item:
    # The fields are drawn once per case; the seed flips coordinate signs,
    # z_i -> -z_i. The ideal becomes I(s z), whose Macaulay matrices equal the
    # original ones up to the signs of rows and columns, so every seed costs
    # the same while the inputs differ. Redrawing the fields instead moves
    # the cost of the n=4 case by a third from seed to seed.
    base = pullback_fields(mods, random.Random(f"form-oracle-base:{n}:{degrees}"), n, degrees, range(-3, 4))
    signs = [rng.choice((-1, 1)) for _ in range(n + 1)]
    fields = [_flip_signs(mods, f, signs) for f in base]
    m = len(degrees)
    want = (m - 1, refs.split_degree(n, [d - 1 for d in degrees]))

    def run(ctx):
        F, H = ctx.mods.forms, ctx.mods.hilbert
        ideal = F.coefficient_ideal(F.volume_contract_chain(n, fields))
        formula = ctx.mods.chow.singular_degree_formula(n, m, tuple(d - 1 for d in degrees))
        return H.scheme_degree_dim(ideal), formula

    def check(out):
        (dim, deg), formula = out
        problems = []
        if (dim, deg) != want:
            problems.append(f"scheme (dim, degree) = {(dim, deg)}, expected {want}")
        if formula != want[1]:
            problems.append(f"split formula {formula}, expected {want[1]}")
        return problems

    return Item(f"pullback:n={n}:fields={','.join(map(str, degrees))}", run, check)


def _ci_item(d: int) -> Item:
    """(z0^d, z1^d) in three variables: d^2 points."""

    def run(ctx):
        F = ctx.mods.forms
        gens = (F.HomogeneousPoly.monomial(3, (d, 0, 0)), F.HomogeneousPoly.monomial(3, (0, d, 0)))
        return ctx.mods.hilbert.scheme_degree_dim(F.GradedIdeal(3, gens))

    def check(out):
        return [] if out == (0, d * d) else [f"(dim, degree) = {out}, expected {(0, d * d)}"]

    return Item(f"ci:d={d}", run, check)


def make_form_oracle(seed: int, ctx) -> list[Item]:
    rng = _rng("form-oracle", seed)
    items = [_pullback_item(rng, ctx.mods, n, deg) for n, deg in ORACLE_CASES]
    return items + [_ci_item(d) for d in CI_DEGREES]


def make_known_defects(seed: int, ctx) -> list[Item]:
    rng = _rng("known-defects", seed)
    items = [_ci_item(d) for d in DEFECT_CI_DEGREES]
    return items + [_pullback_item(rng, ctx.mods, n, deg) for n, deg in DEFECT_CASES]


# ================================================================ form-calculus

# (n, number of fields, field degree): a fixed subset of the acceptance
# corpus's shapes; the 50-case corpus itself takes far longer than a run.
CHAIN_SHAPES = (
    (2, 1, 2), (3, 1, 2), (3, 2, 1), (3, 2, 2), (4, 1, 2), (4, 2, 1),
    (4, 3, 1), (5, 1, 1), (5, 2, 1), (5, 3, 0), (5, 4, 0),
)
# (n, number of 1-forms, coefficient degree) for wedge / minors_ideal.
MINOR_SHAPES = ((3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 3, 1))


def _chain_item(rng: random.Random, mods, n: int, m: int, degree: int) -> Item:
    nvars = n + 1
    fields = [
        mods.forms.PolyVectorField(nvars, tuple(random_poly(mods, rng, nvars, degree) for _ in range(nvars)))
        for _ in range(m)
    ]

    def run(ctx):
        F = ctx.mods.forms
        omega = F.volume_contract_chain(n, fields)
        closures = [F.contract(omega, F.radial_field(nvars))] + [F.contract(omega, f) for f in fields]
        text = F.form_str(omega)
        back = F.parse_form(text, nvars)
        return omega, closures, text, back, F.form_str(back)

    def check(out):
        omega, closures, text, back, text2 = out
        problems = []
        if omega.is_zero or omega.k != n - m:
            problems.append(f"chain gave a {omega.k}-form (zero: {omega.is_zero})")
        if not all(c.is_zero for c in closures):
            problems.append("a closure contraction is nonzero")
        if back != omega or text2 != text:
            problems.append("form_str -> parse_form round trip changed the form")
        return problems

    return Item(f"chain:n={n}:m={m}:deg={degree}", run, check)


def _minors_item(rng: random.Random, mods, n: int, m: int, degree: int) -> Item:
    F = mods.forms
    nvars = n + 1
    forms = [
        F.PolyKForm.from_dict(nvars, 1, {(i,): random_poly(mods, rng, nvars, degree) for i in range(nvars)})
        for _ in range(m)
    ]

    def run(ctx):
        F = ctx.mods.forms
        ideal = F.minors_ideal(forms)
        wedge = forms[0]
        for f in forms[1:]:
            wedge = F.wedge(wedge, f)
        return ideal, wedge

    def check(out):
        ideal, wedge = out
        want = {p.content_normalized() for _, p in wedge.coeffs}
        problems = []
        if set(ideal.generators) != want:
            problems.append("maximal minors differ from the wedge coefficients")
        if any(d != m * degree for d in ideal.degrees):
            problems.append(f"minor degrees {ideal.degrees}, expected {m * degree}")
        return problems

    return Item(f"minors:n={n}:m={m}:deg={degree}", run, check)


def make_form_calculus(seed: int, ctx) -> list[Item]:
    rng = _rng("form-calculus", seed)
    items = [_chain_item(rng, ctx.mods, *shape) for shape in CHAIN_SHAPES]
    return items + [_minors_item(rng, ctx.mods, *shape) for shape in MINOR_SHAPES]


# ================================================================ cli-oneshot
#
# Each command runs as a fresh process. The seed picks one variant of each
# command; golden stdout and exit codes for every variant are frozen in
# ref/cli.json by freeze.py. Chase-derived commands are compared through
# --json with the containment rules above.

TWO_LINES = "z0*z2 dz1^dz3 - z0*z3 dz1^dz2 - z1*z2 dz0^dz3 + z1*z3 dz0^dz2"
CHASE_SPECS = (
    ("pfaff:2:-2,-2,-2", ()),
    ("pfaff:2:-3,-2,-2", ()),
    ("pfaff:1:-2,-2", ()),
    ("pfaff:3:-2,-2,-3", ()),
    ("tangent:-1,-2", ("--n", "4")),
)
FORM_PERMS = tuple(permutations(range(4)))[::4]


def _chase_flags(spec: str, extra) -> list[str]:
    kind, _, rest = spec.partition(":")
    if kind == "tangent":
        return [f"--tangent={rest}", *extra]
    r, _, twists = rest.partition(":")
    return [f"--pfaff={twists}", "--r", r]


def two_lines_text(perm) -> str:
    return re.sub(r"z(\d)", lambda m: f"z{perm[int(m.group(1))]}", TWO_LINES)


def cli_catalog():
    """{slot: [(variant key, argv, rule)]}; rule is how stdout is judged."""
    cat = {
        "degree": [
            ["degree", "--n", str(n), "--r", str(r), "--d-list", ",".join(map(str, d))]
            for n, r, d in ((3, 1, (1,)), (3, 2, (1, 2)), (4, 2, (2, 1)), (5, 3, (1, 1, 2)),
                            (4, 1, (3,)), (6, 2, (2, 2)), (5, 2, (0, 3)), (7, 3, (1, 2, 3)))
        ],
        "pullback-degree": [
            ["pullback-degree", "--n", str(n), "--k", str(k), "--d", str(d)]
            for n, k, d in ((3, 2, 2), (4, 2, 3), (5, 3, 2), (6, 1, 4), (4, 3, 1), (5, 2, 5), (3, 1, 3), (6, 4, 2))
        ],
        "cohomology": [
            ["cohomology", "--n", str(n), "--sheaf", s, f"--twists={t}"]
            for n, s, t in ((3, "O(-1)+O(-2)", "-1..2"), (4, "Om(1,0)", "-6..3"), (3, "T", "-5..2"),
                            (5, "O(-2)^3+Om(1,4)", "-8..4"), (4, "Om(2,1)+O(1)", "-7..3"), (6, "Om(3,-1)", "-9..2"))
        ],
        "split-check": [
            ["split-check", "--n", str(n), "--sheaf", s, "--criterion", c]
            for n, s, c in ((3, "Om(1,0)", "horrocks"), (4, "O(1)+O(-2)", "horrocks"), (4, "T", "eg"),
                            (6, "O(2)^2+O(-1)", "kpr"), (3, "O(-1)+O(-2)", "eg"), (6, "Om(1,2)", "horrocks"))
        ],
        "chase": [["chase", *_chase_flags(s, e), "--json"] for s, e in CHASE_SPECS],
        "acm-check": [["acm-check", "--from-chase", s, *e, "--json"] for s, e in CHASE_SPECS],
        "buchsbaum-check": [["buchsbaum-check", "--from-chase", s, *e, "--json"] for s, e in CHASE_SPECS],
        "regularity": [["regularity", "--from-chase", s, *e] for s, e in CHASE_SPECS],
        "classify": [["classify", "--n", str(n), "--degree", str(d)] for n, d in ((4, 2), (4, 3), (5, 3), (5, 4))],
        "form-sing": [["form", "sing", "--input", f"{{inputs}}/two_lines_{''.join(map(str, p))}.form"] for p in FORM_PERMS],
        "form-pullback": [["form", "pullback", "--n", "3", "--field-degrees", "1,0", "--seed", str(s)] for s in range(8)],
    }
    rules = {"chase": "table", "acm-check": "verdict", "buchsbaum-check": "verdict", "regularity": "upper"}
    return {slot: [(" ".join(argv), argv, rules.get(slot, "exact")) for argv in argvs] for slot, argvs in cat.items()}


def write_cli_inputs(inputs: Path) -> None:
    """Write the form files; replace-by-rename, so that a concurrent run
    never reads a half-written file."""
    inputs.mkdir(parents=True, exist_ok=True)
    for p in FORM_PERMS:
        path = inputs / f"two_lines_{''.join(map(str, p))}.form"
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(two_lines_text(p) + "\n", encoding="utf-8")
        os.replace(tmp, path)


def check_cli(rule: str, ref: dict, rc: int, stdout: str) -> list[str]:
    if rc != ref["rc"]:
        return [f"exit code {rc}, expected {ref['rc']}"]
    if rule == "exact":
        if stdout == ref["stdout"]:
            return []
        got, want = stdout.splitlines(), ref["stdout"].splitlines()
        diff = [f"line {i + 1}: {a!r} != {b!r}" for i, (a, b) in enumerate(zip(got, want)) if a != b]
        return diff[:3] or [f"{len(got)} lines, expected {len(want)}"]
    try:
        if rule == "table":
            return refs.table_problems(refs.plain_table(json.loads(stdout)), refs.decode_table(ref["table"]))
        if rule == "verdict":
            got = json.loads(stdout)["decision"]
            return [] if refs.verdict_ok(got, ref["decision"]) else [f"decision {got}, reference {ref['decision']}"]
        got = int(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    ok = refs.regularity_ok(got, ref["regularity"], ref["exact"])
    return [] if ok else [f"regularity {got} against reference {ref['regularity']}"]


def run_cli(ctx, argv) -> tuple[int, str]:
    """One command in a fresh interpreter; the traced run goes through
    cli_child.py, which also reports import, parse and main times."""
    if ctx.tracer is None:
        cmd = [ctx.python, "-m", "singscheme.cli", *argv]
    else:
        cmd = [ctx.python, str(HERE / "cli_child.py"), *argv]
    proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.child_env, capture_output=True, text=True)
    if ctx.tracer is not None:
        ctx.tracer.child_report(proc.stderr)
    return proc.returncode, proc.stdout


def make_cli_oneshot(seed: int, ctx) -> list[Item]:
    rng = _rng("cli-oneshot", seed)
    golden = _load_ref("cli.json")
    inputs = ctx.out / "inputs"
    write_cli_inputs(inputs)
    items = []
    for slot, variants in cli_catalog().items():
        key, argv, rule = rng.choice(variants)
        argv = [a.replace("{inputs}", str(inputs)) for a in argv]
        ref = golden[key]
        items.append(
            Item(
                f"cli:{key}",
                lambda ctx, argv=argv: run_cli(ctx, argv),
                lambda out, rule=rule, ref=ref: check_cli(rule, ref, *out),
            )
        )
    return items


# ================================================================ registry

WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed-form", make_closed_form, 60.0),
        Workload("form-oracle", make_form_oracle, 60.0),
        Workload("form-calculus", make_form_calculus, 60.0),
        Workload("cli-oneshot", make_cli_oneshot, 30.0),
        # Not in BENCHMARK.json: its items are the known failures (bench/README.md).
        Workload("known-defects", make_known_defects, 20.0),
    )
}
