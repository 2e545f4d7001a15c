"""Command line front end: it parses and renders, the library decides.

Every computation in the package is reachable from one executable:
degree formulas, exact cohomology tables, splitting criteria, the
Eagon-Northcott dimension chase, ACM/Buchsbaum verdicts, regularity,
the Beilinson rank bound, the low-degree classification table, and the
polynomial-form tools (singular-scheme analysis and the pullback
construction). Output is plain text by default, JSON with --json, and
byte-identical across runs of the same invocation.

Each subcommand imports the library modules it runs inside its own
handler, not at the top of this module, because every command is a fresh
process: `degree` then loads `chow` alone, only `form` the polynomial-form
and Hilbert code, and no command `inspect`, `ast`, `dis` or `tokenize`,
since every record is a namedtuple or __slots__ class. Only --json,
--explain and a --table file load `json`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from math import inf, log10


# ---------------------------------------------------------------- output


_COLOR_CODES = {"holds": "32", "fails": "31", "undetermined": "33"}


def _color_enabled() -> bool:
    env = os.environ.get("SINGSCHEME_COLOR")
    if env is not None:
        return env.strip().lower() in {"1", "always", "on", "yes", "true"}
    return sys.stdout.isatty()


def _decision_word(decision: str) -> str:
    code = _COLOR_CODES.get(decision)
    if code and _color_enabled():
        return f"\x1b[{code}m{decision}\x1b[0m"
    return decision


def _fmt_value(v) -> str:
    if v.lo == v.hi:
        return str(v.lo)
    if v.hi == inf:
        return f"{v.lo}+"
    return f"{v.lo}..{v.hi}"


def _fmt_window(w) -> str:
    if w.empty:
        return "zero at every twist"
    if w.lo == -inf and w.hi == inf:
        return "no twist excluded"
    if w.lo == -inf:
        return f"nonzero only for t <= {w.hi}"
    if w.hi == inf:
        return f"nonzero only for t >= {w.lo}"
    return f"nonzero only for {w.lo} <= t <= {w.hi}"


def _too_long(name: str) -> ValueError:
    from .chow import MAX_LITERAL_DIGITS
    return ValueError(f"{name} is too long to print: more than {MAX_LITERAL_DIGITS} digits")


def _check_printable(cells, name: str = "h^{}(t={})") -> None:
    """Refuse, by name, the first (*key, value) cell whose value, a number
    or a pair (lo, hi) such as a DimValue or its JSON form, holds a finite
    number of more than MAX_LITERAL_DIGITS digits: str() would refuse it
    mid-output, with a message that names no value. name formats the key."""
    from .chow import MAX_LITERAL_DIGITS
    limit = 10**MAX_LITERAL_DIGITS
    for *key, v in cells:
        lo, hi = v if isinstance(v, (tuple, list)) else (v, v)
        if limit <= abs(lo) < inf or hi is not None and limit <= hi < inf:
            raise _too_long(name.format(*key))


def _emit_json(payload: dict) -> None:
    import json
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def _report_verdict(args, label: str, head: dict, verdict) -> int:
    """head plus the verdict's JSON with --json, else the labelled text."""
    if args.json:
        _emit_json({**head, **verdict.to_json()})
        return 0
    print(f"{label}: {_decision_word(verdict.decision)}")
    for q, t, v in verdict.witnesses:
        print(f"  witness: h^{q}(t={t}) = {_fmt_value(v)}")
    if verdict.certificate:
        print(f"  {verdict.certificate}")
    return 0


# ---------------------------------------------------------------- parsing

# One summand of the sheaf mini-grammar: O(a), Om(p,k) or T, with an
# optional ^m multiplicity. Sums are split on '+' beforehand, which is
# unambiguous because integers use only a leading '-'.
_TERM = re.compile(
    r"""^\s*(?:
        O\(\s*(?P<a>-?\d+)\s*\)
      | Om\(\s*(?P<p>\d+)\s*,\s*(?P<k>-?\d+)\s*\)
      | (?P<t>T)
    )\s*(?:\^\s*(?P<m>\d+))?\s*$""",
    re.VERBOSE,
)


def parse_sheaf(spec: str, n: int):
    """Parse 'O(-2)^3+Om(1,4)+T' into a VirtualSheaf on P^n."""
    from .chow import read_number
    from .cohomology import VirtualSheaf, ext_power_tangent, normalize_atom
    pairs = []
    for chunk in spec.split("+"):
        m = _TERM.match(chunk)
        if m is None:
            raise ValueError(
                f"bad sheaf spec {chunk.strip()!r}; grammar: O(a), Om(p,k), T,"
                " sums with '+', powers with '^m'"
            )
        mult = read_number(m.group("m") or "1", "a multiplicity")
        if mult < 1:
            raise ValueError("multiplicity must be at least 1")
        if m.group("t"):
            atom = ext_power_tangent(n, 1)
        elif m.group("p") is not None:
            p = read_number(m.group("p"), "a cotangent power")
            k = read_number(m.group("k"), "a twist")
            if p > n:
                raise ValueError(f"Om({p},{k}) vanishes on P^{n}")
            atom = normalize_atom(n, p, k)
        else:
            atom = normalize_atom(n, 0, read_number(m.group("a"), "a twist"))  # O(a) = Omega^0(a)
        pairs.append((atom, mult))
    return VirtualSheaf.from_pairs(n, pairs)


# Most twists one --twists range may hold. Every twist costs a table column
# per cohomology row (and a chase entry per row), so a wider range is
# refused before anything is built rather than exhausting memory.
MAX_TWIST_RANGE = 10_000


def _parse_twist_range(text: str) -> tuple[int, int]:
    from .chow import read_number
    m = re.fullmatch(r"\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*", text)
    if m is None:
        raise ValueError(f"bad twist range {text!r}; expected lo..hi")
    lo, hi = (read_number(m.group(i), "a twist") for i in (1, 2))
    if lo > hi:
        raise ValueError(f"empty twist range {text!r}")
    if hi - lo + 1 > MAX_TWIST_RANGE:
        raise ValueError(
            f"twist range {text!r} holds {hi - lo + 1} twists; at most {MAX_TWIST_RANGE} are allowed"
        )
    return lo, hi


def _parse_int_list(text: str) -> tuple[int, ...]:
    """The comma-separated integers of text, each read by read_number, so
    an entry of too many digits gets the cap message."""
    from .chow import read_number
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty integer list")
    if not all((s[1:] if s[0] in "+-" else s).isdecimal() for s in items):
        raise ValueError(f"bad integer list {text!r}")
    return tuple(read_number(s, "a list entry") for s in items)


def _chase_data(text: str, r: int | None, n_flag: int | None):
    """(bundle, r) for split chase data: tangent data F on P^n with r None,
    or Pfaff data E of distribution rank r, which lives on P^{rank E + r}."""
    from .chow import SplitBundle, check_pfaff_dimension
    if r is None:
        if n_flag is None:
            raise ValueError("a tangent chase needs --n")
        return SplitBundle(n_flag, _parse_int_list(text)), None
    check_pfaff_dimension(r)
    twists = _parse_int_list(text)
    n = len(twists) + r
    if n_flag is not None and n_flag != n:
        raise ValueError(
            f"--n {n_flag} contradicts the Pfaff data: rank {r} with"
            f" {len(twists)} twists lives on P^{n}"
        )
    return SplitBundle(n, twists), r


def _chase_spec_data(spec: str, n_flag: int | None):
    """_chase_data of a chase spec 'tangent:T1,T2,..' or 'pfaff:R:T1,T2,..'."""
    kind, _, rest = spec.partition(":")
    r = None
    if kind == "pfaff":
        r_text, _, rest = rest.partition(":")
        try:
            r = int(r_text)
        except ValueError:
            raise ValueError(f"bad chase spec {spec!r}; rank must follow 'pfaff:'") from None
    elif kind != "tangent":
        raise ValueError(
            f"bad chase spec {spec!r}; use tangent:T1,T2,... or pfaff:R:T1,T2,..."
        )
    return _chase_data(rest, r, n_flag)


def _input_table(args):
    if args.table is None:
        from .chase import ideal_chase
        bundle, r = _chase_spec_data(args.from_chase, args.n)
        return ideal_chase(bundle, bundle.n, r).table("I_Z")
    from .cohomology import CohomologyTable
    with open(args.table, "r", encoding="utf-8") as fh:
        return CohomologyTable.loads(fh.read())


# ------------------------------------------------------------- subcommands


def _cmd_degree(args) -> int:
    from .chow import singular_degree_formula
    degree = singular_degree_formula(args.n, args.r, _parse_int_list(args.d_list))
    _check_printable([(degree,)], "the degree")
    print(degree)
    return 0


def _cmd_pullback_degree(args) -> int:
    from .chow import MAX_LITERAL_DIGITS, pullback_degree
    # For d >= 2 the sum is at least d^(k+1): refuse a degree that is too
    # long by this bound before summing it, and by its value after.
    if args.d >= 2 and 1 <= args.k < args.n and (args.k + 1) * log10(args.d) > MAX_LITERAL_DIGITS:
        raise _too_long("the degree")
    degree = pullback_degree(args.n, args.k, args.d)
    _check_printable([(degree,)], "the degree")
    print(degree)
    return 0


def _cmd_cohomology(args) -> int:
    from .cohomology import table
    sheaf = parse_sheaf(args.sheaf, args.n)
    lo, hi = _parse_twist_range(args.twists)
    # Refuse before building: h^0 at hi and h^n at lo are the table's
    # largest values, since h^0(F(t)) grows with t (F is torsion-free),
    # h^n(F(t)) falls (Serre duality), and the middle rows hold multiplicities.
    _check_printable([(0, hi, *sheaf.h_row(0, [hi])), (args.n, lo, *sheaf.h_row(args.n, [lo]))])
    tab = table(sheaf, lo, hi)
    if args.json:
        _check_printable((q, t, v) for q, row in sorted(tab.rows.items()) for t, v in sorted(row.items()))
        print(tab.dumps())
        return 0
    cols = list(range(lo, hi + 1))
    values = [[tab.value(q, t) for t in cols] for q in range(args.n + 1)]
    _check_printable((q, t, v) for q, row in enumerate(values) for t, v in zip(cols, row))
    grid = [["t"] + [str(t) for t in cols]]
    grid += [[f"h^{q}"] + [_fmt_value(v) for v in row] for q, row in enumerate(values)]
    widths = [max(len(row[i]) for row in grid) for i in range(len(grid[0]))]
    print(f"h^q(F(t)) on P^{args.n} for F = {sheaf}")
    for row in grid:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def _cmd_split_check(args) -> int:
    from .cohomology import table
    from .criteria import evans_griffith, horrocks, kpr
    sheaf = parse_sheaf(args.sheaf, args.n)
    # the criteria read only the middle rows, which table holds whole
    tab = table(sheaf, 0, 0)
    if args.criterion == "horrocks":
        verdict = horrocks(tab)
    elif args.criterion == "eg":
        verdict = evans_griffith(tab, sheaf.rank, args.n)
    else:
        verdict = kpr(tab, sheaf.rank, args.n)
    return _report_verdict(args, args.criterion, {"criterion": args.criterion}, verdict)


def _cmd_check(args) -> int:
    from . import criteria
    verdict = getattr(criteria, args.check)(_input_table(args))
    return _report_verdict(args, args.label, {"check": args.command.removesuffix("-check")}, verdict)


def _cmd_chase(args) -> int:
    from .chase import ideal_chase
    pfaff = args.tangent is None
    if pfaff and args.r is None:
        raise ValueError("a Pfaff chase needs --r")
    if not pfaff and args.r is not None:
        raise ValueError("a tangent chase takes no --r")
    bundle, r = _chase_data(args.pfaff if pfaff else args.tangent, args.r, args.n)
    extra = ()
    if args.twists:
        lo, hi = _parse_twist_range(args.twists)
        extra = [("I_Z", q, (lo, hi)) for q in range(bundle.n + 1)]
    result = ideal_chase(bundle, bundle.n, r, extra)
    if args.explain:
        payload, cells = result.explain(), []
        for e in payload["entries"]:
            cells.append((e["q"], e["twist"], e["unknown"], e["value"]))
            cells += ((x["q"], x["twist"], x["term"], x["value"]) for x in e["inputs"])
        _check_printable(cells, "h^{}(t={}) of {}")
        _emit_json(payload)
        return 0
    tab = result.table("I_Z")
    _check_printable((q, t, v) for q, row in sorted(tab.rows.items()) for t, v in row.items())
    if args.json:
        print(tab.dumps())
        return 0
    print(f"ideal-sheaf table on P^{tab.n} (dim Z = {tab.dim_z})")
    for q in range(tab.n + 1):
        line = f"h^{q}: {_fmt_window(tab.window(q))}"
        row = tab.rows.get(q, {})
        shown = [(t, v) for t, v in sorted(row.items()) if not v.is_zero]
        if shown:
            line += "; " + ", ".join(f"t={t}: {_fmt_value(v)}" for t, v in shown)
        print(line)
    return 0


def _cmd_regularity(args) -> int:
    from .criteria import regularity
    reg = regularity(_input_table(args))
    _check_printable([(reg,)], "the regularity")
    print(reg)
    return 0


def _cmd_beilinson(args) -> int:
    from .criteria import beilinson_rank_bound
    tab = _input_table(args)
    bound = beilinson_rank_bound(tab, tab.n)
    _check_printable([(bound,)], "the bound")
    if args.rank is None:
        if args.json:
            _emit_json({"bound": bound})
        else:
            print(bound)
        return 0
    if args.rank < 1:
        raise ValueError("rank must be positive")
    contradiction = bound > args.rank
    if args.json:
        _emit_json({"bound": bound, "rank": args.rank, "contradiction": contradiction})
        return 0
    print(bound)
    if contradiction:
        print(f"contradiction: no rank-{args.rank} sheaf realizes this table")
    else:
        print(f"compatible with rank {args.rank}")
    return 0


def _cmd_classify(args) -> int:
    from .chow import SplitBundle, classification_entry
    entry = classification_entry(args.n, args.degree)
    pfaff = str(SplitBundle(entry.n, entry.pfaff_twists))
    if args.json:
        _emit_json({**entry.to_json(), "pfaff": pfaff})
    else:
        print(f"{pfaff} / {entry.sing_description}")
    return 0


# ------------------------------------------------------------- form tools


def _poly_text(coeffs) -> str:
    """Render an ascending coefficient tuple as a polynomial in t."""
    from .forms import signed_sum
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        a = abs(c)
        body = str(a)
        if i > 0:
            var = "t" if i == 1 else f"t^{i}"
            if a == 1:
                body = var
            elif a.denominator == 1:
                body = f"{body}{var}"
            else:
                body = f"({body}){var}"
        terms.append((c < 0, body))
    return signed_sum(terms)


def _ideal_summary(ideal) -> tuple[str, dict]:
    degs = ",".join(str(d) for d in ideal.degrees)
    line = f"ideal: {len(ideal.generators)} generators, degrees {degs}"
    return line, {"generators": len(ideal.generators), "degrees": list(ideal.degrees)}


def _ideal_report(ideal, profile) -> tuple[list[str], dict]:
    """Text lines and JSON payload describing an ideal's scheme, with the
    Hilbert-deficiency ACM/Buchsbaum verdicts."""
    from .criteria import InapplicableError, hilbert_deficiency_verdicts
    ideal_line, ideal_payload = _ideal_summary(ideal)
    dim, deg = profile.scheme_dim, profile.scheme_deg
    lines = [
        ideal_line,
        "scheme: empty" if dim < 0 else f"scheme: dim {dim}, degree {deg}",
        f"hilbert polynomial: {_poly_text(profile.polynomial)}"
        f" (stable from t={profile.stable_from})",
    ]
    payload: dict = {"ideal": ideal_payload, "hilbert": profile.to_json()}
    gaps = profile.deficiency()
    try:
        acm, bb = hilbert_deficiency_verdicts(dim, gaps)
    except InapplicableError as exc:
        lines.append(f"ACM: not computed ({exc})")
        lines.append("Buchsbaum(numeric): not computed")
        payload["acm"] = {"decision": "not computed"}
        payload["buchsbaum_numeric"] = {"decision": "not computed"}
        return lines, payload
    lines.append(f"ACM: {_decision_word(acm.decision)}")
    for q, t, v in acm.witnesses:
        lines.append(f"  witness: h^{q}(I({t})) >= {v.lo} (Hilbert function vs polynomial)")
    if acm.certificate:
        lines.append(f"  {acm.certificate}")
    lines.append(f"Buchsbaum(numeric): {_decision_word(bb.decision)}")
    lines.append(f"  {bb.certificate}")
    payload["acm"] = {"decision": acm.decision, "deficiency": [[t, g] for t, g in gaps]}
    payload["buchsbaum_numeric"] = {"decision": bb.decision, "support": [t for t, _ in gaps]}
    return lines, payload


def _cmd_form_sing(args) -> int:
    from .forms import coefficient_ideal, contract, parse_form, radial_field, radial_form_degree
    from .hilbert import hilbert_profile
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    form = parse_form(text, None if args.n is None else args.n + 1)
    n = form.nvars - 1
    radial_zero = contract(form, radial_field(form.nvars)).is_zero
    head = f"form: {form.k}-form on P^{n}, coefficient degree {form.poly_degree}"
    degree = None
    if radial_zero:
        degree = radial_form_degree(form, n)
        head += f", distribution degree {degree}"
    ideal = coefficient_ideal(form)
    profile = hilbert_profile(ideal)
    lines, report = _ideal_report(ideal, profile)

    if args.json:
        _emit_json(
            {
                "n": n,
                "k": form.k,
                "coefficient_degree": form.poly_degree,
                "distribution_degree": degree,
                "radial_zero": radial_zero,
                **report,
            }
        )
        return 0
    print(head)
    print(f"radial contraction: {'zero' if radial_zero else 'NONZERO (not projective)'}")
    for line in lines:
        print(line)
    return 0


def _cmd_form_pullback(args) -> int:
    from .chow import singular_degree_formula
    from .forms import coefficient_ideal, pullback_form, radial_form_degree
    from .hilbert import hilbert_profile
    degrees = _parse_int_list(args.field_degrees)
    n = args.n
    omega = pullback_form(n, degrees, args.seed)
    degree = radial_form_degree(omega, n)
    ideal = coefficient_ideal(omega)
    profile = hilbert_profile(ideal)
    predicted = singular_degree_formula(n, len(degrees), tuple(d - 1 for d in degrees))
    match = profile.scheme_deg == predicted
    ideal_line, ideal_payload = _ideal_summary(ideal)

    if args.json:
        _emit_json(
            {
                "n": n,
                "k": omega.k,
                "field_degrees": list(degrees),
                "seed": args.seed,
                "distribution_degree": degree,
                "ideal": ideal_payload,
                "scheme": {"dim": profile.scheme_dim, "degree": profile.scheme_deg},
                "formula_degree": predicted,
                "matches_formula": match,
            }
        )
        return 0
    print(f"pullback form: {omega.k}-form on P^{n}, distribution degree {degree}")
    print(f"fields: degrees {','.join(str(d) for d in degrees)} and the radial field")
    print("radial contraction: zero")
    print(ideal_line)
    print(f"scheme: dim {profile.scheme_dim}, degree {profile.scheme_deg}")
    marker = "matches" if match else "differs"
    print(f"split-formula degree: {predicted} ({marker})")
    return 0


# ---------------------------------------------------------------- wiring


def _add_table_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", help="path to a .table.json file")
    group.add_argument(
        "--from-chase",
        help="chase spec: tangent:T1,T2,... (with --n) or pfaff:R:T1,T2,...",
    )
    sub.add_argument("--n", type=int, help="ambient dimension for tangent chases")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singscheme",
        description="singular schemes of distributions on projective space",
        epilog="values starting with a minus sign need the = form,"
        " e.g. --twists=-4..0 or --tangent=-1,-2",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("degree", help="singular-scheme degree of a split distribution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d-list", required=True, help="comma-separated d_i for F = sum O(-d_i)")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("pullback-degree", help="degree of a pulled-back foliation's singular scheme")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_pullback_degree)

    p = sub.add_parser("cohomology", help="exact h^q(F(t)) table for a virtual sheaf")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sheaf", required=True, help="e.g. 'O(-2)^3+Om(1,4)' or 'T'")
    p.add_argument("--twists", required=True, help="twist range lo..hi")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("split-check", help="splitting criteria on a sheaf's cohomology")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--criterion", required=True, choices=("horrocks", "eg", "kpr"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_split_check)

    for name, check, label, what in (
        ("acm-check", "acm_check", "acm", "ACM test"),
        ("buchsbaum-check", "buchsbaum_numeric", "buchsbaum(numeric)", "numeric Buchsbaum test"),
    ):
        p = sub.add_parser(name, help=f"{what} on an ideal-sheaf table")
        _add_table_source(p)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_check, check=check, label=label)

    p = sub.add_parser("chase", help="materialize an ideal-sheaf table by dimension chasing")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tangent", help="twists of the split tangent sheaf, e.g. -1,-2")
    group.add_argument("--pfaff", help="twists of the split Pfaff sheaf, e.g. -2,-2,-2")
    p.add_argument("--n", type=int, help="ambient dimension (required for --tangent)")
    p.add_argument("--r", type=int, help="distribution rank, any r >= 1; the data lives on P^(r + number of twists) (required for --pfaff)")
    p.add_argument("--twists", help="also materialize h^q(I_Z(t)) for t in lo..hi")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--explain", action="store_true", help="emit provenance traces as JSON")
    p.set_defaults(func=_cmd_chase)

    p = sub.add_parser("regularity", help="Castelnuovo-Mumford regularity of an ideal table")
    _add_table_source(p)
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("beilinson-bound", help="rank lower bound from a cohomology table")
    _add_table_source(p)
    p.add_argument("--rank", type=int, help="also test a claimed rank for contradiction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_beilinson)

    p = sub.add_parser("classify", help="low-degree split-Pfaff classification lookup")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("form", help="polynomial differential form tools")
    fsub = p.add_subparsers(dest="form_command", required=True, metavar="tool")

    q = fsub.add_parser("sing", help="analyze the singular scheme cut out by a form")
    q.add_argument("--input", required=True, help="file holding one polynomial form")
    q.add_argument("--n", type=int, help="ambient dimension (default: inferred)")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_form_sing)

    q = fsub.add_parser("pullback", help="build a pullback distribution form")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--field-degrees", required=True, help="comma-separated field degrees")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_form_pullback)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: malformed input, missing field {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
