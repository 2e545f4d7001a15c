"""Dimension chasing through short exact sequences of sheaves on P^n.

A long exact cohomology sequence rarely needs its maps: once enough
neighboring terms vanish, ranks are forced. ExactTriple records a short
exact sequence whose terms are virtual sheaves or named unknowns; chase()
walks an ordered list of such triples in two passes. The window pass
orders the triples and bounds the twist support of every unknown row by
window propagation; it runs once per chase, and windowed_chase and the
distribution bounds pick their queries off its windows. The
materialization pass then writes the requested rows of the solved
unknowns, once each, into their CohomologyTables, the one store of the
values: exact where the six-term neighborhood has enough zeros, an
interval [lo, hi] from rank-nullity otherwise. A row's solve reads each
of its four columns once, over the twists the row's window holds: a
table's row, or a closed-form sheaf's h_row. Every triple is checked for
Euler-characteristic consistency, row-wise, where the check can fail: at
every twist it touched when tables are given, else where the one end row
that the solve cannot balance is nonzero. ChaseResult.entries and its
traces, which replay to the same numbers through the solve's own row
reads, are read off the plan and the tables on first read.

On top of the engine sit the complex builders used throughout: the
Eagon-Northcott complex of a split subsheaf of the tangent bundle and its
analogues for split Pfaff data in dimensions 1..3, both cut into triples
by one resolution builder, and the cohomology bounds for corank-one
distribution sheaves derived from the ideal sequence.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .chow import SplitBundle, check_ambient_dimension
from .cohomology import (
    CohomologyTable,
    DimValue,
    VirtualSheaf,
    Window,
    normalize_atom,
    sym_power,
    tangent_sheaf,
    tensor_with_split,
)
from .criteria import Verdict, acm_check, possible_entries, vanishing_verdict


class ChaseDependencyError(ValueError):
    """The triple list cannot be solved in order: a triple either adds no
    new unknown (cycle or duplicate definition) or needs several."""


class InconsistentTripleError(ValueError):
    """Materialized dimensions violate rank-nullity along a triple."""


@dataclass(frozen=True)
class TableRef:
    """A named unknown; at chase twist t it denotes the unknown at t + offset."""

    name: str
    offset: int = 0

    def __str__(self) -> str:
        if self.offset == 0:
            return self.name
        return f"{self.name}({self.offset:+d})"


Term = VirtualSheaf | TableRef

_POSITIONS = ("a", "b", "c")


@dataclass(frozen=True)
class ExactTriple:
    """A short exact sequence 0 -> a -> b -> c -> 0 on P^n.

    Only the shape is used: no differentials are ever materialized. Terms
    are virtual sheaves (cohomology known in closed form) or TableRefs to
    unknowns solved earlier in a chase. Twisting the chase variable twists
    all three terms together.
    """

    a: Term
    b: Term
    c: Term
    n: int
    label: str = ""

    def __post_init__(self) -> None:
        check_ambient_dimension(self.n)
        for pos in _POSITIONS:
            t = self.term(pos)
            if isinstance(t, VirtualSheaf) and t.n != self.n:
                raise ValueError(
                    f"term {pos} lives on P^{t.n}, triple on P^{self.n}"
                )
        if all(isinstance(self.term(p), VirtualSheaf) for p in _POSITIONS):
            if self.b.rank != self.a.rank + self.c.rank:
                raise ValueError(
                    f"rank additivity fails: {self.b.rank} != "
                    f"{self.a.rank} + {self.c.rank}"
                )

    def term(self, pos: str) -> Term:
        return getattr(self, pos)


# Reads needed to solve one position at cohomological degree q, as
# (role, dq) in the fixed order (kill1, keep1, kill2, keep2): the value is
# forced(keep1, kill1) + forced(keep2, kill2), where forced(x, y) is the
# part of x that y cannot absorb, [max(0, lo(x) - hi(y)), hi(x)].
_READS = {
    "c": (("a", 0), ("b", 0), ("b", 1), ("a", 1)),
    "a": (("b", -1), ("c", -1), ("c", 0), ("b", 0)),
    "b": (("c", -1), ("a", 0), ("a", 1), ("c", 0)),
}


_ZERO = DimValue.exact(0)


def _label(tr: ExactTriple) -> str:
    return tr.label or f"0->{tr.a}->{tr.b}->{tr.c}->0"


def _read_row(term: Term, q: int, ts: list, tables: dict) -> list:
    """The (lo, hi) of a term's row q at each chase twist of the strictly
    ascending list ts: a table's row dict, or a sheaf's h_row. The one
    reader for the solve, the Euler check and the traces."""
    if isinstance(term, VirtualSheaf):
        return [(h, h) for h in (term.h_row(q, ts) if 0 <= q <= term.n else [0] * len(ts))]
    tab, off = tables[term.name], term.offset
    row = tab.rows.get(q, {})
    return [(v.lo, v.hi) for v in (row.get(t + off) or tab.value(q, t + off) for t in ts)]


def _row_reads(step, q: int, ss: list, tables: dict):
    """For the plan step (triple, position, name, offset) and ss, strictly
    ascending twists of row q of the unknown it solves: the twists of ss
    that the row's window holds, and at each of them the four (lo, hi)
    reads of _READS. The one row read of the solve and the traces."""
    tr, pos, name, offset = step
    w = tables[name].window(q)
    i = 0 if w.lo is None else bisect_left(ss, w.lo)
    j = len(ss) if w.hi is None else bisect_right(ss, w.hi)
    inside = [] if w.empty else ss[i:j]
    ts = [s - offset for s in inside]
    cols = [_read_row(tr.term(role), q + dq, ts, tables) for role, dq in _READS[pos]]
    return inside, list(zip(*cols))


def _solve(reads) -> DimValue:
    """forced(keep1, kill1) + forced(keep2, kill2) over the four (lo, hi)
    reads, where forced(keep, kill) = [max(0, lo(keep) - hi(kill)), hi(keep)]."""
    (_, kill1), (lo1, hi1), (_, kill2), (lo2, hi2) = reads
    lo1 = 0 if kill1 is None else max(0, lo1 - kill1)
    lo2 = 0 if kill2 is None else max(0, lo2 - kill2)
    if hi1 is None or hi2 is None:
        return DimValue(lo1 + lo2, None)
    return _ZERO if hi1 + hi2 == 0 else DimValue(lo1 + lo2, hi1 + hi2)


@dataclass(frozen=True)
class TraceInput:
    """One neighbor value consumed by a solve step."""

    role: str
    term: str
    q: int
    twist: int
    lo: int
    hi: int | None


@dataclass(frozen=True)
class Trace:
    """Provenance of one materialized entry.

    rule is one of solve-a / solve-b / solve-c (derived via the fixed
    four-input rank-nullity formula) or window (outside the certified
    support).
    """

    unknown: str
    q: int
    twist: int
    rule: str
    triple: str
    inputs: tuple[TraceInput, ...]
    lo: int
    hi: int | None


def replay_trace(trace: Trace) -> DimValue:
    """Recompute a trace's value from its recorded inputs."""
    if trace.rule == "window":
        return DimValue.exact(0)
    if trace.rule not in ("solve-a", "solve-b", "solve-c"):
        raise ValueError(f"unknown trace rule {trace.rule!r}")
    for i in trace.inputs:
        DimValue(i.lo, i.hi)  # each recorded input must be a dimension
    return _solve([(i.lo, i.hi) for i in trace.inputs])


@dataclass(frozen=True)
class ChaseResult:
    """Everything a chase established, kept as its tables and plan.

    tables holds the given tables and one table per solved unknown, whose
    windows are complete (rows 0..n) and whose rows, written once each in
    ascending twists, are the one store of the solved values; plan holds
    the (triple, position, name, offset) that solves each unknown, in
    solving order, and unknowns their names. entries, (unknown, q, twist)
    in the unknown's own coordinates to a value, in plan order, then q,
    then twist, and traces, one Trace per entry, are read-only mappings
    built on first read; the traces read each row as its solve did.
    """

    n: int
    tables: dict
    plan: tuple

    @property
    def unknowns(self) -> tuple:
        return tuple(name for _, _, name, _ in self.plan)

    @cached_property
    def entries(self) -> Mapping:
        entries = {}
        for name in self.unknowns:
            for q, row in self.tables[name].rows.items():
                entries.update(((name, q, s), v) for s, v in row.items())
        return MappingProxyType(entries)

    @cached_property
    def traces(self) -> Mapping:
        traces = {}
        for step in self.plan:
            tr, pos, name, offset = step
            label, terms = _label(tr), {role: str(tr.term(role)) for role in _POSITIONS}
            for q, row in self.tables[name].rows.items():
                solved = dict(zip(*_row_reads(step, q, list(row), self.tables)))
                for s, v in row.items():
                    inputs = tuple(
                        TraceInput(role, terms[role], q + dq, s - offset, lo, hi)
                        for (role, dq), (lo, hi) in zip(_READS[pos], solved.get(s, ()))
                    )
                    rule = f"solve-{pos}" if s in solved else "window"
                    traces[name, q, s] = Trace(name, q, s, rule, label, inputs, v.lo, v.hi)
        return MappingProxyType(traces)

    def value(self, name: str, q: int, twist: int) -> DimValue:
        return self.table(name).value(q, twist)

    def window(self, name: str, q: int) -> Window | None:
        return self.table(name).window(q)

    def table(self, name: str, dim_z: int | None = None) -> CohomologyTable:
        if name not in self.tables:
            raise ValueError(f"unknown {name!r} was never constrained")
        t = self.tables[name]
        if dim_z is not None and t.dim_z != dim_z:
            return t.with_dim_z(dim_z)
        return t

    def explain_json(self) -> str:
        """Deterministic JSON dump of all traces, for --explain output."""
        entries = []
        for key in sorted(self.entries):
            name, q, t = key
            tr = self.traces[key]
            entries.append(
                {
                    "unknown": name,
                    "q": q,
                    "twist": t,
                    "value": DimValue(tr.lo, tr.hi).to_json(),
                    "rule": tr.rule,
                    "triple": tr.triple,
                    "inputs": [
                        {
                            "role": i.role,
                            "term": i.term,
                            "q": i.q,
                            "twist": i.twist,
                            "value": DimValue(i.lo, i.hi).to_json(),
                        }
                        for i in tr.inputs
                    ],
                }
            )
        payload = {
            "n": self.n,
            "windows": {
                name: {str(q): w.to_json() for q, w in sorted(self.tables[name].windows.items())}
                for name in sorted(self.unknowns)
            },
            "entries": entries,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _term_window(term: Term, q: int, tables: dict) -> Window:
    """Support window of a term's row q, in chase coordinates."""
    if isinstance(term, VirtualSheaf):
        return term.row_window(q)
    w = tables[term.name].window(q)
    return Window.everything() if w is None else w.shift(-term.offset)


def _chi_row(term: Term, ts: list, tables: dict) -> list:
    """Euler characteristic of a term at each chase twist of the strictly
    ascending list ts; None where some row of it is not exact."""
    if isinstance(term, VirtualSheaf):
        return term.chi_row(ts)
    cols = zip(*(_read_row(term, q, ts, tables) for q in range(tables[term.name].n + 1)))
    return [
        None if any(lo != hi for lo, hi in col) else sum((-1) ** q * lo for q, (lo, _) in enumerate(col))
        for col in cols
    ]


def chase(triples, queries=(), given=None) -> ChaseResult:
    """Solve an ordered list of exact triples for their unknowns.

    Each triple must introduce exactly one unknown not yet solved (its
    other TableRefs must point at given tables or at unknowns solved by
    earlier triples); anything else raises ChaseDependencyError. queries
    is an iterable of (name, q, (lo, hi)) asking for an unknown's values
    on an inclusive twist range, in the unknown's own coordinates; a query
    on a name that no triple solves, a given table's included, raises
    ValueError. On every triple, at every twist it materialized, the
    alternating sum of Euler characteristics must vanish whenever all three
    columns are exact; a violation raises InconsistentTripleError. Given
    tables that contradict their own certificates can cause one at any
    twist. Without them only closed-form data that no short exact sequence
    realizes can, and only where the one end row that the solve cannot
    balance is nonzero, so only those twists are checked; the tests
    recompute the identity at every twist.
    """
    return _materialize(_window_pass(triples, given), queries)


def _window_pass(triples, given) -> ChaseResult:
    """Order the triples and bound the twist support of every unknown row.

    Returns a ChaseResult whose tables are the given ones plus one
    window-only table per unknown, and whose plan holds a (triple,
    position, name, offset) per triple, in solving order.
    """
    triples = list(triples)
    given = dict(given or {})
    n = triples[0].n if triples else None

    for tr in triples:
        if tr.n != triples[0].n:
            raise ValueError("triples live on different projective spaces")
    for name, tab in given.items():
        if not isinstance(tab, CohomologyTable):
            raise ValueError(f"given[{name!r}] is not a cohomology table")
        if n is None:
            n = tab.n
        if tab.n != n:
            raise ValueError(f"given[{name!r}] lives on P^{tab.n}, chase on P^{n}")

    if n is None:
        raise ValueError("chase needs at least one triple or given table")

    # Each triple defines the unique ref that is neither given nor solved.
    # The support of that unknown's row lies in the union of the two rows
    # it sits between in the long exact sequence (the keep reads of
    # _READS), so the hull of their windows is a sound zero certificate.
    tables = dict(given)
    plan: list[tuple[ExactTriple, str, str, int]] = []
    for tr in triples:
        fresh = [
            pos
            for pos in _POSITIONS
            if isinstance(tr.term(pos), TableRef)
            and tr.term(pos).name not in tables
        ]
        if len(fresh) != 1:
            what = (
                "adds no new unknown (cycle or duplicate definition)"
                if not fresh
                else "needs "
                + ", ".join(repr(tr.term(p).name) for p in fresh)
                + " before they are defined (cyclic or misordered)"
            )
            raise ChaseDependencyError(f"triple {tr.label or tr}: {what}")
        pos = fresh[0]
        ref = tr.term(pos)
        windows = {}
        for q in range(n + 1):
            parts = [
                _term_window(tr.term(p2), q + dq, tables)
                for p2, dq in _READS[pos][1::2]
            ]
            windows[q] = Window.hull(*parts).shift(ref.offset)
        tables[ref.name] = CohomologyTable(n, {}, windows)
        plan.append((tr, pos, ref.name, ref.offset))
    return ChaseResult(n, tables, tuple(plan))


def _materialize(result: ChaseResult, queries) -> ChaseResult:
    """Materialize the queried entries, and every entry their solves read,
    into the window pass's result, and check each triple's Euler
    characteristics; returns that result. Only values are stored, in the
    solved unknowns' tables."""
    n, tables, plan = result.n, result.tables, result.plan

    # Requirements per unknown and row, walking consumers before definers.
    req: dict[str, dict[int, set[int]]] = {name: {} for name in result.unknowns}
    for query in map(tuple, queries):
        if len(query) != 3:
            raise ValueError("queries are (name, q, (lo, hi)) tuples")
        name, deg, rng = query
        lo, hi = rng
        if lo > hi:
            raise ValueError(f"empty twist range {rng} for {name!r}")
        if name not in req:
            raise ValueError(f"query names {name!r}, which no triple of the chase solves")
        if 0 <= deg <= n:
            req[name].setdefault(deg, set()).update(range(lo, hi + 1))

    for tr, pos, name, offset in reversed(plan):
        for p2, dq in _READS[pos]:
            other = tr.term(p2)
            if isinstance(other, TableRef) and other.name in req:
                shift = other.offset - offset
                for q, ss in req[name].items():
                    if 0 <= q + dq <= n:
                        req[other.name].setdefault(q + dq, set()).update(s + shift for s in ss)

    # Materialization, in order, a row at a time into each unknown's
    # table: the entries inside the row's window solve from four column
    # reads, and those outside it are certified zero.
    has_given = any(name not in req for name in tables)
    for step in plan:
        tr, pos, name, offset = step
        for q in sorted(req[name]):
            ss = sorted(req[name][q])
            inside, reads = _row_reads(step, q, ss, tables)
            row = dict.fromkeys(ss, _ZERO)
            row.update(zip(inside, map(_solve, reads)))
            tables[name].rows[q] = row

        # Euler-characteristic consistency at every twist this triple
        # materialized, wherever all three columns are exact. Without given
        # tables it can fail only where the end row the solve leaves out of
        # the balance is nonzero: h^0(a) for a solve of c, h^n(c) for one
        # of a, none for b. Such a twist has closed-form data that no short
        # exact sequence realizes, such as h^0(a(t)) > 0 = h^0(b(t)).
        twists = sorted({s - offset for ss in req[name].values() for s in ss})
        if not has_given:
            role, q = ("a", 0) if pos == "c" else ("c", n)
            end = _read_row(tr.term(role), q, twists, tables) if pos != "b" else []
            twists = [t for t, (_, hi) in zip(twists, end) if hi is None or hi > 0]
        if not twists:
            continue
        chis = [_chi_row(tr.term(p2), twists, tables) for p2 in _POSITIONS]
        for t, a, b, c in zip(twists, *chis):
            if None not in (a, b, c) and a - b + c != 0:
                raise InconsistentTripleError(
                    f"triple {_label(tr)} at twist {t}: "
                    f"chi(a)-chi(b)+chi(c) = {a}-{b}+{c} != 0"
                )
    return result


def windowed_chase(triples, name: str, extra=()) -> ChaseResult:
    """Chase once: the window pass fixes the support windows, then every
    finite window row of the named unknown is materialized, plus any extra
    (name, q, (lo, hi)) queries."""
    result = _window_pass(triples, None)
    queries = list(extra)
    for q in range(result.n + 1):
        w = result.window(name, q)
        if w is not None and w.is_finite:
            queries.append((name, q, (w.lo, w.hi)))
    return _materialize(result, queries)


def _resolution_triples(terms, kernels, n: int, prefix: str) -> list[ExactTriple]:
    """Cut 0 -> T_0 -> T_1 -> ... -> T_k -> K_k -> 0 into the triples
    0 -> K_{i-1} -> T_i -> K_i -> 0 for i = 1..k, with K_0 = T_0; terms
    are T_0..T_k, kernels K_1..K_k, and triple i is labelled prefix(i-1)."""
    lefts = [terms[0], *kernels[:-1]]
    return [
        ExactTriple(left, middle, kernel, n, label=f"{prefix}{i}")
        for i, (left, middle, kernel) in enumerate(zip(lefts, terms[1:], kernels))
    ]


def en_complex_tangent(F: SplitBundle, n: int) -> list[ExactTriple]:
    """Eagon-Northcott complex of a split subsheaf F of the tangent bundle.

    The complex has terms Omega^{r+j} (x) Sym_j(F)(c1) for j = 0..k with
    r = rank F, k = n - r and c1 = c1(F), and resolves the ideal sheaf of
    the degeneracy scheme; the final map is Omega^r(c1) -> I_Z. Returned
    broken into k short exact triples with unknowns U{k-2}, .., U0, I_Z.
    """
    r = F.rank
    k = n - r
    if F.n != n:
        raise ValueError(f"bundle lives on P^{F.n}, not P^{n}")
    if k < 1:
        raise ValueError("need rank(F) <= n - 1")
    terms = [
        tensor_with_split(normalize_atom(n, r + j, F.c1), sym_power(F, j))
        for j in range(k, -1, -1)
    ]
    kernels = [TableRef(f"U{j}") for j in range(k - 2, -1, -1)] + [TableRef("I_Z")]
    return _resolution_triples(terms, kernels, n, "en")


def en_complex_pfaff(E: SplitBundle, r: int, n: int) -> list[ExactTriple]:
    """Eagon-Northcott triples for split Pfaff data of dimension r in {1,2,3}.

    E = (+) O(a_i) has rank n - r and c = sum a_i; the complex, with
    Lambda^q T rewritten as Omega^{n-q}(n+1), runs

        0 -> Sym_r(E)(n+1+c) -> ... -> Omega^r(n+1+c) -> I_Z -> 0,

    except that for r = 1 it degenerates to 0 -> E -> Omega^1 -> I_Z(d-1) -> 0
    with d = -n - c the distribution degree.
    """
    if r not in (1, 2, 3):
        raise ValueError(f"unsupported dimension r={r}: only 1, 2, 3")
    if E.n != n:
        raise ValueError(f"bundle lives on P^{E.n}, not P^{n}")
    if E.rank != n - r:
        raise ValueError(
            f"Pfaff data of dimension {r} on P^{n} needs rank {n - r}, "
            f"got {E.rank}"
        )
    # The r = 1 complex is the general one twisted by -(n+1+c) = d - 1,
    # which I_Z then carries as its offset.
    s = 0 if r == 1 else n + 1 + E.c1
    terms = [
        tensor_with_split(normalize_atom(n, p, s), sym_power(E, r - p))
        for p in range(r + 1)
    ]
    kernels = [TableRef(f"ker{i}") for i in range(1, r)]
    kernels.append(TableRef("I_Z", s - n - 1 - E.c1))
    return _resolution_triples(terms, kernels, n, "pf")


def tangent_ideal_table(F: SplitBundle, n: int, extra=()) -> CohomologyTable:
    """Ideal-sheaf cohomology of the degeneracy scheme of split F in T.

    Chases the tangent Eagon-Northcott complex and materializes every
    finite window; the scheme has dimension rank(F) - 1.
    """
    return windowed_chase(en_complex_tangent(F, n), "I_Z", extra).table(
        "I_Z", dim_z=F.rank - 1
    )


def pfaff_ideal_table(
    E: SplitBundle, r: int, n: int, extra=()
) -> CohomologyTable:
    """Ideal-sheaf cohomology of the singular scheme of split Pfaff data;
    the scheme has dimension n - r - 1."""
    return windowed_chase(en_complex_pfaff(E, r, n), "I_Z", extra).table(
        "I_Z", dim_z=n - r - 1
    )


def _distribution_triple(d: int, n: int) -> ExactTriple:
    """0 -> F -> T -> I_Z(d+2) -> 0 for a corank-one distribution of degree d."""
    return ExactTriple(
        TableRef("F"),
        tangent_sheaf(n),
        TableRef("I_Z", d + 2),
        n,
        label="distribution",
    )


def _ray_vanishing(tab: CohomologyTable, q: int, cutoff: int, label: str) -> Verdict:
    """holds iff h^q vanishes at every twist <= cutoff."""
    w = tab.window(q)
    entries = possible_entries(tab, q, hi=cutoff)
    if entries is None:
        why = "has no zero certificate" if w is None else "unbounded below"
        return Verdict("undetermined", (), f"{label}: row {q} {why}")
    if w.empty or w.lo > cutoff:
        return Verdict(
            "holds", (), f"{label}: window clears all twists <= {cutoff}"
        )
    if entries:
        s, v = entries[0]
        if v.definitely_nonzero:
            return Verdict("fails", ((q, s, v),), label)
        return Verdict(
            "undetermined", ((q, s, v),), f"{label}: twist {s} not pinned"
        )
    return Verdict(
        "holds", (), f"{label}: twists {w.lo}..{cutoff} materialized zero"
    )


def _peak_verdict(tab: CohomologyTable, n: int) -> Verdict:
    """Row n-1 supported only at -n-1, with value at most 1 there."""
    q = n - 1
    entries = possible_entries(tab, q)
    if entries is None:
        return Verdict(
            "undetermined", (), "top intermediate row window is not finite"
        )
    away = [(t, v) for t, v in entries if t != -n - 1]
    if away:
        t, v = away[0]
        if v.definitely_nonzero:
            return Verdict(
                "fails", ((q, t, v),), "support away from twist -n-1"
            )
        return Verdict(
            "undetermined", ((q, t, v),), f"twist {t} not pinned"
        )
    peak = tab.value(q, -n - 1)
    if peak.lo >= 2:
        return Verdict("fails", ((q, -n - 1, peak),), "value exceeds 1")
    if peak.hi is not None and peak.hi <= 1:
        return Verdict(
            "holds",
            ((q, -n - 1, peak),),
            "supported only at -n-1 and bounded by 1 there",
        )
    return Verdict(
        "undetermined", ((q, -n - 1, peak),), "no upper bound at -n-1"
    )


@dataclass(frozen=True)
class DistributionReport:
    """Cohomology bounds for the tangent sheaf of a corank-one distribution.

    items maps "i".."iv" to verdicts: (i) h^0(F(p)) = 0 for p <= -2;
    (ii) h^1(F(p)) = 0 for p <= -d-3; and, under the hypothesis that the
    singular scheme is ACM of dimension n-2, (iii) rows 2..n-2 vanish
    identically and (iv) h^{n-1}(F(p)) is supported at p = -n-1 with value
    at most 1. sheaf_table carries the chased bounds on F itself.
    """

    n: int
    degree: int
    acm: Verdict
    items: dict
    sheaf_table: CohomologyTable
    ideal_table: CohomologyTable

    @property
    def holds(self) -> bool:
        return all(v.holds for v in self.items.values())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "acm": self.acm.to_json(),
            "items": {k: v.to_json() for k, v in sorted(self.items.items())},
            "holds": self.holds,
        }


def distribution_cohomology_bounds(F, d: int, n: int) -> DistributionReport:
    """Bounds on h^q(F(p)) for a corank-one distribution of degree d.

    F is the rank n-1 tangent sheaf, supplied either as a SplitBundle
    (its singular-scheme table is chased from the tangent Eagon-Northcott
    complex) or indirectly as the ideal-sheaf table of the singular
    scheme. Everything flows from the single sequence
    0 -> F -> T -> I_Z(d+2) -> 0; items (iii) and (iv) additionally need
    the scheme to be ACM and are reported undetermined when that
    hypothesis is not certified.
    """
    if n < 3:
        raise ValueError("corank-one bounds need n >= 3")
    if d < 0:
        raise ValueError("distribution degree is nonnegative")
    if isinstance(F, SplitBundle):
        if F.n != n:
            raise ValueError(f"bundle lives on P^{F.n}, not P^{n}")
        if F.rank != n - 1:
            raise ValueError(
                f"corank-one data needs rank {n - 1}, got {F.rank}"
            )
        if d != (n - 1) - F.c1:
            raise ValueError(
                f"twists give degree {(n - 1) - F.c1}, not {d}"
            )
        triples = en_complex_tangent(F, n) + [_distribution_triple(d, n)]
        given = {}
    elif isinstance(F, CohomologyTable):
        if F.n != n:
            raise ValueError(f"table lives on P^{F.n}, not P^{n}")
        triples = [_distribution_triple(d, n)]
        given = {"I_Z": F}
    else:
        raise TypeError("F must be a SplitBundle or an ideal-sheaf table")

    result = _window_pass(triples, given)
    queries = []
    w0 = result.window("F", 0)
    if w0.lo is not None and w0.lo <= -2:
        queries.append(("F", 0, (w0.lo, -2)))
    w1 = result.window("F", 1)
    if w1.lo is not None and w1.lo <= -d - 3:
        queries.append(("F", 1, (w1.lo, -d - 3)))
    for q in range(2, n - 1):
        wq = result.window("F", q)
        if wq.is_finite:
            queries.append(("F", q, (wq.lo, wq.hi)))
    wt = result.window("F", n - 1)
    if wt.is_finite:
        queries.append(
            ("F", n - 1, (min(wt.lo, -n - 1), max(wt.hi, -n - 1)))
        )
    else:
        queries.append(("F", n - 1, (-n - 1, -n - 1)))
    _materialize(result, queries)

    f_table = result.table("F")
    ideal_table = result.table("I_Z", dim_z=n - 2)
    acm = acm_check(ideal_table, n - 2)

    gate = Verdict(
        "undetermined",
        (),
        f"needs the singular scheme ACM of dimension {n - 2}; "
        f"acm check came back {acm.decision}",
    )
    items = {
        "i": _ray_vanishing(f_table, 0, -2, "no sections below twist -1"),
        "ii": _ray_vanishing(
            f_table, 1, -d - 3, f"h^1 vanishes below twist {-d - 2}"
        ),
        "iii": vanishing_verdict(f_table, 2, n - 2, "interior rows")
        if acm.holds
        else gate,
        "iv": _peak_verdict(f_table, n) if acm.holds else gate,
    }
    return DistributionReport(
        n=n,
        degree=d,
        acm=acm,
        items=items,
        sheaf_table=f_table,
        ideal_table=ideal_table,
    )

