"""Dimension chasing through short exact sequences of sheaves on P^n.

A long exact cohomology sequence rarely needs its maps: once enough
neighboring terms vanish, ranks are forced. ExactTriple records a short
exact sequence whose terms are virtual sheaves or named unknowns; chase()
walks an ordered list of such triples in two passes. The window pass
orders the triples and bounds the twist support of every unknown row by
window propagation; it runs once per chase, and windowed_chase picks
its queries off its windows. The materialization pass then writes the
requested rows of the solved unknowns, once each, into their
CohomologyTables, the one store of the values: exact where the six-term
neighborhood has enough zeros, an interval [lo, hi] from rank-nullity
otherwise. A requirement is a sorted list of merged twist runs per
(unknown, q), and propagation shifts the runs. Each run of a row reads its
four columns once, as lo and hi int columns (a table's row split by one
zip, or a closed-form sheaf's h_row), and one comprehension solves them
into pairs. Every triple is checked for Euler-characteristic consistency
where the check can fail: where the one end row that the solve cannot
balance is nonzero. chi is folded term by term, the unknown just solved
first, and a twist leaves the check at its first inexact row.
ChaseResult.entries and the --explain payload, whose entries replay to the
same numbers through the solve's own row reads, are read off the plan and
the tables.

On top of the engine sits one Eagon-Northcott builder, whose terms are
twisted Omega powers tensored with the Sym powers of a split bundle; the
tangent complex and the Pfaff complex of every dimension r >= 1 call it.
ideal_chase is the one road from split data to the chased I_Z table: it
picks the complex and dim Z.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from itertools import chain
from math import inf
from operator import add
from types import MappingProxyType

from .chow import SplitBundle, check_ambient_dimension, check_pfaff_dimension, refuse_write
from .cohomology import (
    NOTHING,
    ZERO,
    CohomologyTable,
    DimValue,
    VirtualSheaf,
    Window,
    normalize_atom,
    sym_powers,
    tensor_with_split,
)


class ChaseDependencyError(ValueError):
    """The triple list cannot be solved in order: a triple either adds no
    new unknown (cycle or duplicate definition) or needs several."""


class InconsistentTripleError(ValueError):
    """Materialized dimensions violate rank-nullity along a triple."""


class TableRef(namedtuple("TableRef", "name offset", defaults=(0,))):
    """A named unknown; at chase twist t it denotes the unknown at t + offset."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.offset == 0:
            return self.name
        return f"{self.name}({self.offset:+d})"


Term = VirtualSheaf | TableRef

_POSITIONS = ("a", "b", "c")


class ExactTriple(namedtuple("ExactTriple", "a b c n label")):
    """A short exact sequence 0 -> a -> b -> c -> 0 on P^n.

    Only the shape is used: no differentials are ever materialized. Terms
    are virtual sheaves (cohomology known in closed form) or TableRefs to
    unknowns solved earlier in a chase. Twisting the chase variable twists
    all three terms together.
    """

    __slots__ = ()

    def __new__(cls, a: Term, b: Term, c: Term, n: int, label: str = "") -> "ExactTriple":
        check_ambient_dimension(n)
        for pos, t in zip(_POSITIONS, (a, b, c)):
            if isinstance(t, VirtualSheaf) and t.n != n:
                raise ValueError(f"term {pos} lives on P^{t.n}, triple on P^{n}")
        return tuple.__new__(cls, (a, b, c, n, label))

    def term(self, pos: str) -> Term:
        return getattr(self, pos)


# Reads needed to solve one end position at cohomological degree q, as
# (role, dq) in the fixed order (kill1, keep1, kill2, keep2): the value is
# forced(keep1, kill1) + forced(keep2, kill2), where forced(x, y) is the
# part of x that y cannot absorb, [max(0, lo(x) - hi(y)), hi(x)].
_READS = {
    "c": (("a", 0), ("b", 0), ("b", 1), ("a", 1)),
    "a": (("b", -1), ("c", -1), ("c", 0), ("b", 0)),
}


def _label(tr: ExactTriple) -> str:
    return tr.label or f"0->{tr.a}->{tr.b}->{tr.c}->0"


def _merge(runs) -> list:
    """The inclusive twist runs (lo, hi) as the sorted list of the fewest
    disjoint, non-adjacent runs that cover the same twists."""
    out = []
    for lo, hi in sorted(runs):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return out


def _read_row(term: Term, q: int, ts, tables: dict) -> tuple:
    """The lo and hi columns of a term's row q at the chase twists of the
    strictly ascending ts: a table's row dict, split into its two columns
    by one zip (two empty columns for no twist), or a sheaf's h_row twice.
    The one reader for the solve, the Euler check and the --explain
    payload. The Euler check also reads rows at twists no solve wrote;
    value answers those: zero outside the window, else [0, inf), which the
    check drops."""
    if isinstance(term, VirtualSheaf):
        h = term.h_row(q, ts) if 0 <= q <= term.n else [0] * len(ts)
        return h, h
    tab, off = tables[term.name], term.offset
    if not 0 <= q <= tab.n:
        return [0] * len(ts), [0] * len(ts)
    vs = list(map(tab.rows.get(q, {}).get, map(off.__add__, ts)))
    if not all(vs):
        vs = [v or tab.value(q, t + off) for v, t in zip(vs, ts)]
    return tuple(zip(*vs)) or ((), ())


def _row_reads(step, q: int, runs: list, tables: dict) -> list:
    """For the plan step (triple, position, name, offset) and runs, sorted
    disjoint twist runs of row q of the unknown it solves: each run cut to
    the row's window, as (lo, hi, cols), cols the four columns of _READS
    over lo..hi, each a (los, his) pair read once. The one row read of the
    solve and the payload."""
    tr, pos, name, offset = step
    w = tables[name].window(q)
    out = []
    for lo, hi in runs:
        lo, hi = max(lo, w.lo), min(hi, w.hi)
        if lo <= hi:
            ts = range(lo - offset, hi - offset + 1)
            out.append((lo, hi, [_read_row(tr.term(role), q + dq, ts, tables) for role, dq in _READS[pos]]))
    return out


def _solve(cols) -> list:
    """forced(keep1, kill1) + forced(keep2, kill2) twist by twist down the
    four (los, his) columns of _READS, where forced(keep, kill) =
    [max(0, lo(keep) - hi(kill)), hi(keep)]. Every read is a DimValue or
    a Bott value, so 0 <= lo <= hi holds for each forced part and for their
    sum, and each value is built with tuple.__new__; a value with hi 0 is
    the shared ZERO. A chase's own reads are finite; replay_trace's may
    have an open end, hi inf."""
    (_, kill1), (lo1, hi1), (_, kill2), (lo2, hi2) = cols
    los = [(x - y if x > y else 0) + (u - v if u > v else 0) for y, x, v, u in zip(kill1, lo1, kill2, lo2)]
    return [ZERO if h == 0 else tuple.__new__(DimValue, (lo, h)) for lo, h in zip(los, map(add, hi1, hi2))]


def replay_trace(entry: dict) -> DimValue:
    """Recompute the value of one entry of the --explain payload from the
    inputs it records: zero for the window rule, else the solve of its four
    reads, as columns of length one."""
    rule = entry["rule"]
    if rule == "window":
        return ZERO
    if rule not in ("solve-a", "solve-c"):
        raise ValueError(f"unknown trace rule {rule!r}")
    reads = [DimValue.from_json(i["value"]) for i in entry["inputs"]]
    (value,) = _solve([([v.lo], [v.hi]) for v in reads])
    return value


class ChaseResult(namedtuple("ChaseResult", "n tables plan")):
    """Everything a chase established, kept as its tables and plan.

    tables holds one table per solved unknown, whose windows are complete
    (rows 0..n) and whose rows, written once each in ascending twists, are the one store of the solved values; plan holds
    the (triple, position, name, offset) that solves each unknown, in
    solving order, and unknowns their names. entries, (unknown, q, twist)
    in the unknown's own coordinates to a value, in plan order, then q,
    then twist, is a read-only mapping built on first read. explain_json
    gives the provenance of every entry, reading each row as its solve did.
    """

    __setattr__ = __delattr__ = refuse_write

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

    def table(self, name: str, dim_z: int | None = None) -> CohomologyTable:
        if name not in self.tables:
            raise ValueError(f"unknown {name!r} was never constrained")
        t = self.tables[name]
        if dim_z is not None and t.dim_z != dim_z:
            return t.with_dim_z(dim_z)
        return t

    def explain_json(self) -> str:
        """The --explain payload, as deterministic JSON: n, every unknown's
        windows, and one entry per chased value, sorted by (unknown, q,
        twist), with its rule, its triple and the four reads its solve made
        (none for the window rule); replay_trace recomputes each entry."""
        entries = []
        for step in self.plan:
            tr, pos, name, offset = step
            label, terms = _label(tr), {role: str(tr.term(role)) for role in _POSITIONS}
            for q, row in self.tables[name].rows.items():
                solved = {}
                for lo, hi, cols in _row_reads(step, q, _merge((s, s) for s in row), self.tables):
                    solved.update(zip(range(lo, hi + 1), zip(*(zip(*col) for col in cols))))
                for s, v in row.items():
                    inputs = [
                        {"role": role, "term": terms[role], "q": q + dq, "twist": s - offset,
                         "value": DimValue(lo, hi).to_json()}
                        for (role, dq), (lo, hi) in zip(_READS[pos], solved.get(s, ()))
                    ]
                    rule = f"solve-{pos}" if s in solved else "window"
                    entries.append({"unknown": name, "q": q, "twist": s, "value": v.to_json(),
                                    "rule": rule, "triple": label, "inputs": inputs})
        entries.sort(key=lambda e: (e["unknown"], e["q"], e["twist"]))
        payload = {
            "n": self.n,
            "windows": {
                name: {str(q): w.to_json() for q, w in sorted(self.tables[name].windows.items())}
                for name in sorted(self.unknowns)
            },
            "entries": entries,
        }
        import json
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _chi_row(term: Term, ts: list, tables: dict) -> tuple:
    """The twists of the strictly ascending list ts where every row of a
    term is exact, and its Euler characteristic at each of them. A table's
    rows are read in turn, and a twist is dropped at its first inexact
    row."""
    if isinstance(term, VirtualSheaf):
        return ts, term.chi_row(ts)
    chis = [0] * len(ts)
    for q in range(tables[term.name].n + 1):
        if not ts:
            break
        los, his = _read_row(term, q, ts, tables)
        if los != his:
            keep = [i for i, (lo, hi) in enumerate(zip(los, his)) if lo == hi]
            ts, chis, los = [ts[i] for i in keep], [chis[i] for i in keep], [los[i] for i in keep]
        chis = [c - x if q % 2 else c + x for c, x in zip(chis, los)]
    return ts, chis


def chase(triples, queries=()) -> ChaseResult:
    """Solve an ordered list of exact triples for their unknowns.

    Each triple must introduce exactly one unknown not yet solved (its
    other TableRefs must point at unknowns solved by earlier triples);
    anything else raises ChaseDependencyError. That unknown must be an end
    term, a or c; a fresh middle term raises ValueError. queries is an
    iterable of (name, q, (lo, hi)) asking for an unknown's values on an
    inclusive twist range, in the unknown's own coordinates; a query on a
    name that no triple solves raises ValueError. A triple whose
    closed-form data no short exact sequence realizes breaks the Euler
    identity, which _materialize checks where it can fail, and raises
    InconsistentTripleError; the tests recompute the identity at every
    twist. The result's explain_json is the provenance of every value it
    holds, each entry replayable by replay_trace.
    """
    return _materialize(_window_pass(triples), queries)


def _window_pass(triples) -> ChaseResult:
    """Order the triples and bound the twist support of every unknown row.

    Returns a ChaseResult with one window-only table per unknown, whose
    plan holds a (triple, position, name, offset) per triple, in solving
    order.
    """
    triples = list(triples)
    if not triples:
        raise ValueError("chase needs at least one triple")
    n = triples[0].n
    if any(tr.n != n for tr in triples):
        raise ValueError("triples live on different projective spaces")

    # Each triple defines the unique ref that is not yet solved. The
    # support of that unknown's row lies in the union of the two rows it
    # sits between in the long exact sequence (the keep reads of _READS),
    # so the hull of their windows is a sound zero certificate. It skips
    # empty ones, most rows of a tangent chase: folding them in cost 1.7x.
    # An empty hull is the shared NOTHING: building it through Window
    # costs the window pass of an n = 24 tangent chase about a sixth more.
    tables = {}
    plan: list[tuple[ExactTriple, str, str, int]] = []
    for tr in triples:
        fresh = [pos for pos in _POSITIONS if isinstance(tr.term(pos), TableRef) and tr.term(pos).name not in tables]
        if len(fresh) != 1:
            what = "adds no new unknown (cycle or duplicate definition)" if not fresh else (
                f"needs {', '.join(repr(tr.term(p).name) for p in fresh)} before they are defined (cyclic or misordered)"
            )
            raise ChaseDependencyError(f"triple {_label(tr)}: {what}")
        pos = fresh[0]
        ref = tr.term(pos)
        if pos not in _READS:
            raise ValueError(f"triple {_label(tr)}: the middle term {ref.name!r} is never solved")
        windows = {}
        for q in range(n + 1):
            lo, hi = inf, -inf
            for p2, dq in _READS[pos][1::2]:
                term = tr.term(p2)
                if isinstance(term, VirtualSheaf):
                    w, shift = term.row_window(q + dq), ref.offset
                else:
                    w, shift = tables[term.name].window(q + dq), ref.offset - term.offset
                if w.lo <= w.hi:
                    lo, hi = min(lo, w.lo + shift), max(hi, w.hi + shift)
            windows[q] = Window(lo, hi) if lo <= hi else NOTHING
        tables[ref.name] = CohomologyTable(n, {}, windows)
        plan.append((tr, pos, ref.name, ref.offset))
    return ChaseResult(n, tables, tuple(plan))


# Most entries one chase may write, summed over its merged requirement runs
# before any row is solved: about 2 s and 125 MB (Python 3.11, one core of a
# shared 2-core host). The tests and the benchmark write at most 36,060.
MAX_CHASE_ENTRIES = 1_000_000


def _materialize(result: ChaseResult, queries) -> ChaseResult:
    """Materialize the queried entries, and every entry their solves read,
    into the window pass's result, and check each triple's Euler
    characteristics; returns that result. Only values are stored, in the
    solved unknowns' tables. Python-level work scales with rows and runs,
    not twists; the Euler check reads the unknown just solved first, since
    its rows are mostly intervals. It refuses over MAX_CHASE_ENTRIES unsolved."""
    n, tables, plan = result.n, result.tables, result.plan

    # Requirements per unknown and row, walking consumers before definers.
    req: dict[str, dict[int, list]] = {name: {} for name in result.unknowns}
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
            req[name].setdefault(deg, []).append((lo, hi))

    for tr, pos, name, offset in reversed(plan):
        rows = req[name] = {q: _merge(runs) for q, runs in req[name].items()}
        for p2, dq in _READS[pos]:
            other = tr.term(p2)
            if isinstance(other, TableRef):
                shift = other.offset - offset
                for q, runs in rows.items():
                    if 0 <= q + dq <= n:
                        req[other.name].setdefault(q + dq, []).extend((lo + shift, hi + shift) for lo, hi in runs)

    total = sum(hi - lo + 1 for rows in req.values() for runs in rows.values() for lo, hi in runs)
    if total > MAX_CHASE_ENTRIES:
        raise ValueError(f"the chase would write {total} entries, over the cap of {MAX_CHASE_ENTRIES}")

    # Materialization, in order, a row at a time into each unknown's
    # table: the entries inside the row's window solve from four column
    # reads, and those outside it are certified zero.
    for step in plan:
        tr, pos, name, offset = step
        for q in sorted(req[name]):
            runs = req[name][q]
            row = dict.fromkeys(chain.from_iterable(range(lo, hi + 1) for lo, hi in runs), ZERO)
            for lo, hi, cols in _row_reads(step, q, runs, tables):
                row.update(zip(range(lo, hi + 1), _solve(cols)))
            tables[name].rows[q] = row

        # Euler-characteristic consistency at the twists this triple
        # materialized, wherever all three columns are exact. It can fail
        # only where the end row the solve leaves out of the balance is
        # nonzero: h^0(a) for a solve of c, h^n(c) for one of a. Such a
        # twist has closed-form data that no short exact sequence realizes,
        # such as h^0(a(t)) > 0 = h^0(b(t)).
        runs = _merge(chain.from_iterable(req[name].values()))
        twists = list(chain.from_iterable(range(lo - offset, hi - offset + 1) for lo, hi in runs))
        role, q = ("a", 0) if pos == "c" else ("c", n)
        _, end = _read_row(tr.term(role), q, twists, tables)
        twists = [t for t, hi in zip(twists, end) if hi > 0]
        chis = {}
        for p2 in sorted(_POSITIONS, key=lambda p: p != pos):
            twists, col = _chi_row(tr.term(p2), twists, tables)
            chis[p2] = dict(zip(twists, col))
        for t in twists:
            a, b, c = (chis[p][t] for p in _POSITIONS)
            if a - b + c != 0:
                raise InconsistentTripleError(
                    f"triple {_label(tr)} at twist {t}: "
                    f"chi(a)-chi(b)+chi(c) = {a}-{b}+{c} != 0"
                )
    return result


def windowed_chase(triples, name: str, extra=()) -> ChaseResult:
    """Chase once: the window pass fixes the support windows, then every
    finite window row of the named unknown is materialized, plus any extra
    (name, q, (lo, hi)) queries."""
    result = _window_pass(triples)
    queries = list(extra)
    for q in range(result.n + 1):
        w = result.table(name).window(q)
        if w.is_finite:
            queries.append((name, q, (w.lo, w.hi)))
    return _materialize(result, queries)


def _en_triples(bundle: SplitBundle, n: int, ps, twist: int, kernels, prefix: str) -> list[ExactTriple]:
    """0 -> T_0 -> .. -> T_k -> K_k -> 0, T_i = Omega^{ps[i]}(twist) (x)
    Sym^{k-i}(bundle) from one sweep, cut into the triples 0 -> K_{i-1} ->
    T_i -> K_i -> 0 labelled prefix(i-1), K_0 = T_0 and kernels K_1..K_k."""
    if bundle.n != n:
        raise ValueError(f"bundle lives on P^{bundle.n}, not P^{n}")
    k = len(ps) - 1
    syms = sym_powers(bundle, k)
    terms = [tensor_with_split(normalize_atom(n, p, twist), syms[k - i]) for i, p in enumerate(ps)]
    return [
        ExactTriple(left, middle, kernel, n, label=f"{prefix}{i}")
        for i, (left, middle, kernel) in enumerate(zip([terms[0], *kernels[:-1]], terms[1:], kernels))
    ]


def en_complex_tangent(F: SplitBundle, n: int) -> list[ExactTriple]:
    """Eagon-Northcott complex of a split subsheaf F of the tangent bundle.

    The complex has terms Omega^{r+j} (x) Sym_j(F)(c1) for j = k..0 with
    r = rank F, k = n - r and c1 = c1(F), and resolves the ideal sheaf of
    the degeneracy scheme; the final map is Omega^r(c1) -> I_Z. Returned
    broken into k short exact triples with unknowns U{k-2}, .., U0, I_Z.
    """
    k = n - F.rank
    if k < 1:
        raise ValueError("need rank(F) <= n - 1")
    kernels = [TableRef(f"U{j}") for j in range(k - 2, -1, -1)] + [TableRef("I_Z")]
    return _en_triples(F, n, range(n, F.rank - 1, -1), F.c1, kernels, "en")


def en_complex_pfaff(E: SplitBundle, r: int, n: int) -> list[ExactTriple]:
    """Eagon-Northcott triples for split Pfaff data of dimension r >= 1.

    E = (+) O(a_i) has rank n - r and c = sum a_i; the complex, with
    Lambda^q T rewritten as Omega^{n-q}(n+1), runs

        0 -> Sym_r(E)(n+1+c) -> ... -> Omega^r(n+1+c) -> I_Z -> 0,

    except that for r = 1 it is kept untwisted, 0 -> E -> Omega^1 ->
    I_Z(d-1) -> 0 with d = -n - c the distribution degree.
    """
    check_pfaff_dimension(r)
    if E.rank != n - r:
        raise ValueError(
            f"Pfaff data of dimension {r} on P^{n} needs rank {n - r}, "
            f"got {E.rank}"
        )
    # The r = 1 complex is the general one twisted by -(n+1+c) = d - 1,
    # which I_Z then carries as its offset.
    s = 0 if r == 1 else n + 1 + E.c1
    kernels = [TableRef(f"ker{i}") for i in range(1, r)] + [TableRef("I_Z", s - n - 1 - E.c1)]
    return _en_triples(E, n, range(r + 1), s, kernels, "pf")


def ideal_chase(bundle: SplitBundle, n: int, r: int | None = None, extra=()) -> ChaseResult:
    """The one chase of the ideal sheaf of split data: the tangent
    Eagon-Northcott complex of F in T when r is None, where dim Z =
    rank(F) - 1, else the Pfaff complex of dimension r, where dim Z =
    n - r - 1. Every finite window row of I_Z is materialized, plus the
    extra queries, and the result's I_Z table carries dim Z."""
    if r is None:
        triples, dim_z = en_complex_tangent(bundle, n), bundle.rank - 1
    else:
        triples, dim_z = en_complex_pfaff(bundle, r, n), n - r - 1
    result = windowed_chase(triples, "I_Z", extra)
    result.tables["I_Z"].dim_z = dim_z
    return result


def tangent_ideal_table(F: SplitBundle, n: int, extra=()) -> CohomologyTable:
    """Ideal-sheaf cohomology of the degeneracy scheme of split F in T."""
    return ideal_chase(F, n, None, extra).table("I_Z")


def pfaff_ideal_table(E: SplitBundle, r: int, n: int, extra=()) -> CohomologyTable:
    """Ideal-sheaf cohomology of the singular scheme of split Pfaff data."""
    return ideal_chase(E, n, r, extra).table("I_Z")
