"""Decision procedures on cohomology tables.

Splitting criteria (Horrocks, Evans-Griffith, Kumar-Peterson-Rao), the ACM
and numeric Buchsbaum checks, Castelnuovo-Mumford regularity, and the
Beilinson-type rank bound all reduce to questions of the form "does row q
vanish at every twist". A table can answer that honestly in three ways:
certified yes (the row's window is empty, or every twist inside a finite
window is materialized as exact zero), witnessed no (some entry has a
positive lower bound), or undetermined (intervals straddle zero, or the
window is unbounded). Verdicts carry the witnesses, never just a boolean.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf

from .cohomology import MAX_TABLE_ENTRIES, CohomologyTable, DimValue


class InapplicableError(ValueError):
    """A criterion's hypotheses exclude the given input."""


class Verdict(namedtuple("Verdict", "decision witnesses certificate")):
    """Outcome of a criterion: holds / fails / undetermined, justified.

    Witnesses are (q, twist, value) triples; fails always carries the
    offending entries, undetermined carries the blockers when they are
    localized, and holds relies on the certificate string.
    """

    __slots__ = ()

    def __new__(cls, decision: str, witnesses: tuple[tuple[int, int, DimValue], ...] = (), certificate: str = "") -> "Verdict":
        if decision not in ("holds", "fails", "undetermined"):
            raise ValueError(f"unknown decision {decision!r}")
        if decision in ("holds", "fails"):
            if not witnesses and not certificate:
                raise ValueError(
                    "holds/fails needs a witness or a certificate"
                )
        return tuple.__new__(cls, (decision, witnesses, certificate))

    @property
    def holds(self) -> bool:
        return self.decision == "holds"

    def to_json(self) -> dict:
        return {
            "decision": self.decision,
            "witnesses": [[q, t, v.to_json()] for q, t, v in self.witnesses],
            "certificate": self.certificate,
        }


def _row_status(table: CohomologyTable, q: int):
    """Classify row q: ('zero', None), ('nonzero', witness), or
    ('unknown', reason). A definite nonzero, lo > 0, wins even in an
    unbounded window; the witness is the least such twist, found in one pass
    over the row. Else the first possibly nonzero twist decides."""
    row = table.rows.get(q, {})
    t = min((t for t, v in row.items() if v.lo > 0), default=None)
    if t is not None:
        return "nonzero", (q, t, row[t])
    entries = possible_entries(table, q)
    if entries is None:
        return "unknown", f"row {q} window is unbounded"
    first = next(entries, None)
    if first:
        return "unknown", f"row {q} not pinned at twist {first[0]}"
    return "zero", None


def _empty_range(q_lo: int, q_hi: int, label: str) -> Verdict:
    return Verdict("holds", (), f"{label}: empty row range {q_lo}..{q_hi}")


_NO_INTERMEDIATE_ROWS = Verdict("holds", (), "buchsbaum: no intermediate rows")


def vanishing_verdict(
    table: CohomologyTable, q_lo: int, q_hi: int, label: str
) -> Verdict:
    """holds iff rows q_lo..q_hi are certified zero at every twist."""
    if q_lo > q_hi:
        return _empty_range(q_lo, q_hi, label)
    witnesses = []
    blockers = []
    for q in range(q_lo, q_hi + 1):
        status, info = _row_status(table, q)
        if status == "nonzero":
            witnesses.append(info)
        elif status == "unknown":
            blockers.append((q, info))
    if witnesses:
        return Verdict(
            "fails",
            tuple(witnesses),
            f"{label}: nonzero intermediate cohomology",
        )
    if blockers:
        reasons = "; ".join(info for _, info in blockers)
        return Verdict("undetermined", (), f"{label}: {reasons}")
    return Verdict(
        "holds", (), f"{label}: rows {q_lo}..{q_hi} certified zero at all twists"
    )


def horrocks(table: CohomologyTable) -> Verdict:
    """Split iff no intermediate cohomology: rows 1..n-1 vanish."""
    return vanishing_verdict(table, 1, table.n - 1, "horrocks")


def evans_griffith(table: CohomologyTable, rank: int, n: int) -> Verdict:
    """Low-rank refinement: rows 1..rank-1 vanish, for rank <= n."""
    if n != table.n:
        raise ValueError("n does not match the table")
    if rank < 1:
        raise ValueError("rank must be positive")
    if rank > n:
        raise InapplicableError(
            f"evans-griffith needs rank <= n, got rank {rank} on P^{n}"
        )
    return vanishing_verdict(table, 1, rank - 1, "evans-griffith")


def kpr(table: CohomologyTable, rank: int, n: int) -> Verdict:
    """Middle-band criterion: rows 2..n-2 vanish. Applies for rank <= n-1
    on even-dimensional spaces and rank <= n-2 on odd-dimensional ones."""
    if n != table.n:
        raise ValueError("n does not match the table")
    if rank < 1:
        raise ValueError("rank must be positive")
    limit = n - 1 if n % 2 == 0 else n - 2
    if rank > limit:
        raise InapplicableError(
            f"kpr needs rank <= {limit} on P^{n} (n {'even' if n % 2 == 0 else 'odd'}), got {rank}"
        )
    return vanishing_verdict(table, 2, n - 2, "kpr")


def _dim_z(ideal_table: CohomologyTable) -> int:
    """The scheme dimension of an ideal-sheaf check, the table's own dim_z,
    refused unless it lies in -1 (the empty scheme) .. n-1."""
    dim_z = ideal_table.dim_z
    if dim_z is None:
        raise ValueError("dimension of the subscheme is required")
    if dim_z > ideal_table.n - 1:
        raise ValueError("a proper subscheme has dimension at most n-1")
    if dim_z < -1:
        raise ValueError("a subscheme has dimension at least -1 (the empty scheme)")
    return dim_z


def acm_check(ideal_table: CohomologyTable) -> Verdict:
    """Arithmetically Cohen-Macaulay: rows 1..dim Z of the ideal sheaf
    vanish at all twists, dim Z being the table's own."""
    return vanishing_verdict(ideal_table, 1, _dim_z(ideal_table), "acm")


def possible_entries(table: CohomologyTable, q: int, lo=-inf, hi=inf):
    """An iterator of the (twist, value) pairs, ascending, where row q is
    possibly nonzero at twists lo..hi clipped to the row's window, which
    certifies every twist outside it zero: an empty clip leaves nothing, and
    None means the twists cannot be enumerated (the clip is open at an end).
    It is lazy, so the first pair costs one step per exact zero before it: a
    twist that is no entry of the row is possibly nonzero."""
    w = table.window(q)
    lo, hi = max(lo, w.lo), min(hi, w.hi)
    if lo > hi:
        return iter(())
    if lo == -inf or hi == inf:
        return None
    return ((t, v) for t in range(lo, hi + 1) if (v := table.value(q, t)).possibly_nonzero)


def _gap_violation(entries: dict[int, dict]):
    """First pair (p, i, vp), (q, j, vq) with p < q and (p+i) - (q+j) = 1
    among per-row dicts of twist -> value, in row order and then twist
    order, or None: the partner of (p, i) in row q is the one twist
    j = p + i - q - 1."""
    for p, row_p in entries.items():
        for q, row_q in entries.items():
            if p < q:
                for i, vp in row_p.items():
                    if (j := p + i - q - 1) in row_q:
                        return (p, i, vp), (q, j, row_q[j])
    return None


def _first_consecutive(twists) -> int | None:
    """Least t with t and t + 1 both among the twists, or None."""
    return next((t for t in sorted(twists) if t + 1 in twists), None)


def buchsbaum_numeric(ideal_table: CohomologyTable) -> Verdict:
    """Numeric sufficient criterion for arithmetically Buchsbaum.

    Two conditions over rows 1..dim Z, dim Z being the table's own. The gap
    condition: nonzero h^p(I(i)) and h^q(I(j)) with p < q force
    (p+i) - (q+j) != 1; violated by two definite nonzeros -> fails. The
    multiplication condition concerns maps, which a table cannot see; the
    sufficient numeric form used here is that no row is possibly nonzero at
    two consecutive twists, so every multiplication map lands in (or starts
    from) a zero group. Both certified -> holds; gap condition intact but
    the multiplication criterion not certifiable -> undetermined.
    """
    dim_z = _dim_z(ideal_table)
    if dim_z <= 0:
        return _NO_INTERMEDIATE_ROWS

    rows = range(1, dim_z + 1)

    # Definite gap violations first: they decide "fails" outright.
    definite = {q: dict(sorted((t, v) for t, v in ideal_table.rows.get(q, {}).items() if v.lo > 0)) for q in rows}
    gap = _gap_violation(definite)
    if gap is not None:
        (p, i, _), (q, j, _) = gap
        return Verdict(
            "fails",
            gap,
            f"buchsbaum: gap condition violated, (p+i)-(q+j)=1 at p={p}, i={i}, q={q}, j={j}",
        )

    # For a positive verdict every row must be enumerable, and no row that
    # table() or the chase writes is wider than MAX_TABLE_ENTRIES twists.
    possible: dict[int, dict] = {}
    for q in rows:
        entries, w = possible_entries(ideal_table, q), ideal_table.window(q)
        if entries is None or w.hi - w.lo >= MAX_TABLE_ENTRIES:
            why = "missing or unbounded window" if entries is None else (
                f"window of {w.hi - w.lo + 1} twists, over the cap of {MAX_TABLE_ENTRIES}"
            )
            return Verdict("undetermined", (), f"buchsbaum: row {q} cannot be enumerated ({why})")
        possible[q] = dict(entries)

    gap = _gap_violation(possible)
    if gap is not None:
        (p, i, _), (q, j, _) = gap
        return Verdict(
            "undetermined",
            gap,
            f"buchsbaum: possible gap-condition violation at p={p}, i={i}, q={q}, j={j}",
        )

    for q in rows:
        vs = possible[q]
        t = _first_consecutive(vs)
        if t is not None:
            return Verdict(
                "undetermined",
                ((q, t, vs[t]), (q, t + 1, vs[t + 1])),
                f"buchsbaum: multiplication criterion not certifiable, row {q} possibly nonzero at consecutive twists {t}, {t + 1}",
            )

    return Verdict(
        "holds",
        (),
        "buchsbaum: gap condition holds and all multiplication maps meet a zero group",
    )


def hilbert_deficiency_verdicts(dim_z: int, deficiency) -> tuple[Verdict, Verdict]:
    """ACM and numeric Buchsbaum verdicts of a scheme Z from its Hilbert
    deficiency, the pairs (t, HP(t) - HF(t)) with a positive gap at t >= 0.

    A gap bounds h^1(I_Z(t)) from below, which settles the intermediate
    rows 1..dim Z only when dim Z <= 1 (InapplicableError otherwise, and for
    the empty scheme). In dimension 0 the range is empty and both hold; in
    dimension 1 a gap is an ACM failure, a clean scan is undetermined (t < 0
    is invisible), and gaps at consecutive twists leave Buchsbaum open."""
    if dim_z < 0:
        raise InapplicableError("empty scheme")
    if dim_z > 1:
        raise InapplicableError("dim Z >= 2: Hilbert data alone cannot bound h^1")
    if dim_z == 0:
        return _empty_range(1, dim_z, "acm"), _NO_INTERMEDIATE_ROWS
    if deficiency:
        acm = Verdict("fails", tuple((1, t, DimValue(gap, inf)) for t, gap in deficiency))
    else:
        acm = Verdict(
            "undetermined",
            (),
            "no deficiency at t >= 0; twists t < 0 are invisible to a Hilbert function",
        )
    support = [t for t, _ in deficiency]
    if _first_consecutive(support) is not None:
        bb = Verdict("undetermined", (), f"deficiency at consecutive twists {support}")
    elif support:
        bb = Verdict("holds", (), f"deficiency support {support}: no consecutive twists")
    else:
        bb = Verdict("holds", (), "no visible deficiency module")
    return acm, bb


def regularity(ideal_table: CohomologyTable) -> int:
    """Least m with h^q(I(m-q)) = 0 for all q > 0, stably so; it can be
    negative (O(5) is -5-regular).

    Each row's contribution is top_q + q + 1 where top_q is the first
    possibly nonzero twist read down from the window's upper edge. A window
    open below is read down to the first twist under the materialized row,
    which is not pinned to zero, so on tables with interval entries the
    result is a safe upper bound."""
    tops = []
    for q in range(1, ideal_table.n + 1):
        w = ideal_table.window(q)
        if w.empty:
            continue
        if w.hi == inf:
            raise ValueError(
                f"row {q} is unbounded above; regularity is undecidable"
            )
        lo = max(w.lo, min([w.hi, *ideal_table.rows.get(q, {})]) - 1)
        top = next((t for t in range(w.hi, lo - 1, -1) if ideal_table.value(q, t).possibly_nonzero), None)
        if top is not None:
            tops.append(top + q + 1)
    return max(tops, default=0)


def beilinson_rank_bound(table: CohomologyTable, n: int) -> int:
    """Rank lower bound n * h^{n-1}(F(-n-1)) from the Beilinson spectral
    sequence, valid on P^n, n >= 4, under three vanishing hypotheses:

      (i)   h^0(F(s)) = 0 for s <= -2;
      (ii)  h^q(F(s)) = 0 for -n-2 <= s <= -2 and 2 <= q <= n-2;
      (iii) h^{n-1}(F(s)) = 0 for s = -n-2 and -n <= s <= -2.

    Each hypothesis must be certified by the table or the bound is
    inapplicable (raised, naming the clause that blocked)."""
    if n != table.n:
        raise ValueError("n does not match the table")
    if n < 4:
        raise InapplicableError("rank bound needs n >= 4")

    entries = possible_entries(table, 0, hi=-2)
    if entries is None:
        raise InapplicableError("clause (i) not certifiable: row 0 unbounded below")
    first = next(entries, None)
    if first:
        raise InapplicableError(
            f"clause (i) fails: h^0 at twist {first[0]} not certified zero"
        )

    for q in range(2, n - 1):
        first = next(possible_entries(table, q, -n - 2, -2), None)
        if first:
            raise InapplicableError(
                f"clause (ii) fails: h^{q} at twist {first[0]} not certified zero"
            )

    s = next((s for s, _ in possible_entries(table, n - 1, -n - 2, -2) if s != -n - 1), None)
    if s is not None:
        raise InapplicableError(
            f"clause (iii) fails: h^{n - 1} at twist {s} not certified zero"
        )

    a = table.value(n - 1, -n - 1)
    if not a.is_exact:
        raise InapplicableError(
            f"h^{n - 1} at twist {-n - 1} is not exact: {a}"
        )
    return n * a.lo
