"""Open ends as -inf/inf, against the None encoding they replaced.

A Window or a DimValue marks an open end with -inf or inf (math.inf), and
every empty window equals NOTHING = Window(inf, -inf), so a clip or a hull
is one max and one min. The code it replaced marked an open end with None
and an empty window with a flag. Its possible_entries and the window
pass's hull are kept below on that encoding, as plain data, and seeded
hypothesis runs compare them with the library over random windows of every
shape (finite, open below, open above, open at both ends, empty) and
random explicit twist ranges. The JSON forms map an open end to null, so
tables, verdicts and values of every shape round-trip, and a writer
refuses an inf that leaks into a number. The row-by-row window pass that
the column-at-a-time pass replaced is kept below as well, and compared with
the library on Eagon-Northcott data.
"""

import json
import random
from itertools import combinations_with_replacement
from math import inf

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from singscheme import cli, criteria
from singscheme.chase import (
    _READS,
    ChaseResult,
    ExactTriple,
    TableRef,
    _materialize,
    _window_pass,
    en_complex_pfaff,
    en_complex_tangent,
    windowed_chase,
)
from singscheme.chow import SplitBundle
from singscheme.cohomology import NOTHING, CohomologyTable, DimValue, VirtualSheaf, Window
from singscheme.criteria import Verdict, possible_entries

EMPTY = "empty"

# ------------------------------------------------ the replaced encoding
#
# A window is EMPTY, or (lo, hi) with None for an open end; a missing
# window is None and excludes no twist. A value is (lo, hi)
# with hi None for no upper bound.


def old_contains(w, t: int) -> bool:
    if w == EMPTY:
        return False
    lo, hi = (None, None) if w is None else w
    return (lo is None or t >= lo) and (hi is None or t <= hi)


def old_value(rows: dict, windows: dict, n: int, q: int, t: int):
    """CohomologyTable.value as it read the replaced encoding."""
    if q < 0 or q > n:
        return (0, 0)
    row = rows.get(q, {})
    if t in row:
        return row[t]
    return (0, None) if old_contains(windows.get(q), t) else (0, 0)


def old_possible_entries(rows: dict, windows: dict, n: int, q: int, lo=None, hi=None):
    """possible_entries as it was: an open end (None) stops at the row's
    window, an empty window leaves nothing, and None means the twists
    cannot be enumerated; explicit ends are read as given."""
    if lo is None or hi is None:
        w = EMPTY if q < 0 or q > n else windows.get(q) or (None, None)
        if w == EMPTY:
            return []
        lo = w[0] if lo is None else lo
        hi = w[1] if hi is None else hi
        if lo is None or hi is None:
            return None
    out = []
    for t in range(lo, hi + 1):
        v = old_value(rows, windows, n, q, t)
        if v[1] is None or v[1] > 0:
            out.append((t, v))
    return out


def old_hull(shifted):
    """The window pass's hull as it was, over (window, shift) pairs: the
    empty windows drop out, and a None end anywhere stays open."""
    los, his = [], []
    for w, shift in shifted:
        if w != EMPTY:
            los.append(None if w[0] is None else w[0] + shift)
            his.append(None if w[1] is None else w[1] + shift)
    if not los:
        return EMPTY
    return (None if None in los else min(los), None if None in his else max(his))


def new_window(w) -> Window:
    if w == EMPTY:
        return NOTHING
    lo, hi = (None, None) if w is None else w
    return Window(-inf if lo is None else lo, inf if hi is None else hi)


def new_value(v) -> DimValue:
    return DimValue(v[0], inf if v[1] is None else v[1])


def old_of(v: DimValue):
    return (v.lo, None if v.hi == inf else v.hi)


# ------------------------------------------------------------ strategies

ends = st.integers(-8, 8)


@st.composite
def old_windows(draw):
    """A window of every shape in the replaced encoding, lo <= hi where
    both ends are finite (an inverted window is NOTHING, tested apart)."""
    shape = draw(st.sampled_from(("finite", "below", "above", "both", "empty")))
    lo, hi = sorted((draw(ends), draw(ends)))
    return {
        "finite": (lo, hi),
        "below": (None, hi),
        "above": (lo, None),
        "both": (None, None),
        "empty": EMPTY,
    }[shape]


old_values = st.one_of(
    st.integers(0, 3).map(lambda v: (v, v)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda p: (p[0], p[0] + p[1])),
    st.integers(0, 3).map(lambda v: (v, None)),
)


@st.composite
def old_tables(draw):
    """(n, rows, windows) in the replaced encoding. Row entries lie inside
    their window, or are zero: the window certifies every twist outside
    it zero. A row may have no window, which excludes no twist."""
    n = draw(st.integers(1, 4))
    windows = {q: draw(old_windows()) for q in range(n + 1) if draw(st.booleans())}
    rows = {}
    for q in range(n + 1):
        row = {}
        for t in draw(st.lists(st.integers(-10, 10), max_size=6)):
            row[t] = draw(old_values) if old_contains(windows.get(q), t) else (0, 0)
        rows[q] = dict(sorted(row.items()))
    return n, rows, windows


def to_table(n, rows, windows) -> CohomologyTable:
    return CohomologyTable(
        n,
        {q: {t: new_value(v) for t, v in row.items()} for q, row in rows.items()},
        {q: new_window(w) for q, w in windows.items()},
    )


class GivenWindows(VirtualSheaf):
    """A closed-form term whose row windows are given, so the window pass,
    which reads a sheaf's windows tuple, and row_window, which reads one of
    them, see windows of any shape."""

    def __new__(cls, n: int, atoms: tuple, given: tuple):
        sheaf = super().__new__(cls, n, atoms)
        object.__setattr__(sheaf, "given", given)
        return sheaf

    @property
    def windows(self) -> tuple:
        return self.given


# ----------------------------------------------------------------- tests


class TestPossibleEntries:
    @seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(tab=old_tables(), data=st.data())
    def test_matches_the_none_reference(self, tab, data):
        n, rows, windows = tab
        table = to_table(n, rows, windows)
        q = data.draw(st.integers(-1, n + 1), label="q")
        lo = data.draw(st.none() | st.integers(-12, 12), label="lo")
        hi = data.draw(st.none() | st.integers(-12, 12), label="hi")
        def listed(entries):
            return entries if entries is None else list(entries)

        want = old_possible_entries(rows, windows, n, q, lo, hi)
        got = listed(possible_entries(table, q, -inf if lo is None else lo, inf if hi is None else hi))
        assert (got if got is None else [(t, old_of(v)) for t, v in got]) == want
        if lo is None and hi is None:
            assert listed(possible_entries(table, q)) == got


class TestWindowPassHull:
    """The chase's window pass, whose hull starts at NOTHING and takes one
    min and one max per read, against the None hull, over chains that
    solve a cokernel and a kernel from given windows and from the windows
    of earlier unknowns, with offsets."""

    @seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_the_none_reference(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        old = {name: [data.draw(old_windows()) for _ in range(n + 1)] for name in "ABC"}
        sheaves = {name: GivenWindows(n, (), tuple(map(new_window, ws))) for name, ws in old.items()}
        off = data.draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6), label="offsets")
        triples = [
            ExactTriple(sheaves["A"], sheaves["B"], TableRef("X", off[0]), n),
            ExactTriple(TableRef("Y", off[1]), sheaves["C"], TableRef("X", off[2]), n),
            ExactTriple(TableRef("Y", off[3]), TableRef("X", off[4]), TableRef("Z", off[5]), n),
        ]

        def old_read(term, q, own):
            """(window, shift) of a keep read, in the replaced encoding."""
            if not 0 <= q <= n:
                return EMPTY, 0
            if isinstance(term, TableRef):
                return old[term.name][q], own - term.offset
            return old[next(k for k, s in sheaves.items() if s is term)][q], own

        keeps = {"c": (("b", 0), ("a", 1)), "a": (("c", -1), ("b", 0))}
        for tr, (pos, name) in zip(triples, (("c", "X"), ("a", "Y"), ("c", "Z"))):
            own = tr.term(pos).offset
            old[name] = [old_hull(old_read(tr.term(p), q + dq, own) for p, dq in keeps[pos]) for q in range(n + 1)]

        tables = _window_pass(triples).tables
        for name in "XYZ":
            assert [tables[name].window(q) for q in range(n + 1)] == [new_window(w) for w in old[name]], name


def row_by_row_pass(triples) -> ChaseResult:
    """The window pass as it was before it read whole columns: row by row,
    one window per keep read through row_window or CohomologyTable.window,
    folded into the hull with the empty ones skipped."""
    n, tables, plan = triples[0].n, {}, []
    for tr in triples:
        pos = next(p for p in "ac" if isinstance(tr.term(p), TableRef) and tr.term(p).name not in tables)
        ref = tr.term(pos)
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


def _random_en_data(count: int):
    rng = random.Random(20261022)
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            n = rng.randint(2, 12)
            F = SplitBundle(n, [rng.randint(-5, 3) for _ in range(rng.randint(1, n - 1))])
            out.append((f"tangent:n={n}:{F.twists}", en_complex_tangent(F, n), 20))
        else:
            r, rank = rng.randint(1, 4), rng.randint(1, 4)
            E = SplitBundle(r + rank, [rng.randint(-6, 1) for _ in range(rank)])
            out.append((f"pfaff:r={r}:{E.twists}", en_complex_pfaff(E, r, r + rank), 40))
    return out


WINDOW_PASS_GRID = (
    [
        (f"tangent:n={n}:s={s}", en_complex_tangent(SplitBundle(n, range(s - 3, s + 3)), n), 0)
        for n in (21, 24, 26)
        for s in range(-3, 4)
    ]
    + [
        (f"pfaff:r={r}:{twists}", en_complex_pfaff(SplitBundle(r + len(twists), twists), r, r + len(twists)), 100)
        for r in (1, 2, 3)
        for rank in (2, 3)
        for twists in combinations_with_replacement((-4, -3, -2), rank)
    ]
    + _random_en_data(40)
)


class TestColumnWindowPass:
    """The column-at-a-time window pass against the row-by-row one, on the
    tangent and Pfaff data of the closed-form benchmark and on seeded random
    Eagon-Northcott data: the same plan, every unknown's windows and, after
    windowed_chase's queries over -radius..radius, the same rows and the
    same --explain payload. Data that no exact sequence realizes fails its
    Euler check the same way on both."""

    @pytest.mark.parametrize("key, triples, radius", WINDOW_PASS_GRID, ids=[key for key, *_ in WINDOW_PASS_GRID])
    def test_matches_the_row_by_row_pass(self, key, triples, radius):
        n = triples[0].n
        extra = [("I_Z", q, (-radius, radius)) for q in range(n + 1)] if radius else []
        ref = row_by_row_pass(triples)
        new = _window_pass(triples)
        assert new.plan == ref.plan
        assert {name: tab.windows for name, tab in new.tables.items()} == {
            name: tab.windows for name, tab in ref.tables.items()
        }
        windows = ref.tables["I_Z"].windows
        queries = extra + [("I_Z", q, (w.lo, w.hi)) for q, w in windows.items() if w.is_finite]
        outcomes = []
        for run in (lambda: _materialize(ref, queries), lambda: windowed_chase(triples, "I_Z", extra)):
            try:
                result = run()
            except ValueError as e:
                outcomes.append(repr(e))
            else:
                outcomes.append(([(name, tab.windows, tab.rows) for name, tab in result.tables.items()], result.explain()))
        assert outcomes[0] == outcomes[1]


class TestEncoding:
    @seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(w=old_windows(), other=old_windows())
    def test_nothing_is_the_identity_of_a_hull_and_the_zero_of_a_clip(self, w, other):
        w, other = new_window(w), new_window(other)
        assert Window(min(NOTHING.lo, w.lo), max(NOTHING.hi, w.hi)) == w
        assert Window(max(NOTHING.lo, w.lo), min(NOTHING.hi, w.hi)) == NOTHING
        hull = Window(min(w.lo, other.lo), max(w.hi, other.hi))
        assert all(hull.contains(t) for t in range(-10, 11) if w.contains(t) or other.contains(t))

    @pytest.mark.parametrize("lo, hi", [(1, 0), (5, -5), (inf, -inf), (0, -inf), (inf, 0), (10**40, 3)])
    def test_every_inverted_window_is_nothing(self, lo, hi):
        w = Window(lo, hi)
        assert w == NOTHING and w.empty and not w.contains(0) and not w.is_finite

    @pytest.mark.parametrize(
        "w, text",
        [
            (Window(-2, 3), '{"hi": 3, "lo": -2}'),
            (Window(-inf, 3), '{"hi": 3, "lo": null}'),
            (Window(-2, inf), '{"hi": null, "lo": -2}'),
            (Window(-inf, inf), '{"hi": null, "lo": null}'),
            (NOTHING, '{"empty": true}'),
        ],
        ids=["finite", "open below", "open above", "open at both ends", "empty"],
    )
    def test_window_json_round_trip(self, w, text):
        assert json.dumps(w.to_json(), sort_keys=True, allow_nan=False) == text
        assert Window.from_json(json.loads(text)) == w

    @pytest.mark.parametrize(
        "v, text",
        [(DimValue.exact(4), "4"), (DimValue(1, 5), "[1, 5]"), (DimValue(2, inf), "[2, null]")],
        ids=["exact", "interval", "open above"],
    )
    def test_value_json_round_trip(self, v, text):
        assert json.dumps(v.to_json(), allow_nan=False) == text
        assert DimValue.from_json(json.loads(text)) == v

    def test_table_with_open_windows_and_values_dumps_null(self):
        t = CohomologyTable(
            3,
            {0: {0: DimValue(1, inf), 1: DimValue(0, 4)}, 1: {2: DimValue(3, inf)}},
            {0: Window(0, inf), 1: Window(-inf, inf), 2: NOTHING, 3: Window(-inf, -4)},
            dim_z=1,
        )
        text = t.dumps()
        assert "Infinity" not in text and "null" in text
        back = CohomologyTable.loads(text)
        assert (back.n, back.rows, back.windows, back.dim_z) == (t.n, t.rows, t.windows, t.dim_z)

    def test_verdict_with_open_witness_dumps_null(self):
        v = Verdict("fails", ((1, 0, DimValue(3, inf)), (1, 2, DimValue(1, 1))))
        text = json.dumps(v.to_json(), allow_nan=False)
        assert '[1, 0, [3, null]]' in text
        back = [(q, t, DimValue.from_json(value)) for q, t, value in json.loads(text)["witnesses"]]
        assert tuple(back) == v.witnesses

    def test_a_leaked_inf_is_refused_not_written(self):
        t = CohomologyTable(1, {0: {0: DimValue(inf, inf)}}, {})
        with pytest.raises(ValueError, match="not JSON compliant"):
            t.dumps()

    def test_a_leaked_inf_ends_in_an_error_line(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "t.table.json"
        path.write_text(CohomologyTable(4, {}, {}).dumps(), encoding="utf-8")
        monkeypatch.setattr(criteria, "beilinson_rank_bound", lambda table, n: inf)
        code = cli.main(["beilinson-bound", "--table", str(path), "--json"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: Out of range float values are not JSON compliant")
        assert err.count("\n") == 1
