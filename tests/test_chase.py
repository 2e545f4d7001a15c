"""Chase engine tests.

The solver itself is checked three ways: against hand-computed long exact
sequence values for the ideal sheaf of two disjoint lines in P^3 (where
the true table is known in closed form), against the rank-nullity zero
built into every exact triple (the Euler consistency guard), and by
replaying every emitted trace. The complex builders are checked at the
level of terms (which Omega powers, which twists) and then at the level
of chased output: intermediate rows certified empty for split tangent
data, the pinned h^2 singleton for split Pfaff data, and the degradation
witnesses when twist gaps break the Buchsbaum numerics.
"""

import json
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

from singscheme.chase import (
    _READS,
    ChaseDependencyError,
    ChaseResult,
    ExactTriple,
    InconsistentTripleError,
    TableRef,
    Trace,
    _solve,
    chase,
    distribution_cohomology_bounds,
    en_complex_pfaff,
    en_complex_tangent,
    pfaff_ideal_table,
    replay_trace,
    tangent_ideal_table,
    windowed_chase,
)
from singscheme.chow import SplitBundle
from singscheme.cohomology import (
    CohomologyTable,
    CotangentPower,
    DimValue,
    LineBundle,
    VirtualSheaf,
    Window,
    table,
    tangent_sheaf,
)
from singscheme.criteria import (
    InapplicableError,
    acm_check,
    beilinson_rank_bound,
    buchsbaum_numeric,
    regularity,
)


def O(n, *twists):
    return VirtualSheaf.from_split(SplitBundle(n, twists))


def resolution_table(left, middle):
    """h^q(I_Z(t)) chased out of a two-term resolution 0 -> left -> middle
    -> I_Z -> 0 of a codimension-2 ideal sheaf."""
    n = left.n
    triples = [ExactTriple(left, middle, TableRef("I_Z"), n)]
    return windowed_chase(triples, "I_Z").table("I_Z", dim_z=n - 2)


def two_lines_table():
    """0 -> O(-2)^2 -> Omega^1 -> I_Z -> 0 for two disjoint lines in P^3."""
    return resolution_table(O(3, -2, -2), VirtualSheaf.from_atom(3, CotangentPower(1, 0)))


def two_lines_truth(q, t):
    """Closed-form h^q(I_Z(t)) for two disjoint lines in P^3."""
    if q == 0:
        return comb(t + 3, 3) - 2 * (t + 1) if t >= 1 else 0
    if q == 1:
        return 1 if t == 0 else 0
    if q == 2:
        return 2 * max(0, -t - 1)
    if q == 3:
        return comb(-t - 1, 3) if -t - 1 >= 3 else 0
    return 0


class TestExactTriple:
    def test_rank_additivity_enforced(self):
        with pytest.raises(ValueError, match="rank additivity"):
            ExactTriple(O(3, -1), O(3, 0), O(3, 0, 1), 3)

    def test_rank_additivity_ok(self):
        t = ExactTriple(O(3, -1), O(3, -1, 0), O(3, 0), 3)
        assert t.term("b").rank == 2

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError, match="P\\^2"):
            ExactTriple(O(2, -1), O(3, -1, 0), TableRef("X"), 3)

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="positive"):
            ExactTriple(TableRef("A"), O(3, 0), TableRef("X"), 0)


class TestChaseValidation:
    def test_two_fresh_unknowns(self):
        t = ExactTriple(TableRef("A"), O(3, 0), TableRef("B"), 3)
        with pytest.raises(ChaseDependencyError, match="before they are defined"):
            chase([t])

    def test_cycle_between_triples(self):
        t1 = ExactTriple(TableRef("A"), O(3, 0), TableRef("B"), 3)
        t2 = ExactTriple(TableRef("B"), O(3, 0), TableRef("A"), 3)
        with pytest.raises(ChaseDependencyError):
            chase([t1, t2])

    def test_duplicate_definition(self):
        t1 = ExactTriple(O(3, -1), O(3, -1, 0), TableRef("X"), 3)
        t2 = ExactTriple(O(3, -2), O(3, -2, 5), TableRef("X"), 3)
        with pytest.raises(ChaseDependencyError, match="no new unknown"):
            chase([t1, t2])

    def test_empty_chase(self):
        with pytest.raises(ValueError, match="at least one"):
            chase([], [("X", 0, (0, 0))])

    def test_mixed_ambients(self):
        t1 = ExactTriple(O(3, -1), O(3, -1, 0), TableRef("X"), 3)
        t2 = ExactTriple(O(4, -1), O(4, -1, 0), TableRef("Y"), 4)
        with pytest.raises(ValueError, match="different projective spaces"):
            chase([t1, t2])

    def test_bad_query_range(self):
        t1 = ExactTriple(O(3, -1), O(3, -1, 0), TableRef("X"), 3)
        with pytest.raises(ValueError, match="empty twist range"):
            chase([t1], [("X", 0, (2, 1))])


def zero_table(n):
    return CohomologyTable(
        n, {}, {q: Window.nothing() for q in range(n + 1)}
    )


class TestDegenerateAndUnbounded:
    def test_zero_kernel_copies_middle(self):
        # 0 -> 0 -> B -> X -> 0 forces h^q(X) = h^q(B) exactly.
        b = VirtualSheaf.from_pairs(
            3, [(CotangentPower(1, 2), 1), (LineBundle(-3), 1)]
        )
        t = ExactTriple(TableRef("zero"), b, TableRef("X"), 3)
        res = chase(
            [t],
            [("X", q, (-6, 4)) for q in range(4)],
            given={"zero": zero_table(3)},
        )
        for q in range(4):
            for tw in range(-6, 5):
                v = res.value("X", q, tw)
                assert v.is_exact, (q, tw)
                assert v.lo == b.h(q, tw), (q, tw)

    def test_zero_cokernel_copies_middle(self):
        # 0 -> X -> B -> 0 -> 0 forces h^q(X) = h^q(B) exactly.
        b = O(3, -2, 1)
        t = ExactTriple(TableRef("X"), b, TableRef("zero"), 3)
        res = chase(
            [t],
            [("X", q, (-5, 3)) for q in range(4)],
            given={"zero": zero_table(3)},
        )
        for q in range(4):
            for tw in range(-5, 4):
                assert res.value("X", q, tw) == DimValue.exact(b.h(q, tw))

    def test_query_on_given_name(self):
        # a given table is an input of the chase, not something it solves
        b = O(3, -2, 1)
        t = ExactTriple(TableRef("X"), b, TableRef("zero"), 3)
        with pytest.raises(ValueError, match="'zero'"):
            chase([t], [("zero", 1, (0, 0))], given={"zero": zero_table(3)})
        res = chase([t], [("X", 1, (0, 0))], given={"zero": zero_table(3)})
        assert res.value("zero", 1, 0) == DimValue.exact(0)

    def test_unconstrained_query_raises(self):
        t = ExactTriple(O(3, -1), O(3, -1, 0), TableRef("X"), 3)
        with pytest.raises(ValueError, match="'Y'"):
            chase([t], [("X", 0, (0, 0)), ("Y", 1, (0, 2))])

    def test_unconstrained_reads_raise(self):
        t = ExactTriple(O(3, -1), O(3, -1, 0), TableRef("X"), 3)
        res = chase([t], [("X", 1, (0, 2))])
        with pytest.raises(ValueError, match="'Y' was never constrained"):
            res.value("Y", 1, 0)
        with pytest.raises(ValueError, match="'Y' was never constrained"):
            res.window("Y", 1)
        with pytest.raises(ValueError, match="'Y' was never constrained"):
            windowed_chase([t], "Y")


class TestTwoLines:
    """The one chase whose full answer is known in closed form."""

    def test_materialized_table(self):
        tab = two_lines_table()
        assert tab.n == 3
        assert tab.dim_z == 1
        assert tab.window(1) == Window(0, 0)
        assert tab.value(1, 0) == DimValue.exact(1)
        assert tab.value(1, 5) == DimValue.exact(0)
        assert tab.value(1, -4) == DimValue.exact(0)
        # rows 2 and 3 are only bounded above, soundly containing the truth
        assert tab.window(2) == Window(None, -2)
        assert tab.window(3) == Window(None, -3)

    def test_windows_sound_against_truth(self):
        tab = two_lines_table()
        for q in range(4):
            w = tab.window(q)
            for t in range(-9, 9):
                if two_lines_truth(q, t) > 0:
                    assert w.contains(t), (q, t)

    def test_exact_and_interval_values(self):
        triples = [
            ExactTriple(
                O(3, -2, -2),
                VirtualSheaf.from_atom(3, CotangentPower(1, 0)),
                TableRef("I_Z"),
                3,
            )
        ]
        res = chase(
            triples,
            [("I_Z", 2, (-3, -2)), ("I_Z", 3, (-4, -3)), ("I_Z", 1, (0, 0))],
        )
        assert res.value("I_Z", 1, 0) == DimValue.exact(1)
        assert res.value("I_Z", 2, -2) == DimValue.exact(2)
        v = res.value("I_Z", 2, -3)
        assert (v.lo, v.hi) == (4, 8)
        assert v.lo <= two_lines_truth(2, -3) <= v.hi
        v = res.value("I_Z", 3, -3)
        assert (v.lo, v.hi) == (0, 4)
        v = res.value("I_Z", 3, -4)
        assert v.lo <= two_lines_truth(3, -4) <= v.hi

    def test_matches_pfaff_builder(self):
        # The resolution is exactly the dimension-1 Pfaff complex of
        # O(-2)^2 on P^3, so both roads must produce the same table.
        via_res = two_lines_table()
        via_pfaff = pfaff_ideal_table(SplitBundle(3, (-2, -2)), 1, 3)
        assert via_res.to_json() == via_pfaff.to_json()

    @pytest.mark.parametrize("E", list(combinations_with_replacement((-4, -3, -2), 2)))
    def test_twisted_resolution_matches_pfaff_builder(self, E):
        # 0 -> E(-s) -> Omega^1(-s) -> I_Z -> 0 with s = -4 - c1(E), the
        # offset en_complex_pfaff gives I_Z, is the r = 1 Pfaff complex of
        # E = O(a)+O(b) on P^3
        s = -4 - sum(E)
        via_res = resolution_table(
            O(3, *(a - s for a in E)), VirtualSheaf.from_atom(3, CotangentPower(1, -s))
        )
        assert via_res.dumps() == pfaff_ideal_table(SplitBundle(3, E), 1, 3).dumps()

    def test_verdicts(self):
        tab = two_lines_table()
        acm = acm_check(tab)
        assert acm.decision == "fails"
        assert acm.witnesses == ((1, 0, DimValue.exact(1)),)
        assert buchsbaum_numeric(tab).decision == "holds"


class TestKoszulConic:
    def test_complete_intersection_is_acm(self):
        # 0 -> O(-3) -> O(-1)+O(-2) -> I -> 0, the Koszul resolution of a
        # plane conic in P^3; its h^1 row must be certified empty.
        tab = resolution_table(O(3, -3), O(3, -1, -2))
        assert tab.window(1) == Window.nothing()
        assert acm_check(tab).decision == "holds"
        assert buchsbaum_numeric(tab).decision == "holds"


class TestTangentComplexTerms:
    def test_two_step_terms(self):
        F = SplitBundle(4, (-1, -2))
        triples = en_complex_tangent(F, 4)
        assert [t.label for t in triples] == ["en0", "en1"]
        t0, t1 = triples
        # Omega^4 (x) Sym_2(F)(-3) collapses to line bundles
        assert {a for a, _ in t0.a.atoms} == {
            LineBundle(-10),
            LineBundle(-11),
            LineBundle(-12),
        }
        assert {a for a, _ in t0.b.atoms} == {
            CotangentPower(3, -4),
            CotangentPower(3, -5),
        }
        assert t0.c == TableRef("U0")
        assert t1.a == TableRef("U0")
        assert t1.b.atoms == ((CotangentPower(2, -3), 1),)
        assert t1.c == TableRef("I_Z")

    def test_single_step_when_corank_one(self):
        F = SplitBundle(4, (-1, -1, -1))
        triples = en_complex_tangent(F, 4)
        assert len(triples) == 1
        (t0,) = triples
        assert t0.a.atoms == ((LineBundle(-9), 3),)
        assert t0.a.rank == 3
        assert t0.b.atoms == ((CotangentPower(3, -3), 1),)
        assert t0.c == TableRef("I_Z")

    def test_final_twist_normalization(self):
        # rank 2, degree 3 on P^4: F = O(-2)+O(1) has c1 = -1, so the last
        # map must be Omega^2(-1) -> I_Z.
        F = SplitBundle(4, (-2, 1))
        last = en_complex_tangent(F, 4)[-1]
        assert last.b.atoms == ((CotangentPower(2, -1), 1),)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="rank"):
            en_complex_tangent(SplitBundle(4, (-1,) * 4), 4)
        with pytest.raises(ValueError, match="P\\^3"):
            en_complex_tangent(SplitBundle(3, (-1, -1)), 4)


class TestPfaffComplexTerms:
    def test_dimension_one_shape(self):
        E = SplitBundle(4, (-2, -2, -2))
        (t0,) = en_complex_pfaff(E, 1, 4)
        assert t0.a.atoms == ((LineBundle(-2), 3),)
        assert t0.a.rank == 3
        assert t0.b.atoms == ((CotangentPower(1, 0), 1),)
        # degree d = -n - c = 2, so I_Z enters twisted by d - 1 = 1
        assert t0.c == TableRef("I_Z", 1)

    def test_dimension_two_shape(self):
        E = SplitBundle(5, (-2, -2, -2))
        triples = en_complex_pfaff(E, 2, 5)
        assert [t.label for t in triples] == ["pf0", "pf1"]
        t0, t1 = triples
        assert t0.a.atoms == ((LineBundle(-4), 6),)
        assert t0.a.rank == 6  # Sym_2 of rank 3
        assert t0.b.atoms == ((CotangentPower(1, -2), 3),)
        assert t0.c == TableRef("ker1")
        assert t1.a == TableRef("ker1")
        assert t1.b.atoms == ((CotangentPower(2, 0), 1),)
        assert t1.c == TableRef("I_Z")

    def test_dimension_three_shape(self):
        E = SplitBundle(7, (-4, -4, -4, -4))
        triples = en_complex_pfaff(E, 3, 7)
        assert [t.label for t in triples] == ["pf0", "pf1", "pf2"]
        t0, t1, t2 = triples
        assert t0.a.atoms == ((LineBundle(-20), 20),)  # Sym_3 of rank 4
        assert t0.b.atoms == ((CotangentPower(1, -16), 10),)
        assert t1.b.atoms == ((CotangentPower(2, -12), 4),)
        assert t2.b.atoms == ((CotangentPower(3, -8), 1),)
        assert t2.c == TableRef("I_Z")

    def test_mixed_twists_spread_over_summands(self):
        E = SplitBundle(7, (-3, -5, -5, -5))
        t1 = en_complex_pfaff(E, 3, 7)[1]
        # n+1+a_i+c = 8 + a_i - 18: twists -13 and -15
        assert t1.b.atoms == (
            (CotangentPower(2, -15), 3),
            (CotangentPower(2, -13), 1),
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            en_complex_pfaff(SplitBundle(7, (-2,) * 3), 4, 7)
        with pytest.raises(ValueError, match="needs rank 3"):
            en_complex_pfaff(SplitBundle(5, (-2, -2)), 2, 5)

    def test_nonzero_offset_chases_in_own_coordinates(self):
        # degree 2 data on P^4: the unknown is I_Z(1), so the h^1 singleton
        # must come out at twist 1 of I_Z itself.
        tab = pfaff_ideal_table(SplitBundle(4, (-2, -2, -2)), 1, 4)
        assert tab.dim_z == 2
        assert tab.window(1) == Window(1, 1)
        assert tab.value(1, 1) == DimValue.exact(1)


class TestSplitTangentGrid:
    """Split subsheaves of T certify all intermediate ideal rows zero."""

    def test_intermediate_rows_certified_empty(self):
        for r in (2, 3, 4):
            for n in range(r + 1, 8):
                for twists in combinations_with_replacement(
                    range(-4, 0), r
                ):
                    res = chase(en_complex_tangent(SplitBundle(n, twists), n))
                    for p in range(1, r):
                        assert res.window("I_Z", p).empty, (r, n, twists, p)
                        v = res.value("I_Z", p, -1)
                        assert v == DimValue.exact(0)

    def test_first_nonzero_row_value_when_corank_one(self):
        # r = n-1: the chase pins h^r(I_Z(-c1)) completely. The row is only
        # bounded above, so the point must be requested explicitly.
        for n, twists in [(3, (-1, -2)), (4, (-2, -2, -2)), (5, (-1,) * 4)]:
            F = SplitBundle(n, twists)
            r, c1 = F.rank, F.c1
            tab = tangent_ideal_table(
                F, n, extra=[("I_Z", r, (-c1, -c1))]
            )
            expected = 1 + sum(comb(n - t, n) for t in twists)
            assert tab.value(r, -c1) == DimValue.exact(expected)
            assert tab.dim_z == r - 1

    def test_regularity_bound_on_generated_data(self):
        # globally generated twists: regularity <= d + k + 1
        cases = [
            (3, (0, 0)),
            (3, (1, 1)),
            (3, (2, 0)),
            (4, (0, 0)),
            (4, (1, 0, 0)),
            (5, (0, 0, 0)),
            (5, (1, 1, 0, 0)),
        ]
        for n, twists in cases:
            F = SplitBundle(n, twists)
            d = F.rank - F.c1
            k = n - F.rank
            tab = tangent_ideal_table(F, n)
            assert regularity(tab) <= d + k + 1, (n, twists)


class TestSplitPfaffRankTwo:
    """E = O(-2)^(n-2): one h^2 spike at -c-n-1, everything else silent."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_h2_singleton(self, n):
        E = SplitBundle(n, (-2,) * (n - 2))
        tab = pfaff_ideal_table(E, 2, n)
        spike = -E.c1 - n - 1
        assert tab.window(1).empty
        for q in range(3, n - 2):
            assert tab.window(q).empty
        assert tab.window(2) == Window(spike, spike)
        assert tab.value(2, spike) == DimValue.exact(1)
        assert tab.dim_z == n - 3

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_verdicts(self, n):
        E = SplitBundle(n, (-2,) * (n - 2))
        tab = pfaff_ideal_table(E, 2, n)
        spike = -E.c1 - n - 1
        acm = acm_check(tab)
        assert acm.decision == "fails"
        assert acm.witnesses == ((2, spike, DimValue.exact(1)),)
        assert buchsbaum_numeric(tab).decision == "holds"


class TestSplitPfaffRankThree:
    """Degree patterns on P^7 and how they reach the Buchsbaum numerics."""

    @staticmethod
    def build(degrees):
        E = SplitBundle(7, tuple(-d - 2 for d in degrees))
        return pfaff_ideal_table(E, 3, 7)

    def test_equal_degrees_hold(self):
        tab = self.build((2, 2, 2, 2))
        assert tab.value(1, 12) == DimValue.exact(4)
        assert tab.value(3, 8) == DimValue.exact(1)
        assert tab.window(2).empty
        assert buchsbaum_numeric(tab).decision == "holds"

    def test_unit_degree_breaks_gap_condition(self):
        tab = self.build((1, 3, 3, 3))
        assert tab.value(1, 13) == DimValue.exact(1)
        assert tab.value(1, 14) == DimValue.exact(0)
        assert tab.value(1, 15) == DimValue.exact(3)
        assert tab.value(3, 10) == DimValue.exact(1)
        v = buchsbaum_numeric(tab)
        assert v.decision == "fails"
        assert v.witnesses == (
            (1, 13, DimValue.exact(1)),
            (3, 10, DimValue.exact(1)),
        )

    def test_adjacent_degrees_leave_multiplication_uncertified(self):
        tab = self.build((2, 3, 2, 3))
        assert tab.value(1, 14) == DimValue.exact(2)
        assert tab.value(1, 15) == DimValue.exact(2)
        v = buchsbaum_numeric(tab)
        assert v.decision == "undetermined"
        assert "consecutive" in v.certificate
        assert v.witnesses == (
            (1, 14, DimValue.exact(2)),
            (1, 15, DimValue.exact(2)),
        )


class TestEulerGuard:
    def test_contradictory_given_table_raises(self):
        # A claims an empty window everywhere yet carries h^1(A) = 1; the
        # unknown's windows force zeros that cannot balance chi.
        bad = CohomologyTable(
            2,
            {1: {0: DimValue.exact(1)}},
            {q: Window.nothing() for q in range(3)},
        )
        t = ExactTriple(TableRef("A"), O(2, -1), TableRef("X"), 2)
        with pytest.raises(InconsistentTripleError, match="!= 0"):
            chase([t], [("X", 0, (0, 0))], given={"A": bad})

    def test_consistent_given_table_passes(self):
        good = CohomologyTable(
            2,
            {1: {0: DimValue.exact(1)}},
            {0: Window.nothing(), 1: Window(0, 0), 2: Window.nothing()},
        )
        t = ExactTriple(TableRef("A"), O(2, -1), TableRef("X"), 2)
        res = chase([t], [("X", 0, (0, 0))], given={"A": good})
        assert res.value("X", 0, 0) == DimValue.exact(1)


class TestTracesAndDeterminism:
    @staticmethod
    def run_once():
        E = SplitBundle(5, (-2, -2, -2))
        triples = en_complex_pfaff(E, 2, 5)
        return chase(
            triples,
            [("I_Z", 2, (-2, 2)), ("I_Z", 1, (0, 1)), ("ker1", 1, (-2, 0))],
        )

    def test_every_entry_has_a_replayable_trace(self):
        res = self.run_once()
        assert set(res.entries) == set(res.traces)
        for key, tr in res.traces.items():
            assert (tr.unknown, tr.q, tr.twist) == key
            assert replay_trace(tr) == res.entries[key]

    def test_repeat_runs_agree_to_the_byte(self):
        assert self.run_once().explain_json() == self.run_once().explain_json()

    def test_explain_payload_shape(self):
        import json

        payload = json.loads(self.run_once().explain_json())
        assert payload["n"] == 5
        assert set(payload["windows"]) == {"I_Z", "ker1"}
        rules = {e["rule"] for e in payload["entries"]}
        assert rules <= {"solve-a", "solve-b", "solve-c", "window"}
        solve = [e for e in payload["entries"] if e["rule"].startswith("solve")]
        assert solve and all(len(e["inputs"]) == 4 for e in solve)

    def test_replay_rejects_unknown_rule(self):
        tr = Trace("X", 0, 0, "guess", "", (), 0, None)
        with pytest.raises(ValueError, match="unknown trace rule"):
            replay_trace(tr)


class TestLazyTraces:
    """Traces are rebuilt on first read from the plan and the filled
    tables; they must be the ones the solve would have recorded."""

    @staticmethod
    def run_pfaff(r):
        n = r + 3
        E = SplitBundle(n, (-2,) * (n - r - 1) + (-3,))
        queries = [("I_Z", q, (-300, 300)) for q in range(n + 1)]
        return chase(en_complex_pfaff(E, r, n), queries)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_entry_replays(self, r):
        res = self.run_pfaff(r)
        assert set(res.entries) == set(res.traces)
        rules = set()
        for key, v in res.entries.items():
            tr = res.traces[key]
            assert (tr.unknown, tr.q, tr.twist) == key
            assert replay_trace(tr) == v
            rules.add(tr.rule)
        assert "window" in rules
        assert any(rule.startswith("solve-") for rule in rules)

    def test_mapping_protocol_agrees(self):
        res = self.run_pfaff(2)
        traces = res.traces
        assert traces is res.traces
        copy = dict(traces)
        assert len(traces) == len(copy) == len(res.entries)
        assert list(traces) == list(copy) == list(res.entries)
        for key in res.entries:
            assert key in traces and traces[key] == copy[key]
        assert ("I_Z", 0, 10**6) not in traces
        with pytest.raises(KeyError):
            traces[("I_Z", 0, 10**6)]
        with pytest.raises(TypeError):
            traces[("I_Z", 0, 0)] = None

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_criteria_leave_the_traces_alone(self, r):
        before = self.run_pfaff(r).explain_json()
        res = self.run_pfaff(r)
        tab = res.table("I_Z", dim_z=2)
        acm_check(tab)
        regularity(tab)
        assert res.explain_json() == before


class TestEntriesView:
    """entries is read off the solved tables, which are the only store of
    the chased values."""

    @pytest.mark.parametrize(
        "spec, count, intervals",
        [("pfaff:2:-3,-2,-2", 492, 130), ("pfaff:3:-2,-2,-3", 861, 228), ("tangent:-1,-2", 410, 141)],
    )
    def test_entries_are_the_solved_rows(self, spec, count, intervals):
        E, r = GOLDEN_SPECS[spec]
        n = E.n
        triples = en_complex_tangent(E, n) if r is None else en_complex_pfaff(E, r, n)
        res = windowed_chase(triples, "I_Z", [("I_Z", q, (-20, 20)) for q in range(n + 1)])
        rows = [
            ((name, q, s), res.tables[name].rows[q][s])
            for name in res.unknowns
            for q in sorted(res.tables[name].rows)
            for s in sorted(res.tables[name].rows[q])
        ]
        assert list(res.entries.items()) == rows
        assert res.entries is res.entries
        # the counts bench/spans.py reads, as the engine gave them when it
        # kept a second store of the entries
        assert len(res.entries) == count
        assert sum(1 for v in res.entries.values() if not v.is_exact) == intervals

    def test_entries_are_read_only(self):
        res = TestLazyTraces.run_pfaff(1)
        key = next(iter(res.entries))
        with pytest.raises(TypeError):
            res.entries[key] = DimValue.exact(0)
        with pytest.raises(TypeError):
            res.entries[("I_Z", 0, 10**6)] = DimValue.exact(0)


def per_entry_rows(result):
    """The rows of each unknown of result, materialized one entry at a time:
    each entry result holds is solved on its own from the four reads of
    _READS, in plan order, with per-twist sheaf reads h(q, t) and table
    lookups value(q, t). The reference for the row-at-a-time solve."""
    tables = {name: CohomologyTable(result.n, {}, result.tables[name].windows) for name in result.unknowns}
    for tr, pos, name, offset in result.plan:
        tab = tables[name]
        for _, q, s in sorted(key for key in result.entries if key[0] == name):
            t, reads = s - offset, []
            for role, dq in _READS[pos]:
                term = tr.term(role)
                if isinstance(term, TableRef):
                    v = tables[term.name].value(q + dq, t + term.offset)
                    reads.append((v.lo, v.hi))
                else:
                    h = term.h(q + dq, t) if 0 <= q + dq <= result.n else 0
                    reads.append((h, h))
            tab.rows.setdefault(q, {})[s] = _solve(reads) if tab.window(q).contains(s) else DimValue.exact(0)
    return {name: tab.rows for name, tab in tables.items()}


PFAFF_GRID = [
    (r, twists)
    for r in (1, 2, 3)
    for rank in (2, 3)
    for twists in combinations_with_replacement((-4, -3, -2), rank)
]


class TestRowMaterialization:
    """windowed_chase solves a row at a time; its tables must be the ones
    the per-entry solve gives, over wide twist ranges."""

    @pytest.mark.parametrize("r, twists", PFAFF_GRID, ids=[f"r={r}:{t}" for r, t in PFAFF_GRID])
    def test_rows_equal_per_entry_solve(self, r, twists):
        n = len(twists) + r
        queries = [("I_Z", q, (-300, 300)) for q in range(n + 1)]
        result = windowed_chase(en_complex_pfaff(SplitBundle(n, twists), r, n), "I_Z", queries)
        assert per_entry_rows(result) == {name: result.tables[name].rows for name in result.unknowns}
        assert len(result.entries) >= 601 * (n + 1)


class TestChasedTableSerialization:
    def test_interval_round_trip(self):
        triples = en_complex_pfaff(SplitBundle(3, (-2, -2)), 1, 3)
        res = chase(triples, [("I_Z", 2, (-4, 0)), ("I_Z", 1, (0, 0))])
        tab = res.table("I_Z", dim_z=1)
        back = CohomologyTable.loads(tab.dumps())
        assert back.to_json() == tab.to_json()
        assert back.value(2, -3) == DimValue(4, 8)

    def test_table_requires_known_name(self):
        triples = en_complex_pfaff(SplitBundle(3, (-2, -2)), 1, 3)
        res = chase(triples)
        with pytest.raises(ValueError, match="never constrained"):
            res.table("nonsense")


class TestDistributionBounds:
    def test_split_data_all_items_hold(self):
        cases = [
            (3, (0, 0)),
            (3, (1, 1)),
            (4, (1, 0, 0)),
            (5, (0, 0, 0, 0)),
            (5, (1, 1, 1, 1)),
            (6, (-1, 0, 1, 0, 0)),
        ]
        for n, twists in cases:
            F = SplitBundle(n, twists)
            d = (n - 1) - F.c1
            rep = distribution_cohomology_bounds(F, d, n)
            assert rep.acm.holds, (n, twists)
            for item in ("i", "ii", "iii", "iv"):
                assert rep.items[item].holds, (n, twists, item)
            assert rep.holds
            assert rep.ideal_table.dim_z == n - 2
            # the only possible h^{n-1} support is the anticanonical twist
            assert rep.sheaf_table.window(n - 1) == Window(-n - 1, -n - 1)
            peak = rep.sheaf_table.value(n - 1, -n - 1)
            assert peak.hi is not None and peak.hi <= 1

    def test_report_json_shape(self):
        rep = distribution_cohomology_bounds(SplitBundle(3, (0, 0)), 2, 3)
        js = rep.to_json()
        assert js["holds"] is True
        assert set(js["items"]) == {"i", "ii", "iii", "iv"}
        assert js["degree"] == 2

    def test_fixture_table_gates_the_acm_items(self):
        tab = two_lines_table()
        rep = distribution_cohomology_bounds(tab, 1, 3)
        assert rep.items["i"].holds
        assert rep.items["ii"].holds
        assert rep.items["iii"].decision == "undetermined"
        assert rep.items["iv"].decision == "undetermined"
        assert rep.acm.decision == "fails"
        assert not rep.holds

    def test_validation(self):
        with pytest.raises(ValueError, match="n >= 3"):
            distribution_cohomology_bounds(SplitBundle(2, (0,)), 1, 2)
        with pytest.raises(ValueError, match="rank 3"):
            distribution_cohomology_bounds(SplitBundle(4, (0, 0)), 1, 4)
        with pytest.raises(ValueError, match="degree"):
            distribution_cohomology_bounds(SplitBundle(3, (0, 0)), 5, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            distribution_cohomology_bounds(SplitBundle(3, (2, 2)), -2, 3)
        with pytest.raises(TypeError):
            distribution_cohomology_bounds(42, 1, 3)


class TestSplitObstruction:
    """The converse of Theorem 1: a rank below the Beilinson bound is a
    contradiction."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_tangent_bundle_saturates_the_bound(self, n):
        tab = table(tangent_sheaf(n), -n - 2, -1)
        bound = beilinson_rank_bound(tab, n)
        assert bound == n
        assert bound > n - 1
        assert not bound > n

    def test_small_n_inapplicable(self):
        tab = table(tangent_sheaf(3), -5, -1)
        with pytest.raises(InapplicableError):
            beilinson_rank_bound(tab, 3)


# The chase specs of CHASE_SPECS in bench/workloads.py, as (bundle, r)
# with r None for tangent data.
GOLDEN_SPECS = {
    "pfaff:2:-2,-2,-2": (SplitBundle(5, (-2, -2, -2)), 2),
    "pfaff:2:-3,-2,-2": (SplitBundle(5, (-3, -2, -2)), 2),
    "pfaff:1:-2,-2": (SplitBundle(3, (-2, -2)), 1),
    "pfaff:3:-2,-2,-3": (SplitBundle(6, (-2, -2, -3)), 3),
    "tangent:-1,-2": (SplitBundle(4, (-1, -2)), None),
}
GOLDEN_PATH = Path(__file__).with_name("chase_golden.json")


def _spec_cases(spec, E, r):
    n = E.n

    def explain(extra):
        triples = en_complex_tangent(E, n) if r is None else en_complex_pfaff(E, r, n)
        return windowed_chase(triples, "I_Z", extra=extra).explain_json()

    def ideal_table():
        tab = tangent_ideal_table(E, n) if r is None else pfaff_ideal_table(E, r, n)
        return tab.dumps()

    twists = [("I_Z", q, (-3, 3)) for q in range(n + 1)]
    return {
        f"{spec} explain": lambda: explain(()),
        f"{spec} explain -3..3": lambda: explain(twists),
        f"{spec} table": ideal_table,
    }


def _report_text(rep):
    return "\n".join(
        [json.dumps(rep.to_json(), sort_keys=True), rep.sheaf_table.dumps(), rep.ideal_table.dumps()]
    )


GOLDEN_CASES = {
    **{
        key: case
        for spec, (E, r) in GOLDEN_SPECS.items()
        for key, case in _spec_cases(spec, E, r).items()
    },
    "omega-res two lines": lambda: two_lines_table().dumps(),
    "distribution O(0)^2 d=2": lambda: _report_text(
        distribution_cohomology_bounds(SplitBundle(3, (0, 0)), 2, 3)
    ),
    "distribution two lines d=1": lambda: _report_text(
        distribution_cohomology_bounds(two_lines_table(), 1, 3)
    ),
}


class TestGoldenOutput:
    """Byte identity of chase output against chase_golden.json, which holds
    GOLDEN_CASES as computed before the engine was split into a window pass
    and a materialization pass. Regenerate it only for an intended change
    of output: {key: case() for key, case in GOLDEN_CASES.items()}, dumped
    with json.dumps(..., indent=1, sort_keys=True)."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_CASES))
    def test_matches_recorded_output(self, key):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert GOLDEN_CASES[key]() == golden[key]


def _chi(result, term, t):
    """Euler characteristic of a triple's term at chase twist t, read off
    the chase's tables; None unless every row of it is exact there."""
    if isinstance(term, VirtualSheaf):
        return term.chi(t)
    tab = result.tables[term.name]
    values = [tab.value(q, t + term.offset) for q in range(result.n + 1)]
    if not all(v.is_exact for v in values):
        return None
    return sum((-1) ** q * v.lo for q, v in enumerate(values))


def _euler_checks(result):
    """Assert chi(a) - chi(b) + chi(c) = 0 on every planned triple at every
    twist it materialized, wherever all three columns are exact; returns
    how many (triple, twist) pairs were checked."""
    checked = 0
    for tr, _, name, offset in result.plan:
        for t in sorted({s - offset for key, _, s in result.entries if key == name}):
            chis = [_chi(result, tr.term(pos), t) for pos in "abc"]
            if None in chis:
                continue
            assert chis[0] - chis[1] + chis[2] == 0, (tr.label, t, chis)
            checked += 1
    return checked


EULER_SPECS = {
    **GOLDEN_SPECS,
    **{
        f"tangent:n={n}:shift={s}": (SplitBundle(n, tuple(range(s - 3, s + 3))), None)
        for n, s in ((9, 0), (9, 3), (10, 2), (12, 3))
    },
}


class TestEulerIdentity:
    """Without given tables the chase checks Euler characteristics only
    where the end row of a triple's long exact sequence can be nonzero;
    here the identity is recomputed, through public reads, at every twist
    of chases whose values all come from the solve."""

    @pytest.mark.parametrize("wide", [False, True], ids=["bare", "-20..20"])
    @pytest.mark.parametrize("spec", sorted(EULER_SPECS))
    def test_every_chased_triple_balances(self, spec, wide):
        E, r = EULER_SPECS[spec]
        n = E.n
        triples = en_complex_tangent(E, n) if r is None else en_complex_pfaff(E, r, n)
        extra = [("I_Z", q, (-20, 20)) for q in range(n + 1)] if wide else []
        checked = _euler_checks(windowed_chase(triples, "I_Z", extra=extra))
        assert checked > 0 or not wide

    @pytest.mark.parametrize("F", [(0, 0), (1, 0), (0, 0, 0), (1, 1, -1), (0, 0, 0, 0)])
    def test_distribution_triple_balances(self, F):
        # 0 -> F -> T -> I_Z(d+2) -> 0 solves position a, where the
        # Eagon-Northcott triples solve position c
        n = len(F) + 1
        d = (n - 1) - sum(F)
        triples = en_complex_tangent(SplitBundle(n, F), n) + [
            ExactTriple(TableRef("F"), tangent_sheaf(n), TableRef("I_Z", d + 2), n, label="distribution")
        ]
        result = chase(triples, [("F", q, (-20, 20)) for q in range(n + 1)])
        assert _euler_checks(result) > 0

    @pytest.mark.parametrize(
        "n, shift, message",
        [
            (7, 0, "triple en0 at twist 9: chi(a)-chi(b)+chi(c) = 1-0+0 != 0"),
            (7, 3, "triple en0 at twist -12: chi(a)-chi(b)+chi(c) = 1-0+0 != 0"),
            (8, 1, "triple en0 at twist 0: chi(a)-chi(b)+chi(c) = 11-0+-10 != 0"),
            (8, 2, "triple en0 at twist -8: chi(a)-chi(b)+chi(c) = 11--1+-11 != 0"),
        ],
    )
    def test_unrealizable_tangent_data_raises(self, n, shift, message):
        # O(shift + 2) cannot sit in T, and at the reported twist h^0 of the
        # first Eagon-Northcott term is positive where the next one has no
        # sections: no short exact sequence has these terms, and no table
        # is given, so only the closed-form data can be at fault
        E = SplitBundle(n, tuple(range(shift - 3, shift + 3)))
        extra = [("I_Z", q, (-20, 20)) for q in range(n + 1)]
        with pytest.raises(InconsistentTripleError) as exc:
            windowed_chase(en_complex_tangent(E, n), "I_Z", extra=extra)
        assert str(exc.value) == message
