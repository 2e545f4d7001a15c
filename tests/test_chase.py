"""Chase engine tests.

The solver itself is checked three ways: against hand-computed long exact
sequence values for the ideal sheaf of two disjoint lines in P^3 (where
the true table is known in closed form), against the rank-nullity zero
built into every exact triple (the Euler consistency guard), and by
replaying every entry of the --explain payload. The complex builders are checked at the
level of terms (which Omega powers, which twists) and then at the level
of chased output: intermediate rows certified empty for split tangent
data, the pinned h^2 singleton for split Pfaff data, and the degradation
witnesses when twist gaps break the Buchsbaum numerics.
"""

import hashlib
import json
from itertools import combinations_with_replacement
from math import comb, inf
from pathlib import Path

import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

import singscheme.chase
from singscheme.chase import (
    _READS,
    ChaseDependencyError,
    ChaseResult,
    ExactTriple,
    InconsistentTripleError,
    TableRef,
    _label,
    _solve,
    _window_pass,
    chase,
    en_complex_pfaff,
    en_complex_tangent,
    ideal_chase,
    pfaff_ideal_table,
    replay_trace,
    tangent_ideal_table,
    windowed_chase,
)
from singscheme.chow import SplitBundle, check_pfaff_dimension, porteous_singular_degree
from singscheme.cohomology import (
    NOTHING,
    ZERO,
    CohomologyTable,
    CotangentPower,
    DimValue,
    LineBundle,
    VirtualSheaf,
    Window,
    normalize_atom,
    sym_power,
    table,
    tangent_sheaf,
    tensor_with_split,
)
from singscheme.criteria import (
    InapplicableError,
    acm_check,
    beilinson_rank_bound,
    buchsbaum_numeric,
    possible_entries,
    regularity,
    vanishing_verdict,
)
from test_cohomology import sheaf_chi, sheaf_h


def O(n, *twists):
    return VirtualSheaf.from_split(SplitBundle(n, twists))


def explain_text(result):
    """result's --explain payload, as chase --explain prints it."""
    return json.dumps(result.explain(), indent=2, sort_keys=True, allow_nan=False)


def tagged(tab, dim_z):
    """tab, tagged in place with the dimension of its subscheme, as
    ideal_chase tags the I_Z tables of split data."""
    tab.dim_z = dim_z
    return tab


def resolution_table(left, middle):
    """h^q(I_Z(t)) chased out of a two-term resolution 0 -> left -> middle
    -> I_Z -> 0 of a codimension-2 ideal sheaf."""
    n = left.n
    triples = [ExactTriple(left, middle, TableRef("I_Z"), n)]
    return tagged(windowed_chase(triples, "I_Z").table("I_Z"), n - 2)


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

    def test_unlabeled_triple_is_named_by_its_terms(self):
        # the same name as every other chase message, not the dataclass repr
        t = ExactTriple(TableRef("A"), O(3, -2, -2), TableRef("B", 1), 3)
        with pytest.raises(ChaseDependencyError) as exc:
            chase([t])
        assert str(exc.value) == (
            "triple 0->A->O(-2)^2->B(+1)->0: needs 'A', 'B' before they are defined (cyclic or misordered)"
        )

    def test_duplicate_definition(self):
        t1 = ExactTriple(O(3, -1), O(3, -1, 0), TableRef("X"), 3)
        t2 = ExactTriple(O(3, -2), O(3, -2, 5), TableRef("X"), 3)
        with pytest.raises(ChaseDependencyError, match="no new unknown"):
            chase([t1, t2])

    @pytest.mark.parametrize("c", [O(3, 0), O(3, 0, 1)], ids=["ranks add up", "ranks do not add up"])
    def test_triple_of_sheaves_is_refused(self, c):
        # three closed-form terms leave nothing to solve, whatever their ranks
        t = ExactTriple(O(3, -1), O(3, -1, 0), c, 3)
        with pytest.raises(ChaseDependencyError, match="no new unknown"):
            chase([t])

    def test_empty_chase(self):
        with pytest.raises(ValueError, match="at least one"):
            chase([], [("X", 0, (0, 0))])

    def test_mixed_ambients(self):
        t1 = ExactTriple(O(3, -1), O(3, -1, 0), TableRef("X"), 3)
        t2 = ExactTriple(O(4, -1), O(4, -1, 0), TableRef("Y"), 4)
        with pytest.raises(ValueError, match="different projective spaces"):
            chase([t1, t2])

    def test_fresh_middle_term_refused(self):
        # the chase solves kernels and cokernels of resolutions only
        t = ExactTriple(O(3, -1), TableRef("X"), O(3, 0), 3)
        with pytest.raises(ValueError) as exc:
            chase([t], [("X", 0, (0, 0))])
        assert str(exc.value) == "triple 0->O(-1)->X->O(0)->0: the middle term 'X' is never solved"
        with pytest.raises(ValueError, match="^triple mid: the middle term 'X' is never solved$"):
            windowed_chase([ExactTriple(O(3, -1), TableRef("X"), O(3, 0), 3, label="mid")], "X")
        with pytest.raises(ValueError, match="unknown trace rule 'solve-b'"):
            replay_trace({"rule": "solve-b", "inputs": []})

    def test_bad_query_range(self):
        t1 = ExactTriple(O(3, -1), O(3, -1, 0), TableRef("X"), 3)
        with pytest.raises(ValueError, match="empty twist range"):
            chase([t1], [("X", 0, (2, 1))])
        with pytest.raises(ValueError, match="queries are \\(name, q, \\(lo, hi\\)\\) tuples"):
            chase([t1], [("X", 0)])


def explained(result):
    """The entries of result's --explain payload by (unknown, q, twist),
    each checked to replay on its own to the value printed with it."""
    entries = {}
    for entry in result.explain()["entries"]:
        assert replay_trace(entry) == DimValue.from_json(entry["value"]), entry
        entries[entry["unknown"], entry["q"], entry["twist"]] = entry
    return entries


class TestDegenerateAndUnbounded:
    def test_unconstrained_query_raises(self):
        t = ExactTriple(O(3, -1), O(3, -1, 0), TableRef("X"), 3)
        with pytest.raises(ValueError, match="'Y'"):
            chase([t], [("X", 0, (0, 0)), ("Y", 1, (0, 2))])

    def test_unconstrained_reads_raise(self):
        t = ExactTriple(O(3, -1), O(3, -1, 0), TableRef("X"), 3)
        res = chase([t], [("X", 1, (0, 2))])
        with pytest.raises(ValueError, match="'Y' was never constrained"):
            res.table("Y").value(1, 0)
        with pytest.raises(ValueError, match="'Y' was never constrained"):
            res.table("Y").window(1)
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
        assert tab.window(2) == Window(-inf, -2)
        assert tab.window(3) == Window(-inf, -3)

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
        tab = res.table("I_Z")
        assert tab.value(1, 0) == DimValue.exact(1)
        assert tab.value(2, -2) == DimValue.exact(2)
        v = tab.value(2, -3)
        assert (v.lo, v.hi) == (4, 8)
        assert v.lo <= two_lines_truth(2, -3) <= v.hi
        v = tab.value(3, -3)
        assert (v.lo, v.hi) == (0, 4)
        v = tab.value(3, -4)
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
        assert tab.window(1) == NOTHING
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

    def test_terms_match_per_degree_sym_powers(self):
        # The complex reads all its Sym^j from one sym_powers call; each
        # term must equal the one built from its own sym_power(F, j).
        for n in (21, 24, 26):
            for shift in range(-3, 4):
                F = SplitBundle(n, range(shift - 3, shift + 3))
                r, k = F.rank, n - F.rank
                want = [
                    tensor_with_split(normalize_atom(n, r + j, F.c1), sym_power(F, j))
                    for j in range(k, -1, -1)
                ]
                triples = en_complex_tangent(F, n)
                assert [triples[0].a] + [tr.b for tr in triples] == want

    @pytest.mark.parametrize(
        "n, digest",
        [
            (40, "31737703730eed28f5efef60d7e5058bc8806980079a8a5509c7952234fc1c82"),
            (80, "3e14c94085d9cd7b2110ff5597e82460400d8c0fb22225ba5ccb02880d248bae"),
        ],
    )
    def test_large_tables_pinned(self, n, digest):
        # sha256 of the table as computed by the per-degree convolution that
        # the generating-function sweep replaced.
        text = tangent_ideal_table(SplitBundle(n, range(-3, 3)), n).dumps()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

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

    def test_dimension_four_builds(self):
        # every r >= 1 that the rank check passes: Sym^4(E)(n+1+c) down to
        # Omega^4(n+1+c), all from one sweep
        E = SplitBundle(7, (-2, -2, -2))
        triples = en_complex_pfaff(E, 4, 7)
        assert [t.label for t in triples] == ["pf0", "pf1", "pf2", "pf3"]
        # s = n + 1 + c = 2: Sym_4 of rank 3 is O(-8)^15, twisted to O(-6)
        assert triples[0].a.atoms == ((LineBundle(-6), 15),)
        assert [t.b.atoms for t in triples] == [
            ((CotangentPower(1, -4), 10),),
            ((CotangentPower(2, -2), 6),),
            ((CotangentPower(3, 0), 3),),
            ((CotangentPower(4, 2), 1),),
        ]
        assert [t.c for t in triples] == [TableRef("ker1"), TableRef("ker2"), TableRef("ker3"), TableRef("I_Z")]

    @pytest.mark.parametrize("r", [0, -1])
    def test_rejects_dimension_below_one(self, r):
        # the rank check alone would pass: rank E = n - r
        with pytest.raises(ValueError) as exc:
            en_complex_pfaff(SplitBundle(2 + r, (-2, -2)), r, 2 + r)
        assert str(exc.value) == f"Pfaff data needs dimension r >= 1, got r={r}"

    @pytest.mark.parametrize("r", [0, -1, -5])
    def test_dimension_check_names_r(self, r):
        # the one owner of the r >= 1 rule, which the CLI calls before it
        # builds the bundle on P^{rank E + r}: for r = -5 and two twists
        # that would be P^-3
        with pytest.raises(ValueError) as exc:
            check_pfaff_dimension(r)
        assert str(exc.value) == f"Pfaff data needs dimension r >= 1, got r={r}"
        check_pfaff_dimension(1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="needs rank 3"):
            en_complex_pfaff(SplitBundle(5, (-2, -2)), 2, 5)
        with pytest.raises(ValueError, match="bundle lives on P\\^4, not P\\^3"):
            en_complex_pfaff(SplitBundle(4, (-2, -2)), 1, 3)

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
                        assert res.table("I_Z").window(p).empty, (r, n, twists, p)
                        v = res.table("I_Z").value(p, -1)
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


def en_hilbert_values(E, r, twists):
    """HP_Z(s) = chi(O(s)) - chi(I_Z(s)) at each twist s >= 0 of the
    ascending list twists, chi(I_Z) read off the built Eagon-Northcott
    terms T_0..T_k as sum_i (-1)^(k-i) chi(T_i), at chase twist s minus the
    offset I_Z carries."""
    n = E.n
    triples = en_complex_pfaff(E, r, n)
    terms = [triples[0].a] + [tr.b for tr in triples]
    k, ts = len(terms) - 1, [s - triples[-1].c.offset for s in twists]
    chi_ideal = [sum((-1) ** (k - i) * c for i, c in enumerate(cs)) for cs in zip(*(t.chi_row(ts) for t in terms))]
    return [comb(s + n, n) - c for s, c in zip(twists, chi_ideal)]


# Split Pfaff data on P^n, n <= 8, of every dimension r = 1..6 whose
# singular scheme has dimension n - r - 1 >= 1, with twists -2 and -3.
EN_GRID = [
    (r, twists)
    for r in range(1, 7)
    for rank in range(2, 9 - r)
    for twists in combinations_with_replacement((-2, -3), rank)
]


class TestPfaffEveryDimension:
    """Pfaff data of dimension r >= 4 through the same builder: the degree
    of the Hilbert polynomial the Eagon-Northcott terms give is the Porteous
    degree, and two curves pin their Hilbert polynomials and ACM verdicts."""

    def test_grid_covers_dimensions_one_to_six(self):
        assert len(EN_GRID) == 98
        assert {r for r, _ in EN_GRID} == set(range(1, 7))

    @pytest.mark.parametrize("r, twists", EN_GRID, ids=[f"r={r}:{t}" for r, t in EN_GRID])
    def test_en_degree_is_the_porteous_degree(self, r, twists):
        n = len(twists) + r
        E = SplitBundle(n, twists)
        dim_z = n - r - 1
        diffs = en_hilbert_values(E, r, list(range(dim_z + 1)))
        for _ in range(dim_z):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert diffs == [porteous_singular_degree(n, E)]

    @pytest.mark.parametrize(
        "n, r, slope, constant, decision",
        [(6, 4, 3, 1, "holds"), (7, 5, 4, 4, "fails")],
    )
    def test_curves_pinned(self, n, r, slope, constant, decision):
        # the curves that the wedge of two 1-forms on P^6 and P^7 cuts out:
        # HP 3t + 1, ACM, and HP 4t + 4, not ACM
        E = SplitBundle(n, (-2, -2))
        assert en_hilbert_values(E, r, list(range(8))) == [slope * t + constant for t in range(8)]
        assert porteous_singular_degree(n, E) == slope
        tab = pfaff_ideal_table(E, r, n)
        assert tab.dim_z == 1
        assert acm_check(tab).decision == decision


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
        entries = explained(res)
        assert set(entries) == set(res.entries)
        for key, entry in entries.items():
            assert DimValue.from_json(entry["value"]) == res.entries[key]

    def test_repeat_runs_agree_to_the_byte(self):
        assert explain_text(self.run_once()) == explain_text(self.run_once())

    def test_explain_payload_shape(self):
        payload = self.run_once().explain()
        assert payload["n"] == 5
        assert set(payload["windows"]) == {"I_Z", "ker1"}
        rules = {e["rule"] for e in payload["entries"]}
        assert rules <= {"solve-a", "solve-c", "window"}
        solve = [e for e in payload["entries"] if e["rule"].startswith("solve")]
        assert solve and all(len(e["inputs"]) == 4 for e in solve)

    def test_replay_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown trace rule 'guess'"):
            replay_trace({"rule": "guess", "inputs": []})


class TestLazyTraces:
    """The --explain payload is built from the plan and the filled tables;
    its entries must be the ones the solve would have recorded."""

    @staticmethod
    def run_pfaff(r):
        n = r + 3
        E = SplitBundle(n, (-2,) * (n - r - 1) + (-3,))
        queries = [("I_Z", q, (-300, 300)) for q in range(n + 1)]
        return chase(en_complex_pfaff(E, r, n), queries)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_every_entry_replays(self, r):
        res = self.run_pfaff(r)
        entries = explained(res)
        assert set(entries) == set(res.entries)
        for key, v in res.entries.items():
            assert DimValue.from_json(entries[key]["value"]) == v
        rules = {entry["rule"] for entry in entries.values()}
        assert "window" in rules
        assert any(rule.startswith("solve-") for rule in rules)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_criteria_leave_the_traces_alone(self, r):
        before = self.run_pfaff(r).explain()
        res = self.run_pfaff(r)
        tab = tagged(res.table("I_Z"), 2)
        acm_check(tab)
        regularity(tab)
        assert res.explain() == before


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


def _read(tables, n, term, q, t):
    """The (lo, hi) of a term's row q at chase twist t, one twist at a
    time: a per-twist Bott sum over the sheaf's atoms, or a table lookup
    value(q, t)."""
    if isinstance(term, TableRef):
        v = tables[term.name].value(q, t + term.offset)
        return v.lo, v.hi
    h = sheaf_h(term, q, t) if 0 <= q <= n else 0
    return h, h


def _entry(tables, n, step, q, s):
    """The value of entry (q, s) of the unknown that the plan step solves,
    on its own: zero outside the row's window, else forced(keep1, kill1) +
    forced(keep2, kill2) of its four reads of _READS, built by the checking
    DimValue constructor, not by _solve's column builder."""
    tr, pos, name, offset = step
    if not tables[name].window(q).contains(s):
        return DimValue.exact(0)
    (_, kill1), (lo1, hi1), (_, kill2), (lo2, hi2) = (
        _read(tables, n, tr.term(role), q + dq, s - offset) for role, dq in _READS[pos]
    )
    return DimValue(max(0, lo1 - kill1) + max(0, lo2 - kill2), hi1 + hi2)


def per_entry_rows(result):
    """The rows of each unknown of result, materialized one entry at a time:
    each entry result holds is solved on its own from the four reads of
    _READS, in plan order, with per-twist sheaf reads h(q, t) and table
    lookups value(q, t). The reference for the row-at-a-time solve."""
    tables = {name: CohomologyTable(result.n, {}, result.tables[name].windows) for name in result.unknowns}
    for step in result.plan:
        name = step[2]
        for _, q, s in sorted(key for key in result.entries if key[0] == name):
            tables[name].rows.setdefault(q, {})[s] = _entry(tables, result.n, step, q, s)
    return {name: tab.rows for name, tab in tables.items()}


def set_oracle_chase(triples, queries):
    """The materialization as it was before requirements became twist runs:
    requirements are sets of twists, every entry is solved on its own, and
    the Euler check reads every row of all three terms at each twist where
    the end row the solve cannot balance may be nonzero. Returns the rows
    of every unknown, or raises InconsistentTripleError with the first
    violation, as chase does. The reference for _materialize."""
    result = _window_pass(triples)
    n, plan, tables = result.n, result.plan, result.tables
    req = {name: {} for name in result.unknowns}
    for name, q, (lo, hi) in queries:
        if 0 <= q <= n:
            req[name].setdefault(q, set()).update(range(lo, hi + 1))
    for tr, pos, name, offset in reversed(plan):
        for role, dq in _READS[pos]:
            other = tr.term(role)
            if isinstance(other, TableRef):
                shift = other.offset - offset
                for q, ss in req[name].items():
                    if 0 <= q + dq <= n:
                        req[other.name].setdefault(q + dq, set()).update(s + shift for s in ss)
    for step in plan:
        tr, pos, name, offset = step
        for q in sorted(req[name]):
            tables[name].rows[q] = {s: _entry(tables, n, step, q, s) for s in sorted(req[name][q])}
        role, q = ("a", 0) if pos == "c" else ("c", n)
        for t in sorted({s - offset for ss in req[name].values() for s in ss}):
            hi = _read(tables, n, tr.term(role), q, t)[1]
            chis = [_chi(result, tr.term(p), t) for p in "abc"]
            if hi > 0 and None not in chis and chis[0] - chis[1] + chis[2] != 0:
                raise InconsistentTripleError(
                    f"triple {_label(tr)} at twist {t}: chi(a)-chi(b)+chi(c) = {chis[0]}-{chis[1]}+{chis[2]} != 0"
                )
    return {name: tables[name].rows for name in result.unknowns}


PFAFF_GRID = [
    (r, twists)
    for r in (1, 2, 3, 4, 5, 6)
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
        tab = tagged(res.table("I_Z"), 1)
        back = CohomologyTable.loads(tab.dumps())
        assert back.to_json() == tab.to_json()
        assert back.value(2, -3) == DimValue(4, 8)

    def test_table_requires_known_name(self):
        triples = en_complex_pfaff(SplitBundle(3, (-2, -2)), 1, 3)
        res = chase(triples)
        with pytest.raises(ValueError, match="never constrained"):
            res.table("nonsense")


def distribution_triple(d, n):
    """0 -> F -> T -> I_Z(d+2) -> 0 for a corank-one distribution of degree d."""
    return ExactTriple(TableRef("F"), tangent_sheaf(n), TableRef("I_Z", d + 2), n, label="distribution")


def split_distribution_chase(twists):
    """The distribution triple after the tangent Eagon-Northcott complex of
    split F = (+) O(twists) on P^{rank F + 1}: every finite window row of F,
    and its row n-1 at -n-1."""
    n = len(twists) + 1
    F = SplitBundle(n, twists)
    triples = en_complex_tangent(F, n) + [distribution_triple((n - 1) - F.c1, n)]
    return windowed_chase(triples, "F", extra=[("F", n - 1, (-n - 1, -n - 1))])


def two_lines_distribution_chase():
    """The distribution triple of degree 1 after the two-lines resolution
    0 -> O(-2)^2 -> Omega^1 -> I_Z -> 0; row 2 of F, with window -4..-3,
    is its one finite window row."""
    resolution = ExactTriple(
        O(3, -2, -2), VirtualSheaf.from_atom(3, CotangentPower(1, 0)), TableRef("I_Z"), 3
    )
    return chase([resolution, distribution_triple(1, 3)], [("F", 2, (-4, -3))])


class TestDistributionBounds:
    """The ACM => bounds step of Theorem 1, read off the chased F: (i)
    h^0(F(p)) = 0 for p <= -2; (ii) h^1(F(p)) = 0 for p <= -d-3; and, with
    Z ACM of dimension n-2, (iii) rows 2..n-2 vanish and (iv) h^{n-1}(F(p))
    lives at p = -n-1 only, with value at most 1 there."""

    def test_split_data_all_items_hold(self):
        for twists in [(0, 0), (1, 1), (1, 0, 0), (0, 0, 0, 0), (1, 1, 1, 1), (-1, 0, 1, 0, 0)]:
            n, d = len(twists) + 1, len(twists) - sum(twists)
            result = split_distribution_chase(twists)
            f = result.table("F")
            assert acm_check(tagged(result.table("I_Z"), n - 2)).holds, twists
            assert possible_entries(f, 0, hi=-2) == [], twists
            assert possible_entries(f, 1, hi=-d - 3) == [], twists
            assert vanishing_verdict(f, 2, n - 2, "interior rows").holds, twists
            assert f.window(n - 1) == Window(-n - 1, -n - 1), twists
            assert f.value(n - 1, -n - 1).hi <= 1, twists

    def test_fixture_table_meets_the_ray_bounds_only(self):
        result = two_lines_distribution_chase()
        f = result.table("F")
        assert f.window(2) == Window(-4, -3)
        assert possible_entries(f, 0, hi=-2) == []
        assert possible_entries(f, 1, hi=-4) == []
        assert acm_check(tagged(result.table("I_Z"), 1)).decision == "fails"


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
        return explain_text(ideal_chase(E, n, r, extra))

    def ideal_table():
        return ideal_chase(E, n, r).table("I_Z").dumps()

    twists = [("I_Z", q, (-3, 3)) for q in range(n + 1)]
    return {
        f"{spec} explain": lambda: explain(()),
        f"{spec} explain -3..3": lambda: explain(twists),
        f"{spec} table": ideal_table,
    }


def _distribution_text(result):
    return "\n".join([result.table("F").dumps(), tagged(result.table("I_Z"), result.n - 2).dumps()])


GOLDEN_CASES = {
    **{
        key: case
        for spec, (E, r) in GOLDEN_SPECS.items()
        for key, case in _spec_cases(spec, E, r).items()
    },
    "omega-res two lines": lambda: two_lines_table().dumps(),
    "distribution O(0)^2 d=2": lambda: _distribution_text(split_distribution_chase((0, 0))),
    "distribution two lines d=1": lambda: _distribution_text(two_lines_distribution_chase()),
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


class TestIdealChase:
    """ideal_chase is the one road from split data to the I_Z chase: it
    picks the Eagon-Northcott complex and dim Z, and the two table views
    and a hand-built chase of the same complex agree with it."""

    @pytest.mark.parametrize("twists", [None, (-3, 3)], ids=["windows", "windows -3..3"])
    @pytest.mark.parametrize("spec", sorted(GOLDEN_SPECS))
    def test_matches_the_views_and_the_hand_built_chase(self, spec, twists):
        E, r = GOLDEN_SPECS[spec]
        n = E.n
        extra = [] if twists is None else [("I_Z", q, twists) for q in range(n + 1)]
        result = ideal_chase(E, n, r, extra)
        if r is None:
            view, triples, dim_z = tangent_ideal_table(E, n, extra), en_complex_tangent(E, n), E.rank - 1
        else:
            view, triples, dim_z = pfaff_ideal_table(E, r, n, extra), en_complex_pfaff(E, r, n), n - r - 1
        assert result.table("I_Z") == view
        assert view.dim_z == dim_z
        assert result.explain() == windowed_chase(triples, "I_Z", extra).explain()


def _chi(result, term, t):
    """Euler characteristic of a triple's term at chase twist t, read off
    the chase's tables; None unless every row of it is exact there."""
    if isinstance(term, VirtualSheaf):
        return sheaf_chi(term, t)
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


# Tangent data O(shift-3..shift+2) on P^n that no short exact sequence
# realizes, with the first violation a chase over -20..20 reports.
UNREALIZABLE_TANGENT = [
    (7, 0, "triple en0 at twist 9: chi(a)-chi(b)+chi(c) = 1-0+0 != 0"),
    (7, 3, "triple en0 at twist -12: chi(a)-chi(b)+chi(c) = 1-0+0 != 0"),
    (8, 1, "triple en0 at twist 0: chi(a)-chi(b)+chi(c) = 11-0+-10 != 0"),
    (8, 2, "triple en0 at twist -8: chi(a)-chi(b)+chi(c) = 11--1+-11 != 0"),
]


class TestEulerIdentity:
    """The chase checks Euler characteristics only where the end row of a
    triple's long exact sequence can be nonzero; here the identity is
    recomputed, through public reads, at every twist of chases whose
    values all come from the solve."""

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
        triples = en_complex_tangent(SplitBundle(n, F), n) + [distribution_triple(d, n)]
        result = chase(triples, [("F", q, (-20, 20)) for q in range(n + 1)])
        assert _euler_checks(result) > 0

    @pytest.mark.parametrize("n, shift, message", UNREALIZABLE_TANGENT)
    def test_unrealizable_tangent_data_raises(self, n, shift, message):
        # O(shift + 2) cannot sit in T, and at the reported twist h^0 of the
        # first Eagon-Northcott term is positive where the next one has no
        # sections: no short exact sequence has these terms, and every
        # other value is solved from them, so only the closed-form data can
        # be at fault
        E = SplitBundle(n, tuple(range(shift - 3, shift + 3)))
        extra = [("I_Z", q, (-20, 20)) for q in range(n + 1)]
        with pytest.raises(InconsistentTripleError) as exc:
            windowed_chase(en_complex_tangent(E, n), "I_Z", extra=extra)
        assert str(exc.value) == message


# Every Pfaff point of PFAFF_GRID and every tangent spec of EULER_SPECS.
RUN_SPECS = {
    **{f"pfaff:{r}:{twists}": (SplitBundle(len(twists) + r, twists), r) for r, twists in PFAFF_GRID},
    **{spec: (E, r) for spec, (E, r) in EULER_SPECS.items() if r is None},
}


@st.composite
def query_unions(draw, unknowns, n, width=12):
    """A few chains of twist ranges on drawn (unknown, q), q one past 0..n
    at times, each range at most width + 1 twists long; each range of a
    chain starts at most 6 before the end of the one before it and at most
    4 after, so ranges overlap, touch or leave a gap."""
    queries = []
    for _ in range(draw(st.integers(1, 3))):
        name, q = draw(st.sampled_from(unknowns)), draw(st.integers(-1, n + 1))
        lo = draw(st.integers(-40, 40))
        for _ in range(draw(st.integers(1, 4))):
            hi = lo + draw(st.integers(0, width))
            queries.append((name, q, (lo, hi)))
            lo = hi + draw(st.integers(-6, 4))
    return queries


def _violation(run):
    """The message of the InconsistentTripleError that run() raises, or None."""
    try:
        run()
    except InconsistentTripleError as exc:
        return str(exc)
    return None


class TestRunRequirements:
    """Requirements as merged twist runs, column reads and the term-by-term
    Euler fold, against the set-based oracle and the per-entry solve, on
    seeded unions of query ranges over every unknown of a chase (the
    intermediate kernels ker1, U0, ... too)."""

    @seed(20261019)
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_runs_match_the_set_oracle(self, data):
        E, r = RUN_SPECS[data.draw(st.sampled_from(sorted(RUN_SPECS)), label="spec")]
        triples = en_complex_tangent(E, E.n) if r is None else en_complex_pfaff(E, r, E.n)
        unknowns = _window_pass(triples).unknowns
        queries = data.draw(query_unions(unknowns, E.n), label="queries")
        result = chase(triples, queries)
        rows, oracle = {name: result.tables[name].rows for name in unknowns}, set_oracle_chase(triples, queries)
        assert set(result.entries) == {(name, q, s) for name, table in oracle.items() for q, row in table.items() for s in row}
        assert rows == oracle
        assert rows == per_entry_rows(result)
        assert all(list(row) == sorted(row) for table in rows.values() for row in table.values())

    def test_entry_cap_is_inclusive(self, monkeypatch):
        # the merged runs of every unknown are summed before any row is
        # solved: a query overlapping the windows counts each entry once
        triples = en_complex_pfaff(SplitBundle(5, (-2, -2, -2)), 2, 5)
        queries = [("I_Z", q, (-40, 40)) for q in range(6)] + [("ker1", 2, (-50, 10))]
        total = len(chase(triples, queries).entries)
        monkeypatch.setattr(singscheme.chase, "MAX_CHASE_ENTRIES", total)
        assert len(chase(triples, queries).entries) == total
        monkeypatch.setattr(singscheme.chase, "MAX_CHASE_ENTRIES", total - 1)
        with pytest.raises(ValueError) as exc:
            chase(triples, queries)
        assert str(exc.value) == f"the chase would write {total} entries, over the cap of {total - 1}"

    @pytest.mark.parametrize("n, shift", [(n, shift) for n, shift, _ in UNREALIZABLE_TANGENT])
    @seed(20261019)
    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_euler_check_matches_the_full_read_oracle(self, n, shift, data):
        triples = en_complex_tangent(SplitBundle(n, tuple(range(shift - 3, shift + 3))), n)
        unknowns = _window_pass(triples).unknowns
        queries = data.draw(query_unions(unknowns, n, width=30), label="queries")
        message = _violation(lambda: chase(triples, queries))
        expected = _violation(lambda: set_oracle_chase(triples, queries))
        assert message == expected
        event(f"raises {expected is not None}")


class TestColumnChecks:
    """_solve builds each value with tuple.__new__, past the DimValue
    constructor, trusting that its reads hold 0 <= lo <= hi; these tests
    keep that invariant, and the sharing of ZERO, under test."""

    def test_solve_shares_zero_and_builds_checked_pairs(self):
        cols = [([0, 0, 2], [0, 0, 2]), ([0, 3, 3], [0, 4, inf]), ([0, 0, 0], [0, 0, 0]), ([0, 0, 1], [0, 0, 1])]
        values = _solve(cols)
        assert values == [DimValue(0, 0), DimValue(3, 4), DimValue(2, inf)]
        assert values[0] is ZERO
        assert all(type(v) is DimValue for v in values)

    @seed(20261020)
    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_every_chased_entry_is_a_checked_pair(self, data):
        E, r = RUN_SPECS[data.draw(st.sampled_from(sorted(RUN_SPECS)), label="spec")]
        triples = en_complex_tangent(E, E.n) if r is None else en_complex_pfaff(E, r, E.n)
        queries = data.draw(query_unions(_window_pass(triples).unknowns, E.n), label="queries")
        result = windowed_chase(triples, "I_Z", queries)
        assert result.entries
        for v in result.entries.values():
            assert type(v) is DimValue and 0 <= v.lo <= v.hi
            assert v is ZERO or v.hi > 0
