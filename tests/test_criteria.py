"""Criteria tests: soundness on split bundles, completeness spot-checks on
the cotangent powers, hand-built fixtures for the ACM/Buchsbaum/regularity
paths, and the hypothesis gates of the rank bound."""

import random
import time
from itertools import combinations_with_replacement
from math import inf

import pytest

from singscheme import criteria
from singscheme.chase import pfaff_ideal_table
from singscheme.chow import SplitBundle
from singscheme.cohomology import (
    MAX_TABLE_ENTRIES,
    NOTHING,
    ZERO,
    CohomologyTable,
    DimValue,
    VirtualSheaf,
    Window,
    normalize_atom,
    table,
    tangent_sheaf,
)
from singscheme.criteria import (
    InapplicableError,
    Verdict,
    _gap_violation,
    acm_check,
    beilinson_rank_bound,
    buchsbaum_numeric,
    evans_griffith,
    hilbert_deficiency_verdicts,
    horrocks,
    kpr,
    regularity,
)


def split_table(n, twists, lo=None, hi=None, dim_z=None):
    s = VirtualSheaf.from_split(SplitBundle(n, tuple(twists)))
    tab = table(s, -n - 3 if lo is None else lo, n + 3 if hi is None else hi)
    tab.dim_z = dim_z
    return tab


def two_disjoint_lines_table():
    """Ideal sheaf of two disjoint lines in P^3: h^1 = 1 at twist 0 only,
    h^2(t) = 2*max(0, -t-1), h^3 = h^3(O(t))."""
    rows = {
        1: {0: DimValue.exact(1)},
        2: {-2: DimValue.exact(2), -3: DimValue.exact(4)},
        3: {-4: DimValue.exact(1), -5: DimValue.exact(4)},
    }
    windows = {
        0: Window(1, inf),
        1: Window(0, 0),
        2: Window(-inf, -2),
        3: Window(-inf, -4),
    }
    return CohomologyTable(3, rows, windows, dim_z=1)


class TestSplitSoundness:
    def test_all_split_bundles_pass_every_applicable_criterion(self):
        rng = random.Random(20240119)
        for _ in range(300):
            n = rng.randint(2, 7)
            rank = rng.randint(1, n)
            twists = [rng.randint(-5, 5) for _ in range(rank)]
            t = split_table(n, twists)
            assert horrocks(t).holds
            assert evans_griffith(t, rank, n).holds
            limit = n - 1 if n % 2 == 0 else n - 2
            if rank <= limit:
                assert kpr(t, rank, n).holds

    def test_horrocks_certificate_present(self):
        v = horrocks(split_table(4, [-2, 5]))
        assert v.decision == "holds"
        assert "certified zero" in v.certificate


class TestHorrocksCompleteness:
    def test_cotangent_fails_with_hodge_witness(self):
        t = table(VirtualSheaf.from_pairs(4, [(normalize_atom(4, 1, 0), 1)]), -2, 2)
        v = horrocks(t)
        assert v.decision == "fails"
        assert (1, 0, DimValue.exact(1)) in v.witnesses

    def test_tangent_fails_with_top_twist_witness(self):
        t = table(tangent_sheaf(5), -8, 0)
        v = horrocks(t)
        assert v.decision == "fails"
        assert v.witnesses == ((4, -6, DimValue.exact(1)),)

    def test_every_middle_cotangent_power_fails(self):
        for n in range(2, 8):
            for p in range(1, n):
                t = table(VirtualSheaf.from_pairs(n, [(normalize_atom(n, p, 0), 1)]), 0, 0)
                assert horrocks(t).decision == "fails"

    def test_uncertified_row_gives_undetermined(self):
        t = CohomologyTable(3, {1: {0: DimValue.exact(0)}}, {2: NOTHING})
        v = horrocks(t)
        assert v.decision == "undetermined"
        assert "row 1 window is unbounded" in v.certificate

    def test_interval_entry_gives_undetermined(self):
        t = CohomologyTable(
            3,
            {1: {0: DimValue(0, 2)}},
            {1: Window(0, 0), 2: NOTHING},
        )
        assert horrocks(t).decision == "undetermined"

    def test_definite_witness_wins_even_without_window(self):
        t = CohomologyTable(3, {1: {4: DimValue.exact(2)}}, {2: NOTHING})
        v = horrocks(t)
        assert v.decision == "fails"
        assert v.witnesses == ((1, 4, DimValue.exact(2)),)


class TestEvansGriffith:
    def test_rank_one_vacuous(self):
        t = table(VirtualSheaf.from_pairs(4, [(normalize_atom(4, 1, 0), 1)]), 0, 0)
        assert evans_griffith(t, 1, 4).holds

    def test_cotangent_rank_n_fails(self):
        t = table(VirtualSheaf.from_pairs(4, [(normalize_atom(4, 1, 0), 1)]), 0, 0)
        assert evans_griffith(t, 4, 4).decision == "fails"

    def test_rank_above_n_inapplicable(self):
        t = split_table(3, [0, 0, 0, 0])
        with pytest.raises(InapplicableError):
            evans_griffith(t, 4, 3)

    def test_n_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evans_griffith(split_table(3, [0]), 1, 4)


class TestKPR:
    def test_split_rank_three_on_p4(self):
        assert kpr(split_table(4, [1, -1, 3]), 3, 4).holds

    def test_rank_gate(self):
        with pytest.raises(InapplicableError):
            kpr(split_table(4, [0] * 4), 4, 4)
        with pytest.raises(InapplicableError):
            kpr(split_table(5, [0] * 4), 4, 5)
        assert kpr(split_table(5, [0] * 3), 3, 5).holds

    def test_middle_band_witness(self):
        fixture = CohomologyTable(
            4,
            {2: {0: DimValue.exact(1)}},
            {2: Window(0, 0)},
        )
        v = kpr(fixture, 3, 4)
        assert v.decision == "fails"
        assert v.witnesses == ((2, 0, DimValue.exact(1)),)

    def test_small_n_vacuous_band(self):
        assert kpr(split_table(2, [1]), 1, 2).holds


class TestACM:
    def test_all_zero_rows_holds(self):
        t = split_table(4, [0], dim_z=2)
        assert acm_check(t).holds

    def test_two_disjoint_lines_fails(self):
        v = acm_check(two_disjoint_lines_table())
        assert v.decision == "fails"
        assert v.witnesses == ((1, 0, DimValue.exact(1)),)

    def test_requires_dimension(self):
        t = split_table(3, [0])
        with pytest.raises(ValueError, match="dimension of the subscheme is required"):
            acm_check(t)
        t.dim_z = 3
        with pytest.raises(ValueError):
            acm_check(t)


class TestBuchsbaum:
    def test_acm_table_holds(self):
        t = split_table(4, [0], dim_z=2)
        assert buchsbaum_numeric(t).holds

    def test_two_disjoint_lines_holds(self):
        v = buchsbaum_numeric(two_disjoint_lines_table())
        assert v.decision == "holds"

    def test_gap_condition_fails(self):
        t = CohomologyTable(
            4,
            {1: {0: DimValue.exact(1)}, 3: {-3: DimValue.exact(1)}},
            {
                1: Window(0, 0),
                2: NOTHING,
                3: Window(-3, -3),
            },
            dim_z=3,
        )
        v = buchsbaum_numeric(t)
        assert v.decision == "fails"
        assert v.witnesses == (
            (1, 0, DimValue.exact(1)),
            (3, -3, DimValue.exact(1)),
        )
        assert "(p+i)-(q+j)=1" in v.certificate

    def test_possible_gap_is_undetermined(self):
        t = CohomologyTable(
            4,
            {1: {0: DimValue(0, 1)}, 3: {-3: DimValue.exact(1)}},
            {1: Window(0, 0), 2: NOTHING, 3: Window(-3, -3)},
            dim_z=3,
        )
        assert buchsbaum_numeric(t).decision == "undetermined"

    def test_consecutive_twists_undetermined_with_witnesses(self):
        t = CohomologyTable(
            3,
            {1: {5: DimValue.exact(1), 6: DimValue.exact(2)}},
            {1: Window(5, 6)},
            dim_z=1,
        )
        v = buchsbaum_numeric(t)
        assert v.decision == "undetermined"
        assert v.witnesses == (
            (1, 5, DimValue.exact(1)),
            (1, 6, DimValue.exact(2)),
        )
        assert "consecutive" in v.certificate

    def test_unbounded_row_undetermined(self):
        t = CohomologyTable(3, {}, {1: Window(0, inf)}, dim_z=1)
        assert buchsbaum_numeric(t).decision == "undetermined"

    def test_row_wider_than_the_table_cap_undetermined(self, monkeypatch):
        # no row that table() or the chase writes is this wide
        t = CohomologyTable(3, {1: {0: ZERO}}, {1: Window(0, MAX_TABLE_ENTRIES)}, dim_z=1)
        v = buchsbaum_numeric(t)
        why = f"window of {MAX_TABLE_ENTRIES + 1} twists, over the cap of {MAX_TABLE_ENTRIES}"
        assert v == Verdict("undetermined", (), f"buchsbaum: row 1 cannot be enumerated ({why})")
        # the cap is inclusive
        monkeypatch.setattr(criteria, "MAX_TABLE_ENTRIES", 10)
        t.windows[1] = Window(0, 9)
        assert "possibly nonzero at consecutive twists 1, 2" in buchsbaum_numeric(t).certificate
        t.windows[1] = Window(0, 10)
        assert "cannot be enumerated (window of 11 twists, over the cap of 10)" in buchsbaum_numeric(t).certificate

    def test_gap_witness_matches_the_pairwise_scan(self):
        # the partner lookup against the scan over every pair of entries,
        # on per-row dicts ascending in twist as buchsbaum_numeric builds them
        def pairwise_scan(entries):
            for p in entries:
                for q in entries:
                    if p >= q:
                        continue
                    for i, vp in entries[p].items():
                        for j, vq in entries[q].items():
                            if (p + i) - (q + j) == 1:
                                return (p, i, vp), (q, j, vq)
            return None

        rng = random.Random(20261021)
        found = 0
        for _ in range(500):
            entries = {
                q: {t: DimValue.exact(rng.randint(1, 3)) for t in sorted(rng.sample(range(-8, 9), rng.randint(0, 6)))}
                for q in range(1, rng.randint(2, 5))
            }
            want = pairwise_scan(entries)
            assert _gap_violation(entries) == want
            found += want is not None
        assert 100 < found < 400

    def test_definite_rows_are_read_in_linear_time(self):
        # 10,000 definite entries in each of rows 1 and 2 with no definite
        # gap violation: the pairwise scan took about 8 s
        w = Window(0, 20_000)
        rows = {1: {2 * t: DimValue.exact(1) for t in range(10_000)}, 2: {2 * t + 1: DimValue.exact(1) for t in range(10_000)}}
        t = CohomologyTable(3, rows, {1: w, 2: w}, dim_z=2)
        start = time.perf_counter()
        v = buchsbaum_numeric(t)
        assert time.perf_counter() - start < 1
        assert v.decision == "undetermined"
        assert v.certificate == "buchsbaum: possible gap-condition violation at p=1, i=2, q=2, j=0"

    def test_dim_zero_vacuous(self):
        t = CohomologyTable(3, {}, {}, dim_z=0)
        assert buchsbaum_numeric(t).holds


UPPER = "a proper subscheme has dimension at most n-1"
LOWER = "a subscheme has dimension at least -1 (the empty scheme)"


class TestDimZ:
    """acm_check and buchsbaum_numeric read dim Z one way, the table's own,
    refused outside -1 (the empty scheme) .. n-1."""

    @pytest.mark.parametrize("check", [acm_check, buchsbaum_numeric])
    @pytest.mark.parametrize("dim_z, message", [(3, UPPER), (5, UPPER), (-2, LOWER), (-3, LOWER)])
    def test_refuses_impossible_dimensions(self, check, dim_z, message):
        with pytest.raises(ValueError) as exc:
            check(split_table(3, [0], dim_z=dim_z))
        assert str(exc.value) == message

    @pytest.mark.parametrize("check", [acm_check, buchsbaum_numeric])
    @pytest.mark.parametrize("dim_z", [-1, 2])
    def test_accepts_both_ends(self, check, dim_z):
        # O(0) on P^3 has no intermediate cohomology
        assert check(split_table(3, [0], dim_z=dim_z)).holds


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: evans_griffith(t, 0, 4), "rank must be positive"),
        (lambda t: kpr(t, 0, 4), "rank must be positive"),
        (lambda t: kpr(t, 1, 5), "n does not match the table"),
        (lambda t: beilinson_rank_bound(t, 5), "n does not match the table"),
    ],
    ids=["evans-griffith rank", "kpr rank", "kpr n", "beilinson n"],
)
def test_input_checks_keep_their_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call(split_table(4, [0]))
    assert str(exc.value) == message


class TestHilbertDeficiencyVerdicts:
    @pytest.mark.parametrize(
        "dim_z, why", [(2, "dim Z >= 2"), (3, "dim Z >= 2"), (-1, "empty scheme")]
    )
    def test_not_computed(self, dim_z, why):
        with pytest.raises(InapplicableError, match=why):
            hilbert_deficiency_verdicts(dim_z, [(0, 1)])

    def test_dim_one_gaps_fail_with_every_gap(self):
        acm, bb = hilbert_deficiency_verdicts(1, [(0, 3), (2, 1)])
        assert acm.decision == "fails"
        assert acm.witnesses == ((1, 0, DimValue(3, inf)), (1, 2, DimValue(1, inf)))
        assert (bb.decision, bb.certificate) == (
            "holds", "deficiency support [0, 2]: no consecutive twists"
        )

    def test_dim_one_without_gaps(self):
        acm, bb = hilbert_deficiency_verdicts(1, [])
        assert acm.decision == "undetermined"
        assert "t < 0 are invisible" in acm.certificate
        assert (bb.decision, bb.certificate) == ("holds", "no visible deficiency module")

    def test_consecutive_support_leaves_buchsbaum_open(self):
        acm, bb = hilbert_deficiency_verdicts(1, [(0, 2), (1, 1), (3, 1)])
        assert acm.decision == "fails"
        assert (bb.decision, bb.certificate) == (
            "undetermined", "deficiency at consecutive twists [0, 1, 3]"
        )

    def test_dim_zero_holds_like_the_table_checks(self):
        # No intermediate rows: the verdicts acm_check and buchsbaum_numeric
        # give for dim Z = 0, whatever the deficiency.
        acm, bb = hilbert_deficiency_verdicts(0, [(0, 6), (1, 4), (2, 1)])
        empty = CohomologyTable(3, {}, {}, dim_z=0)
        assert (acm, bb) == (acm_check(empty), buchsbaum_numeric(empty))
        assert acm.holds and bb.holds


def scanned_regularity(ideal_table):
    """regularity by its former downward scan, the reference: each row from
    its window's upper edge down through exact zeros to the first twist
    not pinned to zero, which gives top_q."""
    best = None
    for q in range(1, ideal_table.n + 1):
        w = ideal_table.window(q)
        if w.empty:
            continue
        t = w.hi
        while t >= w.lo and ideal_table.value(q, t).is_zero:
            t -= 1
        if t >= w.lo:
            best = t + q + 1 if best is None else max(best, t + q + 1)
    return 0 if best is None else best


def checked_regularity(ideal_table):
    """regularity(ideal_table), asserted equal to the reference scan."""
    reg = regularity(ideal_table)
    assert reg == scanned_regularity(ideal_table)
    return reg


class TestRegularity:
    def test_structure_sheaf_table(self):
        t = table(VirtualSheaf.from_split(SplitBundle(4, (0,))), -6, 2)
        assert checked_regularity(t) == 0

    def test_two_disjoint_lines(self):
        assert checked_regularity(two_disjoint_lines_table()) == 2

    def test_twisted_line_bundle(self):
        # O(a) is (-a)-regular
        for n in (2, 3, 4):
            for a in (-3, 0, 5):
                t = table(VirtualSheaf.from_split(SplitBundle(n, (a,))), -1, 1)
                assert checked_regularity(t) == -a

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("wide", [False, True], ids=["windows", "-20..20"])
    def test_agrees_with_scan_on_pfaff_grid(self, r, wide):
        # the rows above dim Z are open below; with the wide queries they are
        # materialized, and read from the first twist under them
        for rank in (2, 3):
            n = r + rank
            extra = [("I_Z", q, (-20, 20)) for q in range(n + 1)] if wide else ()
            for twists in combinations_with_replacement((-4, -3, -2), rank):
                checked_regularity(pfaff_ideal_table(SplitBundle(n, twists), r, n, extra))

    def test_open_row_of_materialized_zeros(self):
        # under the materialized zeros the row is not pinned, so its top is
        # the twist just below them: top_2 = -4
        zeros = {t: DimValue.exact(0) for t in range(-3, 1)}
        windows = {1: NOTHING, 2: Window(-inf, 0), 3: NOTHING}
        assert checked_regularity(CohomologyTable(3, {2: zeros}, windows)) == -1

    def test_uncertified_row_raises(self):
        t = CohomologyTable(3, {}, {})
        with pytest.raises(ValueError, match="row 1 is unbounded above"):
            regularity(t)
        t2 = CohomologyTable(3, {}, {1: Window(0, inf), 2: NOTHING, 3: NOTHING})
        with pytest.raises(ValueError, match="row 1 is unbounded above"):
            regularity(t2)

    def test_monotone_under_mutation(self):
        rng = random.Random(20240120)
        for _ in range(200):
            n = rng.randint(2, 6)
            twists = [rng.randint(-4, 4) for _ in range(rng.randint(1, n))]
            t = split_table(n, twists)
            base = checked_regularity(t)
            q = rng.randint(1, n)
            w = t.window(q)
            old_top = -q - 1 if w.empty else w.hi
            t_new = old_top + rng.randint(1, 3)
            rows = {qq: dict(r) for qq, r in t.rows.items()}
            rows.setdefault(q, {})[t_new] = DimValue.exact(rng.randint(1, 3))
            windows = dict(t.windows)
            windows[q] = Window(t_new if w.empty else w.lo, t_new)
            mutated = CohomologyTable(n, rows, windows)
            assert checked_regularity(mutated) >= base
            assert regularity(mutated) >= t_new + q + 1


class TestBeilinsonBound:
    def test_tangent_meets_bound_with_equality(self):
        t = table(tangent_sheaf(5), -8, 0)
        assert beilinson_rank_bound(t, 5) == 5 == tangent_sheaf(5).rank

    def test_tangent_bound_across_dimensions(self):
        for n in (4, 5, 6, 7):
            t = table(tangent_sheaf(n), -n - 3, 0)
            assert beilinson_rank_bound(t, n) == n

    def test_split_bundle_gives_zero(self):
        t = split_table(5, [-1, -1, -1, -1])
        assert beilinson_rank_bound(t, 5) == 0

    def test_small_n_inapplicable(self):
        t = split_table(3, [0])
        with pytest.raises(InapplicableError):
            beilinson_rank_bound(t, 3)

    def test_clause_i_violation(self):
        t = split_table(4, [2])
        with pytest.raises(InapplicableError, match=r"clause \(i\)"):
            beilinson_rank_bound(t, 4)

    def test_clause_ii_violation(self):
        t = table(VirtualSheaf.from_pairs(5, [(normalize_atom(5, 2, 2), 1)]), -8, 0)
        with pytest.raises(InapplicableError, match=r"clause \(ii\)"):
            beilinson_rank_bound(t, 5)

    def test_clause_iii_violation(self):
        t = table(VirtualSheaf.from_pairs(5, [(normalize_atom(5, 4, 3), 1)]), -8, 0)
        with pytest.raises(InapplicableError, match=r"clause \(iii\)"):
            beilinson_rank_bound(t, 5)

    def test_inexact_count_rejected(self):
        t = CohomologyTable(
            4,
            {3: {-5: DimValue(0, 1)}},
            {0: Window(-1, inf), 2: NOTHING,
             3: Window(-5, -5), 4: Window(-inf, -5)},
        )
        with pytest.raises(InapplicableError, match="not exact"):
            beilinson_rank_bound(t, 4)


class TestVerdictType:
    def test_serialization(self):
        v = Verdict(
            "fails",
            ((1, 0, DimValue.exact(1)), (2, -3, DimValue(0, inf))),
            "demo",
        )
        assert v.to_json() == {
            "decision": "fails",
            "witnesses": [[1, 0, 1], [2, -3, [0, None]]],
            "certificate": "demo",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            Verdict("maybe")
        with pytest.raises(ValueError):
            Verdict("holds")
        assert Verdict("undetermined").decision == "undetermined"
