"""Cohomology engine tests.

The closed-form dimensions are checked against two independent oracles:
Serre duality (the formula must be invariant under (p,k,q) -> (n-p,-k,n-q))
and the Euler characteristic recursion coming from the exact sequences
0 -> Omega^p(k) -> O(k-p)^C(n+1,p) -> Omega^{p-1}(k) -> 0, which pins
chi(Omega^p(k)) as an alternating binomial sum independent of any h^q
formula. Window certificates are checked for soundness and tightness.
"""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, inf

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from singscheme import cohomology
from singscheme.chase import en_complex_pfaff, en_complex_tangent
from singscheme.chow import SplitBundle
from singscheme.cohomology import (
    MAX_SWEEP_WORK,
    MAX_TABLE_ENTRIES,
    NOTHING,
    ZERO,
    CohomologyTable,
    CotangentPower,
    DimValue,
    LineBundle,
    VirtualSheaf,
    Window,
    ext_power_split,
    ext_power_tangent,
    normalize_atom,
    sym_power,
    sym_powers,
    table,
    tangent_sheaf,
    tensor_with_split,
)
from singscheme.criteria import Verdict
from test_chow import dual


def chi_line(n: int, a: int) -> int:
    """chi(O(a)) = binomial(a+n, n) as a polynomial in a; valid for all a."""
    num = 1
    for i in range(1, n + 1):
        num *= a + i
    val = Fraction(num, factorial(n))
    assert val.denominator == 1
    return int(val)


def chi_omega(n: int, p: int, k: int) -> int:
    """Alternating binomial sum for chi(Omega^p(k)); no h^q input."""
    return sum(
        (-1) ** (p - j) * comb(n + 1, j) * chi_line(n, k - j)
        for j in range(p + 1)
    )


def bott_dim(n: int, p: int, k: int, q: int) -> int:
    """h^q(P^n, Omega^p(k)) by Bott's formula, for 0 <= p, q <= n: the
    reference that VirtualSheaf.h_row is compared against. Nonzero for q = 0
    and k > p, at the Hodge diagonal q = p, k = 0, and for q = n, k < p - n."""
    if q == 0 and k > p:
        return comb(k + n - p, k) * comb(k - 1, p)
    if q == p and k == 0:
        return 1
    if q == n and k < p - n:
        return comb(p - k, -k) * comb(-k - 1, n - p)
    return 0


def chi_from_bott(n: int, p: int, k: int) -> int:
    return sum((-1) ** q * bott_dim(n, p, k, q) for q in range(n + 1))


def atom_dim(n: int, atom, q: int, twist: int = 0) -> int:
    return bott_dim(n, atom.p, atom.k + twist, q)


def sheaf_h(sheaf: VirtualSheaf, q: int, t: int = 0) -> int:
    """h^q(F(t)) one twist at a time, the bott_dim sum over the atoms: the
    per-twist oracle for h_row."""
    return sum(m * bott_dim(sheaf.n, a.p, a.k + t, q) for a, m in sheaf.atoms)


def sheaf_chi(sheaf: VirtualSheaf, t: int = 0) -> int:
    """chi(F(t)) as the alternating bott_dim sum, over the rows 0, p and n
    where an atom Omega^p(k) can be nonzero: the per-twist oracle for
    chi_row."""
    n = sheaf.n
    return sum(m * (-1) ** q * bott_dim(n, a.p, a.k + t, q) for a, m in sheaf.atoms for q in {0, a.p, n})


def atom_window(n: int, atom, q: int) -> Window:
    """The per-atom reference window: the hull of the bott_dim regimes
    (q = 0, q = p, q = n) that apply to the atom at row q."""
    p, k = atom.p, atom.k
    regimes = []
    if q == 0:
        regimes.append(Window(p - k + 1, inf))
    if q == p:
        regimes.append(Window(-k, -k))
    if q == n:
        regimes.append(Window(-inf, p - n - k - 1))
    return hull(regimes)


def hull(windows) -> Window:
    """The least window that holds every window of windows, folded from
    NOTHING, its identity."""
    out = NOTHING
    for w in windows:
        out = Window(min(out.lo, w.lo), max(out.hi, w.hi))
    return out


class TestBottDim:
    def test_known_values(self):
        assert bott_dim(3, 0, 2, 0) == 10  # h^0(O(2)) on P^3
        assert bott_dim(3, 1, 2, 0) == 6
        assert bott_dim(3, 1, 0, 1) == 1
        assert bott_dim(3, 3, 0, 3) == 1  # h^{3,3} of P^3
        assert bott_dim(3, 1, 2, 1) == 0
        assert bott_dim(3, 0, -4, 3) == 1  # Serre dual of h^0(O)

    def test_hodge_diagonal(self):
        for n in range(1, 7):
            for p in range(n + 1):
                for q in range(n + 1):
                    expected = 1 if q == p else 0
                    assert bott_dim(n, p, 0, q) == expected

    def test_tangent_values(self):
        for n in range(2, 8):
            t = tangent_sheaf(n)
            assert t.h_row(0, [-1, 0]) == [n + 1, n * n + 2 * n]
            assert t.h_row(n - 1, [-n - 1]) == [1]
            # middle rows of T vanish at every twist
            for q in range(1, n - 1):
                assert t.row_window(q).empty

    def test_serre_self_duality(self):
        for n in range(1, 7):
            for p in range(n + 1):
                for q in range(n + 1):
                    for k in range(-2 * n - 4, 2 * n + 5):
                        assert bott_dim(n, p, k, q) == bott_dim(
                            n, n - p, -k, n - q
                        )

    def test_euler_characteristic_matches_koszul_recursion(self):
        for n in range(1, 6):
            for p in range(n + 1):
                for k in range(-2 * n - 3, 2 * n + 4):
                    assert chi_from_bott(n, p, k) == chi_omega(n, p, k)

    def test_line_bundle_euler_characteristic(self):
        for n in range(1, 7):
            for a in range(-2 * n, 2 * n + 1):
                assert chi_from_bott(n, 0, a) == chi_line(n, a)

    def test_cotangent_chi_sign_check(self):
        # chi(Omega^1) = -1 on every P^n
        for n in range(1, 7):
            assert chi_omega(n, 1, 0) == -1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="need 0 <= p <= n"):
            normalize_atom(3, 4, 0)
        with pytest.raises(ValueError, match="need 0 <= p, q <= n"):
            VirtualSheaf.from_pairs(3, [(CotangentPower(1, 0), 1)]).h_row(-1, [0])
        with pytest.raises(ValueError, match="positive"):
            normalize_atom(0, 0, 0)


class TestNormalization:
    def test_edge_powers_fold_to_line_bundles(self):
        assert normalize_atom(4, 0, 3) == LineBundle(3)
        assert normalize_atom(4, 4, 3) == LineBundle(-2)
        assert normalize_atom(3, 3, 5) == LineBundle(1)
        assert normalize_atom(4, 2, 3) == CotangentPower(2, 3)

    def test_from_pairs_normalizes_and_merges(self):
        s = VirtualSheaf.from_pairs(
            3, [(CotangentPower(3, 4), 1), (LineBundle(0), 2), (LineBundle(0), 1)]
        )
        assert s.atoms == ((LineBundle(0), 4),)

    def test_folded_atom_has_line_bundle_cohomology(self):
        # Omega^n(k) = O(k-n-1): same h^q everywhere
        for n in (2, 3, 4):
            for k in range(-3, 6):
                for q in range(n + 1):
                    assert bott_dim(n, n, k, q) == bott_dim(n, 0, k - n - 1, q)


class TestAtoms:
    def test_repr_and_str(self):
        assert repr(LineBundle(3)) == "LineBundle(a=3)"
        assert repr(CotangentPower(1, 0)) == "CotangentPower(p=1, k=0)"
        assert str(LineBundle(-2)) == "O(-2)" and str(CotangentPower(2, 5)) == "Om(2,5)"

    def test_atoms_are_their_pairs(self):
        assert LineBundle(3) == (0, 3) and (LineBundle(3).p, LineBundle(3).k) == (0, 3)
        assert CotangentPower(2, -1) == (2, -1) and hash(CotangentPower(2, -1)) == hash((2, -1))
        with pytest.raises(AttributeError):
            LineBundle(3).k = 4

    def test_copy_and_pickle_keep_the_class(self):
        for atom in (LineBundle(-4), CotangentPower(2, 7)):
            for back in (copy.copy(atom), copy.deepcopy(atom), pickle.loads(pickle.dumps(atom))):
                assert back == atom and type(back) is type(atom)
        s = VirtualSheaf.from_pairs(4, [(CotangentPower(2, 0), 2), (LineBundle(1), 3)])
        assert pickle.loads(pickle.dumps(s)) == s

    def test_atom_order_is_the_old_key_order(self):
        # natural tuple order on (p, k) against the (p, k) sort key and the
        # dict merge that the dataclass atoms used
        rng = random.Random(20261020)
        for _ in range(200):
            n = rng.randint(2, 7)
            pairs = []
            for _ in range(rng.randint(1, 12)):
                p, k = rng.randint(0, n), rng.randint(-4, 4)
                atom = LineBundle(k) if p == 0 and rng.random() < 0.5 else CotangentPower(p, k)
                pairs.append((atom, rng.randint(1, 3)))
            merged = Counter()
            for atom, m in pairs:
                merged[normalize_atom(n, atom.p, atom.k)] += m
            expected = sorted(merged.items(), key=lambda it: (it[0].p, it[0].k))
            assert VirtualSheaf.from_pairs(n, pairs).atoms == tuple(expected)


class TestWindows:
    def test_window_normalizes_inverted_bounds_to_empty(self):
        assert Window(3, 1).empty
        assert not Window(1, 3).empty

    def test_contains(self):
        w = Window(0, 7)
        assert w.contains(4)
        assert not w.contains(-1)
        assert Window(0, inf).contains(10**6)
        assert not NOTHING.contains(0)

    def test_atom_windows_sound(self):
        rng = random.Random(20240118)
        for _ in range(4000):
            n = rng.randint(2, 7)
            if rng.random() < 0.5:
                atom = LineBundle(rng.randint(-10, 10))
            else:
                atom = CotangentPower(rng.randint(1, n - 1), rng.randint(-10, 10))
            q = rng.randint(0, n)
            t = rng.randint(-16, 16)
            if not VirtualSheaf.from_pairs(n, [(atom, 1)]).row_window(q).contains(t):
                assert atom_dim(n, atom, q, t) == 0

    def test_atom_windows_tight_at_finite_ends(self):
        for n in range(2, 7):
            atoms = [LineBundle(a) for a in range(-5, 6)]
            atoms += [
                CotangentPower(p, k)
                for p in range(1, n)
                for k in range(-5, 6)
            ]
            for atom in atoms:
                for q in range(n + 1):
                    w = VirtualSheaf.from_pairs(n, [(atom, 1)]).row_window(q)
                    if w.empty:
                        continue
                    if w.lo > -inf:
                        assert atom_dim(n, atom, q, w.lo) > 0
                        assert atom_dim(n, atom, q, w.lo - 1) == 0
                    if w.hi < inf:
                        assert atom_dim(n, atom, q, w.hi) > 0
                        assert atom_dim(n, atom, q, w.hi + 1) == 0

    def test_middle_row_windows_empty_for_line_bundles(self):
        for q in range(1, 4):
            assert VirtualSheaf.from_pairs(4, [(LineBundle(-2), 1)]).row_window(q).empty

    @seed(20261022)
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_windows_off_the_sorted_atoms_match_per_atom_hulls(self, data):
        # Multi-p sheaves with atoms at p = 0, in the middle and at p = n,
        # built directly, since from_pairs folds Omega^n(k) into O(k-n-1):
        # each row window is the hull of the atom windows, and each middle
        # row reads the Bott sum over the atoms.
        n = data.draw(st.integers(1, 9), label="n")
        ps = st.sampled_from([0, n] + list(range(1, n)) * 2)
        drawn = data.draw(
            st.lists(st.tuples(ps, st.integers(-12, 12), st.integers(1, 3)), min_size=1, max_size=12), label="atoms"
        )
        merged = Counter()
        for p, k, m in drawn:
            merged[LineBundle(k) if p == 0 else CotangentPower(p, k)] += m
        s = VirtualSheaf(n, tuple(sorted(merged.items())))
        for q in range(-1, n + 2):
            assert s.row_window(q) == hull(atom_window(n, a, q) for a, _ in s.atoms), q
        ts = range(-16, 17)
        for q in range(1, n):
            assert s.h_row(q, ts) == [sheaf_h(s, q, t) for t in ts], q

    def test_empty_twist_lists_read_no_atoms(self):
        s = VirtualSheaf.from_pairs(4, [(CotangentPower(2, 1), 2), (LineBundle(-3), 1)])
        assert [s.h_row(q, []) for q in range(5)] == [[]] * 5
        assert s.chi_row([]) == [] and s.chi_row(range(0)) == []
        assert vars(s) == {}


class TestVirtualSheaf:
    def test_rank(self):
        assert tangent_sheaf(5).rank == 5
        s = VirtualSheaf.from_pairs(
            4, [(CotangentPower(2, 0), 2), (LineBundle(1), 3)]
        )
        assert s.rank == 2 * comb(4, 2) + 3

    def test_twist_and_sum(self):
        assert tensor_with_split(CotangentPower(1, 2), SplitBundle(3, (3,))).atoms == ((CotangentPower(1, 5), 1),)
        both = VirtualSheaf.from_pairs(3, [(CotangentPower(1, 2), 1), (LineBundle(0), 1)])
        assert both.rank == 4

    def test_split_round_trip_and_dual(self):
        b = SplitBundle(3, (-1, -1, 2))
        s = VirtualSheaf.from_split(b)
        assert s.atoms == ((LineBundle(-1), 2), (LineBundle(2), 1))
        assert SplitBundle(3, tuple(a.k for a, m in s.atoms for _ in range(m))) == b
        assert s.rank == b.rank
        s_dual = VirtualSheaf.from_split(dual(b))
        assert s_dual.atoms == ((LineBundle(-2), 1), (LineBundle(1), 2))
        assert s_dual == VirtualSheaf.from_pairs(3, [(LineBundle(-a.k), m) for a, m in s.atoms])

    def test_h_is_additive(self):
        s = VirtualSheaf.from_pairs(
            4, [(CotangentPower(1, 0), 2), (LineBundle(-5), 1)]
        )
        for q in range(5):
            expected = [
                2 * atom_dim(4, CotangentPower(1, 0), q, t) + atom_dim(4, LineBundle(-5), q, t)
                for t in (-3, 0, 3)
            ]
            assert s.h_row(q, (-3, 0, 3)) == expected

    def test_str(self):
        s = VirtualSheaf.from_pairs(
            4, [(LineBundle(-2), 2), (CotangentPower(2, 1), 1)]
        )
        assert str(s) == "O(-2)^2+Om(2,1)"

    def test_rows_match_per_atom_reference(self):
        # The per-atom reference: a row window is the hull of the atom
        # windows, h^q is the bott_dim sum over the atoms, chi the
        # alternating sum of h^q and, independently, of chi_omega.
        rng = random.Random(20261018)
        for _ in range(150):
            n = rng.randint(1, 9)
            pairs = [
                (normalize_atom(n, rng.randint(0, n), rng.randint(-8, 8)), rng.randint(1, 3))
                for _ in range(rng.randint(1, 6))
            ]
            s = VirtualSheaf.from_pairs(n, pairs)
            for q in range(-1, n + 2):
                assert s.row_window(q) == hull(atom_window(n, a, q) for a, _ in s.atoms)
            ts = range(-2 * n - 10, 2 * n + 11)
            rows = [[sheaf_h(s, q, t) for t in ts] for q in range(n + 1)]
            assert [s.h_row(q, ts) for q in range(n + 1)] == rows
            assert s.chi_row(ts) == [sum((-1) ** q * h for q, h in enumerate(hs)) for hs in zip(*rows)]
            assert s.chi_row(ts) == [sum(m * chi_omega(n, a.p, a.k + t) for a, m in s.atoms) for t in ts]

    def test_rows_read_as_lists_match_per_twist_reads(self):
        # h_row and chi_row against the per-twist Bott sums, on twist lists
        # that cross every atom's switch-on (1 - min k for h^0, -1 - max k
        # for h^n): one long run, runs cut short of n+1 twists by gaps, and
        # a sparse random list. A row switches an atom on where Bott's h^0
        # polynomial becomes h^0: at u = 0 for a line bundle, u = 1 for
        # Omega^p. The sheaves are random small ones; every p alone on
        # P^1..P^8; dense bands whose switch-ons crowd the twists, 40
        # random atoms and the terms of the Pfaff complex of dimension 3 with
        # twists -(i^2+2); and, at n = 20..30, terms Omega^{r+j} (x)
        # Sym^j(F)(c1) of the tangent Eagon-Northcott complex.
        rng = random.Random(20261019)
        sheaves = []
        for _ in range(200):
            n = rng.randint(1, 8)
            pairs = [
                (normalize_atom(n, rng.randint(0, n), rng.randint(-10, 10)), rng.randint(1, 3))
                for _ in range(rng.randint(1, 5))
            ]
            sheaves.append(VirtualSheaf.from_pairs(n, pairs))
        for n in range(1, 9):
            sheaves += [VirtualSheaf.from_pairs(n, [(normalize_atom(n, p, k), 1)]) for p in range(n + 1) for k in (-1, 0, 2)]
            band = [(normalize_atom(n, rng.randint(0, n), rng.randint(-12, 12)), rng.randint(1, 4)) for _ in range(40)]
            sheaves.append(VirtualSheaf.from_pairs(n, band))
            if n > 3:
                triples = en_complex_pfaff(SplitBundle(n, [-(i * i + 2) for i in range(n - 3)]), 3, n)
                sheaves += [triples[0].a] + [tr.b for tr in triples]
        for n, shift in ((20, -3), (24, 0), (27, 2), (30, -1)):
            triples = en_complex_tangent(SplitBundle(n, range(shift - 3, shift + 3)), n)
            terms = [triples[0].a] + [tr.b for tr in triples]
            sheaves += [terms[0], terms[len(terms) // 2], terms[-1]]
        for s in sheaves:
            n = s.n
            ks = [a.k for a, _ in s.atoms]
            lo, hi = -1 - max(ks) - rng.randint(0, 3 * n + 8), 1 - min(ks) + rng.randint(0, 3 * n + 8)
            run = list(range(lo, hi + 1))
            short, t = [], lo
            while t <= hi:
                length = rng.randint(1, n)
                short += range(t, min(t + length, hi + 1))
                t += length + rng.randint(1, 3)
            sparse = sorted(rng.sample(run, rng.randint(0, len(run))))
            for ts in (run, short, sparse, []):
                rows = [s.h_row(q, ts) for q in range(n + 1)]
                assert s.chi_row(ts) == [sheaf_chi(s, t) for t in ts]
                assert s.chi_row(ts) == [sum((-1) ** q * h for q, h in enumerate(col)) for col in zip(*rows)]
                for q in range(n + 1):
                    assert rows[q] == [sheaf_h(s, q, t) for t in ts]
            for q in (-1, n + 1):
                with pytest.raises(ValueError, match="0 <= p, q <= n"):
                    s.h_row(q, run)

    def test_sweep_work_does_not_grow_with_the_band(self, monkeypatch):
        # The terms of the Pfaff complex of dimension 3 with 40 twists
        # -(i^2+2), on P^43, spread up to 2,866 atoms over bands of up to
        # 4,654 twists. Reading rows 0 and n over the whole band and over
        # its upper half (seeded with half the atoms on) evaluates chi of an
        # atom at most n+1 times per atom on at a run's start, plus n+1
        # times per cached switch-on table: never band x atoms.
        calls = []
        real = cohomology._chi_atom
        monkeypatch.setattr(cohomology, "_chi_atom", lambda n, p, u: calls.append(p) or real(n, p, u))
        cohomology._switch_table.cache_clear()
        n = 43
        triples = en_complex_pfaff(SplitBundle(n, [-(i * i + 2) for i in range(40)]), 3, n)
        for s in [triples[0].a] + [tr.b for tr in triples]:
            ks = [a.k for a, _ in s.atoms]
            lo, hi = -max(ks) - n - 2, -min(ks) + n + 2
            calls.clear()
            for ts in (range(lo, hi + 1), range((lo + hi) // 2, hi + 1)):
                s.h_row(0, ts)
                s.h_row(n, ts)
            bound = 2 * (n + 1) * (len(s.atoms) + n + 1)
            assert len(calls) <= bound
            if len(s.atoms) > 100:
                assert bound * 20 < (hi - lo) * len(s.atoms)

    def test_h_rejects_rows_outside_zero_to_n(self):
        for n in (1, 3, 6):
            s = VirtualSheaf.from_pairs(n, [(LineBundle(-n - 2), 1), (LineBundle(1), 2)])
            for q in (-2, -1, n + 1, n + 2):
                for t in (-n - 1, 0, 3):
                    with pytest.raises(ValueError, match="0 <= p, q <= n"):
                        s.h_row(q, [t])

    def test_atoms_validated_when_built(self):
        with pytest.raises(ValueError, match="0 <= p <= n"):
            VirtualSheaf(3, ((CotangentPower(4, 0), 1),))
        with pytest.raises(ValueError):
            VirtualSheaf(0, ((LineBundle(0), 1),))


class TestPowers:
    def test_sym_power(self):
        b = SplitBundle(3, (-2, -3))
        assert sym_power(b, 2).twists == (-4, -5, -6)
        assert sym_power(b, 0).twists == (0,)
        assert sym_power(b, 1) == b
        assert sym_power(b, 3).rank == 4

    def test_ext_power_split(self):
        b = SplitBundle(4, (1, -1, -2))
        assert ext_power_split(b, 2).twists == (0, -1, -3)
        assert ext_power_split(b, 3).twists == (-2,)  # det
        assert ext_power_split(b, 0).twists == (0,)
        with pytest.raises(ValueError):
            ext_power_split(b, 4)

    def test_powers_match_enumeration(self):
        # The reference lists every multiset (Sym) or subset (Lambda) of
        # the twists and sums it; the library convolves over the counts.
        def enumerated(bundle, j, pick):
            if j == 0:
                return SplitBundle(bundle.n, (0,))
            return SplitBundle(bundle.n, tuple(sum(c) for c in pick(bundle.twists, j)))

        rng = random.Random(20261019)
        for _ in range(120):
            r = rng.randint(1, 6)
            base = SplitBundle(rng.randint(1, 8), tuple(rng.randint(-4, 4) for _ in range(r)))
            for j in range(9):
                got, want = sym_power(base, j), enumerated(base, j, combinations_with_replacement)
                pairs = [(got, want)]
                assert len(got.twists) == comb(r + j - 1, j)
                if j <= r:
                    pairs.append((ext_power_split(base, j), enumerated(base, j, combinations)))
                for got, want in pairs:
                    assert got == want and hash(got) == hash(want)
                    assert got.counts == want.counts
                    assert got.twists == want.twists
                    assert (got.rank, got.c1) == (want.rank, want.c1)

    def test_all_layers_match_enumeration(self):
        # One sym_powers call gives Sym^0..Sym^k; each layer must equal the
        # enumerated multisets, here on bundles whose twists repeat up to
        # four times. Lambda^j is read at every j up to the rank.
        def enumerated(bundle, j, pick):
            return SplitBundle(bundle.n, tuple(sum(c) for c in pick(bundle.twists, j)))

        rng = random.Random(20261020)
        for _ in range(40):
            twists = rng.sample(range(-5, 5), rng.randint(1, 3))
            mults = [rng.randint(1, 4) for _ in twists]
            base = SplitBundle(rng.randint(1, 8), [a for a, m in zip(twists, mults) for _ in range(m)])
            k = 8 if base.rank <= 6 else 5
            layers = sym_powers(base, k)
            assert len(layers) == k + 1
            for j, layer in enumerate(layers):
                assert layer == enumerated(base, j, combinations_with_replacement)
                assert layer == sym_power(base, j)
            for j in range(base.rank + 1):
                assert ext_power_split(base, j) == enumerated(base, j, combinations)
        with pytest.raises(ValueError, match="nonnegative"):
            sym_powers(base, -1)

    def test_ext_power_tangent(self):
        assert ext_power_tangent(4, 1) == CotangentPower(3, 5)
        assert ext_power_tangent(4, 4) == LineBundle(5)  # det T = O(n+1)
        assert ext_power_tangent(4, 0) == LineBundle(0)
        assert ext_power_tangent(5, 2) == CotangentPower(3, 6)

    def test_tensor_with_split(self):
        b = SplitBundle(4, (-1, 2))
        out = tensor_with_split(CotangentPower(2, 1), b)
        assert out.atoms == ((CotangentPower(2, 0), 1), (CotangentPower(2, 3), 1))
        # tensoring with O is the identity
        o = SplitBundle(4, (0,))
        t = tangent_sheaf(4)
        assert tensor_with_split(ext_power_tangent(4, 1), o) == t
        # rank multiplies
        assert tensor_with_split(ext_power_tangent(4, 1), b).rank == t.rank * b.rank

    def test_merged_products_match_per_summand_reference(self):
        # The per-summand algorithm: one pair for every summand of the
        # bundle, equal twists left to from_pairs to merge.
        def per_summand_tensor(atom, bundle):
            return VirtualSheaf.from_pairs(bundle.n, [
                (normalize_atom(bundle.n, atom.p, atom.k + a), 1) for a in bundle.twists
            ])

        def per_summand_split(bundle):
            return VirtualSheaf.from_pairs(bundle.n, [(LineBundle(a), 1) for a in bundle.twists])

        rng = random.Random(20261018)
        for _ in range(300):
            n = rng.randint(1, 6)
            base = SplitBundle(n, tuple(rng.randint(-3, 2) for _ in range(rng.randint(1, 5))))
            j = rng.randint(0, 3)
            bundles = [base, sym_power(base, j)]
            if j <= base.rank:
                bundles.append(ext_power_split(base, j))
            atom = normalize_atom(n, rng.randint(0, n), rng.randint(-6, 6))
            for bundle in bundles:
                assert VirtualSheaf.from_split(bundle) == per_summand_split(bundle)
                assert tensor_with_split(atom, bundle) == per_summand_tensor(atom, bundle)
                assert sum(m for _, m in bundle.counts) == bundle.rank

    def test_one_atom_products_match_from_pairs(self):
        # One atom times the distinct twists of counts is built in sorted
        # order without the dict merge; from_pairs is the reference, and the
        # atom classes are compared too, since LineBundle(k) equals the pair
        # CotangentPower(0, k). Atoms off normal form are normalized.
        rng = random.Random(20261021)
        for _ in range(300):
            n = rng.randint(1, 7)
            bundle = SplitBundle(n, [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))])
            p, k = rng.randint(0, n), rng.randint(-8, 8)
            atom = CotangentPower(p, k) if rng.random() < 0.5 else normalize_atom(n, p, k)
            want = VirtualSheaf.from_pairs(n, [(CotangentPower(p, k + a), m) for a, m in bundle.counts])
            got = tensor_with_split(atom, bundle)
            assert got == want and list(map(type, dict(got.atoms))) == list(map(type, dict(want.atoms)))

    def test_twist_and_dual_helpers(self):
        t = tangent_sheaf(3)
        twisted = tensor_with_split(ext_power_tangent(3, 1), SplitBundle(3, (-4,)))
        assert twisted == VirtualSheaf.from_pairs(3, [(CotangentPower(2, 0), 1)])
        assert all(twisted.h_row(q, [0]) == t.h_row(q, [-4]) for q in range(4))
        assert dual(SplitBundle(3, (-1, 2))) == SplitBundle(3, (1, -2))


def sweep_bound(bundle, k):
    """rank x sum_{i<k} min(C(i+m-1, m-1), i*spread+1), for the m distinct
    twists of bundle spread over max - min: a bound on the widths of the
    layers 0..k-1 that the sweep reads once per copy of each twist."""
    distinct = sorted(set(bundle.twists))
    m, spread = len(distinct), distinct[-1] - distinct[0]
    return bundle.rank * sum(min(comb(i + m - 1, m - 1), i * spread + 1) for i in range(k))


class TestSweepCap:
    """Sym and Lambda sweeps are bounded before they run: rank x the widths
    of the layers 0..k-1 is the count of steps, and sweep_bound bounds it."""

    def test_bound_covers_every_step(self):
        rng = random.Random(20261022)
        for _ in range(80):
            base = SplitBundle(9, [rng.choice((-7, -3, -2, 0, 1, 5)) for _ in range(rng.randint(1, 7))])
            k = rng.randint(0, 9)
            layers = sym_powers(base, k)
            steps = base.rank * sum(len(layer.counts) for layer in layers[:k])
            assert steps <= sweep_bound(base, k)
            j = min(k, base.rank)
            lams = [ext_power_split(base, i) for i in range(j)]
            assert base.rank * sum(len(layer.counts) for layer in lams) <= sweep_bound(base, j)
        # one distinct twist: every layer holds one twist, and the bound is exact
        assert sweep_bound(SplitBundle(3, (-2,) * 4), 5) == 4 * 5

    @pytest.mark.parametrize("power", [sym_power, ext_power_split], ids=["sym", "lambda"])
    def test_cap_is_inclusive(self, monkeypatch, power):
        base = SplitBundle(6, (-3, -3, -1, 0, 2))
        bound = sweep_bound(base, 4)
        monkeypatch.setattr(cohomology, "MAX_SWEEP_WORK", bound)
        assert power(base, 4).rank == (comb(8, 4) if power is sym_power else comb(5, 4))
        monkeypatch.setattr(cohomology, "MAX_SWEEP_WORK", bound - 1)
        with pytest.raises(ValueError) as exc:
            power(base, 4)
        assert str(exc.value) == (
            f"a degree-4 power sweep over 4 distinct twists bounds {bound} steps, over the cap of {bound - 1}"
        )

    @pytest.mark.parametrize(
        "twists, k, bound",
        [
            # F of the tangent chase on P^300 with twists -1, -100, ..., -10^8:
            # the sweep would run out of memory
            ((-1, -100, -10_000, -1_000_000, -100_000_000), 295, 96_282_284_670),
            # Sym^3 of 297 distinct twists, the Pfaff data of dimension 3 on P^300
            (tuple(-(i * i + 2) for i in range(297)), 3, 13_231_647),
        ],
        ids=["tangent", "pfaff"],
    )
    def test_large_sweeps_refused_unbuilt(self, twists, k, bound):
        base = SplitBundle(300, twists)
        assert sweep_bound(base, k) == bound > MAX_SWEEP_WORK
        with pytest.raises(ValueError) as exc:
            sym_powers(base, k)
        assert str(exc.value) == (
            f"a degree-{k} power sweep over {len(twists)} distinct twists bounds {bound} steps,"
            f" over the cap of {MAX_SWEEP_WORK}"
        )

    def test_cap_sits_above_the_largest_chases(self):
        # the n = 80 table that test_chase pins, and O(-3..2) and
        # O(-1)+O(-3)+O(-7)+O(-15) at the closed-form cap n = 300
        for n, twists in ((80, range(-3, 3)), (300, range(-3, 3)), (300, (-1, -3, -7, -15))):
            base = SplitBundle(n, twists)
            assert sweep_bound(base, n - base.rank) <= MAX_SWEEP_WORK


class TestDimValue:
    def test_exact_and_interval(self):
        v = DimValue.exact(3)
        assert v.is_exact and v.definitely_nonzero and not v.is_zero
        z = DimValue.exact(0)
        assert z.is_zero and not z.possibly_nonzero
        u = DimValue(0, inf)
        assert u.possibly_nonzero and not u.definitely_nonzero

    def test_validation(self):
        with pytest.raises(ValueError):
            DimValue(-1, 0)
        with pytest.raises(ValueError):
            DimValue(3, 2)

    def test_str(self):
        assert str(DimValue.exact(7)) == "7"
        assert str(DimValue(0, inf)) == "[0,inf]"
        assert str(DimValue(1, 5)) == "[1,5]"

    def test_repr_and_messages(self):
        assert repr(DimValue(1, 2)) == "DimValue(lo=1, hi=2)"
        assert repr(DimValue(0, inf)) == "DimValue(lo=0, hi=inf)"
        for lo, hi, message in ((-1, 0, "dimensions are nonnegative"), (2, 1, "empty interval")):
            with pytest.raises(ValueError) as exc:
                DimValue(lo, hi)
            assert str(exc.value) == message

    def test_immutable_pair(self):
        v = DimValue(1, 2)
        with pytest.raises(AttributeError):
            v.lo = 0
        assert v == (1, 2) and hash(v) == hash((1, 2))
        assert tuple(v) == (v.lo, v.hi) == (1, 2)
        assert DimValue.exact(0) == ZERO

    def test_copy_pickle_and_asdict(self):
        for v in (DimValue(1, 2), DimValue(0, inf), ZERO):
            for back in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert back == v and type(back) is DimValue
        verdict = Verdict("fails", ((1, 0, DimValue(2, inf)), (2, -3, DimValue.exact(1))), "acm: nonzero")
        data = verdict._asdict()
        assert data == {"decision": "fails", "witnesses": verdict.witnesses, "certificate": "acm: nonzero"}
        assert all(type(v) is DimValue for _, _, v in data["witnesses"])
        assert pickle.loads(pickle.dumps(verdict)) == verdict


class TestTable:
    def test_materializes_requested_range_and_finite_windows(self):
        t = table(tangent_sheaf(4), 0, 0)
        # q=3 window is the singleton -5, materialized beyond the range
        assert t.value(3, -5) == DimValue.exact(1)
        assert t.value(0, 0) == DimValue.exact(24)
        # certified zero outside the window without materialization
        assert t.value(2, 100) == DimValue.exact(0)
        assert t.window(2).empty

    def test_value_outside_row_range_is_zero(self):
        t = table(VirtualSheaf.from_pairs(3, [(LineBundle(0), 1)]), 0, 0)
        assert t.value(-1, 0) == DimValue.exact(0)
        assert t.value(4, 0) == DimValue.exact(0)

    def test_uncertified_row_answers_unknown(self):
        t = CohomologyTable(3, {1: {0: DimValue.exact(2)}}, {})
        assert t.window(1) == Window(-inf, inf)
        assert t.value(1, 0) == DimValue.exact(2)
        assert t.value(1, 5) == DimValue(0, inf)

    def test_values_match_direct_formula(self):
        s = VirtualSheaf.from_pairs(
            5, [(CotangentPower(2, 3), 1), (LineBundle(-7), 2)]
        )
        t = table(s, -9, 4)
        for q in range(6):
            for tw in range(-9, 5):
                assert t.value(q, tw) == DimValue.exact(sheaf_h(s, q, tw))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            table(tangent_sheaf(3), 2, 1)

    def test_rows_share_zero_and_hold_checked_pairs(self):
        t = table(tangent_sheaf(4), -8, 3)
        values = [v for row in t.rows.values() for v in row.values()]
        assert all(type(v) is DimValue and 0 <= v.lo == v.hi for v in values)
        assert all(v is ZERO for v in values if v.hi == 0)

    def test_entry_cap_is_inclusive(self, monkeypatch):
        # the requested twists and each finite window outside them, counted
        # once: every row holds -3..3, rows 2 and 3 also hold their window
        # -5, and row 1's window 0 lies inside the range
        s = VirtualSheaf.from_pairs(4, [(ext_power_tangent(4, 1), 1), (CotangentPower(2, 5), 1), (CotangentPower(1, 0), 1)])
        total = sum(len(row) for row in table(s, -3, 3).rows.values())
        assert total == 5 * 7 + 2
        monkeypatch.setattr(cohomology, "MAX_TABLE_ENTRIES", total)
        assert table(s, -3, 3).rows
        monkeypatch.setattr(cohomology, "MAX_TABLE_ENTRIES", total - 1)
        with pytest.raises(ValueError) as exc:
            table(s, -3, 3)
        assert str(exc.value) == f"the table would hold {total} entries, over the cap of {total - 1}"

    def test_wide_table_refused_before_any_row(self, monkeypatch):
        def never(self, q, ts):
            raise AssertionError("a row was built")
        monkeypatch.setattr(VirtualSheaf, "h_row", never)
        with pytest.raises(ValueError) as exc:
            table(VirtualSheaf.from_pairs(300, [(LineBundle(0), 1)]), -4999, 5000)
        assert str(exc.value) == f"the table would hold 3010000 entries, over the cap of {MAX_TABLE_ENTRIES}"

    def test_cap_sits_above_the_largest_tables(self):
        # the widest table the tests, goldens and bench/ ask for: one
        # MAX_TWIST_RANGE of twists on P^1 (bench asks for at most 729)
        rows = table(VirtualSheaf.from_pairs(1, [(LineBundle(0), 1)]), 1, 10_000).rows
        assert sum(map(len, rows.values())) == 20_000 <= MAX_TABLE_ENTRIES

    def test_json_round_trip(self):
        t = table(VirtualSheaf.from_pairs(4, [(ext_power_tangent(4, 1), 1), (LineBundle(-3), 1)]), -2, 2)
        t.dim_z = 1
        back = CohomologyTable.loads(t.dumps())
        assert back.n == t.n and back.dim_z == 1
        assert back.rows == t.rows
        assert back.windows == t.windows

    def test_json_round_trip_intervals_and_uncertified(self):
        t = CohomologyTable(
            2,
            {0: {0: DimValue(1, inf), 1: DimValue(0, 4)}},
            {1: NOTHING, 2: Window(-inf, -3)},
        )
        back = CohomologyTable.loads(t.dumps())
        assert back.value(0, 0) == DimValue(1, inf)
        assert back.value(0, 1) == DimValue(0, 4)
        assert back.window(0) == Window(-inf, inf)
        assert back.window(1).empty
        assert back.window(2) == Window(-inf, -3)

    def test_null_window_reads_as_no_twist_excluded(self):
        back = CohomologyTable.loads('{"n": 2, "windows": {"0": null, "1": {"empty": true}}}')
        assert back.window(0) == back.window(2) == Window(-inf, inf)
        assert back.value(0, 7) == DimValue(0, inf)
        assert back.window(1).empty

    def test_from_json_rejects_bad_row(self):
        with pytest.raises(ValueError):
            CohomologyTable.from_json(
                {"n": 2, "rows": {"5": {"0": 1}}, "windows": {}}
            )

    def test_from_json_refuses_an_entry_its_window_certifies_zero(self):
        # h^2(-3) = 5 where the row's own window 0..0 certifies it zero
        data = {"n": 4, "rows": {"2": {"-3": 5, "0": 1}}, "windows": {"2": {"lo": 0, "hi": 0}}}
        with pytest.raises(ValueError) as exc:
            CohomologyTable.from_json(data)
        assert str(exc.value) == "malformed table: h^2(t=-3) = 5 lies outside the row's window"
        data["rows"]["2"]["-3"] = [2, None]
        with pytest.raises(ValueError, match=r"h\^2\(t=-3\) = \[2,inf\] lies outside"):
            CohomologyTable.from_json(data)
        data["windows"]["2"] = {"empty": True}
        data["rows"]["2"] = {"0": 1}
        with pytest.raises(ValueError, match=r"h\^2\(t=0\) = 1 lies outside"):
            CohomologyTable.from_json(data)

    def test_from_json_keeps_zeros_outside_the_window(self):
        # the chase writes certified zeros outside a window; an interval
        # that may be zero is kept too, and a row with no window excludes
        # no twist
        data = {
            "n": 3,
            "rows": {"1": {"-9": 0, "0": 1, "9": [0, 4]}, "2": {"-40": 7}},
            "windows": {"1": {"lo": 0, "hi": 0}, "2": None},
        }
        back = CohomologyTable.from_json(data)
        assert back.rows[1][-9] == DimValue.exact(0)
        assert back.rows[1][9] == DimValue(0, 4)
        assert back.value(2, -40) == DimValue.exact(7)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: VirtualSheaf.from_pairs(3, [(LineBundle(0), 0)]), "multiplicities must be positive"),
        (lambda: VirtualSheaf.from_pairs(3, [(LineBundle(0), -1)]), "multiplicities must be positive"),
        (lambda: VirtualSheaf.from_pairs(3, []), "a virtual sheaf needs at least one atom"),
        (lambda: tensor_with_split(CotangentPower(5, 0), SplitBundle(4, (0,))), "need 0 <= p <= n, got p=5"),
        (lambda: ext_power_tangent(3, 4), "need 0 <= q <= n"),
        (lambda: ext_power_tangent(3, -1), "need 0 <= q <= n"),
    ],
    ids=["multiplicity 0", "multiplicity -1", "no atoms", "tensor atom above n", "q above n", "q below 0"],
)
def test_input_checks_keep_their_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
