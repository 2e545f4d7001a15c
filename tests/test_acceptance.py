"""Acceptance gate: ten end-to-end checks, one [PASS]/[FAIL] line each.

Every check is exact (integer equality, frozen witnesses); run with -s to
see the status lines. Together they exercise the degree formulas, the
polynomial-form calculus, the Hilbert oracle, the splitting criteria, the
Eagon-Northcott chase, the Buchsbaum numerics, the Beilinson bound, and
the regularity bound, against independently computed values.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from singscheme.chase import pfaff_ideal_table, tangent_ideal_table
from singscheme.chow import (
    porteous_singular_degree,
    pullback_degree,
    singular_degree_formula,
)
from singscheme.cohomology import (
    CotangentPower,
    DimValue,
    SplitBundle,
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
    evans_griffith,
    horrocks,
    kpr,
    regularity,
)
from singscheme.forms import (
    HomogeneousPoly,
    GradedIdeal,
    PolyVectorField,
    coefficient_ideal,
    contract,
    parse_form,
    radial_field,
    radial_form_degree,
    volume_contract_chain,
)
from singscheme.hilbert import hilbert_profile, scheme_degree_dim
from test_cohomology import sheaf_h

TWO_LINES_FORM = (
    "z0*z2 dz1^dz3 - z0*z3 dz1^dz2 - z1*z2 dz0^dz3 + z1*z3 dz0^dz2"
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def random_field(rng: random.Random, nvars: int, degree: int) -> PolyVectorField:
    comps = []
    for _ in range(nvars):
        coeffs = {}
        for expo in combinations_with_replacement(range(nvars), degree):
            c = rng.randint(-2, 2)
            if c:
                e = [0] * nvars
                for i in expo:
                    e[i] += 1
                coeffs[tuple(e)] = c
        comps.append(HomogeneousPoly.from_dict(nvars, coeffs))
    if all(p.is_zero for p in comps):
        comps[0] = HomogeneousPoly.monomial(nvars, (degree,) + (0,) * (nvars - 1))
    return PolyVectorField(nvars, tuple(comps))


def test_01_degree_formula_consistency():
    # The split formula on F = O(1-d) + O(1)^(n-k-1), whose entries in the
    # negated-twist convention are (d-1, -1, ..., -1), must reproduce the
    # geometric series sum_{j<=k+1} d^j for every grid point.
    with criterion(1, "degree-formula consistency across the full grid"):
        checked = 0
        for n in range(3, 9):
            for k in range(1, n):
                r = n - k
                for d in range(1, 7):
                    d_list = (d - 1,) + (-1,) * (r - 1)
                    lhs = singular_degree_formula(n, r, d_list)
                    rhs = pullback_degree(n, k, d)
                    assert lhs == rhs == sum(d**j for j in range(k + 2))
                    checked += 1
        assert checked == sum(6 * (n - 1) for n in range(3, 9))


def test_02_three_way_degree_oracle():
    # Two disjoint lines on P^3: Porteous on the split Pfaff bundle, the
    # Hilbert degree of the coefficient ideal, and the form's distribution
    # degree must tell one consistent story.
    with criterion(2, "three-way oracle on the two-lines example"):
        assert porteous_singular_degree(3, SplitBundle(3, (-2, -2))) == 2
        form = parse_form(TWO_LINES_FORM, 4)
        assert scheme_degree_dim(coefficient_ideal(form)) == (1, 2)
        assert contract(form, radial_field(4)).is_zero
        assert radial_form_degree(form, 3) == 1


def test_03_radial_identities():
    with criterion(3, "radial and field contraction identities"):
        omega = parse_form(TWO_LINES_FORM, 4)
        assert contract(omega, radial_field(4)).is_zero

        rng = random.Random(20260818)
        cases = 0
        while cases < 50:
            n = rng.randint(2, 5)
            nvars = n + 1
            m = rng.randint(1, n - 1) if n > 1 else 1
            fields = [
                random_field(rng, nvars, rng.randint(0, 2)) for _ in range(m)
            ]
            out = volume_contract_chain(n, fields)
            assert contract(out, radial_field(nvars)).is_zero
            for f in fields:
                assert contract(out, f).is_zero
            cases += 1
        assert cases == 50


def test_04_splitting_criteria_spot_checks():
    with criterion(4, "splitting criteria: sound on splits, sharp on T and Omega^1"):
        rng = random.Random(7)
        for n in range(3, 8):
            for _ in range(6):
                rank = rng.randint(1, n)
                twists = tuple(rng.randint(-5, 5) for _ in range(rank))
                tab = table(
                    VirtualSheaf.from_split(SplitBundle(n, twists)), -2 * n - 4, n + 4
                )
                assert horrocks(tab).holds, (n, twists)
                assert evans_griffith(tab, rank, n).holds, (n, twists)
                try:
                    assert kpr(tab, rank, n).holds, (n, twists)
                except InapplicableError:
                    pass

            omega = table(
                VirtualSheaf.from_pairs(n, [(CotangentPower(1, 0), 1)]), -2 * n - 4, n + 4
            )
            v = horrocks(omega)
            assert not v.holds
            assert (1, 0, DimValue(1, 1)) in v.witnesses

            tangent = table(tangent_sheaf(n), -2 * n - 4, n + 4)
            v = horrocks(tangent)
            assert not v.holds
            assert (n - 1, -n - 1, DimValue(1, 1)) in v.witnesses


def test_05_split_tangent_ideal_vanishing():
    # For split tangent data the chase must certify the intermediate ideal
    # cohomology vanishes outright: empty windows, no undetermined entries.
    with criterion(5, "chase certifies h^p(I_Z(q)) = 0 for 1 <= p <= r-1"):
        cases = 0
        for r in (2, 3, 4):
            for n in range(r + 1, 8):
                for twists in combinations_with_replacement(range(-4, 0), r):
                    tab = tangent_ideal_table(SplitBundle(n, twists), n)
                    for p in range(1, r):
                        w = tab.window(p)
                        assert w is not None and w.empty, (r, n, twists, p)
                        for t in range(-12, 13):
                            v = tab.value(p, t)
                            assert v == DimValue(0, 0), (r, n, twists, p, t)
                    cases += 1
        assert cases == sum(
            comb(4 + r - 1, r) * max(0, 7 - r) for r in (2, 3, 4)
        )


def test_06_rank_two_pfaff_single_peak():
    # E = O(-2)^(n-2), r = 2: one exact unit of h^2 at t = -c-n-1 and
    # nothing else between the ends; Buchsbaum numerically, never ACM.
    with criterion(6, "rank-2 split Pfaff data has a single exact h^2 unit"):
        for n in (5, 6, 7):
            E = SplitBundle(n, (-2,) * (n - 2))
            c = E.c1
            spike = -c - n - 1
            tab = pfaff_ideal_table(E, 2, n)

            w1 = tab.window(1)
            assert w1 is not None and w1.empty
            for p in range(3, n - 2):
                wp = tab.window(p)
                assert wp is not None and wp.empty, (n, p)
            assert tab.window(2) == Window(spike, spike)
            assert tab.value(2, spike) == DimValue(1, 1)
            assert tab.value(2, spike) == DimValue.exact(
                sheaf_h(VirtualSheaf.from_pairs(n, [(CotangentPower(2, 0), 1)]), 2, 0)
            )
            for t in range(spike - 6, spike + 7):
                if t != spike:
                    assert tab.value(2, t) == DimValue(0, 0)

            assert buchsbaum_numeric(tab).holds
            acm = acm_check(tab)
            assert acm.decision == "fails"
            assert (2, spike, DimValue(1, 1)) in acm.witnesses


def test_07_buchsbaum_gap_clause():
    # On P^7 with r = 3 the verdict must degrade exactly through the
    # numeric gap machinery: generator degree 1 trips the violated gap
    # condition, adjacent degrees leave consecutive twists uncertifiable,
    # and the even, well-separated case stays clean.
    with criterion(7, "gap clause controls the rank-3 Buchsbaum verdict"):
        def verdict_for(degrees):
            twists = tuple(-d - 2 for d in degrees)
            return buchsbaum_numeric(pfaff_ideal_table(SplitBundle(7, twists), 3, 7))

        clean = verdict_for((2, 2, 2, 2))
        assert clean.holds
        assert "gap condition holds" in clean.certificate

        unit = verdict_for((1, 3, 3, 3))
        assert unit.decision == "fails"
        assert "gap condition violated" in unit.certificate
        assert (1, 13, DimValue(1, 1)) in unit.witnesses
        assert (3, 10, DimValue(1, 1)) in unit.witnesses

        adjacent = verdict_for((2, 3, 2, 3))
        assert adjacent.decision == "undetermined"
        assert "consecutive twists 14, 15" in adjacent.certificate
        assert (1, 14, DimValue(2, 2)) in adjacent.witnesses


def test_08_beilinson_tightness():
    with criterion(8, "Beilinson bound is tight on tangent tables"):
        for n in (4, 5, 6):
            tab = table(tangent_sheaf(n), -n - 2, -1)
            assert beilinson_rank_bound(tab, n) == n
            assert tab.value(n - 1, -n - 1) == DimValue(1, 1)
            assert beilinson_rank_bound(tab, n) > n - 1
            assert not beilinson_rank_bound(tab, n) > n


def test_09_hilbert_profile_units():
    with criterion(9, "Hilbert profiles stabilize to the known polynomials"):
        quad = GradedIdeal(
            4,
            (
                HomogeneousPoly.monomial(4, (1, 0, 1, 0)),
                HomogeneousPoly.monomial(4, (1, 0, 0, 1)),
                HomogeneousPoly.monomial(4, (0, 1, 1, 0)),
                HomogeneousPoly.monomial(4, (0, 1, 0, 1)),
            ),
        )
        profile = hilbert_profile(quad)
        assert (profile.scheme_dim, profile.scheme_deg) == (1, 2)
        assert profile.polynomial == (Fraction(2), Fraction(2))
        assert profile.stable_from <= 3

        line = GradedIdeal(
            4,
            (
                HomogeneousPoly.variable(4, 0),
                HomogeneousPoly.variable(4, 1),
            ),
        )
        profile = hilbert_profile(line)
        assert (profile.scheme_dim, profile.scheme_deg) == (1, 1)
        assert profile.polynomial == (Fraction(1), Fraction(1))


def test_10_regularity_bound():
    # Globally generated split tangent data: the ideal table from the
    # chase is (d + k + 1)-regular.
    with criterion(10, "regularity of chased ideal tables is at most d+k+1"):
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
            assert min(twists) >= 0
            tab = tangent_ideal_table(F, n)
            assert regularity(tab) <= d + k + 1, (n, twists)
