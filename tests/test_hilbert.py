"""Hilbert module tests.

The Groebner-basis oracle is checked against an independent one kept
here: Macaulay-matrix ranks per degree, with fraction-free integer
elimination that is itself checked against rational Gaussian elimination.
With sympy installed, the leading monomials are also checked against
sympy.groebner. The profile is checked against closed-form Hilbert counts
(Koszul for a complete intersection, direct monomial counts for the
two-lines ideal), and the cross-module invariants tie degrees computed
here to the intersection-theoretic predictions. The integer profile read
off the series numerator is checked against Newton interpolation of HF
and per-twist HF sums, kept here as the reference."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, gcd

import pytest

import singscheme
from singscheme.chow import pullback_degree
from singscheme.forms import (
    GradedIdeal,
    HomogeneousPoly,
    PolyKForm,
    PolyVectorField,
    coefficient_ideal,
    minors_ideal,
    monomials,
    parse_form,
    pullback_form,
    volume_contract_chain,
    wedge,
)
from singscheme.hilbert import (
    HilbertProfile,
    hilbert_function,
    hilbert_profile,
    leading_monomials,
    scheme_degree_dim,
)
from test_forms import parse_poly


def integer_matrix_rank(rows) -> int:
    """Rank of a sparse integer matrix given as dicts column -> value.

    Fraction-free: each incoming row is cross-multiplied against the pivot
    of its least unknocked column and content-stripped, so entries stay
    integral. Rows are consumed in order and pivots are chosen by least
    column index; the procedure is fully deterministic.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                rank += 1
                break
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            new = {}
            for c in set(row) | set(pivot):
                v = row.get(c, 0) * ma - pivot.get(c, 0) * mb
                if v:
                    new[c] = v
            if new:
                content = 0
                for v in new.values():
                    content = gcd(content, v)
                if content > 1:
                    new = {c: v // content for c, v in new.items()}
            row = new
    return rank


def graded_piece_dim(ideal: GradedIdeal, t: int) -> int:
    """dim of the degree-t graded piece of the ideal: the rank of the
    Macaulay matrix whose rows are the monomial multiples of the
    generators."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    nvars = ideal.nvars
    columns = {expo: i for i, expo in enumerate(monomials(nvars, t))}
    rows = []
    for gen in ideal.generators:
        g = gen.content_normalized()
        d = g.degree
        if d > t:
            continue
        for mult in monomials(nvars, t - d):
            row = {}
            for expo, coeff in g.terms:
                shifted = tuple(a + b for a, b in zip(expo, mult))
                row[columns[shifted]] = int(coeff)
            rows.append(row)
    return integer_matrix_rank(rows)


def two_lines_ideal():
    w1 = parse_form("z0 dz1 - z1 dz0", 4)
    w2 = parse_form("z2 dz3 - z3 dz2", 4)
    return coefficient_ideal(wedge(w1, w2))


def powers_ideal(d: int) -> GradedIdeal:
    """(z0^d, z1^d) in three variables: d^2 points in the plane."""
    gens = (HomogeneousPoly.monomial(3, (d, 0, 0)), HomogeneousPoly.monomial(3, (0, d, 0)))
    return GradedIdeal(3, gens)


def random_dense_field(rng, nvars, degree):
    comps = []
    for _ in range(nvars):
        coeffs = {}
        for combo in combinations_with_replacement(range(nvars), degree):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            coeffs[tuple(e)] = rng.randint(-4, 4)
        comps.append(HomogeneousPoly.from_dict(nvars, coeffs))
    return PolyVectorField(nvars, tuple(comps))


def random_projective_one_form(rng, nvars, coeff_degree=1, density=1.0):
    """Combination of m(z) * (z_i dz_j - z_j dz_i) with monomials m of
    degree coeff_degree - 1: annihilated by the radial field."""
    coeffs = {i: HomogeneousPoly.zero(nvars) for i in range(nvars)}
    for i in range(nvars):
        for j in range(i + 1, nvars):
            if rng.random() > density:
                continue
            c = rng.randint(-2, 2)
            if c == 0:
                continue
            mono = HomogeneousPoly.constant(nvars, c)
            for _ in range(coeff_degree - 1):
                mono = mono * HomogeneousPoly.variable(nvars, rng.randrange(nvars))
            coeffs[j] = coeffs[j] + mono * HomogeneousPoly.variable(nvars, i)
            coeffs[i] = coeffs[i] - mono * HomogeneousPoly.variable(nvars, j)
    return PolyKForm.from_dict(nvars, 1, {(i,): p for i, p in coeffs.items()})


class TestRank:
    def test_matches_rational_elimination(self):
        rng = random.Random(20240122)

        def oracle(rows, ncols):
            mat = [
                [Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows
            ]
            rank = 0
            for col in range(ncols):
                pivot = next(
                    (i for i in range(rank, len(mat)) if mat[i][col] != 0), None
                )
                if pivot is None:
                    continue
                mat[rank], mat[pivot] = mat[pivot], mat[rank]
                for i in range(len(mat)):
                    if i != rank and mat[i][col] != 0:
                        f = mat[i][col] / mat[rank][col]
                        mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
                rank += 1
            return rank

        for _ in range(400):
            nrows = rng.randint(1, 7)
            ncols = rng.randint(1, 8)
            rows = []
            for _ in range(nrows):
                row = {
                    c: rng.randint(-5, 5)
                    for c in range(ncols)
                    if rng.random() < 0.5
                }
                rows.append({c: v for c, v in row.items() if v})
            assert integer_matrix_rank(rows) == oracle(rows, ncols)

    def test_duplicate_and_scaled_rows(self):
        rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {0: 3, 2: 1}]
        assert integer_matrix_rank(rows) == 2


class TestGradedPiece:
    def test_zero_ideal(self):
        ideal = GradedIdeal(4, ())
        for t in range(5):
            assert graded_piece_dim(ideal, t) == 0

    def test_irrelevant_ideal_linear_piece(self):
        for nvars in (3, 4, 5):
            gens = tuple(HomogeneousPoly.variable(nvars, i) for i in range(nvars))
            assert graded_piece_dim(GradedIdeal(nvars, gens), 1) == nvars

    def test_two_lines_quadric_piece(self):
        assert graded_piece_dim(two_lines_ideal(), 2) == 4

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            graded_piece_dim(GradedIdeal(3, ()), -1)

    def test_hilbert_function_identity(self):
        ideal = two_lines_ideal()
        for t in range(6):
            assert hilbert_function(ideal, t) == comb(3 + t, 3) - graded_piece_dim(
                ideal, t
            )
            assert 0 <= hilbert_function(ideal, t) <= comb(3 + t, 3)


class TestProfile:
    def test_two_lines(self):
        prof = hilbert_profile(two_lines_ideal())
        assert prof.polynomial == (Fraction(2), Fraction(2))  # 2t + 2
        assert prof.stable_from == 1
        assert (prof.scheme_dim, prof.scheme_deg) == (1, 2)
        assert [prof.values[t] for t in range(5)] == [1, 4, 6, 8, 10]

    def test_complete_intersection_of_quadrics(self):
        q1 = parse_poly("z0*z1 - z2*z3", 4)
        q2 = parse_poly("z0*z2 - z1*z3", 4)
        ideal = GradedIdeal(4, (q1, q2))
        prof = hilbert_profile(ideal)
        assert prof.polynomial == (Fraction(0), Fraction(4))  # 4t
        assert (prof.scheme_dim, prof.scheme_deg) == (1, 4)

        def c3(m):
            return comb(m, 3) if m >= 3 else 0

        assert max(prof.values) == 7
        for t, v in prof.values.items():
            koszul = comb(t + 3, 3) - 2 * c3(t + 1) + c3(t - 1)
            assert v == koszul

    def test_unit_ideal_empty_scheme(self):
        ideal = GradedIdeal(3, (HomogeneousPoly.constant(3, 1),))
        prof = hilbert_profile(ideal)
        assert prof.polynomial == ()
        assert (prof.scheme_dim, prof.scheme_deg) == (-1, 0)

    def test_zero_ideal_whole_space(self):
        assert scheme_degree_dim(GradedIdeal(4, ())) == (3, 1)

    def test_line(self):
        ideal = GradedIdeal(
            4, (HomogeneousPoly.variable(4, 0), HomogeneousPoly.variable(4, 1))
        )
        assert scheme_degree_dim(ideal) == (1, 1)

    def test_two_lines_curve_dimensions(self):
        assert scheme_degree_dim(two_lines_ideal()) == (1, 2)

    @pytest.mark.parametrize("d", [30, 37])
    def test_high_degree_generator_below_cap(self, d):
        ideal = GradedIdeal(3, (HomogeneousPoly.monomial(3, (d, 0, 0)),))
        assert scheme_degree_dim(ideal) == (1, d)

    @pytest.mark.parametrize("d", [39, 45])
    def test_generator_degree_beyond_forty(self, d):
        # below t = d the ideal is empty and HF is the ambient polynomial;
        # the series sees the generator at any degree
        ideal = GradedIdeal(3, (HomogeneousPoly.monomial(3, (d, 0, 0)),))
        assert scheme_degree_dim(ideal) == (1, d)
        prof = hilbert_profile(ideal)
        assert prof.stable_from == d - 2
        assert max(prof.values) == 2 + 2 + d

    @pytest.mark.parametrize("d", range(2, 8))
    def test_complete_intersection_of_powers(self, d):
        assert scheme_degree_dim(powers_ideal(d)) == (0, d * d)

    def test_values_fitting_an_impossible_polynomial(self):
        # HF(6..9) = 22, 24, 25, 25 fits -t^2/2 + 17t/2 - 11 on the last
        # three twists; the profile still has the exact polynomial
        prof = hilbert_profile(powers_ideal(5))
        assert [prof.values[t] for t in (6, 7, 8, 9)] == [22, 24, 25, 25]
        assert prof.polynomial == (Fraction(25),)
        assert (prof.scheme_dim, prof.scheme_deg, prof.stable_from) == (0, 25, 8)

    def test_default_range(self):
        # n = 3 and generator degree 2: the range is [0, 7]
        assert sorted(hilbert_profile(two_lines_ideal()).values) == list(range(8))

    def test_default_range_reaches_past_stable_from(self):
        # n + 2 + 5 = 9 < stable_from + n + 1 = 11
        prof = hilbert_profile(powers_ideal(5))
        assert sorted(prof.values) == list(range(12))
        assert (prof.scheme_dim, prof.scheme_deg, prof.stable_from) == (0, 25, 8)

    def test_same_answers_without_asserts(self):
        code = (
            "from singscheme.forms import GradedIdeal, HomogeneousPoly as H\n"
            "from singscheme.hilbert import scheme_degree_dim\n"
            "print([scheme_degree_dim(GradedIdeal(3, (H.monomial(3, (d, 0, 0)),"
            " H.monomial(3, (0, d, 0))))) for d in range(2, 8)])\n"
        )
        root = os.path.dirname(os.path.dirname(singscheme.__file__))
        env = dict(os.environ, PYTHONPATH=root)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == str([(0, d * d) for d in range(2, 8)])

    def test_json_shape(self):
        prof = hilbert_profile(two_lines_ideal())
        data = prof.to_json()
        assert data["polynomial"] == ["2", "2"]
        assert data["dim"] == 1 and data["deg"] == 2
        assert data["stable_from"] == 1
        assert data["values"]["0"] == 1

    def test_two_lines_deficiency(self):
        # HP(0) = 2 but the two lines impose one condition in degree 0
        assert hilbert_profile(two_lines_ideal()).deficiency() == [(0, 1)]

    def test_deficiency_of_complete_intersection_of_powers(self):
        # (z0^5, z1^5) falls short of 25 at t = 0..7
        want = [(t, 25 - comb(t + 2, 2) + 2 * comb(max(t - 3, 0), 2)) for t in range(8)]
        assert hilbert_profile(powers_ideal(5)).deficiency() == want

    def test_zero_ideal(self):
        prof = hilbert_profile(GradedIdeal(3, ()))
        assert isinstance(prof, HilbertProfile)
        assert prof.values == {t: comb(t + 2, 2) for t in range(5)}  # full ring
        assert prof.polynomial == (Fraction(1), Fraction(3, 2), Fraction(1, 2))
        assert (prof.scheme_dim, prof.scheme_deg, prof.stable_from) == (2, 1, 0)


class TestCrossOracles:
    def test_fixed_point_counts_match_chow_prediction(self):
        # ideal of the 2-form i_X i_R Omega for dense random X of degree d:
        # isolated zeros counted by the same sum the pullback formula gives
        rng = random.Random(20240121)
        for d in (0, 1, 2):
            x = random_dense_field(rng, 4, d)
            form = volume_contract_chain(3, [x])
            ideal = coefficient_ideal(form)
            dim, deg = scheme_degree_dim(ideal)
            assert dim == 0
            assert deg == pullback_degree(3, 2, d)

    def test_decomposable_form_codimension_bound(self):
        # wedges of two projective 1-forms: cod(Sing) <= k+1 = 3
        rng = random.Random(20240123)
        done = 0
        while done < 10:
            a = random_projective_one_form(rng, 4, 1)
            b = random_projective_one_form(rng, 4, rng.choice([1, 2]))
            form = wedge(a, b)
            if form.is_zero:
                continue
            dim, deg = scheme_degree_dim(coefficient_ideal(form))
            assert 3 - dim <= 3
            assert deg >= 1
            done += 1
        done = 0
        while done < 4:
            a = random_projective_one_form(rng, 5, 1, density=0.35)
            b = random_projective_one_form(rng, 5, 1, density=0.35)
            form = wedge(a, b)
            if form.is_zero:
                continue
            dim, _ = scheme_degree_dim(coefficient_ideal(form))
            assert 4 - dim <= 3
            done += 1

    def test_minors_and_wedge_ideals_same_hilbert_function(self):
        rng = random.Random(20240124)
        done = 0
        while done < 6:
            a = random_projective_one_form(rng, 4)
            b = random_projective_one_form(rng, 4)
            w = wedge(a, b)
            if w.is_zero:
                continue
            mi = minors_ideal([a, b])
            ci = coefficient_ideal(w)
            # the series compares every twist; the Macaulay oracle the twists
            # up to the generator degree + 4
            assert hilbert_profile(mi).numerator == hilbert_profile(ci).numerator
            for t in range(max(ci.degrees) + 5):
                assert graded_piece_dim(mi, t) == graded_piece_dim(ci, t)
            done += 1


# the (n, field degrees) shapes of the bench's form-oracle pullbacks
ORACLE_SHAPES = (
    (3, (1, 0)), (3, (1, 1)), (3, (2, 0)),
    (4, (1, 0, 0)), (4, (1, 1, 0)), (4, (2, 0, 0)),
    (5, (1, 0, 0, 0)), (5, (2, 0, 0, 0)),
)


def random_ideal(rng, nvars):
    """One to four sparse homogeneous generators of degrees 1..3 with small
    integer coefficients."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(1, 3)
        monos = monomials(nvars, d)
        terms = {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in rng.sample(monos, min(len(monos), rng.randint(1, 4)))}
        gens.append(HomogeneousPoly.from_dict(nvars, terms))
    return GradedIdeal(nvars, tuple(gens))


def chain_ideal():
    """An ideal on P^3 whose basis needs the equal-lcm exceptions of the
    chain criterion: without them a pair is dropped and the leading
    monomial z2^2 z3^2 is missed (z2^2 z3^3 is found instead)."""
    gens = (
        {(1, 0, 2, 0): 1, (0, 1, 0, 2): -2},
        {(1, 0, 1, 0): 2, (0, 1, 0, 1): 3, (0, 0, 1, 1): 1},
        {(1, 1, 1, 0): -2, (1, 1, 0, 1): -3, (0, 0, 0, 3): 2},
    )
    return GradedIdeal(4, tuple(HomogeneousPoly.from_dict(4, g) for g in gens))


def oracle_ideals():
    rng = random.Random(20261018)
    out = [random_ideal(rng, rng.randint(3, 5)) for _ in range(40)] + [chain_ideal()]
    out += [coefficient_ideal(pullback_form(n, degrees, 0)) for n, degrees in ORACLE_SHAPES]
    return out + [powers_ideal(d) for d in range(2, 8)]


class TestGroebnerOracles:
    def test_series_matches_macaulay_ranks(self):
        for ideal in oracle_ideals():
            n = ideal.nvars - 1
            prof = hilbert_profile(ideal)
            for t in range(max(ideal.degrees) + 5):
                assert prof.values[t] == comb(n + t, n) - graded_piece_dim(ideal, t), (ideal, t)

    def test_monomial_ideals_match_direct_count(self):
        # the basis of a monomial ideal is its generators, so this checks
        # the series numerator on high exponents, where pivots x_i^k with
        # k > 1 occur
        rng = random.Random(20261019)
        for _ in range(40):
            nvars = rng.randint(3, 4)
            gens = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(1, 6))]
            gens = [g for g in gens if sum(g)] or [(1,) + (0,) * (nvars - 1)]
            ideal = GradedIdeal(nvars, tuple(HomogeneousPoly.monomial(nvars, g) for g in gens))
            prof = hilbert_profile(ideal)
            for t in range(max(ideal.degrees) + 5):
                v = prof.values[t]
                outside = [m for m in monomials(nvars, t) if not any(all(a <= b for a, b in zip(g, m)) for g in gens)]
                assert v == len(outside), (gens, t)

    def test_leading_monomials_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        for ideal in oracle_ideals():
            zs = sympy.symbols(f"z0:{ideal.nvars}")
            polys = [
                sum(int(c) * sympy.prod(z**e for z, e in zip(zs, expo)) for expo, c in g.content_normalized().terms)
                for g in ideal.generators
            ]
            basis = sympy.groebner(polys, *zs, order="grevlex")
            want = {sympy.Poly(g, *zs).monoms(order="grevlex")[0] for g in basis.exprs}
            assert set(leading_monomials(ideal)) == want


def reference_hf(num, n, t):
    """HF(t) = sum_j N_j C(t - j + n, n), summed afresh for each t."""
    return sum(c * comb(t - j + n, n) for j, c in enumerate(num[: t + 1]))


def newton_interpolate(ts, vals):
    """Newton interpolation; ascending Fraction coefficients, stripped."""
    m = len(ts)
    coef = [Fraction(v) for v in vals]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (ts[i] - ts[i - j])
    poly = [Fraction(0)] * m
    basis = [Fraction(1)]
    for i in range(m):
        for d, c in enumerate(basis):
            poly[d] += coef[i] * c
        nxt = [Fraction(0)] * (len(basis) + 1)
        for d, c in enumerate(basis):
            nxt[d] -= c * ts[i]
            nxt[d + 1] += c
        basis = nxt
    while poly and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def poly_eval(poly, t):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * t + c
    return acc


def reference_profile(num, n, t_max):
    """(polynomial, stable_from, dim, degree, values, deficiency): HP is
    interpolated through n+1 twists from deg N - n on, where HF = HP, and
    stable_from walks down from there while HP and HF agree."""
    start = max(0, len(num) - 1 - n)
    nodes = range(start, start + n + 1)
    poly = newton_interpolate(nodes, [reference_hf(num, n, t) for t in nodes])
    stable_from = start
    while stable_from > 0 and poly_eval(poly, stable_from - 1) == reference_hf(num, n, stable_from - 1):
        stable_from -= 1
    dim = len(poly) - 1
    deg = int(poly[-1] * factorial(dim)) if poly else 0
    values = {t: reference_hf(num, n, t) for t in range(t_max + 1)}
    gaps = [(t, poly_eval(poly, t) - reference_hf(num, n, t)) for t in range(stable_from)]
    return poly, stable_from, dim, deg, values, [(t, int(g)) for t, g in gaps if g > 0]


def random_monomial_ideal(rng, nvars):
    gens = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(1, 5))]
    gens = [g for g in gens if sum(g)] or [(0,) * (nvars - 1) + (2,)]
    return GradedIdeal(nvars, tuple(HomogeneousPoly.monomial(nvars, g) for g in gens))


def seven_points_ideal():
    zs = [HomogeneousPoly.variable(3, i) for i in range(3)]
    return coefficient_ideal(volume_contract_chain(2, [PolyVectorField(3, tuple(v * v for v in zs))]))


def profile_corpus():
    rng = random.Random(20261020)
    out = [random_monomial_ideal(rng, nvars) for nvars in (2, 3, 4, 5) for _ in range(25)]
    out += [coefficient_ideal(pullback_form(n, degrees, 0)) for n, degrees in ORACLE_SHAPES]
    out += [powers_ideal(d) for d in range(2, 8)]
    out += [
        GradedIdeal(3, (HomogeneousPoly.constant(3, 1),)),  # N = 0
        GradedIdeal(3, tuple(HomogeneousPoly.variable(3, i) for i in range(3))),  # finite length
        two_lines_ideal(),
        coefficient_ideal(parse_form("z1*z2 dz0 - 2*z0*z2 dz1 + z0*z1 dz2", 3)),
        seven_points_ideal(),
    ]
    return out


class TestIntegerProfile:
    def test_matches_interpolation_reference(self):
        dims, deficient = set(), 0
        for ideal in profile_corpus():
            prof = hilbert_profile(ideal)
            want = reference_profile(prof.numerator, ideal.nvars - 1, max(prof.values))
            got = (prof.polynomial, prof.stable_from, prof.scheme_dim, prof.scheme_deg, prof.values, prof.deficiency())
            assert got == want, ideal
            assert all(type(c) is Fraction for c in prof.polynomial)
            dims.add(prof.scheme_dim)
            deficient += bool(want[-1])
        assert dims == {-1, 0, 1, 2, 3} and deficient >= 10

    def test_hilbert_function_matches_reference(self):
        for ideal in profile_corpus()[::7]:
            num = hilbert_profile(ideal).numerator
            for t in (0, 1, 4, 11):
                assert hilbert_function(ideal, t) == reference_hf(num, ideal.nvars - 1, t)

    def test_codimension_two_plane_in_p300(self):
        prof = hilbert_profile(coefficient_ideal(parse_form("z300 dz0 - z0 dz300", 301)))
        assert (prof.scheme_dim, prof.scheme_deg, prof.stable_from) == (298, 1, 0)
        assert prof.numerator == (1, -2, 1)
        assert prof.deficiency() == []
        # S/(z0, z300) is a polynomial ring in 299 variables
        assert prof.values == {t: comb(t + 298, 298) for t in range(len(prof.values))}
        assert prof.polynomial[-1] == Fraction(1, factorial(298))
        for t in (-298, -150, -1, 0, 1, 7, 400):
            assert poly_eval(prof.polynomial, t) == (comb(t + 298, 298) if t >= 0 else 0)

    def test_degree_999_plane_curve(self):
        # (z0^999, z0^998 z1): the curve z0^998 = 0 with an embedded point
        prof = hilbert_profile(coefficient_ideal(parse_form("z0^999 dz1 - z1*z0^998 dz0", 3)))
        assert (prof.scheme_dim, prof.scheme_deg, prof.stable_from) == (1, 998, 998)
        assert prof.polynomial == (Fraction(-496504), Fraction(998))
        assert prof.deficiency() == [(996, 1), (997, 1)]
        assert max(prof.values) == 1003
        assert [prof.values[t] for t in (0, 997, 998, 1003)] == [1, 498501, 499500, 504490]

    def test_fractional_generators_keep_their_leading_monomials(self):
        rng = random.Random(20261021)
        for ideal in oracle_ideals()[::3]:
            scaled = tuple(g * Fraction(rng.choice((-5, -1, 2, 7)), rng.choice((3, 4, 9))) for g in ideal.generators)
            assert leading_monomials(GradedIdeal(ideal.nvars, scaled)) == leading_monomials(ideal)


def test_hilbert_function_refuses_a_negative_degree():
    ideal = GradedIdeal(3, (HomogeneousPoly.variable(3, 0),))
    with pytest.raises(ValueError) as exc:
        hilbert_function(ideal, -1)
    assert str(exc.value) == "degree must be nonnegative"
