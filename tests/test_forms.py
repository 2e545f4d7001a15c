"""Form algebra tests: exterior identities on randomized small forms,
the worked two-quadric fixture, contraction-chain closure, ideal
extraction, and the text grammar round trip."""

import random
import warnings
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from singscheme import forms
from singscheme.chow import MAX_LITERAL_DIGITS, read_number
from singscheme.forms import (
    FormParseError,
    GradedIdeal,
    HomogeneousPoly,
    PolyKForm,
    PolyVectorField,
    coefficient_ideal,
    constant_field,
    contract,
    distribution_degree_of_form,
    form_str,
    minors_ideal,
    parse_form,
    parse_poly,
    poly_str,
    pullback_form,
    radial_field,
    volume_contract_chain,
    volume_form,
    wedge,
)


def z(nvars, i):
    return HomogeneousPoly.variable(nvars, i)


def one_form(nvars, coeffs):
    """coeffs: index -> poly."""
    return PolyKForm.from_dict(nvars, 1, {(i,): p for i, p in coeffs.items()})


def two_lines_pair(nvars=4):
    w1 = one_form(nvars, {0: -z(nvars, 1), 1: z(nvars, 0)})
    w2 = one_form(nvars, {2: -z(nvars, 3), 3: z(nvars, 2)})
    return w1, w2


def random_poly(rng, nvars, degree):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        expo = [0] * nvars
        for _ in range(degree):
            expo[rng.randrange(nvars)] += 1
        coeffs[tuple(expo)] = Fraction(rng.randint(-3, 3))
    return HomogeneousPoly.from_dict(nvars, coeffs)


def random_form(rng, nvars, k, degree):
    from itertools import combinations

    pool = list(combinations(range(nvars), k))
    coeffs = {}
    for idx in rng.sample(pool, min(len(pool), rng.randint(1, 3))):
        coeffs[idx] = random_poly(rng, nvars, degree)
    return PolyKForm.from_dict(nvars, k, coeffs)


def random_field(rng, nvars, degree):
    comps = tuple(random_poly(rng, nvars, degree) for _ in range(nvars))
    return PolyVectorField(nvars, comps)


def cofactor_det(matrix, nvars):
    """Determinant of a square matrix of polynomials, by cofactor expansion
    along the first column: the reference that minors_ideal is checked
    against."""
    if len(matrix) == 1:
        return matrix[0][0]
    acc = HomogeneousPoly.zero(nvars)
    for i, row in enumerate(matrix):
        minor = [r[1:] for j, r in enumerate(matrix) if j != i]
        term = row[0] * cofactor_det(minor, nvars)
        acc = acc + (term if i % 2 == 0 else -term)
    return acc


def reference_minors(one_forms):
    """Nonzero maximal minors of the coefficient matrix, content-normalized
    and deduplicated, with the rows taken in lexicographic order."""
    from itertools import combinations

    nvars = one_forms[0].nvars
    out = []
    for rows in combinations(range(nvars), len(one_forms)):
        matrix = [[f.coefficient((r,)) for f in one_forms] for r in rows]
        d = cofactor_det(matrix, nvars)
        if not d.is_zero and d.content_normalized() not in out:
            out.append(d.content_normalized())
    return tuple(out)


class TestPoly:
    def test_ring_operations(self):
        p = z(3, 0) + z(3, 1)
        q = z(3, 0) - z(3, 1)
        assert p * q == z(3, 0) * z(3, 0) - z(3, 1) * z(3, 1)
        assert (p - p).is_zero
        assert (2 * p).terms[0][1] == 2
        assert p.degree == 1 and (p * q).degree == 2

    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            HomogeneousPoly.from_dict(2, {(1, 0): 1, (2, 0): 1})
        with pytest.raises(ValueError):
            z(2, 0) + HomogeneousPoly.constant(2, 1)

    def test_zero_canonical(self):
        p = HomogeneousPoly.from_dict(2, {(1, 0): 1, (1, 0): 0})
        q = z(2, 0) - z(2, 0)
        assert q.is_zero and q.degree == -1
        assert q == HomogeneousPoly.zero(2)

    def test_content_normalization(self):
        p = HomogeneousPoly.from_dict(2, {(1, 0): Fraction(-2, 3), (0, 1): Fraction(-4, 3)})
        g = p.content_normalized()
        assert g == HomogeneousPoly.from_dict(2, {(1, 0): 1, (0, 1): 2})


# The tuple-key/Fraction kernel the packed one replaced, kept as the
# reference: a polynomial is {exponent tuple: nonzero Fraction}.
def ref_poly(pairs):
    out = {}
    for expo, c in pairs:
        out[tuple(expo)] = out.get(tuple(expo), Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    return ref_poly(
        (tuple(x + y for x, y in zip(e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items()
    )


def ref_terms(a):
    return tuple(sorted(a.items(), reverse=True))


def ref_content_normalized(a):
    if not a:
        return a
    num = gcd(*(c.numerator for c in a.values()))
    den = lcm(*(c.denominator for c in a.values()))
    scale = Fraction(den, num) * (-1 if ref_terms(a)[0][1] < 0 else 1)
    return {e: c * scale for e, c in a.items()}


def random_pairs(rng, nvars, degree):
    """Up to six (exponent, coefficient) pairs of one degree, repeats and
    zeros allowed; about a third of the coefficients are p/q fractions."""
    pairs = []
    for _ in range(rng.randint(0, 6)):
        expo = [0] * nvars
        for _ in range(degree):
            expo[rng.randrange(nvars)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.35 else rng.randint(-3, 3)
        pairs.append((tuple(expo), c))
    return pairs


class TestReferenceKernel:
    def test_arithmetic_matches_reference(self):
        rng = random.Random(2610)
        for _ in range(400):
            nvars = rng.randint(1, 6)
            da, db = rng.randint(0, 4), rng.randint(0, 4)
            pa, pb, pc = random_pairs(rng, nvars, da), random_pairs(rng, nvars, db), random_pairs(rng, nvars, da)
            a, b, c = (HomogeneousPoly.from_dict(nvars, p) for p in (pa, pb, pc))
            ra, rb, rc = ref_poly(pa), ref_poly(pb), ref_poly(pc)
            k = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))])
            cases = [
                (a, ra),
                (a + c, ref_poly(list(ra.items()) + list(rc.items()))),
                (a - c, ref_poly(list(ra.items()) + [(e, -v) for e, v in rc.items()])),
                (-a, {e: -v for e, v in ra.items()}),
                (a * b, ref_mul(ra, rb)),
                (a * k, ref_poly((e, v * k) for e, v in ra.items())),
                (k * a, ref_poly((e, v * k) for e, v in ra.items())),
                (a.content_normalized(), ref_content_normalized(ra)),
            ]
            for got, want in cases:
                assert got.terms == ref_terms(want)
                assert got.degree == (sum(next(iter(want))) if want else -1)
                assert got.is_zero == (not want)
                assert got == HomogeneousPoly.from_dict(nvars, want)
                # an integral coefficient is stored as int, any other as Fraction
                assert all((type(v) is int) == (Fraction(v).denominator == 1) for _, v in got.terms)

    def test_terms_order_is_lex_descending(self):
        p = HomogeneousPoly.from_dict(3, {(0, 0, 2): 1, (1, 1, 0): 2, (0, 2, 0): 3, (2, 0, 0): 4, (1, 0, 1): 5})
        assert [e for e, _ in p.terms] == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)]

    def test_integral_fraction_meets_int(self):
        two = HomogeneousPoly.from_dict(3, {(1, 0, 0): Fraction(2, 1)})
        also_two = HomogeneousPoly.from_dict(3, {(1, 0, 0): 2})
        halves = z(3, 0) * Fraction(1, 2)
        assert two == also_two and hash(two) == hash(also_two)
        assert halves + halves == z(3, 0) and hash(halves + halves) == hash(z(3, 0))
        assert two * Fraction(1, 2) == z(3, 0)
        assert {two, also_two, halves * 4} == {also_two}
        assert type((halves * 2).terms[0][1]) is int

    def test_rejections_match_reference(self):
        with pytest.raises(ValueError, match=r"bad exponent vector \(1, 0\) for 3 variables"):
            HomogeneousPoly.from_dict(3, {(1, 0): 1})
        with pytest.raises(ValueError, match="bad exponent vector"):
            HomogeneousPoly.from_dict(2, [((2, -1), 1)])
        with pytest.raises(ValueError, match=r"not homogeneous: degrees \[1, 2\]"):
            HomogeneousPoly.from_dict(2, [((1, 0), 1), ((1, 1), Fraction(1, 2))])
        with pytest.raises(ValueError, match=r"not homogeneous: degrees \[1, 2\]"):
            z(2, 0) + z(2, 0) * z(2, 1)
        with pytest.raises(ValueError, match="different variable counts"):
            z(2, 0) + z(3, 0)
        with pytest.raises(ValueError, match="different variable counts"):
            z(2, 0) * z(3, 0)
        with pytest.raises(ValueError, match="coefficient in wrong ring"):
            PolyKForm.from_dict(3, 1, {(0,): z(2, 0)})
        # a zero coefficient is dropped before its exponent is looked at
        assert HomogeneousPoly.from_dict(2, {(1, 0, 5): 0}).is_zero
        # terms at one index tuple merge, and cancel, before their degrees are compared
        w = PolyKForm.from_dict(2, 1, [((0,), z(2, 0)), ((0,), z(2, 1) * z(2, 1)), ((0,), -z(2, 1) * z(2, 1))])
        assert w.coefficient((0,)) == z(2, 0)


class TestDegreeCap:
    def test_cap_is_enforced_before_building(self):
        top = HomogeneousPoly.monomial(2, (forms.MAX_DEGREE, 0))
        assert top.degree == forms.MAX_DEGREE
        with pytest.raises(ValueError, match="exceeds the cap"):
            HomogeneousPoly.monomial(2, (forms.MAX_DEGREE, 1))
        with pytest.raises(ValueError, match="exceeds the cap"):
            HomogeneousPoly.monomial(2, (10**12, 0))
        with pytest.raises(ValueError, match="exceeds the cap"):
            top * z(2, 1)
        assert (top * 3).degree == forms.MAX_DEGREE

    def test_parser_power_cap(self):
        assert parse_poly(f"z1^{forms.MAX_DEGREE}", 2) == HomogeneousPoly.monomial(2, (0, forms.MAX_DEGREE))
        assert parse_poly("z1^0003 z0", 2) == parse_poly("z0 z1^3", 2)
        with pytest.raises(FormParseError, match="power 100000000 exceeds the degree cap"):
            parse_form("z0^100000000 dz1 - z1^100000000 dz0", 2)
        with pytest.raises(ValueError, match="exceeds the cap"):
            parse_form(f"z0^{forms.MAX_DEGREE} z1 dz0", 2)

    def test_no_packed_field_carries(self):
        # the cap keeps each exponent below the guard bit of its field
        assert forms.MAX_DEGREE < 1 << (forms.FIELD_BITS - 1)
        p = HomogeneousPoly.monomial(3, (0, forms.MAX_DEGREE - 1, 0)) * z(3, 1)
        assert p.terms == (((0, forms.MAX_DEGREE, 0), 1),)


def dense(nvars, degree):
    return HomogeneousPoly.from_dict(nvars, {e: 1 for e in forms.monomials(nvars, degree)})


class TestVariableCap:
    def test_parser_rejects_a_ring_over_the_cap(self):
        top = forms.MAX_VARIABLES - 1
        form = parse_form(f"z{top} dz0 - z0 dz{top}", forms.MAX_VARIABLES)
        assert form.nvars == forms.MAX_VARIABLES
        with pytest.raises(ValueError, match=f"{forms.MAX_VARIABLES + 1} variables exceed the cap"):
            parse_form("z0 dz1 - z1 dz0", forms.MAX_VARIABLES + 1)
        with pytest.raises(ValueError, match="exceed the cap"):
            parse_poly("z0", 10**9)

    def test_parser_rejects_an_index_with_too_many_digits(self):
        # a 5,000-digit index is refused on its digit count, before int()
        # would hit the interpreter's 4300-digit conversion limit
        huge = "1" * 5000
        message = f"a variable index of 5000 digits exceeds the cap of {forms.MAX_VARIABLES} variables"
        for text in (f"z{huge} dz0 - z0 dz1", f"z1 dz{huge} - z0 dz1"):
            with pytest.raises(ValueError) as exc:
                parse_form(text, 4)
            assert str(exc.value) == message
        with pytest.raises(ValueError, match=f"^{message}$"):
            forms.variable_index(huge)
        assert forms.variable_index("0" * 5000 + "7") == 7
        assert forms.variable_index(str(forms.MAX_VARIABLES)) == forms.MAX_VARIABLES

    def test_parser_rejects_a_coefficient_with_too_many_digits(self):
        # refused on its digit count, before int() or Fraction() would hit
        # the interpreter's own conversion limit; the digits are not echoed
        huge = "1" * 5000
        cases = {
            f"{huge} z0 dz1 - z1 dz0": "a coefficient of 5000 digits",
            f"{huge}/3 z0 dz1 - z1 dz0": "a coefficient of 5000 digits",
            f"z0 dz1 - 3/{huge} z1 dz0": "a coefficient of 5000 digits",
        }
        for text, what in cases.items():
            with pytest.raises(ValueError) as exc:
                parse_form(text, 2)
            assert str(exc.value) == f"{what} exceeds the cap of {MAX_LITERAL_DIGITS} digits"

    def test_a_4000_digit_coefficient_still_parses(self):
        c = "1" * 4000
        assert form_str(parse_form(f"{c} z0 dz1 - z1 dz0", 2)) == f"-z1 dz0 + {c}*z0 dz1"
        assert form_str(parse_form(f"{c}/3 z0 dz1 - z1 dz0", 2)) == f"-z1 dz0 + {c}/3*z0 dz1"

    def test_read_number_counts_digits_as_written_without_the_sign(self):
        top = "9" * MAX_LITERAL_DIGITS
        assert read_number("-" + top, "a twist") == -int(top)
        for text in ("-" + top + "9", "0" + top):
            with pytest.raises(ValueError, match=f"^a twist of {MAX_LITERAL_DIGITS + 1} digits exceeds"):
                read_number(text, "a twist")

    def test_pullback_rejects_a_ring_over_the_cap(self):
        with pytest.raises(ValueError, match=f"{forms.MAX_VARIABLES + 1} variables exceed the cap"):
            pullback_form(forms.MAX_VARIABLES, (1,), 0)
        with pytest.raises(ValueError, match="exceed the cap"):
            pullback_form(10**9, (1, 0), 0)


class TestTermCap:
    def test_product_over_the_cap_is_rejected_before_building(self):
        # 1540 x 1540 products, landing in the C(25, 19) = 177,100 sextics
        # of 20 variables
        cubic = dense(20, 3)
        with pytest.raises(ValueError, match=f"product of 1540- and 1540-term polynomials exceeds the cap of {forms.MAX_TERMS} terms"):
            cubic * cubic

    def test_long_factors_with_a_small_product_pass(self):
        # 210 x 1540 products, but only C(24, 19) = 42,504 quintics
        assert len(dense(20, 2).packed) * len(dense(20, 3).packed) > forms.MAX_TERMS
        assert len((dense(20, 2) * dense(20, 3)).packed) == 42_504
        # two variables: at most degree + 1 terms, however long the factors
        a = dense(2, 500)
        assert len((a * a).packed) == 1001

    def test_dense_pullback_field_over_the_cap(self):
        with pytest.raises(ValueError, match="dense degree-1000000 field on 7 variables exceeds the cap"):
            pullback_form(6, (1_000_000,), 0)
        # one constant field leaves 6 variables: C(29, 5) = 118,755 sextic terms
        with pytest.raises(ValueError, match="dense degree-24 field on 6 variables exceeds the cap"):
            pullback_form(6, (24, 0), 0)


class TestWedge:
    def test_basis_product(self):
        nvars = 4
        a = one_form(nvars, {0: HomogeneousPoly.constant(nvars, 1)})
        b = one_form(nvars, {1: HomogeneousPoly.constant(nvars, 1)})
        ab = wedge(a, b)
        assert ab.coeffs == (((0, 1), HomogeneousPoly.constant(nvars, 1)),)
        assert wedge(b, a) == -ab

    def test_one_form_squares_to_zero(self):
        rng = random.Random(11)
        for _ in range(50):
            w = random_form(rng, 4, 1, 1)
            assert wedge(w, w).is_zero

    def test_graded_antisymmetry(self):
        rng = random.Random(12)
        for _ in range(60):
            nvars = rng.randint(3, 5)
            ka = rng.randint(1, 2)
            kb = rng.randint(1, nvars - ka)
            a = random_form(rng, nvars, ka, rng.randint(0, 2))
            b = random_form(rng, nvars, kb, rng.randint(0, 2))
            lhs = wedge(a, b)
            rhs = wedge(b, a).scale((-1) ** (ka * kb))
            assert lhs == rhs

    def test_bilinear(self):
        rng = random.Random(13)
        for _ in range(40):
            nvars = 4
            a = random_form(rng, nvars, 1, 1)
            b = random_form(rng, nvars, 1, 1)
            c = random_form(rng, nvars, 2, 1)
            assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)

    def test_degree_gate(self):
        nvars = 3
        a = random_form(random.Random(1), nvars, 2, 0)
        with pytest.raises(ValueError):
            wedge(a, a)

    def test_two_lines_quadric_wedge(self):
        w1, w2 = two_lines_pair()
        w = wedge(w1, w2)
        expected = parse_form(
            "z0*z2 dz1^dz3 - z0*z3 dz1^dz2 - z1*z2 dz0^dz3 + z1*z3 dz0^dz2", 4
        )
        assert w == expected


class TestContract:
    def test_radial_on_basis(self):
        nvars = 4
        form = PolyKForm.from_dict(nvars, 2, {(0, 1): HomogeneousPoly.constant(nvars, 1)})
        got = contract(form, radial_field(nvars))
        assert got == one_form(nvars, {0: -z(nvars, 1), 1: z(nvars, 0)})

    def test_radial_kills_two_lines_form(self):
        w1, w2 = two_lines_pair()
        w = wedge(w1, w2)
        assert contract(w, radial_field(4)).is_zero

    def test_double_contraction_vanishes(self):
        rng = random.Random(14)
        for _ in range(60):
            nvars = rng.randint(3, 5)
            k = rng.randint(2, nvars)
            form = random_form(rng, nvars, k, rng.randint(0, 2))
            x = random_field(rng, nvars, rng.randint(0, 2))
            assert contract(contract(form, x), x).is_zero

    def test_contraction_leibniz(self):
        rng = random.Random(15)
        for _ in range(60):
            nvars = rng.randint(3, 5)
            ka = rng.randint(1, 2)
            kb = rng.randint(1, nvars - ka)
            a = random_form(rng, nvars, ka, rng.randint(0, 1))
            b = random_form(rng, nvars, kb, rng.randint(0, 1))
            x = random_field(rng, nvars, rng.randint(0, 1))
            lhs = contract(wedge(a, b), x)
            rhs = wedge(contract(a, x), b) + wedge(a, contract(b, x)).scale(
                (-1) ** ka
            )
            assert lhs == rhs

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            contract(PolyKForm.zero(3, 0), radial_field(3))


class TestContractionChain:
    def test_no_fields_gives_radial_volume_contraction(self):
        nvars = 4
        got = volume_contract_chain(3, [])
        assert got == contract(volume_form(nvars), radial_field(nvars))
        ideal = coefficient_ideal(got)
        assert set(ideal.generators) == {z(nvars, i) for i in range(nvars)}

    def test_constant_direction_is_eliminated(self):
        # One constant field along z4 plus a linear field: the output
        # 2-form is killed by both, so no dz4 appears.
        nvars = 5
        rng = random.Random(16)
        x = random_field(rng, nvars, 1)
        zfield = constant_field(nvars, (0, 0, 0, 0, 1))
        out = volume_contract_chain(4, [x, zfield])
        assert out.k == 2
        assert contract(out, zfield).is_zero
        assert all(4 not in idx for idx, _ in out.coeffs)

    def test_coefficient_degree_bookkeeping(self):
        # constant extra fields: field degree d gives coefficients d+1
        rng = random.Random(17)
        for d in (0, 1, 2):
            nvars = 5
            x = random_field(rng, nvars, d)
            consts = [
                constant_field(nvars, tuple(int(i == j) for i in range(nvars)))
                for j in (3, 4)
            ]
            out = volume_contract_chain(4, [x, *consts])
            if not out.is_zero:
                assert out.poly_degree == d + 1

    def test_radial_closure_randomized(self):
        rng = random.Random(18)
        for _ in range(40):
            n = rng.randint(2, 5)
            nvars = n + 1
            count = rng.randint(0, min(2, n))
            fields = [random_field(rng, nvars, rng.randint(0, 2)) for _ in range(count)]
            out = volume_contract_chain(n, fields)
            if out.k >= 1 and not out.is_zero:
                assert contract(out, radial_field(nvars)).is_zero
                for f in fields:
                    assert contract(out, f).is_zero

    def test_too_many_fields(self):
        with pytest.raises(ValueError):
            volume_contract_chain(2, [radial_field(3)] * 3)


class TestPullbackForm:
    def test_same_seed_same_form(self):
        first = pullback_form(4, (1, 1, 0), 3)
        assert first == pullback_form(4, (1, 1, 0), 3)
        assert first.k == 1
        assert distribution_degree_of_form(first, 4) == 2
        assert contract(first, constant_field(5, (0, 0, 0, 0, 1))).is_zero

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pullback_form(3, (-1, 0), 0)

    @pytest.mark.parametrize("degrees", [(), (1, 0, 0)])
    def test_field_count(self, degrees):
        with pytest.raises(ValueError, match="between 1 and 2 fields on P\\^3"):
            pullback_form(3, degrees, 0)

    def test_degenerate_chain(self, monkeypatch):
        # Draws that make the one linear field on P^2 the radial field
        # itself, so the chain i_X i_R vol vanishes.
        draws = iter([1, 0, 0, 0, 1, 0, 0, 0, 1])
        rng = SimpleNamespace(randint=lambda lo, hi: next(draws))
        monkeypatch.setattr(forms, "random", SimpleNamespace(Random=lambda seed: rng))
        with pytest.raises(ValueError, match="degenerate chain"):
            pullback_form(2, (1,), 0)


class TestIdeals:
    def test_two_lines_coefficient_ideal(self):
        w1, w2 = two_lines_pair()
        ideal = coefficient_ideal(wedge(w1, w2))
        expected = {
            z(4, 0) * z(4, 2),
            z(4, 0) * z(4, 3),
            z(4, 1) * z(4, 2),
            z(4, 1) * z(4, 3),
        }
        assert set(ideal.generators) == expected

    def test_unit_ideal_from_constant_form(self):
        nvars = 4
        form = PolyKForm.from_dict(
            nvars, 2, {(0, 1): HomogeneousPoly.constant(nvars, 1)}
        )
        ideal = coefficient_ideal(form)
        assert ideal.generators == (HomogeneousPoly.constant(nvars, 1),)

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            coefficient_ideal(PolyKForm.zero(3, 1))

    def test_minors_single_form(self):
        w = one_form(4, {0: -z(4, 1), 1: z(4, 0)})
        ideal = minors_ideal([w])
        assert set(ideal.generators) == {z(4, 0), z(4, 1)}

    def test_minors_match_wedge_coefficients(self):
        w1, w2 = two_lines_pair()
        got = set(minors_ideal([w1, w2]).generators)
        want = set(coefficient_ideal(wedge(w1, w2)).generators)
        assert got == want

    def test_minors_match_cofactor_determinants(self):
        rng = random.Random(20)
        systems = []
        for n in range(2, 6):
            for m in range(1, n + 1):
                for _ in range(3):
                    systems.append(
                        [random_form(rng, n + 1, 1, rng.randint(0, 2)) for _ in range(m)]
                    )
        w1, w2 = two_lines_pair()
        systems += [[w1, w2, w1.scale(3)], [w2, PolyKForm.zero(4, 1)], [PolyKForm.zero(3, 1)]]
        degenerate = 0
        for fs in systems:
            want = reference_minors(fs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = minors_ideal(fs).generators
            assert got == want
            assert bool(caught) == (want == ())
            degenerate += want == ()
        assert 3 <= degenerate < len(systems)

    def test_dependent_pair_warns_and_gives_zero_ideal(self):
        w1, _ = two_lines_pair()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ideal = minors_ideal([w1, w1.scale(2)])
        assert ideal.generators == ()
        assert any("degenerate" in str(w.message) for w in caught)

    def test_minors_rejects_bad_input(self):
        w1, _ = two_lines_pair()
        with pytest.raises(ValueError):
            minors_ideal([])
        with pytest.raises(ValueError):
            minors_ideal([wedge(*two_lines_pair())])

    def test_graded_ideal_validation(self):
        with pytest.raises(ValueError):
            GradedIdeal(3, (HomogeneousPoly.zero(3),))


class TestDistributionDegree:
    def test_two_lines_form_has_degree_one(self):
        w1, w2 = two_lines_pair()
        assert distribution_degree_of_form(wedge(w1, w2), 3) == 1

    def test_radial_volume_contraction_degree_zero(self):
        out = volume_contract_chain(4, [])
        assert distribution_degree_of_form(out, 4) == 0

    def test_nonprojective_form_rejected(self):
        nvars = 3
        form = PolyKForm.from_dict(
            nvars, 2, {(0, 1): z(nvars, 0)}
        )
        with pytest.raises(ValueError, match="radial"):
            distribution_degree_of_form(form, 2)

    def test_dimension_mismatch(self):
        w1, w2 = two_lines_pair()
        with pytest.raises(ValueError):
            distribution_degree_of_form(wedge(w1, w2), 4)


class TestGrammar:
    def test_accepted_example(self):
        text = "z0*z2 dz1^dz3 - z0*z3 dz1^dz2 - z1*z2 dz0^dz3 + z1*z3 dz0^dz2"
        form = parse_form(text, 4)
        assert form == wedge(*two_lines_pair())

    def test_round_trip_is_bit_exact(self):
        rng = random.Random(19)
        for _ in range(80):
            nvars = rng.randint(3, 5)
            k = rng.randint(0, 3)
            if k > nvars:
                continue
            form = random_form(rng, nvars, k, rng.randint(0, 2))
            if form.is_zero:
                continue  # "0" does not carry k; only nonzero forms round-trip
            text = form_str(form)
            assert parse_form(text, nvars) == form
            assert form_str(parse_form(text, nvars)) == text

    def test_whitespace_and_star_insensitive(self):
        a = parse_form("z0 * z2dz1 ^ dz3", 4)
        b = parse_form("z0*z2 dz1^dz3", 4)
        assert a == b

    def test_unsorted_indices_normalize_with_sign(self):
        assert parse_form("dz3^dz1", 4) == parse_form("-dz1^dz3", 4)
        assert parse_form("z0 dz2^dz2", 4).is_zero

    def test_parenthesized_coefficients(self):
        form = parse_form("(z0+z1) dz2^dz3", 4)
        direct = PolyKForm.from_dict(4, 2, {(2, 3): z(4, 0) + z(4, 1)})
        assert form == direct
        assert parse_form(form_str(form), 4) == form

    def test_fractional_coefficients(self):
        form = parse_form("3/2*z0 dz1 - z1 dz0", 4)
        assert form.coefficient((1,)) == z(4, 0) * Fraction(3, 2)

    def test_half_coefficient_round_trip(self):
        form = PolyKForm.from_dict(4, 2, {
            (0, 1): z(4, 2) * Fraction(1, 2) - z(4, 3),
            (2, 3): z(4, 0) * Fraction(-1, 2),
        })
        text = form_str(form)
        assert text == "(1/2*z2 - z3) dz0^dz1 - 1/2*z0 dz2^dz3"
        assert parse_form(text, 4) == form
        assert form_str(parse_form(text, 4)) == text

    def test_powers(self):
        p = parse_poly("z0^2*z1 - 2*z2^3", 3)
        assert p == z(3, 0) * z(3, 0) * z(3, 1) - 2 * z(3, 2) * z(3, 2) * z(3, 2)

    def test_poly_str_round_trip(self):
        rng = random.Random(20)
        for _ in range(50):
            p = random_poly(rng, 4, rng.randint(0, 3))
            assert parse_poly(poly_str(p), 4) == p

    def test_errors(self):
        with pytest.raises(FormParseError):
            parse_form("", 3)
        with pytest.raises(FormParseError):
            parse_form("dz0^2", 3)
        with pytest.raises(FormParseError):
            parse_form("z0 dz1 + z1", 3)  # mixed degrees
        with pytest.raises(FormParseError):
            parse_form("z9 dz0", 3)
        with pytest.raises(FormParseError):
            parse_form("dz9", 3)
        with pytest.raises(FormParseError):
            parse_form("z0 @ dz1", 3)
        with pytest.raises(FormParseError):
            parse_form("(z0 dz1)", 3)
        with pytest.raises(FormParseError):
            parse_poly("z0 dz1", 3)
        with pytest.raises(FormParseError, match="zero denominator in 2/0"):
            parse_form("2/0 z0 dz1", 3)
