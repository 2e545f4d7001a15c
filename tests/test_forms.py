"""Form algebra tests: exterior identities on randomized small forms,
the worked two-quadric fixture, contraction-chain closure, ideal
extraction, and the text grammar round trip."""

import json
import random
import re
import sys
import warnings
from array import array
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path
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
    form_str,
    minors_ideal,
    parse_form,
    poly_str,
    pullback_form,
    radial_field,
    radial_form_degree,
    volume_contract_chain,
    volume_form,
    wedge,
)


def z(nvars, i):
    return HomogeneousPoly.variable(nvars, i)


def parse_poly(text, nvars):
    """The polynomial that text spells, read as a 0-form."""
    return parse_form(text, nvars).coefficient(())


def scale(form, c):
    """The form c * form."""
    return PolyKForm.from_dict(form.nvars, form.k, [(i, p * c) for i, p in form.coeffs])


def zero_form(nvars, k):
    return PolyKForm.from_dict(nvars, k, {})


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


def high_pairs(rng, nvars, degree):
    """Up to five (exponent, coefficient) pairs of one degree >= 256, each
    exponent vector with an entry of 256 or more, so that every exponent
    spills past one byte; about half the coefficients are p/q fractions."""
    pairs = []
    for _ in range(rng.randint(1, 5)):
        expo = [0] * nvars
        expo[rng.randrange(nvars)] = rng.randint(256, degree)
        for _ in range(degree - sum(expo)):
            expo[rng.randrange(nvars)] += 1
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5 else rng.randint(-9, 9)
        pairs.append((tuple(expo), c))
    return pairs


class TestPackedExponents:
    def test_field_is_one_unsigned_short(self):
        # unpack_monomial reads the packed int's bytes as unsigned shorts
        assert forms.FIELD_BITS == 8 * array("H").itemsize == 16
        for i in range(5):
            assert forms.unpack_monomial(1 << (forms.FIELD_BITS * i), 5) == tuple(int(j == i) for j in range(5))
        assert forms.unpack_monomial((1 << forms.FIELD_BITS) - 1 + (7 << forms.FIELD_BITS), 2) == (65535, 7)
        assert forms.unpack_monomial(0, 3) == (0, 0, 0)

    def test_unpack_inverts_pack_in_every_ring(self):
        # entries up to MAX_DEGREE, many of 256 or more: a slip in byte
        # order or field width moves them into a neighbouring field
        rng = random.Random(3030)
        choices = (0, 1, 255, 256, 257, 511, forms.MAX_DEGREE)
        for nvars in range(1, forms.MAX_VARIABLES + 1):
            expo = tuple(rng.choice(choices) if rng.random() < 0.5 else rng.randint(0, forms.MAX_DEGREE) for _ in range(nvars))
            assert forms.unpack_monomial(forms.pack_monomial(expo), nvars) == expo

    def test_terms_and_leading_monomial_match_the_tuple_reference(self):
        rng = random.Random(3031)
        for _ in range(300):
            nvars = rng.randint(1, 7)
            pairs = high_pairs(rng, nvars, rng.randint(256, forms.MAX_DEGREE))
            p, ref = HomogeneousPoly.from_dict(nvars, pairs), ref_poly(pairs)
            assert p.terms == ref_terms(ref)
            normalized = p.content_normalized()
            assert normalized.terms == ref_terms(ref_content_normalized(ref))
            if ref:
                # the lex-leading coefficient is the positive one
                assert normalized.terms[0][0] == max(ref) and normalized.terms[0][1] > 0


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

    def test_parser_caps_the_written_degree_whatever_the_coefficient(self):
        # a zero coefficient does not waive the cap, wherever it is written
        message = f"polynomial degree {forms.MAX_DEGREE + 1} exceeds the cap of {forms.MAX_DEGREE}"
        for text in (
            f"0 z0^{forms.MAX_DEGREE} z1 dz0 + z1 dz0",
            f"z0^{forms.MAX_DEGREE} z1 0 dz0",
            f"z0^{forms.MAX_DEGREE} 0 z1 dz0",
            f"0 z0^{forms.MAX_DEGREE - 1} (z0 + z1) z1 dz0",
        ):
            with pytest.raises(ValueError) as exc:
                parse_form(text, 2)
            assert str(exc.value) == message
        assert parse_form(f"0 z0^{forms.MAX_DEGREE} dz0 + z1 dz0", 2) == parse_form("z1 dz0", 2)

    def test_contract_checks_the_degree_before_building(self):
        top = PolyKForm.from_dict(2, 1, {(0,): HomogeneousPoly.monomial(2, (forms.MAX_DEGREE, 0))})
        linear = PolyVectorField(2, (z(2, 1), z(2, 0)))
        with pytest.raises(ValueError) as exc:
            contract(top, linear)
        assert str(exc.value) == f"polynomial degree {forms.MAX_DEGREE + 1} exceeds the cap of {forms.MAX_DEGREE}"
        with pytest.raises(ValueError, match=f"^polynomial degree {forms.MAX_DEGREE + 1} exceeds"):
            wedge(top, one_form(2, {1: z(2, 1)}))

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
            parse_form("z0", 10**9)

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


# The two forms the README shows, and the contraction chains of
# forms_golden.json.
README_FORMS = [
    "z0*z2 dz1^dz3 - z0*z3 dz1^dz2 - z1*z2 dz0^dz3 + z1*z3 dz0^dz2",
    "z1*z2 dz0 - 2*z0*z2 dz1 + z0*z1 dz2",
]
GOLDEN_FORMS = [
    text for key, text in json.loads(Path(__file__).with_name("forms_golden.json").read_text()).items()
    if key.startswith("chain ")
]


class TestAmbientRing:
    @pytest.mark.parametrize("text", README_FORMS + GOLDEN_FORMS)
    def test_ring_is_inferred_from_the_highest_index(self, text):
        top = max(int(i) for i in re.findall(r"z(\d+)", text))
        form = parse_form(text)
        assert form.nvars == top + 1
        assert form == parse_form(text, top + 1)

    @pytest.mark.parametrize("text", ["7", "3/2 - 1", "", " \n"])
    def test_no_variable_leaves_the_ring_unknown(self, text):
        with pytest.raises(FormParseError) as exc:
            parse_form(text)
        assert str(exc.value) == "cannot infer the ambient dimension from the form; pass --n"

    @pytest.mark.parametrize(
        "text, nvars",
        [
            ("z0 dz0", None),
            ("z0", None),
            ("dz0", None),
            ("z0^", None),
            ("z0 dz1 - z1 dz0", 1),
            ("z0 dz1 - z1 dz0", 0),
            ("z0 dz1 - z1 dz0", -2),
        ],
    )
    def test_parser_refuses_p0_and_below(self, text, nvars):
        with pytest.raises(ValueError) as exc:
            parse_form(text, nvars)
        assert str(exc.value) == "ambient dimension must be positive"

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_pullback_refuses_p0_and_below(self, n):
        with pytest.raises(ValueError) as exc:
            pullback_form(n, (1,), 0)
        assert str(exc.value) == "ambient dimension must be positive"


class TestTermCap:
    def test_product_over_the_cap_is_rejected_before_building(self):
        # 1540 x 1540 products, landing in the C(25, 19) = 177,100 sextics
        # of 20 variables
        cubic = dense(20, 3)
        with pytest.raises(ValueError, match=f"product of 1540- and 1540-term polynomials exceeds the cap of {forms.MAX_TERMS} terms"):
            cubic * cubic

    def test_contract_and_wedge_check_the_cap_before_building(self):
        cubic = dense(20, 3)
        # the message of test_product_over_the_cap_is_rejected_before_building
        message = f"product of 1540- and 1540-term polynomials exceeds the cap of {forms.MAX_TERMS} terms"
        form = one_form(20, {0: cubic})
        field = PolyVectorField(20, (cubic,) + (HomogeneousPoly.zero(20),) * 19)
        with pytest.raises(ValueError) as exc:
            contract(form, field)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            wedge(form, one_form(20, {1: cubic}))
        assert str(exc.value) == message

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


class TestWorkCap:
    """MAX_PRODUCT_WORK bounds the len_a * len_b coefficient products of one
    product, which MAX_TERMS does not: two dense degree-100 ternary forms
    make at most 20,301 terms from 5151 x 5151 products."""

    message = f"product of 5151- and 5151-term polynomials exceeds the cap of {forms.MAX_PRODUCT_WORK} coefficient products"

    def test_product_over_the_cap_is_rejected_before_building(self):
        a = dense(3, 100)
        assert len(a.packed) ** 2 > forms.MAX_PRODUCT_WORK
        with pytest.raises(ValueError) as exc:
            a * a
        assert str(exc.value) == self.message

    def test_contract_and_wedge_check_the_cap_before_building(self):
        a = dense(3, 100)
        form = one_form(3, {0: a})
        with pytest.raises(ValueError) as exc:
            contract(form, PolyVectorField(3, (a, HomogeneousPoly.zero(3), HomogeneousPoly.zero(3))))
        assert str(exc.value) == self.message
        with pytest.raises(ValueError) as exc:
            wedge(form, one_form(3, {1: a}))
        assert str(exc.value) == self.message

    def test_parser_checks_the_cap_before_building(self):
        with pytest.raises(ValueError) as exc:
            parse_form("(" + "(z0+z1+z2)" * 100 + ")" + "(" + "(z0+z1+z2)" * 100 + ") dz1", 3)
        assert str(exc.value) == self.message

    def test_products_under_the_cap_pass(self):
        # 861 x 861 = 741,321 products into the C(82, 2) = 3,321 octics
        a = dense(3, 40)
        assert len(a.packed) ** 2 <= forms.MAX_PRODUCT_WORK
        assert len((a * a).packed) == 3321

    def test_the_term_cap_is_checked_first(self):
        # 1540 x 1540 is over both caps; the term cap names it
        cubic = dense(20, 3)
        assert len(cubic.packed) ** 2 > forms.MAX_PRODUCT_WORK
        with pytest.raises(ValueError, match=f"exceeds the cap of {forms.MAX_TERMS} terms"):
            cubic * cubic


class TestParseBudget:
    """MAX_PARSE_WORK bounds the len_a * len_b coefficient products summed
    over every product of one parse, which the per-product caps do not: a
    chain of linear factors keeps each product small."""

    message = f"the products of the form exceed the cap of {forms.MAX_PARSE_WORK} coefficient products per parse"

    def test_chain_over_the_budget_is_refused(self):
        with pytest.raises(ValueError) as exc:
            parse_form("(z0+z1+z2)" * 200 + " dz1", 3)
        assert str(exc.value) == self.message

    def test_every_product_counts_once_per_parse(self, monkeypatch):
        # (z0+z1)(z0+z1)(z0+z1): 1 x 2, 2 x 2 and 3 x 2 coefficient
        # products; 3 z2 (z0+z1) z1: 1 x 2 then 2 x 1; (z2^3): 1 x 1.
        # Numbers and powers fold into a term and take none, and a term 1
        # after a factor is no product. The count restarts per parse.
        text = "(z0+z1)(z0+z1)(z0+z1) dz2 + 3 z2 (z0+z1) z1 dz0 - (z2^3) dz1"
        monkeypatch.setattr(forms, "MAX_PARSE_WORK", 17)
        want = parse_form(text, 3)
        assert parse_form(text, 3) == want
        monkeypatch.setattr(forms, "MAX_PARSE_WORK", 16)
        with pytest.raises(ValueError, match="exceed the cap of 16 coefficient products per parse"):
            parse_form(text, 3)

    def test_a_sum_that_opens_a_product_counts_its_terms(self, monkeypatch):
        # each (z0+z1+z2) is taken as it is, yet counts its 3 terms as the
        # product 1 x 3 would; 3 (z0+z1) takes 1 x 2
        text = "(z0+z1+z2) dz1 + (z0+z1+z2) dz0 + 3 (z0+z1) dz2"
        monkeypatch.setattr(forms, "MAX_PARSE_WORK", 8)
        assert parse_form(text, 3) == ref_parse_form(text, 3)
        monkeypatch.setattr(forms, "MAX_PARSE_WORK", 7)
        for parse in (parse_form, ref_parse_form):
            with pytest.raises(ValueError) as exc:
                parse(text, 3)
            assert str(exc.value) == "the products of the form exceed the cap of 7 coefficient products per parse"

    def test_a_sum_over_the_term_cap_is_refused(self, monkeypatch):
        # with MAX_TERMS at 5, a 6-term sum is refused wherever it stands,
        # with the message of the product 1 * sum
        monkeypatch.setattr(forms, "MAX_TERMS", 5)
        message = "product of 6- and 1-term polynomials exceeds the cap of 5 terms"
        for text in ("(z0+z1+z2+z3+z4+z5) dz0", "((z0+z1+z2+z3+z4+z5)) dz0", "z6 (z0+z1+z2+z3+z4+z5) dz0"):
            for parse in (parse_form, ref_parse_form):
                with pytest.raises(ValueError) as exc:
                    parse(text, 8)
                assert str(exc.value) == message
        assert parse_form("(z0+z1+z2+z3+z4) dz0", 8) == ref_parse_form("(z0+z1+z2+z3+z4) dz0", 8)

    def test_per_product_caps_speak_first(self):
        # the 5151 x 5151 product is over MAX_PRODUCT_WORK; its own message
        # names it, though the chain before it is counted too
        text = "(" + "(z0+z1+z2)" * 100 + ")" + "(" + "(z0+z1+z2)" * 100 + ") dz1"
        with pytest.raises(ValueError, match="product of 5151- and 5151-term polynomials"):
            parse_form(text, 3)


def deepest_nesting(text):
    depth = deepest = 0
    for c in text:
        if c in "()":
            depth = max(depth + (1 if c == "(" else -1), 0)
            deepest = max(deepest, depth)
    return deepest


class TestNestingCap:
    message = f"parentheses nest deeper than the cap of {forms.MAX_NESTING} levels (token {forms.MAX_NESTING + 1})"

    def test_input_nested_to_the_cap_parses(self):
        depth = forms.MAX_NESTING
        text = "(" * depth + "z0 - z1" + ")" * depth + " dz1"
        assert parse_form(text, 3) == parse_form("(z0 - z1) dz1", 3)

    @pytest.mark.parametrize("depth", [forms.MAX_NESTING + 1, 330, 1000])
    def test_deeper_input_is_refused_naming_the_cap(self, depth):
        with pytest.raises(FormParseError) as exc:
            parse_form("(" * depth + "z0" + ")" * depth + " dz1", 3)
        assert str(exc.value) == self.message

    def test_the_cap_is_far_inside_the_recursion_limit(self):
        # the parser takes two frames per level
        assert 2 * forms.MAX_NESTING <= sys.getrecursionlimit() // 4

    def test_the_cap_is_above_every_nesting_written_in_the_repository(self):
        root = Path(__file__).resolve().parents[1]
        paths = [root / "README.md", *root.glob("tests/*.json"), *root.glob("bench/**/*.json"), *root.glob("bench/*.py")]
        assert max(deepest_nesting(path.read_text(encoding="utf-8")) for path in paths) < forms.MAX_NESTING


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
            rhs = scale(wedge(b, a), (-1) ** (ka * kb))
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
            rhs = wedge(contract(a, x), b) + scale(wedge(a, contract(b, x)), (-1) ** ka)
            assert lhs == rhs

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            contract(zero_form(3, 0), radial_field(3))


# The sum-of-products wedge and contraction that the in-place ones
# replaced, kept as the reference: every term is its own product, merged
# by PolyKForm.from_dict.
def sort_with_parity(indices):
    """(sorted indices, sign of the sorting permutation), None on a repeat."""
    if len(set(indices)) != len(indices):
        return None
    inversions = sum(1 for a in range(len(indices)) for b in range(a) if indices[b] > indices[a])
    return tuple(sorted(indices)), (-1) ** inversions


def ref_wedge(a, b):
    return PolyKForm.from_dict(a.nvars, a.k + b.k, (
        (canon[0], (f * g) * canon[1])
        for left, f in a.coeffs
        for right, g in b.coeffs
        if (canon := sort_with_parity(left + right)) is not None
    ))


def ref_contract(form, field):
    return PolyKForm.from_dict(form.nvars, form.k - 1, (
        (indices[:pos] + indices[pos + 1:], (poly * field.components[i]) * (-1) ** pos)
        for indices, poly in form.coeffs
        for pos, i in enumerate(indices)
    ))


def fraction_form(rng, nvars, k, degree):
    """Up to four random index tuples with random_pairs coefficients, so
    some are p/q fractions, some integral Fractions and some zero."""
    pool = list(combinations(range(nvars), k))
    picked = rng.sample(pool, min(len(pool), rng.randint(0, 4)))
    return PolyKForm.from_dict(
        nvars, k, {idx: HomogeneousPoly.from_dict(nvars, random_pairs(rng, nvars, degree)) for idx in picked}
    )


def fraction_field(rng, nvars, degree):
    return PolyVectorField(
        nvars, tuple(HomogeneousPoly.from_dict(nvars, random_pairs(rng, nvars, degree)) for _ in range(nvars))
    )


def assert_canonical(form):
    """The PolyKForm invariants: strictly increasing index tuples of length
    k in strictly increasing order, nonzero coefficients of one degree, and
    every integral coefficient stored as int."""
    indices = [idx for idx, _ in form.coeffs]
    assert indices == sorted(set(indices))
    assert {p.degree for _, p in form.coeffs} <= {form.poly_degree}
    for idx, poly in form.coeffs:
        assert len(idx) == form.k and list(idx) == sorted(set(idx))
        assert poly.packed and poly.nvars == form.nvars
        for c in poly.packed.values():
            assert c != 0
            assert type(c) is int or c.denominator != 1


class TestInPlaceProducts:
    def test_wedge_and_contract_match_the_reference(self):
        rng = random.Random(2618)
        zeros = 0
        for _ in range(300):
            nvars = rng.randint(2, 5)
            ka = rng.randint(1, nvars - 1)
            kb = rng.randint(0, nvars - ka)
            a = fraction_form(rng, nvars, ka, rng.randint(0, 3))
            b = fraction_form(rng, nvars, kb, rng.randint(0, 3))
            x = fraction_field(rng, nvars, rng.randint(0, 2))
            for got, want in ((wedge(a, b), ref_wedge(a, b)), (contract(a, x), ref_contract(a, x))):
                assert got == want
                assert_canonical(got)
            # the closure identities: contractions that cancel to zero
            twice = contract(contract(a, x), x) if ka >= 2 else None
            square = wedge(a, a) if ka % 2 == 1 and 2 * ka <= nvars else None
            for form in (twice, square):
                if form is not None:
                    assert form.is_zero and form.coeffs == ()
                    zeros += 1
        assert zeros > 100

    def test_chain_closure_with_fraction_fields(self):
        rng = random.Random(2619)
        for _ in range(30):
            n = rng.randint(2, 4)
            fields = [fraction_field(rng, n + 1, rng.randint(0, 2)) for _ in range(rng.randint(1, n - 1))]
            out = volume_contract_chain(n, fields)
            assert_canonical(out)
            for x in [radial_field(n + 1), *fields]:
                assert contract(out, x) == ref_contract(out, x)
                assert contract(out, x).is_zero

    def test_integral_fractions_are_stored_as_int(self):
        half = PolyKForm.from_dict(3, 1, {(0,): z(3, 1) * Fraction(1, 2), (1,): z(3, 0) * Fraction(3, 2)})
        x = PolyVectorField(3, (z(3, 0) * 2, z(3, 1) * Fraction(2, 3), HomogeneousPoly.zero(3)))
        # 1/2 z1 * 2 z0 + 3/2 z0 * 2/3 z1 = 2 z0 z1
        got = contract(half, x)
        assert got.coeffs == (((), HomogeneousPoly.from_dict(3, {(1, 1, 0): 2})),)
        assert_canonical(got)
        # 1/2 z1 * 2 = z1 and 3/2 z0 * 2 = 3 z0
        got = wedge(half, PolyKForm.from_dict(3, 1, {(2,): HomogeneousPoly.constant(3, 2)}))
        assert got == PolyKForm.from_dict(3, 2, {(0, 2): z(3, 1), (1, 2): z(3, 0) * 3})
        assert_canonical(got)


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
        assert contract(first, radial_field(5)).is_zero
        assert radial_form_degree(first, 4) == 2
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
            coefficient_ideal(zero_form(3, 1))

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
        systems += [[w1, w2, scale(w1, 3)], [w2, zero_form(4, 1)], [zero_form(3, 1)]]
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
            ideal = minors_ideal([w1, scale(w1, 2)])
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
        form = wedge(w1, w2)
        assert contract(form, radial_field(4)).is_zero
        assert radial_form_degree(form, 3) == 1

    def test_radial_volume_contraction_degree_zero(self):
        out = volume_contract_chain(4, [])
        assert contract(out, radial_field(5)).is_zero
        assert radial_form_degree(out, 4) == 0

    def test_nonprojective_form_rejected(self):
        nvars = 3
        form = PolyKForm.from_dict(
            nvars, 2, {(0, 1): z(nvars, 0)}
        )
        assert not contract(form, radial_field(nvars)).is_zero

    def test_dimension_mismatch(self):
        w1, w2 = two_lines_pair()
        with pytest.raises(ValueError, match="lives on C\\^4, not C\\^5"):
            radial_form_degree(wedge(w1, w2), 4)


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

    def test_round_trip_with_fractions_and_high_powers(self):
        rng = random.Random(3032)
        for _ in range(60):
            nvars = rng.randint(2, 5)
            k = rng.randint(0, nvars)
            degree = rng.randint(256, forms.MAX_DEGREE)
            pool = list(combinations(range(nvars), k))
            form = PolyKForm.from_dict(nvars, k, {
                idx: HomogeneousPoly.from_dict(nvars, high_pairs(rng, nvars, degree))
                for idx in rng.sample(pool, min(len(pool), rng.randint(1, 4)))
            })
            if form.is_zero:
                continue
            text = form_str(form)
            assert parse_form(text, nvars) == form
            assert form_str(parse_form(text, nvars)) == text

    def test_summands_cancel_before_their_degrees_are_compared(self):
        assert parse_form("(z0^2 + z1 - z1) dz0", 3) == parse_form("z0^2 dz0", 3)
        assert parse_form("(z1 - z0^2 + 1/2 z0^2 + 1/2 z0 z0) dz0", 3) == parse_form("z1 dz0", 3)

    def test_mixed_degree_sum_keeps_its_message(self):
        for text in ("(z0^2 + z1) dz0", "(z1 - z0^2) dz0", "(z0^2 + z1 - z1 + z2) dz0"):
            with pytest.raises(ValueError) as exc:
                parse_form(text, 3)
            assert str(exc.value) == "not homogeneous: degrees [1, 2]"

    def test_sum_that_cancels_to_zero(self):
        zero = parse_form("(z0 - z0) dz1", 3)
        assert zero == PolyKForm(3, 1, ()) and form_str(zero) == "0"
        assert parse_form("(z0 - z0) dz1 + z1 dz0", 3) == parse_form("z1 dz0", 3)
        assert parse_form("z2 (z0^3 - z0^3) dz1 + z1 dz0", 3) == parse_form("z1 dz0", 3)
        # a zero summand adds nothing, and no degree
        assert parse_form("(0 z0^2 + z1 - 0*z2^5) dz0", 3) == parse_form("z1 dz0", 3)

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
        with pytest.raises(FormParseError, match="zero denominator in 2/0"):
            parse_form("2/0 z0 dz1", 3)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty input"),
            ("   ", "empty input"),
            ("z0 dz1 z1 dz0", "expected + or - before 'z1' (token 2)"),
            ("z0 ) dz1", "expected + or - before ')' (token 1)"),
            ("z0 dz1 + z1", "mixed form degrees 1 and 0 (token 4)"),
            ("z0 dz1 + + z1 dz0", "empty term (token 3)"),
            ("z0 dz1 -", "empty term (token 3)"),
            ("(z0 z1", "missing ) (token 4)"),
            ("z0 dz1 + ^ z1 dz0", "unexpected token '^' (token 4)"),
            ("z9 dz0", "variable z9 out of range for 3 variables (token 1)"),
            ("dz9", "dz9 out of range for 3 variables (token 1)"),
            ("z0^ dz1", "expected an integer power (token 3)"),
            ("z0^z1 dz1", "expected an integer power (token 3)"),
            ("dz0^2", "dz factors cannot carry powers (token 3)"),
            ("dz0^z1", "expected dz token, got 'z1' (token 3)"),
            ("(z0 dz1)", "dz inside a coefficient (token 2)"),
            ("(z0 + ) dz1", "empty summand in coefficient (token 3)"),
            # input that ends in the middle of a term
            ("z0^", "expected an integer power (token 3)"),
            ("dz0^", "expected dz token, got None (token 3)"),
            ("(", "empty summand in coefficient (token 1)"),
            ("z0 (", "empty summand in coefficient (token 2)"),
            ("(z0", "missing ) (token 3)"),
            ("-", "empty term (token 1)"),
            ("dz0 ^ ^", "expected dz token, got '^' (token 3)"),
            ("((z0) dz1", "dz inside a coefficient (token 4)"),
            # the position and character are those of the bad character,
            # past any whitespace before it
            ("z0 @ dz1", "unexpected character at position 3: '@'"),
            ("z0@ dz1", "unexpected character at position 2: '@'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(FormParseError) as exc:
            parse_form(text, 3)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            # a stray character after valid tokens
            ("z0 dz1 @", "unexpected character at position 7: '@'"),
            ("z0 dz1@", "unexpected character at position 6: '@'"),
            ("z0 dz1 - z1 dz0!", "unexpected character at position 15: '!'"),
            ("z0 dz1 é", "unexpected character at position 7: 'é'"),
            ("dzx", "unexpected character at position 0: 'd'"),
            ("z0 dzx", "unexpected character at position 3: 'd'"),
            ("z", "unexpected character at position 0: 'z'"),
            ("z0 dz1 - z dz0", "unexpected character at position 9: 'z'"),
            ("1/", "unexpected character at position 1: '/'"),
            ("z0 dz1 - 1/", "unexpected character at position 10: '/'"),
            ("1/ z0 dz1", "unexpected character at position 1: '/'"),
        ],
    )
    def test_tokenizer_names_the_first_uncovered_character(self, text, message):
        with pytest.raises(FormParseError) as exc:
            parse_form(text, 3)
        assert str(exc.value) == message

    def test_any_unicode_whitespace_separates_tokens(self):
        want = parse_form("z0 dz1 - z1 dz0", 3)
        for space in ("\u00a0", "\u2009", "\u3000", "\t", "\n"):
            assert parse_form(f"z0{space}dz1 - z1{space}dz0{space}", 3) == want


# The text path before monomial tokens, kept as the reference that the
# differential tests compare parse_form and form_str with: one token per
# z<i>, ^, power and *, each checked where it stands, a parenthesized sum
# that opens a product multiplied by 1, and a printer that unpacks and
# writes every term on its own. Caps are read from forms at call time, so
# a monkeypatched cap holds for both.
REF_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|dz\d+|z\d+|[+\-*^()])")


def ref_tokenize(text):
    tokens = REF_TOKEN.findall(text)
    if sum(map(len, tokens)) == len("".join(text.split())):
        return tokens
    pos = 0
    while m := REF_TOKEN.match(text, pos):
        pos = m.end()
    pos = len(text) - len(text[pos:].lstrip())
    raise FormParseError(f"unexpected character at position {pos}: {text[pos]!r}")


class RefParser:
    def __init__(self, tokens, nvars):
        self.tokens = [*tokens, None]
        self.pos = 0
        self.nvars = nvars
        self.work = 0

    def times(self, a, b):
        out = a * b
        self.work += len(a.packed) * len(b.packed)
        if self.work > forms.MAX_PARSE_WORK:
            raise ValueError(f"the products of the form exceed the cap of {forms.MAX_PARSE_WORK} coefficient products per parse")
        return out

    def fail(self, message, pos=None):
        raise FormParseError(f"{message} (token {self.pos if pos is None else pos})")

    def parse_form(self):
        tokens = self.tokens
        terms = []
        k = None
        while True:
            tok = tokens[self.pos]
            sign = -1 if tok == "-" else 1
            if tok in ("+", "-"):
                self.pos += 1
            elif k is not None:
                self.fail(f"expected + or - before {tok!r}")
            factors = self.parse_product()
            poly = None if factors is None else self.times_term(*factors)
            indices = self.parse_chain() if (tokens[self.pos] or "").startswith("dz") else ()
            if poly is None and not indices:
                self.fail("empty term")
            k = len(indices) if k is None else k
            if len(indices) != k:
                self.fail(f"mixed form degrees {k} and {len(indices)}")
            if (canon := forms._canonical_indices(indices)) is not None:
                coeff = HomogeneousPoly.constant(self.nvars, 1) if poly is None else poly
                terms.append((canon[0], coeff * (sign * canon[1])))
            if tokens[self.pos] is None:
                return PolyKForm.from_dict(self.nvars, k, terms)

    def parse_product(self):
        tokens, nvars = self.tokens, self.nvars
        pos = self.pos
        poly, found = None, False
        mono, coeff, degree, written = 0, 1, 0, 0
        while (tok := tokens[pos]) is not None and (first := tok[0]) not in "+-)d":
            pos += 1
            if first == "*":
                continue
            found = True
            if first == "z":
                i = forms.variable_index(tok[1:])
                if i >= nvars:
                    self.fail(f"variable z{i} out of range for {nvars} variables", pos)
                e = 1
                if tokens[pos] == "^":
                    power = tokens[pos + 1]
                    pos += 2
                    if not (power or "").isdigit():
                        self.fail("expected an integer power", pos)
                    digits = power.lstrip("0") or "0"
                    if len(digits) > len(str(forms.MAX_DEGREE)) or int(digits) > forms.MAX_DEGREE:
                        self.fail(f"power {digits} exceeds the degree cap of {forms.MAX_DEGREE}", pos)
                    e = int(digits)
                mono += e << (forms.FIELD_BITS * i)
                degree += e
                written += e
                forms._check_degree(written)
            elif first.isdigit():
                try:
                    coeff *= read_number(tok, "a coefficient")
                except ZeroDivisionError:
                    self.fail(f"zero denominator in {tok}", pos)
            elif first == "(":
                self.pos = pos
                factor = self.parse_poly_sum()
                pos = self.pos + 1
                if tokens[pos - 1] != ")":
                    self.fail("missing )", pos)
                poly = self.times(self.times_term(poly, mono, coeff, degree), factor)
                mono, coeff, degree = 0, 1, 0
                written += max(factor.degree, 0)
                forms._check_degree(written)
            else:
                self.fail(f"unexpected token {tok!r}", pos)
        self.pos = pos
        return (poly, mono, coeff, degree) if found else None

    def times_term(self, poly, mono, coeff, degree):
        if poly is not None and not mono and coeff == 1:
            return poly
        packed = forms._canonical({mono: coeff})
        term = HomogeneousPoly(self.nvars, degree if packed else -1, packed)
        return term if poly is None else self.times(poly, term)

    def parse_poly_sum(self):
        out = {}
        get = out.get
        degrees = set()
        while True:
            tok = self.tokens[self.pos]
            if tok in ("+", "-"):
                self.pos += 1
            factors = self.parse_product()
            if factors is not None:
                poly, mono, coeff, degree = factors
                if poly is None:
                    terms = ((mono, coeff),) if coeff else ()
                else:
                    poly = self.times_term(poly, mono, coeff, degree)
                    terms, degree = poly.packed.items(), poly.degree
            if (self.tokens[self.pos] or "").startswith("dz"):
                self.fail("dz inside a coefficient")
            if factors is None:
                self.fail("empty summand in coefficient")
            if terms:
                degrees.add(degree)
                sign = -1 if tok == "-" else 1
                for m, c in terms:
                    out[m] = get(m, 0) + sign * c
            if self.tokens[self.pos] not in ("+", "-"):
                return forms._summed(self.nvars, out, degrees)

    def parse_chain(self):
        indices = []
        while True:
            tok = self.tokens[self.pos]
            self.pos += 1
            if not (tok or "").startswith("dz"):
                self.fail(f"expected dz token, got {tok!r}")
            i = forms.variable_index(tok[2:])
            if i >= self.nvars:
                self.fail(f"dz{i} out of range for {self.nvars} variables")
            indices.append(i)
            if self.tokens[self.pos] != "^":
                return tuple(indices)
            self.pos += 1
            if (self.tokens[self.pos] or "").isdigit():
                self.pos += 1
                self.fail("dz factors cannot carry powers")


def ref_parser(text, nvars=None):
    """The reference parser, ready to parse text, and its ring."""
    tokens = ref_tokenize(text)
    if nvars is None:
        nvars = 1 + max((forms.variable_index(t.lstrip("dz")) for t in tokens if t[0] in "dz"), default=-1)
        if nvars == 0:
            raise FormParseError("cannot infer the ambient dimension from the form; pass --n")
    forms._check_variables(nvars)
    if not tokens:
        raise FormParseError("empty input")
    return RefParser(tokens, nvars)


def ref_parse_form(text, nvars=None):
    return ref_parser(text, nvars).parse_form()


def ref_monomial_str(expo, coeff):
    factors = []
    for i, e in enumerate(expo):
        if e == 1:
            factors.append(f"z{i}")
        elif e > 1:
            factors.append(f"z{i}^{e}")
    mono = "*".join(factors)
    mag = abs(coeff)
    if not mono:
        return str(mag)
    if mag == 1:
        return mono
    return f"{mag}*{mono}"


def ref_poly_str(poly):
    return forms.signed_sum((coeff < 0, ref_monomial_str(expo, coeff)) for expo, coeff in poly.terms)


def ref_form_term(indices, poly):
    chain = "^".join(f"dz{i}" for i in indices)
    if len(poly.packed) > 1:
        return False, f"({ref_poly_str(poly)}) {chain}"
    (expo, coeff), = poly.terms
    body = ref_monomial_str(expo, coeff)
    return coeff < 0, chain if body == "1" else f"{body} {chain}"


def ref_form_str(form):
    if form.k == 0:
        return ref_poly_str(form.coefficient(()))
    return forms.signed_sum(ref_form_term(indices, poly) for indices, poly in form.coeffs)


def outcome(parse, show, text, nvars):
    """(form, its text) that parse reads from text and show prints, or the
    (exception type, message) that the read raises."""
    try:
        form = parse(text, nvars)
    except ValueError as exc:
        return type(exc), str(exc)
    return form, show(form)


# Pieces of random token strings: monomials and the tokens they join,
# leading zeros, powers at and past MAX_DEGREE, fractions, zero
# coefficients, parentheses, dz chains, a non-ASCII digit and characters
# that no token holds.
TEXT_PIECES = (
    "z0", "z1", "z2", "z3", "z7", "z9", "z01", "z0007", "z٣", "z0^2", "z1^03", "z2^0", "z0^999",
    "z1^1000", "z0^1001", "z0^00001000", "z0*z1", "z0^2*z2", "z1*z1*z1", "z3^2*z0", "dz0", "dz1", "dz2",
    "dz3", "dz7", "dz01", "^", "^", "^", "*", "*", "+", "+", "-", "-", "(", "(", ")", ")", "0", "1", "2",
    "007", "1000", "٣", "3/2", "2/4", "1/0", "0/3", "2/", "@", "z", "dz", "z0 ^ 2", "z0 * z2dz1 ^ dz3",
    "z0^2^3", "z0^", "z1^2/3", "(z0 + z1)", "(z0^2 - z1 z2)", "dz1^dz3", "dz0 ^ dz2", "z0*z1^", "z0*z9",
    "z9*z0", "z0^999*z1^2*z2", "z0^5000*z1", "z0*z1^2/3", "z0^2z1", "z00001*z1^0",
)


def random_text(rng):
    pieces = [rng.choice(TEXT_PIECES) for _ in range(rng.randint(1, 12))]
    return "".join(p + rng.choice(("", " ", " ", "  ", "\t")) for p in pieces)


def homogeneous_text(rng, nvars, degree, depth):
    """A signed sum of products of the written degree `degree`: numbers,
    powers and parenthesized sums, joined by *, a space or nothing."""
    summands = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(("2", "0", "3/2", "7/7", "0003"))] if rng.random() < 0.5 else []
        left = degree
        while left:
            e = rng.randint(1, left)
            if depth and rng.random() < 0.3:
                factors.append(f"({homogeneous_text(rng, nvars, e, depth - 1)})")
            else:
                i = rng.randrange(nvars)
                factors.append(f"z{i}" if e == 1 and rng.random() < 0.5 else f"z{i}^{e}")
            left -= e
        summands.append(rng.choice(("*", " ", "")).join(factors) or "1")
    return "".join(rng.choice((" + ", " - ", "-", "+")) + s for s in summands).lstrip("+ ")


def structured_text(rng, nvars):
    k = rng.randint(0, min(3, nvars))
    degree = rng.choice((0, 1, 2, 3, 4, forms.MAX_DEGREE - 1, forms.MAX_DEGREE, forms.MAX_DEGREE + 1))
    terms = []
    for _ in range(rng.randint(1, 4)):
        chain = "^".join(f"dz{rng.randrange(nvars)}" for _ in range(k))
        # nested sums of sums only at low degree, where their products stay small
        coeff = homogeneous_text(rng, nvars, degree, 2 if degree < 5 else 1)
        terms.append(f"({coeff}) {chain}" if rng.random() < 0.8 else f"{coeff} {chain}")
    text = " + ".join(terms)
    # star optional, powers written apart, or as written
    return rng.choice((text, text.replace("*", " "), text.replace("^", " ^ ")))


class TestReferenceText:
    """parse_form and form_str against the reference text path above."""

    def test_random_token_strings_read_alike(self):
        rng = random.Random(3131)
        for _ in range(4000):
            text = random_text(rng)
            for nvars in (3, 4, 8):
                assert outcome(parse_form, form_str, text, nvars) == outcome(ref_parse_form, ref_form_str, text, nvars), text

    def test_structured_forms_read_alike(self):
        rng = random.Random(3132)
        for _ in range(600):
            nvars = rng.choice((3, 4, 8))
            text = structured_text(rng, nvars)
            for ring in (nvars, None):
                assert outcome(parse_form, form_str, text, ring) == outcome(ref_parse_form, ref_form_str, text, ring), text

    def test_parse_budget_boundary_falls_alike(self, monkeypatch):
        # a parse that takes W coefficient products passes at a cap of W
        # and is refused at W - 1, with the same message from both
        rng = random.Random(3133)
        checked = 0
        cap = forms.MAX_PARSE_WORK
        while checked < 150:
            nvars = rng.choice((3, 4, 8))
            text = structured_text(rng, nvars)
            monkeypatch.setattr(forms, "MAX_PARSE_WORK", cap)
            try:
                parser = ref_parser(text, nvars)
                parser.parse_form()
            except ValueError:
                continue
            if not parser.work:
                continue
            checked += 1
            for boundary in (parser.work, parser.work - 1):
                monkeypatch.setattr(forms, "MAX_PARSE_WORK", boundary)
                assert outcome(parse_form, form_str, text, nvars) == outcome(ref_parse_form, ref_form_str, text, nvars), text
            assert outcome(parse_form, form_str, text, nvars)[0] is ValueError

    def test_printers_agree_on_fraction_forms(self):
        rng = random.Random(3134)
        for _ in range(400):
            nvars = rng.randint(2, 6)
            k = rng.randint(0, nvars)
            degree = rng.choice((0, 1, 2, 3, rng.randint(256, forms.MAX_DEGREE)))
            form = fraction_form(rng, nvars, k, degree) if degree < 256 else PolyKForm.from_dict(
                nvars, k, {idx: HomogeneousPoly.from_dict(nvars, high_pairs(rng, nvars, degree))
                           for idx in rng.sample(list(combinations(range(nvars), k)), 1)}
            )
            assert form_str(form) == ref_form_str(form)
            for _, poly in form.coeffs:
                assert poly_str(poly) == ref_poly_str(poly)


def _x(nvars, i):
    return HomogeneousPoly.variable(nvars, i)


def _one_form(nvars, i):
    """z_i dz_i on C^nvars."""
    return PolyKForm.from_dict(nvars, 1, {(i,): _x(nvars, i)})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: HomogeneousPoly.variable(3, 3), "variable index 3 out of range"),
        (lambda: HomogeneousPoly.variable(3, -1), "variable index -1 out of range"),
        (lambda: PolyKForm.from_dict(3, 4, {}), "form degree 4 out of range for 3 variables"),
        (lambda: PolyKForm.from_dict(3, -1, {}), "form degree -1 out of range for 3 variables"),
        (lambda: PolyKForm.from_dict(3, 2, {(1, 0): _x(3, 0)}), "index tuple (1, 0) is not strictly increasing of length 2"),
        (lambda: PolyKForm.from_dict(3, 2, {(1, 1): _x(3, 0)}), "index tuple (1, 1) is not strictly increasing of length 2"),
        (lambda: PolyKForm.from_dict(3, 1, {(3,): _x(3, 0)}), "index tuple (3,) out of range"),
        (lambda: PolyKForm.from_dict(3, 1, {(0,): _x(3, 0), (1,): HomogeneousPoly.constant(3, 1)}),
         "mixed coefficient degrees [0, 1]"),
        (lambda: volume_form(3) + _one_form(3, 0), "forms of different shape"),
        (lambda: _one_form(4, 0) + _one_form(3, 0), "forms of different shape"),
        (lambda: PolyVectorField(3, (_x(3, 0), _x(3, 1))), "need one component per variable"),
        (lambda: PolyVectorField(2, (_x(2, 0), HomogeneousPoly.constant(2, 1))), "mixed component degrees [0, 1]"),
        (lambda: PolyVectorField(2, (_x(2, 0), _x(3, 0))), "component in wrong ring"),
        (lambda: GradedIdeal(2, (_x(3, 0),)), "generator in wrong ring"),
        (lambda: wedge(_one_form(3, 0), _one_form(4, 0)), "forms in different variable counts"),
        (lambda: contract(_one_form(3, 0), radial_field(4)), "form and field in different variable counts"),
        (lambda: volume_contract_chain(2, [radial_field(4)]), "field in wrong ring"),
        (lambda: minors_ideal([_one_form(3, i) for i in range(3)]), "at most 2 forms on C^3"),
        (lambda: radial_form_degree(PolyKForm.from_dict(3, 1, {}), 2), "zero form"),
        (lambda: radial_form_degree(PolyKForm.from_dict(3, 1, {(0,): HomogeneousPoly.constant(3, 1)}), 2),
         "coefficients must have positive degree"),
    ],
    ids=[
        "variable above", "variable below", "k above", "k below", "indices descending", "indices repeated",
        "index out of range", "mixed coefficient degrees", "add k", "add ring", "field components",
        "field degrees", "field ring", "ideal ring", "wedge ring", "contract ring", "chain ring",
        "minors count", "radial zero form", "radial degree 0",
    ],
)
def test_input_checks_keep_their_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
