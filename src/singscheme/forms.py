"""Exact algebra of homogeneous polynomial differential forms on C^{n+1}.

Forms with polynomial coefficients represent twisted projective forms: a
k-form with homogeneous coefficients of degree d+1 satisfying i_R w = 0,
where R is the radial field, descends to P^n. The module supplies wedge,
interior products, the iterated volume contraction that builds such forms
from vector fields, and extraction of the coefficient ideal cutting out
the degeneracy locus. All arithmetic is exact rational.

A polynomial maps packed monomials (one int per exponent vector) to
coefficients that are ints, or Fractions where not integral; its degree is
at most MAX_DEGREE. Exponent vectors appear only at the edges: from_dict,
the terms view, and printing. Forms map strictly increasing index tuples
to polynomials, so the antisymmetric representation is canonical and
equality is structural.
"""

from __future__ import annotations

import random
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm

# The one literal reader, shared with every command; the parser's cap is
# importable from here too.
from .chow import read_number


# Monomial packing (Monagan-Pearce 2009): the exponent of z_i sits in bits
# [i*FIELD_BITS, (i+1)*FIELD_BITS) of one int, so a monomial product is one
# integer add. Every polynomial degree is at most MAX_DEGREE, checked before
# anything is built, so no field ever carries into the next one and the top
# bit of each field stays clear: divisibility is one subtraction checked
# against those guard bits. Among monomials of one degree, a smaller packed
# int is the larger monomial in grevlex with z0 > z1 > ... The cap bounds
# the work of one input too: `form sing` on z0^d dz1 - z1 z0^(d-1) dz0 on P^2
# takes about 0.1 s at d = 999. MAX_VARIABLES bounds the ring and MAX_TERMS
# the size of a product, both checked before anything is built.
FIELD_BITS = 16
MAX_DEGREE = 1000
MAX_VARIABLES = 1000
MAX_TERMS = 100_000
_FIELD = (1 << FIELD_BITS) - 1


def pack_monomial(expo) -> int:
    return sum(e << (FIELD_BITS * i) for i, e in enumerate(expo))


def unpack_monomial(m: int, nvars: int) -> tuple[int, ...]:
    return tuple((m >> (FIELD_BITS * i)) & _FIELD for i in range(nvars))


def _check_degree(degree: int) -> None:
    """Raise ValueError when a polynomial degree exceeds MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ValueError(f"polynomial degree {degree} exceeds the cap of {MAX_DEGREE}")


def _check_variables(nvars: int) -> None:
    """Raise ValueError when a ring has more than MAX_VARIABLES variables."""
    if nvars > MAX_VARIABLES:
        raise ValueError(f"{nvars} variables exceed the cap of {MAX_VARIABLES}")


def variable_index(digits: str) -> int:
    """The index that the digits of a z<i> or dz<i> token spell. An index
    with more digits than MAX_VARIABLES is over the cap whatever its value,
    so it is refused before int() reads all of it."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_VARIABLES)):
        raise ValueError(
            f"a variable index of {len(digits)} digits exceeds the cap of {MAX_VARIABLES} variables"
        )
    return int(digits)


def _canonical(packed: dict) -> dict:
    """Drop zero coefficients and store integral ones as int."""
    return {
        m: c if type(c) is int or c.denominator != 1 else c.numerator
        for m, c in packed.items()
        if c
    }


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree `degree`, fixed descending order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        expo = [0] * nvars
        for i in combo:
            expo[i] += 1
        out.append(tuple(expo))
    out.sort(reverse=True)
    return out


class HomogeneousPoly:
    """Sparse homogeneous polynomial in z0..z_{nvars-1} over Q.

    Stored as packed: a dict from packed monomials (pack_monomial) to
    nonzero coefficients, each an int, or a Fraction only when it is not
    integral. degree is at most MAX_DEGREE, and -1 for the zero polynomial.
    The constructor takes packed as is and checks nothing; from_dict takes
    outside input. A polynomial is immutable: nothing may change nvars,
    degree or packed once it is built.

    terms is the read-only view of (exponent vector, coefficient) pairs,
    sorted descending by exponent vector.
    """

    __slots__ = ("nvars", "degree", "packed")

    def __init__(self, nvars: int, degree: int, packed: dict):
        self.nvars = nvars
        self.degree = degree
        self.packed = packed

    @classmethod
    def from_dict(cls, nvars: int, coeffs) -> "HomogeneousPoly":
        """The one constructor that merges like terms from outside input:
        coeffs is a dict or an iterable of (exponent vector, coefficient)
        pairs, and the coefficients of equal exponent vectors are summed."""
        merged: dict[tuple[int, ...], object] = {}
        for expo, c in coeffs.items() if isinstance(coeffs, dict) else coeffs:
            expo = tuple(expo)
            prev = merged.get(expo)
            merged[expo] = c if prev is None else prev + c
        clean: dict[tuple[int, ...], object] = {}
        for expo, c in merged.items():
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c == 0:
                continue
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for {nvars} variables")
            clean[expo] = c
        degrees = {sum(e) for e in clean}
        if len(degrees) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degrees)}")
        degree = degrees.pop() if degrees else -1
        _check_degree(degree)
        return cls(nvars, degree, {pack_monomial(e): c for e, c in clean.items()})

    @classmethod
    def zero(cls, nvars: int) -> "HomogeneousPoly":
        return cls(nvars, -1, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "HomogeneousPoly":
        return cls(nvars, 0, {0: 1}) * c

    @classmethod
    def variable(cls, nvars: int, i: int) -> "HomogeneousPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        return cls(nvars, 1, {1 << (FIELD_BITS * i): 1})

    @classmethod
    def monomial(cls, nvars: int, expo, coeff=1) -> "HomogeneousPoly":
        return cls.from_dict(nvars, {tuple(expo): coeff})

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], object], ...]:
        nvars = self.nvars
        return tuple(sorted(
            ((unpack_monomial(m, nvars), c) for m, c in self.packed.items()), reverse=True
        ))

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.packed == other.packed

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.packed.items())))

    def __repr__(self) -> str:
        return f"HomogeneousPoly(nvars={self.nvars}, terms={self.terms!r})"

    def _check_ring(self, other: "HomogeneousPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different variable counts")

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        self._check_ring(other)
        return _sum(self.nvars, (self, other))

    def __neg__(self) -> "HomogeneousPoly":
        return HomogeneousPoly(self.nvars, self.degree, {m: -c for m, c in self.packed.items()})

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self + (-other)

    def __mul__(self, other) -> "HomogeneousPoly":
        if isinstance(other, HomogeneousPoly):
            self._check_ring(other)
            if not self.packed or not other.packed:
                return HomogeneousPoly.zero(self.nvars)
            degree = self.degree + other.degree
            _check_degree(degree)
            big, small = self.packed, other.packed
            if len(big) < len(small):
                big, small = small, big
            # the product has at most min(len * len, C(degree + n, n)) terms
            if len(big) * len(small) > MAX_TERMS and comb(degree + self.nvars - 1, degree) > MAX_TERMS:
                raise ValueError(
                    f"product of {len(big)}- and {len(small)}-term polynomials"
                    f" exceeds the cap of {MAX_TERMS} terms"
                )
            if len(small) == 1:
                (m2, c2), = small.items()
                out = {m1 + m2: c1 * c2 for m1, c1 in big.items()}
            else:
                out = {}
                get = out.get
                for m2, c2 in small.items():
                    for m1, c1 in big.items():
                        m = m1 + m2
                        out[m] = get(m, 0) + c1 * c2
            return HomogeneousPoly(self.nvars, degree, _canonical(out))
        c = other if type(other) is int else Fraction(other)
        if c == 0:
            return HomogeneousPoly.zero(self.nvars)
        if c == 1:
            return self
        return HomogeneousPoly(
            self.nvars, self.degree, _canonical({m: c * v for m, v in self.packed.items()})
        )

    def __rmul__(self, other) -> "HomogeneousPoly":
        return self * other

    def content_normalized(self) -> "HomogeneousPoly":
        """Scale so coefficients are coprime integers, the lex-leading one
        positive."""
        if self.is_zero:
            return self
        values = self.packed.values()
        num = gcd(*(c.numerator for c in values))
        den = lcm(*(c.denominator for c in values))
        lead = max(self.packed, key=lambda m: unpack_monomial(m, self.nvars))
        if self.packed[lead] < 0:
            num = -num
        # c * den / num is an integer, so the floor division is exact
        packed = {m: c * den // num for m, c in self.packed.items()}
        return HomogeneousPoly(self.nvars, self.degree, packed)

    def __str__(self) -> str:
        return poly_str(self)


def _sum(nvars: int, polys) -> HomogeneousPoly:
    """Sum of polynomials in one ring; ValueError when the terms that
    survive cancellation have different degrees."""
    out: dict = {}
    get = out.get
    for p in polys:
        for m, c in p.packed.items():
            out[m] = get(m, 0) + c
    out = _canonical(out)
    if not out:
        return HomogeneousPoly.zero(nvars)
    degrees = {p.degree for p in polys if p.packed}
    if len(degrees) > 1:
        degrees = {sum(unpack_monomial(m, nvars)) for m in out}
        if len(degrees) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degrees)}")
    return HomogeneousPoly(nvars, degrees.pop(), out)


@dataclass(frozen=True)
class PolyKForm:
    """Polynomial k-form: strictly increasing index tuples -> coefficients.

    All nonzero coefficients share one polynomial degree; poly_degree is -1
    for the zero form.
    """

    nvars: int
    k: int
    coeffs: tuple[tuple[tuple[int, ...], HomogeneousPoly], ...]

    @classmethod
    def from_dict(cls, nvars: int, k: int, coeffs) -> "PolyKForm":
        """The one constructor that merges like terms: coeffs is a dict or an
        iterable of (index tuple, polynomial) pairs, and each coefficient is
        built once from all the polynomials at its index tuple."""
        if not 0 <= k <= nvars:
            raise ValueError(f"form degree {k} out of range for {nvars} variables")
        grouped: dict[tuple[int, ...], list] = {}
        for idx, poly in coeffs.items() if isinstance(coeffs, dict) else coeffs:
            if poly.nvars != nvars:
                raise ValueError("coefficient in wrong ring")
            grouped.setdefault(tuple(idx), []).append(poly)
        clean: dict[tuple[int, ...], HomogeneousPoly] = {}
        for idx, polys in grouped.items():
            if len(idx) != k or list(idx) != sorted(set(idx)):
                raise ValueError(f"index tuple {idx} is not strictly increasing of length {k}")
            if any(i < 0 or i >= nvars for i in idx):
                raise ValueError(f"index tuple {idx} out of range")
            poly = polys[0] if len(polys) == 1 else _sum(nvars, polys)
            if not poly.is_zero:
                clean[idx] = poly
        degrees = {p.degree for p in clean.values()}
        if len(degrees) > 1:
            raise ValueError(f"mixed coefficient degrees {sorted(degrees)}")
        return cls(nvars, k, tuple(sorted(clean.items())))

    @classmethod
    def zero(cls, nvars: int, k: int) -> "PolyKForm":
        return cls.from_dict(nvars, k, {})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def poly_degree(self) -> int:
        return self.coeffs[0][1].degree if self.coeffs else -1

    def coefficient(self, indices) -> HomogeneousPoly:
        idx = tuple(indices)
        for i, p in self.coeffs:
            if i == idx:
                return p
        return HomogeneousPoly.zero(self.nvars)

    def __add__(self, other: "PolyKForm") -> "PolyKForm":
        if (self.nvars, self.k) != (other.nvars, other.k):
            raise ValueError("forms of different shape")
        return PolyKForm.from_dict(self.nvars, self.k, self.coeffs + other.coeffs)

    def __neg__(self) -> "PolyKForm":
        return PolyKForm(self.nvars, self.k, tuple((i, -p) for i, p in self.coeffs))

    def __sub__(self, other: "PolyKForm") -> "PolyKForm":
        return self + (-other)

    def scale(self, c) -> "PolyKForm":
        c = Fraction(c)
        if c == 0:
            return PolyKForm.zero(self.nvars, self.k)
        return PolyKForm(self.nvars, self.k, tuple((i, p * c) for i, p in self.coeffs))

    def __str__(self) -> str:
        return form_str(self)


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field sum f_i d/dz_i with homogeneous components of one degree."""

    nvars: int
    components: tuple[HomogeneousPoly, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.nvars:
            raise ValueError("need one component per variable")
        degrees = {c.degree for c in self.components if not c.is_zero}
        if len(degrees) > 1:
            raise ValueError(f"mixed component degrees {sorted(degrees)}")
        for c in self.components:
            if c.nvars != self.nvars:
                raise ValueError("component in wrong ring")

    @property
    def degree(self) -> int:
        for c in self.components:
            if not c.is_zero:
                return c.degree
        return -1

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)


def radial_field(nvars: int) -> PolyVectorField:
    """R = z0 d/dz0 + ... + z_n d/dz_n."""
    return PolyVectorField(
        nvars, tuple(HomogeneousPoly.variable(nvars, i) for i in range(nvars))
    )


def constant_field(nvars: int, vector) -> PolyVectorField:
    """Field with constant components, e.g. a coordinate direction."""
    return PolyVectorField(
        nvars, tuple(HomogeneousPoly.constant(nvars, c) for c in vector)
    )


def volume_form(nvars: int) -> PolyKForm:
    """dz0 ^ dz1 ^ ... ^ dz_n."""
    return PolyKForm.from_dict(
        nvars, nvars, {tuple(range(nvars)): HomogeneousPoly.constant(nvars, 1)}
    )


@dataclass(frozen=True)
class GradedIdeal:
    """Ideal given by homogeneous generators, possibly of mixed degrees."""

    nvars: int
    generators: tuple[HomogeneousPoly, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.is_zero:
                raise ValueError("generators must be nonzero")
            if g.nvars != self.nvars:
                raise ValueError("generator in wrong ring")

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)


def _canonical_indices(indices):
    """(sorted indices, parity of the sorting permutation) for the wedge of
    dz_i over indices; None when an index repeats and the wedge is zero."""
    if len(set(indices)) != len(indices):
        return None
    inversions = sum(1 for a, b in combinations(indices, 2) if a > b)
    return tuple(sorted(indices)), (-1) ** inversions


def wedge(a: PolyKForm, b: PolyKForm) -> PolyKForm:
    if a.nvars != b.nvars:
        raise ValueError("forms in different variable counts")
    if a.k + b.k > a.nvars:
        raise ValueError(f"wedge degree {a.k}+{b.k} exceeds {a.nvars}")
    products = (
        (canon[0], (f * g) * canon[1])
        for left, f in a.coeffs
        for right, g in b.coeffs
        if (canon := _canonical_indices(left + right)) is not None
    )
    return PolyKForm.from_dict(a.nvars, a.k + b.k, products)


def contract(form: PolyKForm, field: PolyVectorField) -> PolyKForm:
    """Interior product i_X(form)."""
    if form.nvars != field.nvars:
        raise ValueError("form and field in different variable counts")
    if form.k < 1:
        raise ValueError("cannot contract a 0-form")
    terms = (
        (indices[:pos] + indices[pos + 1 :], (poly * comp) * ((-1) ** pos))
        for indices, poly in form.coeffs
        for pos, comp in enumerate(field.components[i] for i in indices)
        if not comp.is_zero
    )
    return PolyKForm.from_dict(form.nvars, form.k - 1, terms)


def volume_contract_chain(n: int, fields) -> PolyKForm:
    """i_{fields[0]} i_{fields[1]} ... i_{fields[-1]} i_R Omega on C^{n+1}.

    The radial contraction is innermost, then the fields in reverse list
    order, so fields reads in the same outermost-first order the iterated
    product is written. Contractions with different fields anticommute, so
    the result is annihilated by R and by every field used; the tests check
    both closure identities.
    """
    fields = list(fields)
    if len(fields) > n:
        raise ValueError(f"at most {n} fields on C^{n + 1}")
    nvars = n + 1
    for f in fields:
        if f.nvars != nvars:
            raise ValueError("field in wrong ring")
    result = contract(volume_form(nvars), radial_field(nvars))
    for f in reversed(fields):
        result = contract(result, f)
    return result


def _random_poly(rng: random.Random, nvars: int, degree: int, window: int) -> HomogeneousPoly:
    """Dense random form of the given degree in the first `window` variables,
    coefficients in -3..3; z0^degree if every draw is zero."""
    pad = (0,) * (nvars - window)
    coeffs = {}
    for expo in monomials(window, degree):
        c = rng.randint(-3, 3)
        if c:
            coeffs[expo + pad] = c
    if not coeffs:
        coeffs[(degree,) + (0,) * (nvars - 1)] = 1
    return HomogeneousPoly.from_dict(nvars, coeffs)


def pullback_form(n: int, field_degrees, seed: int) -> PolyKForm:
    """volume_contract_chain(n, fields) for 1..n-1 fields of the given
    degrees, drawn from random.Random(seed). Nonconstant fields are dense in
    the first window coordinates; constant fields take the remaining
    coordinate directions, so the chain is an honest pullback along a
    linear projection."""
    degrees = tuple(field_degrees)
    nvars = n + 1
    _check_variables(nvars)
    if any(d < 0 for d in degrees):
        raise ValueError("field degrees must be nonnegative")
    if not 1 <= len(degrees) <= n - 1:
        raise ValueError(f"need between 1 and {n - 1} fields on P^{n}")
    # At most n - 1 constant fields, so window >= 2.
    window = nvars - sum(1 for d in degrees if d == 0)
    top = max(degrees)
    if comb(top + window - 1, top) > MAX_TERMS:
        raise ValueError(f"a dense degree-{top} field on {window} variables exceeds the cap of {MAX_TERMS} terms")
    rng = random.Random(seed)
    fields = []
    direction = window
    for d in degrees:
        if d == 0:
            vec = [0] * nvars
            vec[direction] = 1
            direction += 1
            fields.append(constant_field(nvars, tuple(vec)))
        else:
            comps = [
                _random_poly(rng, nvars, d, window) if i < window
                else HomogeneousPoly.zero(nvars)
                for i in range(nvars)
            ]
            fields.append(PolyVectorField(nvars, tuple(comps)))
    omega = volume_contract_chain(n, fields)
    if omega.is_zero:
        raise ValueError("degenerate chain: the contracted form vanishes; try another --seed")
    return omega


def coefficient_ideal(form: PolyKForm) -> GradedIdeal:
    """Ideal of all coefficient polynomials; cuts out the locus where the
    form vanishes. Generators are content-normalized and deduplicated."""
    if form.is_zero:
        raise ValueError("zero form has no coefficient ideal")
    seen: list[HomogeneousPoly] = []
    for _, poly in form.coeffs:
        g = poly.content_normalized()
        if g not in seen:
            seen.append(g)
    return GradedIdeal(form.nvars, tuple(seen))


def minors_ideal(one_forms) -> GradedIdeal:
    """Ideal of maximal minors of the coefficient matrix of m one-forms.

    The m x m minors are exactly the coefficients of the m-fold wedge of
    the forms, so this is the coefficient ideal of that wedge: for an
    injective system, the degeneracy ideal. Linearly dependent forms give
    the zero ideal, reported with a warning.
    """
    one_forms = list(one_forms)
    if not one_forms:
        raise ValueError("need at least one form")
    nvars = one_forms[0].nvars
    m = len(one_forms)
    if m > nvars - 1:
        raise ValueError(f"at most {nvars - 1} forms on C^{nvars}")
    for f in one_forms:
        if f.k != 1 or f.nvars != nvars:
            raise ValueError("expected 1-forms in one ring")

    wedge_form = one_forms[0]
    for f in one_forms[1:]:
        wedge_form = wedge(wedge_form, f)
    if wedge_form.is_zero:
        warnings.warn("degenerate system: all maximal minors vanish")
        return GradedIdeal(nvars, ())
    return coefficient_ideal(wedge_form)


def distribution_degree_of_form(form: PolyKForm, n: int) -> int:
    """radial_form_degree, once the radial condition i_R(form) = 0 is
    checked."""
    if not contract(form, radial_field(form.nvars)).is_zero:
        raise ValueError("radial contraction is nonzero; form does not descend to P^n")
    return radial_form_degree(form, n)


def radial_form_degree(form: PolyKForm, n: int) -> int:
    """Degree d of a twisted projective form already known to satisfy the
    radial condition: its coefficients have degree d+1."""
    if form.nvars != n + 1:
        raise ValueError(f"form lives on C^{form.nvars}, not C^{n + 1}")
    if form.is_zero:
        raise ValueError("zero form")
    e = form.poly_degree
    if e < 1:
        raise ValueError("coefficients must have positive degree")
    return e - 1


class FormParseError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|dz\d+|z\d+|[+\-*^()])")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormParseError(f"unexpected character at position {pos}: {text[pos]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    """Terms are <poly factors> <dz chain>, joined by + and -. Polynomial
    factors are numbers, variables with optional ^power, and parenthesized
    sums; * between factors is optional. dz indices wedge with ^."""

    def __init__(self, tokens, nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise FormParseError(f"{message} (token {self.pos})")

    def parse_form(self) -> PolyKForm:
        terms = []
        k = None
        first = True
        while True:
            sign = 1
            tok = self.peek()
            if tok in ("+", "-"):
                self.next()
                sign = -1 if tok == "-" else 1
            elif not first:
                self.fail(f"expected + or - before {tok!r}")
            elif tok is None:
                self.fail("empty input")
            poly, indices = self.parse_term()
            if k is None:
                k = len(indices)
            if len(indices) != k:
                self.fail(f"mixed form degrees {k} and {len(indices)}")
            canon = _canonical_indices(indices)
            if canon is not None:
                idx, parity = canon
                terms.append((idx, poly * (sign * parity)))
            first = False
            if self.peek() is None:
                break
        return PolyKForm.from_dict(self.nvars, k, terms)

    def parse_product(self) -> HomogeneousPoly | None:
        """Factors up to the next +, -, ) or dz token; None if there are none."""
        poly = None
        while True:
            tok = self.peek()
            if tok == "*":
                self.next()
                continue
            if tok is None or tok in ("+", "-", ")") or tok.startswith("dz"):
                return poly
            factor = self.parse_factor()
            poly = factor if poly is None else poly * factor

    def parse_term(self):
        """(coefficient, dz indices); the indices are () for a 0-form term."""
        poly = self.parse_product()
        indices = self.parse_chain() if (self.peek() or "").startswith("dz") else ()
        if poly is None and not indices:
            self.fail("empty term")
        if poly is None:
            poly = HomogeneousPoly.constant(self.nvars, 1)
        return poly, indices

    def parse_factor(self) -> HomogeneousPoly:
        tok = self.next()
        if tok == "(":
            poly = self.parse_poly_sum()
            if self.next() != ")":
                self.fail("missing )")
            return poly
        if tok is None:
            self.fail("unexpected token None")
        if tok[0].isdigit():
            try:
                c = read_number(tok, "a coefficient")
            except ZeroDivisionError:
                self.fail(f"zero denominator in {tok}")
            return HomogeneousPoly.constant(self.nvars, c)
        if tok[0] != "z":
            self.fail(f"unexpected token {tok!r}")
        i = variable_index(tok[1:])
        if i >= self.nvars:
            self.fail(f"variable z{i} out of range for {self.nvars} variables")
        if self.peek() != "^":
            return HomogeneousPoly.variable(self.nvars, i)
        self.next()
        power = self.next()
        if power is None or not power.isdigit():
            self.fail("expected an integer power")
        digits = power.lstrip("0") or "0"
        if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
            self.fail(f"power {digits} exceeds the degree cap of {MAX_DEGREE}")
        e = int(digits)
        return HomogeneousPoly(self.nvars, e, {e << (FIELD_BITS * i): 1})

    def parse_poly_sum(self) -> HomogeneousPoly:
        summands = []
        first = True
        while True:
            sign = 1
            tok = self.peek()
            if tok in ("+", "-"):
                self.next()
                sign = -1 if tok == "-" else 1
            elif not first:
                break
            term = self.parse_product()
            if (self.peek() or "").startswith("dz"):
                self.fail("dz inside a coefficient")
            if term is None:
                self.fail("empty summand in coefficient")
            summands.append(term * sign)
            first = False
            if self.peek() not in ("+", "-"):
                break
        return _sum(self.nvars, summands)

    def parse_chain(self):
        indices = []
        tok = self.next()
        while True:
            if tok is None or not tok.startswith("dz"):
                self.fail(f"expected dz token, got {tok!r}")
            i = variable_index(tok[2:])
            if i >= self.nvars:
                self.fail(f"dz{i} out of range for {self.nvars} variables")
            indices.append(i)
            if self.peek() != "^":
                break
            self.next()
            tok = self.next()
            if tok is not None and re.fullmatch(r"\d+", tok):
                self.fail("dz factors cannot carry powers")
        return tuple(indices)


def parse_form(text: str, nvars: int) -> PolyKForm:
    _check_variables(nvars)
    tokens = _tokenize(text)
    if not tokens:
        raise FormParseError("empty input")
    return _Parser(tokens, nvars).parse_form()


def parse_poly(text: str, nvars: int) -> HomogeneousPoly:
    form = parse_form(text, nvars)
    if form.k != 0:
        raise FormParseError("expected a polynomial, found differentials")
    return form.coefficient(())


def _monomial_str(expo: tuple[int, ...], coeff: Fraction) -> str:
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


def signed_sum(terms) -> str:
    """Join (negative, body) pairs as a signed sum: the first term takes a
    bare "-", later terms " - " or " + "; no terms at all give "0"."""
    parts = []
    for negative, body in terms:
        if parts:
            parts.append(f" - {body}" if negative else f" + {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return "".join(parts) or "0"


def poly_str(poly: HomogeneousPoly) -> str:
    return signed_sum((coeff < 0, _monomial_str(expo, coeff)) for expo, coeff in poly.terms)


def _form_term(indices: tuple[int, ...], poly: HomogeneousPoly) -> tuple[bool, str]:
    """(negative, body) of one form term: a single-monomial coefficient is
    inline and carries the sign, a longer one is parenthesized."""
    chain = "^".join(f"dz{i}" for i in indices)
    if len(poly.packed) > 1:
        return False, f"({poly_str(poly)}) {chain}"
    (expo, coeff), = poly.terms
    body = _monomial_str(expo, coeff)
    return coeff < 0, chain if body == "1" else f"{body} {chain}"


def form_str(form: PolyKForm) -> str:
    """Canonical text: terms sorted by index tuple, single-monomial
    coefficients inline, multi-term coefficients parenthesized. Parsing the
    output reproduces the form exactly."""
    if form.k == 0:
        return poly_str(form.coefficient(()))
    return signed_sum(_form_term(indices, poly) for indices, poly in form.coeffs)
