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
equality is structural. One product kernel, _accumulate, is behind *,
contract and wedge: each adds its products in place, one dict per output
polynomial, after one check of the caps (_check_product).
"""

from __future__ import annotations

import random
import re
import warnings
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm

# The one literal reader and the one n >= 1 rule, shared with every command;
# the parser's cap is importable from here too.
from .chow import check_ambient_dimension, read_number, refuse_write


# Monomial packing (Monagan-Pearce 2009): the exponent of z_i sits in bits
# [i*FIELD_BITS, (i+1)*FIELD_BITS) of one int, so a monomial product is one
# integer add. Every polynomial degree is at most MAX_DEGREE, checked before
# anything is built, so no field ever carries into the next one and the top
# bit of each field stays clear: divisibility is one subtraction checked
# against those guard bits. Among monomials of one degree, a smaller packed
# int is the larger monomial in grevlex with z0 > z1 > ... The cap bounds
# the work of one input too: `form sing` on z0^d dz1 - z1 z0^(d-1) dz0 on P^2
# takes about 0.1 s at d = 999. MAX_VARIABLES bounds the ring, MAX_TERMS the
# size of a product and MAX_PRODUCT_WORK its count of coefficient products,
# each checked before anything is built.
FIELD_BITS = 16
MAX_DEGREE = 1000
MAX_VARIABLES = 1000
MAX_TERMS = 100_000
MAX_PRODUCT_WORK = 1_000_000
# The coefficient products that one parse_form may take over all of its
# products, since a chain of factors keeps each one under the caps above:
# 165 factors (z0+z1+z2) take 2.29 million and parse in 0.9 s (Python 3.11,
# one core of a shared 2-core host), and a 166th is refused.
MAX_PARSE_WORK = 2_300_000
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
    """Raise ValueError unless 2 <= nvars <= MAX_VARIABLES: P^n needs n >= 1."""
    check_ambient_dimension(nvars - 1)
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


def _check_product(nvars: int, degree: int, len_a: int, len_b: int) -> None:
    """Raise ValueError when a product of degree `degree` from len_a- and
    len_b-term factors would exceed MAX_DEGREE, MAX_TERMS or, in its
    len_a * len_b coefficient products, MAX_PRODUCT_WORK."""
    _check_degree(degree)
    work = len_a * len_b
    if work <= MAX_TERMS:
        return
    factors = f"product of {max(len_a, len_b)}- and {min(len_a, len_b)}-term polynomials"
    # the product has at most min(len_a * len_b, C(degree + n, n)) terms
    if comb(degree + nvars - 1, degree) > MAX_TERMS:
        raise ValueError(f"{factors} exceeds the cap of {MAX_TERMS} terms")
    if work > MAX_PRODUCT_WORK:
        raise ValueError(f"{factors} exceeds the cap of {MAX_PRODUCT_WORK} coefficient products")


def _accumulate(out: dict, a: dict, b: dict, sign: int) -> dict:
    """Add sign * c1 * c2 at m1 + m2 to out for each term pair of a and b."""
    get = out.get
    for m2, c2 in b.items():
        c2 *= sign
        for m1, c1 in a.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return out


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
            _check_product(self.nvars, degree, len(self.packed), len(other.packed))
            return HomogeneousPoly(self.nvars, degree, _canonical(_accumulate({}, self.packed, other.packed, 1)))
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


class PolyKForm:
    """Polynomial k-form: strictly increasing index tuples -> coefficients.

    All nonzero coefficients share one polynomial degree; poly_degree is -1
    for the zero form. A form is immutable, equal and hashed by its three
    fields; it is no tuple, so its only arithmetic is its own.
    """

    __slots__ = ("nvars", "k", "coeffs")

    def __init__(self, nvars: int, k: int, coeffs: tuple[tuple[tuple[int, ...], HomogeneousPoly], ...]):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", coeffs)

    __setattr__ = __delattr__ = refuse_write

    def __reduce__(self) -> tuple:
        return PolyKForm, (self.nvars, self.k, self.coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nvars, self.k, self.coeffs) == (other.nvars, other.k, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.nvars, self.k, self.coeffs))

    def __repr__(self) -> str:
        return f"PolyKForm(nvars={self.nvars!r}, k={self.k!r}, coeffs={self.coeffs!r})"

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

    def __str__(self) -> str:
        return form_str(self)


class PolyVectorField(namedtuple("PolyVectorField", "nvars components")):
    """Vector field sum f_i d/dz_i with homogeneous components of one degree."""

    __slots__ = ()

    def __new__(cls, nvars: int, components: tuple[HomogeneousPoly, ...]) -> "PolyVectorField":
        if len(components) != nvars:
            raise ValueError("need one component per variable")
        degrees = {c.degree for c in components if not c.is_zero}
        if len(degrees) > 1:
            raise ValueError(f"mixed component degrees {sorted(degrees)}")
        for c in components:
            if c.nvars != nvars:
                raise ValueError("component in wrong ring")
        return tuple.__new__(cls, (nvars, components))

    @property
    def degree(self) -> int:
        for c in self.components:
            if not c.is_zero:
                return c.degree
        return -1


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


class GradedIdeal(namedtuple("GradedIdeal", "nvars generators")):
    """Ideal given by homogeneous generators, possibly of mixed degrees."""

    __slots__ = ()

    def __new__(cls, nvars: int, generators: tuple[HomogeneousPoly, ...]) -> "GradedIdeal":
        for g in generators:
            if g.is_zero:
                raise ValueError("generators must be nonzero")
            if g.nvars != nvars:
                raise ValueError("generator in wrong ring")
        return tuple.__new__(cls, (nvars, generators))

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


def _form_of_sums(nvars: int, k: int, degree: int, sums: dict) -> PolyKForm:
    """The k-form of packed sums of degree `degree` at strictly increasing
    index tuples; valid by construction, so only zero sums are dropped."""
    return PolyKForm(nvars, k, tuple(
        (idx, HomogeneousPoly(nvars, degree, packed))
        for idx, raw in sorted(sums.items())
        if (packed := _canonical(raw))
    ))


def wedge(a: PolyKForm, b: PolyKForm) -> PolyKForm:
    if a.nvars != b.nvars:
        raise ValueError("forms in different variable counts")
    if a.k + b.k > a.nvars:
        raise ValueError(f"wedge degree {a.k}+{b.k} exceeds {a.nvars}")
    degree = a.poly_degree + b.poly_degree
    sums: dict = {}
    for left, f in a.coeffs:
        for right, g in b.coeffs:
            if (canon := _canonical_indices(left + right)) is not None:
                _check_product(a.nvars, degree, len(f.packed), len(g.packed))
                _accumulate(sums.setdefault(canon[0], {}), f.packed, g.packed, canon[1])
    return _form_of_sums(a.nvars, a.k + b.k, degree, sums)


def contract(form: PolyKForm, field: PolyVectorField) -> PolyKForm:
    """Interior product i_X(form)."""
    if form.nvars != field.nvars:
        raise ValueError("form and field in different variable counts")
    if form.k < 1:
        raise ValueError("cannot contract a 0-form")
    degree = form.poly_degree + field.degree
    sums: dict = {}
    for indices, poly in form.coeffs:
        for pos, i in enumerate(indices):
            if comp := field.components[i].packed:
                _check_product(form.nvars, degree, len(poly.packed), len(comp))
                _accumulate(sums.setdefault(indices[:pos] + indices[pos + 1 :], {}), poly.packed, comp, (-1) ** pos)
    return _form_of_sums(form.nvars, form.k - 1, degree, sums)


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
    """The tokens of text, in one pass. Tokens hold no whitespace and never
    overlap, so they cover text when their lengths add up to its count of
    other characters; otherwise the match is walked to where it fails, and
    the first character there that is not whitespace is named."""
    tokens = _TOKEN.findall(text)
    if sum(map(len, tokens)) == len("".join(text.split())):
        return tokens
    pos = 0
    while m := _TOKEN.match(text, pos):
        pos = m.end()
    pos = len(text) - len(text[pos:].lstrip())
    raise FormParseError(f"unexpected character at position {pos}: {text[pos]!r}")


class _Parser:
    """Terms are <poly factors> <dz chain>, joined by + and -. Polynomial
    factors are numbers, variables with optional ^power, and parenthesized
    sums; * between factors is optional. dz indices wedge with ^. The token
    list ends in None, where every read either stops or fails."""

    def __init__(self, tokens, nvars: int):
        self.tokens = [*tokens, None]
        self.pos = 0
        self.nvars = nvars
        self.work = 0

    def times(self, a: HomogeneousPoly, b: HomogeneousPoly) -> HomogeneousPoly:
        """a * b, whose len_a * len_b coefficient products count against
        the MAX_PARSE_WORK of the whole parse once the product's own caps
        have passed."""
        out = a * b
        self.work += len(a.packed) * len(b.packed)
        if self.work > MAX_PARSE_WORK:
            raise ValueError(f"the products of the form exceed the cap of {MAX_PARSE_WORK} coefficient products per parse")
        return out

    def fail(self, message: str):
        raise FormParseError(f"{message} (token {self.pos})")

    def parse_form(self) -> PolyKForm:
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
            poly = self.parse_product()
            indices = self.parse_chain() if (tokens[self.pos] or "").startswith("dz") else ()
            if poly is None and not indices:
                self.fail("empty term")
            k = len(indices) if k is None else k
            if len(indices) != k:
                self.fail(f"mixed form degrees {k} and {len(indices)}")
            if (canon := _canonical_indices(indices)) is not None:
                coeff = HomogeneousPoly.constant(self.nvars, 1) if poly is None else poly
                terms.append((canon[0], coeff * (sign * canon[1])))
            if tokens[self.pos] is None:
                return PolyKForm.from_dict(self.nvars, k, terms)

    def parse_product(self) -> HomogeneousPoly | None:
        """Factors up to the next +, -, ) or dz token; None if there are none.
        Numbers and powers z_i^e fold into one (packed monomial, coefficient,
        degree) term; only a parenthesized sum takes a polynomial product, and
        a term 1 after one multiplies nothing. The written degree is capped
        even at coefficient 0; a zero sum adds 0."""
        tokens = self.tokens
        poly, found = None, False
        mono, coeff, degree, written = 0, 1, 0, 0
        while True:
            tok = tokens[self.pos]
            if tok is None or tok in ("+", "-", ")") or tok.startswith("dz"):
                break
            self.pos += 1
            if tok == "*":
                continue
            found = True
            if tok == "(":
                factor = self.parse_poly_sum()
                self.pos += 1
                if tokens[self.pos - 1] != ")":
                    self.fail("missing )")
                poly = self.times(self.times_term(poly, mono, coeff, degree), factor)
                mono, coeff, degree = 0, 1, 0
                written += max(factor.degree, 0)
            elif tok[0].isdigit():
                try:
                    coeff *= read_number(tok, "a coefficient")
                except ZeroDivisionError:
                    self.fail(f"zero denominator in {tok}")
            elif tok[0] != "z":
                self.fail(f"unexpected token {tok!r}")
            else:
                i = variable_index(tok[1:])
                if i >= self.nvars:
                    self.fail(f"variable z{i} out of range for {self.nvars} variables")
                e = 1
                if tokens[self.pos] == "^":
                    power = tokens[self.pos + 1]
                    self.pos += 2
                    if not (power or "").isdigit():
                        self.fail("expected an integer power")
                    digits = power.lstrip("0") or "0"
                    if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                        self.fail(f"power {digits} exceeds the degree cap of {MAX_DEGREE}")
                    e = int(digits)
                mono += e << (FIELD_BITS * i)
                degree += e
                written += e
            _check_degree(written)
        if not found:
            return None
        return self.times_term(poly, mono, coeff, degree)

    def times_term(self, poly: HomogeneousPoly | None, mono: int, coeff, degree: int) -> HomogeneousPoly:
        """poly times the term coeff * mono: that term where poly is None,
        and poly itself where the term is 1."""
        if poly is not None and not mono and coeff == 1:
            return poly
        packed = _canonical({mono: coeff})
        term = HomogeneousPoly(self.nvars, degree if packed else -1, packed)
        return term if poly is None else self.times(poly, term)

    def parse_poly_sum(self) -> HomogeneousPoly:
        summands = []
        while True:
            tok = self.tokens[self.pos]
            sign = -1 if tok == "-" else 1
            if tok in ("+", "-"):
                self.pos += 1
            term = self.parse_product()
            if (self.tokens[self.pos] or "").startswith("dz"):
                self.fail("dz inside a coefficient")
            if term is None:
                self.fail("empty summand in coefficient")
            summands.append(term * sign)
            if self.tokens[self.pos] not in ("+", "-"):
                return _sum(self.nvars, summands)

    def parse_chain(self):
        indices = []
        while True:
            tok = self.tokens[self.pos]
            self.pos += 1
            if not (tok or "").startswith("dz"):
                self.fail(f"expected dz token, got {tok!r}")
            i = variable_index(tok[2:])
            if i >= self.nvars:
                self.fail(f"dz{i} out of range for {self.nvars} variables")
            indices.append(i)
            if self.tokens[self.pos] != "^":
                return tuple(indices)
            self.pos += 1
            if (self.tokens[self.pos] or "").isdigit():
                self.pos += 1
                self.fail("dz factors cannot carry powers")


def parse_form(text: str, nvars: int | None = None) -> PolyKForm:
    """The form that text spells on C^nvars. Without nvars the ring is the
    smallest that holds every z<i> and dz<i> of the text."""
    tokens = _tokenize(text)
    if nvars is None:
        nvars = 1 + max((variable_index(t.lstrip("dz")) for t in tokens if t[0] in "dz"), default=-1)
        if nvars == 0:
            raise FormParseError("cannot infer the ambient dimension from the form; pass --n")
    _check_variables(nvars)
    if not tokens:
        raise FormParseError("empty input")
    return _Parser(tokens, nvars).parse_form()


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
