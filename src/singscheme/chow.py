"""Exact intersection arithmetic on projective n-space.

Split bundles on P^n, stored as their twist counts, and the closed-form
degree of the singular scheme of a split distribution: one coefficient of
the Chern series c(T)/c(F) in the Chow ring Z[h]/(h^{n+1}), read off as a
sum of complete homogeneous polynomials in the twists. The Porteous degree
of split Pfaff data is the same coefficient up to sign. All coefficients
are arbitrary-precision integers; no floating point is used anywhere. The
low-degree split-Pfaff classification rows live here too, as data whose
foliation degrees are derived from the Pfaff twists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, log10


def check_ambient_dimension(n: int) -> None:
    """The one owner of the rule that P^n has dimension n >= 1."""
    if n < 1:
        raise ValueError("ambient dimension must be positive")


def check_pfaff_dimension(r: int) -> None:
    """The one owner of the rule that Pfaff data has dimension r >= 1."""
    if r < 1:
        raise ValueError(f"Pfaff data needs dimension r >= 1, got r={r}")


# Largest n of the closed-form side, whose cost grows about as n^2: a split
# tangent chase of O(-3..2) at n = 300 takes 1.8 s and 141 MB (Python
# 3.11, one core of a shared 2-core host).
MAX_CLOSED_FORM_N = 300


def check_closed_form_dimension(n: int) -> None:
    """1 <= n <= MAX_CLOSED_FORM_N, checked before SplitBundle, VirtualSheaf
    or a degree formula builds anything; forms has MAX_VARIABLES instead."""
    check_ambient_dimension(n)
    if n > MAX_CLOSED_FORM_N:
        raise ValueError(f"ambient dimension {n} exceeds the cap of {MAX_CLOSED_FORM_N}")


# Python's own default limit on the digits of an int read from a string
# (sys.int_info.default_max_str_digits), for each side of a fraction alike.
MAX_LITERAL_DIGITS = 4300


def read_number(text: str, what: str):
    """The int, or the Fraction of an a/b literal, that text spells. A side
    of more than MAX_LITERAL_DIGITS digits is refused by its digit count
    before int() or Fraction() reads it; the message names what was read,
    not its digits. It lives in the one module every command imports, so
    reading a number loads nothing more."""
    if len(text) > MAX_LITERAL_DIGITS:
        digits = max(len(side.lstrip("-")) for side in text.split("/"))
        if digits > MAX_LITERAL_DIGITS:
            raise ValueError(f"{what} of {digits} digits exceeds the cap of {MAX_LITERAL_DIGITS} digits")
    if "/" in text:
        from fractions import Fraction
        return Fraction(text)
    return int(text)


# Most work the degree formula takes on: r x (n - r + 1) x the digits of
# the largest |d_i|, since each of its n - r + 1 sweeps multiplies in all r
# entries. At n = 300, 150 entries of 284 digits (6.4 million) took 1.9 s
# and one entry of 143 digits (42,900) 0.02 s (Python 3.11, one core of a
# shared 2-core host).
MAX_DEGREE_WORK = 10 * MAX_LITERAL_DIGITS


class PorteousInapplicableError(ValueError):
    """The expected-codimension hypothesis behind a degeneracy-degree
    computation is violated (the candidate degree came out non-positive)."""


@dataclass(frozen=True, init=False, repr=False)
class SplitBundle:
    """A direct sum of line bundles O(a_1) + ... + O(a_m) on P^n.

    Stored as counts: one (twist, multiplicity) pair per distinct twist,
    descending, so two bundles are equal exactly when they are isomorphic.
    The descending tuple of all twists is expanded only when read.
    """

    n: int
    counts: tuple[tuple[int, int], ...]

    def __init__(self, n: int, twists) -> None:
        self._set_counts(n, Counter(int(a) for a in twists))

    @classmethod
    def from_counts(cls, n: int, mults: dict[int, int]) -> "SplitBundle":
        """The bundle (+) O(a)^m over the items (a, m) of mults, m > 0."""
        bundle = cls.__new__(cls)
        bundle._set_counts(n, mults)
        return bundle

    def _set_counts(self, n: int, mults: dict[int, int]) -> None:
        check_closed_form_dimension(n)
        if not mults:
            raise ValueError("a split bundle has rank at least one")
        if any(m <= 0 for m in mults.values()):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", tuple(sorted(mults.items(), reverse=True)))

    @cached_property
    def twists(self) -> tuple[int, ...]:
        return tuple(a for a, m in self.counts for _ in range(m))

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.counts)

    @property
    def c1(self) -> int:
        return sum(a * m for a, m in self.counts)

    def __repr__(self) -> str:
        return f"SplitBundle(n={self.n!r}, twists={self.twists!r})"

    def __str__(self) -> str:
        return "+".join(f"O({a})" if m == 1 else f"O({a})^{m}" for a, m in self.counts)


@dataclass(frozen=True)
class DistributionParams:
    """Numeric profile (n, r, d) of a distribution on P^n.

    r is the dimension of the distribution (the rank of its tangent sheaf)
    and d its degree, defined through the tangency divisor with a general
    linear P^{n-r}. The degree is tied to the determinant convention
    det(F*) = O(d - r), equivalently c1(F) = r - d; it is NOT in general the
    sum of twists of a split tangent sheaf.
    """

    n: int
    r: int
    d: int

    def __post_init__(self) -> None:
        if not 1 <= self.r <= self.n - 1:
            raise ValueError("need 1 <= r <= n-1")
        if self.d < 0:
            raise ValueError("degree must be nonnegative")

    @classmethod
    def from_pfaff(cls, n: int, pfaff: SplitBundle) -> "DistributionParams":
        """Profile of the distribution whose Pfaff bundle is the given split
        bundle of rank n - r: c1(E) = r - d - n - 1 determines d."""
        r = n - pfaff.rank
        return cls(n, r, r - n - 1 - pfaff.c1)


def _complete_homogeneous(max_degree: int, values) -> list[int]:
    """h_0, ..., h_{max_degree} of the given integers, where h_i is the sum
    of all degree-i monomials with repetition (coefficient of x^i in
    prod_j 1/(1 - v_j x))."""
    coeffs = [1] + [0] * max_degree
    for v in values:
        for i in range(1, max_degree + 1):
            coeffs[i] += v * coeffs[i - 1]
    return coeffs


def _digits(x: int) -> int:
    """The decimal digits of x >= 1, exactly: log10's float estimate moved
    by one where it rounds across a power of ten. str(x) would refuse an x
    of more than MAX_LITERAL_DIGITS digits."""
    d = int(log10(x)) + 1
    return d - (10 ** (d - 1) > x) + (10**d <= x)


def singular_degree_formula(n: int, r: int, d_list) -> int:
    """Degree of the singular scheme of a distribution with split tangent
    sheaf ⊕_{i=1}^{r} O(-d_i):

        sum_{i=0}^{n-r+1} C(n+1, n-r+1-i) * h_i(d_1, ..., d_r)

    with h_i the complete homogeneous symmetric polynomial. Equals the
    h^{n-r+1} coefficient of c(T)/c(⊕O(-d_i)).

    The d_i may be any integers: positivity of every d_i is the hypothesis
    under which the singular scheme is nonempty of pure dimension r-1 and
    the number is an honest degree, but the identity itself is polynomial.
    In particular pullback-type bundles contribute entries d_i = -1.
    """
    check_closed_form_dimension(n)
    d_list = [int(d) for d in d_list]
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    if len(d_list) != r:
        raise ValueError(f"expected {r} twist entries, got {len(d_list)}")
    m = n - r + 1
    digits = _digits(max(1, *map(abs, d_list)))
    if r * m * digits > MAX_DEGREE_WORK:
        raise ValueError(
            f"degree formula work r x (n - r + 1) x (digits of the largest |d_i|) = {r} x {m} x {digits}"
            f" exceeds the cap of {MAX_DEGREE_WORK}"
        )
    h = _complete_homogeneous(m, d_list)
    return sum(comb(n + 1, m - i) * h[i] for i in range(m + 1))


def pullback_degree(n: int, k: int, d: int) -> int:
    """Degree of the singular scheme of a codimension-k pullback of a
    degree-d foliation by curves under a generic linear projection to
    P^{k+1}: the geometric sum d^{k+1} + d^k + ... + d + 1, in closed form."""
    check_closed_form_dimension(n)
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 1:
        return k + 2
    return (d ** (k + 2) - 1) // (d - 1)


def porteous_singular_degree(n: int, pfaff: SplitBundle) -> int:
    """Degree of the degeneracy locus of a Pfaff system E -> Omega^1 with
    split E, by Porteous: the h^codim coefficient of c(Omega^1)/c(E) where
    codim = n - rank(E) + 1. Substituting h -> -h turns c(Omega^1)/c(E)
    into c(T)/c(E*), so the coefficient is (-1)^codim times the degree
    formula with the twists of E as its entries.

    Raises PorteousInapplicableError when the coefficient is non-positive,
    since then the expected-codimension hypothesis behind the formula
    cannot hold; clamping would hide that.
    """
    if pfaff.n != n:
        raise ValueError("bundle does not live on P^n")
    if pfaff.rank > n - 1:
        raise ValueError("Pfaff bundle rank must be at most n-1")
    codim = n - pfaff.rank + 1
    degree = (-1) ** codim * singular_degree_formula(n, pfaff.rank, pfaff.twists)
    if degree <= 0:
        raise PorteousInapplicableError(
            "formula inapplicable (expected-codimension hypothesis "
            f"violated): candidate degree {degree} in codimension {codim}"
        )
    return degree


@dataclass(frozen=True)
class ClassificationEntry:
    """One row of the low-degree split-Pfaff classification; the foliation
    degree is derived from the Pfaff twists."""

    n: int
    pfaff_twists: tuple[int, ...]
    sing_description: str
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        pfaff = SplitBundle(self.n, self.pfaff_twists)
        object.__setattr__(self, "degree", DistributionParams.from_pfaff(self.n, pfaff).d)


CLASSIFICATION = (
    ClassificationEntry(4, (-2, -2, -2), "smooth projected Veronese surface"),
    ClassificationEntry(4, (-2, -2, -3), "K3 surface of genus 7"),
    ClassificationEntry(5, (-2, -2, -2, -2), "a scroll over a plane cubic surface"),
    ClassificationEntry(5, (-2, -2, -2, -3), "P(R_2) ∩ Bl_{P^2} P^8"),
)


def classification_entry(n: int, degree: int) -> ClassificationEntry:
    """The CLASSIFICATION row for (n, degree), else ValueError."""
    for entry in CLASSIFICATION:
        if (entry.n, entry.degree) == (n, degree):
            return entry
    known = ", ".join(f"(n={e.n}, degree={e.degree})" for e in CLASSIFICATION)
    raise ValueError(f"no classification row for n={n}, degree={degree}; known: {known}")
