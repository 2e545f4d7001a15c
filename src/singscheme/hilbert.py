"""Exact Hilbert functions and scheme degree/dimension from graded ideals.

Everything is linear algebra per degree: the dimension of the degree-t
piece of an ideal is the rank of the Macaulay matrix whose rows are the
monomial multiples of the generators, computed with fraction-free integer
elimination and deterministic pivoting. The Hilbert function is then
HF(t) = (number of degree-t monomials) - rank, and the eventual polynomial
is interpolated and accepted after n+2 consecutive exact fits, provided
those n+2 twists all lie at or above the largest generator degree and its
leading coefficient times dim! is a positive integer (a scheme's degree).
Below the largest generator degree the ideal can miss whole degrees, so
values there may match the ambient polynomial by accident. No Groebner
bases, no saturation; unsaturated input only shifts where stabilization
begins.

Escalation has one owner, stable_profile: it starts at
t_max = min(t_cap, n + 2 + max generator degree), widens the range by 4
until the profile is accepted, reuses every value already computed, and
raises UnstabilizedError at t_cap. The n+2-fit rule is a heuristic, not a
proof: a Hilbert function can agree with a polynomial on n+2 consecutive
twists and still leave it later. A Gotzmann persistence certificate would
make acceptance a proof; it is not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from .forms import GradedIdeal, monomials


class UnstabilizedError(RuntimeError):
    """The Hilbert function did not reach its polynomial within the range."""


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
    """dim of the degree-t graded piece of the ideal."""
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


def hilbert_function(ideal: GradedIdeal, t: int) -> int:
    n = ideal.nvars - 1
    return comb(n + t, n) - graded_piece_dim(ideal, t)


def _interpolate(ts, vals):
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


def _poly_eval(poly, t: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * t + c
    return acc


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert function values with, once certified, the eventual
    polynomial (ascending rational coefficients), the first twist of
    certified agreement, and the scheme's dimension and degree. The
    polynomial is integer-valued; its coefficients are stored exactly as
    fractions. An unstabilized profile has polynomial None."""

    ideal: GradedIdeal
    t_max: int
    values: dict
    polynomial: tuple | None = None
    stable_from: int | None = None
    scheme_dim: int | None = None
    scheme_deg: int | None = None

    @property
    def stabilized(self) -> bool:
        return self.polynomial is not None

    def to_json(self) -> dict:
        return {
            "values": {str(t): v for t, v in sorted(self.values.items())},
            "polynomial": None
            if self.polynomial is None
            else [str(c) for c in self.polynomial],
            "dim": self.scheme_dim,
            "deg": self.scheme_deg,
            "stable_from": self.stable_from,
        }

    def deficiency(self) -> list[tuple[int, int]]:
        """(t, HP(t) - HF(t)) at the twists 0 <= t < stable_from where the
        Hilbert function falls short of the polynomial."""
        if not self.stabilized:
            raise ValueError("an unstabilized profile has no Hilbert polynomial")
        out = []
        for t in range(self.stable_from):
            gap = _poly_eval(self.polynomial, t) - self.values[t]
            if gap > 0:
                out.append((t, int(gap)))
        return out


def _profile_from_values(ideal: GradedIdeal, t_max: int, values) -> HilbertProfile:
    n = ideal.nvars - 1
    stored = {t: values[t] for t in range(t_max + 1)}
    if t_max < n + 2 or t_max - n - 1 < max(ideal.degrees, default=0):
        # Too few values, or the fitted twists start below a generator.
        return HilbertProfile(ideal, t_max, stored)
    nodes = list(range(t_max - n, t_max + 1))
    poly = _interpolate(nodes, [values[t] for t in nodes])
    fit_from = t_max + 1
    for t in range(t_max, -1, -1):
        if _poly_eval(poly, t) != values[t]:
            break
        fit_from = t
    if t_max - fit_from + 1 < n + 2:
        return HilbertProfile(ideal, t_max, stored)
    if not poly:
        return HilbertProfile(ideal, t_max, stored, poly, fit_from, -1, 0)
    dim = len(poly) - 1
    deg = poly[-1] * factorial(dim)
    if deg.denominator != 1 or deg <= 0:
        # No scheme has this Hilbert polynomial: not stabilized yet.
        return HilbertProfile(ideal, t_max, stored)
    return HilbertProfile(ideal, t_max, stored, poly, fit_from, dim, int(deg))


def hilbert_profile(ideal: GradedIdeal, t_max: int) -> HilbertProfile:
    """Hilbert function on [0, t_max] plus the accepted polynomial.

    The polynomial is interpolated through the last n+1 values and accepted
    only when at least n+2 consecutive values ending at t_max lie on it,
    the first of those n+2 twists is at least the largest generator degree,
    and its leading coefficient gives a positive integer degree; otherwise
    the profile comes back unstabilized (polynomial None), never a guess."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    values = {t: hilbert_function(ideal, t) for t in range(t_max + 1)}
    return _profile_from_values(ideal, t_max, values)


def stable_profile(ideal: GradedIdeal, t_cap: int = 40) -> HilbertProfile:
    """The first accepted profile on the escalation described in the module
    docstring; UnstabilizedError if none is accepted by t_cap."""
    n = ideal.nvars - 1
    t_max = min(t_cap, n + 2 + max(ideal.degrees, default=0))
    values: dict[int, int] = {}
    while True:
        for t in range(len(values), t_max + 1):
            values[t] = hilbert_function(ideal, t)
        profile = _profile_from_values(ideal, t_max, values)
        if profile.stabilized:
            return profile
        if t_max >= t_cap:
            raise UnstabilizedError(
                f"Hilbert function not certified polynomial by t={t_cap}"
            )
        t_max = min(t_cap, t_max + 4)


def scheme_degree_dim(ideal: GradedIdeal, t_cap: int = 40):
    """(dimension, degree) of the subscheme cut out by the ideal; the empty
    scheme reports (-1, 0)."""
    profile = stable_profile(ideal, t_cap)
    return profile.scheme_dim, profile.scheme_deg
