"""Exact Hilbert functions and scheme degree/dimension from graded ideals.

S/I and S/in(I) have the same Hilbert function, so the Hilbert series of
an ideal is that of its leading-monomial ideal in any term order. This
module computes a Groebner basis in grevlex by a homogeneous Buchberger
algorithm over Z: fraction-free, each remainder made primitive, S-pairs
taken by degree (the sugar strategy for homogeneous input) and pruned by
the Gebauer-Moeller product and chain criteria. The series of the minimal
leading monomials is N(t)/(1-t)^(n+1); the numerator N comes from the pivot
recursion N(J) = N(J + x_i^k) + t^k N(J : x_i^k) (Bayer-Stillman 1992,
Bigatti 1997).

The rest is exact integer arithmetic on N: HF is n+1 running sums of N, HP
comes from the Taylor coefficients of N at t = 1, and the gap
HP(t) - HF(t) = (-1)^n sum_{j > t+n} N_j C(j-t-1, n) gives stable_from (the
first twist from which HF = HP) and the deficiency. No saturation: an
unsaturated ideal only moves stable_from.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .forms import FIELD_BITS, GradedIdeal, pack_monomial, unpack_monomial

# Monomials are the kernel's packed ints (forms.pack_monomial). Generators
# stay within its degree cap, but S-pairs can go beyond it; a field stays
# clear of its guard bit while the pair degree is below _MAX_DEGREE.
_MAX_DEGREE = 1 << (FIELD_BITS - 1)

# Most work one leading_monomials call may do, in the units _step counts:
# terms updated times 64-bit words of the two multipliers, so the count
# grows with the coefficients, as the time does. The largest basis of the
# tests and the benchmark, the n = 5 pullback with field degrees 1,1, takes
# about 1.2 million; form pullback --n 12 --field-degrees 1 takes 476
# million in about 7 s, and --n 13 is refused after about as long.
MAX_GROEBNER_WORK = 500_000_000


def _step(p: dict, lm: int, lm_g: int, g: dict) -> tuple[dict, int]:
    """a*p - b*z^(lm - lm_g)*g with a, b coprime, cancelling p's term at lm,
    and its work; p itself may be updated in place."""
    a, b = g[lm_g], p[lm]
    q = gcd(a, b)
    a, b = a // q, b // q
    terms = len(g)
    if a != 1:
        terms += len(p)
        p = {m: a * c for m, c in p.items()}
    shift = lm - lm_g
    for m, c in g.items():
        m += shift
        v = p.get(m, 0) - b * c
        if v:
            p[m] = v
        else:
            del p[m]
    return p, terms * (1 + (a.bit_length() + b.bit_length()) // 64)


def _reduce(p: dict, lms: list, polys: list, guard: int) -> tuple[dict, int]:
    """Top-reduce p by the basis; the primitive remainder, empty when p
    reduces to zero, and the work of its steps."""
    work = 0
    while p:
        lm = min(p)
        top = lm | guard
        for lm_g, g in zip(lms, polys):
            if (top - lm_g) & guard == guard:
                p, w = _step(p, lm, lm_g, g)
                work += w
                break
        else:
            content = gcd(*p.values())
            return {m: c // content for m, c in p.items()} if content > 1 else p, work
    return p, work


def _update(pairs: list, lms: list, expos: list, guard: int) -> list:
    """The pairs after the last basis element h joins: the chain criterion
    on the old pairs, then one new pair per minimal lcm(h, g) and none
    whose leading monomials are coprime (Gebauer-Moeller)."""
    h = len(lms) - 1
    lm_h, e_h = lms[h], expos[h]
    lcm_with, by_lcm = [], {}
    for g in range(h):
        e = tuple(map(max, e_h, expos[g]))
        lcm = pack_monomial(e)
        lcm_with.append(lcm)
        coprime = lcm == lm_h + lms[g]
        if lcm not in by_lcm or coprime:
            by_lcm[lcm] = (sum(e), g, coprime)
    kept = [
        p for p in pairs
        if ((p[1] | guard) - lm_h) & guard != guard
        or lcm_with[p[2]] == p[1]
        or lcm_with[p[3]] == p[1]
    ]
    minimal: list[int] = []
    for lcm, (deg, g, coprime) in sorted(by_lcm.items(), key=lambda kv: kv[1][0]):
        top = lcm | guard
        if any((top - m) & guard == guard for m in minimal):
            continue
        minimal.append(lcm)
        if not coprime:
            kept.append((deg, lcm, g, h))
    return kept


def _integral(packed: dict) -> dict:
    """A copy with integer coefficients; _reduce makes remainders primitive."""
    den = lcm(*(c.denominator for c in packed.values() if type(c) is not int))
    return {m: int(c * den) for m, c in packed.items()} if den > 1 else dict(packed)


def leading_monomials(ideal: GradedIdeal) -> list[tuple[int, ...]]:
    """Exponent vectors of the minimal generators of the leading-monomial
    ideal in grevlex, z0 > z1 > ..., by nondecreasing degree."""
    nvars = ideal.nvars
    guard = sum(1 << (FIELD_BITS * i + FIELD_BITS - 1) for i in range(nvars))
    gens = sorted(
        ((g.degree, _integral(g.packed)) for g in ideal.generators),
        key=lambda dg: dg[0],
        reverse=True,
    )
    lms: list[int] = []
    polys: list[dict] = []
    expos: list[tuple[int, ...]] = []
    pairs: list[tuple[int, int, int, int]] = []  # (degree, lcm, i, j)
    work = 0
    while gens or pairs:
        d = min([p[0] for p in pairs] + [deg for deg, _ in gens[-1:]])
        if d >= _MAX_DEGREE:
            raise ValueError(f"degree {d} exceeds the monomial packing")
        batch = []
        for _, lcm, i, j in (p for p in pairs if p[0] == d):
            s, w = _step({m + lcm - lms[i]: c for m, c in polys[i].items()}, lcm, lms[j], polys[j])
            batch.append(s)
            work += w
        pairs = [p for p in pairs if p[0] != d]
        while gens and gens[-1][0] == d:
            batch.append(gens.pop()[1])
        for f in batch:
            r, w = _reduce(f, lms, polys, guard)
            work += w
            if work > MAX_GROEBNER_WORK:
                raise ValueError(f"the Groebner basis exceeds the cap of {MAX_GROEBNER_WORK} units of work")
            if r:
                lm = min(r)
                lms.append(lm)
                polys.append(r)
                expos.append(unpack_monomial(lm, nvars))
                pairs = _update(pairs, lms, expos, guard)
    return expos


def _minimal(gens: list) -> list:
    out: list = []
    for g in sorted(gens, key=sum):
        if not any(all(a <= b for a, b in zip(m, g)) for m in out):
            out.append(g)
    return out


def _numerator(gens: list) -> list[int]:
    """Ascending coefficients of N(t), where N(t)/(1-t)^nvars is the Hilbert
    series of S modulo the monomials gens. The pivot is x_i^k, for the
    variable in most generators and its least positive exponent. Then
    J + x_i^k is x_i^k plus the generators J' free of x_i, so
    N(J) = (1-t^k) N(J') + t^k N(J : x_i^k)."""
    gens = _minimal(gens)
    uses = [sum(1 for g in gens if g[i]) for i in range(len(gens[0]))] if gens else []
    if not uses or max(uses) <= 1:
        # pairwise coprime generators: N is the product of the (1 - t^deg)
        out = [1]
        for g in gens:
            k = sum(g)
            out = [a - (out[j - k] if j >= k else 0) for j, a in enumerate(out + [0] * k)]
        return out
    i = uses.index(max(uses))
    k = min(g[i] for g in gens if g[i])
    rest = _numerator([g for g in gens if not g[i]])
    colon = _numerator([g[:i] + (max(g[i] - k, 0),) + g[i + 1:] for g in gens])
    out = [0] * (max(len(rest), len(colon)) + k)
    for j, c in enumerate(rest):
        out[j] += c
        out[j + k] -= c
    for j, c in enumerate(colon):
        out[j + k] += c
    return out


def _series_numerator(ideal: GradedIdeal) -> tuple[int, ...]:
    num = _numerator(leading_monomials(ideal))
    while num and num[-1] == 0:
        num.pop()
    return tuple(num)


def _running_sums(coeffs, n: int, length: int) -> list[int]:
    """The first `length` coefficients of coeffs(t) / (1-t)^(n+1)."""
    out = list(coeffs[:length]) + [0] * (length - len(coeffs))
    for _ in range(n + 1):
        out = list(accumulate(out))
    return out


def _gaps(num, n: int) -> list[int]:
    """HP(t) - HF(t) for t < stable_from: running sums of N[n+1:] from the
    top. The last is +-N[-1], which _series_numerator keeps nonzero."""
    tail = num[:n:-1]
    return [-g if n % 2 else g for g in reversed(_running_sums(tail, n, len(tail)))]


def _hilbert_polynomial(num, n: int) -> tuple[tuple, int, int]:
    """(HP, dim, degree). N(t) = sum_i e_i (1-t)^i, e_i being N(1) after i
    divisions by 1 - t. With e_c the first nonzero e_i, dim = n - c, the
    degree is e_c and HP(t) = sum_{i <= n} e_i C(t + n - i, n - i), expanded
    by Horner's rule on dim! C(t + m, m) = (dim!/m!) (t + 1) ... (t + m)."""
    e, q = [], list(num)
    for _ in range(n + 1):
        e.append(sum(q))
        q = [s - e[-1] for s in accumulate(q)][:-1]
    dim = n - next((i for i, v in enumerate(e) if v), n + 1)
    if dim < 0:
        return (), -1, 0
    acc, scale = [e[n - dim]], 1
    for m in range(dim, 0, -1):
        scale *= m
        acc = [m * acc[0] + e[n - m + 1] * scale] + [a + m * b for a, b in zip(acc, acc[1:])] + [acc[-1]]
    return tuple(Fraction(a, scale) for a in acc), dim, e[n - dim]


class HilbertProfile(namedtuple("HilbertProfile", "ideal values polynomial stable_from scheme_dim scheme_deg numerator")):
    """Hilbert function values on [0, t_max] with the Hilbert polynomial
    (ascending rational coefficients, integer-valued), the first twist from
    which the two agree, and the scheme's dimension and degree, all exact;
    t_max is max(n + 2 + largest generator degree, stable_from + n + 1).
    numerator is N(t) of the Hilbert series N(t)/(1-t)^(n+1), which gives
    HF at every twist."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "values": {str(t): v for t, v in sorted(self.values.items())},
            "polynomial": [str(c) for c in self.polynomial],
            "dim": self.scheme_dim,
            "deg": self.scheme_deg,
            "stable_from": self.stable_from,
        }

    def deficiency(self) -> list[tuple[int, int]]:
        """(t, HP(t) - HF(t)) at the twists 0 <= t < stable_from where the
        Hilbert function falls short of the polynomial."""
        return [(t, g) for t, g in enumerate(_gaps(self.numerator, self.ideal.nvars - 1)) if g > 0]


def hilbert_function(ideal: GradedIdeal, t: int) -> int:
    """dim (S/I)_t."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    return _running_sums(_series_numerator(ideal), ideal.nvars - 1, t + 1)[t]


def hilbert_profile(ideal: GradedIdeal) -> HilbertProfile:
    """The exact profile of the ideal."""
    n = ideal.nvars - 1
    num = _series_numerator(ideal)
    poly, dim, deg = _hilbert_polynomial(num, n)
    stable_from = len(_gaps(num, n))
    t_max = max(n + 2 + max(ideal.degrees, default=0), stable_from + n + 1)
    values = dict(enumerate(_running_sums(num, n, t_max + 1)))
    return HilbertProfile(ideal, values, poly, stable_from, dim, deg, num)


def scheme_degree_dim(ideal: GradedIdeal):
    """(dimension, degree) of the subscheme cut out by the ideal; the empty
    scheme reports (-1, 0)."""
    profile = hilbert_profile(ideal)
    return profile.scheme_dim, profile.scheme_deg
