"""References for the answer checkers, kept apart from the code under test.

Two kinds live here:

- closed forms written out again from the textbook formulas (Bott's formula,
  Chern-series degrees), sharing no code with ``singscheme``;
- frozen cohomology tables, recorded by ``bench/freeze.py`` from the commit
  that added the benchmark and compared by containment: an exact reference
  value must be met exactly, and a new value must lie inside its old
  interval, so a sound tightening passes and a loosening fails.

Tables are handled in a plain form decoded from the JSON that
``CohomologyTable.to_json`` and ``singscheme chase --json`` emit:
``{"n": n, "rows": {q: {t: (lo, hi)}}, "windows": {q: window}}`` where ``hi``
is None for an unbounded interval and a window is None (no certificate),
``EMPTY``, or a pair ``(lo, hi)`` with None for an open end.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

EMPTY = "empty"


# ------------------------------------------------------------ closed forms


def bott(n: int, p: int, k: int, q: int) -> int:
    """h^q(P^n, Omega^p(k)) by Bott's formula."""
    if q == 0 and k > p:
        return comb(k + n - p, k) * comb(k - 1, p)
    if k == 0 and q == p:
        return 1
    if q == n and k < p - n:
        return comb(-k + p, -k) * comb(-k - 1, n - p)
    return 0


def sheaf_h(n: int, atoms, q: int, t: int) -> int:
    """h^q of a direct sum of atoms (p, k, mult), Omega^0(k) = O(k), twisted by t."""
    return sum(m * bott(n, p, k + t, q) for p, k, m in atoms)


def _series_product(a, b, top):
    out = [0] * (top + 1)
    for i, x in enumerate(a[: top + 1]):
        if x:
            for j, y in enumerate(b[: top + 1 - i]):
                out[i + j] += x * y
    return out


def _series_inverse(a, top):
    """1/a as a power series, for a with constant term 1."""
    inv = [1] + [0] * top
    for i in range(1, top + 1):
        inv[i] = -sum(a[j] * inv[i - j] for j in range(1, min(i, len(a) - 1) + 1))
    return inv


def split_degree(n: int, d_list) -> int:
    """Degree of the singular scheme of a distribution with split tangent
    sheaf sum O(-d_i): the h^{n-r+1} coefficient of c(T_{P^n}) / c(sum O(-d_i))."""
    top = n - len(d_list) + 1
    num = [comb(n + 1, i) for i in range(top + 1)]
    den = [1] + [0] * top
    for d in d_list:
        den = _series_product(den, [1, -d], top)
    return _series_product(num, _series_inverse(den, top), top)[top]


def geometric_degree(k: int, d: int) -> int:
    """1 + d + ... + d^{k+1}."""
    return sum(d**j for j in range(k + 2))


def porteous_degree(n: int, twists) -> int:
    """h^codim coefficient of c(Omega^1_{P^n}) / c(sum O(a_i)), codim = n - rank + 1."""
    top = min(n, n - len(twists) + 1)
    num = [(-1) ** i * comb(n + 1, i) for i in range(top + 1)]
    den = [1] + [0] * top
    for a in twists:
        den = _series_product(den, [1, a], top)
    return _series_product(num, _series_inverse(den, top), top)[top]


# ------------------------------------------------------------ plain tables


def plain_table(data: dict) -> dict:
    """Decode the package's table JSON into the plain form."""

    def window(w):
        if w is None:
            return None
        if w.get("empty"):
            return EMPTY
        return (w.get("lo"), w.get("hi"))

    rows = {}
    for q, row in data["rows"].items():
        rows[int(q)] = {
            int(t): (v, v) if isinstance(v, int) else (v[0], v[1])
            for t, v in row.items()
        }
    windows = {int(q): window(w) for q, w in data["windows"].items()}
    return {"n": int(data["n"]), "rows": rows, "windows": windows}


def value(tab: dict, q: int, t: int):
    """(lo, hi) at (q, t), read the way CohomologyTable.value reads it."""
    if not 0 <= q <= tab["n"]:
        return (0, 0)
    row = tab["rows"].get(q, {})
    if t in row:
        return row[t]
    w = tab["windows"].get(q)
    if w is None:
        return (0, None)
    if w == EMPTY:
        return (0, 0)
    lo, hi = w
    if (lo is None or t >= lo) and (hi is None or t <= hi):
        return (0, None)
    return (0, 0)


def within(new, old) -> bool:
    """Interval containment; hi None is +infinity."""
    (a, b), (c, d) = new, old
    if a < c:
        return False
    if d is None:
        return True
    return b is not None and b <= d


def _outside(old, new):
    """Twist ranges where window `new` admits nonzero values but `old` does
    not, as (lo, hi) pairs with None for an open end."""
    if new == EMPTY or old is None:
        return []
    if old == EMPTY:
        return [new] if new is not None else [(None, None)]
    lo, hi = old
    nlo, nhi = (None, None) if new is None else new
    out = []
    if lo is not None and (nlo is None or nlo < lo):
        out.append((nlo, lo - 1 if nhi is None else min(lo - 1, nhi)))
    if hi is not None and (nhi is None or nhi > hi):
        out.append((hi + 1 if nlo is None else max(hi + 1, nlo), nhi))
    return [(a, b) for a, b in out if a is None or b is None or a <= b]


def table_problems(new: dict, ref: dict, limit: int = 5) -> list[str]:
    """Every way `new` fails to lie inside the frozen `ref`, up to `limit`."""
    problems = []
    if new["n"] != ref["n"]:
        return [f"ambient P^{new['n']} != P^{ref['n']}"]
    for q in range(ref["n"] + 1):
        ts = set(ref["rows"].get(q, {})) | set(new["rows"].get(q, {}))
        for lo, hi in _outside(ref["windows"].get(q), new["windows"].get(q)):
            if lo is None or hi is None:
                problems.append(f"h^{q}: window widened to an unbounded ray")
                continue
            ts.update(range(lo, hi + 1))
        for t in sorted(ts):
            got, want = value(new, q, t), value(ref, q, t)
            if not within(got, want):
                problems.append(f"h^{q}(t={t}) = {list(got)} not within {list(want)}")
                if len(problems) >= limit:
                    return problems
    return problems


def has_intervals(tab: dict) -> bool:
    return any(lo != hi for row in tab["rows"].values() for lo, hi in row.values())


# ------------------------------------------------------------ frozen encoding
#
# A chased row over a twist range is piecewise polynomial in t, of degree at
# most n. Each contiguous run of twists is stored as the nonzero entries of
# its (n+1)-fold backward differences, which vanish inside every polynomial
# piece. Decoding is n+1 prefix sums; the encoding is lossless for any row.


def _diff(seq, times):
    for _ in range(times):
        seq = seq[:1] + [b - a for a, b in zip(seq, seq[1:])]
    return seq


def _undiff(seq, times):
    for _ in range(times):
        seq = list(accumulate(seq))
    return seq


def _sparse(seq):
    return [x for i, v in enumerate(seq) if v for x in (i, v)]


def _dense(pairs, length):
    seq = [0] * length
    for i in range(0, len(pairs), 2):
        seq[pairs[i]] = pairs[i + 1]
    return seq


def encode_table(tab: dict) -> dict:
    n = tab["n"]
    rows = {}
    for q, row in sorted(tab["rows"].items()):
        runs = []
        ts = sorted(row)
        start = 0
        for i in range(1, len(ts) + 1):
            if i < len(ts) and ts[i] == ts[i - 1] + 1:
                continue
            seg = ts[start:i]
            los = [row[t][0] for t in seg]
            gaps = [0 if row[t][1] is None else row[t][1] - row[t][0] for t in seg]
            open_ = [j for j, t in enumerate(seg) if row[t][1] is None]
            runs.append(
                {
                    "t0": seg[0],
                    "len": len(seg),
                    "lo": _sparse(_diff(los, n + 1)),
                    "gap": _sparse(_diff(gaps, n + 1)),
                    "open": open_,
                }
            )
            start = i
        rows[str(q)] = runs

    def window(w):
        if w is None or w == EMPTY:
            return w
        return list(w)

    return {
        "n": n,
        "rows": rows,
        "windows": {str(q): window(w) for q, w in sorted(tab["windows"].items())},
    }


def decode_table(enc: dict) -> dict:
    n = enc["n"]
    rows = {}
    for q, runs in enc["rows"].items():
        row = {}
        for run in runs:
            los = _undiff(_dense(run["lo"], run["len"]), n + 1)
            gaps = _undiff(_dense(run["gap"], run["len"]), n + 1)
            open_ = set(run["open"])
            for j, (lo, gap) in enumerate(zip(los, gaps)):
                row[run["t0"] + j] = (lo, None if j in open_ else lo + gap)
        rows[int(q)] = row
    windows = {
        int(q): w if w is None or w == EMPTY else tuple(w)
        for q, w in enc["windows"].items()
    }
    return {"n": n, "rows": rows, "windows": windows}


# ------------------------------------------------------------ verdict rules


def verdict_ok(got: str, ref: str) -> bool:
    """A definite reference verdict must be kept; an undetermined one may
    become definite as bounds tighten."""
    return ref == "undetermined" or got == ref


def regularity_ok(got: int, ref: int, ref_exact: bool) -> bool:
    """Regularity read off interval entries is a safe upper bound, so a
    tighter table may only lower it; on an exact table it is exact."""
    return got == ref if ref_exact else got <= ref
