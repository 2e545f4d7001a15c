"""Closed-form sheaf cohomology on P^n for a small exact calculus.

Every atom of the calculus is a twisted cotangent power Omega^p(k); the line
bundle O(a) is Omega^0(a), and both atom classes are the pair (p, k), so
dimensions, windows, ranks, hashes and sort order all read (p, k) alone.
Atoms are closed under direct sum, twist, and Sym/Lambda of split parts.
Every atom has the closed-form h^q of Bott's formula at every twist, so any
"vanishes at all twists" question is decidable: each row of an atom is
nonzero only on the hull of the Bott regimes that apply to it (a ray, a
singleton, or nothing), and those windows are carried on every table as
certificates.

Atoms are kept in normal form: Omega^0(k) is O(k) and Omega^n(k) is
O(k-n-1), applied eagerly so equality of sheaves is syntactic. A split
bundle enters through SplitBundle.counts, one (twist, multiplicity) pair per
distinct twist; its Sym^j (or Lambda^j) for all j <= k at once are the
layers of a generating function, one in-place sweep per summand. The
tangent bundle enters as Lambda^q T = Omega^{n-q}(n+1).

A VirtualSheaf reads its row windows off the two ends of each run of
atoms of one p, found by bisect, and its rows a list of twists at a time.
Bott's h^0 formula C(u+n-p, n-p) C(u-1, p), read as a polynomial in u, is
chi(Omega^p(u)) and equals h^0 from u = 1 on (from u = 0 on for a line
bundle). So row 0, row n (by Serre duality) and chi are sums of
polynomials of degree <= n in t that switch on atom by atom: one sweep of
forward differences reads them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate, islice, repeat
from math import comb, inf
from operator import add

from .chow import SplitBundle, check_ambient_dimension, check_closed_form_dimension, read_number, refuse_write


class LineBundle(namedtuple("LineBundle", "p k")):
    """O(a), which is Omega^0(a): the pair (0, a)."""

    __slots__ = ()

    def __new__(cls, a: int) -> "LineBundle":
        return tuple.__new__(cls, (0, a))

    def __getnewargs__(self) -> tuple:
        return (self.k,)

    def __repr__(self) -> str:
        return f"LineBundle(a={self.k})"

    def __str__(self) -> str:
        return f"O({self.k})"


class CotangentPower(namedtuple("CotangentPower", "p k")):
    """Omega^p(k) with 1 <= p <= n-1 in normal form."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"Om({self.p},{self.k})"


SheafAtom = LineBundle | CotangentPower


def normalize_atom(n: int, p: int, k: int) -> SheafAtom:
    """Omega^p(k) in normal form: the edge powers fold into line bundles."""
    check_ambient_dimension(n)
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, got p={p}")
    if p == 0:
        return LineBundle(k)
    if p == n:
        # Omega^n = O(-n-1)
        return LineBundle(k - n - 1)
    return CotangentPower(p, k)


def _chi_atom(n: int, p: int, u: int) -> int:
    """chi(P^n, Omega^p(u)) = C(u+n-p, n-p) C(u-1, p), each C(x, j) read as
    the polynomial x(x-1)..(x-j+1)/j! at any integer x."""
    out = 1
    for x, j in ((u + n - p, n - p), (u - 1, p)):
        out *= comb(x, j) if x >= 0 else (-1) ** j * comb(j - x - 1, j)
    return out


def _differences(values: list) -> list:
    """The forward differences of values at its first point, one per value."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


@lru_cache(maxsize=1024)
def _switch_table(n: int, p: int) -> tuple:
    """The n + 1 forward differences of chi(Omega^p(u)) at the twist u
    where it becomes h^0: u = 1, or u = 0 for p = 0."""
    return tuple(_differences([_chi_atom(n, p, u) for u in range(p > 0, (p > 0) + n + 1)]))


def _sweep(n: int, atoms: list, twists) -> list[int]:
    """The sum of m chi(Omega^p(k+t)) over the sorted atoms (s, p, k, m)
    with s <= t, at each t of a strictly ascending list. The atoms on sum to
    a polynomial of degree <= n, so min(run length, n + 1) of its forward
    differences give the run in int adds: each run of consecutive twists
    seeds them from the atoms on at its start (none: zeros up to the first
    switch-on), steps them, adds an atom's _switch_table where it switches
    on, and past the last extends them by an accumulate chain."""
    starts = [s for s, *_ in atoms]
    out, i = [], 0
    while i < len(twists):
        j = bisect_right(range(len(twists)), twists[i] - i, lo=i, key=lambda m: twists[m] - m)
        t, end, size = twists[i], twists[j - 1], min(j - i, n + 1)
        on, last = bisect_right(starts, t), bisect_right(starts, end)
        if not on:
            out += repeat(0, min(starts[0], end + 1) - t)
            t = min(starts[0], end + 1)
        d = _differences([sum(m * _chi_atom(n, p, k + x) for _, p, k, m in atoms[:on]) for x in range(t, t + size)])
        for s, p, k, m in atoms[on:last]:
            for _ in range(s - t):
                out.append(d[0])
                d = [*map(add, d, d[1:]), d[-1]]
            t = s
            d = [x + m * c for x, c in zip(d, _switch_table(n, p))]
        row = repeat(d.pop())
        for c in reversed(d):
            row = accumulate(row, initial=c)
        out += islice(row, end - t + 1)
        i = j
    return out


def _json_value(value, kind: type, what: str, null=None):
    """value if its JSON type is kind, int or dict; null, an open end inf or
    -inf where given, for a JSON null; else ValueError (json reads 1.5 as a
    float and true as a bool, and neither is an int)."""
    if value is None and null is not None:
        return null
    if type(value) is not kind:
        noun = "an integer" if kind is int else "an object"
        raise ValueError(f"malformed table: {what} must be {noun}, got {value!r}")
    return value


class Window(namedtuple("Window", "lo hi")):
    """Set of twists lo <= t <= hi outside which a cohomology row is
    certified zero: the immutable pair (lo, hi).

    An open end is -inf or inf (math.inf), only ever a bound. lo > hi is
    the empty window, which certifies that the whole row vanishes; every
    empty window equals NOTHING, the identity of a hull and the zero of a
    clip.
    """

    __slots__ = ()

    def __new__(cls, lo: int | float, hi: int | float) -> "Window":
        return tuple.__new__(cls, (lo, hi) if lo <= hi else (inf, -inf))

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, t: int) -> bool:
        lo, hi = self
        return lo <= t <= hi

    @property
    def is_finite(self) -> bool:
        return -inf < self.lo <= self.hi < inf

    def to_json(self) -> dict:
        """{"empty": true}, or {"lo": .., "hi": ..} with null for an open end."""
        if self.empty:
            return {"empty": True}
        return {"lo": None if self.lo == -inf else self.lo, "hi": None if self.hi == inf else self.hi}

    @classmethod
    def from_json(cls, data: dict) -> "Window":
        if _json_value(data, dict, "a window").get("empty"):
            return NOTHING
        return cls(
            _json_value(data.get("lo"), int, "a window end", -inf),
            _json_value(data.get("hi"), int, "a window end", inf),
        )


NOTHING = Window(inf, -inf)


class VirtualSheaf(namedtuple("VirtualSheaf", "n atoms")):
    """Formal direct sum of atoms with positive multiplicities on P^n: the
    pair (n, atoms), atoms a sorted tuple of distinct (atom, multiplicity).

    The rows are read per sheaf, not per atom: the first and last atom of
    each p give every row window, and one sweep reads rows 0 and n and chi.
    Atoms are validated once, here.
    """

    def __new__(cls, n: int, atoms: tuple[tuple[SheafAtom, int], ...]) -> "VirtualSheaf":
        check_closed_form_dimension(n)
        for atom, _ in atoms:
            if not 0 <= atom.p <= n:
                raise ValueError(f"need 0 <= p <= n, got p={atom.p}")
        return tuple.__new__(cls, (n, atoms))

    __setattr__ = __delattr__ = refuse_write

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "VirtualSheaf":
        merged: dict[SheafAtom, int] = {}
        for atom, mult in pairs:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if isinstance(atom, CotangentPower) and not 0 < atom.p < n:
                atom = normalize_atom(n, atom.p, atom.k)
            merged[atom] = merged.get(atom, 0) + mult
        if not merged:
            raise ValueError("a virtual sheaf needs at least one atom")
        return cls(n, tuple(sorted(merged.items())))

    @classmethod
    def from_split(cls, bundle: SplitBundle) -> "VirtualSheaf":
        return cls.from_pairs(bundle.n, [(LineBundle(a), m) for a, m in bundle.counts])

    @property
    def rank(self) -> int:
        return sum(m * comb(self.n, atom.p) for atom, m in self.atoms)

    @cached_property
    def windows(self) -> tuple:
        """The n + 1 row windows, read off the sorted atoms: the atoms
        Omega^p(k) of one p are a run ascending in k, found by bisect, and
        only its first and last k bound a row. Such an atom lives on row 0
        from -k+p+1 on (-k for p = 0), on row n up to -k+p-n-1 (-k for
        p = n), and at -k on row p."""
        n, atoms, ends, i = self.n, self.atoms, {}, 0
        while i < len(atoms):
            p = atoms[i][0].p
            j = bisect_left(atoms, p + 1, i, key=lambda entry: entry[0].p)
            ends[p], i = (atoms[i][0].k, atoms[j - 1][0].k), j
        rows = [NOTHING] * (n + 1)
        for p, (lo, hi) in ends.items():
            rows[p] = Window(-hi, -lo)
        rows[0] = Window(min(p + (p > 0) - hi for p, (_, hi) in ends.items()), inf)
        rows[n] = Window(-inf, max(p - n - (p < n) - lo for p, (lo, _) in ends.items()))
        return tuple(rows)

    @cached_property
    def _points(self) -> dict:
        """points[p] maps each -k of the atoms Omega^p(k) to their summed
        multiplicity: row p for 0 < p < n, where h^p = 1 exactly there."""
        points: dict[int, dict[int, int]] = {}
        for atom, m in self.atoms:
            row, t = points.setdefault(atom.p, {}), -atom.k
            row[t] = row.get(t, 0) + m
        return points

    @cached_property
    def _sweeps(self):
        """The _sweep atoms of row 0, and of row n as Serre duals at -t."""
        return (
            sorted(((a.p > 0) - a.k, a.p, a.k, m) for a, m in self.atoms),
            sorted(((a.p < self.n) + a.k, self.n - a.p, -a.k, m) for a, m in self.atoms),
        )

    def chi_row(self, twists) -> list[int]:
        """chi at each twist of a strictly ascending list: every atom on."""
        if not twists:
            return []
        return _sweep(self.n, [(-inf, a.p, a.k, m) for a, m in self.atoms], twists)

    def h_row(self, q: int, twists) -> list[int]:
        """h^q at each twist of a strictly ascending list; rows 0 and n by _sweep."""
        n = self.n
        if not 0 <= q <= n:
            raise ValueError("need 0 <= p, q <= n")
        if not twists:
            return []
        if 0 < q < n:
            return list(map(self._points.get(q, {}).get, twists, repeat(0)))
        if q == 0:
            return _sweep(n, self._sweeps[0], twists)
        return _sweep(n, self._sweeps[1], [-t for t in reversed(twists)])[::-1]

    def row_window(self, q: int) -> Window:
        if not 0 <= q <= self.n:
            return NOTHING
        return self.windows[q]

    def __str__(self) -> str:
        return "+".join(str(a) if m == 1 else f"{a}^{m}" for a, m in self.atoms)


def tangent_sheaf(n: int) -> VirtualSheaf:
    """The tangent sheaf, Lambda^1 T, as a virtual sheaf."""
    return VirtualSheaf.from_pairs(n, [(ext_power_tangent(n, 1), 1)])


# Most steps a Sym or Lambda sweep may take, as bounded before it starts:
# about 0.4 s of sweeping. The tangent chases of O(-3..2) and of
# O(-1)+O(-3)+O(-7)+O(-15) at n = 300 bound 1.29 and 2.45 million and take
# 1.4 and 1.9 s in all (Python 3.11, one core of a shared 2-core host);
# Sym^3 of 297 distinct twists bounds 13.2 million and holds 4.4 million.
MAX_SWEEP_WORK = 4_000_000


def _power_layers(bundle: SplitBundle, k: int, exterior: bool) -> list[SplitBundle]:
    """Degrees 0..k of prod_a (1 - x y^a)^(-m_a), the generating function
    of Sym, or of prod_a (1 + x y^a)^(m_a), that of Lambda. Each copy of a
    twist a multiplies in its factor with one in-place sweep layers[i] +=
    y^a layers[i-1]: ascending in i for Sym, so that layer i-1 already
    holds every power of the factor, and descending for Lambda. Layer i
    holds at most min(C(i+m-1, m-1), i*spread+1) twists, for m distinct
    twists spread over max - min, so rank times their sum over i < k bounds
    the steps; past MAX_SWEEP_WORK the request is refused unbuilt."""
    if k < 0 or exterior and k > bundle.rank:
        raise ValueError("exterior power degree out of range" if exterior else "symmetric power degree must be nonnegative")
    counts = bundle.counts
    distinct, spread = len(counts), counts[0][0] - counts[-1][0]
    work = bundle.rank * sum(min(comb(i + distinct - 1, i), i * spread + 1) for i in range(k))
    if work > MAX_SWEEP_WORK:
        raise ValueError(
            f"a degree-{k} power sweep over {distinct} distinct twists bounds {work} steps, over the cap of {MAX_SWEEP_WORK}"
        )
    layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(k)]
    order = range(k, 0, -1) if exterior else range(1, k + 1)
    for a, m in counts:
        for _ in range(m):
            for i in order:
                target = layers[i]
                for s, mult in layers[i - 1].items():
                    s += a
                    target[s] = target.get(s, 0) + mult
    return [SplitBundle.from_counts(bundle.n, layer) for layer in layers]


def sym_powers(bundle: SplitBundle, k: int) -> list[SplitBundle]:
    """Sym^0 .. Sym^k of a split bundle, from one generating-function sweep."""
    return _power_layers(bundle, k, False)


def sym_power(bundle: SplitBundle, j: int) -> SplitBundle:
    """Sym^j of a split bundle: the last layer of sym_powers."""
    return sym_powers(bundle, j)[j]


def ext_power_split(bundle: SplitBundle, j: int) -> SplitBundle:
    """Lambda^j of a split bundle: the last layer of the Lambda sweep."""
    return _power_layers(bundle, j, True)[j]


def ext_power_tangent(n: int, q: int) -> SheafAtom:
    """Lambda^q T = Omega^{n-q}(n+1), in normal form: the one owner of
    that identity."""
    check_ambient_dimension(n)
    if not 0 <= q <= n:
        raise ValueError("need 0 <= q <= n")
    return normalize_atom(n, n - q, n + 1)


def tensor_with_split(atom: SheafAtom, bundle: SplitBundle) -> VirtualSheaf:
    """Tensor an atom with a split bundle, one atom per distinct twist of
    bundle.counts: Omega^p(k) (x) O(a) is the pair (p, k + a) of the
    normalized atom's own class. Omega (x) Omega products are outside the
    calculus and cannot be expressed here by construction."""
    atom = normalize_atom(bundle.n, atom.p, atom.k)
    cls, p, k, new = type(atom), atom.p, atom.k, tuple.__new__
    # distinct atoms, descending in k as counts is, so reversed they are
    # already in sorted order
    return VirtualSheaf(bundle.n, tuple((new(cls, (p, k + a)), m) for a, m in reversed(bundle.counts)))


class DimValue(namedtuple("DimValue", "lo hi")):
    """A cohomology dimension, exact or boxed in an interval [lo, hi]: the
    immutable pair (lo, hi), equal and hashed as that tuple.

    hi=inf means no upper bound is known. Exact values have lo == hi. The
    constructor and from_json check 0 <= lo <= hi on values from outside;
    the bulk builders (chase._solve, table) build each pair with
    tuple.__new__ from values that hold it by construction.
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int | float) -> "DimValue":
        if lo < 0:
            raise ValueError("dimensions are nonnegative")
        if hi < lo:
            raise ValueError("empty interval")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def exact(cls, v: int) -> "DimValue":
        return cls(v, v)

    @property
    def is_exact(self) -> bool:
        return self.hi == self.lo

    @property
    def is_zero(self) -> bool:
        return self.hi == 0

    @property
    def possibly_nonzero(self) -> bool:
        return self.hi > 0

    @property
    def definitely_nonzero(self) -> bool:
        return self.lo > 0

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lo)
        return f"[{self.lo},{self.hi}]"

    def to_json(self):
        """The value itself when exact, else [lo, hi] with null for no bound."""
        return self.lo if self.is_exact else [self.lo, None if self.hi == inf else self.hi]

    @classmethod
    def from_json(cls, data) -> "DimValue":
        if isinstance(data, list) and len(data) == 2:
            lo, hi = data
            return cls(_json_value(lo, int, "a lower bound"), _json_value(hi, int, "an upper bound", inf))
        return cls.exact(_json_value(data, int, "a dimension"))


_NO_CERTIFICATE = Window(-inf, inf)
# The values CohomologyTable.value answers outside a row's entries, shared:
# a certified zero, which chase stores too, and the trivial [0, inf).
ZERO = DimValue.exact(0)
_UNKNOWN = DimValue(0, inf)


class CohomologyTable:
    """Rows q = 0..n of twist -> DimValue with per-row zero certificates.

    windows[q] is the Window outside which the row is certified zero; a
    row with no entry, like a null window in a table file, has the window
    Window(-inf, inf), which excludes no twist (unmaterialized queries
    then answer with the trivial interval [0, inf)). dim_z tags tables that
    describe an ideal sheaf with the dimension of its subscheme, which the
    ACM and Buchsbaum checks read: chase.ideal_chase sets it, and from_json
    reads it from a file. A table is mutable, equal to a table of the same
    four fields, and unhashable.
    """

    __slots__ = ("n", "rows", "windows", "dim_z")
    __hash__ = None

    def __init__(self, n: int, rows: dict[int, dict[int, DimValue]], windows: dict[int, Window], dim_z: int | None = None):
        self.n, self.rows, self.windows, self.dim_z = n, rows, windows, dim_z

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.rows, self.windows, self.dim_z) == (other.n, other.rows, other.windows, other.dim_z)

    def __repr__(self) -> str:
        return f"CohomologyTable(n={self.n!r}, rows={self.rows!r}, windows={self.windows!r}, dim_z={self.dim_z!r})"

    def window(self, q: int) -> Window:
        if q < 0 or q > self.n:
            return NOTHING
        return self.windows.get(q, _NO_CERTIFICATE)

    def value(self, q: int, t: int) -> DimValue:
        if q < 0 or q > self.n:
            return ZERO
        row = self.rows.get(q, {})
        if t in row:
            return row[t]
        if not self.windows.get(q, _NO_CERTIFICATE).contains(t):
            return ZERO
        return _UNKNOWN

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim_z": self.dim_z,
            "rows": {
                str(q): {str(t): v.to_json() for t, v in sorted(row.items())}
                for q, row in sorted(self.rows.items())
            },
            "windows": {
                str(q): w.to_json() for q, w in sorted(self.windows.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "CohomologyTable":
        """The one reader of the table format; ValueError on any other shape,
        and on an entry with lo > 0 at a twist its row's window certifies
        zero (a zero there is legal: the chase writes them)."""
        n = _json_value(_json_value(data, dict, "a table")["n"], int, "n")
        if n < 1:
            raise ValueError(f"malformed table: n must be positive, got {n}")
        rows = {
            q: {_json_key(t): DimValue.from_json(v) for t, v in _json_value(row, dict, f"row {q}").items()}
            for q, row in _row_items(data, "rows", n)
        }
        windows = {q: Window.from_json(w) for q, w in _row_items(data, "windows", n) if w is not None}
        for q, row in rows.items():
            w = windows.get(q, _NO_CERTIFICATE)
            for t, v in row.items():
                if v.definitely_nonzero and not w.contains(t):
                    raise ValueError(f"malformed table: h^{q}(t={t}) = {v} lies outside the row's window")
        dim_z = data.get("dim_z")
        return cls(n, rows, windows, None if dim_z is None else _json_value(dim_z, int, "dim_z"))

    def dumps(self) -> str:
        import json
        return json.dumps(self.to_json(), indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def loads(cls, text: str) -> "CohomologyTable":
        import json
        return cls.from_json(json.loads(text, parse_int=lambda s: read_number(s, "a table entry")))


def _json_key(text: str) -> int:
    """An object key of the table format, a twist or a row index, read by
    read_number under the table cap; int() refuses an a/b key."""
    return int(text) if "/" in text else read_number(text, "a table entry")


def _row_items(data: dict, key: str, n: int):
    """(q, value) for each entry of the per-row object data[key], with q
    checked to lie in 0..n."""
    out = []
    for q, value in _json_value(data.get(key, {}), dict, repr(key)).items():
        q = _json_key(q)
        if not 0 <= q <= n:
            raise ValueError(f"{key[:-1]} index {q} out of range")
        out.append((q, value))
    return out


# Most entries one table may hold, counted before any row is built. At the
# cap, O(0) on P^99 over 10,000 twists builds in 0.4 s, and the cohomology
# command prints it in 1.9 s and 160 MB (3.2 s and 330 MB with --json;
# Python 3.11, one core of a shared 2-core host). The tests, goldens and
# bench/ ask for at most 20,000.
MAX_TABLE_ENTRIES = 1_000_000


def table_windows(sheaf: VirtualSheaf, twist_lo: int, twist_hi: int) -> dict[int, Window]:
    """The row windows of table(sheaf, twist_lo, twist_hi), once the
    entries it would hold are counted: over MAX_TABLE_ENTRIES, ValueError.
    Counting reads the windows alone, so no value is computed."""
    if twist_lo > twist_hi:
        raise ValueError("empty twist range")
    windows = {q: sheaf.row_window(q) for q in range(sheaf.n + 1)}
    total = 0
    for w in windows.values():
        total += twist_hi - twist_lo + 1
        if w.is_finite:
            total += w.hi - w.lo + 1 - max(0, min(w.hi, twist_hi) - max(w.lo, twist_lo) + 1)
    if total > MAX_TABLE_ENTRIES:
        raise ValueError(f"the table would hold {total} entries, over the cap of {MAX_TABLE_ENTRIES}")
    return windows


def table(sheaf: VirtualSheaf, twist_lo: int, twist_hi: int) -> CohomologyTable:
    """Exact cohomology table of a virtual sheaf.

    Materializes every twist in [twist_lo, twist_hi], and additionally the
    whole of every finite row window, so vanishing questions about the
    middle rows are decided by the table alone. The entries are counted
    first by table_windows, and over MAX_TABLE_ENTRIES the table is refused
    unbuilt. Each row is one h_row column of Bott values, nonnegative by
    construction, built into exact pairs with tuple.__new__; its zeros are
    the shared ZERO.
    """
    windows = table_windows(sheaf, twist_lo, twist_hi)
    rows = {}
    for q, w in windows.items():
        ts = set(range(twist_lo, twist_hi + 1))
        if w.is_finite:
            ts.update(range(w.lo, w.hi + 1))
        ts = sorted(ts)
        h = sheaf.h_row(q, ts)
        rows[q] = dict(zip(ts, [ZERO if x == 0 else tuple.__new__(DimValue, (x, x)) for x in h]))
    return CohomologyTable(sheaf.n, rows, windows)
