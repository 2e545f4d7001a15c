import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import pytest

from singscheme import chow
from singscheme.chow import (
    CLASSIFICATION,
    MAX_CLOSED_FORM_N,
    MAX_DEGREE_WORK,
    MAX_LITERAL_DIGITS,
    DistributionParams,
    PorteousInapplicableError,
    SplitBundle,
    check_ambient_dimension,
    classification_entry,
    porteous_singular_degree,
    pullback_degree,
    singular_degree_formula,
)
from singscheme.cohomology import LineBundle, VirtualSheaf


# The truncated Chow ring Z[h]/(h^{n+1}) of P^n and the Chern classes of
# split bundles in it: the reference that the closed-form degree formula
# and the Porteous degree are checked against.


@dataclass(frozen=True)
class ChowClass:
    """Truncated integer polynomial c_0 + c_1*h + ... + c_n*h^n.

    Multiplication truncates at h^{n+1} = 0. Instances are immutable and
    hashable; arithmetic always returns new objects.
    """

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        check_ambient_dimension(self.n)
        if len(self.coeffs) != self.n + 1:
            raise ValueError(
                f"expected {self.n + 1} coefficients, got {len(self.coeffs)}"
            )

    @classmethod
    def from_list(cls, n: int, seq) -> "ChowClass":
        """Build a class from any coefficient iterable, padding with zeros
        and discarding terms beyond h^n."""
        coeffs = list(seq)[: n + 1]
        coeffs += [0] * (n + 1 - len(coeffs))
        return cls(n, tuple(int(c) for c in coeffs))

    @classmethod
    def one(cls, n: int) -> "ChowClass":
        return cls.from_list(n, [1])

    def coefficient(self, i: int) -> int:
        """Coefficient of h^i; zero outside 0..n."""
        if 0 <= i <= self.n:
            return self.coeffs[i]
        return 0

    def _require_same_ring(self, other: "ChowClass") -> None:
        if self.n != other.n:
            raise ValueError("classes live on different projective spaces")

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._require_same_ring(other)
        return ChowClass(
            self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        self._require_same_ring(other)
        return ChowClass(
            self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return ChowClass(self.n, tuple(other * a for a in self.coeffs))
        self._require_same_ring(other)
        out = [0] * (self.n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            # truncation: terms with i + j > n vanish
            for j in range(self.n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return ChowClass(self.n, tuple(out))

    __rmul__ = __mul__

    def __neg__(self) -> "ChowClass":
        return self * -1


def chern_total(bundle: SplitBundle) -> ChowClass:
    """Whitney product prod_a (1 + a h)^m over bundle.counts, truncated at
    h^{n+1}."""
    acc = ChowClass.one(bundle.n)
    for a, m in bundle.counts:
        acc = acc * ChowClass.from_list(bundle.n, [comb(m, i) * a**i for i in range(m + 1)])
    return acc


def dual(bundle: SplitBundle) -> SplitBundle:
    """The dual bundle: every twist negated, multiplicities kept."""
    return SplitBundle.from_counts(bundle.n, {-a: m for a, m in bundle.counts})


def tangent_chern(n: int) -> ChowClass:
    """c(T) = (1 + h)^{n+1} via the Euler sequence."""
    return ChowClass.from_list(n, [comb(n + 1, i) for i in range(n + 1)])


def cotangent_chern(n: int) -> ChowClass:
    """c(Omega^1) = (1 - h)^{n+1}."""
    return ChowClass.from_list(
        n, [(-1) ** i * comb(n + 1, i) for i in range(n + 1)]
    )


def chern_difference(num: ChowClass, den: ChowClass) -> ChowClass:
    """Power-series quotient num / den truncated at h^{n+1}.

    The denominator must have constant term 1 (it is a total Chern class),
    which keeps the quotient integral. Satisfies num == result * den after
    truncation.
    """
    num._require_same_ring(den)
    if den.coefficient(0) != 1:
        raise ValueError("denominator must have constant term 1")
    n = num.n
    out = [0] * (n + 1)
    for i in range(n + 1):
        acc = num.coefficient(i)
        for j in range(1, i + 1):
            acc -= den.coefficient(j) * out[i - j]
        out[i] = acc
    return ChowClass(n, tuple(out))


def random_class(rng, n):
    return ChowClass(n, tuple(rng.randint(-9, 9) for _ in range(n + 1)))


class TestChowRing:
    def test_ring_laws_random_triples(self):
        rng = random.Random(20240117)
        for _ in range(1000):
            n = rng.randint(1, 6)
            a, b, c = (random_class(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_truncation(self):
        h = ChowClass.from_list(3, [0, 1])
        h4 = h * h * h * h
        assert h4 == ChowClass.from_list(3, [])

    def test_integer_scaling(self):
        a = ChowClass.from_list(2, [1, 2, 3])
        assert 3 * a == ChowClass.from_list(2, [3, 6, 9])
        assert -a == -1 * a

    def test_coefficient_out_of_range(self):
        a = ChowClass.from_list(2, [1, 2, 3])
        assert a.coefficient(5) == 0
        assert a.coefficient(-1) == 0

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ChowClass.one(2) * ChowClass.one(3)


class TestChernClasses:
    def test_line_bundle(self):
        assert chern_total(SplitBundle(3, (5,))) == ChowClass.from_list(3, [1, 5])

    def test_trivial_bundle(self):
        assert chern_total(SplitBundle(4, (0, 0, 0))) == ChowClass.one(4)

    def test_two_copies_of_minus_two(self):
        # (1 - 2h)^2 = 1 - 4h + 4h^2
        got = chern_total(SplitBundle(3, (-2, -2)))
        assert got == ChowClass.from_list(3, [1, -4, 4])

    def test_tangent_cotangent_duality(self):
        for n in range(1, 7):
            t = tangent_chern(n)
            c = cotangent_chern(n)
            signs = ChowClass(n, tuple((-1) ** i * t.coeffs[i] for i in range(n + 1)))
            assert c == signs


class TestChernDifference:
    def test_identity_quotient(self):
        a = ChowClass.from_list(4, [1, 3, -2, 5, 7])
        assert chern_difference(a, a) == ChowClass.one(4)

    def test_worked_division(self):
        # (1 - 4h + 6h^2 - 4h^3) / (1 - 4h + 4h^2) = 1 + 0h + 2h^2 + 4h^3 on P^3
        num = ChowClass.from_list(3, [1, -4, 6, -4])
        den = ChowClass.from_list(3, [1, -4, 4])
        assert chern_difference(num, den) == ChowClass.from_list(3, [1, 0, 2, 4])

    def test_remultiplication_property(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 6)
            num = random_class(rng, n)
            den_coeffs = [1] + [rng.randint(-4, 4) for _ in range(n)]
            den = ChowClass.from_list(n, den_coeffs)
            q = chern_difference(num, den)
            assert q * den == num

    def test_rejects_bad_constant_term(self):
        num = ChowClass.one(3)
        den = ChowClass.from_list(3, [2, 1])
        with pytest.raises(ValueError):
            chern_difference(num, den)


class TestSplitBundle:
    def test_canonical_order_and_invariants(self):
        b = SplitBundle(4, (-3, 1, -3))
        assert b.twists == (1, -3, -3)
        assert b.rank == 3
        assert b.c1 == -5

    def test_dual(self):
        b = SplitBundle(3, (-2, -3))
        assert dual(b).twists == (3, 2)

    def test_str_groups_multiplicities(self):
        assert str(SplitBundle(4, (-2, -2, -3))) == "O(-2)^2+O(-3)"
        assert str(SplitBundle(4, (1,))) == "O(1)"
        assert SplitBundle(4, (-3, -2, -2)).counts == ((-2, 2), (-3, 1))

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            SplitBundle(3, ())

    def test_counts_are_the_bundle(self):
        b = SplitBundle(4, (-3, 1, -3))
        c = SplitBundle.from_counts(4, {-3: 2, 1: 1})
        assert b == c and hash(b) == hash(c)
        assert c.counts == ((1, 1), (-3, 2)) and c.twists == (1, -3, -3)
        assert repr(c) == "SplitBundle(n=4, twists=(1, -3, -3))"
        assert b != SplitBundle(4, (1, -3)) and b != SplitBundle(5, (-3, 1, -3))
        for bad in ({}, {0: 0}, {1: -1}):
            with pytest.raises(ValueError):
                SplitBundle.from_counts(4, bad)
        with pytest.raises(ValueError):
            SplitBundle.from_counts(0, {0: 1})

    def test_chern_total_from_counts(self):
        rng = random.Random(20261018)
        for _ in range(50):
            n = rng.randint(1, 8)
            b = SplitBundle(n, tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 7))))
            want = ChowClass.one(n)
            for a in b.twists:
                want = want * ChowClass.from_list(n, [1, a])
            assert chern_total(b) == want


class TestDistributionParams:
    def test_from_pfaff_curve_case(self):
        # rank n-1 Pfaff bundle O(-d_i - 2) profiles a foliation by curves
        e = SplitBundle(3, (-2, -2))
        p = DistributionParams.from_pfaff(3, e)
        assert (p.r, p.d) == (1, 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            DistributionParams(3, 3, 1)
        with pytest.raises(ValueError):
            DistributionParams(3, 1, -2)


class TestClosedFormCap:
    """One cap on n for the closed-form side, checked before anything is
    built; the form side has its own cap on the variables."""

    BUILDERS = {
        "SplitBundle": lambda n: SplitBundle(n, (0, -1)),
        "VirtualSheaf": lambda n: VirtualSheaf(n, ((LineBundle(0), 1),)),
        "singular_degree_formula": lambda n: singular_degree_formula(n, 1, (1,)),
        "pullback_degree": lambda n: pullback_degree(n, 1, 2),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_refused_over_the_cap(self, name):
        build = self.BUILDERS[name]
        build(MAX_CLOSED_FORM_N)
        # a billion would exhaust memory if anything were built before the check
        for n in (MAX_CLOSED_FORM_N + 1, 10**9):
            with pytest.raises(ValueError) as exc:
                build(n)
            assert str(exc.value) == f"ambient dimension {n} exceeds the cap of {MAX_CLOSED_FORM_N}"
        with pytest.raises(ValueError, match="^ambient dimension must be positive$"):
            build(0)


class TestDegreeFormulas:
    def test_known_values(self):
        assert singular_degree_formula(3, 1, [1]) == 15
        assert singular_degree_formula(3, 1, [2]) == 40

    def test_matches_porteous_coefficient_exhaustively(self):
        # degree formula == h^{n-r+1} coefficient of c(T)/c(⊕O(-d_i))
        for n in range(2, 9):
            for r in range(1, n):
                for ds in combinations_with_replacement(range(1, 5), r):
                    lhs = singular_degree_formula(n, r, list(ds))
                    f = SplitBundle(n, tuple(-d for d in ds))
                    q = chern_difference(tangent_chern(n), chern_total(f))
                    assert lhs == q.coefficient(n - r + 1)

    def test_accepts_nonpositive_entries(self):
        # the identity is polynomial; degree-one pullbacks contribute a zero
        assert singular_degree_formula(4, 2, [0, -1]) >= 0
        f = SplitBundle(4, (0, 1))
        q = chern_difference(tangent_chern(4), chern_total(f))
        assert singular_degree_formula(4, 2, [0, -1]) == q.coefficient(3)

    def test_work_cap_refuses_before_the_sums(self, monkeypatch):
        # r x (n - r + 1) x the digits of the largest |d_i| is at most
        # MAX_DEGREE_WORK: 1 x 10 x 4,300 digits sums, 1 x 10 x 4,301 is
        # refused before the complete homogeneous sums run, for the Porteous
        # degree too
        assert MAX_DEGREE_WORK == 10 * MAX_LITERAL_DIGITS
        at_cap = singular_degree_formula(10, 1, [10**4300 - 1])
        assert at_cap == sum(comb(11, 10 - i) * (10**4300 - 1) ** i for i in range(11))
        assert singular_degree_formula(10, 1, [-(10**4299)]) > 0

        def summed(*args):
            raise AssertionError("the sums ran")

        monkeypatch.setattr(chow, "_complete_homogeneous", summed)
        message = "degree formula work r x (n - r + 1) x (digits of the largest |d_i|) = {} x {} x {} exceeds the cap of 43000"
        for n, r, d_list, shape in (
            (10, 1, [-(10**4300)], (1, 10, 4301)),
            (300, 5, [10**4298, -(10**4298), 3, 0, 1], (5, 296, 4299)),
        ):
            with pytest.raises(ValueError) as exc:
                singular_degree_formula(n, r, d_list)
            assert str(exc.value) == message.format(*shape)
        with pytest.raises(ValueError) as exc:
            porteous_singular_degree(300, SplitBundle(300, (-(10**300),) * 5))
        assert str(exc.value) == message.format(5, 296, 301)

    def test_work_cap_counts_the_entries(self, monkeypatch):
        # each of the n - r + 1 sweeps multiplies in all r entries: 150
        # entries of 284 digits at n = 300 are 150 x 151 x 284 = 6.4 million,
        # where (n - r + 1) x digits alone is under the cap
        d_list = [-(10**284 - 1)] * 150
        assert 151 * 284 <= MAX_DEGREE_WORK
        # at the cap, 10 x 43 x 100 = 43,000, the sums run; one digit more
        # is refused before them
        d = 10**100 - 1
        assert singular_degree_formula(52, 10, [d] * 10) == sum(
            comb(53, 43 - i) * comb(i + 9, 9) * d**i for i in range(44)
        )

        def summed(*args):
            raise AssertionError("the sums ran")

        monkeypatch.setattr(chow, "_complete_homogeneous", summed)
        message = "degree formula work r x (n - r + 1) x (digits of the largest |d_i|) = {} x {} x {} exceeds the cap of 43000"
        with pytest.raises(ValueError) as exc:
            singular_degree_formula(300, 150, d_list)
        assert str(exc.value) == message.format(150, 151, 284)
        with pytest.raises(ValueError) as exc:
            singular_degree_formula(52, 10, [10**100] * 10)
        assert str(exc.value) == message.format(10, 43, 101)

    def test_pullback_degree_values(self):
        assert pullback_degree(3, 2, 2) == 15
        assert pullback_degree(5, 3, 0) == 1
        assert pullback_degree(5, 1, 1) == 3

    def test_pullback_degree_is_the_geometric_series(self):
        for d in (0, 1, 2, 3, 10):
            for n, k in ((2, 1), (3, 2), (5, 1), (5, 4), (9, 8), (40, 39), (300, 299)):
                assert pullback_degree(n, k, d) == sum(d**j for j in range(k + 2))

    def test_pullback_degree_validation(self):
        with pytest.raises(ValueError):
            pullback_degree(3, 0, 2)
        with pytest.raises(ValueError):
            pullback_degree(3, 1, -1)

    def test_pullback_consistency_grid(self):
        # split tangent O(1-d) + O(1)^{r-1} realizes the pullback of a
        # degree-d foliation by curves; its twist entries are (d-1, -1, ...)
        for n in range(3, 9):
            for k in range(1, n):
                r = n - k
                for d in range(1, 7):
                    d_list = [d - 1] + [-1] * (r - 1)
                    assert singular_degree_formula(n, r, d_list) == pullback_degree(
                        n, k, d
                    )


class TestPorteous:
    def test_two_line_example(self):
        assert porteous_singular_degree(3, SplitBundle(3, (-2, -2))) == 2

    def test_inapplicable_raises(self):
        # a trivial sub-line-bundle of Omega^1 cannot exist; the formula
        # signals that with the negative candidate degree -4 on P^3
        with pytest.raises(PorteousInapplicableError):
            porteous_singular_degree(3, SplitBundle(3, (0,)))

    def test_rank_gate(self):
        with pytest.raises(ValueError):
            porteous_singular_degree(3, SplitBundle(3, (-1, -1, -1)))

    def test_matches_cotangent_quotient_on_a_grid(self):
        # Porteous is the h^codim coefficient of c(Omega^1)/c(E) with
        # codim = n - rank + 1, refused exactly where it is not positive
        cases = 0
        for n in range(2, 8):
            omega = cotangent_chern(n)
            for rank in range(1, n):
                codim = n - rank + 1
                for tw in combinations_with_replacement(range(-5, 3), rank):
                    e = SplitBundle(n, tw)
                    want = chern_difference(omega, chern_total(e)).coefficient(codim)
                    if want > 0:
                        assert porteous_singular_degree(n, e) == want
                    else:
                        with pytest.raises(PorteousInapplicableError) as exc:
                            porteous_singular_degree(n, e)
                        assert str(exc.value) == (
                            "formula inapplicable (expected-codimension hypothesis "
                            f"violated): candidate degree {want} in codimension {codim}"
                        )
                    cases += 1
        assert cases == 4998

    def test_rank_two_closed_form_on_p3(self):
        # degeneracy curve of two generic twisted 1-forms O(-a), O(-b):
        # h^2 coefficient of (1-h)^4 / (1-ah)(1-bh) expands to
        # a^2+ab+b^2 - 4(a+b) + 6
        for a in range(2, 6):
            for b in range(2, 6):
                e = SplitBundle(3, (-a, -b))
                want = a * a + a * b + b * b - 4 * (a + b) + 6
                assert porteous_singular_degree(3, e) == want


class TestClassification:
    def test_lookup_returns_each_row(self):
        for entry in CLASSIFICATION:
            assert classification_entry(entry.n, entry.degree) is entry
            assert len(entry.pfaff_twists) == entry.n - 1

    def test_degrees_are_derived_from_the_pfaff_twists(self):
        assert [(e.n, e.degree) for e in CLASSIFICATION] == [(4, 2), (4, 3), (5, 3), (5, 4)]
        for entry in CLASSIFICATION:
            params = DistributionParams.from_pfaff(entry.n, SplitBundle(entry.n, entry.pfaff_twists))
            assert (params.r, params.d) == (1, entry.degree)
            assert entry.to_json()["degree"] == entry.degree

    def test_unknown_row_names_the_known_ones(self):
        with pytest.raises(ValueError, match=r"no classification row for n=6, degree=2; known: \(n=4, degree=2\)"):
            classification_entry(6, 2)
