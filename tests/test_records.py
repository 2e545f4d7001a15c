"""The record classes of the package: their repr text, equality, hashing,
immutability, and copy and pickle round trips.

Every record is a plain class: a namedtuple subclass for an immutable
value, with a __dict__ kept where it has cached properties (SplitBundle,
VirtualSheaf, ChaseResult), or a __slots__ class (the mutable
CohomologyTable, and PolyKForm, whose algebra is its own). The repr texts
are pinned as they read when the records were dataclasses.
"""

import copy
import pickle
from math import inf

import pytest

from singscheme.chase import ChaseResult, ExactTriple, TableRef, en_complex_pfaff, windowed_chase
from singscheme.chow import CLASSIFICATION, ClassificationEntry, DistributionParams, SplitBundle
from singscheme.cohomology import (
    CohomologyTable,
    CotangentPower,
    DimValue,
    LineBundle,
    VirtualSheaf,
    Window,
    table,
)
from singscheme.criteria import Verdict
from singscheme.forms import GradedIdeal, HomogeneousPoly, PolyKForm, PolyVectorField, radial_field
from singscheme.hilbert import hilbert_profile


def _z(i: int) -> HomogeneousPoly:
    return HomogeneousPoly.variable(2, i)


def _line(n: int, a: int) -> VirtualSheaf:
    return VirtualSheaf.from_pairs(n, [(LineBundle(a), 1)])


# name -> (make, repr); each call of make returns a fresh, equal record.
RECORDS = {
    "TableRef": (lambda: TableRef("I_Z", -3), "TableRef(name='I_Z', offset=-3)"),
    "ExactTriple": (
        lambda: ExactTriple(_line(2, -1), _line(2, 0), TableRef("K"), 2, "ses"),
        "ExactTriple(a=VirtualSheaf(n=2, atoms=((LineBundle(a=-1), 1),)), b=VirtualSheaf(n=2, atoms=((LineBundle(a=0), 1),)),"
        " c=TableRef(name='K', offset=0), n=2, label='ses')",
    ),
    "ChaseResult": (lambda: ChaseResult(1, {}, ()), "ChaseResult(n=1, tables={}, plan=())"),
    "SplitBundle": (lambda: SplitBundle(3, (1, -2, 1)), "SplitBundle(n=3, twists=(1, 1, -2))"),
    "DistributionParams": (lambda: DistributionParams(4, 1, 2), "DistributionParams(n=4, r=1, d=2)"),
    "ClassificationEntry": (
        lambda: ClassificationEntry(4, (-2, -2, -3), "K3 surface of genus 7"),
        "ClassificationEntry(n=4, pfaff_twists=(-2, -2, -3), sing_description='K3 surface of genus 7', degree=3)",
    ),
    "Window": (lambda: Window(-inf, 2), "Window(lo=-inf, hi=2)"),
    "VirtualSheaf": (
        lambda: VirtualSheaf.from_pairs(3, [(CotangentPower(1, 0), 2), (LineBundle(-1), 1)]),
        "VirtualSheaf(n=3, atoms=((LineBundle(a=-1), 1), (CotangentPower(p=1, k=0), 2)))",
    ),
    "CohomologyTable": (
        lambda: table(_line(1, 0), 0, 0),
        "CohomologyTable(n=1, rows={0: {0: DimValue(lo=1, hi=1)}, 1: {0: DimValue(lo=0, hi=0)}},"
        " windows={0: Window(lo=0, hi=inf), 1: Window(lo=-inf, hi=-2)}, dim_z=None)",
    ),
    "Verdict": (
        lambda: Verdict("fails", ((1, 0, DimValue(2, inf)),), "acm: nonzero"),
        "Verdict(decision='fails', witnesses=((1, 0, DimValue(lo=2, hi=inf)),), certificate='acm: nonzero')",
    ),
    "PolyKForm": (
        lambda: PolyKForm.from_dict(2, 1, {(0,): _z(1), (1,): -_z(0)}),
        "PolyKForm(nvars=2, k=1, coeffs=(((0,), HomogeneousPoly(nvars=2, terms=(((0, 1), 1),))),"
        " ((1,), HomogeneousPoly(nvars=2, terms=(((1, 0), -1),)))))",
    ),
    "PolyVectorField": (
        lambda: radial_field(2),
        "PolyVectorField(nvars=2, components=(HomogeneousPoly(nvars=2, terms=(((1, 0), 1),)),"
        " HomogeneousPoly(nvars=2, terms=(((0, 1), 1),))))",
    ),
    "GradedIdeal": (
        lambda: GradedIdeal(2, (_z(0), _z(1) * _z(1))),
        "GradedIdeal(nvars=2, generators=(HomogeneousPoly(nvars=2, terms=(((1, 0), 1),)),"
        " HomogeneousPoly(nvars=2, terms=(((0, 2), 1),))))",
    ),
    "HilbertProfile": (
        lambda: hilbert_profile(GradedIdeal(2, (_z(0),))),
        "HilbertProfile(ideal=GradedIdeal(nvars=2, generators=(HomogeneousPoly(nvars=2, terms=(((1, 0), 1),)),)),"
        " values={0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, polynomial=(Fraction(1, 1),), stable_from=0, scheme_dim=0,"
        " scheme_deg=1, numerator=(1, -1))",
    ),
}
# Records holding a dict: unhashable, as they were as dataclasses.
UNHASHABLE = {"ChaseResult", "CohomologyTable", "HilbertProfile"}


def _round_trips(record):
    return copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_pinned(name):
    make, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_and_hash(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != object()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"CohomologyTable"}))
def test_attribute_writes_raise(name):
    record = RECORDS[name][0]()
    field = getattr(record, "_fields", type(record).__slots__)[0]
    for target in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, target, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == RECORDS[name][1]


def test_table_fields_are_mutable_but_fixed():
    t = RECORDS["CohomologyTable"][0]()
    t.dim_z = 0
    assert t == CohomologyTable(t.n, t.rows, t.windows, 0) and t != RECORDS["CohomologyTable"][0]()
    with pytest.raises(AttributeError):
        t.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_copy_deepcopy_and_pickle_keep_the_class(name):
    record = RECORDS[name][0]()
    for back in _round_trips(record):
        assert back == record and type(back) is type(record) and repr(back) == repr(record)


def test_split_bundle_round_trips_rebuild_its_counts():
    # the constructor takes the twists, not the stored counts
    bundle = SplitBundle(4, (2, -1, 2, 0))
    assert bundle.counts == ((2, 2), (0, 1), (-1, 1))
    fresh, read = SplitBundle(4, (0, 2, -1, 2)), bundle.twists
    for back in (*_round_trips(fresh), *_round_trips(bundle)):
        assert type(back) is SplitBundle and back == bundle
        assert back.counts == bundle.counts and back.twists == read == (2, 2, 0, -1)


def test_classification_entry_round_trips_keep_the_derived_degree():
    for entry in CLASSIFICATION:
        for back in _round_trips(entry):
            assert type(back) is ClassificationEntry and back == entry and back.degree == entry.degree
        assert entry.to_json() == {
            "n": entry.n, "pfaff_twists": entry.pfaff_twists,
            "sing_description": entry.sing_description, "degree": entry.degree,
        }


def test_chase_result_round_trips_keep_tables_and_plan():
    result = windowed_chase(en_complex_pfaff(SplitBundle(5, (-2, -2, -2)), 2, 5), "I_Z")
    for back in _round_trips(result):
        assert type(back) is ChaseResult and back == result
        assert back.explain() == result.explain()
    assert dict(result.entries) and dict(back.entries) == dict(result.entries)


def test_cached_properties_survive_the_write_refusal():
    sheaf, bundle = RECORDS["VirtualSheaf"][0](), RECORDS["SplitBundle"][0]()
    sheaf.h_row(0, [0, 1]), sheaf.row_window(1)
    assert set(vars(sheaf)) == {"windows", "_sweeps"}
    sheaf.h_row(1, [0, 1])
    assert set(vars(sheaf)) == {"windows", "_points", "_sweeps"}
    assert bundle.twists is bundle.twists and set(vars(bundle)) == {"twists"}


def test_poly_k_form_has_no_tuple_arithmetic():
    form = RECORDS["PolyKForm"][0]()
    for product in (lambda: 2 * form, lambda: form * 2):
        with pytest.raises(TypeError):
            product()
    assert (form + form).coeffs[0][1] == _z(1) * 2 and form - form == PolyKForm(2, 1, ())
    assert form != (form.nvars, form.k, form.coeffs)


def test_cross_type_equality_is_tuple_equality():
    # The namedtuple records equal any tuple of their fields, so records of
    # one shape equal each other across classes: as dataclasses, Window(0, 3)
    # and DimValue(0, 3) were unequal.
    assert Window(0, 3) == DimValue(0, 3) and hash(Window(0, 3)) == hash(DimValue(0, 3))
    assert TableRef("X") == ("X", 0)
    assert DistributionParams(4, 1, 2) == (4, 1, 2)
    assert SplitBundle(3, (1, 1)) == (3, ((1, 2),))
    # the __slots__ records stay equal to their own class alone
    assert RECORDS["CohomologyTable"][0]() != (1, {}, {}, None)
