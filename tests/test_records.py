"""Records: each seqlab record class behaves as the frozen dataclass it was.

``arith._record`` makes the records without importing ``dataclasses`` at
start-up.  Each record is compared here with a frozen-dataclass twin built
from the field list below, on drawn field values: the same fields in the same
order, the same defaults, ``repr``, ``==`` and ``hash``, and the same
refusals from ``__post_init__``.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seqlab.algebraic import BUNDLED_GROUPS, ConstructionParams, Endomorphism, FiniteGroup, bundled_group
from seqlab.arith import PAdicPart, _record
from seqlab.bfile import BFile
from seqlab.classical import BernoulliTable, DerivedBernoulli, EulerTable
from seqlab.congruences import CongruenceCheck
from seqlab.experiment import ExperimentSpec
from seqlab.matrices import IntMatrix
from seqlab.primes import EulerStrength, PrimeClassification, Regularity
from seqlab.realizability import (
    MagicalReport,
    OrbitCounts,
    RealizabilityReport,
    Sequence1,
    Verdict,
)

REQUIRED = dataclasses.MISSING
FRESH_DICT = dataclasses.field(default_factory=dict)

# Every record class, its fields in order and their defaults, as the frozen
# dataclasses declared them.
FIELDS = {
    PAdicPart: [("ord", REQUIRED), ("part", REQUIRED)],
    BFile: [("source", REQUIRED), ("offset", REQUIRED), ("values", REQUIRED)],
    CongruenceCheck: [("description", REQUIRED), ("modulus", REQUIRED), ("lhs", REQUIRED),
                      ("rhs", REQUIRED), ("holds", REQUIRED)],
    Sequence1: [("values", REQUIRED), ("label", "")],
    OrbitCounts: [("values", REQUIRED)],
    Verdict: [("status", REQUIRED), ("checked_upto", REQUIRED), ("n", None), ("value", None),
              ("detail", FRESH_DICT)],
    RealizabilityReport: [("checked_upto", REQUIRED), ("dold", REQUIRED), ("sign", REQUIRED),
                          ("monotone", REQUIRED)],
    MagicalReport: [("entries", REQUIRED)],
    BernoulliTable: [("max_index", REQUIRED), ("values", REQUIRED)],
    EulerTable: [("max_index", REQUIRED), ("values", REQUIRED)],
    DerivedBernoulli: [("max_index", REQUIRED), ("numerators", REQUIRED), ("denominators", REQUIRED),
                       ("clausen_denominators", REQUIRED)],
    Regularity: [("status", REQUIRED), ("witness", None)],
    EulerStrength: [("kind", REQUIRED), ("bound", None), ("witness", None)],
    PrimeClassification: [("q", REQUIRED), ("depth", REQUIRED), ("bernoulli_status", None),
                          ("euler_status", None), ("euler_strength", None)],
    ConstructionParams: [("p", REQUIRED), ("m", REQUIRED), ("k", REQUIRED), ("q", REQUIRED),
                         ("c", REQUIRED)],
    FiniteGroup: [("order", REQUIRED), ("table", REQUIRED), ("identity", REQUIRED),
                  ("names", REQUIRED), ("label", "")],
    Endomorphism: [("image", REQUIRED)],
    ExperimentSpec: [("source", REQUIRED), ("label", None), ("depth", None), ("prime_limit", None),
                     ("primes", None), ("local_checks", ("dold", "sign")), ("max_shift", None),
                     ("shift", 0), ("absolute", False), ("offset_policy", "shift-to-1"),
                     ("scale", 1), ("fixtures_dir", None), ("cache_dir", None),
                     ("online", False)],
    IntMatrix: [("rows", REQUIRED)],
}
RECORDS = list(FIELDS)
# attributes a ``__post_init__`` sets beside the fields
DERIVED = {IntMatrix: {"n"}}
GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
             "__match_args__", "__dict__", "__weakref__", "__annotations__"}


def twin(cls):
    """A frozen dataclass with the listed fields and ``cls``'s own methods."""
    spec = [(name, object) if default is REQUIRED else
            (name, object, default if isinstance(default, dataclasses.Field)
             else dataclasses.field(default=default))
            for name, default in FIELDS[cls]]
    names = {name for name, _ in FIELDS[cls]}
    namespace = {k: v for k, v in vars(cls).items() if k not in GENERATED | names}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


TWINS = {cls: twin(cls) for cls in RECORDS}

PASS = Verdict.pass_up_to(3)
S3 = bundled_group("s3")
GROUP_FIELDS = {name: [getattr(bundled_group(name), f) for f, _ in FIELDS[FiniteGroup]]
                for name in BUNDLED_GROUPS}

# A valid argument list for each record.
SAMPLES = {
    PAdicPart: (2, 4),
    BFile: ("x.txt", 1, (1, 2)),
    CongruenceCheck: ("x = y mod 7", 7, 1, 1, True),
    Sequence1: ((1, 3), "s"),
    OrbitCounts: ((1, 1),),
    Verdict: ("fail-at", 4, 2, -1, {"divisor": 1}),
    RealizabilityReport: (3, PASS, PASS, PASS),
    MagicalReport: (((0, PASS, PASS),),),
    BernoulliTable: (1, (Fraction(1, 6),)),
    EulerTable: (1, (-1,)),
    DerivedBernoulli: (1, Sequence1((1,)), Sequence1((12,)), Sequence1((6,))),
    Regularity: ("regular",),
    EulerStrength: ("weak", None, 3),
    PrimeClassification: (5, 10),
    ConstructionParams: (2, 1, 1, 2, 1),
    FiniteGroup: tuple(GROUP_FIELDS["s3"]),
    Endomorphism: ((0, 1),),
    ExperimentSpec: ("e",),
    IntMatrix: (((1, 2), (3, 4)),),
}

# Field values for records without a ``__post_init__`` (a Verdict among them
# makes a record unhashable), a dict where the default is one, and for the
# four that validate, values their checks accept and refuse
VALUE = st.one_of(st.none(), st.booleans(), st.integers(-10, 10), st.text(max_size=3),
                  st.tuples(st.integers(-3, 3)), st.just(PASS), st.just(Sequence1((1, 2))))
DICT = st.dictionaries(st.text(max_size=2), st.integers(-5, 5), max_size=2)
MAYBE_INT = st.one_of(st.none(), st.integers(-2, 60), st.floats(-2, 60, allow_nan=False))
PRIMES = st.one_of(st.none(), st.lists(st.sampled_from([2, 3, 7, 61, 4, 1, 7.0]), max_size=3))
ENTRY = st.one_of(st.integers(-5, 5), st.booleans(), st.just(1.5))
SQUARE = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
VALIDATED = {
    Sequence1: {"values": st.lists(st.integers(-2, 30), max_size=4), "label": st.text(max_size=3)},
    FiniteGroup: {"order": st.integers(0, 70), "identity": st.integers(-1, 8),
                  "label": st.text(max_size=3)},
    ExperimentSpec: {"source": st.sampled_from(["e", "t", "A000032"]),
                     "label": st.one_of(st.none(), st.text(max_size=3)),
                     "depth": MAYBE_INT, "prime_limit": MAYBE_INT, "primes": PRIMES,
                     "local_checks": st.lists(st.sampled_from(["dold", "sign", "monotone"]),
                                              max_size=3),
                     "max_shift": MAYBE_INT, "shift": st.integers(-1, 5),
                     "absolute": st.booleans(),
                     "offset_policy": st.sampled_from(["shift-to-1", "strict", "other"]),
                     "scale": st.one_of(st.integers(0, 3), st.just(1.5))},
    IntMatrix: {"rows": st.one_of(SQUARE, st.lists(st.lists(ENTRY, max_size=3), max_size=3))},
}


def outcome(make, args, kwargs):
    """The constructed object, or the type and text of the refusal."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def arguments(draw, cls):
    """Positional and keyword arguments for ``cls``: drawn values, some fields
    left to their defaults, a prefix passed by position."""
    fields = FIELDS[cls]
    values = [draw(VALIDATED.get(cls, {}).get(name, DICT if default is FRESH_DICT else VALUE))
              for name, default in fields]
    if cls is FiniteGroup and draw(st.booleans()):  # a bundled group, so the table is valid
        values[:4] = GROUP_FIELDS[draw(st.sampled_from(BUNDLED_GROUPS))][:4]
    elif cls is FiniteGroup:
        values[1:4:2] = [tuple(tuple(row) for row in S3.table), S3.names]
    given = [i for i, (_, default) in enumerate(fields)
             if default is REQUIRED or draw(st.booleans())]
    run = next((k for k, i in enumerate(given) if k != i), len(given))  # fields 0..run-1 given
    positional = draw(st.integers(0, run))
    args = [values[i] for i in given[:positional]]
    kwargs = {fields[i][0]: values[i] for i in given[positional:]}
    return args, kwargs


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_has_the_fields_in_order_and_is_no_dataclass(cls):
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(TWINS[cls]))
    assert not dataclasses.is_dataclass(cls)
    assert set(vars(cls(*SAMPLES[cls]))) == set(cls.__match_args__) | DERIVED.get(cls, set())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_a_record_agrees_with_its_dataclass_twin(cls, data):
    args, kwargs = data.draw(arguments(cls))
    record, other = outcome(cls, args, kwargs), outcome(TWINS[cls], args, kwargs)
    if isinstance(other, tuple):  # the twin refused them, so must the record
        assert record == other
        return
    assert isinstance(record, cls)
    assert vars(record) == vars(other)
    assert repr(record) == repr(other)
    assert record == outcome(cls, args, kwargs) and not record != outcome(cls, args, kwargs)
    assert record != other and record.__eq__(other) is NotImplemented
    try:
        expected = hash(other)
    except TypeError:  # an unhashable field value, as a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_assigning_or_deleting_an_attribute_raises_the_dataclass_wording(cls):
    record, other = cls(*SAMPLES[cls]), TWINS[cls](*SAMPLES[cls])
    for name in (cls.__match_args__[0], "no_such_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(other, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(other, name)
    assert record == cls(*SAMPLES[cls])


def test_each_verdict_gets_a_fresh_detail():
    a, b = Verdict("pass-up-to", 3), Verdict("pass-up-to", 3)
    assert a.detail == {} and a.detail is not b.detail
    a.detail["x"] = 1
    assert Verdict("pass-up-to", 3).detail == {} and b.detail == {}
    given = {"divisor": 2}
    assert Verdict("fail-at", 4, 2, 1, given).detail is given  # as the dataclass kept it


def test_post_init_is_looked_up_at_each_call(monkeypatch):
    calls = []
    post_init = Sequence1.__post_init__
    monkeypatch.setattr(Sequence1, "__post_init__", lambda self: calls.append(post_init(self)))
    Sequence1((1, 2))
    Sequence1(values=(3,), label="x")
    assert len(calls) == 2


def test_a_record_matches_by_position_and_takes_its_init_errors_by_name():
    match Verdict("fail-at", 7, 2, -3):
        case Verdict(status, checked_upto, n, value):
            assert (status, checked_upto, n, value) == ("fail-at", 7, 2, -3)
    with pytest.raises(TypeError, match=r"^Verdict\.__init__\(\) missing 1 required positional "
                                        r"argument: 'checked_upto'$"):
        Verdict("pass-up-to")
    with pytest.raises(TypeError, match="unexpected keyword argument 'depthh'"):
        ExperimentSpec("e", depthh=3)


def test_record_of_a_new_class():
    @_record
    class Pair:
        left: int
        right: list = []
        tag: str = "t"

        def __post_init__(self):
            object.__setattr__(self, "left", abs(self.left))

    a = Pair(-2)
    assert (a.left, a.right, a.tag) == (2, [], "t") and a.right is not Pair(1).right
    assert a == Pair(2, []) and a != Pair(2, [], "u") and repr(a) == f"{Pair.__qualname__}(left=2, right=[], tag='t')"
    assert Pair.__match_args__ == ("left", "right", "tag")
    with pytest.raises(TypeError):
        hash(a)
    assert hash(Pair(2, None)) == hash((2, None, "t"))
