"""The immutable value classes: constructor signatures and defaults, equality
and hashing by value, immutability, validation messages, repr and copies."""

import copy
import pickle

import pytest

from helpers import BINARY
from oplab.branch import AvoidanceSystem, BranchError, BranchWord, parse_branch_word
from oplab.dims import DimSeries
from oplab.series import GkReport, RationalFit, RecurrenceCandidate, ZeroRunReport
from oplab.trees import Alphabet, Generator, TreeError


def values():
    """Each value class with its fields, built twice from equal arguments."""
    return [
        (lambda: Generator("a", 2), {"name": "a", "arity": 2}),
        (lambda: Alphabet((Generator("a", 2), Generator("u", 1))),
         {"generators": (Generator("a", 2), Generator("u", 1))}),
        (lambda: DimSeries([1, 1, 2], "arity"),
         {"values": (1, 1, 2), "index_kind": "arity", "exact": True}),
        (lambda: BranchWord([(Generator("a", 2), 2), (Generator("a", 2), 2)]),
         {"letters": ((Generator("a", 2), 2), (Generator("a", 2), 1))}),
        (lambda: AvoidanceSystem(BINARY, [parse_branch_word("a:1 a", BINARY)], {("a", 2): 1}),
         {"alphabet": BINARY, "forbidden": (parse_branch_word("a:1 a", BINARY),),
          "letter_caps": {("a", 2): 1}}),
    ]


@pytest.mark.parametrize("make, fields", values())
def test_equal_values_from_distinct_objects(make, fields):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    for name, value in fields.items():
        assert getattr(a, name) == value
    assert a != object() and a != tuple(fields.values())


@pytest.mark.parametrize("make, fields", values())
def test_fields_cannot_be_assigned_or_deleted(make, fields):
    a = make()
    for name, value in fields.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("make, fields", values())
def test_copies_and_pickles_are_equal(make, fields):
    a = make()
    for other in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert other == a and hash(other) == hash(a)


def test_hashes_are_the_field_tuples():
    # TreeMonomial hashes (generator, children): set order and the sweep
    # digests depend on these
    assert hash(Generator("a", 2)) == hash(("a", 2))
    assert hash(DimSeries((1, 2), "weight", False)) == hash(((1, 2), "weight", False))
    assert hash(BINARY) == hash(BINARY.generators)
    word = parse_branch_word("a:2 a", BINARY)
    assert hash(word) == hash((word.letters,))
    system = AvoidanceSystem(BINARY, (word,), {("a", 2): 3})
    assert hash(system) == hash((BINARY, (word,), ((("a", 2), 3),)))


def test_keyword_construction_and_defaults():
    assert DimSeries([1], "arity").exact is True
    assert DimSeries(values=[1], index_kind="degree", exact=False).exact is False
    system = AvoidanceSystem(BINARY)
    assert system.forbidden == () and system.letter_caps == {}
    assert AvoidanceSystem(alphabet=BINARY, letter_caps={("a", 1): 0}).letter_caps == {("a", 1): 0}
    assert Generator(name="b", arity=3) == Generator("b", 3)
    assert Alphabet(generators=[Generator("a", 2)]) == BINARY


def test_reprs_name_every_field():
    assert repr(Generator("a", 2)) == "Generator(name='a', arity=2)"
    assert repr(BINARY) == "Alphabet(generators=(Generator(name='a', arity=2),))"
    assert repr(DimSeries([1, 2], "arity")) == (
        "DimSeries(values=(1, 2), index_kind='arity', exact=True)")
    assert repr(AvoidanceSystem(BINARY)) == (
        f"AvoidanceSystem(alphabet={BINARY!r}, forbidden=(), letter_caps={{}})")
    assert repr(parse_branch_word("a:1 a", BINARY)) == "a:1 a"


@pytest.mark.parametrize("make, error, message", [
    (lambda: Generator("a", 0), TreeError, "generator arity must be a positive integer, got 0"),
    (lambda: Generator("", 2), TreeError, "generator name must be nonempty printable, got ''"),
    (lambda: Generator("a b", 2), TreeError, "generator name 'a b' contains reserved characters"),
    (lambda: Generator("1", 2), TreeError,
     "generator name '1' is reserved for the trivial monomial"),
    (lambda: Alphabet(()), TreeError, "alphabet must contain at least one generator"),
    (lambda: Alphabet((Generator("a", 2), Generator("a", 1))), TreeError,
     "generator names must be unique within an alphabet"),
    (lambda: DimSeries((1,), "height"), ValueError, "unknown index kind 'height'"),
    (lambda: DimSeries((1, 2.0), "arity"), ValueError, "dimensions must be ints"),
    (lambda: DimSeries((1, -1), "arity"), ValueError, "dimensions must be nonnegative"),
    (lambda: BranchWord([("a", 1)]), BranchError, "letter 1 is not a Generator"),
    (lambda: BranchWord([(Generator("a", 2), 3), (Generator("a", 2), 1)]), BranchError,
     "index 3 at position 1 out of range 1..2"),
    (lambda: AvoidanceSystem(BINARY, (BranchWord(()),)), BranchError,
     "forbidden factors must be nonempty"),
    (lambda: AvoidanceSystem(BINARY, (), {("a", 3): 1}), BranchError,
     "cap letter a:3 has an invalid index"),
    (lambda: AvoidanceSystem(BINARY, (), {("a", 1): -1}), BranchError,
     "letter caps must be nonnegative"),
])
def test_validation_messages(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_records_are_named_tuples():
    # plain records: equal and hashed as the tuple of their fields
    records = [
        GkReport(1.5, 1.5, 1.6, False, (10, 20), 20),
        RationalFit((0, 1), (1, -1, -1)),
        RecurrenceCandidate(1, 0, ((1,), (-2,)), (1, 30)),
        ZeroRunReport(((1, 2),), 2, False),
    ]
    for r in records:
        assert r == tuple(r) and hash(r) == hash(tuple(r))
        assert r._replace() == r
        with pytest.raises(AttributeError):
            r.__setattr__(r._fields[0], None)
    assert repr(records[3]) == "ZeroRunReport(runs=((1, 2),), max_run=2, growing=False)"
