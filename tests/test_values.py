"""The per-frame value types: frozen, slotted, equal and hashed by value,
and rebuilt by pickling and `dataclasses.replace`."""
import dataclasses
import pickle

import pytest

from retrack.candidate_select import CandidateSet
from retrack.geometry import BBox, Tracklet
from retrack.tracker_port import RawCandidates

A, B = BBox(1.0, 2.0, 3.0, 4.0), BBox(6.0, 2.0, 3.0, 4.0)

# each type with a builder of equal, separately built instances
VALUES = {
    "BBox": lambda: BBox(1.0, 2.0, 3.0, 4.0),
    "Tracklet": lambda: Tracklet(7, (A, B)),
    "CandidateSet": lambda: CandidateSet((A, B), (0.9, 0.0), 1),
    "RawCandidates": lambda: RawCandidates((A, B), (0.9, 0.4)),
}


@pytest.fixture(params=sorted(VALUES))
def make(request):
    return VALUES[request.param]


def test_fields_cannot_be_assigned(make):
    value = make()
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


def test_equal_values_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


def test_pickle_round_trips(make):
    value = make()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value


def test_instances_have_no_dict(make):
    # the fields live in slots: no per-instance dict
    assert not hasattr(make(), "__dict__")


def test_replace_rebuilds_an_equal_value(make):
    value = make()
    assert dataclasses.replace(value) == value


def test_replace_on_a_box_runs_its_checks():
    box = BBox(1.0, 2.0, 3.0, 4.0)
    assert dataclasses.replace(box, x=5.0) == BBox(5.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValueError, match="BBox must have positive size"):
        dataclasses.replace(box, w=-1.0)


def test_repr_is_the_dataclass_repr():
    assert repr(BBox(1.0, 2.0, 3.0, 4.0)) == "BBox(x=1.0, y=2.0, w=3.0, h=4.0)"
    assert repr(CandidateSet((A,), (0.5,))) == (
        "CandidateSet(boxes=(BBox(x=1.0, y=2.0, w=3.0, h=4.0),), scores=(0.5,), "
        "kalman_index=None)")
