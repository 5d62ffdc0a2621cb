"""The per-frame value types: frozen, slotted, equal and hashed by value,
and rebuilt by pickling and `dataclasses.replace`; and the named-tuple
states the step path builds, which behave as constructor-built ones."""
import dataclasses
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import DriftPort
from retrack.candidate_select import CandidateSet
from retrack.engine import EngineConfig, EngineState, engine_init, step
from retrack.geometry import BBox, Tracklet
from retrack.motion import MotionState, motion_predict, motion_update
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


@pytest.mark.parametrize("real", [np.float32, np.float64, int, Fraction])
def test_box_fields_are_stored_as_floats(real):
    box = BBox(real(1), real(2), real(3), real(4))
    assert [type(v) for v in box.as_tuple()] == [float] * 4
    assert box == BBox(1.0, 2.0, 3.0, 4.0)


def test_a_float32_box_is_judged_in_float64():
    # in float32, 1e6 + 0.01 rounds back to 1e6: the box would not measure its width
    x, w = np.float32(1e6), np.float32(0.01)
    assert x + w - x == 0.0
    box = BBox(x, np.float32(0.0), w, np.float32(2.5))
    assert (box.x, box.w) == (1e6, float(w))
    assert box.x2 - box.x == pytest.approx(box.w, rel=1e-6)


@pytest.mark.parametrize("field", ["3", Decimal(3)])
def test_a_box_field_that_is_not_real_is_a_type_error(field):
    # `float` would parse the string and convert the `Decimal`
    with pytest.raises(TypeError, match=f"must be real number, not {type(field).__name__}$"):
        BBox(1.0, 2.0, field, 4.0)


@pytest.mark.parametrize("field", [10**400, -10**400, 10**5000, Fraction(10**400, 3)],
                         ids=["10**400", "-10**400", "10**5000", "Fraction(10**400, 3)"])
@pytest.mark.parametrize("name", ["x", "h"])
def test_a_box_field_past_the_float_range_is_a_value_error(name, field):
    # named by type: an int of over 4,300 digits cannot be formatted
    fields = {"x": 0.0, "y": 0.0, "w": 1.0, "h": 1.0, name: field}
    with pytest.raises(ValueError, match=f"^BBox.{name} is too large for a float: "
                                         f"{type(field).__name__}$"):
        BBox(**fields)


def _stepped_states():
    """A motion state from `motion_predict` and from `motion_update`, and an
    engine state from `step`: the states the step path builds."""
    port = DriftPort()
    state = engine_init(port, 0, BBox(0.0, 0.0, 4.0, 4.0), EngineConfig())
    _, predicted = motion_predict(state.motion)
    _, stepped, _ = step(state, 1, port, EngineConfig())
    return [predicted, motion_update(predicted, BBox(1.0, 0.0, 4.0, 4.0)), stepped]


@pytest.mark.parametrize("index", range(3), ids=["predict", "update", "step"])
def test_stepped_states_are_their_named_tuples(index):
    state = _stepped_states()[index]
    cls = EngineState if index == 2 else MotionState
    assert type(state) is cls
    assert state._fields == cls._fields
    rebuilt = cls(*state)
    assert state == rebuilt and hash(state) == hash(rebuilt)
    assert repr(state) == repr(rebuilt)
    assert state._replace() == state
    assert type(state._replace()) is cls
    field = cls._fields[-1]
    assert getattr(state._replace(**{field: None}), field) is None
    copy = pickle.loads(pickle.dumps(state))
    assert type(copy) is cls
    assert copy == state
