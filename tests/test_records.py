"""motkit's bulk value records keep no per-instance dict.

BoundingBox, streamline's Node and Edge and quantcore's MultiThresholdOp
are slotted dataclasses: instances have no ``__dict__``, copy and pickle
give an equal record, frozen records refuse every assignment and the
mutable ones keep their declared fields assignable.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from motkit.geometry import BoundingBox
from motkit.quantcore import MultiThresholdOp
from motkit.streamline import Edge, Node

RECORDS = {
    "BoundingBox": lambda: BoundingBox(1.0, 2.0, 3.5, 4.5, 0.75, 3),
    "Node": lambda: Node("c0", "Conv", {"weights": np.ones((2, 1, 1, 1)), "stride": 1}),
    "Edge": lambda: Edge("e1", "a", "b", 0, 1, 0.5, 8, True),
    "MultiThresholdOp": lambda: MultiThresholdOp(
        np.array([[0.0, 1.0, 2.0], [-1.0, 0.5, 3.0]]), 2, -1, np.array([False, True])
    ),
}


def same(a, b) -> bool:
    """Equality of records field by field, of dicts key by key; arrays
    (Node's attrs, MultiThresholdOp's thresholds and count_above) compare
    with np.array_equal and by dtype."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", RECORDS)
def test_instances_have_no_dict(name):
    record = RECORDS[name]()
    assert not hasattr(record, "__dict__")
    assert not hasattr(record, "__weakref__")


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal(name, clone):
    record = RECORDS[name]()
    twin = clone(record)
    assert twin is not record
    assert same(twin, record)
    if name in ("BoundingBox", "Edge"):  # no array fields: the generated __eq__
        assert twin == record


@pytest.mark.parametrize("name", ["BoundingBox", "MultiThresholdOp"])
def test_frozen_records_refuse_every_assignment(name):
    record = RECORDS[name]()
    frozen = dataclasses.FrozenInstanceError
    for f in dataclasses.fields(record):
        with pytest.raises(frozen, match=f"cannot assign to field '{f.name}'"):
            setattr(record, f.name, 0)
        with pytest.raises(frozen, match=f"cannot delete field '{f.name}'"):
            delattr(record, f.name)
    # An undeclared name cannot be set either. Python 3.11's slotted frozen
    # dataclasses raise TypeError for it (their __setattr__ calls super()
    # on the class that slots=True replaced), unslotted ones FrozenInstanceError.
    with pytest.raises((frozen, TypeError)):
        record.extra = 0
    assert not hasattr(record, "extra")


def test_bounding_box_hash_and_repr_follow_the_fields():
    box = RECORDS["BoundingBox"]()
    assert hash(box) == hash(copy.deepcopy(box))
    assert repr(box) == (
        "BoundingBox(x_min=1.0, y_min=2.0, x_max=3.5, y_max=4.5, score=0.75, class_id=3)"
    )


@pytest.mark.parametrize("name", ["Node", "Edge"])
def test_mutable_records_keep_declared_fields_assignable(name):
    record = RECORDS[name]()
    for f in dataclasses.fields(record):
        setattr(record, f.name, "x")
        assert getattr(record, f.name) == "x"
    with pytest.raises(AttributeError):
        record.extra = 0


def test_defaults_are_unchanged():
    assert (BoundingBox(0, 0, 1, 1).score, BoundingBox(0, 0, 1, 1).class_id) == (1.0, 0)
    assert Node("n", "Mul").attrs == {} and Node("n", "Mul").attrs is not Node("n", "Mul").attrs
    edge = Edge("e", "a", "b")
    assert (edge.src_out, edge.dst_in) == (0, 0)
    assert edge.scale is edge.bits is edge.signed is None
    op = MultiThresholdOp(np.array([0.5]), 1)
    assert op.out_bias == 0 and op.count_above.tolist() == [False]
