"""The contract of `slot_init` on every class it decorates: the same
constructor, equality, hashing, repr, dataclass helpers and pickling as the
plain frozen slotted dataclass it replaces the `__init__` of."""

import copy
import inspect
import pickle
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    dataclass,
    field,
    fields,
    is_dataclass,
    make_dataclass,
    replace,
)

import pytest

from parrot_net.chirp import Chirp
from parrot_net.kinematics import KinematicState, Vec3, slot_init
from parrot_net.routing import Discard, Forward

CHIRP = Chirp(7, Vec3(1.0, 2.0, 3.0), Vec3(4.0, 5.0, 6.0), 0.5, 0.25, 9, 16)

# Each decorated class with one full set of field values, in field order.
CASES = [
    (Vec3, (1.5, -2.0, 3.25)),
    (KinematicState, (Vec3(1.0, 2.0, 3.0), 4.0, (Vec3(5.0, 6.0, 7.0),), 1)),
    (Chirp, (7, Vec3(1.0, 2.0, 3.0), Vec3(4.0, 5.0, 6.0), 0.5, 0.25, 9, 16)),
    (Forward, (CHIRP,)),
    (Discard, ("stale",)),
]
IDS = [cls.__name__ for cls, _ in CASES]


def plain(cls):
    """`cls` rebuilt as a plain frozen slotted dataclass: the reference."""
    spec = [
        (f.name, f.type) if f.default is MISSING else (f.name, f.type, field(default=f.default))
        for f in fields(cls)
    ]
    return make_dataclass(cls.__name__, spec, frozen=True, slots=True)


def values(obj):
    return tuple(getattr(obj, f.name) for f in fields(obj))


def required(cls):
    return sum(f.default is MISSING for f in fields(cls))


@pytest.mark.parametrize("cls, args", CASES, ids=IDS)
class TestContract:
    def test_is_still_a_frozen_slotted_dataclass(self, cls, args):
        assert is_dataclass(cls)
        assert cls.__dataclass_params__.frozen
        assert "__slots__" in cls.__dict__

    def test_positional_keyword_and_default_construction(self, cls, args):
        names = [f.name for f in fields(cls)]
        assert values(cls(*args)) == args
        assert values(cls(**dict(zip(names, args)))) == args
        n = required(cls)
        assert values(cls(*args[:n])) == values(plain(cls)(*args[:n]))

    def test_signature_equals_plain_dataclass(self, cls, args):
        assert inspect.signature(cls) == inspect.signature(plain(cls))

    def test_assignment_is_refused(self, cls, args):
        obj = cls(*args)
        with pytest.raises(FrozenInstanceError):
            setattr(obj, fields(cls)[0].name, args[0])
        assert values(obj) == args

    def test_eq_hash_and_repr(self, cls, args):
        a, b = cls(*args), cls(*args)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(plain(cls)(*args))
        assert repr(a) == repr(plain(cls)(*args))

    def test_fields_and_replace(self, cls, args):
        obj = cls(*args)
        assert [f.name for f in fields(obj)] == [f.name for f in fields(plain(cls))]
        rebuilt = replace(obj)
        assert type(rebuilt) is cls and rebuilt == obj and rebuilt is not obj

    def test_pickle_and_deepcopy_round_trip(self, cls, args):
        obj = cls(*args)
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj

    def test_missing_or_extra_argument_is_a_type_error(self, cls, args):
        names = [f.name for f in fields(cls)]
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(**dict(zip(names, args)), bogus=1)
        if required(cls):
            with pytest.raises(TypeError):
                cls(*args[:required(cls) - 1])


def test_refuses_post_init():
    with pytest.raises(TypeError, match="__post_init__"):
        @slot_init
        @dataclass(frozen=True, slots=True)
        class Checked:
            x: float

            def __post_init__(self):
                pass


def test_refuses_default_factory():
    with pytest.raises(TypeError, match="default_factory"):
        @slot_init
        @dataclass(frozen=True, slots=True)
        class Listed:
            items: tuple = field(default_factory=tuple)


@pytest.mark.parametrize("options", [{"frozen": True}, {"slots": True}])
def test_refuses_a_class_that_is_not_frozen_and_slotted(options):
    with pytest.raises(TypeError, match="frozen slotted"):
        @slot_init
        @dataclass(**options)
        class Loose:
            x: float
