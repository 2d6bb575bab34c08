"""The contract of `state.value_class`, the one decorator behind every immutable value in fermisim."""

import math

import pytest

from fermisim.antisym import MAX_PARTICLES, OrderedConfiguration, RegisterBank
from fermisim.cli import RunConfig
from fermisim.fq import FirstQuantizedLayout, KineticSplit
from fermisim.observables import EnergyReport, Estimate, Histogram, SamplingPlan
from fermisim.sq import HubbardParams, ModeLayout, TrotterPlan
from fermisim.state import KEY_BITS, RegisterLayout, replace, value_class
from fermisim.validate import CheckResult

# Each class with the keyword arguments of one valid instance and, where
# `__post_init__` checks its fields, one change that it rejects.
CASES = [
    (RegisterLayout, {"registers": (("a", 2), ("b", 3))}, {"registers": (("a", -1),)}),
    (HubbardParams, {"v0": 4.0, "t0": 1.0}, {"v0": math.inf}),
    (TrotterPlan, {"t": 1.0, "r": 4}, {"r": 0}),
    (ModeLayout, {"m": 4}, {"m": 0}),
    (FirstQuantizedLayout, {"n": 2, "m": 4}, {"m": 3}),
    (KineticSplit, {"t1_pairs": ((1, 2), (3, 4)), "t2_pairs": ((2, 3),)}, None),
    (RegisterBank, {"n": 3, "word_bits": 3}, {"n": 0}),
    (OrderedConfiguration, {"labels": (1, 3, 4)}, {"labels": (3, 1)}),
    (SamplingPlan, {"seed": 3, "n_trials": 100}, {"n_trials": 0}),
    (Estimate, {"exact": 0.5, "sampled": 0.49, "stderr": 0.01}, None),
    (Histogram, {"frequencies": {0: 0.25, 1: 0.75}}, {"counts": {0: 1, 1: 3}}),
    (EnergyReport, {"potential": 1.0, "kinetic": -0.5, "total": 0.5}, None),
    (CheckResult, {"suite": "s", "name": "n", "passed": True, "measured": 0.1, "bound": "< 1"}, None),
    (RunConfig, {"formalism": "second", "m": 2, "boundary": "open", "v0": 4.0, "t0": 1.0,
                 "particles": ((1, 0),), "plan_t": 1.0, "plan_r": 1, "observables": (),
                 "sampling": None, "mode": "fermi"}, None),
]
PARAMS = [pytest.param(cls, kwargs, invalid, id=cls.__name__) for cls, kwargs, invalid in CASES]


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj._fields)


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, kwargs, invalid", PARAMS)
class TestValueClass:
    def test_fields_are_the_annotations_in_order(self, cls, kwargs, invalid):
        assert cls._fields == tuple(cls.__annotations__)

    def test_position_keyword_and_defaults_agree(self, cls, kwargs, invalid):
        made = cls(**kwargs)
        assert cls(*_values(made)) == made
        assert all(getattr(made, name) == value for name, value in kwargs.items())
        for name in set(cls._fields) - set(kwargs):  # left out, so a class-level default
            assert getattr(made, name) == getattr(cls, name)

    def test_equal_and_hashed_by_value(self, cls, kwargs, invalid):
        a, b = cls(**kwargs), cls(**kwargs)
        assert a is not b and a == b and not a != b
        if _hashable(_values(a)):
            assert hash(a) == hash(b) == hash(_values(a))
        else:  # dict fields: unhashable, as a frozen dataclass is
            with pytest.raises(TypeError):
                hash(a)

    def test_another_class_with_the_same_values_is_unequal(self, cls, kwargs, invalid):
        twin = value_class(type("Twin", (), {"__annotations__": dict(cls.__annotations__)}))
        made = cls(**kwargs)
        other = twin(*_values(made))
        assert _values(other) == _values(made)
        assert made != other and other != made

    def test_assignment_and_deletion_raise(self, cls, kwargs, invalid):
        made = cls(**kwargs)
        name = cls._fields[0]
        with pytest.raises(AttributeError):
            setattr(made, name, getattr(made, name))
        with pytest.raises(AttributeError):
            delattr(made, name)
        with pytest.raises(AttributeError):
            made.extra = 1
        assert made == cls(**kwargs)

    def test_repr_names_every_field(self, cls, kwargs, invalid):
        made = cls(**kwargs)
        fields = ", ".join(f"{name}={getattr(made, name)!r}" for name in cls._fields)
        assert repr(made) == f"{cls.__name__}({fields})"

    def test_missing_unknown_or_repeated_argument_is_a_type_error(self, cls, kwargs, invalid):
        first = cls._fields[0]
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in kwargs.items() if name != first})
        with pytest.raises(TypeError):
            cls(**kwargs, bogus=1)
        with pytest.raises(TypeError):
            cls(kwargs[first], **kwargs)
        with pytest.raises(TypeError):
            cls(*_values(cls(**kwargs)), None)

    def test_replace_builds_a_new_instance(self, cls, kwargs, invalid):
        made = cls(**kwargs)
        copied = replace(made)
        assert copied == made and copied is not made
        with pytest.raises(TypeError):
            replace(made, bogus=1)


# More values a `__post_init__` rejects, beyond the one in CASES.
MORE_INVALID = [
    pytest.param(RegisterBank, {"n": 3, "word_bits": 3}, invalid, id=f"RegisterBank-{name}")
    for name, invalid in [("over_limit", {"n": MAX_PARTICLES + 1}), ("zero_width", {"word_bits": 0}),
                          ("wider_than_a_key", {"word_bits": KEY_BITS + 1}), ("too_narrow", {"n": 5, "word_bits": 2})]
]


@pytest.mark.parametrize("cls, kwargs, invalid", [param for param in PARAMS if param.values[2]] + MORE_INVALID)
def test_post_init_still_rejects_an_invalid_value(cls, kwargs, invalid):
    with pytest.raises(ValueError):
        cls(**{**kwargs, **invalid})
    with pytest.raises(ValueError):
        replace(cls(**kwargs), **invalid)


def test_repr_form():
    assert repr(HubbardParams(4.0, 1.0)) == "HubbardParams(v0=4.0, t0=1.0)"
    assert repr(Histogram({0: 1.0})) == (
        "Histogram(frequencies={0: 1.0}, counts=None, n_trials=None, exact=None)")


def test_replace_changes_only_the_named_fields():
    plan = SamplingPlan(seed=3, n_trials=100)
    assert replace(plan, seed=9) == SamplingPlan(seed=9, n_trials=100)
    assert plan.seed == 3


@pytest.mark.parametrize("layout", [ModeLayout(3), FirstQuantizedLayout(n=2, m=4)],
                         ids=["ModeLayout", "FirstQuantizedLayout"])
def test_cached_terms_are_built_once_and_leave_the_value_alone(layout):
    """`functools.cached_property` works on a value class, and the cache is no field."""
    assert layout.terms is layout.terms
    fresh = type(layout)(*_values(layout))
    assert fresh == layout and hash(fresh) == hash(layout)
    assert repr(fresh) == repr(layout)
