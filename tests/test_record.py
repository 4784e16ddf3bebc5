"""The six result types against the ``@dataclass(frozen=True)`` classes they replace.

Each test builds the dataclass here, from the record's own annotations,
defaults and methods, and requires the record to behave the same.
"""

import copy
import dataclasses
import pickle

import pytest

from pilegame._record import _Record
from pilegame.exact import LimitGap, WinTable, gap_to_limit, solve_recursive
from pilegame.simulate import SimResult, TrialSums, run_trials
from pilegame.steps import StepsTable, expected_steps
from pilegame.verify import CheckResult

#: What ``_Record`` adds to a class's namespace; the dataclass writes its own.
_GENERATED = {"__init__", "__match_args__", "__dataclass_fields__"}


def _dataclass_of(record: type) -> type:
    """A frozen dataclass with ``record``'s name, bases other than ``_Record``,
    annotations, defaults and methods."""
    bases = tuple(base for base in record.__bases__ if base is not _Record)
    namespace = {k: v for k, v in vars(record).items() if k not in _GENERATED}
    return dataclasses.dataclass(frozen=True)(type(record.__name__, bases, namespace))


_TABLE = solve_recursive(6)
_RESULT = run_trials(10, 200, seed=1)

#: Each record with the keyword arguments of one instance and one field change.
CASES = [
    (WinTable, {"r": _TABLE.r, "method": "recursive"}, {"method": "gf"}),
    (LimitGap, vars(gap_to_limit(4, _TABLE)), {"n": 5}),
    (StepsTable, {"ez": expected_steps(5).ez}, {"ez": expected_steps(6).ez}),
    (TrialSums, {"d_wins": 3, "steps_sum": 10, "steps_sq_sum": 40}, {"d_wins": 4}),
    (SimResult, vars(_RESULT), {"seed": 2}),
    (CheckResult, {"check_id": "base-cases", "passed": True}, {"detail": "x"}),
    (CheckResult, {"check_id": "base-cases", "passed": False, "detail": "R_2"}, {"passed": True}),
]
_IDS = [f"{record.__name__}-{len(kwargs)}" for record, kwargs, _ in CASES]


def _raised(call) -> tuple[type, str]:
    """The type and message of the exception ``call()`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def _field_spec(obj) -> list[tuple]:
    return [(f.name, f.type, f.default) for f in dataclasses.fields(obj)]


@pytest.mark.parametrize("record, kwargs, change", CASES, ids=_IDS)
def test_record_keeps_the_dataclass_protocol(record, kwargs, change):
    twin = _dataclass_of(record)
    ours, theirs = record(**kwargs), twin(**kwargs)
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(ours)
    assert _field_spec(record) == _field_spec(ours) == _field_spec(twin)
    assert record.__match_args__ == twin.__match_args__
    assert repr(ours) == repr(theirs)
    assert ours == record(*kwargs.values()) and not ours != record(**kwargs)
    assert ours != record(**{**kwargs, **change})
    for other in (theirs, tuple(kwargs.values()), None):
        assert ((ours == other), (ours != other)) == (False, True)
    assert ours.__eq__(theirs) is NotImplemented
    assert hash(ours) == hash(theirs)
    for replaced in (dataclasses.replace, getattr(copy, "replace", None)):  # copy's from 3.13
        if replaced is not None:
            assert repr(replaced(ours, **change)) == repr(replaced(theirs, **change))
    assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)
    assert dataclasses.astuple(ours) == dataclasses.astuple(theirs)
    assert pickle.loads(pickle.dumps(ours)) == ours


@pytest.mark.parametrize("record, kwargs, change", CASES, ids=_IDS)
def test_record_raises_what_the_dataclass_raises(record, kwargs, change):
    twin = _dataclass_of(record)
    ours, theirs = record(**kwargs), twin(**kwargs)
    first, *rest = kwargs
    for name in (first, "other"):
        assert _raised(lambda: setattr(ours, name, 1)) == _raised(lambda: setattr(theirs, name, 1))
        assert _raised(lambda: delattr(ours, name)) == _raised(lambda: delattr(theirs, name))
    assert _raised(lambda: setattr(ours, first, 1))[0] is dataclasses.FrozenInstanceError
    missing = {name: kwargs[name] for name in rest}
    for args, bad in [((), missing), ((), {**kwargs, "other": 1}), ((kwargs[first],), kwargs),
                      ((*kwargs.values(), None, None), {})]:
        assert _raised(lambda: record(*args, **bad)) == _raised(lambda: twin(*args, **bad))
    assert _raised(lambda: dataclasses.replace(ours, other=1)) == _raised(
        lambda: dataclasses.replace(theirs, other=1))


@pytest.mark.parametrize("record, values", [(WinTable, "r"), (StepsTable, "ez")])
def test_post_init_rejects_an_empty_table(record, values):
    twin = _dataclass_of(record)
    kwargs = {values: (), **({"method": "recursive"} if record is WinTable else {})}
    ours = _raised(lambda: record(**kwargs))
    assert ours == _raised(lambda: twin(**kwargs))
    assert ours[0] is ValueError and ours[1].startswith(f"{values} is empty")


def test_subclass_inherits_the_record_as_an_undecorated_dataclass_subclass_does():
    twin = _dataclass_of(CheckResult)
    ours, theirs = type("Sub", (CheckResult,), {}), type("Sub", (twin,), {})
    assert repr(ours("id", False, "x")) == repr(theirs("id", False, "x"))
    assert ours("id", True) == ours("id", True) != CheckResult("id", True)
    assert _field_spec(ours) == _field_spec(theirs)
    for sub in (ours("id", True), theirs("id", True)):
        sub.note = "set"  # a subclass's own attribute is not a field
        del sub.note
    assert _raised(lambda: setattr(ours("id", True), "detail", "x")) == _raised(
        lambda: setattr(theirs("id", True), "detail", "x"))
