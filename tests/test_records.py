"""The records that replaced dataclasses behave as those dataclasses did.

Each record class is compared with a dataclass of the same name, fields
and flags (the oracle): repr, equality, hash, frozenness and replace
must agree on real instances.  Reprs appear in error messages, and
ModelParams and TiltingObject key every cache.
"""

import dataclasses

import pytest
from oracles import CoordRep, module_of, report_violations

from higher_cluster.algebra import (
    AlgebraPresentation,
    ResolutionReport,
    build_algebra,
    minimal_resolution,
)
from higher_cluster.index import IndexRow, IndexTable, index_table
from higher_cluster.model import ModelParams
from higher_cluster.tilting import TiltingObject, enumerate_tilting
from higher_cluster.verify import (
    CheckResult,
    SweepConfig,
    TiltingView,
    VerificationReport,
    check_serre,
    find_collisions,
    run,
)

# class -> the dataclass flags it replaces
FLAGS = {
    ModelParams: dict(frozen=True),
    TiltingObject: dict(frozen=True, slots=True),
    AlgebraPresentation: dict(frozen=True, eq=False),
    CoordRep: dict(frozen=True, eq=False),
    ResolutionReport: dict(frozen=True),
    IndexRow: dict(frozen=True),
    IndexTable: dict(frozen=True),
    CheckResult: dict(frozen=True),
    SweepConfig: dict(frozen=True),
    VerificationReport: dict(frozen=True),
}
ORACLES = {
    cls: dataclasses.make_dataclass(cls.__qualname__, cls._fields, **flags)
    for cls, flags in FLAGS.items()
}


def twin(record):
    """The oracle dataclass instance with the same field values."""
    cls = type(record)
    return ORACLES[cls](*(getattr(record, name) for name in cls._fields))


def instances():
    """Two or more instances of every record class, equal ones included."""
    p21, p22 = ModelParams(2, 1), ModelParams(2, 2)
    tiltings = list(enumerate_tilting(p21)) + list(enumerate_tilting(p22))[:2]
    alg = build_algebra(tiltings[0], p21)
    other_alg = build_algebra(tiltings[1], p21)
    table = index_table(tiltings[0], p21)
    row = table.rows[0]
    res = minimal_resolution(1, alg)
    assert report_violations(res) == []
    config = SweepConfig(cases=((2, 1),), checks=("serre", "collisions"))
    report = run(config)
    view = TiltingView(tiltings[0], p21)
    serre = check_serre(view)
    return {
        ModelParams: [p21, ModelParams(2, 1), p22, ModelParams(n=1, d=2)],
        TiltingObject: tiltings + [TiltingObject(p21, tiltings[0].mask)],
        AlgebraPresentation: [alg, other_alg, alg.replace()],
        CoordRep: [module_of(1, alg), module_of(1, alg), module_of(2, other_alg)],
        ResolutionReport: [res, minimal_resolution(1, alg), res.replace(tail_kernel_dims=(1, 0))],
        IndexRow: list(table.rows) + [IndexRow(row.obj, row.via_resolution, row.via_system)],
        IndexTable: [table, index_table(tiltings[0], p21), index_table(tiltings[1], p21)],
        CheckResult: [serre, check_serre(TiltingView(tiltings[0], p21)), find_collisions(view)],
        SweepConfig: [config, SweepConfig(((2, 1),), ("serre", "collisions")), SweepConfig(((2, 2),))],
        VerificationReport: [report, report.replace(), report.replace(elapsed=0.0)],
    }


INSTANCES = instances()


def _hash(value):
    """hash(value), or TypeError when a field is unhashable: a record
    holding a dict (CheckResult's stats) raises as its twin does."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", FLAGS, ids=lambda cls: cls.__name__)
def test_records_agree_with_their_dataclasses(cls):
    records = INSTANCES[cls]
    twins = [twin(r) for r in records]
    assert len(records) >= 3
    for r, t in zip(records, twins):
        assert repr(r) == repr(t)
        assert r != t and t != r  # another class: never equal, as before
    # the oracle's equality, with identity where it compares by identity
    for a, ta in zip(records, twins):
        for b, tb in zip(records, twins):
            expected = ta == tb if FLAGS[cls].get("eq", True) else a is b
            assert (a == b) == expected
            assert (a != b) == (not expected)
    if FLAGS[cls].get("eq", True):
        assert [_hash(r) for r in records] == [_hash(t) for t in twins]
    else:
        assert hash(records[0]) == object.__hash__(records[0])


@pytest.mark.parametrize("cls", FLAGS, ids=lambda cls: cls.__name__)
def test_records_are_as_frozen_as_their_dataclasses(cls):
    # every record is frozen, as the README promises
    assert FLAGS[cls]["frozen"]
    record = INSTANCES[cls][0]
    name = cls._fields[0]
    for target in (record, twin(record)):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(target, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(target, name)


def test_model_params_is_no_tuple():
    assert ModelParams(4, 3) != (4, 3)
    # nor equal to a subclass's instance, as a dataclass is not
    sub = type("Sub", (ModelParams,), {})(4, 3)
    assert sub != ModelParams(4, 3) and ModelParams(4, 3) != sub
    assert hash(ModelParams(4, 3)) == hash((4, 3))
    assert {ModelParams(4, 3): 1}.get((4, 3)) is None


@pytest.mark.parametrize("cls", [AlgebraPresentation, ResolutionReport], ids=lambda cls: cls.__name__)
def test_replace_agrees_with_dataclasses_replace(cls):
    record = INSTANCES[cls][0]
    name = cls._fields[-1]
    value = getattr(INSTANCES[cls][-1], name)
    replaced = record.replace(**{name: value})
    expected = dataclasses.replace(twin(record), **{name: value})
    assert type(replaced) is cls
    assert repr(replaced) == repr(expected)
    assert twin(replaced).__dict__ == expected.__dict__
