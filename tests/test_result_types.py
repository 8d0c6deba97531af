"""The frozen result records keep their value semantics with slots: repr,
equality, hashing, pickling, dataclasses.replace and immutability are those
of a plain frozen dataclass, and no instance carries a __dict__."""

import dataclasses
import pickle

import pytest

from bbwt import (
    Literal,
    LzFactor,
    MeasureReport,
    Reference,
    TransformResult,
    bbwt,
    induce_bms,
    lz77_factorize,
    measure_report,
)

W = "abbbabbababab"

CASES = [
    (bbwt("banana"),
     "TransformResult(output=b'annbaa', csa=(6, 2, 4, 1, 3, 5), runs=4)",
     "runs", 5),
    (lz77_factorize(W).factors[3],
     "LzFactor(start=5, length=3, source=1)",
     "source", None),
    (induce_bms(W).phrases[0],
     "Literal(position=1, symbol=97)",
     "symbol", 98),
    (induce_bms(W).phrases[2],
     "Reference(start=3, length=2, source_start=6)",
     "length", 3),
    (measure_report(W),
     "MeasureReport(n=13, r=6, r_B=6, ell=3, total_factors=5, z=6, "
     "bms_phrases=9, ratio_rB_over_zlog2n=0.07302866010828392)",
     "z", 7),
]

IDS = [type(obj).__name__ for obj, *_ in CASES]


def test_every_record_type_is_covered():
    assert {type(obj) for obj, *_ in CASES} == {
        Literal, LzFactor, MeasureReport, Reference, TransformResult}


@pytest.mark.parametrize("obj, text, field, other", CASES, ids=IDS)
def test_record_value_semantics(obj, text, field, other):
    cls = type(obj)
    assert repr(obj) == text
    values = dataclasses.astuple(obj)
    twin = cls(*values)
    assert twin == obj and twin is not obj
    assert hash(twin) == hash(obj)
    assert len({obj, twin}) == 1

    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and back == obj and repr(back) == text

    changed = dataclasses.replace(obj, **{field: other})
    assert getattr(changed, field) == other
    assert changed != obj
    assert getattr(obj, field) != other  # the original is untouched
    for f in dataclasses.fields(obj):
        if f.name != field:
            assert getattr(changed, f.name) == getattr(obj, f.name)

    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, other)
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
