"""Value types survive pickle, copy.copy and copy.deepcopy.

Each type rebuilds through its constructor, and a field context rebuilds
from (p, n) alone, so the lazy lookup tables of a context that has
already built them are not serialised.
"""

import copy
import pickle

import pytest

from hasseforms import Polynomial, make_field, unit_class_of
from hasseforms.curve import WeierstrassCurve


def _ctx_with_tables():
    ctx = make_field(3, 2)
    ctx._zech_y  # builds the generator and the log tables first
    return ctx


def _element():
    ctx = make_field(5, 2)
    return ctx((2, 3))


def _curve():
    ctx = make_field(3, 2)
    return WeierstrassCurve(ctx, ctx.one, ctx.one, a2=ctx((0, 1)))


def _polynomial():
    ctx = make_field(7)
    return Polynomial(ctx, (3, 0, 5, 1))


def _ext_polynomial():
    # over F_25 a rank is not a value, so a clone rebuilt by the coercing
    # constructor from ranks would differ
    ctx = make_field(5, 2)
    return Polynomial(ctx, (1, (2, 3), 0, 4))


def _unit_class():
    return unit_class_of(make_field(5, 2)((1, 1)))


@pytest.mark.parametrize("make", [_ctx_with_tables, _element, _curve, _polynomial,
                                  _ext_polynomial, _unit_class],
                         ids=["FieldCtx", "FieldElement", "WeierstrassCurve",
                              "Polynomial", "Polynomial-F25", "UnitClass"])
def test_value_types_round_trip(make):
    value = make()
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == repr(value)
    if make is _element:
        # an element serialises as its lex rank alone
        assert value.__reduce__()[1] == (value.ctx, value.rank)
        assert clone.rank == value.rank == 2 * 5 + 3
        assert clone.coeffs == value.coeffs == (2, 3)
    if make is _ext_polynomial:
        assert clone.coeffs == value.coeffs
        assert value[1].coeffs == (2, 3) and value[3] == 4
    if make is _ctx_with_tables:
        lazy = {"generator", "_log_tables", "_zech_y"}
        assert lazy <= set(vars(value))
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert not lazy & set(vars(clone))
        assert len(pickle.dumps(value)) < 100
