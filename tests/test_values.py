"""Value types survive pickle, copy.copy and copy.deepcopy, and the
records keep their reprs.

Each type rebuilds through its constructor, and a field context rebuilds
from (p, n) alone, so the lazy lookup tables and memo slots of a context
that has already built them are not serialised.
"""

import copy
import hashlib
import pickle
import random

import pytest

from hasseforms import (Polynomial, census, factor, kernel_of_frobenius, make_field,
                        point_count, ptorsion_description, unit_class_of)
from hasseforms.curve import WeierstrassCurve, _row_hasse, _zech_mask, _zech_operand
from hasseforms.errors import SingularModelError
from hasseforms.forms import _rank_classes


def _ctx_with_tables():
    # the generator, the log tables and every kind of memo slot
    ctx = make_field(3, 2)
    _zech_mask(ctx), _zech_operand(ctx), _row_hasse(ctx, 1, 1), _rank_classes(ctx)
    census(ctx)
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


# the records are NamedTuples; their reprs were pinned when they were
# frozen dataclasses, and read the same
def _report():
    # F_19 misses classes 9 and 10, whose entries carry witness=None
    return census(make_field(19))


def _witness():
    return census(make_field(19)).entries[2].witness


def _ordinary_curve():
    ctx = make_field(5, 2)
    return WeierstrassCurve(ctx, ctx((1, 2)), ctx.one)


def _frobenius_data():
    return point_count(_ordinary_curve())


def _ptorsion_supersingular():
    # y^2 = x^3 + x over F_7, p = 3 mod 4
    return ptorsion_description(WeierstrassCurve(make_field(7), 1, 0))


def _ptorsion_ordinary():
    return ptorsion_description(_ordinary_curve())


def _kernel():
    return kernel_of_frobenius(_ordinary_curve())


def _factorization():
    rng = random.Random(37)
    f = Polynomial(make_field(7), [rng.randrange(7) for _ in range(9)] + [1])
    return factor(f * f)


_REPRS = {
    _report: "sha256:adc10e6816bd69689f42d5d7732b42ce9e9c9d95777a51fb1db2a6222a49a46f",
    _witness: "WitnessRecord(a2=(0,), a4=(2,), a6=(10,), count=17, beta=3, class_exp=13, phi=3)",
    _frobenius_data: "FrobeniusData(count=19, beta=7, ordinary=True)",
    _ptorsion_supersingular: "PTorsionDescription(supersingular=True, hasse_class=None, j=None, "
                             "etale_degrees=None, j_p_root=None, hasse=None)",
    _ptorsion_ordinary: "PTorsionDescription(supersingular=False, hasse_class=UnitClass(exp=1 "
                        "mod 4, rep=3*t + 1), j=<t + 4 in F_25>, etale_degrees=(4,), "
                        "j_p_root=<4*t + 3 in F_25>, hasse=<4*t + 2 in F_25>)",
    _kernel: "FrobeniusKernelClass(ordinary, UnitClass(exp=1 mod 4, rep=3*t + 1))",
    _factorization: "Factorization(unit=<1 in F_7>, factors=((Polynomial('x^2 + x + 3' over "
                    "F_7), 2), (Polynomial('x^3 + 5*x^2 + 4*x + 2' over F_7), 2), "
                    "(Polynomial('x^4 + 6*x^3 + 3*x + 2' over F_7), 2)))",
}


@pytest.mark.parametrize("make", [_ctx_with_tables, _element, _curve, _polynomial,
                                  _ext_polynomial, _unit_class, *_REPRS],
                         ids=["FieldCtx", "FieldElement", "WeierstrassCurve",
                              "Polynomial", "Polynomial-F25", "UnitClass",
                              "RealizabilityReport", "WitnessRecord", "FrobeniusData",
                              "PTorsionDescription-supersingular",
                              "PTorsionDescription-ordinary", "FrobeniusKernelClass",
                              "Factorization"])
def test_value_types_round_trip(make):
    value = make()
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == repr(value)
    if make in _REPRS:
        want, text = _REPRS[make], repr(value)
        if want.startswith("sha256:"):
            assert "ClassEntry(residue=9, witness=None)" in text
            text = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
        assert text == want
    if make is _element:
        # an element serialises as its lex rank alone
        assert value.__reduce__()[1] == (value.ctx, value.rank)
        assert clone.rank == value.rank == 2 * 5 + 3
        assert clone.coeffs == value.coeffs == (2, 3)
    if make is _ext_polynomial:
        assert clone.coeffs == value.coeffs
        assert value[1].coeffs == (2, 3) and value[3] == 4
    if make is _ctx_with_tables:
        lazy = {"generator", "_log_tables"}
        # all eight memoised builders hold a slot
        assert lazy <= set(vars(value)) and len(value._memo) == len(value._builds) == 8
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert not lazy & set(vars(clone))
            assert clone._memo == {} and not clone._builds
        assert len(pickle.dumps(value)) < 100


# fields with q <= 1000 for the printed-text pin: prime fields, char-3
# towers whose models carry a2, and extensions of degree 2 and 3
_PRINTED_FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 3), (13, 1), (31, 2)]


def _printed_text():
    # every element, the context, seeded polynomials (zero ranks drawn
    # often, so terms drop and coefficients 1 occur) and seeded models,
    # singular ones by their error message
    rng = random.Random(20090101)
    out = []
    for p, n in _PRINTED_FIELDS:
        ctx = make_field(p, n)
        out += [str(ctx), repr(ctx)]
        for x in ctx.iter_elements():
            out += [str(x), repr(x)]

        def rank():
            return rng.choice((0, 0, ctx.one.rank, rng.randrange(ctx.q)))

        out.append(Polynomial(ctx, ()).to_str())
        for _ in range(40):
            f = Polynomial.from_ranks(ctx, [rank() for _ in range(rng.randrange(1, 7))])
            out += [f.to_str(), str(f), repr(f)]
        for _ in range(40):
            a2, a4, a6 = (ctx.from_rank(rank()) for _ in range(3))
            if p >= 5:
                a2 = ctx.zero
            try:
                out.append(repr(WeierstrassCurve(ctx, a4, a6, a2=a2)))
            except SingularModelError as exc:
                out.append(str(exc))
    return "\n".join(out)


def test_printed_text_is_pinned():
    text = _printed_text()
    # the shapes the digest covers: compound coefficients in parentheses,
    # a2 terms and singular models
    assert ")*x^2 + (" in text and "(t^4 + t^3 + t^2 + 1) is singular" in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "504b68c7b613ba3b8f8e6ad01c6311271fe783f9d613c8c775afaf02ef233075")
