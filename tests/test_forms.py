"""Unit classes, the residue map, realizable trace sets, and the
scheme-level descriptions attached to a curve."""

from math import gcd as int_gcd

import pytest

from hasseforms import (
    discrete_log,
    enumerate_classes,
    hasse_invariant,
    kernel_of_frobenius,
    make_field,
    phi,
    ptorsion_description,
    realizable_set,
    twist_class_action,
    unit_class_of,
)
from hasseforms.curve import TWIST_KINDS, WeierstrassCurve, _hasse_terms, point_count, twist
from hasseforms.verify import run_suite
from hasseforms.forms import UnitClass
from hasseforms.gf import _is_prime
from hasseforms.errors import (
    BadCongruenceError,
    CtxMismatchError,
    NotPrimeError,
    SingularModelError,
    ZeroElementError,
    ZeroTwistParameterError,
)
from test_audits import audit_tests

# the ladders of the audit table that run here, tests/test_audits.py
globals().update(audit_tests("test_forms"))


def _curve(ctx, a4, a6, a2=0):
    return WeierstrassCurve(ctx, ctx(a4), ctx(a6), ctx(a2))


def test_class_count():
    for p, n in ((3, 1), (3, 2), (5, 1), (5, 2), (13, 1)):
        ctx = make_field(p, n)
        classes = enumerate_classes(ctx)
        assert len(classes) == p - 1
        assert [c.exp for c in classes] == list(range(p - 1))


def test_class_of_element():
    ctx = make_field(5)
    assert unit_class_of(ctx(1)).exp == 0
    assert unit_class_of(ctx(2)).exp == 1  # 2 generates
    assert unit_class_of(ctx(2)) == unit_class_of(ctx(2) ** 5)
    with pytest.raises(ZeroElementError):
        unit_class_of(ctx.zero)


def test_class_representatives():
    ctx = make_field(3, 2)
    reps = [c.rep for c in enumerate_classes(ctx)]
    assert reps[0] == ctx.one
    assert reps[1] == ctx.generator
    t = ctx((0, 1))
    assert unit_class_of(t + 1).exp == 1


def test_class_group_law_exhaustive():
    ctx = make_field(13)
    classes = enumerate_classes(ctx)
    p = ctx.p
    for c1 in classes:
        for c2 in classes:
            assert (c1 * c2).exp == (c1.exp + c2.exp) % (p - 1)
    for c in classes:
        assert (c * c.inverse()).exp == 0
        assert c ** 3 == c * c * c
        # order by brute force
        k = 1
        acc = c
        while acc.exp:
            acc = acc * c
            k += 1
        assert c.order == k == (p - 1) // int_gcd(c.exp, p - 1)


def test_class_partition_covers_units():
    ctx = make_field(5, 2)
    buckets = {}
    for x in ctx.iter_elements():
        if x:
            buckets.setdefault(unit_class_of(x).exp, set()).add(x.rank)
    assert set(buckets) == set(range(4))
    assert all(len(b) == (ctx.q - 1) // 4 for b in buckets.values())


def test_phi_frozen_and_identity():
    ctx9 = make_field(3, 2)
    t = ctx9((0, 1))
    assert phi(unit_class_of(t + 1)) == 2
    # over a prime field the map reads off the representative itself
    ctx7 = make_field(7)
    for x in ctx7.iter_elements():
        if x:
            assert phi(unit_class_of(x)) == x
    # the image of a generating class generates the residues
    ctx25 = make_field(5, 2)
    v = phi(unit_class_of(ctx25.generator))
    seen = {int(v ** k) for k in range(1, 5)}
    assert seen == {1, 2, 3, 4}


def test_phi_lands_in_prime_subfield():
    ctx = make_field(3, 2)
    for c in enumerate_classes(ctx):
        int(phi(c))


def test_realizable_sets_frozen():
    assert realizable_set(13) == frozenset(range(1, 13))
    assert realizable_set(17) == frozenset(range(1, 17))
    assert realizable_set(19) == frozenset(range(1, 19)) - {9, 10}
    assert realizable_set(23) == frozenset(range(1, 10)) | frozenset(range(14, 23))
    assert realizable_set(19, 361) == frozenset(range(1, 19))
    assert realizable_set(23, 23 ** 2) == frozenset(range(1, 23))
    assert realizable_set(2) == frozenset({1})


def test_realizable_set_matches_interval_scan():
    from math import isqrt

    cases = [(5, 5), (19, 19), (23, 23), (19, 361)]
    cases += [(p, p ** n) for p in (2, 3, 5, 7, 11, 13, 17, 29, 31, 37, 101)
              for n in (1, 2, 3) if p ** n < 10 ** 5]
    for p, q in cases:
        bound = isqrt(4 * q - 1)
        brute = {b % p for b in range(-bound, bound + 1) if b and b % p}
        assert realizable_set(p, q) == brute


def test_realizable_set_rejects_bad_input():
    with pytest.raises(NotPrimeError):
        realizable_set(15)
    with pytest.raises(ValueError):
        realizable_set(5, 10)  # not a power of 5


def test_non_closure_frozen():
    r = realizable_set(19)
    assert 3 in r and 9 not in r
    assert (3 * 3) % 19 == 9


def test_twist_class_action_frozen():
    ctx = make_field(5)
    h = unit_class_of(ctx(2))
    assert twist_class_action(h, ctx(2), "quadratic") == unit_class_of(ctx(3))
    assert twist_class_action(h, ctx.one, "quadratic") == h


def test_twist_class_action_well_defined(monkeypatch):
    # for every kind that applies, the induced map depends only on the
    # class of the twist parameter, and it is the class law: a class c
    # moves by what the action does to the trivial class, which is how
    # the twists suite composes it
    for ctx, kinds in ((make_field(13), TWIST_KINDS), (make_field(5, 2), ("quadratic", "quartic"))):
        classes, one = enumerate_classes(ctx), UnitClass(ctx, 0)
        for kind in kinds:
            shifts = {}
            for d in ctx.iter_elements():
                if not d:
                    continue
                shift = twist_class_action(one, d, kind)
                assert shifts.setdefault(unit_class_of(d), shift) == shift
                for c in classes:
                    assert twist_class_action(c, d, kind) == c * shift
    # so the suite has to catch a wrong quartic action, here (p - 1)/2 in
    # place of (p - 1)/4
    import hasseforms.verify as verify_mod

    def seeded(cls, d, kind="quadratic"):
        if kind != "quartic":
            return twist_class_action(cls, d, kind)
        return unit_class_of(cls.rep * d ** ((cls.ctx.p - 1) // 2))

    monkeypatch.setattr(verify_mod, "twist_class_action", seeded)
    failures = run_suite("twists", 13).failures
    assert failures and all(f.startswith("quartic twist of ") for f in failures)


def test_twist_class_action_errors():
    ctx5 = make_field(5)
    h = unit_class_of(ctx5(2))
    with pytest.raises(ZeroTwistParameterError):
        twist_class_action(h, ctx5.zero, "quadratic")
    with pytest.raises(BadCongruenceError):
        twist_class_action(h, ctx5(2), "sextic")  # 5 = 2 mod 3
    ctx7 = make_field(7)
    h7 = unit_class_of(ctx7(3))
    with pytest.raises(BadCongruenceError):
        twist_class_action(h7, ctx7(3), "quartic")  # 7 = 3 mod 4
    with pytest.raises(ValueError):
        twist_class_action(h, ctx5(2), "septic")


def test_twist_and_class_action_share_the_congruence():
    # over every odd prime to 37 and every kind, twist, on a model with
    # the j the kind needs, and twist_class_action raise BadCongruenceError
    # on the same (p, kind): exactly where p != 1 mod 2, 4, 6
    refused = {"twist": set(), "action": set()}
    for p in filter(_is_prime, range(3, 38)):
        ctx = make_field(p)
        for kind in TWIST_KINDS:
            # y^2 = x^3 + x has j = 1728, and j = 0 too in characteristic 3
            curve = _curve(ctx, 0, 1) if kind == "sextic" and p > 3 else _curve(ctx, 1, 0)
            for name, call in (("twist", lambda: twist(curve, ctx(2), kind)),
                               ("action", lambda: twist_class_action(UnitClass(ctx, 1), ctx(2), kind))):
                try:
                    call()
                except BadCongruenceError:
                    refused[name].add((p, kind))
    m = {"quadratic": 2, "quartic": 4, "sextic": 6}
    want = {(p, kind) for p in filter(_is_prime, range(3, 38)) for kind in m if p % m[kind] != 1}
    assert refused["twist"] == refused["action"] == want
    assert (7, "quartic") in want and (5, "sextic") in want


def test_kernel_of_frobenius_frozen():
    ctx = make_field(5)
    ss = kernel_of_frobenius(_curve(ctx, 0, 1))
    assert ss.supersingular and ss.hasse_class is None
    triv = kernel_of_frobenius(_curve(ctx, 3, 0))
    assert not triv.supersingular
    assert triv.hasse_class.exp == 0
    marked = kernel_of_frobenius(_curve(ctx, 1, 1))
    assert marked.hasse_class == unit_class_of(ctx(2))
    assert marked.lie_class == marked.hasse_class.inverse()


def test_ptorsion_ordinary_frozen():
    ctx = make_field(5)
    desc = ptorsion_description(_curve(ctx, 1, 1))
    assert not desc.supersingular
    assert desc.label == "mu-form+etale"
    assert desc.hasse_class == unit_class_of(ctx(2))
    assert desc.j == 2
    assert tuple(sorted(desc.etale_degrees)) == (4,)
    assert desc.j_p_root == desc.j  # prime field: the root is j itself


def test_ptorsion_supersingular_label():
    ctx = make_field(5)
    desc = ptorsion_description(_curve(ctx, 0, 1))
    assert desc.supersingular
    assert desc.label == "M2"


def test_ptorsion_trivial_class_splits():
    ctx = make_field(5)
    desc = ptorsion_description(_curve(ctx, 3, 0))
    assert tuple(desc.etale_degrees) == (1, 1, 1, 1)


def test_ptorsion_degrees_match_class_order():
    for p, n in ((5, 1), (7, 1), (3, 2)):
        ctx = make_field(p, n)
        from hasseforms import iter_curves

        for curve in iter_curves(ctx):
            a = hasse_invariant(curve)
            if not a:
                assert ptorsion_description(curve).label == "M2"
                continue
            desc = ptorsion_description(curve)
            order = unit_class_of(a).order
            assert set(desc.etale_degrees) == {order}
            assert sum(desc.etale_degrees) == p - 1


def test_ptorsion_j_root_is_frobenius_preimage():
    ctx = make_field(3, 2)
    from hasseforms import iter_curves

    for curve in iter_curves(ctx):
        desc = ptorsion_description(curve)
        if desc.supersingular:
            continue
        assert desc.j_p_root ** ctx.p == desc.j


def _single_curve_answers(ctx):
    # what hasse and ptorsion compute for one curve
    curve = _curve(ctx, 1, 1)
    count = point_count(curve)
    a = hasse_invariant(curve)
    cls = unit_class_of(a)
    return (count, a, cls, phi(cls), curve.j_invariant, ptorsion_description(curve),
            discrete_log(a))


def test_single_curve_queries_over_fp_build_no_tables():
    bare = make_field(1009)
    terms = _hasse_terms.cache_info().currsize
    answers = _single_curve_answers(bare)
    assert answers[0].ordinary
    # A_p by term ratios (curve._hasse_one) builds no row and no term table
    assert "_log_tables" not in vars(bare) and not bare._builds
    assert _hasse_terms.cache_info().currsize == terms
    tabled = make_field(1009)
    tabled._log_tables
    assert _single_curve_answers(tabled) == answers


def test_classification_suite_builds_no_table_over_fp(monkeypatch):
    # every class over F_p is an int power of g, so the suite builds no
    # table for them
    import hasseforms.verify as verify_mod

    built, real = [], verify_mod.make_field
    monkeypatch.setattr(verify_mod, "make_field", lambda p, n: built.append(real(p, n)) or built[-1])
    assert run_suite("classification", 19, 1).ok
    assert "_log_tables" not in vars(built[0]) and not built[0]._builds


def test_unit_class_operators_match_field_elements():
    # classes of two fields do not combine, and a non-int exponent is
    # refused by Python itself on every field, as FieldElement's are
    with pytest.raises(CtxMismatchError):
        UnitClass(make_field(5), 1) * UnitClass(make_field(7), 1)
    for ctx in (make_field(5), make_field(5, 2)):
        for x in (UnitClass(ctx, 1), ctx.generator):
            assert x.__pow__(2.5) is NotImplemented
            with pytest.raises(TypeError, match="unsupported operand"):
                x ** 2.5


def _explicit_model(ctx, a):
    # the model whose A_p is exactly a, for p <= 11, where A_p has one
    # term: A_3 = a2, A_5 = 2 a4, A_7 = 3 a6 and A_11 = 9 a4 a6
    p = ctx.p
    if p == 3:
        return WeierstrassCurve(ctx, 0, 1, a2=a)
    if p == 5:
        return WeierstrassCurve(ctx, 3 * a, 0)
    if p == 7:
        return WeierstrassCurve(ctx, 0, 5 * a)
    for rank in range(1, ctx.q):  # p = 11: the first u != 0 that is nonsingular
        u = ctx.from_rank(rank)
        try:
            return WeierstrassCurve(ctx, u, 5 * a / u)
        except SingularModelError:
            continue
    raise AssertionError(f"no nonsingular (0, u, 5a/u) over {ctx} for a = {a}")


@pytest.mark.parametrize("p,n", [(p, n) for p in (3, 5, 7, 11) for n in range(1, 10)
                                 if p**n <= 20_000])
def test_every_class_has_an_explicit_model_for_p_up_to_11(p, n):
    # the abstract's "yes for p <= 11" on every field of characteristic 3,
    # 5, 7 and 11 up to q = 20,000: for every class exponent e, a = g^e is
    # the Hasse invariant of an explicit nonsingular model, by the term
    # table and by truncated powering, and its point count has the class
    # of a as its trace residue
    ctx = make_field(p, n)
    for e in range(p - 1):
        a = ctx.generator ** e
        curve = _explicit_model(ctx, a)
        assert curve.discriminant
        assert hasse_invariant(curve) == a
        assert curve.f_polynomial().pow_truncated((p - 1) // 2, p - 1)[p - 1] == a
        assert point_count(curve).beta % p == int(phi(unit_class_of(a)))
