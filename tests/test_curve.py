"""Curve models, invariants, point counts, and twists.

Counts in this file were frozen from exhaustive x-sweeps done by hand or
with a throwaway script.  The fast routes of curve.py are held to their
slow routes by the audit table, tests/test_audits.py.
"""

import pytest

import hasseforms.curve as curve_module
from hasseforms import (
    hasse_invariant,
    is_ordinary,
    iter_curves,
    make_field,
    point_count,
    twist,
)
from hasseforms.curve import (
    WeierstrassCurve,
    _ec_add,
    _hasse_terms,
    _nonsquare,
    _sqrt,
    _twist_kinds,
    _zech_operand,
    _zech_y,
    discriminant_general,
)
from hasseforms.errors import (
    BadCongruenceError,
    FieldTooLargeError,
    SingularModelError,
    WrongJInvariantError,
    ZeroTwistParameterError,
)
from hasseforms.gf import _factor_int, _power
from hasseforms.poly import _pack, _slot_width
from test_audits import audit_tests

# the ladders of the audit table that run here, tests/test_audits.py
globals().update(audit_tests("test_curve"))


@pytest.fixture(scope="module")
def f5():
    return make_field(5)


def _curve(ctx, a4, a6, a2=0):
    return WeierstrassCurve(ctx, ctx(a4), ctx(a6), ctx(a2))


def test_frozen_invariants_f5(f5):
    e1 = _curve(f5, 1, 0)
    assert e1.discriminant == 1
    assert e1.j_invariant == 3  # 1728 mod 5
    e2 = _curve(f5, 0, 1)
    assert not e2.j_invariant
    e3 = _curve(f5, 1, 1)
    assert e3.discriminant == 4
    assert e3.j_invariant == 2


def test_frozen_counts_f5(f5):
    expectations = {
        (1, 0): (4, 2, True),
        (0, 1): (6, 0, False),
        (1, 1): (9, -3, True),
        (2, 0): (2, 4, True),
    }
    for (a4, a6), (count, beta, ordinary) in expectations.items():
        fd = point_count(_curve(f5, a4, a6))
        assert (fd.count, fd.beta, fd.ordinary) == (count, beta, ordinary)
        assert fd.count == f5.q + 1 - fd.beta


def test_frozen_count_a2_model():
    ctx = make_field(3)
    fd = point_count(_curve(ctx, 0, 1, a2=1))
    assert (fd.count, fd.beta, fd.ordinary) == (6, -2, True)


def test_singular_models_rejected(f5):
    with pytest.raises(SingularModelError):
        _curve(f5, 0, 0)
    with pytest.raises(SingularModelError):
        _curve(make_field(7), -3, 2)
    with pytest.raises(SingularModelError):
        _curve(make_field(3), 0, 0, a2=0)


def test_a2_requires_characteristic_three(f5):
    with pytest.raises(ValueError):
        _curve(f5, 1, 1, a2=1)
    _curve(make_field(3), 1, 1, a2=1)  # fine there


def test_repr_frozen(f5):
    assert repr(_curve(f5, 1, 1)) == "WeierstrassCurve(y^2 = x^3 + x + 1 over F_5)"
    ctx9 = make_field(3, 2)
    t = ctx9((0, 1))
    shown = repr(WeierstrassCurve(ctx9, ctx9.one, ctx9.one, t))
    assert "x^2" in shown and "F_9" in shown and "1*" not in shown


def test_f_polynomial(f5):
    f = _curve(f5, 2, 1).f_polynomial()
    assert f.degree == 3 and f.is_monic
    assert (f[0], f[1], f[2]) == (1, 2, 0)


def test_closed_form_has_one_term_exactly_for_p_up_to_11():
    """The abstract's dividing line: A_p is a single monomial in (a4, a6)
    for p <= 11 and has at least two terms from p = 13 on.  Each term of
    _hasse_terms is (j, k, c) for c a4^j a6^k."""
    odd_primes = [m for m in range(3, 200) if all(m % f for f in range(2, m))]
    assert {p for p in odd_primes if len(_hasse_terms(p)) <= 1} == {3, 5, 7, 11}
    # A_3 = a2, read off the row (_hasse_row), since the table is empty
    assert _hasse_terms(3) == ()
    ctx = make_field(3, 1)
    assert all(hasse_invariant(curve) == curve.a2 for curve in iter_curves(ctx))
    # A_5 = 2 a4, A_7 = 3 a6, A_11 = 9 a4 a6
    assert [_hasse_terms(p) for p in (5, 7, 11)] == [((1, 0, 2),), ((0, 1, 3),), ((1, 1, 9),)]
    # A_13 = 7 a4^3 + 2 a6^2
    assert _hasse_terms(13) == ((3, 0, 7), (0, 2, 2))


def test_trace_bound():
    boundary_seen = False
    for q, p, n in ((5, 5, 1), (7, 7, 1), (9, 3, 2), (13, 13, 1), (25, 5, 2)):
        ctx = make_field(p, n)
        for curve in iter_curves(ctx):
            fd = point_count(curve)
            assert fd.beta * fd.beta <= 4 * q
            if fd.ordinary:
                assert fd.beta * fd.beta < 4 * q
            elif fd.beta * fd.beta == 4 * q:
                boundary_seen = True
    # square-order fields really do attain the boundary trace
    assert boundary_seen


def test_supersingular_boundary_curve_frozen():
    ctx = make_field(3, 2)
    t = ctx((0, 1))
    fd = point_count(WeierstrassCurve(ctx, t, ctx.zero))
    assert (fd.count, fd.beta, fd.ordinary) == (4, 6, False)


def test_is_ordinary_frozen(f5):
    assert is_ordinary(_curve(f5, 1, 0))
    assert not is_ordinary(_curve(f5, 0, 1))
    assert is_ordinary(_curve(f5, 2, 0))


def test_point_count_guard():
    # the first prime past the sweep bound is refused when its field is
    # built, so no curve over it can reach point_count
    with pytest.raises(FieldTooLargeError):
        make_field(1048583)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (3, 4), (5, 1), (211, 1), (32749, 1),
                                 (32771, 1)])
def test_zech_operand_matches_packed_slots(p, n):
    # the operand is built from bytes; packing each slot's value through
    # poly._pack is the route it skips.  F_32749 keeps 16-bit slots and
    # F_32771 needs 32 (2q + 2 > 2^16)
    ctx = make_field(p, n)
    q, y = ctx.q, _zech_y(ctx)
    W = _slot_width(2 * q + 2)
    pairs = (q - 1) // 2
    even = _pack(W, [(1 << W) - 1, 0] * pairs)
    want = (W, _pack(W, list(y[:1] + y[:0:-1])), _pack(W, [1 + 2 * q, 1] * pairs),
            even, even << W)
    assert _zech_operand(ctx) == want
    assert W == (32 if q > 32767 else 16)


def test_trace_names_the_model_it_rejects(monkeypatch):
    # point_count checks the trace bound on the curve it holds and names it
    ctx = make_field(5)
    curve = _curve(ctx, 0, 1)
    assert point_count(curve).beta == 0
    monkeypatch.setattr(curve_module, "_count_at", lambda *ranks: 11)
    with pytest.raises(RuntimeError) as info:
        point_count(curve)
    assert str(info.value) == ("trace bound violated for WeierstrassCurve(y^2 = x^3 + 1 "
                               "over F_5): beta = -5, this is a bug")


def test_twist_frozen_example(f5):
    e = _curve(f5, 1, 1)
    twisted = twist(e, f5(2), "quadratic")
    assert (twisted.a4, twisted.a6) == (4, 3)
    assert hasse_invariant(e) == 2
    assert hasse_invariant(twisted) == 3


def test_twist_identity(f5):
    e = _curve(f5, 1, 1)
    same = twist(e, f5.one, "quadratic")
    assert (same.a2, same.a4, same.a6) == (e.a2, e.a4, e.a6)


def test_twist_error_taxonomy(f5):
    e_j1728 = _curve(f5, 1, 0)
    e_j0 = _curve(f5, 0, 1)
    with pytest.raises(ZeroTwistParameterError):
        twist(e_j1728, f5.zero, "quadratic")
    # wrong-curve check fires before the congruence check
    with pytest.raises(WrongJInvariantError):
        twist(e_j1728, f5(2), "sextic")
    with pytest.raises(WrongJInvariantError):
        twist(e_j0, f5(2), "quartic")
    # 5 = 1 mod 4 so quartic is fine here, but 5 = 2 mod 3 blocks sextic
    twist(e_j1728, f5(2), "quartic")
    with pytest.raises(BadCongruenceError):
        twist(e_j0, f5(2), "sextic")
    ctx7 = make_field(7)
    with pytest.raises(BadCongruenceError):
        twist(_curve(ctx7, 1, 0), ctx7(3), "quartic")
    with pytest.raises(ValueError):
        twist(e_j1728, f5(2), "cubic")


@pytest.mark.parametrize("p,n", [pytest.param(p, n, id=str(p**n))
                                 for p, n in ((3, 1), (5, 1), (7, 1), (13, 1), (3, 2))])
def test_twist_raises_exactly_where_kind_does_not_apply(p, n):
    """Over every model and kind, twist raises exactly when _twist_kinds
    leaves the kind out, with the j error where j is wrong and the
    congruence error otherwise.  twist decides j on ranks, so j is read
    here off j_invariant; in characteristic 3, 1728 = 0."""
    ctx = make_field(p, n)
    d = ctx(2)
    for curve in iter_curves(ctx):
        kinds = _twist_kinds(ctx, curve.a4.rank, curve.a6.rank)
        for kind in ("quadratic", "quartic", "sextic"):
            if kind in kinds:
                twist(curve, d, kind)
                continue
            j = ctx(1728) if kind == "quartic" else ctx.zero
            error = WrongJInvariantError if curve.j_invariant != j else BadCongruenceError
            with pytest.raises(error):
                twist(curve, d, kind)


def test_twist_preserves_j():
    for p in (5, 13):
        ctx = make_field(p)
        j1728 = ctx(1728)
        for curve in iter_curves(ctx):
            kinds = ["quadratic"]
            if curve.j_invariant == j1728 and p % 4 == 1:
                kinds.append("quartic")
            if not curve.j_invariant and p % 3 == 1:
                kinds.append("sextic")
            for d in ctx.iter_elements():
                if not d:
                    continue
                for kind in kinds:
                    assert twist(curve, d, kind).j_invariant == curve.j_invariant


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
def test_twist_discriminant_is_scaled(p, n):
    """twist scales the discriminant by d^6, d^3 or d^2 instead of
    recomputing it; the generic formula on the twisted coefficients agrees
    for every model, every d != 0 and every kind that applies (F_3 and
    F_9 with a2 != 0, quartic over F_5, F_13, F_25, sextic over F_7, F_13)."""
    ctx = make_field(p, n)
    j1728 = ctx(1728)
    a2_values = list(ctx.iter_elements()) if p == 3 else [ctx.zero]
    twisted = 0
    for a2 in a2_values:
        for a4 in ctx.iter_elements():
            for a6 in ctx.iter_elements():
                try:
                    curve = WeierstrassCurve(ctx, a4, a6, a2)
                except SingularModelError:
                    continue
                kinds = ["quadratic"]
                if curve.j_invariant == j1728 and p % 4 == 1:
                    kinds.append("quartic")
                if not curve.j_invariant and p % 3 == 1:
                    kinds.append("sextic")
                for d in ctx.iter_elements():
                    if not d:
                        continue
                    for kind in kinds:
                        t = twist(curve, d, kind)
                        assert t.discriminant == discriminant_general(t.a2, t.a4, t.a6)
                        assert t == WeierstrassCurve(ctx, t.a4, t.a6, t.a2)
                        twisted += 1
    assert twisted >= (ctx.q - 1) * (ctx.q * ctx.q - ctx.q)


def test_quadratic_twist_by_square_preserves_count():
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
        ctx = make_field(p, n)
        squares = {(x * x).rank for x in ctx.iter_elements() if x}
        for curve in iter_curves(ctx):
            fd = point_count(curve)
            for d in ctx.iter_elements():
                if not d or d.rank not in squares:
                    continue
                other = point_count(twist(curve, d, "quadratic"))
                assert (other.count, other.beta) == (fd.count, fd.beta)


def test_a2_model_twist_rule():
    ctx = make_field(3)
    e = _curve(ctx, 0, 1, a2=1)
    d = ctx(2)
    twisted = twist(e, d, "quadratic")
    assert (twisted.a2, twisted.a4, twisted.a6) == (d * e.a2, d * d * e.a4, d ** 3 * e.a6)
    assert twisted.j_invariant == e.j_invariant


def test_curves_are_immutable(f5):
    e = _curve(f5, 1, 1)
    with pytest.raises(AttributeError):
        e.a4 = f5(2)


@pytest.mark.parametrize("p", [233, 1048573])
def test_power_of_a_point_matches_repeated_addition(p):
    # k P by gf._power, the giant steps' start in _multiples, against
    # k-fold _ec_add on y^2 = x^3 + x + 1, and the point at infinity at k =
    # the order of P.  That order divides #E = p + 1 - t, with t read off
    # A_p = t mod p, as |t| <= 2 sqrt(p) < p/2: not off point_count, whose
    # Shanks-Mestre steps run on _power
    def add(P, Q):
        return _ec_add(P, Q, 1, p)

    x = next(x for x in range(p) if pow(x**3 + x + 1, (p - 1) // 2, p) == 1)
    P, R = (x, _sqrt((x**3 + x + 1) % p, p, _nonsquare(p))), None
    assert (P[1] ** 2 - x**3 - x - 1) % p == 0
    for k in range(1, 41):
        R = add(R, P)
        assert _power(P, k, add, None) == R, k
    a = hasse_invariant(_curve(make_field(p), 1, 1)).rank
    order = p + 1 - (a if a < p // 2 else a - p)
    assert _power(P, order, add, None) is None
    for ell, _ in _factor_int(order):
        while order % ell == 0 and _power(P, order // ell, add, None) is None:
            order //= ell
    assert all(_power(P, order // ell, add, None) is not None for ell, _ in _factor_int(order))
    assert _power(P, order + 1, add, None) == P
    if p < 1000:
        # small enough to walk: the first k with k P at infinity
        k, R = 1, P
        while R is not None:
            k, R = k + 1, add(R, P)
        assert k == order
