"""Curve models, invariants, point counts, and twists.

Counts in this file were frozen from exhaustive x-sweeps done by hand or
with a throwaway script; invariants are additionally recomputed through
an independent route (the generic b-invariant discriminant, the full
polynomial power for the Hasse coefficient) so the fast paths inside the
package cannot drift.
"""

import random
from collections import Counter
from itertools import chain, zip_longest

import pytest

import hasseforms.curve as curve_module
from hasseforms import (
    hasse_invariant,
    is_ordinary,
    iter_curves,
    make_field,
    point_count,
    quadratic_character,
    twist,
)
from hasseforms.curve import (
    _MESTRE_P,
    WeierstrassCurve,
    _count_at,
    _count_mestre,
    _disc_at,
    _disc_row,
    _ec_add,
    _hasse_at,
    _hasse_one,
    _hasse_row,
    _hasse_terms,
    _log_hist,
    _nonsquare,
    _row_counts,
    _row_hasse,
    _row_hist,
    _singular_a6,
    _sqrt,
    _twist_kinds,
    _twist_scales,
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


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2)])
def test_discriminant_two_routes(p, n):
    """The specialized discriminant agrees with the generic formula, on
    whole rows (_disc_at on every a6 rank) too, and a model is
    constructible exactly when the generic formula is nonzero."""
    ctx = make_field(p, n)
    a2_values = list(ctx.iter_elements()) if p == 3 else [ctx.zero]
    for a2 in a2_values:
        for a4 in ctx.iter_elements():
            row = _disc_at(ctx, _disc_row(ctx, a2.rank, a4.rank), range(ctx.q))
            for a6 in ctx.iter_elements():
                generic = discriminant_general(a2, a4, a6)
                assert row[a6.rank] == generic.rank
                if not generic:
                    with pytest.raises(SingularModelError):
                        WeierstrassCurve(ctx, a4, a6, a2)
                else:
                    curve = WeierstrassCurve(ctx, a4, a6, a2)
                    assert curve.discriminant == generic


# (level-p stride, level-q stride): truncated powering is slow where p or
# q is large, so only every stride-th model is checked there
_TWO_ROUTES_STRIDES = {(5, 2): (1, 7), (7, 2): (1, 29), (3, 3): (1, 13), (13, 2): (7, 499)}


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (7, 1), (11, 1), (13, 1), (19, 1),
                                 (5, 2), (7, 2), (3, 3), (13, 2)])
def test_hasse_invariant_two_routes(p, n):
    """The closed form and its norm agree with full truncated powering
    of the defining cubic, at the p and q levels.  The closed form is
    _hasse_one by term ratios over F_p with p >= 5, and elsewhere
    _hasse_at at one a6: A_3 = a2 over F_3, Horner on logs with Zech
    steps over F_q.  F_5^2, F_7^2 and F_3^3 take it over rows with a4 = 0
    (zero low coefficients folded into k), a6 = 0 and char-3 a2 slabs with
    n > 1, and F_13^2, the smallest of them with two terms, over a P of
    degree 1 and a k of 2."""
    ctx = make_field(p, n)
    steps = _TWO_ROUTES_STRIDES.get((p, n), (1, 1))
    for i, curve in enumerate(iter_curves(ctx)):
        for level, size, stride in zip("pq", (p, ctx.q), steps):
            if i % stride == 0:
                f = curve.f_polynomial()
                want = f.pow_truncated((size - 1) // 2, size - 1)[size - 1]
                assert hasse_invariant(curve, level=level) == want


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


ROW_COUNT_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (31, 1), (3, 2), (5, 2),
                    (7, 2), (3, 3), (3, 4), (5, 3), (11, 2)]


@pytest.mark.parametrize("p,n", ROW_COUNT_FIELDS)
def test_row_counts_match_point_count(p, n):
    # the whole-row kernel against one point_count pass per model, on every
    # row: a6 = 0 included, the a2 rows of characteristic 3 (over F_3^4
    # only the a2 slabs of ranks 0, 27, 54, which are 0, 1, 2, and of ranks
    # 1, 2 and 80: 6 of 81 slabs, since all 531,441 models take seconds),
    # and against a direct count by Euler's criterion on every singular
    # model where q <= 31 and on the wholly singular rows
    ctx = make_field(p, n)
    q, els, add, mul = ctx.q, list(ctx.iter_elements()), ctx._add, ctx._mul
    log = ctx._log_tables[1]  # counts are kept by the log of a6
    assert log[0] == -1  # so a6 = 0 reads the last slot, counts[-1]
    slabs = range(q if p == 3 else 1)
    if (p, n) == (3, 4):
        slabs = (0, 1, 2, 27, 54, 80)
    singular_rows = 0
    for a2 in (els[r] for r in slabs):
        for a4 in els:
            counts = _row_counts(ctx, a2.rank, a4.rank)
            assert len(counts) == q
            d0, d1, d2 = _disc_row(ctx, a2.rank, a4.rank)
            singular_rows += not (d0 or d1 or d2)
            for a6 in els:
                disc = add(d0, mul(add(d1, mul(d2, a6.rank)), a6.rank))
                if disc:
                    curve = WeierstrassCurve._unchecked(ctx, a2, a4, a6, ctx.from_rank(disc))
                    assert counts[log[a6.rank]] == point_count(curve).count
                elif q <= 31 or not (d0 or d1 or d2):
                    affine = sum(1 + quadratic_character(((x + a2) * x + a4) * x + a6)
                                 for x in els)
                    assert counts[log[a6.rank]] == 1 + affine
    assert singular_rows == (p == 3)  # only a2 = a4 = 0 in characteristic 3


HIST_FIELDS = [(7, 1), (13, 1), (3, 2), (5, 2), (3, 3)]


def _rows_of_h(ctx, rows=None):
    # (a2, a4, [h(x) for every x]) on every row, or on the (a2, a4) ranks
    # of rows, h = x^3 + a2 x^2 + a4 x by FieldElement arithmetic; a2 != 0
    # only in characteristic 3
    els = list(ctx.iter_elements())
    if rows is None:
        rows = [(r2, r4) for r2 in range(ctx.q if ctx.p == 3 else 1) for r4 in range(ctx.q)]
    for r2, r4 in rows:
        a2, a4 = els[r2], els[r4]
        yield a2, a4, [((x + a2) * x + a4) * x for x in els]


@pytest.mark.parametrize("p,n", HIST_FIELDS)
def test_row_hist_matches_direct_log_count(p, n):
    # M[u] = #{x != 0 : log h(x) = u} on every row, a2 rows included,
    # against logs taken by walking powers of the generator; the planes,
    # built by the row's first count at a6 != 0, hold bit 0 and bit 1 of
    # M[u] at bit u
    ctx = make_field(p, n)
    log, power = {}, ctx.one
    for e in range(ctx.q - 1):
        log[power] = e
        power = power * ctx.generator
    for a2, a4, hs in _rows_of_h(ctx):
        want = [0] * (ctx.q - 1)
        for h in hs[1:]:  # x = 0 is rank 0
            if h:
                want[log[h]] += 1
        row = _row_hist(ctx, a2.rank, a4.rank)
        assert row == [bytearray(want)]
        _count_at(ctx, a2.rank, a4.rank, ctx.one.rank)
        hist, low, high = row
        assert list(hist) == want
        assert low == sum((m & 1) << u for u, m in enumerate(want))
        assert high == sum((m >> 1) << u for u, m in enumerate(want))


@pytest.mark.parametrize("fields", [((3, 2), (3, 3)), ((5, 2), (13, 1))])
def test_row_memos_match_direct_routes_out_of_order(fields):
    # _log_hist, whose char-3 rows share the x side of an a2 slab
    # (_x_logs, one slot on (ctx, a2)), and _row_hasse, whose rows of one
    # closed form share a table (_hasse_table, one slot on (ctx, k,
    # coeffs)), on every row of two fields, each shuffled, the two
    # interleaved: a memo keyed on less than its table depends on hands a
    # row another row's table.  The direct routes take the log of h(x)
    # from FieldElement arithmetic and evaluate the row's closed form anew
    rng = random.Random(0)
    walks = []
    for p, n in fields:
        ctx = make_field(p, n)
        rows = [(r2, r4) for r2 in range(ctx.q if p == 3 else 1) for r4 in range(ctx.q)]
        rng.shuffle(rows)
        walks.append([(ctx, row) for row in rows])
    for ctx, (r2, r4) in filter(None, chain.from_iterable(zip_longest(*walks))):
        (a2, a4, hs), = _rows_of_h(ctx, [(r2, r4)])
        log, want = ctx._log_tables[1], [0] * (ctx.q - 1)
        for h in hs[1:]:  # x = 0 is rank 0
            if h:
                want[log[h.rank]] += 1
        assert list(_log_hist(ctx, r2, r4)) == want
        assert list(_row_hasse(ctx, r2, r4)) == _hasse_at(ctx, *_hasse_row(ctx, r2, r4),
                                                          range(ctx.q))


def _sample_rows(ctx):
    # a few rows of a larger field: a4 = 0, 1 and g, on a2 = 0 and, in
    # characteristic 3, on a2 = 1 and g too
    one, g = ctx.one.rank, ctx.generator.rank
    a4s = (0, one, g)
    return [(r2, r4) for r2 in ((0, one, g) if ctx.p == 3 else (0,)) for r4 in a4s]


@pytest.mark.parametrize("p,n", HIST_FIELDS + [(31, 2), (3, 4)])
def test_count_at_matches_naive_count_at_every_a6(p, n):
    # #E by Euler's criterion at every a6 of every row (of a sample of rows
    # past q = 49), singular models included, since _count_at is the
    # character sum whatever the discriminant.  The slot where Y is 1, the
    # x with h(x) = -a6, is read nonzero on both sides of the wrap of its
    # index (q - 1)/2 + lc, so the correction there is exercised; every a6
    # puts lc at 0 and at q - 2, the ends of the mask's rotation
    ctx = make_field(p, n)
    order, log, add = ctx.q - 1, ctx._log_tables[1], ctx._add
    chi = [quadratic_character(el) for el in ctx.iter_elements()]
    wrapped = set()
    for a2, a4, hs in _rows_of_h(ctx, _sample_rows(ctx) if ctx.q > 49 else None):
        hist = _row_hist(ctx, a2.rank, a4.rank)[0]
        mult = Counter(h.rank for h in hs)
        for a6 in range(ctx.q):
            want = 1 + sum(m * (1 + chi[add(h, a6)]) for h, m in mult.items())
            assert _count_at(ctx, a2.rank, a4.rank, a6) == want
            if a6 and hist[(order // 2 + log[a6]) % order]:
                wrapped.add(order // 2 + log[a6] >= order)
    assert wrapped == {False, True}


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4),
                                 (5, 3), (7, 3), (5, 4), (11, 2), (3, 6), (31, 2)])
def test_zech_y_is_one_minus_chi_of_one_plus_g_power(p, n):
    # Y[t] = 1 - chi(1 + g^t) at every t: 1 where 1 + g^t = 0, else 0 or 2
    # by the parity of the Zech logarithm, and the character itself
    # through element powers, which read no Zech table
    ctx = make_field(p, n)
    zech, g = ctx._log_tables[2], ctx.generator
    y = _zech_y(ctx)
    assert list(y) == [1 if z < 0 else 2 * (z & 1) for z in zech]
    assert list(y) == [1 - quadratic_character(ctx.one + g**t) for t in range(ctx.q - 1)]


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


@pytest.mark.parametrize("p,n", HIST_FIELDS + [(131, 1), (13, 2)])
def test_row_counts_match_count_at_every_a6(p, n):
    # the row product and the per-model pass read one histogram: slot
    # log a6 of _row_counts is _count_at at every a6, singular or not
    ctx = make_field(p, n)
    log = ctx._log_tables[1]
    for a2 in range(ctx.q if p == 3 else 1):
        for a4 in range(ctx.q):
            counts = _row_counts(ctx, a2, a4)
            assert [counts[log[a6]] for a6 in range(ctx.q)] == \
                [_count_at(ctx, a2, a4, a6) for a6 in range(ctx.q)]


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (3, 3),
                                 (7, 2), (13, 2)])
def test_row_hasse_matches_hasse_invariant(p, n):
    # the whole-row shape of _hasse_at against hasse_invariant (over F_p
    # with p >= 5 the term ratios of _hasse_one), which
    # test_hasse_invariant_two_routes holds to truncated powering, on
    # every model, a6 = 0 included: the a4 = 0 rows, where zero low
    # coefficients of P fold into k (over F_13 and F_13^2, whose P has two
    # terms elsewhere, and in characteristic 5, where all of P folds
    # away), the char-3 a2 slabs, and over F_7^2 and F_13^2 the log route
    # with k > 0
    ctx = make_field(p, n)
    folded = False
    for curve in iter_curves(ctx):
        r2, r4 = curve.a2.rank, curve.a4.rank
        row = _row_hasse(ctx, r2, r4)
        assert len(row) == ctx.q
        assert row[curve.a6.rank] == hasse_invariant(curve).rank
        k, coeffs = _hasse_row(ctx, r2, r4)
        assert all(coeffs)  # so the log route has no zero coefficient
        folded |= r4 == 0 and k > _hasse_row(ctx, r2, ctx.one.rank)[0]
    assert folded == (p in (5, 13))


@pytest.mark.parametrize("p,n", [(7, 1), (5, 2), (13, 2), (3, 3)])
def test_hasse_at_matches_hasse_invariant_on_shuffled_ranks(p, n):
    # the row evaluator _hasse_at, on a shuffled sample of a6
    # ranks with rank 0 and the row's discriminant roots, on every row
    # (the char-3 a2 slabs too), against truncated powering of the cubic;
    # a singular model is built unchecked, since A_p is a polynomial in
    # the coefficients all the same
    ctx = make_field(p, n)
    rng = random.Random(p**n)
    els = list(ctx.iter_elements())
    for a2 in els if p == 3 else els[:1]:
        for a4 in els:
            roots = _singular_a6(ctx, _disc_row(ctx, a2.rank, a4.rank))
            r6s = list({0, *roots, *rng.sample(range(ctx.q), ctx.q // 2)})
            rng.shuffle(r6s)
            got = _hasse_at(ctx, *_hasse_row(ctx, a2.rank, a4.rank), r6s)
            assert got == [WeierstrassCurve._unchecked(ctx, a2, a4, els[r6], ctx.zero)
                           .f_polynomial().pow_truncated((p - 1) // 2, p - 1)[p - 1].rank
                           for r6 in r6s]


PRIMES_5_TO_233 = [m for m in range(5, 234) if all(m % d for d in range(2, m))]


@pytest.mark.parametrize("p", PRIMES_5_TO_233)
def test_hasse_one_matches_row_route_on_every_model(p):
    # A_p by term ratios against the row route, _hasse_at off _hasse_row,
    # on every (a4, a6), singular ones too.  The primes take both residues
    # mod 3 and mod 4, so the a4 = 0 rows and the a6 = 0 column, where one
    # term is left, or none (p = 2 mod 3, p = 3 mod 4), run both ways
    ctx = make_field(p)
    for a4 in range(p):
        want = _hasse_at(ctx, *_hasse_row(ctx, 0, a4), range(p))
        assert [_hasse_one(p, a4, a6) for a6 in range(p)] == want, a4


@pytest.mark.parametrize("p", [65537, 1048573])
def test_hasse_one_matches_row_route_on_seeded_models(p):
    # a few rows, so that the row route builds few tables; 65537 = 2 mod 3
    # leaves no term on the row a4 = 0, 1048573 = 1 mod 3 one
    rng = random.Random(p)
    ctx = make_field(p)
    for a4 in (0, 1, rng.randrange(2, p)):
        a6s = [0, 1] + [rng.randrange(2, p) for _ in range(3)]
        want = _hasse_at(ctx, *_hasse_row(ctx, 0, a4), a6s)
        assert [_hasse_one(p, a4, a6) for a6 in a6s] == want, a4


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


def _kinds_by_j(curve):
    # the twist kinds that apply to a model, read off its j-invariant
    ctx = curve.ctx
    kinds = ["quadratic"]
    if curve.j_invariant == ctx(1728) and ctx.p % 4 == 1:
        kinds.append("quartic")
    if not curve.j_invariant and ctx.p % 3 == 1:
        kinds.append("sextic")
    return tuple(kinds)


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
def test_twist_kinds_on_ranks_match_j(p, n):
    """The twists suite picks kinds on ranks (a6 = 0 for j = 1728, a4 = 0
    for j = 0, none in characteristic 3); on every model that is the
    choice the j-invariant makes."""
    ctx = make_field(p, n)
    for curve in iter_curves(ctx):
        assert _twist_kinds(ctx, curve.a4.rank, curve.a6.rank) == _kinds_by_j(curve), curve


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
def test_twist_scales_match_twist_and_field_arithmetic(p, n):
    """The twists suite moves a model by the rank scales of _twist_scales;
    for every model, d != 0 and kind that applies they give twist()'s
    coefficients and the twist rule in FieldElement arithmetic."""
    ctx = make_field(p, n)
    mul, zero = ctx._mul, ctx.zero
    seen = set()
    for curve in iter_curves(ctx):
        a2, a4, a6 = curve.a2, curve.a4, curve.a6
        for d in ctx.iter_elements():
            if not d:
                continue
            for kind in _twist_kinds(ctx, a4.rank, a6.rank):
                s2, s4, s6, sd = _twist_scales(ctx, d.rank, kind)
                ranks = (mul(s2, a2.rank), mul(s4, a4.rank), mul(s6, a6.rank))
                t = twist(curve, d, kind)
                assert ranks == (t.a2.rank, t.a4.rank, t.a6.rank)
                assert mul(sd, curve.discriminant.rank) == t.discriminant.rank
                want = {"quadratic": (d * a2, d * d * a4, d * d * d * a6),
                        "quartic": (zero, d * a4, zero),
                        "sextic": (zero, zero, d * a6)}[kind]
                assert tuple(ctx.from_rank(r) for r in ranks) == want
                seen.add(kind)
    assert seen == {kind for kind, applies in (("quadratic", True), ("quartic", p % 4 == 1),
                                               ("sextic", p % 3 == 1)) if applies}


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


def test_mestre_count_matches_count_at_on_every_model():
    # the first prime past Mestre's bound: every nonsingular model,
    # 2-torsion, j = 0 and j = 1728 included
    p = 239
    assert p > _MESTRE_P
    ctx = make_field(p)
    models = 0
    for a4 in range(p):
        for a6 in range(p):
            if (4 * a4**3 + 27 * a6 * a6) % p:
                assert _count_mestre(p, a4, a6) == _count_at(ctx, 0, a4, a6), (a4, a6)
                models += 1
    assert models == p * p - p


def test_mestre_count_matches_count_at_on_crossed_rows():
    # F_233, p = 1 mod 8, so Tonelli-Shanks takes three squarings: every
    # a6 at a few a4 and every a4 at a few a6, the rows a4 = 0 (j = 0) and
    # a6 = 0 (j = 1728) among them
    p = 233
    assert p > _MESTRE_P
    rng = random.Random(p)
    ctx = make_field(p)
    few = {0, 1, *rng.sample(range(2, p), 3)}
    models = {(a4, a6) for a4 in range(p) for a6 in few} | {(a4, a6) for a4 in few for a6 in range(p)}
    for a4, a6 in sorted(models):
        if (4 * a4**3 + 27 * a6 * a6) % p:
            assert _count_mestre(p, a4, a6) == _count_at(ctx, 0, a4, a6), (a4, a6)


@pytest.mark.parametrize("p", [65537, 1048573])
def test_mestre_count_matches_count_at_on_seeded_models(p):
    # a few rows, so that the table route builds few histograms; the rows
    # a4 = 0 and a6 = 0 hold the curves with j = 0 and j = 1728
    rng = random.Random(p)
    ctx = make_field(p)
    for a4 in (0, 1, rng.randrange(2, p)):
        for a6 in [0, 1] + [rng.randrange(2, p) for _ in range(3)]:
            if (4 * a4**3 + 27 * a6 * a6) % p:
                curve = _curve(ctx, a4, a6)
                want = _count_at(ctx, 0, a4, a6)
                assert _count_mestre(p, a4, a6) == want == point_count(curve).count


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
