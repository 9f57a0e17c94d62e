"""Finite field construction and arithmetic.

Frozen constants in this file were derived by hand from the stored
modulus: F_9 = F_3[t]/(t^2 + 1) and F_25 = F_5[t]/(t^2 + t + 1), so for
example (t+1)^2 = 2t and (t+1)^4 = 2 in F_9.
"""

import gc
import hashlib
import itertools
import json
import logging
import random
import re
import time
import weakref

import pytest

from hasseforms import (
    Polynomial,
    census,
    discrete_log,
    make_field,
    norm_to_prime,
    point_count,
    primitive_element,
    quadratic_character,
)
from hasseforms import cli
from hasseforms import verify as verify_mod
from hasseforms.curve import WeierstrassCurve, _row_hist
from hasseforms.forms import UnitClass
from hasseforms.gf import (_is_irreducible, _is_prime, _mulmod_ints, _norm_ints,
                           _pohlig_hellman, _pohlig_hellman_plan, _power, _rem_ints)
from hasseforms.verify import run_suite
from hasseforms.errors import (
    CtxMismatchError,
    EvenCharacteristicError,
    FieldTooLargeError,
    NotPrimeError,
    SingularModelError,
    ZeroElementError,
)

TABLE_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3)]
EXTENSION_FIELDS_TO_3000 = [(p, n) for p in range(3, 55) if _is_prime(p)
                            for n in range(2, 8) if p**n <= 3000]


def _is_irreducible_ints(f, p):
    """Trial division of a monic f by every monic divisor of degree <= deg/2."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for rank in range(p**d):
            div = [(rank // p**i) % p for i in range(d)] + [1]
            if not _rem_ints(list(f), div, p):
                return False
    return True


@pytest.fixture(scope="module")
def f9():
    return make_field(3, 2)


@pytest.fixture(scope="module")
def f25():
    return make_field(5, 2)


def test_rejects_even_characteristic():
    with pytest.raises(EvenCharacteristicError):
        make_field(2)
    with pytest.raises(EvenCharacteristicError):
        make_field(2, 5)


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 21])
def test_rejects_composite_characteristic(bad):
    with pytest.raises(NotPrimeError):
        make_field(bad)


def test_rejects_oversized_order():
    with pytest.raises(FieldTooLargeError, match=r"2\*\*20"):
        make_field(3, 21)  # 3^21 > 2^32


def test_rejects_huge_degree_before_forming_the_power():
    # p**n is never built for these: 3**(10**12) would not fit in memory
    t0 = time.perf_counter()
    with pytest.raises(FieldTooLargeError, match=r"2\*\*20"):
        make_field(3, 10**12)
    with pytest.raises(NotPrimeError):
        make_field(-3, 10**8)
    with pytest.raises(NotPrimeError):
        make_field(1, 10**12)
    assert time.perf_counter() - t0 < 1.0


def test_prime_field_basics():
    ctx = make_field(7)
    assert (ctx.p, ctx.n, ctx.q) == (7, 1, 7)
    assert ctx.modulus is None
    assert ctx(10) == 3
    assert ctx(-1) == 6
    assert int(ctx(6)) == 6
    assert not ctx.zero and ctx.one


def test_frozen_moduli(f9, f25):
    # little-endian coefficient tuples including the leading 1
    assert f9.modulus == (1, 0, 1)
    assert f25.modulus == (1, 1, 1)
    assert make_field(3, 3).modulus == (1, 0, 2, 1)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (7, 2), (19, 2)])
def test_modulus_is_monic_without_roots(p, n):
    ctx = make_field(p, n)
    c = ctx.modulus
    assert len(c) == n + 1 and c[-1] == 1
    for x in range(p):
        acc = 0
        for coef in reversed(c):
            acc = (acc * x + coef) % p
        assert acc != 0


@pytest.mark.parametrize("p,n", EXTENSION_FIELDS_TO_3000)
def test_modulus_matches_full_lex_scan(p, n):
    # reference: the first irreducible from lex rank 0, constant term most
    # significant, with no block of candidates skipped
    for rank in range(p**n):
        cand = tuple(rank // p ** (n - 1 - i) % p for i in range(n)) + (1,)
        if _is_irreducible_ints(cand, p):
            break
    assert make_field(p, n).modulus == cand


@pytest.mark.parametrize("p,degrees", [(3, (1, 2, 3, 4)), (5, (1, 2, 3, 4)),
                                        (7, (1, 2, 3, 4)), (31, (2,))])
def test_ben_or_matches_trial_division(p, degrees):
    for n in degrees:
        for free in itertools.product(range(p), repeat=n):
            f = free + (1,)
            assert _is_irreducible(f, p) == _is_irreducible_ints(f, p), f


@pytest.mark.parametrize("p", [3, 5, 7, 31])
def test_mulmod_matches_polynomial_route(p):
    # the one value-list product against Polynomial * and %, which run on
    # rank kernels, modulo every monic m of degree 1 to 3 and a sample of
    # degree 4, reducible ones included (Ben-Or squares modulo every
    # candidate); operands below the degree of m and, as in Ben-Or's
    # step h * (x h), one of them at it.  Over F_p ranks are values
    ctx, rng, poly = make_field(p), random.Random(p), Polynomial.from_ranks
    moduli = [list(free) + [1] for d in (1, 2, 3) for free in itertools.product(range(p), repeat=d)]
    moduli += [[r // p**i % p for i in range(4)] + [1]
               for r in rng.sample(range(p**4), min(p**4, 400))]
    for m in moduli:
        a = [rng.randrange(p) for _ in range(len(m) - 1)]
        for b in ([0] + a, [rng.randrange(p) for _ in m]):
            want = poly(ctx, a) * poly(ctx, b) % poly(ctx, m)
            assert _mulmod_ints(a, b, m, p) == list(want.ranks), (a, b, m)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3)])
def test_resultant_norm_matches_power_norm(p, n):
    ctx = make_field(p, n)
    for x in ctx.iter_elements():
        if x:
            assert _norm_ints(x.coeffs, ctx.modulus, p) == int(norm_to_prime(x))


GUARD_EXTENSIONS = [(p, n) for p in range(3, 1024) if _is_prime(p)
                    for n in range(2, 21) if p**n <= 2**20]


def test_moduli_and_generators_pinned_across_the_guard():
    # sha256 over (p, n, modulus, generator rank) of every extension field
    # the size guard admits, taken from trial division and norms as
    # products of Frobenius images, a route independent of Ben-Or's test
    # and of resultants
    rows = []
    for p, n in GUARD_EXTENSIONS:
        ctx = make_field(p, n)
        rows.append([p, n, list(ctx.modulus), ctx.generator.rank])
    assert len(rows) == 223
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "432ffd6657e5adde46b8dad307aaa118a5cf8077b2179544a02f072d6196f086"


def test_element_iteration_is_rank_order(f9, f25):
    for ctx in (f9, f25):
        els = list(ctx.iter_elements())
        assert len(els) == ctx.q
        assert els[0] == ctx.zero
        assert [e.rank for e in els] == list(range(ctx.q))
        assert all(ctx.from_rank(e.rank) == e for e in els)


def test_frozen_f9_arithmetic(f9):
    t = f9((0, 1))
    s = t + 1
    assert t * t == -1
    assert s * s == 2 * t
    assert s ** 4 == 2
    assert s * s.inverse() == 1
    assert (s / s) == 1
    assert -s == 2 * t + 2


def test_unit_group_relations(f25):
    nonzero = [x for x in f25.iter_elements() if x]
    for x in nonzero:
        assert x * x.inverse() == 1
        assert x ** 24 == 1
    for x in f25.iter_elements():
        assert x ** 25 == x  # Frobenius fixes the whole field, zero included
    with pytest.raises(ZeroDivisionError):
        f25.zero.inverse()


def test_int_coercion_rules(f9):
    t = f9((0, 1))
    assert int(f9(2)) == 2
    with pytest.raises(ValueError):
        int(t)
    assert 1 + t == t + 1
    assert 2 * t == t * 2
    # the reflected difference and quotient against their left-hand forms
    for ctx in (make_field(7), f9):
        for x in ctx.iter_elements():
            assert 3 - x == ctx(3) - x and (3 - x) + x == 3
            if x:
                assert 2 / x == ctx(2) / x and (2 / x) * x == 2


def test_cross_field_operations_rejected():
    a = make_field(5)(1)
    b = make_field(7)(1)
    with pytest.raises(CtxMismatchError):
        a + b
    with pytest.raises(CtxMismatchError):
        a * b


def test_elements_are_immutable(f9):
    t = f9((0, 1))
    with pytest.raises(AttributeError):
        t.coeffs = ()


def test_generators_frozen_and_maximal(f9, f25):
    assert make_field(5).generator == 2
    assert make_field(7).generator == 3
    assert f9.generator == f9((1, 1))
    for ctx in (make_field(5), make_field(7), f9, f25):
        g = ctx.generator
        powers = {(g ** k).rank for k in range(ctx.q - 1)}
        assert len(powers) == ctx.q - 1
        assert primitive_element(ctx) == g


def test_quadratic_character_matches_square_table(f9, f25):
    for ctx in (make_field(7), f9, f25):
        squares = {(x * x).rank for x in ctx.iter_elements() if x}
        for x in ctx.iter_elements():
            expect = 0 if not x else (1 if x.rank in squares else -1)
            assert quadratic_character(x) == expect


def test_quadratic_character_counts():
    # exactly half the nonzero elements are squares, up to desk scale
    for p, n in ((7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (19, 2)):
        ctx = make_field(p, n)
        plus = sum(1 for x in ctx.iter_elements() if quadratic_character(x) == 1)
        assert plus == (ctx.q - 1) // 2


def test_quadratic_character_multiplicative(f9):
    nonzero = [x for x in f9.iter_elements() if x]
    for a in nonzero:
        for b in nonzero:
            assert quadratic_character(a * b) == quadratic_character(a) * quadratic_character(b)


def test_norm_to_prime(f9, f25):
    t = f9((0, 1))
    assert norm_to_prime(t + 1) == 2
    nonzero = [x for x in f9.iter_elements() if x]
    for a in nonzero:
        int(norm_to_prime(a))  # lands in the prime subfield
        for b in nonzero:
            assert norm_to_prime(a * b) == norm_to_prime(a) * norm_to_prime(b)
    image = {int(norm_to_prime(x)) for x in f25.iter_elements() if x}
    assert image == {1, 2, 3, 4}


def test_norm_multiplicative_f49():
    ctx = make_field(7, 2)
    nonzero = [x for x in ctx.iter_elements() if x]
    for a in nonzero:
        na = norm_to_prime(a)
        for b in nonzero:
            assert norm_to_prime(a * b) == na * norm_to_prime(b)


def test_discrete_log_inverts_generator(f9, f25):
    for ctx in (make_field(7), f9, f25):
        g = ctx.generator
        for x in ctx.iter_elements():
            if not x:
                continue
            e = discrete_log(x)
            assert 0 <= e < ctx.q - 1
            assert g ** e == x
        with pytest.raises(ZeroElementError):
            discrete_log(ctx.zero)


def test_ring_laws(f9, f25):
    els9 = list(f9.iter_elements())
    for a in els9:
        for b in els9:
            assert a + b == b + a
            assert a * b == b * a
    for a in els9:
        for b in els9:
            for c in els9:
                assert a * (b + c) == a * b + a * c
                assert (a + b) + c == a + (b + c)
    els25 = list(f25.iter_elements())
    for a in els25[:8]:
        for b in els25:
            for c in els25:
                assert a * (b + c) == a * b + a * c


def test_ctx_equality_is_structural(f9):
    assert f9 == make_field(3, 2)
    assert f9 != make_field(3)
    assert hash(f9) == hash(make_field(3, 2))


def test_elements_of_equal_contexts_mix():
    # the identity test comes first; distinct but equal contexts still mix
    k1, k2 = make_field(7, 2), make_field(7, 2)
    assert k1 is not k2
    x, y = k1((3, 5)), k2((3, 5))
    assert x == y and y == x
    assert x + y == 2 * x and x * y == x ** 2 and x - y == 0
    assert k1.element(y) is y
    # binary operations across F_5 and F_7: test_cross_field_operations_rejected
    with pytest.raises(CtxMismatchError):
        make_field(5).element(make_field(7)(1))


# -- rank kernels against the convolution route --------------------------

def _euler_chi(ctx, t):
    # Euler's criterion on the convolution route
    if not any(t):
        return 0
    return 1 if ctx._conv_pow(t, (ctx.q - 1) // 2) == ctx.one.coeffs else -1


def _add_coeffwise(ctx, a, b):
    return tuple((x + y) % ctx.p for x, y in zip(a, b))


def test_tuple_from_rank_matches_digit_formula():
    # over F_p a rank is its one digit, returned as (rank,) with no digit
    # loop; the lex digit formula is the route that shortcut skips
    primes = [p for p in range(3, 212) if _is_prime(p)]
    for p, n in [(p, 1) for p in primes] + [(3, 2), (5, 3), (3, 4)]:
        ctx = make_field(p, n)
        for rank in range(ctx.q):
            want = tuple(rank // p ** (n - 1 - i) % p for i in range(n))
            assert ctx._tuple_from_rank(rank) == want


@pytest.mark.parametrize("p,n", TABLE_FIELDS)
def test_table_arithmetic_matches_convolution(p, n):
    ctx = make_field(p, n)
    tup = ctx._tuple_from_rank
    for a in range(ctx.q):
        ta = tup(a)
        assert ctx._rank(ta) == a
        assert tup(ctx._neg(a)) == tuple(-x % p for x in ta)
        for b in range(ctx.q):
            tb = tup(b)
            assert tup(ctx._mul(a, b)) == ctx._conv_mul(ta, tb)
            assert tup(ctx._add(a, b)) == _add_coeffwise(ctx, ta, tb)
            assert tup(ctx._sub(a, b)) == tuple((x - y) % p for x, y in zip(ta, tb))
        for e in (0, 1, 2, 3, 7, (ctx.q - 1) // 2, ctx.q - 2, ctx.q - 1, ctx.q, 3 * ctx.q + 5):
            assert tup(ctx._pow(a, e)) == ctx._conv_pow(ta, e)
        if a:
            assert tup(ctx._inv(a)) == ctx._conv_pow(ta, ctx.q - 2)
    with pytest.raises(ZeroDivisionError):
        ctx._inv(0)


PRIMES_3_TO_211 = [p for p in range(3, 212) if _is_prime(p)]


@pytest.mark.parametrize("p,n", sorted(set(TABLE_FIELDS + EXTENSION_FIELDS_TO_3000))
                         + [(p, 1) for p in PRIMES_3_TO_211 + [1009]])
def test_generator_is_lex_first_on_convolution_route(p, n):
    # reference: the order test on coefficient tuples, x^((q-1)/l) != 1
    # for every prime l | q - 1, with no norm and no subfield shortcut
    ctx = make_field(p, n)
    order = ctx.q - 1
    one = ctx.one.coeffs
    primes = [ell for ell in range(2, order + 1) if order % ell == 0 and _is_prime(ell)]
    for rank in range(1, ctx.q):
        x = ctx._tuple_from_rank(rank)
        if all(ctx._conv_pow(x, order // ell) != one for ell in primes):
            break
    assert ctx.generator.rank == rank


# (3, 6) to (31, 2) run from one scaled block of walked powers (p = 3) to 29
@pytest.mark.parametrize("p,n", TABLE_FIELDS + [(7, 3), (5, 4), (11, 2), (3, 6), (31, 2)])
def test_log_tables_are_inverse_and_zech_matches_addition(p, n):
    ctx = make_field(p, n)
    exp, log, zech = ctx._log_tables
    order = ctx.q - 1
    assert len(exp) == len(zech) == order and len(log) == ctx.q and log[0] == -1
    assert sorted(exp) == list(range(1, ctx.q))
    assert all(exp[log[r]] == r for r in range(1, ctx.q))
    assert all(log[exp[e]] == e for e in range(order))
    g = ctx.generator.coeffs
    x = ctx.one.coeffs
    for e in range(order):
        assert exp[e] == ctx._rank(x)
        s = _add_coeffwise(ctx, ctx.one.coeffs, x)
        assert zech[e] == (log[ctx._rank(s)] if any(s) else -1)
        x = ctx._conv_mul(x, g)


def test_table_build_logs_generator_and_walk(caplog):
    # one DEBUG record per context: the generator's rank and candidates
    # tested, the powers walked of q - 1, generator and table seconds apart
    cases = [(31, 2, 35, 32), (3, 4, 4, 40), (101, 1, 2, 100)]
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        for p, n, _, _ in cases:
            ctx = make_field(p, n)
            ctx._log_tables
    records = [r for r in caplog.records if r.name == "hasseforms"]
    assert [r.levelno for r in records] == [logging.DEBUG] * len(cases)
    for record, (p, n, rank, walked) in zip(records, cases):
        assert re.fullmatch(
            rf"built log tables for F_{p}\^{n} \(q = {p**n}\): generator rank "
            rf"{rank} \({rank} candidates tested\) in \d+\.\d{{3}} s, "
            rf"{walked} of {p**n - 1} powers walked, tables in \d+\.\d{{3}} s",
            record.getMessage())


@pytest.mark.parametrize("p,n", TABLE_FIELDS + [(7, 1), (101, 1)])
def test_discrete_log_round_trips_and_chi_matches_euler(p, n):
    ctx = make_field(p, n)
    for e in range(ctx.q - 1):
        assert discrete_log(ctx.generator ** e) == e
        assert ctx.generator ** (e + 5 * (ctx.q - 1)) == ctx.generator ** e
    # the point count reads chi as the parity of the logarithm
    for x in ctx.iter_elements():
        if x:
            e = discrete_log(x)
            assert ctx.generator ** e == x
            assert 1 - 2 * (e & 1) == _euler_chi(ctx, x.coeffs)


def _naive_count(ctx, curve, chi):
    # every x, f(x) on the convolution route, chi by Euler's criterion
    mul, add = ctx._conv_mul, lambda a, b: _add_coeffwise(ctx, a, b)
    a2, a4, a6 = curve.a2.coeffs, curve.a4.coeffs, curve.a6.coeffs
    total = 1
    for r in range(ctx.q):
        x = ctx._tuple_from_rank(r)
        v = add(mul(add(mul(add(x, a2), x), a4), x), a6)
        total += 1 + chi[v]
    return total


@pytest.mark.parametrize("p,n", TABLE_FIELDS + [(3, 1), (5, 1), (7, 1), (13, 1), (101, 1)])
def test_point_count_matches_naive_count(p, n):
    ctx = make_field(p, n)
    chi = {t: _euler_chi(ctx, t)
           for t in (ctx._tuple_from_rank(r) for r in range(ctx.q))}
    # every model up to 1000 of them, else a fixed stride through
    # (a2, a4, a6); a2 != 0 only in characteristic 3
    total = (ctx.q if p == 3 else 1) * ctx.q * ctx.q
    step = 1 if total <= 1000 else total // 300 + 1
    seen = 0
    for idx in range(0, total, step):
        a2, rest = divmod(idx, ctx.q * ctx.q)
        a4, a6 = divmod(rest, ctx.q)
        try:
            curve = WeierstrassCurve(ctx, ctx.from_rank(a4), ctx.from_rank(a6),
                                     a2=ctx.from_rank(a2))
        except SingularModelError:
            continue
        assert point_count(curve).count == _naive_count(ctx, curve, chi)
        seen += 1
    assert seen > total // step // 2


def _memo_cases(ctx):
    # (curve, naive count) on rows with a2 != 0 (char 3), a4 = 0, and
    # a4 = -1, where h = x^3 + a2 x^2 + a4 x has the root 1; a6 = 0 among them
    chi = {t: _euler_chi(ctx, t)
           for t in (ctx._tuple_from_rank(r) for r in range(ctx.q))}
    slabs = (0, 1, ctx.q - 1) if ctx.p == 3 else (0,)
    cases = []
    for a2 in slabs:
        for a4 in (0, 1, ctx._neg(ctx.one.rank), ctx.q - 1):
            for a6 in (0, ctx.one.rank, 2, ctx.q - 1):
                try:
                    curve = WeierstrassCurve(ctx, ctx.from_rank(a4), ctx.from_rank(a6),
                                             a2=ctx.from_rank(a2))
                except SingularModelError:
                    continue
                cases.append((curve, _naive_count(ctx, curve, chi)))
    return cases


def _row_changes(ctx, cases):
    # the row histograms a slot on ctx builds while cases are counted in
    # order: one per change of row, from the row the slot holds now
    slot = ctx._memo.get("_row_hist")
    last, changes = slot and slot[0], 0
    for curve, _ in cases:
        row = (curve.a2.rank, curve.a4.rank)
        changes += row != last
        last = row
    return changes


def test_point_count_row_memo_against_naive_count():
    # F_9, F_25 and F_27 share ranks, and two distinct F_27 objects are
    # equal: interleaved, every call changes the context or the row
    k27 = make_field(3, 3)
    fields = [make_field(3, 2), make_field(5, 2), k27, make_field(3, 3)]
    assert fields[3] is not k27 and fields[3] == k27
    per_field = [_memo_cases(ctx) for ctx in fields]
    curves = [c for cases in per_field for c, _ in cases]
    assert any(not c.a6 for c in curves) and any(c.a2 for c in curves)
    assert any(sum(_row_hist(c.ctx, c.a2.rank, c.a4.rank)[0]) < c.ctx.q - 1
               for c in curves)  # h has a root besides x = 0
    steps = list(zip(*per_field))
    for order, ran in ((steps, [cases[:len(steps)] for cases in per_field]),
                       (per_field, per_field)):
        # interleaved, then row by row: each context reuses its own slot
        # where it repeats its last row, whatever the others counted in
        # between, so the second F_27 object never reads the first's
        want = [_row_changes(ctx, cases) for ctx, cases in zip(fields, ran)]
        before = [ctx._builds["_row_hist"] for ctx in fields]
        for cases in order:
            for curve, count in cases:
                assert point_count(curve).count == count
        assert [ctx._builds["_row_hist"] - b for ctx, b in zip(fields, before)] == want
    assert len(steps) > 10 and sum(want) < len(curves) and want[3] > 0


def test_point_count_tabulates_each_row_once_in_norm_suite(monkeypatch):
    ctx = make_field(3, 2)
    rows = set()
    for a2 in range(ctx.q):
        for a4 in range(ctx.q):
            for a6 in range(ctx.q):
                try:
                    WeierstrassCurve(ctx, ctx.from_rank(a4), ctx.from_rank(a6),
                                     a2=ctx.from_rank(a2))
                except SingularModelError:
                    continue
                rows.add((a2, a4))
    built, real = [], verify_mod.make_field
    monkeypatch.setattr(verify_mod, "make_field", lambda p, n: built.append(real(p, n)) or built[-1])
    assert run_suite("norm", 3, 2).ok
    assert built[0]._builds["_row_hist"] == len(rows)


def test_contexts_are_collected_once_their_callers_drop_them(monkeypatch, capsys):
    # no memo outside a context holds one, so every table goes with its
    # field once the census, the suite or the CLI call that built it
    # returns; the twists suite's local caches go with its run
    refs = []

    def tracked(p, n=1):
        ctx = make_field(p, n)
        refs.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(verify_mod, "make_field", tracked)
    monkeypatch.setattr(cli, "make_field", tracked)
    found = [len(census(tracked(p, n)).realizable) for p, n in ((1009, 1), (31, 2))]
    oks = [run_suite("norm", 3, 3).ok, run_suite("bridge", 7, 2).ok]
    oks += [run_suite(name, p, n).ok for name in ("twists", "etale") for p, n in ((3, 2), (13, 1))]
    codes = [cli.main([sub, "-p", "31", "-n", "2", "-a4", "1", "-a6", "2", "--json"])
             for sub in ("hasse", "ptorsion")]
    assert all(found) and all(oks) and codes == [0, 0] and len(refs) == 10
    gc.collect()
    assert [ref() for ref in refs] == [None] * 10


def test_tables_refused_beyond_sweep_guard():
    # every field that can be built has its tables: the one size guard
    # refuses the field itself, before any modulus search
    assert make_field(1021, 2).q == 1042441  # the largest p^2 below 2**20
    for args in ((1031, 2), (3, 13), (1048583,)):
        with pytest.raises(FieldTooLargeError, match=r"2\*\*20"):
            make_field(*args)


def _record_table_reads(ctx):
    # swap the built exp, log and Zech tables of ctx for wrappers that
    # record each index read; returns the tables and the list of reads
    tables, reads = ctx._log_tables, []

    class Recorded:
        def __init__(self, table):
            self.table = table

        def __getitem__(self, i):
            reads.append(i)
            return self.table[i]

    vars(ctx)["_log_tables"] = tuple(map(Recorded, tables))
    return tables, reads


def _logs_and_powers_match(ctx, exp, log):
    order = ctx.q - 1
    for a in range(1, ctx.q):
        assert discrete_log(ctx.from_rank(a)) == log[a]
    for e in range(-1, 2 * order):
        assert (ctx.generator ** e).rank == exp[e % order]
        assert UnitClass(ctx, e).rep.rank == exp[e % (ctx.p - 1)]


@pytest.mark.parametrize("p", [19, 23, 101, 131, 211, 1009])
def test_untabled_logs_and_powers_match_the_tables(p):
    # over F_p the field picks the route: Pohlig-Hellman and int powers,
    # which read no table even on a context that holds them; the
    # census-ladder primes and F_1009 against the log and exp tables
    ctx = make_field(p)
    (exp, log, _), reads = _record_table_reads(ctx)
    g = ctx.generator.rank
    for a in range(1, p):
        assert _pohlig_hellman(g, a, p) == log[a]
    _logs_and_powers_match(ctx, exp, log)
    assert not reads


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_logs_and_powers_over_fq_read_the_tables(p, n):
    # over F_q with n > 1 the same answers are read off the tables
    ctx = make_field(p, n)
    (exp, log, _), reads = _record_table_reads(ctx)
    _logs_and_powers_match(ctx, exp, log)
    assert reads


def test_pohlig_hellman_at_a_safe_prime():
    # (p - 1)/2 prime: the baby and giant steps take about sqrt(p/2) each
    p = 1048343
    assert p < 2**20 and _is_prime((p - 1) // 2)
    ctx = make_field(p)
    g, rng = ctx.generator.rank, random.Random(p)
    for e in [0, 1, (p - 1) // 2, p - 2] + [rng.randrange(p - 1) for _ in range(40)]:
        assert discrete_log(ctx.generator ** e) == e
        assert _pohlig_hellman(g, pow(g, e, p), p) == e
    assert "_log_tables" not in vars(ctx)


def test_pohlig_hellman_plan_is_built_once_per_field():
    # the factors of p - 1 and the baby and giant steps are one plan per
    # (g, p), however many logs are taken
    p = 1048343
    ctx = make_field(p)
    rng = random.Random(p)
    _pohlig_hellman_plan.cache_clear()
    for e in [rng.randrange(p - 1) for _ in range(200)]:
        assert discrete_log(ctx.generator ** e) == e
    info = _pohlig_hellman_plan.cache_info()
    assert (info.misses, info.hits) == (1, 199)


def test_power_matches_builtin_pow():
    # the one square-and-multiply, on ints mod p, against pow; at e = 0 it
    # returns the identity and never calls mul
    p, x, calls = 1048573, 12345, []

    def mul(a, b):
        calls.append((a, b))
        return a * b % p

    for e in list(range(65)) + [2**200 + 12345]:
        assert _power(x, e, mul, 1) == pow(x, e, p), e
    calls.clear()
    assert _power(x, 0, mul, "one") == "one" and not calls
    # any associative mul: strings under concatenation
    assert _power("ab", 5, str.__add__, "") == "ab" * 5
