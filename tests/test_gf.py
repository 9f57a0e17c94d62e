"""Finite field construction and arithmetic.

Frozen constants in this file were derived by hand from the stored
modulus: F_9 = F_3[t]/(t^2 + 1) and F_25 = F_5[t]/(t^2 + t + 1), so for
example (t+1)^2 = 2t and (t+1)^4 = 2 in F_9.  The integer kernels and
the fast routes of gf.py are held to their slow routes by the audit
table, tests/test_audits.py.
"""

import gc
import hashlib
import json
import logging
import random
import re
import time
import weakref

import pytest

from hasseforms import (
    census,
    discrete_log,
    make_field,
    norm_to_prime,
    primitive_element,
    quadratic_character,
)
from hasseforms import cli, gf
from hasseforms import verify as verify_mod
from hasseforms.curve import WeierstrassCurve
from hasseforms.gf import _is_prime, _pohlig_hellman, _pohlig_hellman_plan
from hasseforms.verify import run_suite
from hasseforms.errors import (
    CtxMismatchError,
    EvenCharacteristicError,
    FieldTooLargeError,
    NotPrimeError,
    SingularModelError,
    ZeroElementError,
)
from test_audits import GUARD_EXTENSIONS, TABLE_FIELDS, audit_tests, euler_chi

# the ladders of the audit table that run here, tests/test_audits.py
globals().update(audit_tests("test_gf"))


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


def test_field_table_has_one_entry_per_admitted_extension():
    # the table's tokens " p:o,g;o,g;...", entries from n = 2 up, against
    # every (p, n) with n >= 2 that the size guard admits; p^2 > 2**20 past
    # p = 1024, so no larger prime has an entry to miss
    table = gf._FIELD_TABLE
    assert table[0] == table[-1] == " " and "  " not in table
    entries = []
    for token in table.split():
        p, _, rest = token.partition(":")
        for n, entry in enumerate(rest.split(";"), 2):
            assert re.fullmatch(r"\d+,\d+", entry), token
            entries.append((int(p), n))
    admitted = []
    for p, n in ((p, n) for p in range(3, 2048) if _is_prime(p) for n in range(2, 22)):
        try:
            gf._check_size(p, n)
        except FieldTooLargeError:
            continue
        admitted.append((p, n))
    assert entries == admitted == GUARD_EXTENSIONS and len(entries) == 223


def test_moduli_and_generators_pinned_across_the_guard():
    # sha256 over (p, n, modulus, generator rank) of every extension field
    # the size guard admits, as the field table gives them; the digest was
    # taken from trial division and norms as products of Frobenius images,
    # a route independent of Ben-Or's test and of resultants
    rows = []
    for p, n in GUARD_EXTENSIONS:
        ctx = make_field(p, n)
        rows.append([p, n, list(ctx.modulus), ctx.generator.rank])
    assert len(rows) == 223
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "432ffd6657e5adde46b8dad307aaa118a5cf8077b2179544a02f072d6196f086"


def test_reading_a_generator_builds_no_tables():
    # the generator of an extension field is read off the field table, so
    # reading it leaves the q-sized tables of a large field unbuilt; the
    # pin above reads 223 generators on this
    for p, n in ((1021, 2), (3, 12)):
        ctx = make_field(p, n)
        assert ctx.generator.rank > 0 and "_log_tables" not in vars(ctx)


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


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2)])
def test_zeroth_power_is_one(p, n):
    # the empty product, at zero too, over F_p and over F_q
    ctx = make_field(p, n)
    for x in (ctx.zero, ctx.one, ctx.generator):
        assert x ** 0 == ctx.one


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

def test_tuple_from_rank_matches_digit_formula():
    # over F_p a rank is its one digit, returned as (rank,) with no digit
    # loop; the lex digit formula is the route that shortcut skips
    primes = [p for p in range(3, 212) if _is_prime(p)]
    for p, n in [(p, 1) for p in primes] + [(3, 2), (5, 3), (3, 4)]:
        ctx = make_field(p, n)
        for rank in range(ctx.q):
            want = tuple(rank // p ** (n - 1 - i) % p for i in range(n))
            assert ctx._tuple_from_rank(rank) == want


def test_table_build_logs_generator_and_walk(caplog):
    # one DEBUG record per context: the generator's rank, read off the
    # field table over F_q and found by testing candidates over F_p, the
    # powers walked of q - 1, generator and table seconds apart
    cases = [(31, 2, 35, 32), (3, 4, 4, 40), (101, 1, 2, 100)]
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        for p, n, _, _ in cases:
            ctx = make_field(p, n)
            ctx._log_tables
    records = [r for r in caplog.records if r.name == "hasseforms"]
    assert [r.levelno for r in records] == [logging.DEBUG] * len(cases)
    for record, (p, n, rank, walked) in zip(records, cases):
        found = "from the field table" if n > 1 else f"{rank} candidates tested"
        assert re.fullmatch(
            rf"built log tables for F_{p}\^{n} \(q = {p**n}\): generator rank "
            rf"{rank} \({found}\) in \d+\.\d{{3}} s, "
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
            assert 1 - 2 * (e & 1) == euler_chi(p, n)[x.rank]


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
    # no memo outside a context holds one, and no context sits in a
    # reference cycle, so every table goes with its field as soon as the
    # census, the suite or the CLI call that built it returns, with the
    # cycle collector off; the twists suite's local caches go with its run
    refs = []

    def tracked(p, n=1):
        ctx = make_field(p, n)
        refs.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(verify_mod, "make_field", tracked)
    monkeypatch.setattr(cli, "make_field", tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        found = [len(census(tracked(p, n)).realizable) for p, n in ((1009, 1), (31, 2))]
        oks = [run_suite("norm", 3, 3).ok, run_suite("bridge", 7, 2).ok]
        oks += [run_suite(name, p, n).ok
                for name in ("twists", "etale") for p, n in ((3, 2), (13, 1))]
        codes = [cli.main([sub, "-p", "31", "-n", "2", "-a4", "1", "-a6", "2", "--json"])
                 for sub in ("hasse", "ptorsion")]
        assert all(found) and all(oks) and codes == [0, 0] and len(refs) == 10
        assert [ref() for ref in refs] == [None] * 10
    finally:
        if enabled:
            gc.enable()


def test_tables_refused_beyond_sweep_guard():
    # every field that can be built has its tables: the one size guard
    # refuses the field itself, before it reads the field table
    assert make_field(1021, 2).q == 1042441  # the largest p^2 below 2**20
    for args in ((1031, 2), (3, 13), (1048583,)):
        with pytest.raises(FieldTooLargeError, match=r"2\*\*20"):
            make_field(*args)


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
