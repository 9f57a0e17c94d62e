"""Every fast route of the package held to its one slow route, in one table.

AUDITS holds one row per (fast route, audit route) pair: the two routes,
by their names in src/hasseforms, or here for the element products with
no table (conv_mul, conv_pow) and the search that proves the field table
(lex_first_search, ben_or, resultant_norm); its ladders of cases, each
with the function that runs both routes on a case and yields (model or
slot, fast value, slow value); and one seeded fault, which corrupts the
fast route at one model or slot.  The private kernels of src/ are named
in tests only here and in their own unit tests; the row product is read
and written by slot only through row_counts and seed_count, and an A_p
row written only through seed_hasse.  Each kind of slow route is one
function: euler_counts for #E, walked_logs for logs, conv_mul and
conv_pow (coefficient tuples multiplied and reduced by poly's F_p
primitives) for element arithmetic, truncated_hasse for A_p,
lex_first_search for the field table, _is_irreducible_ints (trial
division) for irreducibility, _pow_mod_reference for powers modulo a
polynomial, _gcd_reference (plain Euclid) for gcds, and element_product
and element_value for polynomial arithmetic written out in FieldElement
arithmetic.  Each ladder is keyed by the test that runs it, module and
name: audit_tests(module) gives a module its ladders as tests.
"""

import pickle
import random
import sys
from collections import Counter
from contextlib import closing
from functools import cache, cached_property
from itertools import chain, count, islice, product, zip_longest
from math import isqrt, prod
from typing import NamedTuple

import pytest

from hasseforms import (census, discrete_log, find_curve_with_class, hasse_invariant,
                        iter_curves, make_field, norm_to_prime, phi, point_count, twist,
                        unit_class_of)
from hasseforms import curve, forms, gf, poly, search
from hasseforms.curve import WeierstrassCurve, discriminant_general
from hasseforms.errors import SingularModelError
from hasseforms.forms import UnitClass
from hasseforms.gf import FieldCtx, _is_prime
from hasseforms.poly import Polynomial
from hasseforms.search import ClassEntry, WitnessRecord


def row_counts(ctx, r2, r4):
    # #E at every a6 of the row by the rank of a6, off the row product,
    # which keeps a6 = g^lc at slot lc and a6 = 0 last (log[0] = -1)
    counts, log = curve._row_counts(ctx, r2, r4), ctx._log_tables[1]
    assert len(counts) == ctx.q and log[0] == -1
    return [counts[log[r6]] for r6 in range(ctx.q)]


def seed_count(mp, module, ranks, change=None):
    # module's row product, save that the model at ranks (a2, a4, a6) reads
    # change(count), else count moved towards q + 1; returns the true counts
    real, seen = module._row_counts, []

    def corrupted(ctx, r2, r4):
        counts = list(real(ctx, r2, r4))
        if (r2, r4) == ranks[:2]:
            at = ctx._log_tables[1][ranks[2]]
            seen.append(c := counts[at])
            counts[at] = change(c) if change else c + (1 if c < ctx.q + 1 else -1)
        return counts
    mp.setattr(module, "_row_counts", corrupted)
    return seen


def seed_hasse(mp, module, ranks, change, read=None):
    # module's A_p rows, save that the entry at ranks (a2, a4, a6) reads
    # change(A_p) at every read, or its read-th alone; returns the true values
    real, seen = module._row_hasse, []

    class Row(list):
        def __getitem__(self, r6):
            a = super().__getitem__(r6)
            if r6 != ranks[2]:
                return a
            seen.append(a)
            return change(a) if read in (None, len(seen)) else a

        def __iter__(self):
            return map(self.__getitem__, range(len(self)))
    mp.setattr(module, "_row_hasse", lambda ctx, r2, r4: Row(real(ctx, r2, r4))
               if (r2, r4) == ranks[:2] else real(ctx, r2, r4))
    return seen


@cache
def prime_field(p):
    return make_field(p)


def mulmod(a, b, m, p):
    # a * b mod the monic m over F_p, on value lists low degree first, by
    # poly's F_p product and long division
    fp = prime_field(p)
    return poly._divmod(poly._mul_trunc(a, b, fp), m, fp)[1]


def conv_mul(ctx, a, b):
    # the product of two coefficient tuples of ctx mod its modulus, with no
    # table; F_p is F_p[t]/(t), so prime fields reduce by t
    r = mulmod(a, b, ctx.modulus or (0, 1), ctx.p)
    return tuple(r) + (0,) * (ctx.n - len(r))


def conv_pow(ctx, a, e):
    return gf._power(a, e, lambda x, y: conv_mul(ctx, x, y), (1,) + (0,) * (ctx.n - 1))


@cache
def euler_chi(p, n):
    # chi by rank: Euler's criterion on the convolution route, no table
    ctx = make_field(p, n)
    one, half = ctx.one.coeffs, (ctx.q - 1) // 2
    return [0] + [1 if conv_pow(ctx, ctx._tuple_from_rank(r), half) == one else -1
                  for r in range(1, ctx.q)]


def _h(ctx, r2, r4):
    # h(x) = x^3 + a2 x^2 + a4 x at every x, by rank
    add, mul = ctx._add, ctx._mul
    return [mul(add(mul(add(x, r2), x), r4), x) for x in range(ctx.q)]


def euler_counts(ctx, r2, r4, r6s):
    # #E at each a6 of r6s on the row, singular models too: one point at
    # infinity and 1 + chi(h(x) + a6) at each x
    chi, add, mult = euler_chi(ctx.p, ctx.n), ctx._add, Counter(_h(ctx, r2, r4))
    return [1 + sum(m * (1 + chi[add(h, r6)]) for h, m in mult.items()) for r6 in r6s]


@cache
def walked_logs(p, n):
    # (exp, log): the powers of the generator walked on the convolution
    # route, and the exponent of each rank, -1 at zero
    ctx = make_field(p, n)
    exp, x, g, log = [], ctx.one.coeffs, ctx.generator.coeffs, [-1] * ctx.q
    for e in range(ctx.q - 1):
        exp.append(ctx._rank(x))
        log[exp[-1]], x = e, conv_mul(ctx, x, g)
    return exp, log


def _walked_hist(ctx, r2, r4):
    # M[u] = #{x != 0 : log h(x) = u} off the walked logs; x = 0 is rank 0
    log, want = walked_logs(ctx.p, ctx.n)[1], [0] * (ctx.q - 1)
    for h in filter(None, _h(ctx, r2, r4)[1:]):
        want[log[h]] += 1
    return want


def hasse_row_at(ctx, r2, r4, r6s):
    # A_p at each a6 of r6s off the row's closed form, P(a6) a6^k
    return curve._hasse_at(ctx, *curve._hasse_row(ctx, r2, r4), r6s)


def truncated_hasse(ctx, r2, r4, r6, size):
    # the coefficient of x^(size-1) in f^((size-1)/2) by rank: A_p at size
    # p, A_q at size q
    f = Polynomial.from_ranks(ctx, [r6, r4, r2, ctx.one.rank])
    return f.pow_truncated((size - 1) // 2, size - 1)[size - 1].rank


def object_residue(c):
    # 0 when supersingular, else phi([A_p]) of a built curve: beta mod p
    a = hasse_invariant(c)
    return int(phi(unit_class_of(a))) if a else 0


def built_or_none(ctx, r2, r4, r6):
    # the model with these ranks, None where the constructor refuses it
    try:
        return WeierstrassCurve(ctx, ctx.from_rank(r4), ctx.from_rank(r6), ctx.from_rank(r2))
    except SingularModelError:
        return None


def all_rows(ctx, slabs=None):
    # (a2, a4) of every row, a2 != 0 only in characteristic 3, or of slabs
    r2s = range(ctx.q if ctx.p == 3 else 1) if slabs is None else slabs
    return [(r2, r4) for r2 in r2s for r4 in range(ctx.q)]


def _discriminant(p, n):
    # the row evaluator at every a6, and the constructor, which refuses a
    # model exactly where the generic formula vanishes
    ctx = make_field(p, n)
    els = list(ctx.iter_elements())
    for r2, r4 in all_rows(ctx):
        row = curve._disc_at(ctx, curve._disc_row(ctx, r2, r4), range(ctx.q))
        for r6, a6 in enumerate(els):
            built = built_or_none(ctx, r2, r4, r6)
            want = discriminant_general(els[r2], els[r4], a6).rank
            yield (r2, r4, r6), (row[r6], built and built.discriminant.rank), (want, want or None)


# (level-p, level-q) strides where truncated powering of large p or q is slow
_STRIDES = {(5, 2): (1, 7), (7, 2): (1, 29), (3, 3): (1, 13), (13, 2): (7, 499)}


def _hasse_invariant(p, n):
    # both levels: _hasse_one over F_p, p >= 5; A_3 = a2; Horner on logs with
    # Zech steps over F_q, through a4 = 0 (zero low coefficients folded into
    # k), a6 = 0, the char-3 a2 slabs and at 13^2 a P of degree 1, k = 2
    ctx = make_field(p, n)
    for i, c in enumerate(iter_curves(ctx)):
        for level, size, stride in zip("pq", (p, ctx.q), _STRIDES.get((p, n), (1, 1))):
            if i % stride == 0:
                want = truncated_hasse(ctx, c.a2.rank, c.a4.rank, c.a6.rank, size)
                yield (i, level), curve.hasse_invariant(c, level).rank, want


def _row_counts(p, n):
    # every row, a6 = 0 included: point_count on each nonsingular model and
    # Euler's criterion on the singular ones; over F_3^4 the a2 slabs 0, 1,
    # 2, 27, 54 and 80
    ctx = make_field(p, n)
    els, singular_rows = list(ctx.iter_elements()), 0
    for r2, r4 in all_rows(ctx, (0, 1, 2, 27, 54, 80) if (p, n) == (3, 4) else None):
        d = curve._disc_row(ctx, r2, r4)
        singular_rows += not any(d)
        discs = curve._disc_at(ctx, d, range(ctx.q))
        singular = [r6 for r6, disc in enumerate(discs) if not disc]
        want = dict(zip(singular, euler_counts(ctx, r2, r4, singular)))
        for r6, disc in enumerate(discs):
            if disc:
                model = WeierstrassCurve._unchecked(ctx, els[r2], els[r4], els[r6], els[disc])
                want[r6] = point_count(model).count
        yield (r2, r4), row_counts(ctx, r2, r4), [want[r6] for r6 in range(ctx.q)]
    assert singular_rows == (p == 3)  # only a2 = a4 = 0 in characteristic 3


def _row_hist(p, n):
    # [M] alone until the row's first count at a6 != 0, which adds the
    # planes holding bit 0 and bit 1 of M[u] at bit u
    ctx = make_field(p, n)
    for r2, r4 in all_rows(ctx):
        want, row = _walked_hist(ctx, r2, r4), curve._row_hist(ctx, r2, r4)
        fresh = [list(m) for m in row]
        curve._count_at(ctx, r2, r4, ctx.one.rank)
        planes = [sum((m >> b & 1) << u for u, m in enumerate(want)) for b in (0, 1)]
        yield (r2, r4), (fresh, list(row[0]), *row[1:]), ([want], want, *planes)


def _row_memos(fields):
    # every row of two fields, shuffled and interleaved: _log_hist shares
    # a char-3 slab's x side (_x_logs, keyed on (ctx, a2)), _row_hasse a
    # closed form's table (_hasse_table, keyed on (ctx, k, coeffs)); a memo
    # keyed on less than its table depends on hands a row another's table
    rng, walks = random.Random(0), []
    for p, n in fields:
        ctx = make_field(p, n)
        rows = all_rows(ctx)
        rng.shuffle(rows)
        walks.append([(ctx, row) for row in rows])
    for ctx, (r2, r4) in filter(None, chain.from_iterable(zip_longest(*walks))):
        got = list(curve._log_hist(ctx, r2, r4)), list(curve._row_hasse(ctx, r2, r4))
        hasse = hasse_row_at(ctx, r2, r4, range(ctx.q))
        yield (ctx.q, r2, r4), got, (_walked_hist(ctx, r2, r4), hasse)


def _count_at(p, n):
    # every a6 of every row, past q = 49 of a4 = 0, 1, g on a2 = 0 (and 1,
    # g in characteristic 3), singular models included; the slot where Y is
    # 1, the x with h(x) = -a6, is read nonzero on both sides of the wrap of
    # its index (q - 1)/2 + lc, and lc runs over the mask's whole rotation
    ctx = make_field(p, n)
    order, log, wrapped = ctx.q - 1, ctx._log_tables[1], set()
    few = (0, ctx.one.rank, ctx.generator.rank)
    rows = all_rows(ctx) if ctx.q <= 49 else [(r2, r4) for r2 in few[:1 + 2 * (p == 3)]
                                           for r4 in few]
    for r2, r4 in rows:
        hist = curve._row_hist(ctx, r2, r4)[0]
        got = [curve._count_at(ctx, r2, r4, r6) for r6 in range(ctx.q)]
        yield (r2, r4), got, euler_counts(ctx, r2, r4, range(ctx.q))
        wrapped.update(order // 2 + log[r6] >= order for r6 in range(1, ctx.q)
                       if hist[(order // 2 + log[r6]) % order])
    assert wrapped == {False, True}


def _zech_y(p, n):
    # Y[t] = 1 - chi(1 + g^t): 1 where 1 + g^t = 0, else 0 or 2 by the
    # parity of the Zech logarithm, and chi by Euler's criterion
    ctx = make_field(p, n)
    chi, exp, one = euler_chi(p, n), walked_logs(p, n)[0], ctx.one.rank
    y = list(curve._zech_y(ctx))
    yield ctx, (y, y), ([1 if z < 0 else 2 * (z & 1) for z in ctx._log_tables[2]],
                        [1 - chi[ctx._add(one, g_t)] for g_t in exp])


def _row_hasse(p, n):
    # every model, a6 = 0 included: a4 = 0, where zero low coefficients of
    # P fold into k (at 13 and 13^2, two terms elsewhere, and p = 5, where P
    # folds away), the char-3 a2 slabs, and logs with k > 0 at 7^2 and 13^2
    ctx, folded = make_field(p, n), False
    for c in iter_curves(ctx):
        r2, r4, r6 = c.a2.rank, c.a4.rank, c.a6.rank
        row, (k, coeffs) = curve._row_hasse(ctx, r2, r4), curve._hasse_row(ctx, r2, r4)
        assert len(row) == ctx.q and all(coeffs)  # the log route has no zero coefficient
        folded |= r4 == 0 and k > curve._hasse_row(ctx, r2, ctx.one.rank)[0]
        yield (r2, r4, r6), row[r6], hasse_invariant(c).rank
    assert folded == (p in (5, 13))


def _hasse_at(p, n):
    # a shuffled sample of a6 on every row, with 0 and the discriminant
    # roots: A_p is a polynomial in the coefficients, singular or not
    ctx, rng = make_field(p, n), random.Random(p**n)
    for r2, r4 in all_rows(ctx):
        roots = curve._singular_a6(ctx, curve._disc_row(ctx, r2, r4))
        r6s = list({0, *roots, *rng.sample(range(ctx.q), ctx.q // 2)})
        rng.shuffle(r6s)
        got = hasse_row_at(ctx, r2, r4, r6s)
        yield (r2, r4), got, [truncated_hasse(ctx, r2, r4, r6, p) for r6 in r6s]


def _hasse_one(p, seeded=False):
    # every (a4, a6), singular ones too, at primes of both residues mod 3
    # and 4, so a4 = 0 and a6 = 0 leave one term or none both ways; seeded, a
    # few rows: no term at a4 = 0 for 65537 = 2 mod 3, one for 1048573
    ctx, rng = make_field(p), random.Random(p)
    rows = [(a4, range(p)) for a4 in range(p)] if not seeded else [
        (a4, [0, 1] + [rng.randrange(2, p) for _ in range(3)])
        for a4 in (0, 1, rng.randrange(2, p))]
    for a4, a6s in rows:
        want = hasse_row_at(ctx, 0, a4, a6s)
        yield a4, [curve._hasse_one(p, a4, a6) for a6 in a6s], want


def _mestre(p, sample="every"):
    # every model of the first prime past Mestre's bound; every a6 at a few
    # a4 and back at 233 = 1 mod 8 (three Tonelli-Shanks squarings); a few
    # rows, seeded, against point_count too; j = 0 and 1728 at a4, a6 = 0
    assert p > curve._MESTRE_P
    ctx, rng = make_field(p), random.Random(p)
    if sample == "every":
        models = [(a4, a6) for a4 in range(p) for a6 in range(p)]
    elif sample == "crossed":
        few = {0, 1, *rng.sample(range(2, p), 3)}
        models = sorted({(a4, a6) for a4 in range(p) for a6 in few}
                        | {(a4, a6) for a4 in few for a6 in range(p)})
    else:
        models = [(a4, a6) for a4 in (0, 1, rng.randrange(2, p))
                  for a6 in [0, 1] + [rng.randrange(2, p) for _ in range(3)]]
    nonsingular = [(a4, a6) for a4, a6 in models if (4 * a4**3 + 27 * a6 * a6) % p]
    assert sample != "every" or len(nonsingular) == p * p - p
    for a4, a6 in nonsingular:
        got, want = curve._count_mestre(p, a4, a6), curve._count_at(ctx, 0, a4, a6)
        if sample == "seeded":
            got, want = (got, point_count(WeierstrassCurve(ctx, a4, a6)).count), (want, want)
        yield (a4, a6), got, want


def _twist_kinds(p, n):
    # the kinds on ranks (a6 = 0 for j = 1728, a4 = 0 for j = 0, none in
    # characteristic 3) against those the j-invariant picks
    ctx = make_field(p, n)
    for c, j in ((c, c.j_invariant) for c in iter_curves(ctx)):
        by_j = ("quadratic",) + ("quartic",) * (j == ctx(1728) and p % 4 == 1) \
            + ("sextic",) * (not j and p % 3 == 1)
        yield c, curve._twist_kinds(ctx, c.a4.rank, c.a6.rank), by_j


def _twist_scales(p, n):
    # every model, d != 0 and kind that applies: the rank scales against
    # twist()'s coefficients and the twist rule in FieldElement arithmetic
    ctx, seen = make_field(p, n), set()
    mul, zero = ctx._mul, ctx.zero
    for c in iter_curves(ctx):
        a2, a4, a6 = c.a2, c.a4, c.a6
        for d, kind in [(d, kind) for d in list(ctx.iter_elements())[1:]
                        for kind in curve._twist_kinds(ctx, a4.rank, a6.rank)]:
            s2, s4, s6, sd = curve._twist_scales(ctx, d.rank, kind)
            ranks, t = (mul(s2, a2.rank), mul(s4, a4.rank), mul(s6, a6.rank)), twist(c, d, kind)
            rule = {"quadratic": (d * a2, d * d * a4, d * d * d * a6),
                    "quartic": (zero, d * a4, zero), "sextic": (zero, zero, d * a6)}[kind]
            yield ((c, d, kind), (ranks, ranks, mul(sd, c.discriminant.rank)),
                   ((t.a2.rank, t.a4.rank, t.a6.rank), tuple(x.rank for x in rule),
                    t.discriminant.rank))
            seen.add(kind)
    assert seen == {k for k, m in (("quadratic", 2), ("quartic", 4), ("sextic", 6)) if p % m == 1}


def _coeffwise(ctx, a, b, sign=1):
    return tuple((x + sign * y) % ctx.p for x, y in zip(a, b))


def _table_arithmetic(p, n):
    # every rank kernel on every operand pair against the convolution route
    ctx = make_field(p, n)
    tup, q, zero = ctx._tuple_from_rank, ctx.q, (0,) * n
    exps = (0, 1, 2, 3, 7, (q - 1) // 2, q - 2, q - 1, q, 3 * q + 5)
    for a, ta in ((a, tup(a)) for a in range(q)):
        yield a, (ctx._rank(ta), tup(ctx._neg(a)), [tup(ctx._pow(a, e)) for e in exps],
                  a and tup(ctx._inv(a))), \
            (a, _coeffwise(ctx, zero, ta, -1), [conv_pow(ctx, ta, e) for e in exps],
             a and conv_pow(ctx, ta, q - 2))
        for b, tb in ((b, tup(b)) for b in range(q)):
            yield (a, b), (tup(ctx._mul(a, b)), tup(ctx._add(a, b)), tup(ctx._sub(a, b))), \
                (conv_mul(ctx, ta, tb), _coeffwise(ctx, ta, tb), _coeffwise(ctx, ta, tb, -1))
    with pytest.raises(ZeroDivisionError):
        ctx._inv(0)


def _log_tables(p, n):
    # exp, log and Zech, zech[e] = log(1 + g^e) added coefficientwise;
    # (3, 6) to (31, 2) run from one scaled block of walked powers (p = 3)
    # to 29, and over F_p exp is one int walk
    ctx = make_field(p, n)
    exp, log = walked_logs(p, n)
    assert sorted(exp) == list(range(1, ctx.q))  # the generator generates
    one, tup = ctx.one.coeffs, ctx._tuple_from_rank
    zech = [log[ctx._rank(_coeffwise(ctx, one, tup(r)))] for r in exp]
    for name, got, want in zip(("exp", "log", "zech"), ctx._log_tables, (exp, log, zech)):
        yield name, list(got), want


def _point_count(p, n):
    # every model up to 1000 of them, else a fixed stride through
    # (a2, a4, a6); a2 != 0 only in characteristic 3
    ctx = make_field(p, n)
    total = (ctx.q if p == 3 else 1) * ctx.q * ctx.q
    step, seen = 1 if total <= 1000 else total // 300 + 1, 0
    for idx in range(0, total, step):
        r2, r4, r6 = idx // ctx.q**2, idx // ctx.q % ctx.q, idx % ctx.q
        if (c := built_or_none(ctx, r2, r4, r6)) is not None:
            seen += 1
            yield (r2, r4, r6), point_count(c).count, euler_counts(ctx, r2, r4, [r6])[0]
    assert seen > total // step // 2


def _point_count_interleaved():
    # F_9, F_25 and two equal F_27 objects share ranks; interleaved, every
    # count changes context or row (a2 != 0, a4 = 0, a4 = -1 where h has the
    # root 1, a6 = 0), and a context's one row-histogram slot is rebuilt
    # exactly where its own rows change, whatever the others did between
    fields = [make_field(3, 2), make_field(5, 2), make_field(3, 3), make_field(3, 3)]
    assert fields[3] is not fields[2] and fields[3] == fields[2]
    per_field = [[c for r2 in ((0, 1, k.q - 1) if k.p == 3 else (0,))
                  for r4 in (0, 1, k._neg(k.one.rank), k.q - 1)
                  for r6 in (0, k.one.rank, 2, k.q - 1) if (c := built_or_none(k, r2, r4, r6))]
                 for k in fields]
    models = sum(per_field, [])
    assert any(not c.a6 for c in models) and any(c.a2 for c in models)
    assert any(sum(curve._row_hist(c.ctx, c.a2.rank, c.a4.rank)[0]) < c.ctx.q - 1
               for c in models)  # h has a root besides x = 0
    steps = list(zip(*per_field))
    for order, ran in ((steps, [cs[:len(steps)] for cs in per_field]), (per_field, per_field)):
        want = []
        for k, cs in zip(fields, ran):
            rows = [(slot := k._memo.get("_row_hist")) and slot[0]]
            rows += [(c.a2.rank, c.a4.rank) for c in cs]
            want.append(sum(a != b for a, b in zip(rows, rows[1:])))
        before = [k._builds["_row_hist"] for k in fields]
        for c in chain.from_iterable(order):
            r = c.a2.rank, c.a4.rank, c.a6.rank
            yield (c.ctx.q, *r), point_count(c).count, euler_counts(c.ctx, *r[:2], r[2:])[0]
        assert [k._builds["_row_hist"] - b for k, b in zip(fields, before)] == want
    assert len(steps) > 10 and sum(want) < len(models) and want[3] > 0


def _discrete_log(p, n=1):
    # every log, power of g and class representative over two turns: off
    # Pohlig-Hellman and int powers over F_p, with no table read even where
    # the context holds them, and off the tables, each read recorded, over F_q
    ctx = make_field(p, n)
    (exp, log), g, order, reads = walked_logs(p, n), ctx.generator.rank, ctx.q - 1, []

    class Recorded:
        # a table whose only access is an index read, which is recorded;
        # iteration and `in` go through it, anything else raises
        def __init__(self, table):
            self.table = table

        def __getitem__(self, i):
            reads.append(i)
            return self.table[i]

    vars(ctx)["_log_tables"] = tuple(map(Recorded, ctx._log_tables))
    for a in range(1, ctx.q):
        got = discrete_log(ctx.from_rank(a))
        yield a, (got, gf._pohlig_hellman(g, a, p) if n == 1 else got), (log[a], log[a])
    for e in range(-1, 2 * order):
        got = (ctx.generator ** e).rank, UnitClass(ctx, e).rep.rank
        yield e, got, (exp[e % order], exp[e % (p - 1)])
    assert bool(reads) == (n > 1)


def _class_residues(p, n):
    # phi(g^e) = g^(eN) off the exp table against phi on class objects;
    # over F_p, where phi is the identity, the table is the exp table itself
    ctx = make_field(p, n)
    assert n > 1 or forms._class_residues(ctx) is ctx._log_tables[0]
    yield ctx, list(forms._class_residues(ctx)), [int(phi(UnitClass(ctx, e)))
                                                  for e in range(p - 1)]


def _search(p, n):
    # the exhaustive sweep on ranks against every built curve in order: the
    # first model of each class, None where there is none (9 over F_19,
    # 10..13 over F_23)
    ctx = make_field(p, n)
    for h in range(1, p):
        want = next((c for c in iter_curves(ctx) if object_residue(c) == h), None)
        got = find_curve_with_class(ctx, h, use_trace_shortcut=False)
        yield h, (got, repr(got)), (want, repr(want))


def _census_records(p, n):
    # built from their field tuples with no constructor call, the records
    # are the constructed ones in type, value and pickle
    for entry in census(make_field(p, n)).entries:
        for rec, cls in ((entry, ClassEntry), (entry[1], WitnessRecord)):
            if rec is not None:
                built = cls(*rec)
                yield (entry[0], cls), (type(rec), rec, pickle.dumps(rec)), \
                    (cls, built, pickle.dumps(built))


def _census_witnesses(p, n):
    # each witness is the first model of its class by the exhaustive sweep,
    # which the shortcut search finds too
    ctx = make_field(p, n)
    for h, w in census(ctx).entries:
        slow = find_curve_with_class(ctx, h, use_trace_shortcut=False)
        assert w is not None and slow is not None
        yield h, ((w.a2, w.a4, w.a6), find_curve_with_class(ctx, h)), \
            ((slow.a2.coeffs, slow.a4.coeffs, slow.a6.coeffs), slow)


def _monomial_row(ctx, row):
    # True when A_p = c a6^k on the row's (ranks, A_p) models for some c != 0
    # and k >= 1, by discrete logs: log A_p - k log a6 is one constant, with
    # k read off two models at consecutive logs of a6 (a row misses at most
    # the two a6 where its discriminant vanishes)
    order, logs = ctx.q - 1, {}
    for (_, _, r6), a in row:
        if bool(a) != bool(r6):
            return False
        if r6:
            logs[discrete_log(ctx.from_rank(r6))] = discrete_log(a)
    e = next((e for e in logs if (e + 1) % order in logs), None)
    k = e is not None and (logs[(e + 1) % order] - logs[e]) % order
    return k > 0 and len({(la - k * e6) % order for e6, la in logs.items()}) == 1


def _rank_scan(p, n):
    # the scan's rules on built curves, every row at weight 1: a row of one
    # A_p (A_3 = a2, A_5 = 2 a4, A_p = 0 at a4 = 0, p = 2 mod 3) keeps its
    # first model, a row of A_p = c a6^k, k >= 1 (2 over F_13, 3 over F_19, 1
    # over F_7^2 and F_11^2) stops once its residues are all hit; the rest
    # read whole, by the row product over F_p and by blocks of _hasse_at
    # over F_q, past the first block of 64 at q = 121 and 289
    ctx, want = make_field(p, n), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_row_orbits",
                   lambda ctx: [(r2, r4, 1) for r2, r4, _, _ in search._iter_rows(ctx)])
        got = list(search._classified(ctx))
    for r2, r4 in all_rows(ctx):
        row = [(t, hasse_invariant(c)) for t in ((r2, r4, r6) for r6 in range(ctx.q))
               if (c := built_or_none(ctx, *t))]
        keep = [(*t, int(phi(unit_class_of(a))) if a else 0)
                for t, a in (row[:1] if len({a.rank for _, a in row}) == 1 else row)]
        if _monomial_row(ctx, row):
            reach, seen = {r for *_, r in keep if r}, set()
            for cut, (*_, r) in enumerate(keep, 1):
                seen.add(r)
                if seen >= reach:
                    keep = keep[:cut]
                    break
        want += keep
    yield ctx, got, want


def _census_objects(p, n):
    # each witness, checked by the census on ranks, built and recomputed
    # through the curve and class objects
    ctx = make_field(p, n)
    for h, w in (entry for entry in census(ctx).entries if entry.witness):
        c = WeierstrassCurve(ctx, ctx(w.a4), ctx(w.a6), ctx(w.a2))
        cls, fd = unit_class_of(hasse_invariant(c)), point_count(c)
        yield h, (w.class_exp, w.phi, w.count, w.beta, w.phi), \
            (cls.exp, int(phi(cls)), fd.count, fd.beta, h)


def _is_irreducible_ints(f, p):
    # trial division of the monic value list f over F_p by every monic
    # divisor of degree up to half its own
    fp = prime_field(p)
    return all(poly._divmod(list(f), [r // p**i % p for i in range(d)] + [1], fp)[1]
               for d in range(1, (len(f) - 1) // 2 + 1) for r in range(p**d))


def ben_or(f, p):
    """Ben-Or's test of a monic value list f of degree n over F_p (Proc.
    22nd FOCS, 1981): f is irreducible iff gcd(f, x^(p^i) - x) = 1 for
    1 <= i <= n/2.  Round i = 1 is the root test.  x^(p^i) mod f starts
    from the power of x read off the top bits of p^i, of degree below 2n,
    then squares along the low bits, times x on each set bit: h * (x h)
    there."""
    n, fp = len(f) - 1, prime_field(p)
    for i in range(1, n // 2 + 1):
        e = p**i
        low = max(0, e.bit_length() - n.bit_length())
        h = poly._divmod([0] * (e >> low) + [1], f, fp)[1]
        for b in range(low - 1, -1, -1):
            h = mulmod(h, [0] * (e >> b & 1) + h, f, p)
        h += [0] * (2 - len(h))
        h[1] = (h[1] - 1) % p
        while h and not h[-1]:
            h.pop()
        if len(poly._gcd(list(f), h, fp)) > 1:
            return False
    return True


def resultant_norm(a, m, p):
    """The norm of a nonzero value list a mod the monic irreducible m over
    F_p, as the resultant Res(m, a) (Cohen, GTM 138, 3.3) by Euclid: with
    A monic, Res(A, B) = (-1)^(deg A deg B) lead(B)^(deg A) Res(B/lead(B),
    A mod B)."""
    res, A, B, fp = 1, m, list(a), prime_field(p)
    while not B[-1]:
        B.pop()
    while True:
        c, dA, dB = B[-1], len(A) - 1, len(B) - 1
        res = res * pow(c, dA, p) % p
        if not dB:
            return res
        if dA & dB & 1:
            res = -res % p
        B = poly._monic(B, fp)
        A, B = B, poly._divmod(list(A), B, fp)[1]


def lex_first_search(p, n):
    """(m, g) of F_p^n, n >= 2, by a search in lex order: m the first monic
    irreducible of degree n by Ben-Or's test, from rank p^(n-1) since
    lower ranks have constant term 0, and g the rank of the first element
    of order q - 1 modulo m.  x generates iff x^((q-1)/l) != 1 for every
    prime l | q - 1.  With N = (q-1)/(p-1) the norm c = x^N lies in F_p
    (Lidl and Niederreiter, ch. 2), and (q-1)/l = N (p-1)/l, so for
    l | p - 1 the test reads c^((p-1)/l) != 1 on c = Res(m, x); for the
    other l | N it reads x^(N/l) not in F_p, a residue of degree above 0."""
    weights = [p ** (n - 1 - i) for i in range(n)]

    def digits(rank):
        return [rank // w % p for w in weights]
    m = next(f for f in (digits(r) + [1] for r in count(weights[0])) if ben_or(f, p))
    norm_exp = (p**n - 1) // (p - 1)
    small = [(p - 1) // ell for ell, _ in gf._factor_int(p - 1)]
    large = [norm_exp // ell for ell, _ in gf._factor_int(norm_exp) if (p - 1) % ell]

    def generates(rank):
        x = digits(rank)
        c = resultant_norm(x, m, p)
        return (all(pow(c, e, p) != 1 for e in small)
                and all(len(gf._power(x, e, lambda a, b: mulmod(a, b, m, p), [1])) > 1
                        for e in large))
    return m, next(filter(generates, count(1)))


def _pow_mod_reference(base, e, mod):
    # base^e mod mod by square-and-multiply on Polynomial with %, never
    # through the residue ring
    result, base = Polynomial(base.ctx, (1,)), base % mod
    while e:
        if e & 1:
            result = result * base % mod
        base, e = base * base % mod, e >> 1
    return result


def _gcd_reference(f, g):
    # the monic gcd by plain Euclid on Polynomial with %
    while g:
        f, g = g, f % g
    return f.monic()[1]


def element_value(f, x):
    # f(x) by Horner's rule in FieldElement arithmetic
    acc = x.ctx.zero
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def element_product(ctx, f, g):
    # the product of two coefficient sequences over ctx in FieldElement
    # arithmetic
    total = [ctx.zero] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            total[i + j] = total[i + j] + fi * gj
    return total


def monic_polys(ctx, degree):
    # every monic polynomial of the degree over ctx, in rank order
    q = ctx.q
    for r in range(q**degree):
        yield Polynomial.from_ranks(ctx, [r // q**i % q for i in range(degree)] + [ctx.one.rank])


def _residue(ring, a):
    # a residue of the ring as a Polynomial, from its rank list
    return Polynomial.from_ranks(ring.ctx, ring.poly(a))


def _ben_or(p, degrees):
    # Ben-Or's test on every monic f of the degrees over F_p
    for f in (free + (1,) for n in degrees for free in product(range(p), repeat=n)):
        yield f, ben_or(f, p), _is_irreducible_ints(f, p)


def _field_table():
    # every entry, as the modulus and generator a context reads, against
    # the lex-first search
    for p, n in GUARD_EXTENSIONS:
        ctx, (m, g) = make_field(p, n), lex_first_search(p, n)
        yield (p, n), (ctx.modulus, ctx.generator.rank), (tuple(m), g)


def _find_modulus(p, n):
    # the first irreducible from lex rank 0, constant term most
    # significant, with no block of candidates skipped
    cands = (tuple(r // p ** (n - 1 - i) % p for i in range(n)) + (1,) for r in range(p**n))
    yield (p, n), make_field(p, n).modulus, next(f for f in cands if _is_irreducible_ints(f, p))


def _divmod_fp(p):
    # a = quo * b + rem with deg rem < deg b, both stripped and reduced,
    # for seeded value lists and divisors of degree 0 to 8, monic and not;
    # the coefficients are drawn from 0, 1 and p - 1 half the time
    rng, monic, fp = random.Random(p), 0, prime_field(p)

    def coeff():
        return rng.choice((0, 1, p - 1)) if rng.random() < 0.5 else rng.randrange(p)

    for _ in range(300):
        lead = rng.choice((1, p - 1, rng.randrange(1, p)))
        b = [coeff() for _ in range(rng.randrange(9))] + [lead]
        a = [coeff() for _ in range(rng.randrange(16))]
        while a and not a[-1]:
            a.pop()
        monic += lead == 1
        quo, rem = poly._divmod(list(a), b, fp)
        got = poly._mul_trunc(quo, b, fp, len(a) - 1) if quo else [0] * len(a)
        for i, c in enumerate(rem):
            got[i] = (got[i] + c) % p
        yield (a, b), (got, len(rem) < len(b), len(quo), all(0 <= c < p for c in quo + rem),
                       [0] not in (quo[-1:], rem[-1:])), \
            (a, True, max(0, len(a) - len(b) + 1), True, True)
    assert 0 < monic < 300


def _factor_int():
    # every m <= 10^4 against a sieve, and seeded m < 2^21 against trial
    # division: ascending primes, positive exponents, product m
    top = 10**4
    smallest = list(range(top + 1))
    for f in range(2, isqrt(top) + 1):
        for k in range(f * f, top + 1, f):
            smallest[k] = min(smallest[k], f)
    for m in range(1, top + 1):
        want, rest = [], m
        while rest > 1:
            f, k = smallest[rest], 0
            while rest % f == 0:
                rest, k = rest // f, k + 1
            want.append((f, k))
        yield m, gf._factor_int(m), tuple(want)
    rng = random.Random(2**21)
    for m in [rng.randrange(1, 2**21) for _ in range(300)] + [2**20, 1048343 - 1, 1048573 - 1]:
        pairs = gf._factor_int(m)
        primes = [f for f, _ in pairs]
        yield m, (primes, all(k > 0 for _, k in pairs), prod(f**k for f, k in pairs),
                  all(all(f % d for d in range(2, isqrt(f) + 1)) for f in primes)), \
            (sorted(set(primes)), True, m, True)


def _resultant_norm(p, n):
    # the resultant against x^((q-1)/(p-1)) in table arithmetic
    ctx = make_field(p, n)
    for x in islice(ctx.iter_elements(), 1, None):
        yield x, resultant_norm(x.coeffs, ctx.modulus, p), int(norm_to_prime(x))


def _generator_rank(p, n):
    # the order test on coefficient tuples, x^((q-1)/l) != 1 for every
    # prime l | q - 1, with no norm and no subfield shortcut
    ctx = make_field(p, n)
    order, one = ctx.q - 1, ctx.one.coeffs
    primes = [ell for ell in range(2, order + 1) if order % ell == 0 and _is_prime(ell)]
    yield ctx, ctx.generator.rank, next(
        r for r in range(1, ctx.q)
        if all(conv_pow(ctx, ctx._tuple_from_rank(r), order // ell) != one for ell in primes))


def _power():
    # the one square-and-multiply, on ints mod p, against pow; at e = 0 it
    # returns the identity and never calls mul; and under any associative
    # mul, strings under concatenation
    p, x, calls = 1048573, 12345, []

    def mul(a, b):
        calls.append((a, b))
        return a * b % p

    for e in list(range(65)) + [2**200 + 12345]:
        yield e, gf._power(x, e, mul, 1), pow(x, e, p)
    calls.clear()
    yield 0, (gf._power(x, 0, mul, "one"), calls), ("one", [])
    yield "ab", gf._power("ab", 5, str.__add__, ""), "ab" * 5


def _rank_kernels(p, n):
    # divmod, evaluate, derivative, * and pow_truncated, which run on int
    # lists over F_p and on the rank kernels over F_q with n > 1, against
    # FieldElement arithmetic: coefficient by coefficient, and by Horner's
    # rule at every point of a field of at most 101 elements, at seeded
    # points of larger ones.  The densest operands have every coefficient
    # p - 1 up to degree 40
    ctx = make_field(p, n)
    rng = random.Random(ctx.q)
    points = (list(ctx.iter_elements()) if ctx.q <= 101
              else [ctx.from_rank(rng.randrange(ctx.q)) for _ in range(16)])

    def random_poly(degree):
        low = [ctx.from_rank(rng.randrange(ctx.q)) for _ in range(degree)]
        return Polynomial(ctx, low + [ctx.from_rank(rng.randrange(1, ctx.q))])

    top = Polynomial.from_ranks(ctx, [ctx.q - 1] * 41)
    pairs = [(random_poly(rng.randrange(12)), random_poly(rng.randrange(6))) for _ in range(40)]
    pairs += [(top, top), (top * random_poly(3), top), (random_poly(40), top), (top, random_poly(7))]
    for k, (a, b) in enumerate(pairs):
        quo, rem = divmod(a, b)
        total = element_product(ctx, quo.coeffs, b.coeffs) + [ctx.zero]
        for i, ri in enumerate(rem.coeffs):
            total[i] = total[i] + ri
        yield (k, "divmod"), (Polynomial(ctx, total), rem.degree < b.degree), (a, True)
        ab, d = a * b, a.derivative()
        yield (k, "*"), ab, Polynomial(ctx, element_product(ctx, a.coeffs, b.coeffs))
        yield (k, "points"), [(element_value(quo, x) * element_value(b, x) + element_value(rem, x),
                               element_value(ab, x), a.evaluate(x)) for x in points], \
            [(v, v * element_value(b, x), v) for x, v in ((x, element_value(a, x)) for x in points)]
        yield (k, "derivative"), (d, d.degree < a.degree), \
            (Polynomial(ctx, [(i + 1) * a[i + 1] for i in range(a.degree)]), True)
        for e in (2, 3) if k % 4 == 0 or a == top else ():
            full = [ctx.one]
            for _ in range(e):
                full = element_product(ctx, full, a.coeffs)
            got, cap = a.pow_truncated(e, e * a.degree), rng.randrange(e * a.degree + 1)
            yield (k, e), (got, [element_value(got, x) for x in points], a.pow_truncated(e, cap)), \
                (Polynomial(ctx, full), [element_value(a, x) ** e for x in points],
                 Polynomial(ctx, full[:cap + 1]))


def _pow_truncated(p):
    # every monic cubic over F_p to each power up to (p-1)/2, truncated at
    # degree p - 1, against the full power
    ctx, cap = make_field(p), p - 1
    for f in monic_polys(ctx, 3):
        for e in range(1, (p - 1) // 2 + 1):
            full = f ** e
            yield (f, e), f.pow_truncated(e, cap), Polynomial(ctx, [full[i] for i in range(cap + 1)])


def _residues_pow(p):
    # the packed-int residue ring against square-and-multiply on
    # Polynomial with %, up to the widest slots: p just below 2**20,
    # coefficients p - 1
    ctx, rng = make_field(p), random.Random(p)
    for degree in (1, 2, 7, 23, 40):
        top = [p - 1] * degree
        mods = [Polynomial(ctx, top + [1]),
                Polynomial(ctx, [rng.randrange(p) for _ in range(degree)] + [2])]
        bases = [Polynomial(ctx, [p - 1] * degree),
                 Polynomial(ctx, [rng.randrange(p) for _ in range(degree + 3)])]
        for mod in mods:
            ring = poly._Residues(ctx, mod.ranks)
            for base, e in ((base, e) for base in bases for e in (0, 1, 2, 5, 97)):
                yield (mod, base, e), _residue(ring, ring.pow(ring.reduce(base.ranks), e)), \
                    _pow_mod_reference(base, e, mod)


def _frob(p, n):
    # frob(a) = sum a_i x^(iq) mod m against plain powering by q with %,
    # for random a and m; over F_p up to the widest slots, and over F_q
    # with n > 1, where the ring holds rank lists
    ctx = make_field(p, n)
    rng = random.Random(ctx.q)

    def random_poly(degree, lead):
        return Polynomial.from_ranks(ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [lead])

    for degree in (1, 2, 7, 23, 40):
        for lead in (1, 1 + rng.randrange(ctx.q - 1)):
            mod = random_poly(degree, lead)
            ring = poly._Residues(ctx, mod.ranks)
            yield (mod, "x_q"), _residue(ring, ring.x_q()), \
                _pow_mod_reference(Polynomial.x(ctx), ctx.q, mod)
            for a in (random_poly(degree + 2, 1 + rng.randrange(ctx.q - 1)),
                      Polynomial.from_ranks(ctx, [ctx.q - 1] * degree)):
                a_q, frob = _pow_mod_reference(a, ctx.q, mod), ring.frob(ring.reduce(a.ranks))
                yield (mod, a), (_residue(ring, frob), _residue(ring, ring.frob(frob))), \
                    (a_q, _pow_mod_reference(a_q, ctx.q, mod))


def _reduction_table(p, m):
    # R[j] = x^(D+j) mod m, packed, against the plain int remainder, for
    # every j the ring reads
    D = len(m) - 1
    W = poly._slot_width(2 * D * (p - 1) ** 2)
    table = poly._reduction_table(m, p, W)
    yield "size", len(table), D - 1
    for j, packed in enumerate(table):
        want = poly._divmod([0] * (D + j) + [1], m, prime_field(p))[1]
        yield j, list(poly._unpack(W, packed, D)), want + [0] * (D - len(want))


def _binomial_patterns():
    # the etale suite's polynomials, y^(p-1) - h for every unit rank h
    for p, n in [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)] + [(3, 2), (5, 2), (7, 2)]:
        ctx = make_field(p, n)
        y = Polynomial.x(ctx)
        for h in range(1, ctx.q):
            f = y ** (p - 1) - Polynomial.from_ranks(ctx, [h])
            yield (p, n, h), poly.degree_pattern(f), poly.factor(f).degree_multiset


def _random_patterns(p, n):
    # seeded random polynomials, some squared and, where p is small
    # enough, some times a p-th power, whose derivative is zero
    ctx = make_field(p, n)
    rng = random.Random(ctx.q)

    def random_poly(degree):
        return Polynomial.from_ranks(
            ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [1 + rng.randrange(ctx.q - 1)])

    for _ in range(25):
        f = random_poly(rng.randrange(1, 25))
        if rng.random() < 0.3:
            f = f * f
        if p <= 101 and rng.random() < 0.3:
            f = f * random_poly(rng.randrange(1, 3)) ** p
        yield f, poly.degree_pattern(f), poly.factor(f).degree_multiset


def _rabin(p):
    # every factor g of a seeded random corpus, some inputs squared, has
    # gcd(g, x^(q^i) - x) = 1 for i <= deg g / 2, so no factor of degree
    # i divides it; the powers come from plain powering with %, never
    # from the residue ring, and the gcd from plain Euclid
    ctx, rng = make_field(p), random.Random(p)
    x, checked = Polynomial.x(ctx), 0
    for _ in range(12):
        degree = rng.randrange(1, 31)
        f = Polynomial.from_ranks(ctx, [rng.randrange(p) for _ in range(degree)]
                                  + [1 + rng.randrange(p - 1)])
        if rng.random() < 0.3:
            f = f * f
        fac = poly.factor(f)
        yield f, fac.expand(), f
        for g, _ in fac.factors:
            power = x
            for i in range(1, g.degree // 2 + 1):
                power = _pow_mod_reference(power, p, g)
                yield (f, g, i), _gcd_reference(g, power - x).degree, 0
                checked += 1
    assert checked > 20


def _fault(owner, name, where, change=lambda out: out + 1):
    # owner.name, whose output is changed where where(*args) holds
    real = getattr(owner, name)
    return lambda mp: mp.setattr(owner, name,
                                 lambda *a: change(real(*a)) if where(*a) else real(*a))


def _on_row01(ctx, r2, r4):
    return (r2, r4) == (0, 1)


def _slot(i, wrap=list):
    # the change that moves item i of a sequence by one
    return lambda out: wrap(v + (j == i) for j, v in enumerate(out))


def _changed(name, change):
    # FieldCtx.name, a cached property, changed on every context built
    # while it holds
    real = FieldCtx.__dict__[name]
    prop = cached_property(lambda ctx: change(real.func(ctx)))
    prop.__set_name__(FieldCtx, name)
    return lambda mp: mp.setattr(FieldCtx, name, prop)


def _moved_zech(tables):
    # Zech's first entry moved by one
    tables[2][0] += 1
    return tables


def _one_factor(fac):
    # the factorization with its factors multiplied back into one
    return fac._replace(factors=((fac.expand().monic()[1], 1),))


def _edited_witness(**change):
    # the first record of each witness row with its fields changed
    real = search._check_row
    return lambda mp: mp.setattr(search, "_check_row", lambda *a: [
        r._replace(**{k: f(getattr(r, k)) for k, f in change.items()}) if not i else r
        for i, r in enumerate(real(*a))])


class Audit(NamedTuple):
    fast: str      # the fast route, by its name in src/hasseforms or here
    slow: str      # the audit route: a name in src/hasseforms, or one here
    ladders: dict  # "module::test" -> (argnames, cases, pairs)
    fault: tuple   # (case of the first ladder, install(monkeypatch))


HIST_FIELDS = [(7, 1), (13, 1), (3, 2), (5, 2), (3, 3)]
TABLE_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3)]
EXTENSION_FIELDS_TO_3000 = [(p, n) for p in range(3, 55) if _is_prime(p)
                            for n in range(2, 8) if p**n <= 3000]
# the extension fields under the size guard, each with its field table entry
GUARD_EXTENSIONS = [(p, n) for p in range(3, 1024) if _is_prime(p)
                    for n in range(2, 21) if p**n <= 2**20]
# (p, m): a binomial y^210 - A, whose shifted-out top slot is always zero,
# so no reductions; a trinomial, where it sometimes is; and a dense m
_REDUCTION_MODULI = [(211, [3] + [0] * 209 + [1]), (7, [2, 0, 0, 5, 0, 0, 0, 1]),
                     (13, [4, 11, 7, 2, 9, 12, 3, 6, 5, 1])]
_PN = "p,n"

AUDITS = {
    "discriminant": Audit("curve._disc_at", "curve.discriminant_general", {
        "test_curve::test_discriminant_two_routes":
            (_PN, [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2)], _discriminant),
    }, ((5, 1), _fault(curve, "_disc_at", lambda *a: len(a[2]) > 1, _slot(1)))),
    "hasse_invariant": Audit("curve.hasse_invariant", "poly.Polynomial.pow_truncated", {
        "test_curve::test_hasse_invariant_two_routes":
            (_PN, [(3, 2), (5, 1), (7, 1), (11, 1), (13, 1), (19, 1), (5, 2), (7, 2),
             (3, 3), (13, 2)], _hasse_invariant),
    }, ((5, 1), _fault(curve, "_hasse_one", lambda p, *m: m == (1, 1)))),
    "row_counts": Audit("curve._row_counts", "curve.point_count, euler_counts", {
        "test_curve::test_row_counts_match_point_count":
            (_PN, [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (31, 1), (3, 2), (5, 2),
             (7, 2), (3, 3), (3, 4), (5, 3), (11, 2)], _row_counts),
        "test_curve::test_row_counts_match_count_at_every_a6":
            (_PN, HIST_FIELDS + [(131, 1), (13, 2)], _row_counts),
    }, ((5, 1), lambda mp: seed_count(mp, curve, (0, 1, 1)))),
    "row_hist": Audit("curve._row_hist", "walked_logs", {
        "test_curve::test_row_hist_matches_direct_log_count":
            (_PN, HIST_FIELDS, _row_hist),
    }, ((7, 1), _fault(curve, "_log_hist", _on_row01, _slot(0, bytearray)))),
    "row_memos": Audit("curve._log_hist, curve._row_hasse", "walked_logs, curve._hasse_at", {
        "test_curve::test_row_memos_match_direct_routes_out_of_order":
            ("fields", [(((3, 2), (3, 3)),), (((5, 2), (13, 1)),)], _row_memos),
    }, ((((3, 2), (3, 3)),), _fault(curve, "_log_hist", _on_row01, _slot(0)))),
    "count_at": Audit("curve._count_at", "euler_counts", {
        "test_curve::test_count_at_matches_naive_count_at_every_a6":
            (_PN, HIST_FIELDS + [(31, 2), (3, 4)], _count_at),
    }, ((7, 1), _fault(curve, "_count_at", lambda ctx, *r: r == (0, 1, 1)))),
    "zech_y": Audit("curve._zech_y", "euler_chi", {
        "test_curve::test_zech_y_is_one_minus_chi_of_one_plus_g_power":
            (_PN, [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3),
             (7, 3), (5, 4), (11, 2), (3, 6), (31, 2)], _zech_y),
    }, ((3, 2), _fault(curve, "_zech_y", lambda *a: True, _slot(0)))),
    "row_hasse": Audit("curve._row_hasse", "curve.hasse_invariant", {
        "test_curve::test_row_hasse_matches_hasse_invariant":
            (_PN, [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (3, 3), (7, 2),
             (13, 2)], _row_hasse),
    }, ((5, 1), lambda mp: seed_hasse(mp, curve, (0, 1, 1), lambda a: a + 1))),
    "hasse_at": Audit("curve._hasse_at", "truncated_hasse", {
        "test_curve::test_hasse_at_matches_hasse_invariant_on_shuffled_ranks":
            (_PN, [(7, 1), (5, 2), (13, 2), (3, 3)], _hasse_at),
    }, ((7, 1), _fault(curve, "_hasse_at", lambda *a: len(a[3]) > 1, _slot(0)))),
    "hasse_one": Audit("curve._hasse_one", "curve._hasse_at", {
        "test_curve::test_hasse_one_matches_row_route_on_every_model":
            ("p", [(p,) for p in range(5, 234) if _is_prime(p)], _hasse_one),
        "test_curve::test_hasse_one_matches_row_route_on_seeded_models":
            ("p", [(65537, True), (1048573, True)], _hasse_one),
    }, ((5,), _fault(curve, "_hasse_one", lambda p, *m: m == (1, 1)))),
    "mestre": Audit("curve._count_mestre", "curve._count_at", {
        "test_curve::test_mestre_count_matches_count_at_on_every_model":
            (None, [(239,)], _mestre),
        "test_curve::test_mestre_count_matches_count_at_on_crossed_rows":
            (None, [(233, "crossed")], _mestre),
        "test_curve::test_mestre_count_matches_count_at_on_seeded_models":
            ("p", [(65537, "seeded"), (1048573, "seeded")], _mestre),
    }, ((239,), _fault(curve, "_count_mestre", lambda p, *m: m == (1, 1)))),
    "twist_kinds": Audit("curve._twist_kinds", "WeierstrassCurve.j_invariant", {
        "test_curve::test_twist_kinds_on_ranks_match_j":
            (_PN, [(5, 1), (7, 1), (13, 1), (3, 2), (5, 2)], _twist_kinds),
    }, ((7, 1), _fault(curve, "_twist_kinds", lambda ctx, *m: m == (0, 1),
                       lambda kinds: kinds[:1]))),
    "twist_scales": Audit("curve._twist_scales", "curve.twist", {
        "test_curve::test_twist_scales_match_twist_and_field_arithmetic":
            (_PN, [(5, 1), (7, 1), (13, 1), (3, 2), (5, 2)], _twist_scales),
    }, ((5, 1), _fault(curve, "_twist_scales", lambda *a: a[1] == 2, _slot(1)))),
    "table_arithmetic": Audit("gf.FieldCtx._mul, _add, _sub, _neg, _pow, _inv", "conv_mul", {
        "test_gf::test_table_arithmetic_matches_convolution":
            (_PN, TABLE_FIELDS, _table_arithmetic),
    }, ((3, 2), _fault(FieldCtx, "_mul", lambda ctx, *ab: ab == (2, 3)))),
    "log_tables": Audit("gf.FieldCtx._log_tables", "walked_logs", {
        "test_gf::test_log_tables_are_inverse_and_zech_matches_addition":
            (_PN, TABLE_FIELDS + [(7, 3), (5, 4), (11, 2), (3, 6), (31, 2), (3, 1), (5, 1),
                                  (7, 1), (101, 1)], _log_tables),
    }, ((3, 2), _changed("_log_tables", _moved_zech))),
    "point_count": Audit("curve.point_count", "euler_counts", {
        "test_gf::test_point_count_matches_naive_count":
            (_PN, TABLE_FIELDS + [(3, 1), (5, 1), (7, 1), (13, 1), (101, 1)], _point_count),
        "test_gf::test_point_count_row_memo_against_naive_count":
            (None, [()], _point_count_interleaved),
    }, ((5, 1), _fault(curve, "_count_at", lambda ctx, *r: r == (0, 1, 1)))),
    "discrete_log": Audit("gf.discrete_log, gf._pohlig_hellman", "walked_logs", {
        "test_gf::test_untabled_logs_and_powers_match_the_tables":
            ("p", [(19,), (23,), (101,), (131,), (211,), (1009,)], _discrete_log),
        "test_gf::test_logs_and_powers_over_fq_read_the_tables":
            (_PN, [(3, 2), (5, 2), (3, 3)], _discrete_log),
    }, ((19,), _fault(gf, "_pohlig_hellman", lambda g, a, p: a == 2))),
    "class_residues": Audit("forms._class_residues", "forms.phi", {
        "test_forms::test_class_residues_match_phi_of_each_class":
            (_PN, [(19, 1), (211, 1), (3, 4), (5, 4), (31, 2)], _class_residues),
        "test_forms::test_class_residues_over_prime_fields_are_phi_of_each_class":
            (None, [()], lambda: (pair for p in filter(_is_prime, range(3, 212))
                                  for pair in _class_residues(p, 1))),
    }, ((3, 4), _fault(forms, "_class_residues", lambda *a: True, _slot(1)))),
    "search": Audit("search._first_hits", "curve.hasse_invariant", {
        "test_search::test_no_shortcut_search_matches_object_route":
            (_PN, [(3, 1), (5, 1), (13, 1), (19, 1), (23, 1), (3, 2), (3, 3), (5, 2)], _search),
    }, ((5, 1), _fault(search, "_first_hits", lambda ctx, h: 2 in h, lambda _: {}))),
    "census_records": Audit("search._new", "search.ClassEntry, search.WitnessRecord", {
        "test_search::test_census_records_match_constructed_records":
            (_PN, [(13, 1), (19, 1), (211, 1), (3, 2), (5, 2), (3, 3)], _census_records),
    }, ((13, 1), _fault(search, "_new", lambda cls, f: cls is ClassEntry, tuple))),
    "census_witnesses": Audit("search.census", "search._first_hits", {
        "test_search::test_census_witnesses_match_exhaustive_search":
            (_PN, [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)], _census_witnesses),
    }, ((3, 2), _edited_witness(a6=lambda a6: a6 + (0,)))),
    "rank_scan": Audit("search._classified", "curve.hasse_invariant", {
        "test_search::test_rank_scan_matches_object_route":
            (_PN, [(3, 1), (5, 1), (7, 1), (13, 1), (19, 1), (23, 1), (3, 2), (3, 3),
             (5, 2), (7, 2), (5, 3), (11, 2), (17, 2)], _rank_scan),
    }, ((3, 1), _fault(search, "_classified", lambda *a: True,
                       lambda hits: islice(hits, 1, None)))),
    "census_objects": Audit("search._check_row", "curve.point_count, forms.unit_class_of", {
        "test_search::test_census_witnesses_audited_through_objects":
            (_PN, [(19, 1), (23, 1), (101, 1), (131, 1), (211, 1), (19, 2), (7, 3),
             (5, 4), (31, 2), (3, 4), (1009, 1)], _census_objects),
    }, ((19, 1), _edited_witness(count=lambda c: c + 1))),
    "field_table": Audit("gf._FIELD_TABLE, gf.FieldCtx._find_modulus, _generator_rank",
                         "lex_first_search, _is_irreducible_ints", {
        "test_gf::test_field_table_matches_lex_first_search": (None, [()], _field_table),
        "test_gf::test_modulus_matches_full_lex_scan":
            (_PN, EXTENSION_FIELDS_TO_3000, _find_modulus),
    }, ((), lambda mp: mp.setattr(gf, "_FIELD_TABLE", gf._FIELD_TABLE.replace(" 3:0,", " 3:1,")))),
    "is_irreducible": Audit("ben_or", "_is_irreducible_ints", {
        "test_gf::test_ben_or_matches_trial_division":
            ("p,degrees", [(3, (1, 2, 3, 4)), (5, (1, 2, 3, 4)), (7, (1, 2, 3, 4)), (31, (2,))],
             _ben_or),
    }, ((3, (1, 2, 3, 4)), _fault(sys.modules[__name__], "ben_or", lambda f, p: f == (1, 0, 1),
                                  lambda irreducible: not irreducible))),
    "divmod": Audit("poly._divmod over F_p", "poly._mul_trunc", {
        "test_gf::test_divmod_ints_is_long_division":
            ("p", [(3,), (5,), (65537,), (1048573,)], _divmod_fp),
    }, ((3,), _fault(poly, "_divmod", lambda a, b, ctx: len(b) > 1,
                     lambda qr: (_slot(0)(qr[0]), qr[1])))),
    "factor_int": Audit("gf._factor_int", "a sieve, trial division", {
        "test_gf::test_factor_int_matches_brute_force": (None, [()], _factor_int),
    }, ((), _fault(gf, "_factor_int", lambda m: m == 12, lambda pairs: pairs[:1]))),
    "norm": Audit("resultant_norm", "gf.norm_to_prime", {
        "test_gf::test_resultant_norm_matches_power_norm":
            (_PN, [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3)],
             _resultant_norm),
    }, ((3, 2), _fault(sys.modules[__name__], "resultant_norm",
                       lambda a, m, p: tuple(a) == (1, 1)))),
    "generator": Audit("gf.FieldCtx._generator_rank", "conv_pow", {
        "test_gf::test_generator_is_lex_first_on_convolution_route":
            (_PN, sorted(set(TABLE_FIELDS + EXTENSION_FIELDS_TO_3000))
             + [(p, 1) for p in range(3, 212) if _is_prime(p)] + [(1009, 1)], _generator_rank),
    }, ((3, 2), _changed("_generator_rank", lambda rank: rank + 1))),
    "power": Audit("gf._power", "pow", {
        "test_gf::test_power_matches_builtin_pow": (None, [()], _power),
    }, ((), _fault(gf, "_power", lambda x, e, *_: e == 3))),
    "rank_kernels": Audit("poly._mul_trunc, _divmod, _derivative, Polynomial.evaluate",
                          "element_product, element_value", {
        "test_poly::test_rank_kernels_against_element_arithmetic":
            (_PN, [(3, 2), (5, 2), (3, 3), (7, 2), (3, 1), (13, 1), (101, 1), (1048573, 1)],
             _rank_kernels),
    }, ((3, 2), _fault(poly, "_mul_trunc", lambda *a: True, lambda out: out[1:]))),
    "pow_truncated": Audit("poly.Polynomial.pow_truncated", "poly.Polynomial.__pow__", {
        "test_poly::test_truncated_power_agrees_with_full_power":
            ("p", [(3,), (5,), (7,)], _pow_truncated),
    }, ((3,), _fault(Polynomial, "pow_truncated", lambda f, e, cap: e == 1, lambda g: g + 1))),
    "residues_pow": Audit("poly._Residues.mul, _Residues.pow", "_pow_mod_reference", {
        "test_poly::test_pow_mod_packed_matches_plain_powering":
            ("p", [(3,), (13,), (1009,), (65537,), (1048573,)], _residues_pow),
    }, ((3,), _fault(poly._Residues, "mul", lambda *a: True))),
    "frobenius": Audit("poly._Residues.frob, _Residues.x_q", "_pow_mod_reference", {
        "test_poly::test_frobenius_table_matches_powering_by_q":
            (_PN, [(3, 1), (13, 1), (1009, 1), (1048573, 1), (3, 2), (5, 3)], _frob),
    }, ((3, 1), _fault(poly._Residues, "frob", lambda *a: True))),
    "reduction_table": Audit("poly._reduction_table", "poly._divmod over F_p", {
        "test_poly::test_reduction_table_holds_reduced_powers_of_x":
            ("p,m", _REDUCTION_MODULI, _reduction_table),
    }, (_REDUCTION_MODULI[0], _fault(poly, "_reduction_table", lambda *a: True, _slot(0)))),
    "degree_pattern": Audit("poly.degree_pattern", "poly.factor", {
        "test_poly::test_degree_pattern_matches_factor_on_binomials":
            (None, [()], _binomial_patterns),
        "test_poly::test_degree_pattern_matches_factor_on_random_polynomials":
            (_PN, [(3, 1), (5, 1), (101, 1), (65537, 1), (3, 2), (7, 3)], _random_patterns),
    }, ((), _fault(poly, "degree_pattern", lambda f: True, lambda degrees: degrees[1:]))),
    "rabin": Audit("poly.factor", "_pow_mod_reference, _gcd_reference", {
        "test_poly::test_factors_pass_rabin_check": ("p", [(101,), (65537,)], _rabin),
    }, ((101,), _fault(poly, "factor", lambda f: True, _one_factor))),
}


def _check(audit, pairs):
    # every (model, fast, slow) of a case, closed so its patches end with it
    with closing(pairs) as it:
        for model, fast, slow in it:
            assert fast == slow, f"{audit.fast} disagrees with {audit.slow} at {model}"


def _ladder_test(audit, argnames, cases, pairs):
    # one ladder as a test, each case under the id its test had before the table
    if argnames is None:
        return lambda: _check(audit, pairs(*cases[0]))
    ids = ["-".join(str(v) if isinstance(v, (int, str)) else f"{name}{i}"
                    for name, v in zip(argnames.split(","), case)) for i, case in enumerate(cases)]

    @pytest.mark.parametrize("case", cases, ids=ids)
    def test(case):
        _check(audit, pairs(*case))
    return test


def audit_tests(module):
    """The ladders that module runs, each as a test under its name in the table."""
    return {key.partition("::")[2]: _ladder_test(audit, *ladder) for audit in AUDITS.values()
            for key, ladder in audit.ladders.items() if key.startswith(module + "::")}


@pytest.mark.parametrize("name", AUDITS)
def test_seeded_fault_fails_its_audit(monkeypatch, name):
    audit = AUDITS[name]
    case, install = audit.fault
    install(monkeypatch)
    with pytest.raises(AssertionError, match="disagrees with"):
        _check(audit, next(iter(audit.ladders.values()))[2](*case))


def _tampered_f9():
    # an F_9 whose every power of g reads 1, not in the prime subfield
    ctx = make_field(3, 2)
    exp, log, zech = ctx._log_tables
    vars(ctx)["_log_tables"] = type(exp)(exp.typecode, [1] * len(exp)), log, zech
    return forms._class_residues(ctx)


def _lost_factor(mp, factorize):
    # the distinct-degree split loses its first product of factors
    real = poly._distinct_degree
    mp.setattr(poly, "_distinct_degree", lambda sq, ctx: islice(real(sq, ctx), 1, None))
    return factorize(Polynomial(make_field(3), (0, 1, 1)))


def _unpinned_count(mp):
    # each point of E and its twist leaves two candidates no other one does
    mp.setattr(curve, "_multiples", lambda *args, seq=count(1): [next(seq), next(seq)])
    return curve._count_mestre(233, 1, 1)


# the package's self-checks: (seed(monkeypatch), error, fragment of its text)
_SELF_CHECKS = {
    "phi-off-subfield": (lambda mp: _tampered_f9(), ValueError, "phi leaves the prime subfield"),
    "no-discrete-log": (lambda mp: gf._pohlig_hellman(4, 3, 7), RuntimeError, "no discrete log"),
    "factor-lost-degree": (lambda mp: _lost_factor(mp, poly.factor), RuntimeError,
                           "factor lost degree"),
    "degree-pattern-lost-degree": (lambda mp: _lost_factor(mp, poly.degree_pattern),
                                   RuntimeError, "degree_pattern lost degree"),
    "count-not-pinned": (_unpinned_count, RuntimeError, "is not pinned"),
}


@pytest.mark.parametrize("name", _SELF_CHECKS)
def test_self_check_raises_its_named_error(monkeypatch, name):
    run, error, text = _SELF_CHECKS[name]
    with pytest.raises(error, match=text):
        run(monkeypatch)

