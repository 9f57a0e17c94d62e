"""Polynomial arithmetic, truncated powering, and deterministic factoring.

The truncation and factoring routines are the backbone of every invariant
computation, so they are checked against independent routes: full
powering, brute-force reassembly, and trial division.
"""

import logging
import operator
import random

import pytest

from hasseforms import make_field
from hasseforms import poly as poly_module
from hasseforms.errors import CtxMismatchError, ZeroPolynomialError
from hasseforms.gf import _rem_ints
from hasseforms.poly import Polynomial, _Residues, degree_pattern, factor, gcd


def _monic_polys(ctx, degree):
    """All monic polynomials of exactly the given degree, rank order."""
    q = ctx.q
    total = q ** degree
    for r in range(total):
        coeffs = []
        rem = r
        for _ in range(degree):
            rem, c = divmod(rem, q)
            coeffs.append(ctx.from_rank(c))
        yield Polynomial(ctx, coeffs + [ctx.one])


def test_construction_normalizes():
    ctx = make_field(5)
    f = Polynomial(ctx, [1, 2, 0, 0])
    assert f.degree == 1
    assert f.coeffs == (ctx(1), ctx(2))
    assert Polynomial(ctx).degree == -1
    assert Polynomial.const(ctx, ctx(3)).degree == 0
    assert Polynomial.x(ctx).degree == 1


def test_coefficient_access():
    ctx = make_field(5)
    f = Polynomial(ctx, [0, 2, 0, 1])  # x^3 + 2x
    assert f[1] == 2
    assert f[3] == 1
    assert f[5] == 0
    with pytest.raises(IndexError):
        f[-1]


def test_frozen_square():
    ctx = make_field(5)
    x = Polynomial.x(ctx)
    f = x ** 3 + x + 1
    sq = f * f
    assert sq == Polynomial(ctx, [1, 2, 1, 2, 2, 0, 1])
    assert f ** 2 == sq
    assert sq[4] == 2


def test_divmod_reconstructs():
    # over F_5, F_7 and F_9; f // d and f % d are the two halves of
    # divmod, and 2 - f, which Polynomial takes reflected, is its
    # left-hand form
    for p, n in ((5, 1), (7, 1), (3, 2)):
        ctx = make_field(p, n)
        x = Polynomial.x(ctx)
        f = (x ** 3 + x + 1) ** 2
        for d in (x + 1, 2 * x + 1, x ** 2 + 3):
            qt, r = divmod(f, d)
            assert qt * d + r == f
            assert r.degree < d.degree
            assert (f // d, f % d) == (qt, r)
        assert 2 - f == Polynomial.const(ctx, ctx(2)) - f
        assert (2 - f)[0] == ctx(1) and (2 - f)[6] == -ctx.one


def test_derivative_and_char_p():
    ctx = make_field(5)
    x = Polynomial.x(ctx)
    assert (x ** 3 + x + 1).derivative() == 3 * x ** 2 + 1
    assert (x ** 5).derivative() == Polynomial(ctx)


def test_monic_scaling():
    ctx = make_field(5)
    x = Polynomial.x(ctx)
    f = 2 * x ** 2 + 4
    unit, body = f.monic()
    assert unit == 2
    assert body == x ** 2 + 2
    assert body.is_monic
    assert (x ** 2).monic() == (ctx.one, x ** 2)


def test_zeroth_power_is_one():
    ctx = make_field(7)
    x = Polynomial.x(ctx)
    f = x ** 3 + 2 * x + 5
    one = Polynomial.const(ctx, ctx.one)
    assert f ** 0 == one
    assert f.pow_truncated(0, 10) == one


@pytest.mark.parametrize("p", [3, 5, 7])
def test_truncated_power_agrees_with_full_power(p):
    ctx = make_field(p)
    cap = p - 1
    for f in _monic_polys(ctx, 3):
        for e in range(1, (p - 1) // 2 + 1):
            full = f ** e
            trunc = f.pow_truncated(e, cap)
            assert trunc == Polynomial(ctx, [full[i] for i in range(cap + 1)])


def test_truncated_power_symbolic_rows():
    # coefficient of x^4 in (x^3+ax+b)^2 over F_5 is 2a; of x^6 in the
    # cube over F_7 it is 3b -- checked for every (a, b)
    ctx5, ctx7 = make_field(5), make_field(7)
    for a in ctx5.iter_elements():
        for b in ctx5.iter_elements():
            f = Polynomial(ctx5, [b, a, ctx5.zero, ctx5.one])
            assert f.pow_truncated(2, 4)[4] == 2 * a
    for a in ctx7.iter_elements():
        for b in ctx7.iter_elements():
            f = Polynomial(ctx7, [b, a, ctx7.zero, ctx7.one])
            assert f.pow_truncated(3, 6)[6] == 3 * b


def test_truncated_power_over_extension_field():
    ctx = make_field(3, 2)
    t = ctx((0, 1))
    f = Polynomial(ctx, [t, t + 1, ctx(2), ctx.one])
    for e in (1, 2, 3, 4):
        full = f ** e
        assert f.pow_truncated(e, 8) == Polynomial(ctx, [full[i] for i in range(9)])


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3), (7, 2),
                                  (3, 1), (13, 1), (101, 1), (1048573, 1)])
def test_rank_kernels_against_element_arithmetic(p, n):
    # divmod, evaluate, derivative, * and pow_truncated, which run on int
    # lists over F_p and on the rank kernels over F_q with n > 1, against
    # FieldElement arithmetic written out here: coefficient by coefficient,
    # and by Horner's rule at every point of a field of at most 101
    # elements, at seeded points of larger ones.  The densest operands
    # have every coefficient p - 1 up to degree 40
    ctx = make_field(p, n)
    rng = random.Random(ctx.q)
    points = (list(ctx.iter_elements()) if ctx.q <= 101
              else [ctx.from_rank(rng.randrange(ctx.q)) for _ in range(16)])

    def random_poly(degree):
        low = [ctx.from_rank(rng.randrange(ctx.q)) for _ in range(degree)]
        return Polynomial(ctx, low + [ctx.from_rank(rng.randrange(1, ctx.q))])

    def value(f, x):
        acc = ctx.zero
        for c in reversed(f.coeffs):
            acc = acc * x + c
        return acc

    def product(f, g):
        total = [ctx.zero] * (len(f) + len(g) - 1)
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                total[i + j] = total[i + j] + fi * gj
        return total

    top = Polynomial.from_ranks(ctx, [ctx.q - 1] * 41)
    pairs = [(random_poly(rng.randrange(12)), random_poly(rng.randrange(6))) for _ in range(40)]
    pairs += [(top, top), (top * random_poly(3), top), (random_poly(40), top), (top, random_poly(7))]
    for k, (a, b) in enumerate(pairs):
        quo, rem = divmod(a, b)
        assert rem.degree < b.degree
        total = product(quo.coeffs, b.coeffs) + [ctx.zero]
        for i, ri in enumerate(rem.coeffs):
            total[i] = total[i] + ri
        assert Polynomial(ctx, total) == a
        ab = a * b
        assert ab == Polynomial(ctx, product(a.coeffs, b.coeffs))
        for x in points:
            assert value(a, x) == value(quo, x) * value(b, x) + value(rem, x)
            assert value(ab, x) == value(a, x) * value(b, x)
            assert a.evaluate(x) == value(a, x)
        d = a.derivative()
        assert d.degree < a.degree
        for i in range(a.degree + 1):
            assert d[i] == (i + 1) * a[i + 1]
        if k % 4 == 0 or a == top:
            for e in (2, 3):
                full = [ctx.one]
                for _ in range(e):
                    full = product(full, a.coeffs)
                assert a.pow_truncated(e, e * a.degree) == Polynomial(ctx, full)
                for x in points:
                    assert value(a.pow_truncated(e, e * a.degree), x) == value(a, x) ** e
                cap = rng.randrange(e * a.degree + 1)
                assert a.pow_truncated(e, cap) == Polynomial(ctx, full[:cap + 1])


def test_factor_frozen_examples():
    ctx = make_field(5)
    y = Polynomial.x(ctx)

    roots_of_unity = factor(y ** 4 - 1)
    assert roots_of_unity.unit == 1
    assert [(g.to_str(), m) for g, m in roots_of_unity.factors] == [
        ("x + 1", 1), ("x + 2", 1), ("x + 3", 1), ("x + 4", 1)]

    inert = factor(y ** 4 - 2)
    assert inert.degree_multiset == (4,)

    split = factor(y ** 4 - 4)
    assert [(g.to_str(), m) for g, m in split.factors] == [("x^2 + 2", 1), ("x^2 + 3", 1)]

    frobenius_kernel = factor(y ** 5 - 2)
    assert [(g.to_str(), m) for g, m in frobenius_kernel.factors] == [("x + 3", 5)]


def test_factor_nonmonic_unit():
    ctx = make_field(5)
    y = Polynomial.x(ctx)
    f = 2 * y ** 2 - 2
    fac = factor(f)
    assert fac.unit == 2
    assert fac.expand() == f


def test_factor_rejects_zero():
    ctx = make_field(5)
    with pytest.raises(ZeroPolynomialError):
        factor(Polynomial(ctx))


def _is_divisible(f, d):
    return divmod(f, d)[1].degree == -1


def _assert_factor_contract(ctx, f, trial_division_cap=4):
    """Reassembly, degree bookkeeping, and irreducibility of each factor.

    Trial division is exhaustive over all monic candidates up to half the
    factor degree; it is skipped above the cap where the candidate space
    explodes, and the no-root check still applies there.
    """
    fac = factor(f)
    assert fac.expand() == f
    assert sum(g.degree * m for g, m in fac.factors) == f.degree
    for g, m in fac.factors:
        assert g.is_monic and m >= 1
        if g.degree >= 2:
            assert all(g.evaluate(x) for x in ctx.iter_elements())
            if g.degree <= trial_division_cap:
                for d in range(1, g.degree // 2 + 1):
                    assert not any(_is_divisible(g, cand) for cand in _monic_polys(ctx, d))


@pytest.mark.parametrize("p", [3, 5])
def test_factor_reassembles_all_low_degree(p):
    ctx = make_field(p)
    for degree in (1, 2, 3, 4):
        for f in _monic_polys(ctx, degree):
            _assert_factor_contract(ctx, f)


def test_factor_torsion_shapes_over_larger_fields():
    # y^(p-1) - h for every unit h; all factor degrees must equal the
    # order of h modulo (p-1)-st powers, an independent oracle computed
    # here from the discrete logarithm of h
    from math import gcd as int_gcd

    from hasseforms import discrete_log

    # over F_17 and F_29 low-degree splitting candidates do not separate
    # the factors of these binomials
    for p, n in ((13, 1), (17, 1), (29, 1), (3, 2), (5, 2)):
        ctx = make_field(p, n)
        y = Polynomial.x(ctx)
        for h in ctx.iter_elements():
            if not h:
                continue
            exp = discrete_log(h) % (p - 1)
            order = (p - 1) // int_gcd(exp, p - 1)
            fac = factor(y ** (p - 1) - h)
            assert set(fac.degree_multiset) == {order}
            assert len(fac.factors) * order == p - 1
            _assert_factor_contract(ctx, y ** (p - 1) - h)


def _pow_mod_reference(base, e, mod):
    result = Polynomial(base.ctx, (1,))
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _residue(ring, a):
    # a residue of the ring as a Polynomial, from its rank list
    return Polynomial.from_ranks(ring.ctx, ring.poly(a))


@pytest.mark.parametrize("p", [3, 13, 1009, 65537, 1048573])
def test_pow_mod_packed_matches_plain_powering(p):
    # the packed-int residue ring against square-and-multiply on
    # Polynomial with %, up to the widest slots: p just below 2**20,
    # coefficients p - 1
    ctx = make_field(p)
    rng = random.Random(p)
    for degree in (1, 2, 7, 23, 40):
        top = [p - 1] * degree
        mods = [Polynomial(ctx, top + [1]),
                Polynomial(ctx, [rng.randrange(p) for _ in range(degree)] + [2])]
        bases = [Polynomial(ctx, [p - 1] * degree),
                 Polynomial(ctx, [rng.randrange(p) for _ in range(degree + 3)])]
        for mod in mods:
            ring = _Residues(ctx, mod.ranks)
            for base in bases:
                for e in (0, 1, 2, 5, 97):
                    want = _pow_mod_reference(base, e, mod)
                    assert _residue(ring, ring.pow(ring.reduce(base.ranks), e)) == want


@pytest.mark.parametrize("p, n", [(3, 1), (13, 1), (1009, 1), (1048573, 1), (3, 2), (5, 3)])
def test_frobenius_table_matches_powering_by_q(p, n):
    # frob(a) = sum a_i x^(iq) mod m against plain powering by q with %,
    # for random a and m; over F_p up to the widest slots, and over F_q
    # with n > 1, where the ring holds Polynomials
    ctx = make_field(p, n)
    rng = random.Random(ctx.q)

    def random_poly(degree, lead):
        return Polynomial.from_ranks(ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [lead])

    for degree in (1, 2, 7, 23, 40):
        for lead in (1, 1 + rng.randrange(ctx.q - 1)):
            mod = random_poly(degree, lead)
            ring = _Residues(ctx, mod.ranks)
            x_q = _pow_mod_reference(Polynomial.x(ctx), ctx.q, mod)
            assert _residue(ring, ring.x_q()) == x_q
            for a in (random_poly(degree + 2, 1 + rng.randrange(ctx.q - 1)),
                      Polynomial.from_ranks(ctx, [ctx.q - 1] * degree)):
                a_q = _pow_mod_reference(a, ctx.q, mod)
                frob = ring.frob(ring.reduce(a.ranks))
                assert _residue(ring, frob) == a_q
                assert _residue(ring, ring.frob(frob)) == _pow_mod_reference(a_q, ctx.q, mod)


@pytest.mark.parametrize("p, n", [(13, 1), (1009, 1), (5, 3)])
def test_frobenius_table_grows_only_to_the_top_coefficient(p, n):
    # T = [1, x^q, x^2q, ...] grows only as far as the highest nonzero
    # coefficient of the residue mapped; a later, longer residue extends
    # it with the same products, and every frob matches powering by q
    ctx = make_field(p, n)
    rng = random.Random(ctx.q)
    mod = Polynomial.from_ranks(ctx, [rng.randrange(ctx.q) for _ in range(23)] + [1])
    ring = _Residues(ctx, mod.ranks)
    longest = 1
    for top, dense in ((0, False), (1, False), (5, False), (3, True), (22, True), (9, False)):
        low = [rng.randrange(ctx.q) if dense else 0 for _ in range(top)]
        a = Polynomial.from_ranks(ctx, low + [1 + rng.randrange(ctx.q - 1)])
        assert _residue(ring, ring.frob(ring.reduce(a.ranks))) == _pow_mod_reference(a, ctx.q, mod)
        longest = max(longest, top)
        assert len(ring._T) == longest + 1


@pytest.mark.parametrize("p", [13, 29, 101])
def test_binomial_distinct_degree_builds_no_frobenius_table(p):
    # modulo y^(p-1) - A, x^p = A x, so every x^(p^d) is a monomial c x:
    # the distinct-degree steps read T = [1, x^q] and multiply nothing
    ctx = make_field(p)
    stepped = False
    for a in (2, 3, p - 1):
        sq = Polynomial(ctx, [p - a] + [0] * (p - 2) + [1])
        rings = [ring for _, _, ring in poly_module._distinct_degree(list(sq.ranks), ctx) if ring is not None]
        assert rings and all(ring._T is None or len(ring._T) == 2 for ring in rings)
        stepped |= any(ring._T for ring in rings)
    assert stepped  # some binomial went past d = 1


def _gcd_reference(f, g):
    while g:
        f, g = g, f % g
    return f.monic()[1]


@pytest.mark.parametrize("p", [101, 65537])
def test_factors_pass_rabin_check(p):
    # every factor g of a seeded random corpus, some inputs squared, has
    # gcd(g, x^(q^i) - x) = 1 for i <= deg g / 2, so no factor of degree
    # i divides it; the powers come from plain powering with %, never
    # from the residue ring, and the gcd from plain Euclid
    ctx = make_field(p)
    rng = random.Random(p)
    x = Polynomial.x(ctx)
    checked = 0
    for _ in range(12):
        degree = rng.randrange(1, 31)
        f = Polynomial.from_ranks(ctx, [rng.randrange(p) for _ in range(degree)] + [1 + rng.randrange(p - 1)])
        if rng.random() < 0.3:
            f = f * f
        fac = factor(f)
        assert fac.expand() == f
        for g, _ in fac.factors:
            power = x
            for _ in range(g.degree // 2):
                power = _pow_mod_reference(power, p, g)
                assert _gcd_reference(g, power - x).degree == 0
                checked += 1
    assert checked > 20


@pytest.mark.parametrize("p,m", [
    (211, [3] + [0] * 209 + [1]),            # binomial y^210 - A: no reductions
    (7, [2, 0, 0, 5, 0, 0, 0, 1]),           # trinomial
    (13, [4, 11, 7, 2, 9, 12, 3, 6, 5, 1]),   # dense
])
def test_reduction_table_holds_reduced_powers_of_x(p, m):
    # R[j] = x^(D+j) mod m, packed, against the plain int remainder, for
    # every j the ring reads: moduli whose shifted-out top slot is zero,
    # sometimes and always, and one where it is not
    D = len(m) - 1
    W = poly_module._slot_width(2 * D * (p - 1) ** 2)
    table = poly_module._reduction_table(m, p, W)
    assert len(table) == D - 1
    for j, packed in enumerate(table):
        want = _rem_ints([0] * (D + j) + [1], m, p)
        assert list(poly_module._unpack(W, packed, D)) == want + [0] * (D - len(want))


def test_factor_builds_one_reduction_table_per_modulus(monkeypatch, caplog):
    # factor works modulo one polynomial many times (the distinct-degree
    # steps, the candidates of the equal-degree split) and builds one
    # residue ring, so one reduction table, per modulus: one for the
    # squarefree input, which serves every distinct-degree step, one for
    # the product of its 11 linear factors and one for the product of its
    # 6 quadratic factors
    moduli = []

    class Counted(poly_module._Residues):
        def __init__(self, ctx, mod):
            moduli.append(tuple(mod))
            super().__init__(ctx, mod)

    monkeypatch.setattr(poly_module, "_Residues", Counted)
    y = Polynomial.x(make_field(23))
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        fac = factor((y ** 12 - 5) * (y ** 11 - 1))
    assert fac.degree_multiset == (1,) * 11 + (2,) * 6
    assert len(moduli) == len(set(moduli)) == 3
    assert [r.getMessage().count(", 3 residue rings, ") for r in caplog.records] == [1]


def test_factor_logs_one_record_and_keeps_output(caplog):
    ctx = make_field(17)
    y = Polynomial.x(ctx)
    polys = [y ** 16 - h for h in range(1, 17)] + [y ** 6 - 1, 3 * y ** 2 + 1]

    def factors():
        return [[([c.rank for c in g.coeffs], m) for g, m in factor(f).factors] for f in polys]

    plain = factors()
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        assert factors() == plain
    records = [r for r in caplog.records if r.name == "hasseforms"]
    assert [r.levelno for r in records] == [logging.DEBUG] * len(polys)
    for record, f in zip(records, polys):
        text = record.getMessage()
        assert f"degree-{f.degree} polynomial over F_17^1" in text
        assert "splitting candidates tried" in text and text.endswith(" s")


def test_factor_with_repeated_squarefree_parts():
    ctx = make_field(3)
    x = Polynomial.x(ctx)
    f = (x + 1) ** 3 * (x ** 2 + 1) * x ** 2
    fac = factor(f)
    assert fac.expand() == f
    assert sorted((g.to_str(), m) for g, m in fac.factors) == [
        ("x", 2), ("x + 1", 3), ("x^2 + 1", 1)]


def test_degree_pattern_matches_factor_on_binomials():
    # the etale suite's polynomials, y^(p-1) - h for every unit rank h
    for p, n in [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)] + [(3, 2), (5, 2), (7, 2)]:
        ctx = make_field(p, n)
        y = Polynomial.x(ctx)
        for h in range(1, ctx.q):
            f = y ** (p - 1) - Polynomial.from_ranks(ctx, [h])
            assert degree_pattern(f) == factor(f).degree_multiset, (p, n, h)


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (101, 1), (65537, 1), (3, 2), (7, 3)])
def test_degree_pattern_matches_factor_on_random_polynomials(p, n):
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
        assert degree_pattern(f) == factor(f).degree_multiset, f


def test_degree_pattern_of_constants():
    ctx = make_field(7, 2)
    assert degree_pattern(Polynomial.const(ctx, 3)) == ()
    with pytest.raises(ZeroPolynomialError):
        degree_pattern(Polynomial(ctx))


def _class_number(D):
    # h(D) for a negative discriminant D, by counting reduced forms
    # (a, b, c) with b^2 - 4ac = D: |b| <= a <= c, and b >= 0 if |b| = a
    # or a = c
    count, a = 0, 1
    while 3 * a * a <= -D:
        for b in range(1 - a, a + 1):
            if (b * b - D) % (4 * a) == 0:
                c = (b * b - D) // (4 * a)
                count += c > a or (c == a and b >= 0)
        a += 1
    return count


@pytest.mark.parametrize("p", [7, 11, 13, 19, 23, 43, 101, 211])
def test_legendre_hasse_polynomial_degree_pattern(p):
    # H_p(l) = sum C(m, i)^2 l^i, m = (p-1)/2, is A_p of y^2 = x(x-1)(x-l)
    # up to sign, so its roots are the supersingular l.  They are simple
    # and lie in F_p^2 (Igusa), and the number in F_p is 3 h(-p) for
    # p = 3 mod 4 and 0 for p = 1 mod 4
    from math import comb

    ctx = make_field(p)
    m = (p - 1) // 2
    H = Polynomial(ctx, [comb(m, i) ** 2 % p for i in range(m + 1)])
    assert gcd(H, H.derivative()).degree == 0
    pattern = degree_pattern(H)
    assert set(pattern) <= {1, 2} and sum(pattern) == m
    assert pattern.count(1) == (3 * _class_number(-p) if p % 4 == 3 else 0)


def test_gcd_conventions():
    ctx = make_field(5)
    x = Polynomial.x(ctx)
    f = (x + 1) * (x ** 2 + 2)
    g = (x + 1) * (x + 3)
    d = gcd(f, g)
    assert d == x + 1
    assert gcd(f, Polynomial(ctx)) == f.monic()[1]
    assert gcd(Polynomial(ctx), f) == f.monic()[1]
    assert gcd(3 * f, 2 * g) == d


def test_mixed_contexts_raise_ctx_mismatch():
    # ranks of one field are not values of another: gcd and the ring
    # operations refuse two contexts with CtxMismatchError, a ValueError,
    # as FieldElement does
    f5 = Polynomial(make_field(5), [6, 1])
    for other in (Polynomial(make_field(7), [1, 1]), Polynomial(make_field(5, 2), [1, 1])):
        for op in (gcd, lambda f, g: gcd(g, f), operator.add, operator.sub, operator.mul, divmod):
            with pytest.raises(CtxMismatchError):
                op(f5, other)
    with pytest.raises(CtxMismatchError):
        f5 + make_field(7)(1)
    with pytest.raises(ValueError):
        gcd(f5, Polynomial(make_field(7), [1, 1]))


def test_evaluate_horner():
    ctx = make_field(7)
    f = Polynomial(ctx, [1, 0, 3, 1])  # x^3 + 3x^2 + 1
    for x in ctx.iter_elements():
        assert f.evaluate(x) == x ** 3 + 3 * x ** 2 + 1


def _factor_corpus():
    # y^(p-1) - h for every unit h, p <= 31, then seeded polynomials, some
    # squared and, where p is small, some times a p-th power
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        ctx = make_field(p)
        for h in range(1, p):
            yield Polynomial(ctx, [p - h] + [0] * (p - 2) + [1])
    for p, n in ((3, 1), (101, 1), (65537, 1), (3, 2), (7, 3)):
        ctx = make_field(p, n)
        rng = random.Random(ctx.q)

        def random_poly(degree):
            return Polynomial.from_ranks(
                ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [1 + rng.randrange(ctx.q - 1)])

        for _ in range(16):
            f = random_poly(rng.randrange(1, 21))
            if rng.random() < 0.3:
                f = f * f
            if p <= 101 and rng.random() < 0.3:
                f = f * random_poly(rng.randrange(1, 3)) ** p
            yield f


def test_factor_output_golden():
    # the factors of a fixed corpus, as (degree, ranks, multiplicity) per
    # factor and the unit's rank, pinned by one sha256
    import hashlib

    out = []
    for f in _factor_corpus():
        fac = factor(f)
        out.append((fac.unit.rank, tuple((g.degree, g.ranks, m) for g, m in fac.factors)))
    assert len(out) == 148 + 5 * 16
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "35c1d21fd5671249ccafa33220544bb5bc8fa680f2f20a1a14c188358aca10dc")
