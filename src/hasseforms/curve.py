"""Weierstrass models y^2 = x^3 + a2 x^2 + a4 x + a6 over odd-order fields.

The a2 term is only allowed in characteristic 3, where the short form
cannot always reach every curve; for p >= 5 construction insists on
a2 = 0.  Nonsingularity is checked at construction time; iter_curves
and twist, which already know the discriminant, skip the recheck.

Invariants follow the b-style formulas specialised to this shape:

    b2 = 4 a2        b4 = 2 a4        b6 = 4 a6
    b8 = -a4^2 + 4 a2 a6
    disc = -b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6
    c4 = b2^2 - 24 b4
    j = c4^3 / disc

On an (a2, a4) row the discriminant is d0 + d1 a6 + d2 a6^2 (_disc_row).
_disc_at is its one evaluator at a6, for the constructor, iter_curves and
the census's witness check, and _singular_a6 gives its roots, the at most
two a6 that the row walks of search skip.

The Hasse invariant A_p is the coefficient of x^(p-1) in
(x^3 + a2 x^2 + a4 x + a6)^((p-1)/2); it vanishes exactly on the
supersingular curves.  With a2 = 0 and m = (p-1)/2 it has the closed form

    A_p = sum of m! / (i! j! k!) * a4^j * a6^k   over 3i + j = p - 1,
                                                  i + j + k = m,

about p/12 terms, and in characteristic 3 (where m = 1) A_3 = a2.  On an
(a2, a4) row it is A_p = a6^k P(a6^2) (_hasse_row), evaluated by Horner.
The level-q variant A_q, the coefficient of x^(q-1) in the ((q-1)/2)
power, is the norm A_p^((q-1)/(p-1)).  See Silverman, The Arithmetic of
Elliptic Curves, section V.4.

A_p and #E each come in two shapes, per curve and per row.  A_p has
one evaluator, _hasse_at, off one table per (a2, a4) row (_hasse_row):
Horner in a6^2, an int loop per a6 over F_p and list comprehensions on
logs with Zech steps over F_q.  hasse_invariant is _hasse_at at one a6,
_row_hasse is _hasse_at on every a6 of the row, and the census reads
it on blocks of a6 (rows its scan reads by A_p) and on a row's
witnesses; Polynomial.pow_truncated is the independent route that tests
and the closed-forms suite hold it to.  #E of one curve over F_p with
p > 229 needs no table: point_count takes baby and giant steps on the
points of E and of its quadratic twist (_count_mestre).  Elsewhere, and
for whole rows, #E has one table per row, the histogram M of the logs
of h = x^3 + a2 x^2 + a4 x over x != 0 (_row_hist, one byte a slot, and
two bit planes that _count_at adds).  _count_at reads it at one a6, on
ranks, for point_count and for the census's witnesses on rows read by
A_p: two popcounts of the planes against one rotated mask per context.
_row_counts reads it at every a6 from one cyclic product over F_q^*, by
the log of a6, for callers that walk whole rows: the census scan over
F_p and the row suites.  Both read a6 = 0 as one parity sum of M
(_count_at_zero).  The tables memoise on their context, one slot each
(gf._ctx_memo: _row_hist, _x_logs, _hasse_row, _hasse_table and the Y
tables _zech_mask and _zech_operand), so they go with the field; the
whole rows, _row_counts and _row_hasse, do not, since no caller reads a
row twice.  Only _hasse_terms and _nonsquare, on p alone, stay at module
level.

The twist kinds live in one table, _TWISTS, of degrees and weights.  A
twist by d scales (a2, a4, a6) by d to the weights (_twist_scales), so
it moves every model of an (a2, a4) row onto one other row.  twist
applies the scales to one model; the twists suite applies them on ranks
and reads each twisted A_p off the _row_hasse row it lands on.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache, lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .errors import (BadCongruenceError, SingularModelError, WrongJInvariantError,
                     ZeroTwistParameterError)
from .gf import FieldCtx, FieldElement, _ctx_memo, _poly_str, _power
from .poly import Polynomial, _cyclic_mul, _slot_width, _unpack

__all__ = ["WeierstrassCurve", "FrobeniusData", "point_count", "hasse_invariant",
           "is_ordinary", "twist", "TWIST_KINDS"]

# kind -> (m, weights of (a2, a4, a6, disc)), the one place the twist kinds
# live: a twist of degree m needs p = 1 mod m, moves the Hasse class by
# d^((p-1)/m) (Silverman, AEC X.5) and multiplies each coefficient by d to
# its weight, 0 where it sets the coefficient to 0
_TWISTS = {"quadratic": (2, (1, 2, 3, 6)), "quartic": (4, (0, 1, 0, 3)),
           "sextic": (6, (0, 0, 1, 2))}
TWIST_KINDS = tuple(_TWISTS)

# byte maps for translate: to 0 or 2 by the parity of a byte (Y), and to
# the digits "0" and "1": bit 0 and bit 1 of a histogram slot, and Y != 0
_TWICE_PARITY = bytes(2 * (b & 1) for b in range(256))
_BIT0 = bytes(48 + (b & 1) for b in range(256))
_BIT1 = bytes(48 + (b >> 1 & 1) for b in range(256))
_NONZERO = bytes([48] + [49] * 255)


class WeierstrassCurve:
    __slots__ = ("ctx", "a2", "a4", "a6", "discriminant")

    def __init__(self, ctx: FieldCtx, a4, a6, a2=0):
        a2 = ctx.element(a2)
        a4 = ctx.element(a4)
        a6 = ctx.element(a6)
        if a2 and ctx.p >= 5:
            raise ValueError(
                f"a2 must be zero for p >= 5 (got a2 = {a2} over {ctx}); "
                "complete the square away")
        disc = _discriminant(a2, a4, a6)
        if not disc:
            rhs = _poly_str((a6, a4, a2, 1), "x")
            raise SingularModelError(f"y^2 = {rhs} over {ctx} is singular")
        self._fill(ctx, a2, a4, a6, disc)

    def _fill(self, ctx, a2, a4, a6, disc) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a4", a4)
        object.__setattr__(self, "a6", a6)
        object.__setattr__(self, "discriminant", disc)

    @classmethod
    def _unchecked(cls, ctx, a2, a4, a6, disc) -> "WeierstrassCurve":
        # for callers that already hold the discriminant: a2, a4, a6 are
        # elements of ctx with a2 = 0 unless p = 3, and disc is their
        # nonzero discriminant; nothing is checked again
        curve = object.__new__(cls)
        curve._fill(ctx, a2, a4, a6, disc)
        return curve

    def __setattr__(self, name, value):
        raise AttributeError("WeierstrassCurve is immutable")

    def __reduce__(self):
        return (WeierstrassCurve, (self.ctx, self.a4, self.a6, self.a2))

    @property
    def j_invariant(self) -> FieldElement:
        b2 = 4 * self.a2
        b4 = 2 * self.a4
        c4 = b2 * b2 - 24 * b4
        return c4**3 / self.discriminant

    def f_polynomial(self) -> Polynomial:
        """The right-hand side x^3 + a2 x^2 + a4 x + a6."""
        return Polynomial(self.ctx, (self.a6, self.a4, self.a2, self.ctx.one))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeierstrassCurve):
            return NotImplemented
        return (self.ctx == other.ctx and self.a2 == other.a2
                and self.a4 == other.a4 and self.a6 == other.a6)

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.n, self.a2.rank,
                     self.a4.rank, self.a6.rank))

    def __repr__(self) -> str:
        rhs = _poly_str((self.a6, self.a4, self.a2, 1), "x")
        return f"WeierstrassCurve(y^2 = {rhs} over F_{self.ctx.q})"


def discriminant_general(a2, a4, a6) -> FieldElement:
    """The b-invariant discriminant formula, term by term."""
    b2 = 4 * a2
    b4 = 2 * a4
    b6 = 4 * a6
    b8 = -(a4 * a4) + 4 * a2 * a6
    return -(b2 * b2) * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _disc_row(ctx: FieldCtx, r2: int, r4: int) -> tuple[int, int, int]:
    # ranks (d0, d1, d2) with disc = d0 + d1 a6 + d2 a6^2 on the (a2, a4)
    # row: the general formula with the vanishing terms dropped, read at a6
    # by _disc_at and solved by _singular_a6; tests pin it against
    # discriminant_general exhaustively
    mul = ctx._mul
    s4 = mul(r4, r4)
    if ctx.p == 3:
        # a4^2 (a2^2 - a4) - a2^3 a6
        s2 = mul(r2, r2)
        return mul(s4, ctx._sub(s2, r4)), ctx._neg(mul(s2, r2)), 0
    # short model (a2 = 0 for p >= 5): -16 (4 a4^3 + 27 a6^2)
    p, unit = ctx.p, ctx._weights[0]
    return mul(-64 % p * unit, mul(s4, r4)), 0, -432 % p * unit


def _disc_at(ctx: FieldCtx, d: tuple[int, int, int], r6s) -> list[int]:
    # the discriminant d0 + (d1 + d2 a6) a6 of a _disc_row row, as a rank,
    # at every a6 rank of r6s: on ints over F_p, where a rank is its value,
    # and through the rank kernels over F_q.  The one evaluator: the
    # constructor, iter_curves and the census's witness check read it
    d0, d1, d2 = d
    if ctx.n == 1:
        p = ctx.p
        return [(d0 + (d1 + d2 * r6) * r6) % p for r6 in r6s]
    add, mul = ctx._add, ctx._mul
    return [add(d0, mul(add(d1, mul(d2, r6)), r6)) for r6 in r6s]


def _singular_a6(ctx: FieldCtx, d: tuple[int, int, int]) -> tuple[int, ...] | range:
    # ranks of the a6 where the row's discriminant d0 + d1 a6 + d2 a6^2
    # vanishes: every a6 if it is zero, else at most two roots
    d0, d1, d2 = d
    neg, mul, inv = ctx._neg, ctx._mul, ctx._inv
    if not d2:  # p = 3: linear in a6
        if d1:
            return (neg(mul(d0, inv(d1))),)
        return () if d0 else range(ctx.q)
    # p >= 5: d1 = 0, so a6^2 = -d0/d2, whose roots have half its even log
    s = neg(mul(d0, inv(d2)))
    if not s:
        return (0,)
    exp, log, _ = ctx._log_tables
    if log[s] & 1:
        return ()
    root = exp[log[s] // 2]
    return root, neg(root)


def _discriminant(a2, a4, a6) -> FieldElement:
    ctx = a4.ctx
    return FieldElement(ctx, _disc_at(ctx, _disc_row(ctx, a2.rank, a4.rank), (a6.rank,))[0])


class FrobeniusData(NamedTuple):
    """Point count over the base field and derived Frobenius trace.

    count is the number of projective points including the one at
    infinity; beta = q + 1 - count satisfies beta^2 <= 4q, strictly so
    when p does not divide beta; ordinary means p does not divide beta.
    A NamedTuple: it compares and hashes as the tuple of its fields, and
    survives pickle and copy.
    """

    count: int
    beta: int
    ordinary: bool


def point_count(curve: WeierstrassCurve) -> FrobeniusData:
    """#E over the base field, one point at infinity included, and its trace.

    Over F_p with p > 229 (_MESTRE_P) by baby and giant steps on points
    of E and of its quadratic twist (_count_mestre), with no table: about
    p^(1/4) group operations a point.  Over F_q with n > 1, and over F_p
    with p <= 229, where E and its twist may have no point whose order
    pins #E, by the quadratic character: each affine x contributes
    1 + chi(f(x)) points, and with f = h + a6,
    h(x) = x^3 + a2 x^2 + a4 x, the histogram M[u] = #{x != 0 : log h(x)
    = u} (canonical generator g) is tabulated once per (a2, a4) row
    (_row_hist).  At a6 = g^lc, chi(h + a6) = chi(a6) (1 - Y[log h - lc])
    with Y[t] = 1 - chi(1 + g^t), and an x with h(x) = 0 adds chi(a6),
    so the affine character sum is chi(a6) (q - S) with
    S = sum_u M[u] Y[u - lc].  Y is one byte string per context
    (_zech_y), 0 or 2 except at the one t where 1 + g^t = 0,
    where it is 1; so S is twice the sum of the M[u] that Y rotated by
    lc keeps nonzero, less M at that one slot.  The row memo holds M with
    its bit planes, ints with bit u set where bit 0, and bit 1, of M[u]
    is (M[u] <= 3), and each context one int with bit t set where
    Y[t] != 0, so that sum is popcount(low & rot) + 2 popcount(high & rot)
    with rot the mask rotated by lc: a shift, two ands and two popcounts
    over q/8 bytes.  On 2 vCPU a count takes about 0.4 ms at q = 1021^2.
    That is _count_at on ranks, which also counts the census's witnesses;
    whole-row callers read _row_counts.  Tests hold the two routes to
    each other on every model of F_233 and F_239.
    """
    ctx, r2, r4, r6 = curve.ctx, curve.a2.rank, curve.a4.rank, curve.a6.rank
    if ctx.n == 1 and ctx.p > _MESTRE_P:
        count = _count_mestre(ctx.p, r4, r6)
    else:
        count = _count_at(ctx, r2, r4, r6)
    beta = ctx.q + 1 - count
    if not _in_trace_bound(ctx, beta):
        raise RuntimeError(f"trace bound violated for {curve!r}: beta = {beta}, this is a bug")
    return FrobeniusData(count=count, beta=beta, ordinary=beta % ctx.p != 0)


def _count_at(ctx: FieldCtx, r2: int, r4: int, r6: int) -> int:
    # #E of the model with ranks (a2, a4, a6), off the row's histogram M and
    # its bit planes: with Y rotated by lc = log a6, the sum of M[u] Y[u - lc]
    # is twice the M[u] that Y keeps nonzero, by popcounts of the planes
    # against the rotated mask, less the one slot where Y is 1
    q, order = ctx.q, ctx.q - 1
    row = _row_hist(ctx, r2, r4)
    hist = row[0]
    if not r6:
        return _count_at_zero(q, hist)
    if len(row) == 1:  # the row's first count at a6 != 0 builds its planes
        row += _bits(hist.translate(_BIT0)), _bits(hist.translate(_BIT1))
    _, low, high = row
    lc = ctx._log_tables[1][r6]
    rot = _zech_mask(ctx) >> order - lc  # bit u: Y[u - lc] != 0
    s = (2 * ((low & rot).bit_count() + 2 * (high & rot).bit_count())
         - hist[(order // 2 + lc) % order])
    return 1 + q + (q - s) * (1 - 2 * (lc & 1))


def _count_at_zero(q: int, hist: bytearray) -> int:
    # #E at a6 = 0 off the row's histogram M: chi(h(x)) = (-1)^log h(x), so
    # the affine character sum is the M[u] at even u less those at odd u
    return 1 + q + sum(hist) - 2 * sum(hist[1::2])


# Mestre's theorem in Schoof's form (J. Theor. Nombres Bordeaux 7, 1995,
# section 3): for every prime p > 229, E or its quadratic twist has a point
# whose order has one multiple in the Hasse interval; at p = 229 some curve
# has none
_MESTRE_P = 229


@lru_cache(maxsize=1)
def _nonsquare(p: int) -> int:
    # the least non-square mod an odd prime p, by Euler's criterion
    return next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)


def _sqrt(v: int, p: int, z: int) -> int | None:
    # a square root of v mod p, None where v is not a square: Tonelli-Shanks
    # (Cohen, GTM 138, 1.5.1) with the non-square z; a non-square shows as
    # t of order 2^s, the whole 2-part
    if not v:
        return 0
    s, odd = 0, p - 1
    while not odd & 1:
        odd >>= 1
        s += 1
    c, t, y = pow(z, odd, p), pow(v, odd, p), pow(v, (odd + 1) >> 1, p)
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
            if i == s:
                return None
        b = pow(c, 1 << (s - i - 1), p)
        y, c = y * b % p, b * b % p
        t, s = t * c % p, i
    return y


def _ec_add(P, Q, a4: int, p: int):
    # the sum of affine points (x, y) on y^2 = x^3 + a4 x + a6 over F_p,
    # None the point at infinity
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if not (y1 + y2) % p:
            return None
        lam = (3 * x1 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _multiples(P, a4: int, p: int, lo: int, hi: int) -> list[int]:
    """The multiples of the order r of P in [lo, hi], which holds one.

    Shanks's baby and giant steps (Cohen, GTM 138, 5.4.1), with m =
    isqrt((hi - lo)/2) + 1.  Baby steps jP for 1 <= j <= m are keyed by
    x, so that one match reads both +-jP.  The first jP, j <= m + 1, at
    the point at infinity gives r = j, and the first whose x repeats an
    earlier j' (so jP = -j'P) gives r = j + j': small orders, 2 among
    them, end here.  Otherwise r > 2m + 1, so each window [c - m, c + m]
    of the giant steps, the multiples c of 2m + 1 from the first window
    that reaches lo, holds at most one multiple, and cP = +-jP shows it
    as c -+ j; every window up to hi is read.  Needs lo > m + 1, as at
    every p > 229, so that the first giant step is past 0.
    """
    m = isqrt((hi - lo) // 2) + 1
    babies, Q = {}, P
    for j in range(1, m + 2):
        if Q is None or Q[0] in babies:
            r = j if Q is None else j + babies[Q[0]][0]
            return list(range(-(-lo // r) * r, hi + 1, r))
        if j > m:
            break
        babies[Q[0]] = j, Q[1]
        last, Q = Q, _ec_add(Q, P, a4, p)
    # Q = (m + 1) P and last = m P; the giant steps are the multiples c of
    # the stride from the first whose window reaches lo, so cP = (c/stride) S
    stride = 2 * m + 1
    S = _ec_add(Q, last, a4, p)
    k = (lo + m) // stride
    R, c = _power(S, k, lambda P, Q: _ec_add(P, Q, a4, p), None), k * stride
    found = []
    while c - m <= hi:
        if R is None:
            found.append(c)
        elif R[0] in babies:
            j, y = babies[R[0]]
            found.append(c - j if R[1] == y else c + j)
        R, c = _ec_add(R, S, a4, p), c + stride
    return [M for M in found if lo <= M <= hi]


def _count_mestre(p: int, a4: int, a6: int) -> int:
    """#E for y^2 = x^3 + a4 x + a6 over F_p, p > 229, with no table.

    Shanks and Mestre (Cohen, GTM 138, 7.4.3; Schoof, J. Theor. Nombres
    Bordeaux 7, 1995, section 3): with d the least non-square, the twist
    E': y^2 = x^3 + d^2 a4 x + d^3 a6 has #E' = 2p + 2 - #E, and both lie
    in the Hasse interval p + 1 +- isqrt(4p).  x = 0, 1, 2, ... in turn
    gives a point of E where f(x) is a square (y from _sqrt, y = 0 at a
    root of f) and the point (d x, d sqrt(d f(x))) of E' where it is not,
    so the two walks interleave.  #E is a multiple of the order of each
    point of E in the interval, and 2p + 2 - #E one of each point of E'
    (_multiples); the candidates are the N that are both, point after
    point, until one is left.  By Mestre's theorem that happens, once
    the orders reach the group exponents if not before, for every
    p > 229.
    """
    d = _nonsquare(p)
    w = isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    a4t, twice = a4 * d * d % p, 2 * p + 2
    cands = None
    for x in range(p):
        v = ((x * x + a4) * x + a6) % p
        y = _sqrt(v, p, d)
        if y is not None:
            ns = _multiples((x, y), a4, p, lo, hi)
        else:
            P = d * x % p, d * _sqrt(d * v % p, p, d) % p
            ns = [twice - n for n in _multiples(P, a4t, p, lo, hi)]
        cands = set(ns) if cands is None else cands.intersection(ns)
        if len(cands) == 1:
            return cands.pop()
        if not cands:
            break
    raise RuntimeError(f"#E of y^2 = x^3 + {a4} x + {a6} over F_{p} is not "
                       "pinned by its points and its twist's, this is a bug")


def _decode(ctx: FieldCtx, r2: int, r4: int, r6: int) -> WeierstrassCurve:
    # the model with coefficient ranks (a2, a4, a6), checked as any other
    return WeierstrassCurve(ctx, ctx.from_rank(r4), ctx.from_rank(r6),
                            a2=ctx.from_rank(r2))


def _in_trace_bound(ctx: FieldCtx, beta: int) -> bool:
    # the trace bound that point_count checks: beta^2 <= 4q, with equality
    # only where p | beta, which happens only at supersingular curves over
    # fields of square order
    b2, bound = beta * beta, 4 * ctx.q
    return b2 < bound or (b2 == bound and not beta % ctx.p)


@_ctx_memo
def _zech_operand(ctx: FieldCtx) -> tuple:
    # what the row product needs of a context, in W-bit slots: Y reversed
    # (Y[-s] at slot s), the offsets 1 + 2q at even and 1 at odd slots,
    # and the masks of the even and the odd slots.  Every slot stays
    # below 2q + 2.  Built at C level as little-endian bytes: Y's bytes
    # spread to the low byte of each slot, the rest one slot pair repeated
    q, y = ctx.q, _zech_y(ctx)
    W = _slot_width(2 * q + 2)
    B, pairs = W // 8, (q - 1) // 2
    y_rev = bytearray(2 * pairs * B)
    y_rev[::B] = y[:1] + y[:0:-1]
    even = int.from_bytes((b"\xff" * B + bytes(B)) * pairs, "little")
    offsets = ((1 + 2 * q) | 1 << W).to_bytes(2 * B, "little") * pairs
    return (W, int.from_bytes(y_rev, "little"), int.from_bytes(offsets, "little"),
            even, even << W)


@_ctx_memo
def _zech_mask(ctx: FieldCtx) -> int:
    # bit t is set where Y[t] != 0, the q - 1 bits written twice, so that
    # shifting right by q - 1 - lc bits rotates the mask by lc
    y = _zech_y(ctx).translate(_NONZERO)
    return _bits(y + y)


def _zech_y(ctx: FieldCtx) -> bytes:
    # Y[t] = 1 - chi(1 + g^t) for every t: 0 or 2 by the parity of zech[t],
    # and 1 at t = (q-1)/2, the one t where 1 + g^t = 0 (zech[t] = -1).
    # The parity of an int is that of its lowest byte, read from the raw
    # items and mapped to 0 or 2 by one translate, all at C level; its two
    # readers keep what they build from it
    zech = ctx._log_tables[2]
    k = zech.itemsize
    y = bytearray(zech.tobytes()[0 if sys.byteorder == "little" else k - 1::k]
                  .translate(_TWICE_PARITY))
    y[(ctx.q - 1) // 2] = 1
    return bytes(y)


def _bits(digits: bytes) -> int:
    # the int with bit u set where digits[u] is "1", at C level: int reads
    # a base-2 string, most significant digit first, in linear time
    return int(digits[::-1], 2)


def _row_counts(ctx: FieldCtx, r2: int, r4: int) -> array:
    """#E for every a6 of the (a2, a4) row, by the log of a6.

    F_q^* is cyclic, so with the row's histogram M (_row_hist) the sums
    point_count takes for every a6 = g^lc at once are
    C[lc] = sum_u M[u] Y[u - lc], a cyclic correlation over Z/(q - 1):
    one packed product of M with Y reversed (Lidl and Niederreiter,
    Finite Fields, ch. 2 and 5).  Then #E = 1 + q + chi(a6) (q - C[lc])
    at slot lc; a6 = 0 takes the parity sum of the same M
    (_count_at_zero) in the last slot, so with log = ctx._log_tables[1],
    whose log[0] is -1, row[log[a6]] reads every a6.  On 2 vCPU a
    product costs about 6 ms at 10^4 slots and 20 s at 923,520, where one
    _count_at takes well under 1 ms and the histogram 0.1-0.2 s, so it
    serves whole rows only: the census over F_p, which keeps the rows it
    reads, and the bridge and norm suites, which read each row once; so
    it keeps no memo.  No trace bound is checked here, since the row may
    hold singular models.
    """
    q, order = ctx.q, ctx.q - 1
    W, y_rev, offsets, even, odd = _zech_operand(ctx)
    hist = _row_hist(ctx, r2, r4)[0]
    # M packed at C level: its bytes spread to the low byte of each W-bit
    # slot, little-endian as packed ints are
    wide = bytearray(order * (W // 8))
    wide[::W // 8] = hist
    c = _cyclic_mul(W, int.from_bytes(wide, "little"), y_rev, order)
    # slot by slot with no borrow or carry: 1 + 2q - C where chi(a6) = 1
    # (even slots), 1 + C where it is -1 (odd slots); W bits a count,
    # since the census keeps its rows
    counts = _unpack(W, offsets + (c & odd) - (c & even), order)
    counts.append(_count_at_zero(q, hist))
    return counts


@_ctx_memo
def _row_hist(ctx: FieldCtx, r2: int, r4: int) -> list:
    # [M] for the row's histogram M (_log_hist); _count_at appends M's bit
    # planes on the row's first count at a6 != 0, so rows read whole by
    # _row_counts build none.  One slot on the context: point_count over
    # iter_curves and the census's witness checks count a row's models in
    # a run, and _row_counts reads each row once; run_suite logs the
    # context's builds as row histograms built
    return [_log_hist(ctx, r2, r4)]


def _log_hist(ctx: FieldCtx, r2: int, r4: int) -> bytearray:
    # M[u] = #{x != 0 : log h(x) = u} for h(x) = x^3 + a2 x^2 + a4 x, u mod
    # q - 1: Horner on logarithms, where times x adds e at x = g^e and plus
    # c is one Zech step, log(y + c) = log c + zech[log y - log c].  Each
    # M[u] is at most 3, since h(x) = g^u has at most 3 roots, so a byte
    # holds it.  With a2 != 0 the x side, the logs of (x + a2) x, depends
    # on a2 alone: _x_logs keeps it in the context's slot, keyed on a2,
    # so the q rows of a char-3 a2 slab, which the enumeration walks in a
    # run, build it once
    _, log, zech = ctx._log_tables
    order = ctx.q - 1
    hist = bytearray(order)
    if not r2 and not r4:
        # log h = 3e: every residue of gcd(3, q - 1) once per e
        k = gcd(3, order)
        hist[::k] = bytes([k]) * (order // k)
        return hist
    if not r2:
        # log h = l4 + e + zech[2e - l4].  x and -x = g^(e + (q-1)/2) share
        # x^2 + a4, so the first half of the e counts M shifted by half a
        # turn too, added slot by slot without carries since M[u] <= 3;
        # and on that half the Zech index walks the table with stride 2
        # from s = -l4 round to s again, two slices at C level with no
        # modulo inside the index
        l4, half = log[r4], order // 2
        s = -l4 % order
        for c, z in enumerate(zech[s::2] + zech[s & 1:s:2], l4):
            if z >= 0:
                hist[(z + c) % order] += 1
        turned = int.from_bytes(hist[half:] + hist[:half], "little")
        return bytearray((int.from_bytes(hist, "little") + turned).to_bytes(order, "little"))
    ys = _x_logs(ctx, r2)  # logs of (x + a2) x, None where it vanishes
    if not r4:
        for e, y in enumerate(ys):
            if y is not None:
                hist[(y + e) % order] += 1
        return hist
    # plus a4, then the last times x
    l4 = log[r4]
    for c, y in enumerate(ys, l4):
        if y is None:
            hist[c % order] += 1
        elif (z := zech[(y - l4) % order]) >= 0:
            hist[(z + c) % order] += 1
    return hist


@_ctx_memo
def _x_logs(ctx: FieldCtx, r2: int) -> list:
    # logs of (x + a2) x at x = g^e for every e, None where it vanishes:
    # the x side of h, which depends on a2 alone, so one slot on the
    # context serves the q rows of a char-3 a2 slab
    _, log, zech = ctx._log_tables
    order, l2 = ctx.q - 1, log[r2]
    return [None if (z := zech[(e - l2) % order]) < 0 else l2 + z + e for e in range(order)]


@cache
def _hasse_terms(p: int) -> tuple[tuple[int, int, int], ...]:
    # (j, k, m!/(i! j! k!) mod p) for every term of the closed form; all
    # factorials stay below p, so they are invertible
    m = (p - 1) // 2
    fact = [1]
    for v in range(1, m + 1):
        fact.append(fact[-1] * v % p)
    terms = []
    for i in range((m + 1) // 2, (p - 1) // 3 + 1):
        j = p - 1 - 3 * i
        k = m - i - j
        terms.append((j, k, fact[m] * pow(fact[i] * fact[j] * fact[k], -1, p) % p))
    return tuple(terms)


@_ctx_memo
def _hasse_row(ctx: FieldCtx, r2: int, r4: int) -> tuple[int, tuple[int, ...]]:
    # (k, ranks of P, highest power first) with A_p = a6^k P(a6^2) on the
    # (a2, a4) row: term i carries a6^(2i - m), so the powers climb by 2,
    # and a4^j, where j climbs by 3 from the last term, so each a4^j after
    # the first is the one before times a4^3; zero low coefficients
    # (a4 = 0) move into k.  One slot on the context: rows repeat.
    terms = _hasse_terms(ctx.p)
    if not terms:
        return 0, (r2,) if r2 else ()  # A_3 = a2
    mul, pw, unit = ctx._mul, ctx._pow, ctx._weights[0]
    cube, power, coeffs = pw(r4, 3), pw(r4, terms[-1][0]), []
    for _, _, c in reversed(terms):
        coeffs.append(mul(c * unit, power))
        power = mul(power, cube)
    k = terms[0][1]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
        k += 2
    return k, tuple(coeffs)


def _hasse_at(ctx: FieldCtx, k: int, coeffs: tuple[int, ...], r6s) -> list[int]:
    """A_p = a6^k P(a6^2), as a rank, at every a6 rank of r6s.

    k and coeffs are a row's _hasse_row; this is the one code that
    evaluates them.  Over F_p a rank is its value, and Horner runs on
    ints, one loop per a6.  Over F_q it runs on all of r6s at once, one
    list comprehension per coefficient of P, on logs, where times a6^2
    adds 2 log a6 and plus c is one Zech step, log(y + c) = log c +
    zech[log y - log c]; every coefficient of P is nonzero, since a zero
    one is a4^j with a4 = 0, which _hasse_row folds into k.  a6 = 0
    (log -1) takes a unit's place there and reads P(0), the last
    coefficient, where k = 0.  A row with no coefficient, or one and
    k = 0 (A_3 = a2, A_5 = 2 a4), is constant.  hasse_invariant,
    _row_hasse and the census scan's rows read by A_p call it; tests pin
    it against Polynomial.pow_truncated.
    """
    if not coeffs or (len(coeffs) == 1 and not k):
        return [coeffs[0] if coeffs else 0] * len(r6s)
    q = ctx.q
    if ctx.n == 1:
        out = []
        for x in r6s:
            s, acc = x * x, 0
            for c in coeffs:
                acc = (acc * s + c) % q
            out.append(acc * pow(x, k, q) % q if k else acc)
        return out
    exp, log, zech = ctx._log_tables
    order = q - 1
    logs = [log[r] for r in r6s]
    lcs = [log[c] for c in coeffs]
    acc = [lcs[0]] * len(logs)  # logs of the partial P, None for zero
    if len(lcs) > 1:
        twice = [2 * e for e in logs]
        for lc in lcs[1:]:
            acc = [lc if a is None
                   else None if (z := zech[(a + t - lc) % order]) < 0 else lc + z
                   for a, t in zip(acc, twice)]
    at_zero = 0 if k else coeffs[-1]
    return [at_zero if e < 0 else 0 if a is None else exp[(a + k * e) % order]
            for a, e in zip(acc, logs)]


def _row_hasse(ctx: FieldCtx, r2: int, r4: int) -> array:
    """A_p, as a rank, for every a6 of the (a2, a4) row, by the rank of a6.

    The whole-row shape of hasse_invariant: _hasse_at on range(q), off
    the same row table (_hasse_row).  The table hangs on the closed form,
    not on the row: rows with one (k, coeffs) share it (_hasse_table, one
    slot on the context, keyed on (k, coeffs)), as the q rows of a char-3
    a2 slab do, where A_3 = a2.  So the bridge suite over F_3^3 reads 728
    rows off 27 tables, and run_suite logs the tables built.  No caller
    reads a row twice (the twists suite keeps its rows for the run), so
    the row keeps no memo of its own.  The shared table is read only.
    """
    return _hasse_table(ctx, *_hasse_row(ctx, r2, r4))


@_ctx_memo
def _hasse_table(ctx: FieldCtx, k: int, coeffs: tuple[int, ...]) -> array:
    # _hasse_at on range(q) for one closed form: rows with equal (k, coeffs)
    # share one table, as the q rows of a char-3 a2 slab do (A_3 = a2); its
    # builds are the context's count of Hasse tables built
    return array("i", _hasse_at(ctx, k, coeffs, range(ctx.q)))


def hasse_invariant(curve: WeierstrassCurve, level: str = "p") -> FieldElement:
    """Coefficient of x^(p-1) in f^((p-1)/2), or of x^(q-1) at level "q".

    Level p is A_p = a6^k P(a6^2) off the (a2, a4) row (_hasse_row,
    A_3 = a2 included), _hasse_at at this one a6.  Level q is the norm
    A_p^((q-1)/(p-1)) (Silverman, AEC section V.4).  Tests pin both
    levels, and the closed-forms suite level p, against
    f_polynomial().pow_truncated.
    """
    ctx = curve.ctx
    if level not in ("p", "q"):
        raise ValueError(f'level must be "p" or "q", got {level!r}')
    row = _hasse_row(ctx, curve.a2.rank, curve.a4.rank)
    a = FieldElement(ctx, _hasse_at(ctx, *row, (curve.a6.rank,))[0])
    return a if level == "p" else a ** ((ctx.q - 1) // (ctx.p - 1))


def is_ordinary(curve: WeierstrassCurve) -> bool:
    """True when the Hasse invariant A_p is nonzero."""
    return bool(hasse_invariant(curve))


def _twist_kinds(ctx: FieldCtx, r4: int, r6: int) -> tuple[str, ...]:
    # the twist kinds that apply to the nonsingular model with ranks
    # (a4, a6), on ranks: for p >= 5, where a2 = 0, c6 = -864 a6 and
    # c4 = -48 a4, so j = 1728 iff a6 = 0 and j = 0 iff a4 = 0 (Silverman,
    # AEC III.1); in characteristic 3 neither congruence holds
    p = ctx.p
    if not r6 and p % _TWISTS["quartic"][0] == 1:
        return "quadratic", "quartic"
    if not r4 and p % _TWISTS["sextic"][0] == 1:
        return "quadratic", "sextic"
    return ("quadratic",)


def _twist_degree(p: int, kind: str) -> int:
    # the degree m of a twist of this kind over a field of characteristic
    # p, checked against the congruence p = 1 mod m that it needs
    if kind not in _TWISTS:
        raise ValueError(f"kind must be one of {TWIST_KINDS}, got {kind!r}")
    m = _TWISTS[kind][0]
    if p % m != 1:
        raise BadCongruenceError(f"{kind} twists need p = 1 mod {m}, got p = {p}")
    return m


def _twist_scales(ctx: FieldCtx, d: int, kind: str) -> tuple[int, int, int, int]:
    # ranks (s2, s4, s6, s_disc) that a twist by the unit of rank d
    # multiplies (a2, a4, a6, disc) by: d to the weights of _TWISTS
    return tuple([ctx._pow(d, w) if w else 0 for w in _TWISTS[kind][1]])


def twist(curve: WeierstrassCurve, d, kind: str = "quadratic") -> WeierstrassCurve:
    """Twist by a nonzero parameter d.

    quadratic: any model; scales (a2, a4, a6) by (d, d^2, d^3).
    quartic:   j = 1728 and p = 1 mod 4 only; (a4, 0) -> (d*a4, 0).
    sextic:    j = 0 and p = 1 mod 6 only; (0, a6) -> (0, d*a6).

    The kinds live in _TWISTS.  The discriminant is weighted homogeneous
    of weight 6 in (a2, a4, a6) with weights (1, 2, 3), so the twist's is
    d^6, d^3 or d^2 times the curve's (tests pin it against
    discriminant_general): a twist of a nonsingular model by d != 0 is
    nonsingular.  j is checked first, on ranks as in _twist_kinds: for
    p >= 5 j = 1728 iff a6 = 0 and j = 0 iff a4 = 0, and for p = 3
    j = 0 = 1728 iff a2 = 0; then p = 1 mod m (_twist_degree).
    """
    ctx = curve.ctx
    d = ctx.element(d)
    if not d:
        raise ZeroTwistParameterError("twist parameter must be nonzero")
    if kind in ("quartic", "sextic"):
        j = 1728 if kind == "quartic" else 0
        if (curve.a2 if ctx.p == 3 else curve.a6 if kind == "quartic" else curve.a4).rank:
            raise WrongJInvariantError(
                f"{kind} twists need j = {j}, got j = {curve.j_invariant}")
    _twist_degree(ctx.p, kind)
    mul, zero = ctx._mul, ctx.zero
    s2, s4, s6, sd = _twist_scales(ctx, d.rank, kind)
    return WeierstrassCurve._unchecked(
        ctx, FieldElement(ctx, mul(s2, curve.a2.rank)) if s2 else zero,
        FieldElement(ctx, mul(s4, curve.a4.rank)) if s4 else zero,
        FieldElement(ctx, mul(s6, curve.a6.rank)) if s6 else zero,
        FieldElement(ctx, mul(sd, curve.discriminant.rank)))
