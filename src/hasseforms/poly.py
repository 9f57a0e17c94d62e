"""Univariate polynomials over a FieldCtx.

A polynomial stores the lex ranks of its coefficients (see gf.py), low
degree first with trailing zeros stripped, so the zero polynomial has no
ranks and degree -1.  poly is the one owner of polynomial arithmetic in
the package; gf keeps elements only.  Arithmetic runs on rank lists
through one set of primitives, _mul_trunc, _divmod, _monic, _gcd and
_derivative, each the only function for its operation on both fields.
Each that does arithmetic branches on the field: over F_p, where a rank
is the value, on ints with an inline % p (one convolution, reduced once
per output coefficient, and one long division); over F_q with n > 1
through the FieldCtx rank kernels.  _gcd is one Euclid loop on both, the
divisor made monic at each step.
Polynomial's methods wrap them, and factor and degree_pattern stay on
rank lists from their entry to factor's output.
_mul_trunc serves *, ** and pow_truncated, which drops every coefficient
above a cap: the slow reference that the closed-forms suite and the
audit rows hasse_invariant and hasse_at (tests/test_audits.py) hold the
closed form for A_p in curve.py to, not a sweep kernel.

factor is deterministic and works in one residue ring F_q[x]/(m) per
modulus m (_Residues).  The distinct-degree split (_distinct_degree)
steps x^(q^d) by the q-th power map of the ring of the squarefree part
and yields the product of the factors of each degree; its degree over d
counts them, which is all degree_pattern reads.  factor then runs the
equal-degree split on each product of several factors: each candidate is
powered once on the whole product and refines every unfinished piece,
with no recursion.  The candidates come in one fixed order (a Weyl
sequence of ranks), so repeated runs take the same path, and the factors
are sorted, so the output does not depend on that order.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import NamedTuple

from .errors import CtxMismatchError, ZeroPolynomialError
from .gf import FieldCtx, FieldElement, _poly_str, _power, logger

__all__ = ["Polynomial", "Factorization", "gcd", "factor", "degree_pattern"]


class Polynomial:
    """A polynomial over ctx, stored as the lex ranks of its coefficients.

    ranks runs low degree first with trailing zeros stripped; coeffs,
    indexing, lead and printing derive FieldElements from it.  The
    constructor coerces ints, coefficient tuples and elements;
    from_ranks trusts kernel output, as FieldElement(ctx, rank) does.
    """

    __slots__ = ("ctx", "ranks")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        self._set(ctx, [ctx.element(c).rank for c in coeffs])

    @classmethod
    def from_ranks(cls, ctx: FieldCtx, ranks) -> "Polynomial":
        # assumes every rank is in [0, q), as kernels return them
        self = object.__new__(cls)
        self._set(ctx, list(ranks))
        return self

    def _set(self, ctx: FieldCtx, ranks: list[int]) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ranks", tuple(_strip(ranks)))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # not through the constructor: for n > 1 an int there is a prime
        # field value, not a rank
        return (Polynomial.from_ranks, (self.ctx, self.ranks))

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Polynomial":
        return cls(ctx, (0, 1))

    @classmethod
    def const(cls, ctx: FieldCtx, c) -> "Polynomial":
        return cls(ctx, (c,))

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.ctx, r) for r in self.ranks)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.ranks) - 1

    @property
    def lead(self) -> FieldElement:
        return self[self.degree] if self.ranks else self.ctx.zero

    @property
    def is_monic(self) -> bool:
        return bool(self.ranks) and self.ranks[-1] == self.ctx._weights[0]

    def __bool__(self) -> bool:
        return bool(self.ranks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.ranks == other.ranks

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.n, self.ranks))

    def __getitem__(self, i: int) -> FieldElement:
        """Coefficient of x**i; zero beyond the degree."""
        if i < 0:
            raise IndexError("coefficient index must be >= 0")
        return FieldElement(self.ctx, self.ranks[i] if i < len(self.ranks) else 0)

    # -- ring operations, wrapping the rank-list primitives ---------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.ranks, other.ranks
        if len(a) < len(b):
            a, b = b, a
        add = self.ctx._add
        return Polynomial.from_ranks(
            self.ctx, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + -self

    def __neg__(self):
        return Polynomial.from_ranks(self.ctx, map(self.ctx._neg, self.ranks))

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.ctx != self.ctx:
                raise CtxMismatchError(
                    f"cannot combine polynomials over {self.ctx} and {other.ctx}")
            return other
        if isinstance(other, (int, FieldElement)):
            return Polynomial(self.ctx, (other,))
        return None

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        return Polynomial.from_ranks(ctx, _mul_trunc(self.ranks, other.ranks, ctx))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _divmod(list(self.ranks), other.ranks, self.ctx)
        return Polynomial.from_ranks(self.ctx, quo), Polynomial.from_ranks(self.ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Polynomial":
        return self._power(e, None)

    def pow_truncated(self, e: int, cap: int) -> "Polynomial":
        """self**e with every coefficient above degree cap dropped.

        Exact on degrees 0..cap, by truncated square-and-multiply.  This
        is the independent reference for curve.hasse_invariant, so it
        knows nothing about cubics or Hasse coefficients.
        """
        if cap < 0:
            raise ValueError("cap must be >= 0")
        return self._power(e, cap)

    def _power(self, e: int, cap: int | None) -> "Polynomial":
        # square-and-multiply (gf._power); with a cap, degrees above it
        # are dropped
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        ctx = self.ctx
        base = self.ranks[: None if cap is None else cap + 1]
        return Polynomial.from_ranks(
            ctx, _power(base, e, lambda a, b: _mul_trunc(a, b, ctx, cap), [ctx._weights[0]]))

    # -- helpers ---------------------------------------------------------

    def evaluate(self, x) -> FieldElement:
        ctx = self.ctx
        x = ctx.element(x).rank
        add, mul = ctx._add, ctx._mul
        acc = 0
        for c in reversed(self.ranks):
            acc = add(mul(acc, x), c)
        return FieldElement(ctx, acc)

    def derivative(self) -> "Polynomial":
        return Polynomial.from_ranks(self.ctx, _derivative(self.ranks, self.ctx))

    def monic(self) -> tuple[FieldElement, "Polynomial"]:
        """Split off the leading coefficient: returns (unit, monic part)."""
        if not self or self.is_monic:
            return self.ctx.one, self
        return self.lead, Polynomial.from_ranks(self.ctx, _monic(self.ranks, self.ctx))

    def to_str(self) -> str:
        return _poly_str(self.coeffs, "x")

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_str()!r} over F_{self.ctx.q})"


# -- rank-list primitives: inline % p over F_p, rank kernels over F_q ----

def _strip(a: list[int]) -> list[int]:
    # a without its trailing zeros, in place
    while a and not a[-1]:
        a.pop()
    return a


def _mul_trunc(a, b, ctx: FieldCtx, cap=None) -> list[int]:
    # the product of two rank sequences, dropping degrees above cap if given
    if not a or not b:
        return []
    L = len(a) + len(b) - 1
    if cap is not None:
        L = min(L, cap + 1)
    out = [0] * L
    if ctx.n == 1:
        # one convolution on ints, reduced once per output coefficient
        for i, ai in enumerate(a):
            if ai:
                for j, bj in zip(range(i, L), b):
                    out[j] += ai * bj
        p = ctx.p
        return [c % p for c in out]
    mul, add = ctx._mul, ctx._add
    for d, c in enumerate(b[:L]):
        if c:
            for i, ai in enumerate(a[: L - d], d):
                if ai:
                    out[i] = add(out[i], mul(c, ai))
    return out


def _divmod(a: list[int], b, ctx: FieldCtx) -> tuple[list[int], list[int]]:
    # (quotient, remainder) of the stripped rank list a by the nonzero b,
    # by long division; a is overwritten and returned as the remainder.
    # Over F_p an index loop, not a slice comprehension: on CPython 3.11
    # about 2x faster at the small degrees of a field's modulus, and equal
    # near degree 100.  One % p per update measured faster at degree 2
    # than one per leading coefficient.  A b that is not monic is divided
    # out as b / lead(b), and the quotient scaled back
    D = len(b) - 1
    if ctx.n == 1:
        p = ctx.p
        if b[-1] != 1:
            inv = pow(b[-1], -1, p)
            quo, rem = _divmod(a, [c * inv % p for c in b], ctx)
            return [c * inv % p for c in quo], rem
        for i in range(len(a) - 1, D - 1, -1):
            c = a[i]
            if c:
                off = i - D
                for j in range(D):
                    a[off + j] = (a[off + j] - c * b[j]) % p
    else:
        inv, mul, add, neg = ctx._inv(b[-1]), ctx._mul, ctx._add, ctx._neg
        for i in range(len(a) - 1, D - 1, -1):
            c = a[i] = mul(a[i], inv)
            if c:
                c = neg(c)
                off = i - D
                for j in range(D):
                    a[off + j] = add(a[off + j], mul(c, b[j]))
    quo = a[D:]
    del a[D:]
    return quo, _strip(a)


def _monic(a, ctx: FieldCtx) -> list[int]:
    # the nonzero rank list a scaled to leading coefficient one; a itself
    # if it is monic
    if a[-1] == ctx._weights[0]:
        return a
    inv = ctx._inv(a[-1])
    if ctx.n == 1:
        p = ctx.p
        return [c * inv % p for c in a]
    mul = ctx._mul
    return [mul(inv, c) for c in a]


def _gcd(a: list[int], b: list[int], ctx: FieldCtx) -> list[int]:
    # the monic gcd of two rank lists, by Euclid with the divisor made
    # monic at each step; a and b may both be overwritten, and the result
    # may be b itself
    while b:
        b = _monic(b, ctx)
        a, b = b, _divmod(a, b, ctx)[1]
    return _monic(a, ctx) if a else a


def _derivative(a, ctx: FieldCtx) -> list[int]:
    p, unit = ctx.p, ctx._weights[0]
    d = [i * c % p if ctx.n == 1 else ctx._mul(i % p * unit, c) for i, c in enumerate(a)]
    return _strip(d[1:])


def _minus_x_to(a: list[int], k: int, ctx: FieldCtx) -> list[int]:
    # a - x^k on the rank list a, which is overwritten
    a += [0] * (k + 1 - len(a))
    a[k] = ctx._sub(a[k], ctx._weights[0])
    return _strip(a)


# -- factorisation ------------------------------------------------------

class Factorization(NamedTuple):
    """unit * product(poly**mult) equals the input polynomial.

    Factors are monic irreducibles sorted by (degree, coefficient ranks),
    so equal inputs always serialize identically.  A NamedTuple: it
    compares and hashes as (unit, factors), and survives pickle and copy.
    """

    unit: FieldElement
    factors: tuple[tuple[Polynomial, int], ...]

    def expand(self) -> Polynomial:
        out = Polynomial(self.unit.ctx, (self.unit,))
        for poly, mult in self.factors:
            out = out * poly**mult
        return out

    @property
    def degree_multiset(self) -> tuple[int, ...]:
        """Degrees of the irreducible factors with multiplicity, sorted."""
        return tuple(sorted(poly.degree for poly, mult in self.factors for _ in range(mult)))


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor of two polynomials over one context."""
    ctx = f.ctx
    if g.ctx != ctx:
        raise CtxMismatchError(f"gcd of polynomials over {ctx} and {g.ctx}")
    return Polynomial.from_ranks(ctx, _gcd(list(f.ranks), list(g.ranks), ctx))


# slot width in bits -> an unsigned array typecode of that item size; the
# sizes of 'I' and 'L' depend on the platform, so they are read off array
_SLOT_TYPECODES = {array(tc).itemsize * 8: tc for tc in "QLIH"}


def _slots(a: array) -> array:
    # packed ints are little-endian slot sequences; swap native big-endian items
    if sys.byteorder == "big":
        a.byteswap()
    return a


def _slot_width(bound: int) -> int:
    # the narrowest slot width, in bits, that holds every value below bound
    for w in sorted(_SLOT_TYPECODES):
        if bound >> w == 0:
            return w
    raise OverflowError(f"no slot is wide enough for values below {bound}")


def _pack(W: int, values) -> int:
    # one int with a W-bit slot per value, the first value lowest
    return int.from_bytes(_slots(array(_SLOT_TYPECODES[W], values)).tobytes(), "little")


def _unpack(W: int, v: int, k: int) -> array:
    # the k lowest W-bit slots of v
    return _slots(array(_SLOT_TYPECODES[W], v.to_bytes(k * W // 8, "little")))


def _cyclic_mul(W: int, a: int, b: int, k: int) -> int:
    # the packed a times the packed b modulo x^k - 1, both of k
    # coefficients in k W-bit slots: the plain product folded once.  Every
    # coefficient of the cyclic product must stay below 2^W.
    v = a * b
    return (v >> W * k) + (v & (1 << W * k) - 1)


def _reduction_table(m, p: int, W: int) -> list[int]:
    # R[j] = x^(D+j) mod m packed, for the monic m of degree D over F_p
    D = len(m) - 1
    mask = (1 << W * D) - 1
    R = [_pack(W, [-c % p for c in m[:D]])]
    for _ in range(D - 2):
        v = R[-1] << W
        if top := v >> W * D:
            v = (v & mask) + top * R[0]
            v = _pack(W, [c % p for c in _unpack(W, v, D)])
        R.append(v)  # a zero top slot shifts out nothing to reduce
    return R


class _Residues:
    """The residue ring F_q[x]/(m) of the rank list m, of degree D >= 1.

    factor builds one per modulus.  Over F_p a residue is packed in one
    int with a W-bit slot per coefficient (Kronecker substitution, von zur
    Gathen and Gerhard, Modern Computer Algebra, 8.4): a product is one
    big-int multiply, and reduction adds c * R[j] for each high
    coefficient c, with R[j] = x^(D+j) mod m packed, so O(D) Python
    operations per step.  Every slot stays below 2*D*(p-1)^2 < 2^W, so
    none carries.  Over F_q with n > 1 a residue is a rank list.  poly
    hands a residue back as a new rank list on either field.

    frob is the q-th power map.  It is F_q-linear, so frob(a) = sum a_i
    T[i] with T[i] = x^(iq) mod m (von zur Gathen and Shoup 1992).  T
    starts at [1, x^q] and grows by one product per entry, only as far as
    the top nonzero coefficient of the residue mapped: a monomial c x, as
    every x^(q^d) is modulo the etale suite's binomials y^(p-1) - A, needs
    none.  A frob costs about one product, a power by q log2 q of them.
    """

    def __init__(self, ctx: FieldCtx, mod):
        self.ctx = ctx
        self.mod = mod = _monic(mod, ctx)
        D = self.D = len(mod) - 1
        if D < 1:
            raise ValueError("a residue ring needs a modulus of degree >= 1")
        if ctx.n == 1:
            p = ctx.p
            self._W = W = _slot_width(2 * D * (p - 1) ** 2)
            self._mask = (1 << W * D) - 1
            self._R = _reduction_table(mod, p, W)
            self.one = 1
        else:
            self.one = [ctx._weights[0]]
        self._xq = self._T = None

    def reduce(self, a):
        """The residue of the rank list a."""
        r = _divmod(list(a), self.mod, self.ctx)[1] if len(a) > self.D else a
        return _pack(self._W, r) if self.ctx.n == 1 else r

    def poly(self, a) -> list[int]:
        """The residue a as a new rank list of degree below D."""
        if self.ctx.n > 1:
            return list(a)
        W = self._W
        return _unpack(W, a, (a.bit_length() + W - 1) // W).tolist()

    def mul(self, a, b):
        ctx = self.ctx
        if ctx.n > 1:
            return _divmod(_mul_trunc(a, b, ctx), self.mod, ctx)[1]
        W, D, p = self._W, self.D, ctx.p
        v = a * b
        low = v & self._mask
        for c, r in zip(_unpack(W, v >> W * D, D - 1), self._R):
            c %= p
            if c:
                low += c * r
        return _pack(W, [c % p for c in _unpack(W, low, D)])

    def pow(self, a, e: int):
        return _power(a, e, self.mul, self.one)

    def x_q(self):
        """The residue of x^q: the monomial x^(q >> low), of degree below
        2D, reduced once, then squared along the low bits of q, times x on
        each set bit, as Ben-Or's test in tests/test_audits.py does for the
        field table's moduli.  Modulo the etale
        suite's binomials q = p < 2D, so it is one reduction."""
        if self._xq is None:
            q, one = self.ctx.q, self.ctx._weights[0]
            low = max(0, q.bit_length() - self.D.bit_length())
            h = self.reduce([0] * (q >> low) + [one])
            x = self.reduce([0, one])
            for b in range(low - 1, -1, -1):
                h = self.mul(h, h)
                if q >> b & 1:
                    h = self.mul(h, x)
            self._xq = h
        return self._xq

    def frob(self, a):
        """a^q, as the sum of a_i T[i]."""
        T = self._T
        if T is None:
            T = self._T = [self.one, self.x_q()]
        ctx = self.ctx
        # T grows only as far as a's highest nonzero coefficient
        top = (a.bit_length() - 1) // self._W if ctx.n == 1 else len(a) - 1
        while len(T) <= top:
            T.append(self.mul(T[-1], T[1]))
        if ctx.n == 1:
            W, D, p = self._W, self.D, ctx.p
            # each slot of the sum stays below D*(p-1)^2 < 2^W
            v = sum([c * t for c, t in zip(_unpack(W, a, top + 1), T) if c])
            return _pack(W, [c % p for c in _unpack(W, v, D)])
        add, mul = ctx._add, ctx._mul
        out = [0] * self.D
        for c, t in zip(a, T):
            if c:
                for j, tj in enumerate(t):
                    out[j] = add(out[j], mul(c, tj))
        return _strip(out)


def _pth_root(a: list[int], ctx: FieldCtx) -> list[int]:
    # a has zero derivative, so only exponents divisible by p occur;
    # coefficient-wise p-th roots are c**(q/p)
    root = a[::ctx.p]
    return root if ctx.n == 1 else [ctx._pow(c, ctx.q // ctx.p) for c in root]


def _squarefree_parts(g: list[int], ctx: FieldCtx) -> list[tuple[list[int], int]]:
    # monic g -> [(monic squarefree, multiplicity)], Yun's split adapted
    # to characteristic p, on rank lists
    out: list[tuple[list[int], int]] = []
    scale = 1
    while len(g) > 1:
        d = _derivative(g, ctx)
        if not d:
            g = _pth_root(g, ctx)
            scale *= ctx.p
            continue
        c = _gcd(list(g), d, ctx)
        w = _divmod(g, c, ctx)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(list(w), list(c), ctx)
            z = _divmod(w, y, ctx)[0]
            if len(z) > 1:
                out.append((z, i * scale))
            i += 1
            w = y
            c = _divmod(c, y, ctx)[0]
        if len(c) > 1:
            g = _pth_root(c, ctx)
            scale *= ctx.p
        else:
            break
    return out


def _iter_polys_below(ctx: FieldCtx, degree: int):
    # every rank list of degree 1 <= deg < degree once, the splitting
    # candidates: ranks k*s mod q**degree, a Weyl sequence over every
    # residue as p does not divide s, those of degree - 1 first.  Low
    # degrees alone can stall (every linear u gives both factors of
    # y^16 - 2 over F_17 one quadratic character); these spread over
    # F_q[x]/(h), each splitting with probability about 1/2
    q = ctx.q
    total = q**degree
    top = total // q
    s = total * 40503 // 65536          # about total / golden ratio
    s += s % ctx.p == 0
    for full in (True, False):
        rank = 0
        for _ in range(total):
            rank = (rank + s) % total
            if (rank >= top) == full and rank >= q:
                yield _strip([rank // q**i % q for i in range(degree)])


def _equal_degree_split(ring: _Residues, d: int) -> tuple[list[list[int]], int]:
    # the factors of ring.mod = h, monic, squarefree and a product of at
    # least two irreducibles of degree d, and the candidates tried.  Each
    # candidate u is powered once on h, to w = N^((q-1)/2) = u^((q^d-1)/2)
    # with N = u^(1+q+...+q^(d-1)) by d - 1 frob-and-multiply steps: w is
    # 0, 1 or -1 modulo each factor.  Every unfinished piece g splits by
    # gcd(g, u), else by gcd(g, w - 1) (Cantor and Zassenhaus 1981)
    h, ctx = ring.mod, ring.ctx
    half = (ctx.q - 1) // 2
    done: list[list[int]] = []
    pieces = [h]
    for tried, u in enumerate(_iter_polys_below(ctx, len(h) - 1), 1):
        a = norm = ring.reduce(u)
        for _ in range(d - 1):
            a = ring.frob(a)
            norm = ring.mul(norm, a)
        w_minus_1 = _minus_x_to(ring.poly(ring.pow(norm, half)), 0, ctx)
        unfinished = []
        for g in pieces:
            s = _gcd(list(g), list(u), ctx)
            if not 1 < len(s) < len(g):
                s = _gcd(list(g), list(w_minus_1), ctx)
            for part in (s, _divmod(list(g), s, ctx)[0]) if 1 < len(s) < len(g) else (g,):
                (done if len(part) == d + 1 else unfinished).append(part)
        pieces = unfinished
        if not pieces:
            return done, tried
    raise RuntimeError("equal-degree split exhausted its search space")


def _distinct_degree(sq: list[int], ctx: FieldCtx):
    # monic squarefree sq -> (d, gd, ring) for each d with factors, d
    # rising: gd = gcd(rem, x^(q^d) - x) is the product of the factors of
    # degree d left in rem, and ring is sq's residue ring (None if never
    # built), whose frob steps x^(q^d) for every rem, as rem divides sq.
    # Once 2d exceeds the degree of rem, rem is irreducible and comes last
    ring = None
    rem, d = sq, 0
    while len(rem) > 1:
        d += 1
        if 2 * d > len(rem) - 1:
            yield len(rem) - 1, rem, ring
            return
        if d == 1:
            ring = _Residues(ctx, sq)
            frob = ring.x_q()
        else:
            frob = ring.frob(frob)
        gd = _gcd(list(rem), _minus_x_to(ring.poly(frob), 1, ctx), ctx)
        if len(gd) > 1:
            yield d, gd, ring
            rem = _divmod(list(rem), gd, ctx)[0]


def factor(f: Polynomial) -> Factorization:
    """Deterministic factorisation into monic irreducibles over F_q.

    Logs one DEBUG record to the "hasseforms" logger with the degree, the
    number of splitting candidates tried, the number of residue rings
    built and the seconds taken.
    """
    if not f:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    t0 = time.perf_counter()
    ctx = f.ctx
    pairs: list[tuple[list[int], int]] = []
    tried = rings = 0
    for sq, mult in _squarefree_parts(_monic(list(f.ranks), ctx), ctx):
        ring = None
        for d, gd, ring in _distinct_degree(sq, ctx):
            if len(gd) == d + 1:
                factors = [gd]
            else:
                # a product of several factors splits in sq's ring if it
                # is all of sq, else in its own
                split = ring if len(gd) == len(sq) else _Residues(ctx, gd)
                rings += split is not ring
                factors, k = _equal_degree_split(split, d)
                tried += k
            pairs.extend((irr, mult) for irr in factors)
        rings += ring is not None
    pairs.sort(key=lambda pm: (len(pm[0]), pm[0]))
    if sum((len(g) - 1) * mult for g, mult in pairs) != f.degree:
        raise RuntimeError("factor lost degree, this is a bug")
    logger.debug("factored a degree-%d polynomial over F_%d^%d: %d splitting "
                 "candidates tried, %d residue rings, %.3f s", f.degree,
                 ctx.p, ctx.n, tried, rings, time.perf_counter() - t0)
    return Factorization(f.lead, tuple((Polynomial.from_ranks(ctx, g), m) for g, m in pairs))


def degree_pattern(f: Polynomial) -> tuple[int, ...]:
    """factor(f).degree_multiset, read off the distinct-degree split alone.

    The product gd of the factors of degree d fixes their number,
    deg gd // d, so the equal-degree split, which separates them, is
    skipped.  Logs one DEBUG record to the "hasseforms" logger with the
    degree, the number of factors and the seconds taken.
    """
    if not f:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    t0 = time.perf_counter()
    ctx = f.ctx
    out: list[int] = []
    for sq, mult in _squarefree_parts(_monic(list(f.ranks), ctx), ctx):
        for d, gd, _ in _distinct_degree(sq, ctx):
            out.extend([d] * ((len(gd) - 1) // d * mult))
    if sum(out) != f.degree:
        raise RuntimeError("degree_pattern lost degree, this is a bug")
    logger.debug("read the degree pattern of a degree-%d polynomial over F_%d^%d "
                 "by distinct degree: %d factors, %.3f s", f.degree,
                 ctx.p, ctx.n, len(out), time.perf_counter() - t0)
    return tuple(sorted(out))
