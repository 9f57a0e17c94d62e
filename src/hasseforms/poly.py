"""Univariate polynomials over a FieldCtx.

A polynomial stores the lex ranks of its coefficients (see gf.py), low
degree first with trailing zeros stripped, so the zero polynomial has no
ranks and degree -1.  Ring operations call the FieldCtx rank kernels
directly, and _mul_trunc is the one product: full for * and **, capped
for pow_truncated, which raises a polynomial to a power while discarding
every coefficient above the cap.  pow_truncated is the slow reference
route that tests and suites hold the closed-form Hasse invariant of
curve.py against, not a sweep kernel.  factor is a fully deterministic
factorisation into monic irreducibles, and degree_pattern returns its
degree multiset from the squarefree and distinct-degree splits alone.

factor works in one residue ring F_q[x]/(m) per modulus m (_Residues):
packed ints over F_p, Polynomials over F_q with n > 1.  The q-th power
map is F_q-linear, so each ring keeps a Frobenius table of x^(iq) mod m,
built once from x^q, and a q-th power costs one pass over that table
instead of powering by q.  The distinct-degree split (_distinct_degree)
steps x^(q^d) by that map in the ring of the squarefree part and yields
the product of the factors of each degree; the number of factors is its
degree over d, which is all degree_pattern reads.  factor then runs the
equal-degree split on each product of several factors: it powers each
candidate once on the whole product and refines every unfinished piece
by it, with no recursion.  gcd over F_p runs Euclid on int lists.

Determinism of factor: the squarefree split and the distinct-degree split
are deterministic as written.  Separating several irreducible factors of
the same degree tries splitting polynomials in one fixed order, a Weyl
sequence of ranks k*s mod q**deg with p not dividing s, full-degree
candidates first, until every piece is irreducible; so repeated runs take
the same path.  The factors are sorted, so the output does not depend on
that order, only the number of candidates tried does.
"""

from __future__ import annotations

import logging
import sys
import time
from array import array
from dataclasses import dataclass

from .errors import ZeroPolynomialError
from .gf import FieldCtx, FieldElement, _gcd_ints, _poly_str, _rem_ints

__all__ = ["Polynomial", "Factorization", "gcd", "factor", "degree_pattern"]

logger = logging.getLogger("hasseforms")


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
        while ranks and not ranks[-1]:
            ranks.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ranks", tuple(ranks))

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
        return bool(self.ranks) and self.ranks[-1] == self.ctx.one.rank

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

    # -- ring operations on ranks ----------------------------------------

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
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Polynomial.from_ranks(self.ctx, map(self.ctx._neg, self.ranks))

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.ctx != self.ctx:
                raise ValueError("polynomials over different contexts")
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
        ctx = self.ctx
        db = other.degree
        if self.degree < db:
            return Polynomial(ctx), self
        add, mul, neg = ctx._add, ctx._mul, ctx._neg
        inv_lead = ctx._inv(other.ranks[-1])
        rem = list(self.ranks)
        quo = [0] * (self.degree - db + 1)
        for i in range(len(rem) - 1, db - 1, -1):
            c = mul(rem[i], inv_lead)
            if c:
                quo[i - db] = c
                c = neg(c)
                for j, bj in enumerate(other.ranks, i - db):
                    rem[j] = add(rem[j], mul(c, bj))
        return Polynomial.from_ranks(ctx, quo), Polynomial.from_ranks(ctx, rem)

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
        # square-and-multiply; with a cap, degrees above it are dropped
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        ctx = self.ctx
        result = [ctx.one.rank]
        base = self.ranks[: None if cap is None else cap + 1]
        while e:
            if e & 1:
                result = _mul_trunc(result, base, ctx, cap)
            e >>= 1
            if e:
                base = _mul_trunc(base, base, ctx, cap)
        return Polynomial.from_ranks(ctx, result)

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
        ctx = self.ctx
        scaled = [ctx._mul(ctx.element(i).rank, c) for i, c in enumerate(self.ranks)]
        return Polynomial.from_ranks(ctx, scaled[1:])

    def monic(self) -> tuple[FieldElement, "Polynomial"]:
        """Split off the leading coefficient: returns (unit, monic part)."""
        if not self or self.is_monic:
            return self.ctx.one, self
        ctx = self.ctx
        inv = ctx._inv(self.ranks[-1])
        return self.lead, Polynomial.from_ranks(
            ctx, [ctx._mul(inv, c) for c in self.ranks])

    def to_str(self) -> str:
        return _poly_str(self.coeffs, "x")

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_str()!r} over F_{self.ctx.q})"


def _mul_trunc(a, b, ctx, cap=None):
    # the polynomial product on rank sequences; with a cap, degrees above
    # it are dropped
    if not a or not b:
        return []
    L = len(a) + len(b) - 1
    if cap is not None:
        L = min(L, cap + 1)
    mul = ctx._mul
    add = ctx._add
    out = [0] * L
    for d, c in enumerate(b[:L]):
        if c:
            for i, ai in enumerate(a[: L - d], d):
                if ai:
                    out[i] = add(out[i], mul(c, ai))
    return out


# -- factorisation ------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """unit * product(poly**mult) equals the input polynomial.

    Factors are monic irreducibles sorted by (degree, coefficient ranks),
    so equal inputs always serialize identically.
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
        out: list[int] = []
        for poly, mult in self.factors:
            out.extend([poly.degree] * mult)
        return tuple(sorted(out))


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor.

    Over a prime field, where a rank is the value, Euclid runs on int
    lists; over F_q with n > 1 it runs on Polynomial %.
    """
    ctx = f.ctx
    if ctx.n == 1:
        return Polynomial.from_ranks(ctx, _gcd_ints(list(f.ranks), list(g.ranks), ctx.p))
    while g:
        f, g = g, f % g
    return f.monic()[1]


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


def _cyclic_mul(W: int, a, b: int, k: int) -> int:
    # a times the packed b modulo x^k - 1, both of k coefficients, packed
    # in k W-bit slots: the plain product folded once.  Every coefficient
    # of the cyclic product must stay below 2^W.
    v = _pack(W, a) * b
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
    """The residue ring F_q[x]/(m) of a monic m of degree D >= 1.

    factor builds one per modulus, and this is the one place where the
    representation of a residue depends on the field.  Over a prime
    field, where a rank is the value, a residue is packed in one int with
    a W-bit slot per coefficient (Kronecker substitution, von zur Gathen
    and Gerhard, Modern Computer Algebra, 8.4): a product is one big-int
    multiply, and reduction adds c * R[j] for each high coefficient c,
    with R[j] = x^(D+j) mod m packed, so a step is O(D) Python operations
    instead of O(D^2).  A product and its reduction keep every slot below
    2*D*(p-1)^2 < 2^W, so no slot carries into the next.  Over F_q with
    n > 1 a residue is a Polynomial of degree below D.

    frob is the q-th power map.  It is F_q-linear, since g^q is the sum
    of g_i x^(iq) for g_i in F_q, so frob(a) = sum a_i T[i] with
    T[i] = x^(iq) mod m (von zur Gathen and Shoup 1992).  T starts at
    [1, x^q] on the first frob and grows by one product per entry, only
    as far as the highest nonzero coefficient of the residue mapped, so
    at most D - 2 products in all: a monomial c x, as every x^(q^d) is
    for the binomials y^(p-1) - A the etale suite splits, needs none.  A
    frob then costs about one product, where powering by q costs about
    log2 q + popcount(q).
    """

    def __init__(self, mod: Polynomial):
        ctx = self.ctx = mod.ctx
        self.mod = mod = mod.monic()[1]
        D = self.D = mod.degree
        if D < 1:
            raise ValueError("a residue ring needs a modulus of degree >= 1")
        if ctx.n == 1:
            p = ctx.p
            self._W = W = _slot_width(2 * D * (p - 1) ** 2)
            self._mask = (1 << W * D) - 1
            self._R = _reduction_table(mod.ranks, p, W)
            self.one = 1
        else:
            self.one = Polynomial(ctx, (1,))
        self._xq = self._T = None

    def reduce(self, f: Polynomial):
        """The residue of f."""
        if self.ctx.n > 1:
            return f % self.mod if f.degree >= self.D else f
        a = list(f.ranks)
        if len(a) > self.D:
            a = _rem_ints(a, self.mod.ranks, self.ctx.p)
        return _pack(self._W, a)

    def poly(self, a) -> Polynomial:
        """The residue a as a Polynomial of degree below D."""
        if self.ctx.n > 1:
            return a
        W = self._W
        return Polynomial.from_ranks(self.ctx, _unpack(W, a, (a.bit_length() + W - 1) // W))

    def mul(self, a, b):
        if self.ctx.n > 1:
            return (a * b) % self.mod
        W, D, p = self._W, self.D, self.ctx.p
        v = a * b
        low = v & self._mask
        for c, r in zip(_unpack(W, v >> W * D, D - 1), self._R):
            c %= p
            if c:
                low += c * r
        return _pack(W, [c % p for c in _unpack(W, low, D)])

    def pow(self, a, e: int):
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result

    def x_q(self):
        """The residue of x^q."""
        if self._xq is None:
            self._xq = self.pow(self.reduce(Polynomial.x(self.ctx)), self.ctx.q)
        return self._xq

    def frob(self, a):
        """a^q, as the sum of a_i T[i]."""
        T = self._T
        if T is None:
            T = self._T = [self.one, self.x_q()]
        ctx = self.ctx
        # T grows only as far as a's highest nonzero coefficient
        top = (a.bit_length() - 1) // self._W if ctx.n == 1 else a.degree
        while len(T) <= top:
            T.append(self.mul(T[-1], T[1]))
        if ctx.n == 1:
            W, D, p = self._W, self.D, ctx.p
            # each slot of the sum stays below D*(p-1)^2 < 2^W
            v = sum([c * t for c, t in zip(_unpack(W, a, top + 1), T) if c])
            return _pack(W, [c % p for c in _unpack(W, v, D)])
        add, mul = ctx._add, ctx._mul
        out = [0] * self.D
        for c, t in zip(a.ranks, T):
            if c:
                for j, tj in enumerate(t.ranks):
                    out[j] = add(out[j], mul(c, tj))
        return Polynomial.from_ranks(ctx, out)


def _pth_root(f: Polynomial) -> Polynomial:
    # f has zero derivative, so only exponents divisible by p occur;
    # coefficient-wise p-th roots are c**(q/p)
    ctx = f.ctx
    root_exp = ctx.p ** (ctx.n - 1)
    return Polynomial.from_ranks(ctx, [ctx._pow(c, root_exp) for c in f.ranks[::ctx.p]])


def _squarefree_parts(g: Polynomial) -> list[tuple[Polynomial, int]]:
    # monic g -> [(monic squarefree, multiplicity)], Yun's split adapted
    # to characteristic p
    p = g.ctx.p
    out: list[tuple[Polynomial, int]] = []
    scale = 1
    while g.degree > 0:
        d = g.derivative()
        if not d:
            g = _pth_root(g)
            scale *= p
            continue
        c = gcd(g, d)
        w = g // c
        i = 1
        while w.degree > 0:
            y = gcd(w, c)
            z = w // y
            if z.degree > 0:
                out.append((z, i * scale))
            i += 1
            w = y
            c = c // y
        if c.degree > 0:
            g = _pth_root(c)
            scale *= p
        else:
            break
    return out


def _iter_polys_below(ctx: FieldCtx, degree: int):
    # every polynomial of degree 1 <= deg < degree exactly once; the
    # deterministic supply of splitting elements.  The ranks k*s mod
    # q**degree, k = 1, 2, ..., form a Weyl sequence that visits every
    # residue because p does not divide s; those of degree - 1 come first,
    # then the rest.  Constants are omitted because a constant can never
    # separate two factors.  Low-degree candidates alone can stall: every
    # linear u gives both factors of y^16 - 2 over F_17 the same quadratic
    # character.  These spread over F_q[x]/(h), where each one splits with
    # probability about 1/2 (Cantor and Zassenhaus 1981).
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
                digits, r = [], rank
                for _ in range(degree):
                    r, c = divmod(r, q)
                    digits.append(c)
                yield Polynomial.from_ranks(ctx, digits)


def _equal_degree_split(ring: _Residues, d: int) -> tuple[list[Polynomial], int]:
    # ring.mod = h is monic and squarefree, the product of at least two
    # irreducible factors, each of degree exactly d; returns the factors
    # and the number of splitting candidates tried.  Each candidate u is
    # powered once on all of h, to w = N^((q-1)/2) = u^((q^d-1)/2), where
    # N = u^(1+q+...+q^(d-1)) takes d - 1 frob-and-multiply steps:
    # modulo each factor, w is 0, 1 or -1, and 1 or -1 with probability
    # about 1/2 each.  Every unfinished piece g then splits by gcd(g, u),
    # failing that by gcd(g, w - 1), and the pieces of degree d are done:
    # one refinement over all pieces per candidate (Cantor and Zassenhaus
    # 1981), with no recursion
    h = ring.mod
    ctx = h.ctx
    one = Polynomial(ctx, (1,))
    half = (ctx.q - 1) // 2
    done: list[Polynomial] = []
    pieces = [h]
    for tried, u in enumerate(_iter_polys_below(ctx, h.degree), 1):
        a = norm = ring.reduce(u)
        for _ in range(d - 1):
            a = ring.frob(a)
            norm = ring.mul(norm, a)
        w_minus_1 = ring.poly(ring.pow(norm, half)) - one
        unfinished = []
        for g in pieces:
            s = gcd(g, u)
            if not 0 < s.degree < g.degree:
                s = gcd(g, w_minus_1)
            for part in (s, g // s) if 0 < s.degree < g.degree else (g,):
                (done if part.degree == d else unfinished).append(part)
        pieces = unfinished
        if not pieces:
            return done, tried
    raise RuntimeError("equal-degree split exhausted its search space")


def _distinct_degree(sq: Polynomial):
    # monic squarefree sq -> (d, gd, ring) for each d with factors, in
    # increasing d, where gd is the product of sq's irreducible factors of
    # degree d and ring is sq's residue ring (None if it was never built),
    # by distinct degree from d = 1: gcd(rem, x^(q^d) - x) is the product
    # gd of the factors of degree d left in rem, so the roots come out of
    # one x^q, with no evaluation at the q elements.  x^(q^d) steps by one
    # frob of sq's ring, which serves every rem, since rem divides sq.
    # Once 2d exceeds the degree of rem, rem is irreducible and comes last
    X = Polynomial.x(sq.ctx)
    ring = None
    rem, d = sq, 0
    while rem.degree > 0:
        d += 1
        if 2 * d > rem.degree:
            yield rem.degree, rem, ring
            return
        if d == 1:
            ring = _Residues(sq)
            frob = ring.x_q()
        else:
            frob = ring.frob(frob)
        gd = gcd(rem, ring.poly(frob) - X)
        if gd.degree > 0:
            yield d, gd, ring
            rem = rem // gd


def factor(f: Polynomial) -> Factorization:
    """Deterministic factorisation into monic irreducibles over F_q.

    Logs one DEBUG record to the "hasseforms" logger with the degree, the
    number of splitting candidates tried, the number of residue rings
    built and the seconds taken.
    """
    if not f:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    t0 = time.perf_counter()
    unit, g = f.monic()
    pairs: list[tuple[Polynomial, int]] = []
    tried = rings = 0
    for sq, mult in _squarefree_parts(g):
        ring = None
        for d, gd, ring in _distinct_degree(sq):
            if gd.degree == d:
                factors = [gd]
            else:
                # a product of several factors splits in sq's ring if it
                # is all of sq, else in its own
                split = ring if gd.degree == sq.degree else _Residues(gd)
                rings += split is not ring
                factors, k = _equal_degree_split(split, d)
                tried += k
            pairs.extend((irr, mult) for irr in factors)
        rings += ring is not None
    pairs.sort(key=lambda pm: (pm[0].degree, pm[0].ranks))
    total = sum(poly.degree * mult for poly, mult in pairs)
    if total != f.degree:
        raise RuntimeError("factor lost degree, this is a bug")
    logger.debug("factored a degree-%d polynomial over F_%d^%d: %d splitting "
                 "candidates tried, %d residue rings, %.3f s", f.degree,
                 f.ctx.p, f.ctx.n, tried, rings, time.perf_counter() - t0)
    return Factorization(unit, tuple(pairs))


def degree_pattern(f: Polynomial) -> tuple[int, ...]:
    """factor(f).degree_multiset, read off the distinct-degree split alone.

    The product gd of the factors of degree d fixes their number,
    gd.degree // d, so the equal-degree split, which separates them, is
    skipped.  Logs one DEBUG record to the "hasseforms" logger with the
    degree, the number of factors and the seconds taken.
    """
    if not f:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    t0 = time.perf_counter()
    out: list[int] = []
    for sq, mult in _squarefree_parts(f.monic()[1]):
        for d, gd, _ in _distinct_degree(sq):
            out.extend([d] * (gd.degree // d * mult))
    if sum(out) != f.degree:
        raise RuntimeError("degree_pattern lost degree, this is a bug")
    logger.debug("read the degree pattern of a degree-%d polynomial over F_%d^%d "
                 "by distinct degree: %d factors, %.3f s", f.degree,
                 f.ctx.p, f.ctx.n, len(out), time.perf_counter() - t0)
    return tuple(sorted(out))
