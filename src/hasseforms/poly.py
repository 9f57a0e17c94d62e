"""Univariate polynomials over a FieldCtx.

Coefficients are stored low degree first with trailing zeros stripped, so
the zero polynomial has an empty coefficient tuple and degree -1.
pow_truncated raises a polynomial to a power while discarding every
coefficient above a cap; it is the slow reference route that tests and
suites hold the closed-form Hasse invariant of curve.py against, not a
sweep kernel.  factor is a fully deterministic factorisation into monic
irreducibles.

Determinism of factor: the squarefree split and the distinct-degree split
are deterministic as written; separating several irreducible factors of
the same degree additionally sweeps splitting polynomials in lex order
until one works, so repeated runs always take the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ZeroPolynomialError
from .gf import FieldCtx, FieldElement, _poly_rem_ints

__all__ = [
    "Polynomial",
    "Factorization",
    "poly_pow_truncated",
    "coeff",
    "gcd",
    "factor",
]


class Polynomial:
    __slots__ = ("ctx", "_coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        norm = [ctx.element(c) for c in coeffs]
        while norm and not norm[-1]:
            norm.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_coeffs", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial, (self.ctx, self._coeffs))

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Polynomial":
        return cls(ctx, (0, 1))

    @classmethod
    def const(cls, ctx: FieldCtx, c) -> "Polynomial":
        return cls(ctx, (c,))

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._coeffs) - 1

    @property
    def lead(self) -> FieldElement:
        return self._coeffs[-1] if self._coeffs else self.ctx.zero

    @property
    def is_monic(self) -> bool:
        return bool(self._coeffs) and self._coeffs[-1] == self.ctx.one

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.n, tuple(c.rank for c in self._coeffs)))

    def __getitem__(self, i: int) -> FieldElement:
        """Coefficient of x**i; zero beyond the degree."""
        if i < 0:
            raise IndexError("coefficient index must be >= 0")
        return self._coeffs[i] if i < len(self._coeffs) else self.ctx.zero

    # -- ring operations -------------------------------------------------

    def _wrap(self, coeffs) -> "Polynomial":
        return Polynomial(self.ctx, coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self._wrap(out)

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
        return self._wrap([-c for c in self._coeffs])

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.ctx != self.ctx:
                raise ValueError("polynomials over different contexts")
            return other
        if isinstance(other, (int, FieldElement)):
            return Polynomial(self.ctx, (self.ctx.element(other),))
        return None

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return self._wrap(())
        out = [self.ctx.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        return self._wrap(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return self._wrap(()), self
        inv_lead = other.lead.inverse()
        rem = list(self._coeffs)
        quo = [self.ctx.zero] * (self.degree - other.degree + 1)
        db = other.degree
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i] * inv_lead
            if c:
                quo[i - db] = c
                for j, bj in enumerate(other._coeffs):
                    rem[i - db + j] = rem[i - db + j] - c * bj
        return self._wrap(quo), self._wrap(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        result = Polynomial(self.ctx, (1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- helpers ---------------------------------------------------------

    def evaluate(self, x) -> FieldElement:
        x = self.ctx.element(x)
        acc = self.ctx.zero
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return self._wrap([i * c for i, c in enumerate(self._coeffs)][1:])

    def monic(self) -> tuple[FieldElement, "Polynomial"]:
        """Split off the leading coefficient: returns (unit, monic part)."""
        if not self or self.is_monic:
            return self.ctx.one, self
        u = self.lead
        return u, self * u.inverse()

    def pow_truncated(self, e: int, cap: int) -> "Polynomial":
        """self**e with every coefficient above degree cap dropped.

        Exact on degrees 0..cap, by truncated square-and-multiply.  This
        is the independent reference for curve.hasse_invariant, so it
        knows nothing about cubics or Hasse coefficients.
        """
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative int")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        ctx = self.ctx
        result = [ctx.one.rank]
        base = [c.rank for c in self._coeffs[: cap + 1]]
        while e:
            if e & 1:
                result = _mul_trunc(result, base, ctx, cap)
            e >>= 1
            if e:
                base = _mul_trunc(base, base, ctx, cap)
        return self._wrap([FieldElement(ctx, r) for r in result])

    def to_str(self, var: str = "x") -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for i in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[i]
            if not c:
                continue
            cs = str(c)
            if self.ctx.n > 1 and (" " in cs or "*" in cs):
                cs = f"({cs})"
            if i == 0:
                terms.append(cs)
            else:
                head = "" if cs == "1" else f"{cs}*"
                terms.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
        return " + ".join(terms)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_str()!r} over F_{self.ctx.q})"


def _mul_trunc(a, b, ctx, cap):
    # product of two lists of coefficient ranks, degrees above cap dropped
    if not a or not b:
        return []
    L = min(len(a) + len(b) - 1, cap + 1)
    mul = ctx._mul
    add = ctx._add
    out = [0] * L
    for d, c in enumerate(b[:L]):
        if c:
            for i, ai in enumerate(a[: L - d]):
                if ai:
                    out[i + d] = add(out[i + d], mul(c, ai))
    return out


def poly_pow_truncated(f: Polynomial, e: int, cap: int) -> Polynomial:
    """Functional spelling of Polynomial.pow_truncated."""
    return f.pow_truncated(e, cap)


def coeff(f: Polynomial, i: int) -> FieldElement:
    """Coefficient of x^i, zero beyond the degree."""
    return f[i]


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
    """Monic greatest common divisor."""
    while g:
        f, g = g, f % g
    return f.monic()[1]


def _mul_ints_full(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [v % p for v in out]


def _pow_mod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    # modular exponentiation; over prime fields, where a rank is the
    # value, this drops to raw int lists because it is the inner loop of
    # the distinct-degree and equal-degree splits (with the generic path
    # alone the etale suite over F_13 took 6.1 s instead of 0.33 s, 2 vCPU)
    ctx = base.ctx
    if ctx.n == 1 and mod.is_monic:
        p = ctx.p
        m = [c.rank for c in mod.coeffs]
        b = _poly_rem_ints([c.rank for c in base.coeffs], m, p)
        result = [1]
        while e:
            if e & 1:
                result = _poly_rem_ints(_mul_ints_full(result, b, p), m, p)
            b = _poly_rem_ints(_mul_ints_full(b, b, p), m, p)
            e >>= 1
        return Polynomial(ctx, result)
    result = Polynomial(ctx, (1,))
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _pth_root(f: Polynomial) -> Polynomial:
    # f has zero derivative, so only exponents divisible by p occur;
    # coefficient-wise p-th roots are c**(q/p)
    ctx = f.ctx
    p = ctx.p
    root_exp = p ** (ctx.n - 1)
    return Polynomial(ctx, [f[i * p] ** root_exp for i in range(f.degree // p + 1)])


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
    # every polynomial of degree 1 <= deg < degree in a fixed order; the
    # deterministic supply of splitting elements.  Constants are omitted
    # because a constant can never separate two factors.
    q = ctx.q
    for rank in range(q, q**degree):
        digits = []
        r = rank
        for _ in range(degree):
            digits.append(ctx.from_rank(r % q))
            r //= q
        yield Polynomial(ctx, digits)


def _equal_degree_split(h: Polynomial, d: int) -> list[Polynomial]:
    # h is monic, squarefree, every irreducible factor of degree exactly d
    if h.degree == d:
        return [h]
    ctx = h.ctx
    one = Polynomial(ctx, (1,))
    exponent = (ctx.q**d - 1) // 2
    for u in _iter_polys_below(ctx, h.degree):
        g = gcd(h, u)
        if 0 < g.degree < h.degree:
            return _equal_degree_split(g, d) + _equal_degree_split(h // g, d)
        t = _pow_mod(u, exponent, h)
        g = gcd(h, t - one)
        if 0 < g.degree < h.degree:
            return _equal_degree_split(g, d) + _equal_degree_split(h // g, d)
    raise RuntimeError("equal-degree split exhausted its search space")


def _split_squarefree(sq: Polynomial) -> list[Polynomial]:
    # monic squarefree -> monic irreducibles: strip roots by exhaustive
    # evaluation, then split by distinct degree
    ctx = sq.ctx
    X = Polynomial.x(ctx)
    out: list[Polynomial] = []
    rem = sq
    for x in ctx.iter_elements():
        if rem.degree < 1:
            break
        if not rem.evaluate(x):
            lin = X - x
            out.append(lin)
            rem = rem // lin
    if rem.degree > 0:
        frob = _pow_mod(X, ctx.q, rem)
        d = 1
        while rem.degree > 0:
            d += 1
            if 2 * d > rem.degree:
                out.append(rem)
                break
            frob = _pow_mod(frob, ctx.q, rem)
            gd = gcd(rem, frob - X)
            if gd.degree > 0:
                out.extend(_equal_degree_split(gd, d))
                rem = rem // gd
                frob = frob % rem
    return out


def _sort_key(poly: Polynomial):
    return (poly.degree, tuple(c.rank for c in poly.coeffs))


def factor(f: Polynomial) -> Factorization:
    """Deterministic factorisation into monic irreducibles over F_q."""
    if not f:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    unit, g = f.monic()
    if g.degree == 0:
        return Factorization(unit, ())
    pairs: list[tuple[Polynomial, int]] = []
    for sq, mult in _squarefree_parts(g):
        for irr in _split_squarefree(sq):
            pairs.append((irr, mult))
    pairs.sort(key=lambda pm: _sort_key(pm[0]))
    total = sum(poly.degree * mult for poly, mult in pairs)
    if total != f.degree:
        raise RuntimeError("factor lost degree, this is a bug")
    return Factorization(unit, tuple(pairs))
