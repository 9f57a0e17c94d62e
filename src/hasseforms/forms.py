"""Unit classes modulo (p-1)-th powers and what they classify.

Over k = F_q with q = p^n the quotient k^x / (k^x)^(p-1) has exactly
p - 1 classes; writing g for the canonical generator of k^x, the class of
g^e depends only on e mod (p-1), so a class is stored as that exponent.
The map phi(x) = x^((q-1)/(p-1)) lands in the prime subfield and induces
an isomorphism from the class group onto F_p^x.

An ordinary curve attaches to its Frobenius kernel the class of its Hasse
invariant; a supersingular curve has no unit class (the kernel sits in
the single self-dual position instead).  The p-torsion group scheme of an
ordinary curve splits off a multiplicative part twisted by that same
class together with an etale part whose coordinate ring factors into
equal-degree pieces; the supersingular p-torsion is the familiar
non-split thickening, reported here under the label M2.
"""

from __future__ import annotations

from array import array
from math import gcd as int_gcd, isqrt
from typing import NamedTuple

from .curve import WeierstrassCurve, _twist_degree, hasse_invariant
from .errors import (CtxMismatchError, NotPrimeError, ZeroElementError,
                     ZeroTwistParameterError)
from .gf import FieldCtx, FieldElement, _ctx_memo, _is_prime, discrete_log, norm_to_prime

__all__ = [
    "UnitClass",
    "unit_class_of",
    "enumerate_classes",
    "phi",
    "realizable_set",
    "twist_class_action",
    "FrobeniusKernelClass",
    "kernel_of_frobenius",
    "PTorsionDescription",
    "ptorsion_description",
]


class UnitClass:
    """A coset of (k^x)^(p-1) in k^x, named by an exponent mod p-1."""

    __slots__ = ("ctx", "exp", "rep")

    def __init__(self, ctx: FieldCtx, exp: int):
        exp %= ctx.p - 1
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "rep", ctx.generator ** exp)

    def __setattr__(self, name, value):
        raise AttributeError("UnitClass is immutable")

    def __reduce__(self):
        return (UnitClass, (self.ctx, self.exp))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitClass):
            return NotImplemented
        return self.ctx == other.ctx and self.exp == other.exp

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.n, self.exp))

    def __mul__(self, other: "UnitClass") -> "UnitClass":
        if not isinstance(other, UnitClass):
            return NotImplemented
        if other.ctx != self.ctx:
            raise CtxMismatchError(f"cannot combine classes of {self.ctx} and {other.ctx}")
        return UnitClass(self.ctx, self.exp + other.exp)

    def __pow__(self, k: int) -> "UnitClass":
        if not isinstance(k, int):
            return NotImplemented
        return UnitClass(self.ctx, self.exp * k)

    def inverse(self) -> "UnitClass":
        return UnitClass(self.ctx, -self.exp)

    @property
    def order(self) -> int:
        """Order in the class group, i.e. (p-1) / gcd(exp, p-1)."""
        return (self.ctx.p - 1) // int_gcd(self.exp, self.ctx.p - 1)

    def __repr__(self) -> str:
        return f"UnitClass(exp={self.exp} mod {self.ctx.p - 1}, rep={self.rep})"


def unit_class_of(x: FieldElement) -> UnitClass:
    """The class of a nonzero element, found by discrete logarithm."""
    if not x:
        raise ZeroElementError("zero does not belong to any unit class")
    return UnitClass(x.ctx, discrete_log(x))


def enumerate_classes(ctx: FieldCtx) -> tuple[UnitClass, ...]:
    """All p - 1 classes, ordered by exponent."""
    return tuple(UnitClass(ctx, e) for e in range(ctx.p - 1))


def phi(cls: UnitClass) -> FieldElement:
    """The prime-subfield unit attached to a class by the norm-style power map.

    phi(g^e) = g^(e (q-1)/(p-1)) read in the prime subfield.  This is a
    group isomorphism onto F_p^x; use int() on the result when a plain
    residue is wanted.
    """
    return norm_to_prime(cls.rep)


@_ctx_memo
def _class_residues(ctx: FieldCtx) -> array:
    # int(phi) of each class by its exponent e: phi(g^e) = g^(eN) off the
    # exp table, N = (q - 1)/(p - 1), checked to lie in the prime subfield;
    # an array, since p - 1 int objects would cost 2 MB at p = 65537.
    # A nonzero rank a has class log a mod (p - 1); the census scan and its
    # witness check read this by class, _rank_classes by rank, and tests
    # pin it against phi(UnitClass).  Over F_p phi is the identity and
    # N = 1, so it is the exp table itself, shared with the context: its
    # readers do not write it
    if ctx.n == 1:
        return ctx._log_tables[0]
    unit = ctx._weights[0]
    ranks = ctx._log_tables[0][::(ctx.q - 1) // (ctx.p - 1)]
    if any(r % unit for r in ranks):
        raise ValueError(f"phi leaves the prime subfield of {ctx}, this is a bug")
    return array("i", (r // unit for r in ranks))


@_ctx_memo
def _rank_classes(ctx: FieldCtx) -> tuple:
    # (class exponents, residues) by rank: the exponent log a mod (p - 1) of
    # each rank a (unit_class_of), -1 at zero, which has no class, and its
    # residue off _class_residues, 0 at zero: a model's residue, beta mod p
    # by the bridge.  The sweep (_first_hits) and the row suites read it,
    # per model, so both are lists: a list read takes about half the time
    # of an array read and a third of a range's.  Over F_p the log table
    # holds the exponents (log 0 = -1) and phi is the identity, so a rank
    # is its own residue: two copies at C level, no Python loop
    log = ctx._log_tables[1]
    if ctx.n == 1:
        return log.tolist(), list(range(ctx.q))
    by_class, pm1 = _class_residues(ctx), ctx.p - 1
    exps = [e % pm1 if e >= 0 else -1 for e in log]
    return exps, [by_class[e] if e >= 0 else 0 for e in exps]


def _field_order(p: int, q: int | None) -> int:
    # q (p where None), checked to be p^n, n >= 1, for a prime p:
    # NotPrimeError, else ValueError
    if not _is_prime(p):
        raise NotPrimeError(f"p must be prime, got {p}")
    if q is None:
        return p
    t = q
    while t % p == 0 and t > 1:
        t //= p
    if t != 1 or q < p:
        raise ValueError(f"q = {q} is not a power of p = {p}")
    return q


def realizable_set(p: int, q: int | None = None) -> frozenset[int]:
    """Residues h mod p that occur as beta mod p for some trace beta.

    The traces are the signed integers beta with 0 < beta^2 < 4q and p
    not dividing beta.  With B = isqrt(4q - 1), every unit residue occurs
    once B >= p - 1; below that the residues are exactly +-b mod p for
    1 <= b <= B.  For p = 2 this gives {1} for every q (the single
    nontrivial residue), so the formula covers the degenerate prime too.
    """
    q = _field_order(p, q)
    bound = isqrt(4 * q - 1)
    if bound >= p - 1:
        return frozenset(range(1, p))
    return frozenset(r for b in range(1, bound + 1) for r in (b, p - b))


def twist_class_action(cls: UnitClass, d: FieldElement, kind: str = "quadratic") -> UnitClass:
    """Where the class of a Hasse invariant moves under a twist by d.

    A twist of degree m sends [h] to [h * d^((p-1)/m)], where p = 1 mod m
    as twist itself checks (curve._twist_degree): m = 2, 4 and 6 for
    quadratic, quartic and sextic, read off curve._TWISTS.
    """
    ctx = cls.ctx
    d = ctx.element(d)
    if not d:
        raise ZeroTwistParameterError("twist parameter must be nonzero")
    p = ctx.p
    return unit_class_of(cls.rep * d ** ((p - 1) // _twist_degree(p, kind)))


class FrobeniusKernelClass(NamedTuple):
    """Which twisted form of the p-th roots of unity ker(Frobenius) is.

    hasse_class is None exactly in the supersingular case, where the
    kernel is the infinitesimal self-dual form instead of a twisted
    multiplicative one.  For ordinary curves the multiplicative side
    carries the class of the Hasse invariant and the dual (additive Lie)
    side carries its inverse.  A NamedTuple of one field: it compares and
    hashes as (hasse_class,), and survives pickle and copy.
    """

    hasse_class: UnitClass | None

    @property
    def supersingular(self) -> bool:
        return self.hasse_class is None

    @property
    def lie_class(self) -> UnitClass | None:
        return None if self.hasse_class is None else self.hasse_class.inverse()

    def __repr__(self) -> str:
        if self.hasse_class is None:
            return "FrobeniusKernelClass(supersingular)"
        return f"FrobeniusKernelClass(ordinary, {self.hasse_class!r})"


def kernel_of_frobenius(curve: WeierstrassCurve) -> FrobeniusKernelClass:
    a = hasse_invariant(curve)
    return FrobeniusKernelClass(None if not a else unit_class_of(a))


class PTorsionDescription(NamedTuple):
    """Coordinate-level description of the p-torsion group scheme E[p].

    Ordinary case: a connected multiplicative-type part twisted by
    hasse_class, the class of the Hasse invariant hasse, plus an etale
    algebra whose field factors all have the same degree (the order of
    the class); etale_degrees lists them with multiplicity.  j_p_root
    is the unique p-th root of j in the base field, the value at which
    the second coordinate generator is glued.

    Supersingular case: nothing splits; the scheme is the standard
    non-split self-dual thickening, labelled M2.

    A NamedTuple: it compares and hashes as the tuple of its fields, and
    survives pickle and copy.
    """

    supersingular: bool
    hasse_class: UnitClass | None = None
    j: FieldElement | None = None
    etale_degrees: tuple[int, ...] | None = None
    j_p_root: FieldElement | None = None
    hasse: FieldElement | None = None

    @property
    def label(self) -> str:
        return "M2" if self.supersingular else "mu-form+etale"


def ptorsion_description(curve: WeierstrassCurve) -> PTorsionDescription:
    """Describe E[p] from the class of A_p and the p-th root of j.

    Frobenius acts on the roots of y^(p-1) = A by y -> y * N(A), where N
    is the norm to F_p, an element of order d = the class order of A.  So
    y^(p-1) - A splits into (p-1)/d irreducible factors of degree d
    (Lidl and Niederreiter, Finite Fields, ch. 3, on binomials).  The
    etale suite audits this against degree_pattern(), factor()'s
    distinct-degree split.
    """
    ctx = curve.ctx
    a = hasse_invariant(curve)
    if not a:
        return PTorsionDescription(supersingular=True)
    p = ctx.p
    cls = unit_class_of(a)
    j = curve.j_invariant
    return PTorsionDescription(
        supersingular=False,
        hasse_class=cls,
        j=j,
        etale_degrees=(cls.order,) * ((p - 1) // cls.order),
        j_p_root=j ** (p ** (ctx.n - 1)),
        hasse=a,
    )
