"""Exhaustive searches: which unit classes actually occur over a field.

Curves are enumerated in a single fixed order (a2 only moves in
characteristic 3, then a4, then a6, each by lex rank), singular models
skipped.  A class h is "hit" by a curve when the norm-style residue of
its Hasse invariant equals h; the first hit in enumeration order is the
witness recorded for h.

The census scans the enumeration index space once, on one thread, in
enumeration order, and stops as soon as every wanted class has a witness.
Where the closed form for A_p has no a6 term (A_5 = 2 a4) or no term at
all (A_3 = a2), the residue is constant on each a4 row or a2 slab, so the
census and the shortcut witness search classify one model per row or slab.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from .curve import WeierstrassCurve, _hasse_terms, hasse_invariant, point_count
from .errors import InconsistencyError, SingularModelError
from .forms import phi, realizable_set, unit_class_of
from .gf import FieldCtx, norm_to_prime, smallest_prime_factor

__all__ = [
    "admissible_traces",
    "iter_curves",
    "find_curve_with_class",
    "describe_witness",
    "WitnessRecord",
    "ClassEntry",
    "RealizabilityReport",
    "census",
]


def admissible_traces(q: int, h: int, p: int | None = None) -> frozenset[int]:
    """Signed traces beta with beta^2 < 4q, p not dividing beta, beta = h mod p.

    When p is omitted it is taken to be the smallest prime factor of q.
    An empty set proves no curve over F_q can land in class h.
    """
    if p is None:
        p = smallest_prime_factor(q)
    if h % p == 0:
        raise ValueError(f"h = {h} is divisible by p = {p}, not a unit residue")
    bound = isqrt(4 * q - 1)
    target = h % p
    return frozenset(b for b in range(-bound, bound + 1) if b and b % p == target)


def _index_space(ctx: FieldCtx) -> int:
    # the a2 digit moves only where WeierstrassCurve accepts a2 != 0
    return ctx.q ** (3 if ctx.p < 5 else 2)


def _curve_at(ctx: FieldCtx, idx: int) -> WeierstrassCurve | None:
    # idx holds the ranks of (a2, a4, a6) as base-q digits; a2 = 0 unless p = 3
    a2r, rest = divmod(idx, ctx.q * ctx.q)
    a4r, a6r = divmod(rest, ctx.q)
    try:
        return WeierstrassCurve(ctx, ctx.from_rank(a4r), ctx.from_rank(a6r),
                                a2=ctx.from_rank(a2r))
    except SingularModelError:
        return None


def iter_curves(ctx: FieldCtx) -> Iterator[WeierstrassCurve]:
    """Every nonsingular model over ctx, in enumeration order."""
    for idx in range(_index_space(ctx)):
        curve = _curve_at(ctx, idx)
        if curve is not None:
            yield curve


def _hasse_residue(curve: WeierstrassCurve) -> int:
    # 0 when supersingular, else the residue phi gives to [A_p]
    a = hasse_invariant(curve)
    return int(norm_to_prime(a)) if a else 0


def _classified(ctx: FieldCtx) -> Iterator[tuple[int, WeierstrassCurve, int]]:
    """(index, curve, residue) of the first nonsingular model per stride:
    one model if some closed-form term has a power of a6, one a4 row if
    the terms hold a4 only (A_5 = 2 a4), one a2 slab if there is no term
    (A_3 = a2)."""
    terms = _hasse_terms(ctx.p)
    stride = 1 if any(k for _, k, _ in terms) else ctx.q if terms else ctx.q * ctx.q
    idx, end = 0, _index_space(ctx)
    while idx < end:
        curve = _curve_at(ctx, idx)
        if curve is None:
            idx += 1
            continue
        yield idx, curve, _hasse_residue(curve)
        idx = (idx // stride + 1) * stride


def find_curve_with_class(ctx: FieldCtx, h: int, *,
                          use_trace_shortcut: bool = True) -> WeierstrassCurve | None:
    """First curve in enumeration order whose kernel class maps to h.

    With the shortcut on, an empty admissible trace set answers None
    without touching a single curve, and one model per stride of constant
    A_p is classified (_classified); the exhaustive route gives the same
    answer and exists precisely so the shortcuts can be audited.
    """
    p = ctx.p
    if not isinstance(h, int) or not 1 <= h <= p - 1:
        raise ValueError(f"h must be an integer in 1..{p - 1}, got {h}")
    if not use_trace_shortcut:
        return next((c for c in iter_curves(ctx) if _hasse_residue(c) == h), None)
    if not admissible_traces(ctx.q, h, p):
        return None
    return next((c for _, c, r in _classified(ctx) if r == h), None)


@dataclass(frozen=True)
class WitnessRecord:
    """One validated curve hitting a class, with its checked statistics."""

    a2: tuple[int, ...]
    a4: tuple[int, ...]
    a6: tuple[int, ...]
    count: int
    beta: int
    class_exp: int
    phi: int

    def to_dict(self) -> dict:
        return {
            "a2": list(self.a2),
            "a4": list(self.a4),
            "a6": list(self.a6),
            "count": self.count,
            "beta": self.beta,
            "class_exp": self.class_exp,
            "phi": self.phi,
        }


@dataclass(frozen=True)
class ClassEntry:
    residue: int
    witness: WitnessRecord | None

    @property
    def realizable(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class RealizabilityReport:
    """Outcome of a full census over one field.

    entries has one slot per residue 1..p-1 in order; missing lists the
    residues with no witness; verdict is "complete" when every class is
    hit and "proper-subset" otherwise.
    """

    p: int
    n: int
    q: int
    modulus: tuple[int, ...] | None
    entries: tuple[ClassEntry, ...]
    missing: tuple[int, ...]
    verdict: str

    @property
    def realizable(self) -> tuple[int, ...]:
        return tuple(e.residue for e in self.entries if e.realizable)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "modulus": list(self.modulus) if self.modulus else None,
            "classes": [
                {"residue": e.residue,
                 "realizable": e.realizable,
                 "witness": e.witness.to_dict() if e.witness else None}
                for e in self.entries
            ],
            "missing": list(self.missing),
            "verdict": self.verdict,
        }


def describe_witness(curve: WeierstrassCurve, h: int) -> WitnessRecord:
    """Recompute everything about a candidate curve and cross-check it.

    Raises InconsistencyError when the curve does not actually land in
    class h or its trace disagrees with the phi residue.
    """
    ctx = curve.ctx
    a = hasse_invariant(curve)
    if not a:
        raise InconsistencyError(f"witness for class {h} is supersingular: {curve!r}")
    cls = unit_class_of(a)
    residue = int(phi(cls))
    fd = point_count(curve)
    if residue != h:
        raise InconsistencyError(
            f"witness residue mismatch for class {h}: got {residue} from {curve!r}")
    if fd.beta % ctx.p != residue:
        raise InconsistencyError(
            f"trace residue disagrees with phi for {curve!r}: "
            f"beta = {fd.beta}, phi = {residue}")
    return WitnessRecord(
        a2=curve.a2.coeffs, a4=curve.a4.coeffs, a6=curve.a6.coeffs,
        count=fd.count, beta=fd.beta, class_exp=cls.exp, phi=residue)


def _validate_witness(ctx: FieldCtx, idx: int, h: int) -> WitnessRecord:
    curve = _curve_at(ctx, idx)
    if curve is None:
        raise InconsistencyError(f"witness index {idx} decodes to a singular model")
    return describe_witness(curve, h)


def census(ctx: FieldCtx) -> RealizabilityReport:
    """Find a first witness for every realizable class over ctx.

    Classes whose admissible trace set is empty are declared missing up
    front; the rest are searched by one sweep of the curve enumeration in
    order, keeping the first index per class and stopping once every
    class is hit, one model per stride of constant A_p (_classified).
    Each recorded witness is revalidated from scratch, and the
    final realizable set must agree with the interval formula or an
    InconsistencyError is raised.
    """
    p, q = ctx.p, ctx.q
    residues = range(1, p)
    wanted = frozenset(h for h in residues if admissible_traces(q, h, p))

    found: dict[int, int] = {}
    for idx, _, r in _classified(ctx):
        if r in wanted and r not in found:
            found[r] = idx
            if len(found) == len(wanted):
                break

    entries = []
    for h in residues:
        if h in found:
            entries.append(ClassEntry(h, _validate_witness(ctx, found[h], h)))
        else:
            entries.append(ClassEntry(h, None))
    missing = tuple(h for h in residues if h not in found)

    formula = realizable_set(p, q)
    swept = frozenset(found)
    if swept != formula:
        raise InconsistencyError(
            f"census over {ctx} found classes {sorted(swept)} but the trace "
            f"interval formula gives {sorted(formula)}")

    return RealizabilityReport(
        p=p, n=ctx.n, q=q, modulus=ctx.modulus,
        entries=tuple(entries), missing=missing,
        verdict="complete" if not missing else "proper-subset")
