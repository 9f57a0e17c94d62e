"""Exhaustive searches: which unit classes actually occur over a field.

Curves are enumerated in a single fixed order (a2 only moves in
characteristic 3, then a4, then a6, each by lex rank), singular models
skipped: _iter_rows gives it on ranks, row by row, each (a2, a4) row with
its at most two singular a6; its readers walk the other a6, and
iter_curves decodes its models.  On ranks a model is its (a2, a4, a6)
rank triple, and triples sort in enumeration order.  A class h is "hit"
by a curve when the norm-style residue of its Hasse invariant equals h;
the first hit in enumeration order is the witness recorded for h.

The census scans the enumeration in order, on lex ranks with no objects,
until every wanted class has a witness.  A model's class and #E depend
only on its isomorphism class (Silverman, AEC III.1), so it reads one
row per isomorphism orbit of (a2, a4) rows, the first in enumeration
order: _row_orbits, the one place that rule lives, lists at most 5 rows
for p >= 5 and 6 for p = 3, each with its orbit's size as weight.  Each
row drops the discriminant's roots (curve._singular_a6), as the readers
of _iter_rows do.  Over F_p a row of two or more closed-form
coefficients is read whole, off one packed product (curve._row_counts),
and the residue is the trace mod p; every other row reads phi([A_p]) by
class exponent (forms._class_residues), A_p off curve._hasse_at on
blocks of a6 that double in size.  A row where A_p = c a6^k (row a4 = 0
where p = 1 mod 3, a constant row where k = 0) reaches only the classes
of one coset, since F_q^* is cyclic (Lidl and Niederreiter, Finite
Fields, ch. 2), and stops once it has hit them all.  The winners are
checked on ranks too, one curve._disc_at and one curve._hasse_at call
per witness row (_check_row), with counts off the row product where the
scan made one and curve._count_at elsewhere.  One exhaustive sweep on
ranks (_first_hits), with residues by rank (forms._rank_classes), audits
the scan: the no-shortcut search and the census suite both read it.
Tests decode every model (iter_curves) to audit the sweep and every
witness to audit the check.  The discriminant at a6, its roots and the
trace bound are curve's, and the class of a rank is forms': this module
reads them.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from itertools import filterfalse, islice, repeat
from math import gcd, isqrt
from typing import Iterator, NamedTuple, Sequence

from .curve import (WeierstrassCurve, _count_at, _decode, _disc_at, _disc_row, _hasse_at,
                    _hasse_row, _in_trace_bound, _row_counts, _row_hasse, _singular_a6,
                    point_count)
from .errors import InconsistencyError
from .forms import _class_residues, _field_order, _rank_classes, realizable_set
from .gf import FieldCtx, FieldElement, logger, smallest_prime_factor

__all__ = ["admissible_traces", "iter_curves", "find_curve_with_class", "describe_witness",
           "WitnessRecord", "ClassEntry", "RealizabilityReport", "census"]


# builds a NamedTuple record from the tuple of its fields at C level, with
# no call of its generated Python __new__
_new = tuple.__new__


def admissible_traces(q: int, h: int, p: int | None = None) -> frozenset[int]:
    """Signed traces beta with beta^2 < 4q, p not dividing beta, beta = h mod p.

    When p is omitted it is taken to be the smallest prime factor of q.
    q must be a power of the prime p, as realizable_set checks (ValueError
    otherwise).  An empty set proves no curve over F_q can land in class h.
    """
    if p is None:
        p = smallest_prime_factor(q)
    q = _field_order(p, q)
    if h % p == 0:
        raise ValueError(f"h = {h} is divisible by p = {p}, not a unit residue")
    bound = isqrt(4 * q - 1)
    target = h % p
    return frozenset(b for b in range(-bound, bound + 1) if b and b % p == target)


def _iter_rows(ctx: FieldCtx) -> Iterator[tuple[int, int, tuple, tuple[int, ...]]]:
    """(a2 rank, a4 rank, discriminant row, singular a6 ranks) of each
    (a2, a4) row with a nonsingular model, in enumeration order.

    The discriminant row is curve._disc_row's (d0, d1, d2), disc =
    d0 + d1 a6 + d2 a6^2; it has at most two roots a6 unless it is zero
    (curve._singular_a6), so a row is filtered with no per-model work: a row
    singular on every a6 is skipped, and every other row yields its at
    most two singular a6.  Its nonsingular a6 are
    filterfalse(singular.__contains__, range(q)), walked lazily.  This is
    the one enumeration: iter_curves decodes its models, and the row
    suites and the exhaustive sweep (_first_hits) read the row tables
    (curve._row_hasse, curve._row_counts) at its ranks.
    """
    q = ctx.q
    # a2 moves only where WeierstrassCurve accepts a2 != 0
    for r2 in range(q if ctx.p == 3 else 1):
        for r4 in range(q):
            d = _disc_row(ctx, r2, r4)
            singular = _singular_a6(ctx, d)
            if len(singular) < q:
                yield r2, r4, d, singular


def iter_curves(ctx: FieldCtx) -> Iterator[WeierstrassCurve]:
    """Every nonsingular model over ctx, in enumeration order.

    The models of _iter_rows, decoded from one list of the q elements:
    row by row, so the table point count (_count_at) builds each (a2, a4)
    row once.  The discriminants of a row come from one curve._disc_at
    call on its nonsingular a6.
    """
    q, unchecked = ctx.q, WeierstrassCurve._unchecked
    elements = list(ctx.iter_elements())
    for r2, r4, d, singular in _iter_rows(ctx):
        a2, a4 = elements[r2], elements[r4]
        r6s = list(filterfalse(singular.__contains__, range(q)))
        for r6, disc in zip(r6s, _disc_at(ctx, d, r6s)):
            yield unchecked(ctx, a2, a4, elements[r6], FieldElement(ctx, disc))


def _first_hits(ctx: FieldCtx, wanted: Sequence[int]) -> dict[int, tuple[int, int, int]]:
    """The (a2, a4, a6) ranks of the first model of each residue in wanted.

    The exhaustive sweep that audits the scan (_classified): the rows of
    _iter_rows in order, each at every a6 but its singular ones, A_p off
    curve._row_hasse, until every wanted residue is hit or the rows run
    out; no orbit rule, row product or trace shortcut.  The residue of A_p
    is read by rank (forms._rank_classes).
    """
    q, residue = ctx.q, [r if r in wanted else 0 for r in _rank_classes(ctx)[1]]
    first = {}
    for r2, r4, _, singular in _iter_rows(ctx):
        hasse = _row_hasse(ctx, r2, r4)
        for r6 in filterfalse(singular.__contains__, range(q)):
            r = residue[hasse[r6]]
            if r and r not in first:
                first[r] = (r2, r4, r6)
        if len(first) == len(wanted):
            break
    return first


def _row_orbits(ctx: FieldCtx) -> list[tuple[int, int, int]]:
    """(a2 rank, a4 rank, weight) of the first row of each isomorphism
    orbit of (a2, a4) rows that holds a nonsingular model, in enumeration
    order; the weight is the number of rows in the orbit.

    The one place the census's row rule lives.  x -> u^2 x scales (a2,
    a4, a6) by (u^2, u^4, u^6) (Silverman, AEC III.1), so on the a2 = 0
    slab row a4 = 0 is its own orbit (p >= 5; for p = 3 every model on it
    is singular) and each coset of fourth powers, keyed by log a4 mod
    c = gcd(4, q - 1), is one, read at its first a4.  In characteristic 3,
    x -> x + r sends a4 to a4 - a2 r, so where a2 != 0 every row of the
    slab is isomorphic to row (a2, 0), and slabs a2 and u^2 a2 are one
    orbit: one row per square class, at its first a2, of weight
    q (q - 1)/2.  c is even, so the first rank of each square class is
    the first rank of a coset, and one loop over the ranks 1, 2, ...
    that stops at the last coset finds both.  Each map is a bijection of
    the models of one row onto another's, so the rows of an orbit hold
    one (class, #E) multiset and a row not listed comes after its
    orbit's listed row: no first hit is lost.
    """
    q, log = ctx.q, ctx._log_tables[1]
    c, fourth, square = gcd(4, q - 1), {}, {}
    for r in range(1, q):
        fourth.setdefault(log[r] % c, r)
        square.setdefault(log[r] & 1, r)
        if len(fourth) == c:
            break
    orbits = [(0, r4, (q - 1) // c) for r4 in fourth.values()]
    if ctx.p > 3:
        return [(0, 0, 1)] + orbits
    return orbits + [(r2, 0, q * (q - 1) // 2) for r2 in square.values()]


def _classified(ctx: FieldCtx, tally: Counter | None = None,
                counts: dict | None = None) -> Iterator[tuple[int, int, int, int]]:
    """(a2, a4, a6 ranks, residue) of each nonsingular model the scan
    classifies, in enumeration order; the residue is 0 when supersingular.

    The scan reads only the rows of _row_orbits, one per isomorphism
    orbit.  Each drops the discriminant roots (_singular_a6) and walks the
    other a6 lazily, as the readers of _iter_rows do.  Over F_p a row
    whose closed form has two or more coefficients is read whole, since
    about p classes are hit there: the residue is (1 - #E) mod p off the
    row product (curve._row_counts, read at the log of a6 and kept in
    counts by (a2, a4) ranks).  Every other row reads phi([A_p])
    (forms._class_residues) off curve._hasse_at, on blocks of a6 that
    double (_row_residues), so a row left after m models costs about
    2m + b evaluations, b the first block.  A row of at most one coefficient, A_p = c a6^k, has classes
    log c + k log a6 mod (p - 1), one coset of (p - 1)/gcd(k, p - 1) of
    them (one where k = 0: A_3 = a2, A_5 = 2 a4; none where A_p = 0), and
    stops once it has yielded them all: no later model on it can be a
    first hit.  So a constant row yields its first model.  Such a row's
    first block is the square of its reach, the classes plus 0, at most
    64; the square covers the coupon-collector wait of a small coset.
    Every other row starts at 64.  tally counts the rows tabulated and
    stopped at their coset, the discriminant roots of each tabulated row,
    and as "rows skipped" the rows before the current one in enumeration
    order that the scan did not read.
    """
    p, q, pm1 = ctx.p, ctx.q, ctx.p - 1
    tally = Counter() if tally is None else tally
    counts = {} if counts is None else counts
    log = ctx._log_tables[1]
    for rows, (a2r, a4r, _) in enumerate(_row_orbits(ctx)):
        tally["rows"], tally["rows skipped"] = rows + 1, a2r * q + a4r - rows
        singular = _singular_a6(ctx, _disc_row(ctx, a2r, a4r))
        tally["singular"] += len(singular)
        r6s = filterfalse(singular.__contains__, range(q))
        k, coeffs = _hasse_row(ctx, a2r, a4r)
        # at most one coefficient: the classes of one coset, none where
        # A_p = 0, and 0 counted as hit from the start
        reach = 0 if len(coeffs) > 1 else 1 + (pm1 // gcd(k, pm1) if coeffs else 0)
        if ctx.n == 1 and len(coeffs) > 1:
            counts[a2r, a4r] = row = _row_counts(ctx, a2r, a4r)
            models = ((r6, (1 - row[log[r6]]) % p) for r6 in r6s)
        else:
            models = _row_residues(ctx, k, coeffs, r6s, min(reach * reach, 64) or 64)
        hit = {0}
        for r6, r in models:
            yield a2r, a4r, r6, r
            if reach:
                hit.add(r)
                if len(hit) == reach:
                    tally["rows stopped"] += 1
                    break


def _row_residues(ctx: FieldCtx, k: int, coeffs: tuple[int, ...],
                  r6s: Iterator[int], size: int) -> Iterator[tuple[int, int]]:
    # (a6 rank, phi([A_p]) or 0), A_p off curve._hasse_at on blocks of r6s
    # that double from size
    by_class, log, pm1 = _class_residues(ctx), ctx._log_tables[1], ctx.p - 1
    while block := list(islice(r6s, size)):
        for r6, a in zip(block, _hasse_at(ctx, k, coeffs, block)):
            yield r6, by_class[log[a] % pm1] if a else 0
        size *= 2


def find_curve_with_class(ctx: FieldCtx, h: int, *,
                          use_trace_shortcut: bool = True) -> WeierstrassCurve | None:
    """First curve in enumeration order whose kernel class maps to h.

    With the shortcut on, an empty admissible trace set answers None at
    once, else the rank scan (_classified) finds the winner.  Without it,
    the exhaustive sweep that the census suite audits the scan with
    (_first_hits) walks every row until h is hit.  Either way the winner
    is the only model built, and both routes give the same answer.
    """
    p = ctx.p
    if not isinstance(h, int) or not 1 <= h <= p - 1:
        raise ValueError(f"h must be an integer in 1..{p - 1}, got {h}")
    if not use_trace_shortcut:
        hit = _first_hits(ctx, (h,)).get(h)
        return _decode(ctx, *hit) if hit else None
    if not admissible_traces(ctx.q, h, p):
        return None
    return next((_decode(ctx, r2, r4, r6) for r2, r4, r6, r in _classified(ctx) if r == h),
                None)


class WitnessRecord(NamedTuple):
    """One validated curve hitting a class, with its checked statistics.

    The census's records (WitnessRecord, ClassEntry, RealizabilityReport)
    are NamedTuples: they compare and hash as tuples of their fields, and
    survive pickle and copy.
    """

    a2: tuple[int, ...]
    a4: tuple[int, ...]
    a6: tuple[int, ...]
    count: int
    beta: int
    class_exp: int
    phi: int

    def to_dict(self) -> dict:
        return {"a2": list(self.a2), "a4": list(self.a4), "a6": list(self.a6), "count": self.count,
                "beta": self.beta, "class_exp": self.class_exp, "phi": self.phi}


class ClassEntry(NamedTuple):
    """The class residue and its witness, None when no curve hits it."""

    residue: int
    witness: WitnessRecord | None

    @property
    def realizable(self) -> bool:
        return self.witness is not None


class RealizabilityReport(NamedTuple):
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

    The census's check (_check_row) at this one model, counted by
    point_count.  Raises InconsistencyError when the curve does not
    actually land in class h or its trace disagrees with the phi residue.
    """
    r2, r4, r6 = curve.a2.rank, curve.a4.rank, curve.a6.rank
    return _check_row(curve.ctx, r2, r4, [(h, r6)], [point_count(curve).count])[0]


def _check_row(ctx: FieldCtx, r2: int, r4: int, hits: Sequence[tuple[int, int]],
               counts: Sequence[int]) -> list[WitnessRecord]:
    """The records of the (class h, a6 rank) hits on an (a2, a4) row, checked
    on ranks with one _hasse_at call: each model must be nonsingular (one
    curve._disc_at list) and ordinary, the class e = log A_p mod (p - 1)
    must have residue h (forms._class_residues, the exp table over F_p),
    and beta = q + 1 - count, with counts[i] for hit i, must be h mod p
    and inside the trace bound (curve._in_trace_bound); else raises
    InconsistencyError naming the class and the model.  A record is the
    tuple of its fields, built by tuple.__new__ with no Python-level
    constructor call.
    """
    p, q, log, coeffs = ctx.p, ctx.q, ctx._log_tables[1], ctx._tuple_from_rank
    r6s = [r6 for _, r6 in hits]
    discs = _disc_at(ctx, _disc_row(ctx, r2, r4), r6s)
    a_ps = _hasse_at(ctx, *_hasse_row(ctx, r2, r4), r6s)
    by_class, records, a2, a4 = _class_residues(ctx), [], coeffs(r2), coeffs(r4)
    for (h, r6), disc, a, count in zip(hits, discs, a_ps, counts):
        e, beta = log[a] % (p - 1), q + 1 - count
        if not disc:
            fault = "is singular"
        elif not a:
            fault = "is supersingular"
        elif by_class[e] != h:
            fault = f"has residue {by_class[e]} by phi"
        elif beta % p != h or not _in_trace_bound(ctx, beta):
            fault = f"breaks the trace check: beta = {beta}"
        else:
            records.append(_new(WitnessRecord, (a2, a4, coeffs(r6), count, beta, e, h)))
            continue
        raise InconsistencyError(f"witness for class {h} {fault}: (a2, a4, a6) = "
                                 f"{a2, a4, coeffs(r6)} over {ctx}")
    return records


def census(ctx: FieldCtx) -> RealizabilityReport:
    """Find a first witness for every realizable class over ctx.

    One scan in enumeration order (_classified), over one row per
    isomorphism orbit (_row_orbits, where that rule lives), keeps the
    a6 rank of the first model of each residue, grouped by (a2, a4) row
    as the scan finds them, until every class of realizable_set is hit,
    else raises InconsistencyError.  The scan runs in enumeration order,
    so the rows and the hits on each come in that order with no sort.
    The winners are checked as by describe_witness, on ranks, one
    _check_row call per witness row, with counts off the scan's
    row product where it made one (at the log of a6) and curve._count_at
    (the table point count) on every other row: no curve is built.  The
    DEBUG record's "singular skipped" counts the discriminant roots of
    each tabulated row, whether or not the scan got that far along it,
    "rows skipped" the rows before the last one read, in enumeration
    order, that the scan did not read, "rows stopped at their coset" the
    rows of at most one coefficient (A_p = c a6^k, constant A_p and
    A_p = 0 included) the scan left once their classes were all hit, and
    "witness rows" the _check_row calls.
    """
    p, q = ctx.p, ctx.q
    residues = range(1, p)
    wanted = realizable_set(p, q)

    tally, counts = Counter(), {}
    log = ctx._log_tables[1]  # built, and logged, before the scan clock starts
    t0 = time.perf_counter()
    # the (class, a6 rank) hits of each (a2, a4) row, rows and hits in the
    # scan's order, which is enumeration order
    found, by_row = set(), defaultdict(list)
    models = 0
    for models, (r2, r4, r6, r) in enumerate(_classified(ctx, tally, counts), 1):
        if r and r not in found:
            found.add(r)
            by_row[r2, r4].append((r, r6))
            if len(found) == len(wanted):
                break

    if found != wanted:
        raise InconsistencyError(
            f"census over {ctx} found classes {sorted(found)} but the trace "
            f"interval formula gives {sorted(wanted)}")

    t1 = time.perf_counter()
    witnesses = {}
    for (r2, r4), hits in by_row.items():
        row = counts.get((r2, r4))
        cs = [_count_at(ctx, r2, r4, r6) if row is None else row[log[r6]] for _, r6 in hits]
        witnesses.update(zip([h for h, _ in hits], _check_row(ctx, r2, r4, hits, cs)))
    entries = tuple(map(_new, repeat(ClassEntry),
                        zip(residues, map(witnesses.get, residues))))
    missing = tuple(filterfalse(found.__contains__, residues))
    logger.debug("census over %s: %d models tested, %d singular skipped, "
                 "%d rows tabulated, %d rows skipped, %d rows stopped at their "
                 "coset, %d witness rows; scan %.6f s, witness validation %.6f s",
                 ctx, models, tally["singular"], tally["rows"], tally["rows skipped"],
                 tally["rows stopped"], len(by_row), t1 - t0, time.perf_counter() - t1)

    return RealizabilityReport(
        p=p, n=ctx.n, q=q, modulus=ctx.modulus,
        entries=entries, missing=missing,
        verdict="complete" if not missing else "proper-subset")
