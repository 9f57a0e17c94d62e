"""Self-checking suites: each one sweeps a whole field and re-proves an
identity case by case, reporting every violation it finds.

A suite never samples unless it says so; "cases" counts elementary checks
actually performed.  All suites are deterministic, so a failure message
is reproducible verbatim.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from math import gcd

from .curve import (
    _decode,
    _row_counts,
    _row_hasse,
    _trace,
    _twist_kinds,
    _twist_scales,
    hasse_invariant,
)
from .errors import InconsistencyError
from .forms import (
    UnitClass,
    enumerate_classes,
    phi,
    ptorsion_description,
    realizable_set,
    twist_class_action,
)
from .gf import FieldCtx, FieldElement, make_field
from .poly import Polynomial, degree_pattern
from .search import _first_hits, _iter_rows, _residues, census, iter_curves

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite"]

logger = logging.getLogger("hasseforms")


@dataclass
class SuiteResult:
    suite: str
    p: int
    n: int
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    detail: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, fmt: str, *args) -> None:
        # failure text is only rendered on failure; keep expensive reprs
        # out of the fast path by passing them as args.  The row suites,
        # whose args would be decoded models, count a pass as cases += 1
        # and call check(False, ...) only on a failure
        self.cases += 1
        if not condition:
            self.failures.append(fmt % args if args else fmt)

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "p": self.p,
            "n": self.n,
            "cases": self.cases,
            "failures": list(self.failures),
            "ok": self.ok,
        }
        if self.detail is not None:
            out["detail"] = self.detail
        return out

    def summary_line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"suite={self.suite} p={self.p} n={self.n} "
                f"cases={self.cases} failures={len(self.failures)} {status}")


def _suite_classification(res: SuiteResult, ctx: FieldCtx) -> None:
    """p - 1 unit classes, phi an isomorphism onto the prime units."""
    p = ctx.p
    classes = enumerate_classes(ctx)
    res.check(len(classes) == p - 1,
              "expected %d classes, got %d", p - 1, len(classes))
    values = [int(phi(c)) for c in classes]
    for c, v in zip(classes, values):
        res.check(1 <= v <= p - 1, "phi(%r) = %d is not a unit residue", c, v)
    res.check(len(set(values)) == p - 1,
              "phi is not injective on classes: %r", values)
    for c1, v1 in zip(classes, values):
        for c2, v2 in zip(classes, values):
            res.check(phi(c1 * c2) == (v1 * v2) % p,
                      "phi not multiplicative at %r * %r", c1, c2)


def _class_exps(ctx: FieldCtx) -> list[int]:
    # the unit class exponent, log mod p - 1 (unit_class_of), of every
    # rank; -1 at zero, which has no class
    pm1 = ctx.p - 1
    return [e % pm1 if e >= 0 else -1 for e in ctx._log_tables[1]]


def _suite_bridge(res: SuiteResult, ctx: FieldCtx) -> None:
    """A_p vanishes iff p | beta; otherwise phi([A_p]) = beta mod p.

    Both are one check, since the residue is 0 exactly when A_p = 0 and
    a unit residue otherwise.  The norm suite runs this check too: A_q,
    the norm A_p^((q-1)/(p-1)) that hasse_invariant takes at level q, is
    exactly phi([A_p]) in the prime subfield (Silverman, AEC V.4), so
    "A_q = 1 - #E mod p" is this identity, beta = q + 1 - #E; that phi
    lands in the prime units is checked once, in forms._class_residues.
    Each row compares two row tables on the ranks of its nonsingular
    models: A_p off the closed form (_row_hasse, by the rank of a6) and
    beta off the point counts (_row_counts, by the log of a6), over F_p
    the kernel the census scan reads its residues off.  A model is
    decoded only to name it in a failure.
    """
    p, residue, log = ctx.p, _residues(ctx), ctx._log_tables[1]
    for r2, r4, _, r6s in _iter_rows(ctx):
        hasse, counts = _row_hasse(ctx, r2, r4), _row_counts(ctx, r2, r4)
        for r6 in r6s:
            got, beta = residue[hasse[r6]], _trace(ctx, counts[log[r6]], r2, r4, r6)
            if got == beta % p:
                res.cases += 1
            else:
                res.check(False, "%r: Hasse residue %d (0 for A_p = 0) but beta = %d, %d mod p",
                          _decode(ctx, r2, r4, r6), got, beta, beta % p)


def _suite_twists(res: SuiteResult, ctx: FieldCtx) -> None:
    """Hasse classes move under twists exactly as the class action says.

    On ranks, row by row (_iter_rows): a twist by d multiplies (a2, a4,
    a6) by the scales of curve._twist_scales, so the models of an (a2, a4)
    row land on row (s2 a2, s4 a4) at a6 rank s6 a6, and the kinds that
    apply are chosen on ranks (curve._twist_kinds).  A_p of a model and of
    each twist is read off the _row_hasse row of its (a2, a4), each row
    kept for the run, and classes are compared as exponents (log mod
    p - 1, -1 for a zero A_p, which matches no action).  The action,
    twist_class_action, depends only on (class, d, kind), so it is
    tabulated once per class and set of kinds.  A model and d are decoded
    only to name them in a failure, listed model by model, then by d,
    then by kind.
    """
    q, mul, exps = ctx.q, ctx._mul, _class_exps(ctx)
    rows, by_scale, plans, wants = {}, {}, {}, {}

    def hasse_row(r2, r4):
        row = rows.get((r2, r4))
        if row is None:
            row = rows[r2, r4] = _row_hasse(ctx, r2, r4)
        return row

    def times(s):
        # the ranks s * a6 for every rank a6
        perm = by_scale.get(s)
        if perm is None:
            perm = by_scale[s] = [mul(s, r6) for r6 in range(q)]
        return perm

    def plan(kinds):
        # (d, kind, scales) of every twist a model with these kinds takes
        if kinds not in plans:
            plans[kinds] = [(d, kind, _twist_scales(ctx, d, kind))
                            for d in range(1, q) for kind in kinds]
        return plans[kinds]

    def want(kinds, base):
        # the class exponents the action predicts, in plan order
        if (kinds, base) not in wants:
            cls = UnitClass(ctx, base)
            wants[kinds, base] = [twist_class_action(cls, FieldElement(ctx, d), kind).exp
                                  for d, kind, _ in plan(kinds)]
        return wants[kinds, base]

    for r2, r4, _, r6s in _iter_rows(ctx):
        base_row, targets = hasse_row(r2, r4), {}
        for r6 in r6s:
            base = exps[base_row[r6]]
            if base < 0:
                continue  # supersingular
            kinds = _twist_kinds(ctx, r4, r6)
            if kinds not in targets:
                targets[kinds] = [(hasse_row(mul(s2, r2), mul(s4, r4)), times(s6))
                                  for _, _, (s2, s4, s6, _) in plan(kinds)]
            got = [exps[row[perm[r6]]] for row, perm in targets[kinds]]
            expected = want(kinds, base)
            if got == expected:
                res.cases += len(got)
                continue
            for (d, kind, _), g, w in zip(plan(kinds), got, expected):
                if g == w:
                    res.cases += 1
                else:
                    res.check(False, "%s twist of %r by %s: class exp %d, action predicts %d",
                              kind, _decode(ctx, r2, r4, r6), FieldElement(ctx, d), g, w)


def _suite_closed_forms(res: SuiteResult, ctx: FieldCtx) -> None:
    """The closed form for A_p against full truncated powering.

    On every model, hasse_invariant, the one closed-form evaluator
    curve._hasse_at at one a6, must equal the coefficient of x^(p-1) in
    f^((p-1)/2), computed by Polynomial.pow_truncated, which knows
    nothing of the term table.
    """
    p = ctx.p
    for curve in iter_curves(ctx):
        a = hasse_invariant(curve)
        want = curve.f_polynomial().pow_truncated((p - 1) // 2, p - 1)[p - 1]
        res.check(a == want,
                  "%r: A_p = %s but truncated powering gives %s", curve, a, want)


def _suite_etale(res: SuiteResult, ctx: FieldCtx) -> None:
    """Degrees in the etale part of E[p] match the order of the class.

    degree_pattern() of y^(p-1) - A_p, the distinct-degree split that
    factor() runs, is the independent route: the degrees are fixed by the
    products of the factors of each degree, so the equal-degree split is
    not needed (factor's tests audit it).  ptorsion_description reads the
    degrees off the class order instead.  A_p and its class are read off
    the row table _row_hasse; a model is decoded for ptorsion_description
    (once per value of A_p, and on every supersingular model) and to name
    it in a failure.
    """
    p, exps = ctx.p, _class_exps(ctx)
    degree_cache: dict[int, tuple[int, ...]] = {}
    for r2, r4, _, r6s in _iter_rows(ctx):
        hasse = _row_hasse(ctx, r2, r4)
        for r6 in r6s:
            a = hasse[r6]
            if not a:
                curve = _decode(ctx, r2, r4, r6)
                desc = ptorsion_description(curve)
                res.check(desc.supersingular and desc.label == "M2",
                          "%r: supersingular but described as %r", curve, desc)
                continue
            if a in degree_cache:
                degrees = degree_cache[a]
            else:
                curve = _decode(ctx, r2, r4, r6)
                desc = ptorsion_description(curve)
                binomial = [ctx._neg(a)] + [0] * (p - 2) + [ctx.one.rank]
                degrees = degree_pattern(Polynomial.from_ranks(ctx, binomial))
                degree_cache[a] = degrees
                res.check(desc.j_p_root ** p == desc.j and desc.etale_degrees == degrees,
                          "%r: p-th root of j or etale degrees %r disagree with factor() %r",
                          curve, desc.etale_degrees, degrees)
            d = (p - 1) // gcd(exps[a], p - 1)  # the order of the class
            if sum(degrees) == p - 1 and set(degrees) == {d}:
                res.cases += 1
            else:
                res.check(False, "%r: etale degrees %r but class order %d",
                          _decode(ctx, r2, r4, r6), degrees, d)


def _suite_census(res: SuiteResult, ctx: FieldCtx) -> None:
    """Full census vs the interval formula, plus a no-shortcut audit.

    The audit is the exhaustive sweep of search --no-shortcut
    (search._first_hits): the first model of every residue, with A_p off
    the row table _row_hasse and none of the scan's pruning.  Every
    census witness must match it coefficient by coefficient, or be
    absent on both sides.
    """
    p, q = ctx.p, ctx.q
    try:
        report = census(ctx)
    except InconsistencyError as exc:
        res.check(False, str(exc))
        return
    formula = realizable_set(p, q)
    res.check(set(report.realizable) == formula,
              "census classes %r vs formula %r",
              sorted(report.realizable), sorted(formula))
    res.check(report.verdict == ("complete" if len(formula) == p - 1 else "proper-subset"),
              "verdict %r inconsistent with %r", report.verdict, sorted(formula))
    first = _first_hits(ctx, range(1, p))
    for entry in report.entries:
        h, w, slow = entry.residue, entry.witness, first.get(entry.residue)
        if slow is None:
            res.check(w is None,
                      "h = %d: census found a witness but the full sweep did not", h)
        else:
            res.check(w is not None and (w.a2, w.a4, w.a6)
                      == tuple(ctx.from_rank(r).coeffs for r in slow),
                      "h = %d: census witness differs from the full-sweep witness", h)
    if p == 19 and ctx.n == 1:
        # the realizable set here is not closed under multiplication
        res.check(3 in formula and (3 * 3) % 19 not in formula,
                  "expected 3 realizable and 9 missing over F_19")
    res.detail = report.to_dict()


_SUITES = {
    "classification": _suite_classification,
    "bridge": _suite_bridge,
    "twists": _suite_twists,
    "closed-forms": _suite_closed_forms,
    "norm": _suite_bridge,
    "etale": _suite_etale,
    "census": _suite_census,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, p: int, n: int = 1) -> SuiteResult:
    """Run one named suite over F_{p^n} and collect its verdict."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    ctx = make_field(p, n)
    res = SuiteResult(suite=name, p=p, n=n)
    products, hasse_rows = _row_counts.cache_info().misses, _row_hasse.cache_info().misses
    t0 = time.perf_counter()
    _SUITES[name](res, ctx)
    logger.debug("suite %s over %s: %d cases, %d failures, %d row products "
                 "built, %d Hasse rows built, %.3f s", name, ctx, res.cases,
                 len(res.failures), _row_counts.cache_info().misses - products,
                 _row_hasse.cache_info().misses - hasse_rows, time.perf_counter() - t0)
    return res
