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

from .curve import (
    WeierstrassCurve,
    _row_counts,
    _trace,
    hasse_invariant,
    twist,
)
from .errors import InconsistencyError
from .forms import (
    enumerate_classes,
    phi,
    ptorsion_description,
    realizable_set,
    twist_class_action,
    unit_class_of,
)
from .gf import FieldCtx, make_field
from .poly import Polynomial, factor
from .search import _hasse_residue, census, iter_curves

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
        # out of the fast path by passing them as args
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


def _row_trace(curve: WeierstrassCurve) -> int:
    # point_count's beta, read off the whole-row kernel: iter_curves walks
    # the models row by row, so the kernel's memo builds each (a2, a4) row
    # once, and every model keeps the trace-bound check
    counts = _row_counts(curve.ctx, curve.a2.rank, curve.a4.rank)
    return _trace(curve, counts[curve.a6.rank])


def _suite_bridge(res: SuiteResult, ctx: FieldCtx) -> None:
    """A_p vanishes iff p | beta; otherwise phi([A_p]) = beta mod p.

    Both are one check, since _hasse_residue is 0 exactly when A_p = 0
    and a unit residue otherwise.  beta comes from the row kernel, over
    F_p the one the census scan reads its residues off.
    """
    p = ctx.p
    for curve in iter_curves(ctx):
        got = _hasse_residue(curve)
        beta = _row_trace(curve)
        res.check(got == beta % p,
                  "%r: Hasse residue %d (0 for A_p = 0) but beta = %d, %d mod p",
                  curve, got, beta, beta % p)


def _suite_twists(res: SuiteResult, ctx: FieldCtx) -> None:
    """Hasse classes move under twists exactly as the class action says.

    The action depends only on (class, d, kind), so it is computed once
    per key; the twisted curve and its A_p are computed for every pair.
    """
    j1728 = ctx.element(1728)
    actions = {}
    for curve in iter_curves(ctx):
        a = hasse_invariant(curve)
        if not a:
            continue
        base = unit_class_of(a)
        j = curve.j_invariant
        kinds = ["quadratic"]
        if j == j1728 and ctx.p % 4 == 1:
            kinds.append("quartic")
        if not j and ctx.p % 3 == 1:
            kinds.append("sextic")
        for d in ctx.iter_elements():
            if not d:
                continue
            for kind in kinds:
                got = unit_class_of(hasse_invariant(twist(curve, d, kind)))
                key = (base.exp, d.rank, kind)
                want = actions.get(key)
                if want is None:
                    want = actions[key] = twist_class_action(base, d, kind)
                res.check(got == want,
                          "%s twist of %r by %s: class exp %d, action predicts %d",
                          kind, curve, d, got.exp, want.exp)


def _suite_closed_forms(res: SuiteResult, ctx: FieldCtx) -> None:
    """The closed form for A_p against full truncated powering.

    On every model, hasse_invariant must equal the coefficient of x^(p-1)
    in f^((p-1)/2), computed by Polynomial.pow_truncated, which knows
    nothing of the term table.
    """
    p = ctx.p
    for curve in iter_curves(ctx):
        a = hasse_invariant(curve)
        want = curve.f_polynomial().pow_truncated((p - 1) // 2, p - 1)[p - 1]
        res.check(a == want,
                  "%r: A_p = %s but truncated powering gives %s", curve, a, want)


def _suite_norm(res: SuiteResult, ctx: FieldCtx) -> None:
    """A_q lies in the prime subfield and equals 1 - #E mod p.

    A_q is hasse_invariant at level q, the norm of the closed form; #E
    comes from the row kernel, which knows nothing of A_p.  The closed
    form itself is audited by the closed-forms suite.
    """
    p = ctx.p
    for curve in iter_curves(ctx):
        aq = hasse_invariant(curve, "q")
        count = ctx.q + 1 - _row_trace(curve)
        try:
            residue = int(aq)
        except ValueError:
            res.check(False, "%r: A_q = %s is not in the prime subfield", curve, aq)
            continue
        res.check(residue == (1 - count) % p,
                  "%r: A_q = %d but 1 - #E = %d mod p",
                  curve, residue, (1 - count) % p)


def _suite_etale(res: SuiteResult, ctx: FieldCtx) -> None:
    """Degrees in the etale part of E[p] match the order of the class.

    factor() of y^(p-1) - A_p is the independent route; ptorsion_description
    reads the degrees off the class order instead.
    """
    p = ctx.p
    degree_cache: dict[int, tuple[int, ...]] = {}
    for curve in iter_curves(ctx):
        a = hasse_invariant(curve)
        if not a:
            desc = ptorsion_description(curve)
            res.check(desc.supersingular and desc.label == "M2",
                      "%r: supersingular but described as %r", curve, desc)
            continue
        if a.rank in degree_cache:
            degrees = degree_cache[a.rank]
        else:
            desc = ptorsion_description(curve)
            binomial = [-a] + [ctx.zero] * (p - 2) + [ctx.one]
            degrees = factor(Polynomial(ctx, binomial)).degree_multiset
            degree_cache[a.rank] = degrees
            res.check(desc.j_p_root ** p == desc.j and desc.etale_degrees == degrees,
                      "%r: p-th root of j or etale degrees %r disagree with factor() %r",
                      curve, desc.etale_degrees, degrees)
        d = unit_class_of(a).order
        res.check(sum(degrees) == p - 1 and set(degrees) == {d},
                  "%r: etale degrees %r but class order %d", curve, degrees, d)


def _suite_census(res: SuiteResult, ctx: FieldCtx) -> None:
    """Full census vs the interval formula, plus a no-shortcut audit.

    The audit is one iter_curves pass keeping the first curve per residue
    phi([A_p]) until all p - 1 are hit; every census witness must match
    it coefficient by coefficient, or be absent on both sides.
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
    first = {}
    for curve in iter_curves(ctx):
        r = _hasse_residue(curve)
        if r:
            first.setdefault(r, curve)
            if len(first) == p - 1:
                break
    for entry in report.entries:
        h, w, slow = entry.residue, entry.witness, first.get(entry.residue)
        if slow is None:
            res.check(w is None,
                      "h = %d: census found a witness but the full sweep did not", h)
        else:
            res.check(w is not None and (w.a2, w.a4, w.a6)
                      == (slow.a2.coeffs, slow.a4.coeffs, slow.a6.coeffs),
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
    "norm": _suite_norm,
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
    products, t0 = _row_counts.cache_info().misses, time.perf_counter()
    _SUITES[name](res, ctx)
    logger.debug("suite %s over %s: %d cases, %d failures, %d row products "
                 "built, %.3f s", name, ctx, res.cases, len(res.failures),
                 _row_counts.cache_info().misses - products,
                 time.perf_counter() - t0)
    return res
