"""Self-checking suites: each one sweeps a whole field and re-proves an
identity case by case, reporting every violation it finds.

A suite never samples unless it says so; "cases" counts elementary checks
actually performed.  All suites are deterministic, so a failure message
is reproducible verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .curve import hasse_invariant, point_count, twist
from .errors import InconsistencyError
from .forms import (
    enumerate_classes,
    phi,
    ptorsion_description,
    realizable_set,
    twist_class_action,
    unit_class_of,
)
from .gf import FieldCtx, make_field, norm_to_prime
from .poly import Polynomial, factor
from .search import census, find_curve_with_class, iter_curves

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("classification", "bridge", "twists", "closed-forms",
               "norm", "etale", "census")
CLOSED_FORM_PRIMES = (3, 5, 7, 11)
SAMPLE_STEP = 10  # census audits every tenth residue without the shortcut


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


def _suite_bridge(res: SuiteResult, ctx: FieldCtx) -> None:
    """A_p vanishes iff p | beta; otherwise phi([A_p]) = beta mod p."""
    p = ctx.p
    for curve in iter_curves(ctx):
        a = hasse_invariant(curve)
        fd = point_count(curve)
        if not a:
            res.check(fd.beta % p == 0,
                      "%r: A_p = 0 but beta = %d is prime to %d",
                      curve, fd.beta, p)
        else:
            got = int(phi(unit_class_of(a)))
            res.check(got == fd.beta % p,
                      "%r: phi([A_p]) = %d but beta mod p = %d",
                      curve, got, fd.beta % p)


def _suite_twists(res: SuiteResult, ctx: FieldCtx) -> None:
    """Hasse classes move under twists exactly as the class action says."""
    j1728 = ctx.element(1728)
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
                want = twist_class_action(base, d, kind)
                res.check(got == want,
                          "%s twist of %r by %s: class exp %d, action predicts %d",
                          kind, curve, d, got.exp, want.exp)


def _suite_closed_forms(res: SuiteResult, ctx: FieldCtx) -> None:
    """Hasse invariants against their closed forms for small primes.

    Over F_3 the invariant is a2 itself; over F_5 it is 2 a4; over F_7
    it is 3 a6; over F_11 it is 9 a4 a6.
    """
    p = ctx.p
    for curve in iter_curves(ctx):
        a = hasse_invariant(curve)
        if p == 3:
            want = curve.a2
        elif p == 5:
            want = 2 * curve.a4
        elif p == 7:
            want = 3 * curve.a6
        else:
            want = 9 * curve.a4 * curve.a6
        res.check(a == want,
                  "%r: A_p = %s but the closed form gives %s", curve, a, want)


def _suite_norm(res: SuiteResult, ctx: FieldCtx) -> None:
    """A_q is the (q-1)/(p-1) power of A_p and equals 1 - #E mod p."""
    p = ctx.p
    e = (ctx.q - 1) // (p - 1)
    for curve in iter_curves(ctx):
        ap = hasse_invariant(curve, "p")
        aq = hasse_invariant(curve, "q")
        want = ap**e
        res.check(aq == want,
                  "%r: A_q = %s but A_p^%d = %s", curve, aq, e, want)
        fd = point_count(curve)
        try:
            residue = int(aq)
        except ValueError:
            res.check(False, "%r: A_q = %s is not in the prime subfield", curve, aq)
            continue
        res.check(residue == (1 - fd.count) % p,
                  "%r: A_q = %d but 1 - #E = %d mod p",
                  curve, residue, (1 - fd.count) % p)


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
    """Full census vs the interval formula, plus a no-shortcut audit."""
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
    for h in range(1, p, SAMPLE_STEP):
        slow = find_curve_with_class(ctx, h, use_trace_shortcut=False)
        entry = report.entries[h - 1]
        if slow is None:
            res.check(not entry.realizable,
                      "h = %d: census found a witness but the full sweep did not", h)
        else:
            res.check(entry.realizable and entry.witness.a4 == slow.a4.coeffs
                      and entry.witness.a6 == slow.a6.coeffs
                      and entry.witness.a2 == slow.a2.coeffs,
                      "h = %d: census witness differs from the full-sweep witness", h)
    if p == 19 and ctx.n == 1:
        # the realizable set here is not closed under multiplication
        res.check(3 in formula and (3 * 3) % 19 not in formula,
                  "expected 3 realizable and 9 missing over F_19")
    res.detail = report.to_dict()


def run_suite(name: str, p: int, n: int = 1) -> SuiteResult:
    """Run one named suite over F_{p^n} and collect its verdict."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if name == "closed-forms":
        if n != 1 or p not in CLOSED_FORM_PRIMES:
            raise ValueError(
                f"closed-forms covers p in {CLOSED_FORM_PRIMES} with n = 1, "
                f"got p = {p}, n = {n}")
    ctx = make_field(p, n)
    res = SuiteResult(suite=name, p=p, n=n)
    if name == "classification":
        _suite_classification(res, ctx)
    elif name == "bridge":
        _suite_bridge(res, ctx)
    elif name == "twists":
        _suite_twists(res, ctx)
    elif name == "closed-forms":
        _suite_closed_forms(res, ctx)
    elif name == "norm":
        _suite_norm(res, ctx)
    elif name == "etale":
        _suite_etale(res, ctx)
    elif name == "census":
        _suite_census(res, ctx)
    return res
