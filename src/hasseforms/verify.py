"""Self-checking suites: each one sweeps a whole field and re-proves an
identity case by case, reporting every violation it finds.

A suite never samples unless it says so; "cases" counts elementary checks
actually performed.  All suites are deterministic, so a failure message
is reproducible verbatim.
"""

from __future__ import annotations

import time
from functools import cache, lru_cache
from itertools import compress, filterfalse
from math import gcd, isqrt
from operator import not_

from .curve import (
    WeierstrassCurve,
    _decode,
    _disc_at,
    _in_trace_bound,
    _row_counts,
    _row_hasse,
    _twist_kinds,
    _twist_scales,
    hasse_invariant,
)
from .errors import InconsistencyError
from .forms import (
    UnitClass,
    _rank_classes,
    enumerate_classes,
    phi,
    ptorsion_description,
    realizable_set,
    twist_class_action,
)
from .gf import FieldCtx, FieldElement, logger, make_field
from .poly import Polynomial, degree_pattern
from .search import _first_hits, _iter_rows, census, iter_curves

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite"]


class SuiteResult:
    """One suite's verdict over F_{p^n}: the cases checked, the failure
    messages, and the census report's to_dict as detail (None elsewhere).
    The suite mutates it as it runs."""

    __slots__ = ("suite", "p", "n", "cases", "failures", "detail")

    def __init__(self, suite: str, p: int, n: int) -> None:
        self.suite, self.p, self.n = suite, p, n
        self.cases: int = 0
        self.failures: list[str] = []
        self.detail: dict | None = None

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
    """p - 1 unit classes, phi an isomorphism onto the prime units.

    The class group k^x / (k^x)^(p-1) is cyclic, generated by [g] = c_1,
    so the statement is checked along the powers of [g] in 2p cases:
    one count of the classes c_e (exponent order), one check per class
    that phi(c_e) is a unit residue of F_p, one that the residues are
    distinct, and one step per e that c_e * [g] = c_(e+1 mod p-1) with
    phi(c_e * [g]) = phi(c_e) phi([g]) mod p.  The class law is a group
    law, so the steps make c_0 the identity (c_0 [g] = [g]), hence
    c_e = [g]^e, and phi(c_0) = 1; by induction phi([g]^e) = phi([g])^e,
    which is multiplicativity on every pair, and p - 1 distinct unit
    residues make phi onto F_p^x.
    """
    p = ctx.p
    classes = enumerate_classes(ctx)
    m = len(classes)
    res.check(m == p - 1, "expected %d classes, got %d", p - 1, m)
    values = []
    for c in classes:
        x = phi(c)
        try:
            v = int(x)
        except ValueError:  # off the prime subfield: 0, which no step matches
            v = 0
        res.check(v != 0, "phi(%r) = %s is not a unit residue of F_p", c, x)
        values.append(v)
    res.check(len(set(values)) == p - 1,
              "phi is not injective on classes: %r", values)
    g, vg = classes[1], values[1]
    for e, (c, v) in enumerate(zip(classes, values)):
        step, want = c * g, classes[(e + 1) % m]
        if step == want and phi(step) == v * vg % p:
            res.cases += 1
        else:
            res.check(False, "c_%d * [g] = c_%d with phi %s, want c_%d with phi %d * %d = %d mod p",
                      c.exp, step.exp, phi(step), want.exp, v, vg, v * vg % p)


def _suite_bridge(res: SuiteResult, ctx: FieldCtx) -> None:
    """A_p vanishes iff p | beta; otherwise phi([A_p]) = beta mod p.

    Both are one check, since the residue is 0 exactly when A_p = 0 and
    a unit residue otherwise.  The norm suite runs this check too: A_q,
    the norm A_p^((q-1)/(p-1)) that hasse_invariant takes at level q, is
    exactly phi([A_p]) in the prime subfield (Silverman, AEC V.4), so
    "A_q = 1 - #E mod p" is this identity, beta = q + 1 - #E; that phi
    lands in the prime units is checked once, in forms._class_residues.
    Each row is one comparison of two lists, each gathered by C-level
    maps, in the order of the row product's slots (_row_counts: a6 =
    g^lc at slot lc, a6 = 0 last): the residues of A_p off the closed
    form (_row_hasse, by the rank of a6) against beta mod p off the point
    counts (over F_p the kernel the census scan reads its residues off),
    read through one dict of the counts inside the trace bound, so any
    other count, a negative one included, reads None, which no residue
    equals.  Rows that share a Hasse table share its residue list.  The
    singular a6 of a row are compared too, and send no sound row to the
    loop: the congruence beta = A_q mod p holds for every cubic (#E is
    the character sum), and a singular cubic has beta = 0 or +-1.  A row
    whose lists agree counts its nonsingular models, q less the at most
    two singular a6 that _iter_rows names.  Only a row whose lists differ
    is checked model by model, on the other a6, which names each failure
    and keeps the case count; a count past the trace bound fails its
    model there.  A model is decoded only to name it in a failure.  Over
    F_3^3 (728 rows, 18,954 models) the suite takes about 12 ms in
    process on 2 vCPU (min of 40), against 21 ms with the per-model loop
    on every row.
    """
    p, q, residue, log = ctx.p, ctx.q, _rank_classes(ctx)[1], ctx._log_tables[1]
    by_slot = [*ctx._log_tables[0], 0]  # the rank of a6 at each slot
    # beta mod p by #E, for the counts inside the trace bound only
    b = isqrt(4 * q)
    beta_mod = {c: (q + 1 - c) % p for c in range(q + 1 - b, q + 2 + b)
                if _in_trace_bound(ctx, q + 1 - c)}
    table = None
    for r2, r4, _, singular in _iter_rows(ctx):
        hasse, counts = _row_hasse(ctx, r2, r4), _row_counts(ctx, r2, r4)
        if hasse is not table:
            table, got = hasse, list(map(residue.__getitem__, map(hasse.__getitem__, by_slot)))
        if got == list(map(beta_mod.get, counts)):
            res.cases += q - len(singular)
            continue
        for r6 in filterfalse(singular.__contains__, range(q)):
            got_r6, count = residue[hasse[r6]], counts[log[r6]]
            beta = q + 1 - count
            if not _in_trace_bound(ctx, beta):
                res.check(False, "%r: #E = %d puts beta = %d past the trace bound",
                          _decode(ctx, r2, r4, r6), count, beta)
            elif got_r6 == beta % p:
                res.cases += 1
            else:
                res.check(False, "%r: Hasse residue %d (0 for A_p = 0) but beta = %d, %d mod p",
                          _decode(ctx, r2, r4, r6), got_r6, beta, beta % p)


def _suite_twists(res: SuiteResult, ctx: FieldCtx) -> None:
    """Hasse classes move under twists exactly as the class action says.

    On ranks, row by row (_iter_rows): a twist by d multiplies (a2, a4,
    a6) by the scales of curve._twist_scales, so the models of an (a2, a4)
    row land on row (s2 a2, s4 a4) at a6 rank s6 a6, and the kinds that
    apply are chosen on ranks (curve._twist_kinds).  A_p of a model and of
    each twist is read off the _row_hasse row of its (a2, a4), each row
    kept for the run, and classes are compared as exponents
    (forms._rank_classes: -1 for a zero A_p, which matches no action).
    What the run keeps sits in functools caches on local functions, so it
    goes with the run.  The action,
    twist_class_action, is taken on the trivial class once per twist of
    a plan, next to its scales, and a model of class exponent e is
    predicted at e plus that exponent mod p - 1: the class law, which the
    classification suite proves.  Those predictions are kept per class
    and set of kinds.  A model and d are decoded only to name them in a
    failure, listed model by model, then by d, then by kind.
    """
    q, pm1, mul, exps = ctx.q, ctx.p - 1, ctx._mul, _rank_classes(ctx)[0]
    one = UnitClass(ctx, 0)

    @cache
    def hasse_row(r2, r4):
        return _row_hasse(ctx, r2, r4)

    @cache
    def times(s):
        # the ranks s * a6 for every rank a6
        return [mul(s, r6) for r6 in range(q)]

    @cache
    def plan(kinds):
        # (d, kind, scales, the class exponent the action adds) of every
        # twist a model with these kinds takes
        return [(d, kind, _twist_scales(ctx, d, kind),
                 twist_class_action(one, FieldElement(ctx, d), kind).exp)
                for d in range(1, q) for kind in kinds]

    @cache
    def want(kinds, base):
        # the class exponents the action predicts, in plan order
        return [(base + act) % pm1 for *_, act in plan(kinds)]

    @lru_cache(maxsize=2)
    def targets(r2, r4, kinds):
        # (twisted row, a6 scaling) of each twist in plan order: a row's
        # models take at most two sets of kinds, a6 = 0 first
        return [(hasse_row(mul(s2, r2), mul(s4, r4)), times(s6))
                for _, _, (s2, s4, s6, _), _ in plan(kinds)]

    for r2, r4, _, singular in _iter_rows(ctx):
        base_row = hasse_row(r2, r4)
        for r6 in filterfalse(singular.__contains__, range(q)):
            base = exps[base_row[r6]]
            if base < 0:
                continue  # supersingular
            kinds = _twist_kinds(ctx, r4, r6)
            got = [exps[row[perm[r6]]] for row, perm in targets(r2, r4, kinds)]
            expected = want(kinds, base)
            if got == expected:
                res.cases += len(got)
                continue
            for (d, kind, _, _), g, w in zip(plan(kinds), got, expected):
                if g == w:
                    res.cases += 1
                else:
                    res.check(False, "%s twist of %r by %s: class exp %d, action predicts %d",
                              kind, _decode(ctx, r2, r4, r6), FieldElement(ctx, d), g, w)


def _suite_closed_forms(res: SuiteResult, ctx: FieldCtx) -> None:
    """The closed form for A_p against full truncated powering.

    On every model, hasse_invariant, the closed form by term ratios over
    F_p with p >= 5 (curve._hasse_one) and curve._hasse_at at one a6
    elsewhere, must equal the coefficient of x^(p-1) in f^((p-1)/2),
    computed by Polynomial.pow_truncated, which knows nothing of the
    closed form.
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
    the row table _row_hasse; a model is built for ptorsion_description
    (once per value of A_p, and on every supersingular model) and to name
    it in a failure, unchecked, with its discriminant off the row.  Both
    checks of an ordinary model depend on A_p alone, so a row whose every
    nonzero A_p has passed them already adds its ordinary models as cases
    at once and checks only its supersingular ones; a row with a new or
    failing value walks its models one by one, each check in enumeration
    order.
    """
    p, q, exps = ctx.p, ctx.q, _rank_classes(ctx)[0]
    degree_cache: dict[int, tuple[int, ...]] = {}
    # 0 and every value of A_p that passed both checks: a value joins on its
    # first model, if ptorsion_description agrees there (agrees) and the
    # degrees match the class order
    passed = {0}
    unchecked, from_rank = WeierstrassCurve._unchecked, ctx.from_rank

    def model(r2, r4, d, r6):
        # a model the row walk knows is nonsingular
        return unchecked(ctx, from_rank(r2), from_rank(r4), from_rank(r6),
                         FieldElement(ctx, _disc_at(ctx, d, (r6,))[0]))

    def supersingular(r2, r4, d, r6):
        curve = model(r2, r4, d, r6)
        desc = ptorsion_description(curve)
        res.check(desc.supersingular and desc.label == "M2",
                  "%r: supersingular but described as %r", curve, desc)

    for r2, r4, d, singular in _iter_rows(ctx):
        hasse = _row_hasse(ctx, r2, r4)
        if passed.issuperset(hasse):
            zeros = [r6 for r6 in compress(range(q), map(not_, hasse)) if r6 not in singular]
            res.cases += q - len(singular) - len(zeros)
            for r6 in zeros:
                supersingular(r2, r4, d, r6)
            continue
        for r6 in filterfalse(singular.__contains__, range(q)):
            a = hasse[r6]
            if not a:
                supersingular(r2, r4, d, r6)
                continue
            if a in degree_cache:
                degrees, agrees = degree_cache[a], False
            else:
                curve = model(r2, r4, d, r6)
                desc = ptorsion_description(curve)
                binomial = [ctx._neg(a)] + [0] * (p - 2) + [ctx.one.rank]
                degrees = degree_pattern(Polynomial.from_ranks(ctx, binomial))
                degree_cache[a] = degrees
                agrees = desc.j_p_root ** p == desc.j and desc.etale_degrees == degrees
                res.check(agrees,
                          "%r: p-th root of j or etale degrees %r disagree with factor() %r",
                          curve, desc.etale_degrees, degrees)
            order = (p - 1) // gcd(exps[a], p - 1)  # the order of the class
            if sum(degrees) == p - 1 and set(degrees) == {order}:
                res.cases += 1
                if agrees:
                    passed.add(a)
            else:
                res.check(False, "%r: etale degrees %r but class order %d",
                          model(r2, r4, d, r6), degrees, order)


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
    t0 = time.perf_counter()
    _SUITES[name](res, ctx)
    logger.debug("suite %s over %s: %d cases, %d failures, %d row histograms "
                 "built, %d Hasse tables built, %.3f s", name, ctx, res.cases,
                 len(res.failures), ctx._builds["_row_hist"],
                 ctx._builds["_hasse_table"], time.perf_counter() - t0)
    return res
