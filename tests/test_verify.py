"""The named verification suites and their reporting surface."""

import contextlib
import io
import json
import logging
import re
import time
from collections.abc import Callable
from typing import NamedTuple

import pytest

import hasseforms.verify as verify_mod
from hasseforms import (SUITE_NAMES, hasse_invariant, iter_curves, make_field, phi, run_suite,
                        unit_class_of)
from hasseforms.cli import main
from hasseforms.curve import _hasse_row
from hasseforms.errors import InconsistencyError
from hasseforms.forms import UnitClass
from hasseforms.search import ClassEntry, WitnessRecord
from hasseforms.verify import SuiteResult
from test_audits import AUDITS, _fault, seed_count, seed_hasse


def test_suite_names_frozen():
    assert SUITE_NAMES == (
        "classification", "bridge", "twists", "closed-forms", "norm", "etale", "census")


@pytest.mark.parametrize("name,p,n", [
    ("classification", 7, 1),
    ("classification", 3, 2),
    ("bridge", 7, 1),
    ("twists", 5, 1),
    ("closed-forms", 7, 1),
    ("closed-forms", 3, 1),
    ("norm", 3, 2),
    ("etale", 5, 1),
    ("census", 13, 1),
    ("census", 19, 1),
])
def test_suites_pass_on_small_fields(name, p, n):
    result = run_suite(name, p, n)
    assert result.ok
    assert result.cases > 0
    assert result.failures == []
    line = result.summary_line()
    assert line.startswith(f"suite={name} ")
    assert line.endswith("PASS")
    assert f"p={p}" in line and f"n={n}" in line


def test_suite_case_counts_golden():
    # frozen so a silent shrink of any sweep shows up as a count change
    expected = {
        # classification: the count, p - 1 unit residues, injectivity and
        # p - 1 steps by [g], 2p cases on every field
        ("classification", 3, 1): 6,
        ("classification", 7, 1): 14,
        ("classification", 3, 2): 6,
        ("classification", 5, 2): 10,
        ("classification", 3, 3): 6,
        ("bridge", 5, 1): 20,
        ("norm", 5, 1): 20,
        ("bridge", 3, 2): 648,
        ("twists", 5, 1): 80,
        ("closed-forms", 7, 1): 42,
        ("norm", 3, 2): 648,
        ("norm", 3, 3): 18954,
        ("norm", 7, 2): 2352,
        ("bridge", 31, 1): 930,
        ("etale", 5, 1): 24,
        # readers of rows with singular a6, over F_9, F_13 and F_27
        ("twists", 3, 2): 4608,
        ("etale", 3, 2): 656,
        ("twists", 13, 1): 2016,
        ("etale", 13, 1): 168,
        ("etale", 3, 3): 18980,
        ("census", 13, 1): 14,
        ("census", 19, 1): 21,
    }
    for (name, p, n), cases in expected.items():
        assert run_suite(name, p, n).cases == cases


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("everything", 5)


# (suite, p): (wall budget in seconds, case count)
SUITE_BUDGETS = {
    # p - 1 steps along the powers of [g], not (p - 1)^2 pairs
    ("classification", 4099): (2.0, 8198),
    # the census, and its exhaustive audit of every residue
    ("census", 211): (10.0, 212),
    # low-degree splitting candidates do not separate the factors of
    # y^28 - A_p over F_29
    ("etale", 29): (5.0, 832),
    # one factorisation of y^100 - A_p per distinct A_p, each on a residue
    # ring with a Frobenius table
    ("etale", 101): (4.0, 10140),
    # one distinct-degree split of y^210 - A_p per distinct A_p, with no
    # equal-degree split
    ("etale", 211): (5.0, 44368),
}


@pytest.mark.parametrize("suite,p", SUITE_BUDGETS)
def test_suite_runs_within_its_budget(suite, p):
    budget, cases = SUITE_BUDGETS[suite, p]
    t0 = time.perf_counter()
    result = run_suite(suite, p)
    elapsed = time.perf_counter() - t0
    assert result.ok and result.cases == cases
    assert elapsed < budget, f"{suite} suite over F_{p} took {elapsed:.2f}s, budget {budget:g}s"


@pytest.mark.parametrize("p,n", [(13, 1), (3, 2), (5, 2)])
def test_closed_forms_passes_on_any_field(p, n):
    result = run_suite("closed-forms", p, n)
    assert result.ok and result.cases == len(list(iter_curves(make_field(p, n))))


def test_etale_suite_bytes_equal_with_factor_logging(caplog):
    plain = json.dumps(run_suite("etale", 17).to_dict(), sort_keys=True)
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        logged = run_suite("etale", 17).to_dict()
    assert json.dumps(logged, sort_keys=True) == plain
    assert any(r.getMessage().startswith("read the degree pattern of a degree-16 polynomial")
               for r in caplog.records)


def test_census_suite_detail_carries_report():
    result = run_suite("census", 19, 1)
    assert result.ok
    assert result.detail["verdict"] == "proper-subset"
    assert result.detail["missing"] == [9, 10]
    payload = result.to_dict()
    assert payload["suite"] == "census"
    assert payload["failures"] == []
    assert payload["cases"] == result.cases
    assert payload["detail"]["p"] == 19


def test_suite_result_check_is_lazy_and_counts():
    res = SuiteResult(suite="demo", p=5, n=1)

    class Boom:
        def __repr__(self):
            raise RuntimeError("failure messages must not render on passing checks")

    res.check(True, "ok %r", Boom())
    assert res.cases == 1 and res.ok

    res.check(False, "saw %d and %s", 7, "mismatch")
    assert res.cases == 2
    assert not res.ok
    assert res.failures == ["saw 7 and mismatch"]
    assert res.summary_line().endswith("FAIL")


class SuiteFault(NamedTuple):
    suite: str
    field: tuple                  # (p, n)
    seed: Callable                # install(monkeypatch), returning what the seed saw
    failures: list                # the seeded run's failure lines, exactly
    cases: int | None = None      # the seeded run's case count, where not the clean run's
    saw: Callable | None = None   # a check of what the seed saw: the true values it replaced


def _misnamed(step):
    # c_(e+1) with c_e's representative kept, so that phi agrees and only
    # the step to c_(e+1) can object
    wrong = UnitClass(step.ctx, step.exp + 1)
    object.__setattr__(wrong, "rep", step.rep)
    return wrong


_INCONSISTENT = "census over F_7 found classes [1, 2] but the trace interval formula gives [1]"


def _inconsistent(report):
    raise InconsistencyError(_INCONSISTENT)


def _rewitnessed(h, pick):
    # verify.census answers with the true report, save that class h's
    # witness is the model pick takes from the models of the field
    def change(report):
        c = pick(iter_curves(make_field(report.p, report.n)))
        record = WitnessRecord(c.a2.coeffs, c.a4.coeffs, c.a6.coeffs, 0, 0, 0, h)
        return report._replace(entries=tuple(
            e if e.residue != h else ClassEntry(h, record) for e in report.entries))
    return _fault(verify_mod, "census", lambda ctx: True, change)


def _second_of_class_2(models):
    return [c for c in models if (a := hasse_invariant(c)) and int(phi(unit_class_of(a))) == 2][1]


def _f19(*missing):
    # the unit residues of F_19 less the missing ones
    return [h for h in range(1, 19) if h not in missing]


def _wrong_pattern(mp):
    # degree_pattern gives six linear factors for y^6 - 3 over F_7 (-3 has
    # rank 4); returns the constant of every binomial it was asked about
    calls = []
    _fault(verify_mod, "degree_pattern", lambda f: calls.append(f.ranks[0]) or f.ranks[0] == 4,
           lambda degrees: (1,) * 6)(mp)
    return calls


def _last_row_passed(seen):
    # the seed replaced A_7 = 3, and every A_p = 3 a6 on F_7's last row,
    # a4 = 6, occurs on an earlier row, so that row adds its ordinary
    # models at once and checks only the models that read A_p = 0
    ctx = make_field(7)
    earlier, last = ({hasse_invariant(c) for c in iter_curves(ctx) if (c.a4 == 6) == on_last}
                     for on_last in (False, True))
    return seen == [3, 3] and earlier >= last


def _on_row_t_t(seen):
    # the seed read a true count on row (a2, a4) = (t, t) of F_9, t of rank
    # 1, whose one singular a6 is t + 2, of rank 7
    ctx = make_field(3, 2)
    return seen != [] and (ctx.element([0, 1]).rank, ctx.element([2, 1]).rank) == (1, 7)


_A7_IS_3 = ["x^3 + 1", "x^3 + x + 1"] + [f"x^3 + {k}*x + 1" for k in range(2, 7)]

# each suite proven live: a seed, from the audit table's faults, that the
# suite must catch with exactly these lines
SUITE_FAULTS = {
    # phi(c_3) = 6 over F_7 doubled to 5 = phi(c_5): still a unit, but a
    # repeated value and two broken steps
    "classification-phi-unit": SuiteFault("classification", (7, 1), _fault(
        verify_mod, "phi", lambda c: c.exp == 3, lambda v: v * 2), [
        "phi is not injective on classes: [1, 3, 2, 5, 4, 5]",
        "c_2 * [g] = c_3 with phi 5, want c_3 with phi 2 * 3 = 6 mod p",
        "c_3 * [g] = c_4 with phi 4, want c_4 with phi 5 * 3 = 1 mod p"]),
    # phi([g]) = t + 2 over F_25, off the prime subfield: every step
    # multiplies by phi([g]), so every step fails with it
    "classification-phi-off-subfield": SuiteFault("classification", (5, 2), _fault(
        verify_mod, "phi", lambda c: c.exp == 1, lambda v: v.ctx.element([2, 1])), [
        "phi(UnitClass(exp=1 mod 4, rep=3*t + 1)) = t + 2 is not a unit residue of F_p",
        "c_0 * [g] = c_1 with phi t + 2, want c_1 with phi 1 * 0 = 0 mod p",
        "c_1 * [g] = c_2 with phi 4, want c_2 with phi 0 * 0 = 0 mod p",
        "c_2 * [g] = c_3 with phi 3, want c_3 with phi 4 * 0 = 0 mod p",
        "c_3 * [g] = c_0 with phi 1, want c_0 with phi 3 * 0 = 0 mod p"]),
    # the class law skips c_3 at c_2 * [g] over F_7, and then the same skip
    # with c_3's representative kept
    "classification-mul-skips": SuiteFault("classification", (7, 1), _fault(
        UnitClass, "__mul__", lambda c, g: c.exp == 2, lambda s: UnitClass(s.ctx, s.exp + 1)), [
        "c_2 * [g] = c_4 with phi 4, want c_3 with phi 2 * 3 = 6 mod p"]),
    "classification-mul-misnames": SuiteFault("classification", (7, 1), _fault(
        UnitClass, "__mul__", lambda c, g: c.exp == 2, _misnamed), [
        "c_2 * [g] = c_4 with phi 6, want c_3 with phi 2 * 3 = 6 mod p"]),
    # the classes of F_7 with c_5 lost: the count is one short, the five
    # residues miss phi(c_5) = 5, and the last step wraps to c_0 at c_4;
    # one check fewer of a residue and one step fewer, 12 cases of 14
    "classification-count": SuiteFault("classification", (7, 1), _fault(
        verify_mod, "enumerate_classes", lambda ctx: True, lambda classes: classes[:-1]), [
        "expected 6 classes, got 5",
        "phi is not injective on classes: [1, 3, 2, 6, 4]",
        "c_4 * [g] = c_5 with phi 5, want c_0 with phi 4 * 3 = 5 mod p"], cases=12),
    # a census that raises is the suite's one failed case, with no detail
    "census-inconsistent": SuiteFault("census", (7, 1), _fault(
        verify_mod, "census", lambda ctx: True, _inconsistent), [_INCONSISTENT], cases=1),
    # one witness moved to the second model of its class: the audit's
    # exhaustive sweep keeps the first, so exactly that class fails
    "census-later-witness": SuiteFault("census", (13, 1), _rewitnessed(2, _second_of_class_2), [
        "h = 2: census witness differs from the full-sweep witness"]),
    # a witness for 9 over F_19, which no curve hits: the audit's sweep
    # finds none, and the realizable set no longer matches the formula
    "census-witness-of-missing-class": SuiteFault("census", (19, 1), _rewitnessed(9, next), [
        f"census classes {_f19(10)} vs formula {_f19(9, 10)}",
        "h = 9: census found a witness but the full sweep did not"]),
    # the formula claims every class of F_19; the census runs unchanged, so
    # it and the verdict disagree with the formula, and 9 = 3 * 3 is no
    # longer missing
    "census-f19-closure": SuiteFault("census", (19, 1), _fault(
        verify_mod, "realizable_set", lambda p, q: p == 19, lambda s: frozenset(_f19())), [
        f"census classes {_f19(9, 10)} vs formula {_f19()}",
        f"verdict 'proper-subset' inconsistent with {_f19()}",
        "expected 3 realizable and 9 missing over F_19"]),
    # one count of the row kernel's output moved towards q + 1, where the
    # trace bound still holds, flips the verdict: y^2 = x^3 + 1 over F_5,
    # and y^2 = x^3 + x + 1 over F_9, where 1 has rank 3
    "bridge-count": SuiteFault("bridge", (5, 1), lambda mp: seed_count(mp, verify_mod, (0, 0, 1)), [
        "WeierstrassCurve(y^2 = x^3 + 1 over F_5): Hasse residue 0 (0 for A_p = 0) "
        "but beta = 1, 1 mod p"], saw=bool),
    "norm-count": SuiteFault("norm", (3, 2), lambda mp: seed_count(mp, verify_mod, (0, 3, 3)), [
        "WeierstrassCurve(y^2 = x^3 + x + 1 over F_9): Hasse residue 0 (0 for A_p = 0) "
        "but beta = -5, 1 mod p"], saw=bool),
    # row (a2, a4) = (t, t) of F_9: the row check compares all 9 slots, and
    # a row that differs is checked model by model at the other 8 a6.  A
    # count of 2q + 1 at the singular a6, which the suite skips, fails
    # nothing; the model right after it, the last of the row, fails with
    # the text the per-model loop printed before the row check
    **{f"{name}-count-{at}-singular-a6": SuiteFault(name, (3, 2), seed, failures, saw=_on_row_t_t)
       for name in ("bridge", "norm") for at, seed, failures in [
           ("at", lambda mp: seed_count(mp, verify_mod, (1, 1, 7), lambda count: 19), []),
           ("beside", lambda mp: seed_count(mp, verify_mod, (1, 1, 8)), [
               "WeierstrassCurve(y^2 = x^3 + t*x^2 + t*x + (2*t + 2) over F_9): Hasse residue 1 "
               "(0 for A_p = 0) but beta = -4, 2 mod p"])]},
    # a count outside the Hasse interval is a failure line naming the
    # model, not an uncaught RuntimeError: 0; 255, which fits the 8-bit
    # slots of the row product over F_5 but no table of counts in the
    # interval; and -5, which a table read from its end would take for
    # #E = 6, beta = 0, the true count of this supersingular model
    **{f"{name}-count-past-bound-{count}": SuiteFault(name, (5, 1), lambda mp, count=count: seed_count(
        mp, verify_mod, (0, 0, 1), lambda _: count), [
        f"WeierstrassCurve(y^2 = x^3 + 1 over F_5): #E = {count} puts beta = {6 - count} past "
        "the trace bound"]) for name in ("bridge", "norm") for count in (0, 255, -5)},
    # the other side of the bridge, one text under both names, since
    # A_q = phi([A_p]) makes norm the same check: y^2 = x^3 + 1 over F_5
    # is supersingular (A_5 = 2 a4 = 0), and A_p = 1 claims the residue 1
    **{f"{name}-hasse": SuiteFault(name, (5, 1), lambda mp: seed_hasse(
        mp, verify_mod, (0, 0, 1), lambda _: 1), [
        "WeierstrassCurve(y^2 = x^3 + 1 over F_5): Hasse residue 1 (0 for A_p = 0) but beta = 0, "
        "0 mod p"], saw=lambda seen: seen[0] == 0) for name in ("bridge", "norm")},
    # one corrupted read of a twist's A_p off a row table: the entry of
    # y^2 = x^3 + x + 1 over F_5 is read first as its own class, then as
    # its twist by 1, then as the twist by 4 of y^2 = x^3 + x + 4.  Over
    # F_13, p = 1 mod 12, y^2 = x^3 + 2 (j = 0) is the sextic twist by 5 of
    # y^2 = x^3 + 3, and y^2 = x^3 + 2x (j = 1728) the quartic twist by 5
    # of y^2 = x^3 + 3x
    "twists-quadratic": SuiteFault("twists", (5, 1), lambda mp: seed_hasse(
        mp, verify_mod, (0, 1, 1), lambda a: 2 * a % 5, read=3), [
        "quadratic twist of WeierstrassCurve(y^2 = x^3 + x + 4 over F_5) by 4: "
        "class exp 2, action predicts 1"], saw=lambda seen: len(seen) == 5),
    "twists-sextic": SuiteFault("twists", (13, 1), lambda mp: seed_hasse(
        mp, verify_mod, (0, 0, 2), lambda a: 2 * a % 13, read=7), [
        "sextic twist of WeierstrassCurve(y^2 = x^3 + 3 over F_13) by 5: "
        "class exp 4, action predicts 3"]),
    "twists-quartic": SuiteFault("twists", (13, 1), lambda mp: seed_hasse(
        mp, verify_mod, (0, 2, 0), lambda a: 2 * a % 13, read=6), [
        "quartic twist of WeierstrassCurve(y^2 = x^3 + 3*x over F_13) by 5: "
        "class exp 3, action predicts 2"]),
    # hasse_invariant's closed form one off at a4 = a6 = 1
    "closed-forms-hasse": SuiteFault("closed-forms", (5, 1), AUDITS["hasse_invariant"].fault[1], [
        "WeierstrassCurve(y^2 = x^3 + x + 1 over F_5): A_p = 3 but truncated powering gives 2"]),
    # an ordinary model whose A_p reads 0 off the row table, which
    # ptorsion_description, computing its own A_p, describes as ordinary:
    # y^2 = x^3 + x + 2 over F_5 (A_5 = 2 a4 = 2), and on F_7's last row
    "etale-hasse": SuiteFault("etale", (5, 1), lambda mp: seed_hasse(
        mp, verify_mod, (0, 1, 2), lambda _: 0), [
        "WeierstrassCurve(y^2 = x^3 + x + 2 over F_5): supersingular but described as "
        "PTorsionDescription(supersingular=False, hasse_class=UnitClass(exp=1 mod 4, rep=2), "
        "j=<1 in F_5>, etale_degrees=(4,), j_p_root=<1 in F_5>, hasse=<2 in F_5>)"],
        saw=lambda seen: seen[0] == 2),
    "etale-row-of-passed-values": SuiteFault("etale", (7, 1), lambda mp: seed_hasse(
        mp, verify_mod, (0, 6, 1), lambda _: 0), [
        "WeierstrassCurve(y^2 = x^3 + 6*x + 1 over F_7): supersingular but described as "
        "PTorsionDescription(supersingular=False, hasse_class=UnitClass(exp=1 mod 6, rep=3), "
        "j=<2 in F_7>, etale_degrees=(6,), j_p_root=<2 in F_7>, hasse=<3 in F_7>)"],
        saw=_last_row_passed),
    # a wrong degree pattern for A_7 = 3, a generator of F_7^*: read once,
    # on the first model with that A_p, where ptorsion_description
    # disagrees, then cached, so every model with that A_p fails against
    # the class order
    "etale-degree-pattern": SuiteFault("etale", (7, 1), _wrong_pattern, [
        f"WeierstrassCurve(y^2 = {_A7_IS_3[0]} over F_7): p-th root of j or etale degrees (6,) "
        "disagree with factor() (1, 1, 1, 1, 1, 1)"] + [
        f"WeierstrassCurve(y^2 = {model} over F_7): etale degrees (1, 1, 1, 1, 1, 1) but class "
        "order 6" for model in _A7_IS_3], saw=lambda calls: calls.count(4) == 1),
}


def test_every_suite_has_a_seeded_fault():
    assert sorted({fault.suite for fault in SUITE_FAULTS.values()}) == sorted(SUITE_NAMES)


@pytest.mark.parametrize("name", SUITE_FAULTS)
def test_seeded_fault_fails_its_suite(name):
    # the suite passes clean; installed afresh for each run, the seed gives
    # exactly its lines in run_suite, and through the CLI FAIL and exit 1,
    # never the usage exit 2, or PASS and exit 0 where it finds nothing
    suite, (p, n), seed, failures, cases, saw = SUITE_FAULTS[name]
    clean = run_suite(suite, p, n)
    assert clean.ok
    with pytest.MonkeyPatch.context() as mp:
        seen = seed(mp)
        result = run_suite(suite, p, n)
    assert (result.cases, result.failures) == (cases or clean.cases, failures)
    assert saw is None or saw(seen)
    assert cases is None or result.detail is None
    out, err = io.StringIO(), io.StringIO()
    with (pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        seen = seed(mp)
        rc = main(["verify", "--suite", suite, "-p", str(p), "-n", str(n)])
    assert saw is None or saw(seen)
    assert (rc, err.getvalue()) == (1 if failures else 0, "")
    assert out.getvalue().splitlines() == [
        f"suite={suite} p={p} n={n} cases={result.cases} failures={len(failures)} "
        f"{'FAIL' if failures else 'PASS'}"] + [f"  FAIL {failure}" for failure in failures]


def test_run_suite_logs_one_record_and_keeps_output(caplog):
    cases = [("bridge", 7, 1), ("norm", 3, 2), ("twists", 5, 1), ("census", 13, 1),
             ("norm", 3, 3)]

    def outputs():
        results = [run_suite(*case) for case in cases]
        return [(json.dumps(r.to_dict(), sort_keys=True), r.summary_line())
                for r in results]

    plain = outputs()
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        assert outputs() == plain
    records = [r for r in caplog.records
               if r.name == "hasseforms" and r.getMessage().startswith("suite ")]
    assert [r.levelno for r in records] == [logging.DEBUG] * len(cases)
    # the bridge and norm suites build one row histogram per (a2, a4) row
    # with a nonsingular model and one Hasse table per closed form, whose
    # rows come in a run (A_7 = c a6 on every row, A_3 = a2 on each a2
    # slab); twists builds no histogram and one table per row it keeps
    # for the run, each row of F_5 its own closed form (A_5 = 2 a4); the
    # census builds histograms for its scan and witnesses and tables for
    # its audit until every residue is hit
    def rows_and_forms(p, n):
        ctx = make_field(p, n)
        rows = {(c.a2.rank, c.a4.rank) for c in iter_curves(ctx)}
        return str(len(rows)), str(len({_hasse_row(ctx, *row) for row in rows}))

    (bridge, forms), norm, (twists, twist_forms), norm_27 = map(
        rows_and_forms, (7, 3, 5, 3), (1, 2, 1, 3))
    assert (twists, norm_27) == (twist_forms, ("728", "27"))
    built = [(bridge, forms), norm, ("0", twist_forms), (r"\d+", r"\d+"), norm_27]
    for record, (name, p, n), (hists, tables) in zip(records, cases, built):
        assert re.fullmatch(
            rf"suite {name} over {re.escape(str(make_field(p, n)))}: \d+ cases, "
            rf"0 failures, {hists} row histograms built, {tables} Hasse tables "
            rf"built, \d+\.\d{{3}} s",
            record.getMessage())
