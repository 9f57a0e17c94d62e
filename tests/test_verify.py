"""The named verification suites and their reporting surface."""

import contextlib
import io
import json
import logging
import re
import time

import pytest

import hasseforms.verify as verify_mod
from hasseforms import (SUITE_NAMES, census, hasse_invariant, iter_curves, make_field, phi,
                        run_suite, unit_class_of)
from hasseforms.cli import main
from hasseforms.curve import _hasse_row
from hasseforms.errors import InconsistencyError
from hasseforms.forms import UnitClass
from hasseforms.search import ClassEntry, WitnessRecord
from hasseforms.verify import SuiteResult
from test_audits import seed_count, seed_hasse


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


def test_classification_suite_over_f4099_within_budget():
    # p - 1 steps along the powers of [g], not (p - 1)^2 pairs
    t0 = time.perf_counter()
    result = run_suite("classification", 4099)
    elapsed = time.perf_counter() - t0
    assert result.ok and result.cases == 8198
    assert elapsed < 2.0, f"classification suite over F_4099 took {elapsed:.2f}s, budget 2s"


@pytest.mark.parametrize("seed,p,n,failures", [
    # phi(c_3) = 6 over F_7 doubled to 5 = phi(c_5): still a unit, but a
    # repeated value and two broken steps
    ("phi_unit", 7, 1, [
        "phi is not injective on classes: [1, 3, 2, 5, 4, 5]",
        "c_2 * [g] = c_3 with phi 5, want c_3 with phi 2 * 3 = 6 mod p",
        "c_3 * [g] = c_4 with phi 4, want c_4 with phi 5 * 3 = 1 mod p"]),
    # phi([g]) = t + 2 over F_25, off the prime subfield: every step
    # multiplies by phi([g]), so every step fails with it
    ("phi_off_subfield", 5, 2, [
        "phi(UnitClass(exp=1 mod 4, rep=3*t + 1)) = t + 2 is not a unit residue of F_p",
        "c_0 * [g] = c_1 with phi t + 2, want c_1 with phi 1 * 0 = 0 mod p",
        "c_1 * [g] = c_2 with phi 4, want c_2 with phi 0 * 0 = 0 mod p",
        "c_2 * [g] = c_3 with phi 3, want c_3 with phi 4 * 0 = 0 mod p",
        "c_3 * [g] = c_0 with phi 1, want c_0 with phi 3 * 0 = 0 mod p"]),
    # the class law skips c_3 at c_2 * [g] over F_7
    ("mul_skips", 7, 1, [
        "c_2 * [g] = c_4 with phi 4, want c_3 with phi 2 * 3 = 6 mod p"]),
    # the same skip with c_3's representative kept, so that phi agrees
    # and only the step to c_(e+1) can object
    ("mul_misnames", 7, 1, [
        "c_2 * [g] = c_4 with phi 6, want c_3 with phi 2 * 3 = 6 mod p"]),
])
def test_classification_suite_catches_seeded_regression(monkeypatch, seed, p, n, failures):
    # each seed fails the suite, and through the CLI prints FAIL and exits
    # 1, never the usage exit 2
    real_phi, real_mul = verify_mod.phi, UnitClass.__mul__

    def skip(c, other):
        if c.exp != 2:
            return real_mul(c, other)
        wrong = UnitClass(c.ctx, 4)
        if seed == "mul_misnames":
            object.__setattr__(wrong, "rep", c.ctx.generator ** 3)
        return wrong

    if seed == "phi_unit":
        monkeypatch.setattr(verify_mod, "phi",
                            lambda c: real_phi(c) * 2 if c.exp == 3 else real_phi(c))
    elif seed == "phi_off_subfield":
        monkeypatch.setattr(verify_mod, "phi",
                            lambda c: c.ctx.element([2, 1]) if c.exp == 1 else real_phi(c))
    else:
        monkeypatch.setattr(UnitClass, "__mul__", skip)
    result = run_suite("classification", p, n)
    assert result.cases == 2 * p and result.failures == failures
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", "--suite", "classification", "-p", str(p), "-n", str(n)])
    assert rc == 1 and err.getvalue() == ""
    assert out.getvalue().splitlines() == [
        f"suite=classification p={p} n={n} cases={2 * p} failures={len(failures)} FAIL"
    ] + [f"  FAIL {failure}" for failure in failures]


@pytest.mark.parametrize("p,n", [(13, 1), (3, 2), (5, 2)])
def test_closed_forms_passes_on_any_field(p, n):
    result = run_suite("closed-forms", p, n)
    assert result.ok and result.cases == len(list(iter_curves(make_field(p, n))))


def test_census_suite_audits_every_residue_within_budget():
    t0 = time.perf_counter()
    result = run_suite("census", 211)
    elapsed = time.perf_counter() - t0
    assert result.ok and result.cases == 212
    assert elapsed < 10.0, f"census suite over F_211 took {elapsed:.2f}s, budget 10s"


def test_etale_suite_over_binomial_stall_within_budget():
    # low-degree splitting candidates do not separate the factors of
    # y^28 - A_p over F_29
    t0 = time.perf_counter()
    result = run_suite("etale", 29)
    elapsed = time.perf_counter() - t0
    assert result.ok
    assert elapsed < 5.0, f"etale suite over F_29 took {elapsed:.2f}s, budget 5s"


def test_etale_suite_over_f101_within_budget():
    # one factorisation of y^100 - A_p per distinct A_p, each on a residue
    # ring with a Frobenius table
    t0 = time.perf_counter()
    result = run_suite("etale", 101)
    elapsed = time.perf_counter() - t0
    assert result.ok
    assert elapsed < 4.0, f"etale suite over F_101 took {elapsed:.2f}s, budget 4s"


def test_etale_suite_over_f211_within_budget():
    # one distinct-degree split of y^210 - A_p per distinct A_p, with no
    # equal-degree split
    t0 = time.perf_counter()
    result = run_suite("etale", 211)
    elapsed = time.perf_counter() - t0
    assert result.ok
    assert elapsed < 5.0, f"etale suite over F_211 took {elapsed:.2f}s, budget 5s"


def test_etale_suite_bytes_equal_with_factor_logging(caplog):
    plain = json.dumps(run_suite("etale", 17).to_dict(), sort_keys=True)
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        logged = run_suite("etale", 17).to_dict()
    assert json.dumps(logged, sort_keys=True) == plain
    assert any(r.getMessage().startswith("read the degree pattern of a degree-16 polynomial")
               for r in caplog.records)


def test_census_suite_reports_an_inconsistent_census_as_its_one_case(monkeypatch):
    # a census that raises is the suite's single failed case, with no
    # detail, and verify prints it as a FAIL line and exits 1
    message = "census over F_7 found classes [1, 2] but the trace interval formula gives [1]"

    def inconsistent(ctx):
        raise InconsistencyError(message)

    monkeypatch.setattr(verify_mod, "census", inconsistent)
    res = run_suite("census", 7)
    assert (res.cases, res.failures, res.detail) == (1, [message], None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["verify", "--suite", "census", "-p", "7"])
    assert rc == 1
    assert out.getvalue() == ("suite=census p=7 n=1 cases=1 failures=1 FAIL\n"
                              f"  FAIL {message}\n")


def _seed_census_witness(monkeypatch, ctx, h, curve):
    # verify.census answers with the true report, save that class h's
    # witness is the given model
    report = census(ctx)
    entries = tuple(
        e if e.residue != h else ClassEntry(h, WitnessRecord(
            curve.a2.coeffs, curve.a4.coeffs, curve.a6.coeffs, 0, 0, 0, h))
        for e in report.entries)
    monkeypatch.setattr(verify_mod, "census",
                        lambda ctx: report._replace(entries=entries))


def test_census_suite_catches_seeded_later_witness(monkeypatch):
    # one witness moved to the second model of its class: the audit's
    # exhaustive sweep keeps the first, so exactly that class fails
    ctx = make_field(13)
    h = 2
    later = [c for c in iter_curves(ctx)
             if (a := hasse_invariant(c)) and int(phi(unit_class_of(a))) == h][1]
    _seed_census_witness(monkeypatch, ctx, h, later)
    assert run_suite("census", 13).failures == [
        "h = 2: census witness differs from the full-sweep witness"]


def test_census_suite_catches_seeded_witness_of_missing_class(monkeypatch):
    # a witness for 9 over F_19, which no curve hits: the audit's sweep
    # finds none, and the realizable set no longer matches the formula
    ctx = make_field(19)
    _seed_census_witness(monkeypatch, ctx, 9, next(iter_curves(ctx)))
    failures = run_suite("census", 19).failures
    assert len(failures) == 2 and failures[0].startswith("census classes ")
    assert failures[1] == "h = 9: census found a witness but the full sweep did not"


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


def test_bridge_suite_catches_seeded_regression(monkeypatch):
    # the suite must actually look at the data: one corrupted count in the
    # row kernel's output it reads, y^2 = x^3 + 1 over F_5 moved towards
    # beta = 0, where the trace bound still holds, has to flip the verdict
    seed_count(monkeypatch, verify_mod, (0, 0, 1))
    result = run_suite("bridge", 5)
    assert not result.ok
    assert len(result.failures) == 1
    assert "x^3 + 1 over F_5" in result.failures[0]


def test_norm_suite_catches_seeded_regression(monkeypatch):
    # A_q = phi([A_p]) is checked against the row kernel's count, the one
    # route the suite holds that knows nothing of A_p: one corrupted count,
    # y^2 = x^3 + x + 1 over F_9 moved towards q + 1, where the trace bound
    # still holds, has to flip the verdict to FAIL
    seen = seed_count(monkeypatch, verify_mod, (0, 3, 3))  # 1 has rank 3 in F_9
    result = run_suite("norm", 3, 2)
    assert seen
    assert len(result.failures) == 1
    assert "x^3 + x + 1 over F_9" in result.failures[0]


@pytest.mark.parametrize("name", ["bridge", "norm"])
@pytest.mark.parametrize("r6,failures", [
    # the singular model y^2 = x^3 + t x^2 + t x + (t + 2) over F_9, which
    # the suite skips: no count there can fail it
    (7, []),
    # the model right after it on its row, the last of the row; the text
    # is the one the per-model loop printed before the row check
    (8, ["WeierstrassCurve(y^2 = x^3 + t*x^2 + t*x + (2*t + 2) over F_9): Hasse residue 1 "
         "(0 for A_p = 0) but beta = -4, 2 mod p"]),
])
def test_bridge_suite_seeded_count_beside_a_singular_a6(monkeypatch, name, r6, failures):
    # row (a2, a4) = (t, t) of F_9 has one singular a6, t + 2 (rank 7):
    # the row check compares all 9 slots of the row, and a row that
    # differs is checked model by model at the other 8 a6
    ctx = make_field(3, 2)
    t = ctx.element([0, 1]).rank
    assert (t, ctx.element([2, 1]).rank) == (1, 7)
    seen = seed_count(monkeypatch, verify_mod, (t, t, r6),
                      None if failures else lambda count: 2 * ctx.q + 1)
    result = run_suite(name, 3, 2)
    assert seen and result.cases == 648 and result.failures == failures


@pytest.mark.parametrize("name", ["bridge", "norm"])
@pytest.mark.parametrize("count", [0, 255, -5])
def test_bridge_suite_reports_a_count_past_the_trace_bound(monkeypatch, name, count):
    # a count outside the Hasse interval is a failure line naming the
    # model, not an uncaught RuntimeError: 0; 255, which fits the 8-bit
    # slots of the row product over F_5 but no table of counts in the
    # interval; and -5, which a table read from its end would take for
    # #E = 6, beta = 0, the true count of this supersingular model
    seed_count(monkeypatch, verify_mod, (0, 0, 1), lambda _: count)
    failure = (f"WeierstrassCurve(y^2 = x^3 + 1 over F_5): #E = {count} puts "
               f"beta = {6 - count} past the trace bound")
    result = run_suite(name, 5)
    assert result.cases == 20 and result.failures == [failure]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", "--suite", name, "-p", "5"])
    assert rc == 1 and err.getvalue() == ""
    assert out.getvalue().splitlines() == [
        f"suite={name} p=5 n=1 cases=20 failures=1 FAIL", f"  FAIL {failure}"]


@pytest.mark.parametrize("name,p,n", [("bridge", 5, 1), ("norm", 5, 1)])
def test_bridge_suite_catches_seeded_hasse_regression(monkeypatch, name, p, n):
    # the other side of the bridge: one corrupted A_p in the closed-form
    # row table it reads has to flip the verdict to FAIL, with one text
    # under both names, since A_q = phi([A_p]) makes norm the same check.
    # y^2 = x^3 + 1 over F_5 is supersingular (A_5 = 2 a4 = 0); A_p = 1
    # claims the residue 1 against beta = 0 mod p
    seen = seed_hasse(monkeypatch, verify_mod, (0, 0, 1), lambda _: 1)
    result = run_suite(name, p, n)
    assert seen[0] == 0
    assert len(result.failures) == 1
    assert result.failures[0] == ("WeierstrassCurve(y^2 = x^3 + 1 over F_5): Hasse residue "
                                  "1 (0 for A_p = 0) but beta = 0, 0 mod p")


def test_twists_suite_catches_seeded_regression(monkeypatch):
    # the class action is taken once per (kind, d) and composed with each
    # class, but every pair still reads its twist's A_p off a row table:
    # one corrupted read of a twisted entry has to flip the verdict to
    # FAIL.  The entry of y^2 = x^3 + x + 1 over F_5 is read first as its
    # own class, then as its twist by 1, then as the twist by 4 of
    # y^2 = x^3 + x + 4
    seen = seed_hasse(monkeypatch, verify_mod, (0, 1, 1), lambda a: 2 * a % 5, read=3)
    result = run_suite("twists", 5)
    assert len(seen) == 5  # once as a base, once per d as a twist
    assert result.failures == [
        "quadratic twist of WeierstrassCurve(y^2 = x^3 + x + 4 over F_5) by 4: "
        "class exp 2, action predicts 1"]


@pytest.mark.parametrize("entry,read,failure", [
    # y^2 = x^3 + 2 over F_13 (j = 0) is the sextic twist by 5 of y^2 = x^3 + 3
    ((0, 0, 2), 7, "sextic twist of WeierstrassCurve(y^2 = x^3 + 3 over F_13) by 5: "
                   "class exp 4, action predicts 3"),
    # y^2 = x^3 + 2x over F_13 (j = 1728) is the quartic twist by 5 of y^2 = x^3 + 3x
    ((0, 2, 0), 6, "quartic twist of WeierstrassCurve(y^2 = x^3 + 3*x over F_13) by 5: "
                   "class exp 3, action predicts 2"),
])
def test_twists_suite_catches_seeded_sextic_and_quartic_regression(monkeypatch, entry, read,
                                                                   failure):
    # over F_13, p = 1 mod 12, both extra kinds apply: one corrupted read
    # of a sextic or quartic twist's A_p gives exactly that one failure
    seed_hasse(monkeypatch, verify_mod, entry, lambda a: 2 * a % 13, read=read)
    assert run_suite("twists", 13).failures == [failure]


def test_etale_suite_catches_seeded_regression(monkeypatch):
    # one ordinary model whose A_p reads 0 off the row table has to flip
    # the verdict to FAIL: ptorsion_description, which computes its own
    # A_p, describes it as ordinary.  y^2 = x^3 + x + 2 over F_5, where
    # A_5 = 2 a4 = 2
    seen = seed_hasse(monkeypatch, verify_mod, (0, 1, 2), lambda _: 0)
    result = run_suite("etale", 5)
    assert seen[0] == 2
    assert len(result.failures) == 1
    assert result.failures[0].startswith(
        "WeierstrassCurve(y^2 = x^3 + x + 2 over F_5): supersingular but described as ")


def test_etale_suite_catches_wrong_degree_pattern(monkeypatch):
    # a wrong degree pattern for A_7 = 3, a generator of F_7^*, has to flip
    # the verdict to FAIL: once against ptorsion_description, on the first
    # model with that A_p, where the pattern is read, and once against the
    # class order on every model with that A_p, since the pattern is
    # cached per value of A_p.  Every other model passes
    ctx = make_field(7)
    real = verify_mod.degree_pattern
    calls = []

    def wrong(f):
        calls.append(f.ranks[0])
        return (1,) * 6 if f.ranks[0] == ctx._neg(3) else real(f)

    monkeypatch.setattr(verify_mod, "degree_pattern", wrong)
    result = run_suite("etale", 7)
    assert calls.count(ctx._neg(3)) == 1
    hit = [repr(c) for c in iter_curves(ctx) if hasse_invariant(c) == ctx.element(3)]
    assert hit[0] == "WeierstrassCurve(y^2 = x^3 + 1 over F_7)"
    assert result.failures == [
        f"{hit[0]}: p-th root of j or etale degrees (6,) disagree with factor() (1, 1, 1, 1, 1, 1)"
    ] + [f"{name}: etale degrees (1, 1, 1, 1, 1, 1) but class order 6" for name in hit]


def test_etale_suite_row_of_passed_values_still_checks_supersingular(monkeypatch):
    # by the last row of F_7, a4 = 6, every value of A_p = 3 a6 on it has
    # passed, so the row adds its ordinary models at once and checks only
    # the models that read A_p = 0: y^2 = x^3 + 6x + 1 seeded to read 0
    # there has to fail as supersingular, and the case count stays that of
    # the clean run
    ctx = make_field(7)
    clean = run_suite("etale", 7)
    earlier, last = ({hasse_invariant(c) for c in iter_curves(ctx) if (c.a4 == 6) == on_last}
                     for on_last in (False, True))
    assert earlier >= last
    seen = seed_hasse(monkeypatch, verify_mod, (0, 6, 1), lambda _: 0)
    result = run_suite("etale", 7)
    assert seen[0] == 3 and clean.ok and result.cases == clean.cases
    assert len(result.failures) == 1
    assert result.failures[0].startswith(
        "WeierstrassCurve(y^2 = x^3 + 6*x + 1 over F_7): supersingular but described as ")


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
