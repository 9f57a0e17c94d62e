"""End-to-end acceptance checks for the realizability toolkit.

Each test covers one numbered criterion, measures its own wall time
against a fixed budget, and prints a single summary line of the form

    [AC-07] closed-forms ................ PASS (0.01s, budget 1.0s)

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
are produced; without ``-s`` pytest shows them only for failing tests.
All expected values are either forced by definitions, computed here by an
independent route (exhaustive sweeps, closed forms), or frozen constants
that were derived by hand.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from hasseforms import (
    census,
    enumerate_classes,
    find_curve_with_class,
    hasse_invariant,
    is_ordinary,
    iter_curves,
    make_field,
    phi,
    point_count,
    ptorsion_description,
    realizable_set,
    run_suite,
    twist,
    twist_class_action,
    unit_class_of,
)
from hasseforms.cli import main as cli_main

ODD_PRIME_POWERS_TO_49 = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)


def _field_for(q):
    p = min(f for f in range(2, q + 1) if q % f == 0)
    n = 1
    while p ** n < q:
        n += 1
    return make_field(p, n)


def _report(num, name, elapsed, budget, ok):
    tag = "PASS" if ok else "FAIL"
    dots = "." * max(1, 34 - len(name))
    print(f"[AC-{num:02d}] {name} {dots} {tag} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget:g}s"


def test_ac01_class_enumeration_and_phi():
    """p-1 classes per field; phi is a bijective homomorphism onto the units mod p."""
    t0 = time.perf_counter()
    ok = True
    for q in (3, 5, 7, 9, 11, 13, 25, 27, 49):
        ctx = _field_for(q)
        p = ctx.p
        classes = enumerate_classes(ctx)
        values = [int(phi(c)) for c in classes]
        ok = ok and len(classes) == p - 1
        ok = ok and sorted(values) == list(range(1, p))
        for c1, v1 in zip(classes, values):
            for c2, v2 in zip(classes, values):
                ok = ok and int(phi(c1 * c2)) == (v1 * v2) % p
    _report(1, "class-enumeration-and-phi", time.perf_counter() - t0, 1.0, ok)


def test_ac02_small_prime_fields_complete():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13, 17):
        report = census(make_field(p))
        ok = ok and report.verdict == "complete" and not report.missing
    _report(2, "small-prime-census-complete", time.perf_counter() - t0, 1.0, ok)


def test_ac03_gap_fields_19_and_23():
    t0 = time.perf_counter()
    r19 = census(make_field(19))
    r23 = census(make_field(23))
    ok = set(r19.missing) == {9, 10} and r19.verdict == "proper-subset"
    expected_missing_23 = set(range(1, 23)) - realizable_set(23)
    ok = ok and set(r23.missing) == expected_missing_23 == {10, 11, 12, 13}
    _report(3, "gap-census-19-23", time.perf_counter() - t0, 1.0, ok)


def test_ac04_census_361_complete_audited():
    """Census over the 361-element field, with a shortcut-free audit on a
    sample of classes and the interval formula checked on every class."""
    t0 = time.perf_counter()
    result = run_suite("census", 19, 2)
    ok = result.ok and result.detail["verdict"] == "complete"
    ok = ok and not result.detail["missing"]
    _report(4, "census-361-complete", time.perf_counter() - t0, 30.0, ok)


def test_ac05_trace_matches_class_residue():
    """beta mod p equals phi of the Hasse class for every ordinary curve."""
    t0 = time.perf_counter()
    ok = True
    for q in (5, 7, 9, 11, 13, 25, 49):
        ctx = _field_for(q)
        p = ctx.p
        for curve in iter_curves(ctx):
            a = hasse_invariant(curve)
            if not a:
                continue
            fd = point_count(curve)
            ok = ok and int(phi(unit_class_of(a))) == fd.beta % p
    _report(5, "trace-vs-class-residue", time.perf_counter() - t0, 5.0, ok)


def test_ac06_norm_compatibility_extension_fields():
    """A_q is the (q-1)/(p-1) power of A_p and matches 1 - #E mod p."""
    t0 = time.perf_counter()
    ok = True
    for q in (9, 25):
        ctx = _field_for(q)
        p = ctx.p
        e = (q - 1) // (p - 1)
        for curve in iter_curves(ctx):
            ap = hasse_invariant(curve, level="p")
            aq = hasse_invariant(curve, level="q")
            ok = ok and aq == ap ** e
            fd = point_count(curve)
            ok = ok and int(aq) % p == (1 - fd.count) % p
    _report(6, "invariant-norm-compatibility", time.perf_counter() - t0, 5.0, ok)


def test_ac07_closed_forms():
    """The invariant collapses to 2a (p=5), 3b (p=7), 9ab (p=11)."""
    t0 = time.perf_counter()
    ok = True
    for p, form in ((5, lambda a, b: 2 * a), (7, lambda a, b: 3 * b), (11, lambda a, b: 9 * a * b)):
        ctx = make_field(p)
        for curve in iter_curves(ctx):
            ok = ok and hasse_invariant(curve) == form(curve.a4, curve.a6)
    _report(7, "closed-forms", time.perf_counter() - t0, 1.0, ok)


def test_ac08_twist_class_law():
    """Twisting moves the Hasse class exactly as the class action predicts."""
    t0 = time.perf_counter()
    ok = True
    cases = 0
    for p in (5, 13):
        ctx = make_field(p)
        j1728 = ctx(1728)
        for curve in iter_curves(ctx):
            kinds = ["quadratic"]
            if curve.j_invariant == j1728 and p % 4 == 1:
                kinds.append("quartic")
            if not curve.j_invariant and p % 3 == 1:
                kinds.append("sextic")
            a = hasse_invariant(curve)
            for d in ctx.iter_elements():
                if not d:
                    continue
                for kind in kinds:
                    twisted = twist(curve, d, kind)
                    at = hasse_invariant(twisted)
                    if not a:
                        ok = ok and not at
                    else:
                        want = twist_class_action(unit_class_of(a), d, kind)
                        ok = ok and unit_class_of(at) == want
                    cases += 1
    ok = ok and cases > 0
    _report(8, "twist-class-law", time.perf_counter() - t0, 2.0, ok)


def test_ac09_trivial_class_witness_small_primes():
    """Every prime field through p = 23 carries a curve in the trivial class."""
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        ctx = make_field(p)
        witness = find_curve_with_class(ctx, 1)
        ok = ok and witness is not None
        if witness is not None:
            cls = unit_class_of(hasse_invariant(witness))
            ok = ok and cls.exp == 0 and int(phi(cls)) == 1
    _report(9, "trivial-class-witnesses", time.perf_counter() - t0, 1.0, ok)


def test_ac10_realizable_set_not_closed():
    """3 is realizable over the 19-element field but its square 9 is not."""
    t0 = time.perf_counter()
    r = realizable_set(19)
    ok = 3 in r and 9 not in r and (3 * 3) % 19 == 9
    suite = run_suite("census", 19, 1)
    ok = ok and suite.ok
    _report(10, "non-closure-19", time.perf_counter() - t0, 1.0, ok)


def test_ac11_etale_degrees():
    """Degrees of the multiplicative-part algebra sum to p-1; fixed fixtures."""
    t0 = time.perf_counter()
    ok = True
    for p in (5, 7):
        ctx = make_field(p)
        for curve in iter_curves(ctx):
            if not is_ordinary(curve):
                continue
            desc = ptorsion_description(curve)
            ok = ok and sum(desc.etale_degrees) == p - 1
    ctx5 = make_field(5)
    fixture2 = ptorsion_description(find_curve_with_class(ctx5, 2))
    fixture1 = ptorsion_description(find_curve_with_class(ctx5, 1))
    ok = ok and sorted(fixture2.etale_degrees) == [4]
    ok = ok and sorted(fixture1.etale_degrees) == [1, 1, 1, 1]
    _report(11, "etale-degrees", time.perf_counter() - t0, 2.0, ok)


def test_ac12_ordinariness_two_routes():
    """The invariant route and the trace route agree on ordinariness."""
    t0 = time.perf_counter()
    ok = True
    for q in ODD_PRIME_POWERS_TO_49:
        ctx = _field_for(q)
        p = ctx.p
        for curve in iter_curves(ctx):
            ok = ok and is_ordinary(curve) == (point_count(curve).beta % p != 0)
    _report(12, "ordinariness-two-routes", time.perf_counter() - t0, 5.0, ok)


def test_ac13_census_determinism(tmp_path):
    """Repeated censuses, library and CLI, emit byte-identical reports."""
    t0 = time.perf_counter()
    blobs = []
    for _ in range(2):
        report = census(make_field(19, 2))
        blobs.append(json.dumps(report.to_dict(), sort_keys=True,
                                separators=(",", ":")).encode())
    ok = blobs[0] == blobs[1]

    envelopes = []
    for run in range(2):
        out = tmp_path / f"census-{run}.json"
        rc = cli_main(["verify", "--suite", "census", "-p", "19", "-n", "2",
                       "--json", "--out", str(out)])
        ok = ok and rc == 0
        payload = json.loads(out.read_text())
        timing = payload.pop("timing-ms")
        ok = ok and isinstance(timing, int) and timing >= 0
        ok = ok and set(payload["params"]) == {"suite", "p", "n"}
        ok = ok and payload["result"]["suites"][0]["detail"] == report.to_dict()
        envelopes.append(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    ok = ok and envelopes[0] == envelopes[1]
    _report(13, "census-determinism", time.perf_counter() - t0, 30.0, ok)


# sha256 of the compact sorted JSON of each census report, by (p, n),
# from the one table of cold-census digests, which CI's cold census step
# also reads
CENSUS_SHA256 = {(int(p), int(n)): digest for p, n, digest in (
    line.split() for line in (Path(__file__).parent / "census_digests.txt").read_text().splitlines()
    if line and not line.startswith("#"))}

# the budget of each cold census in seconds.  Row a4 = 0 has one
# coefficient, A_p = c a6^k, over F_1009 and F_4099 (p = 1 mod 3) and
# A_p = 0 over F_65537 (p = 2 mod 3): the scan reads it by A_p, and every
# other row by the row product
LARGE_PRIME_CENSUS_BUDGET_S = {1009: 5.0, 4099: 5.0, 65537: 10.0}


@pytest.mark.parametrize("p", sorted(LARGE_PRIME_CENSUS_BUDGET_S))
def test_ac14_large_prime_census_within_budget(p):
    """Cold census over F_1009, F_4099 and F_65537: the frozen report bytes in budget."""
    t0 = time.perf_counter()
    report = census(make_field(p))
    blob = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    ok = hashlib.sha256(blob.encode()).hexdigest() == CENSUS_SHA256[p, 1]
    _report(14, f"census-{p}-digest", time.perf_counter() - t0,
            LARGE_PRIME_CENSUS_BUDGET_S[p], ok)


# sha256 of ",".join(map(str, exp)) for the exp table of each field,
# frozen from the build that walked all q - 1 powers of the generator and
# tested generators on the convolution route; the budgets are 3 s per cold
# table build and 5 s per cold census of LARGE_EXTENSIONS
LARGE_FIELD_EXP_SHA256 = {
    (3, 12): "64b88d2991eaddd1e1abad1424b271223029fca5439f71ae0f7b62f6410b8771",
    (7, 7): "722378d56f6511ddea948ee29a80fd469c416fdf3ae14ab0f4b0267a3b36d01e",
    (31, 4): "0efa320298ca7ba9a6e7b6ed96c5669bfc7f95984764f684848803e435e0515d",
    (1021, 2): "e2b1937d3b16d84676bf06c2a4540b1c48e3564ead73ea836a59cc35f0491795",
}
LARGE_EXTENSIONS = ((3, 12), (5, 8), (7, 7))


@pytest.mark.parametrize("p,n", sorted(LARGE_FIELD_EXP_SHA256))
def test_ac15_large_field_tables_within_budget(p, n):
    """Cold table builds over F_3^12, F_7^7, F_31^4 and F_1021^2: the frozen exp tables in budget."""
    t0 = time.perf_counter()
    exp = make_field(p, n)._log_tables[0]
    elapsed = time.perf_counter() - t0
    digest = hashlib.sha256(",".join(map(str, exp)).encode()).hexdigest()
    _report(15, f"tables-{p}^{n}-digest", elapsed, 3.0,
            digest == LARGE_FIELD_EXP_SHA256[p, n])


@pytest.mark.parametrize("p,n", LARGE_EXTENSIONS)
def test_ac16_large_extension_census_within_budget(p, n):
    """Cold census over F_3^12, F_5^8 and F_7^7: the frozen report bytes in budget."""
    t0 = time.perf_counter()
    report = census(make_field(p, n))
    blob = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    ok = hashlib.sha256(blob.encode()).hexdigest() == CENSUS_SHA256[p, n]
    _report(16, f"census-{p}^{n}-digest", time.perf_counter() - t0, 5.0, ok)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s"]))
