"""The named verification suites and their reporting surface."""

import json
import logging
import time

import pytest

from hasseforms import SUITE_NAMES, iter_curves, make_field, run_suite
from hasseforms.verify import SuiteResult


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
        ("classification", 7, 1): 44,
        ("bridge", 5, 1): 20,
        ("twists", 5, 1): 80,
        ("closed-forms", 7, 1): 42,
        ("norm", 3, 2): 1296,
        ("etale", 5, 1): 24,
        ("census", 13, 1): 14,
        ("census", 19, 1): 21,
    }
    for (name, p, n), cases in expected.items():
        assert run_suite(name, p, n).cases == cases


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("everything", 5)


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


def test_etale_suite_bytes_equal_with_factor_logging(caplog):
    plain = json.dumps(run_suite("etale", 17).to_dict(), sort_keys=True)
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        logged = run_suite("etale", 17).to_dict()
    assert json.dumps(logged, sort_keys=True) == plain
    assert any("splitting candidates tried" in r.getMessage() for r in caplog.records)


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
    # the suite must actually look at the data: feeding it one corrupted
    # point count has to flip the verdict to FAIL
    import dataclasses

    import hasseforms.verify as verify_mod

    real_point_count = verify_mod.point_count
    state = {"armed": True}

    def corrupted(curve):
        fd = real_point_count(curve)
        if state["armed"] and fd.ordinary:
            state["armed"] = False
            return dataclasses.replace(fd, beta=fd.beta + 1)
        return fd

    monkeypatch.setattr(verify_mod, "point_count", corrupted)
    result = run_suite("bridge", 5)
    assert not result.ok
    assert result.failures
