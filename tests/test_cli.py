"""Command-line surface: envelopes, human output, exit codes."""

import contextlib
import io
import json
import math
import subprocess
import sys
import time

import pytest

from hasseforms import WeierstrassCurve, describe_witness, find_curve_with_class, make_field
from hasseforms.cli import main


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(args))
    return rc, out.getvalue(), err.getvalue()


def test_hasse_json_golden():
    rc, out, err = run_cli("hasse", "-p", "5", "-a4", "1", "-a6", "1", "--json")
    assert rc == 0 and err == ""
    assert out.endswith("\n")
    envelope = json.loads(out)
    timing = envelope.pop("timing-ms")
    assert isinstance(timing, int) and timing >= 0
    assert envelope == {
        "tool-version": "0.1.0",
        "command": "hasse",
        "params": {"a2": None, "a4": "1", "a6": "1", "n": 1, "p": 5},
        "result": {
            "a2": [0], "a4": [1], "a6": [1],
            "beta": -3, "class_exp": 1, "count": 9,
            "discriminant": [4], "hasse_p": [2], "hasse_q": [2],
            "j": [2], "modulus": None, "n": 1, "ordinary": True,
            "p": 5, "phi": 2, "q": 5,
        },
    }


def test_json_is_canonical():
    rc, out, _ = run_cli("hasse", "-p", "5", "-a4", "1", "-a6", "1", "--json")
    assert rc == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_hasse_human_golden():
    rc, out, _ = run_cli("hasse", "-p", "5", "-a4", "1", "-a6", "1")
    assert rc == 0
    assert out == (
        "field: F_5 (p = 5, n = 1)\n"
        "curve: WeierstrassCurve(y^2 = x^3 + x + 1 over F_5)\n"
        "discriminant: 4   j: 2\n"
        "A_p: 2   A_q: 2\n"
        "points: 9   trace beta: -3\n"
        "ordinary; kernel class exp 1, phi residue 2\n"
    )


def test_hasse_supersingular_message():
    rc, out, _ = run_cli("hasse", "-p", "5", "-a4", "0", "-a6", "1")
    assert rc == 0
    assert "supersingular" in out
    rc, out, _ = run_cli("hasse", "-p", "5", "-a4", "0", "-a6", "1", "--json")
    result = json.loads(out)["result"]
    assert result["ordinary"] is False
    assert result["class_exp"] is None and result["phi"] is None


def test_hasse_extension_field_coeffs():
    rc, out, _ = run_cli("hasse", "-p", "3", "-n", "2", "-a2", "0,1",
                         "-a4", "1", "-a6", "1", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["q"] == 9 and result["modulus"] == [1, 0, 1]
    assert result["a2"] == [0, 1]


def test_realizable_json_golden():
    rc, out, _ = run_cli("realizable", "-p", "19", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result == {
        "missing": [9, 10],
        "n": 1, "p": 19, "q": 19,
        "realizable": [1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17, 18],
        "verdict": "proper-subset",
    }


def test_realizable_human():
    rc, out, _ = run_cli("realizable", "-p", "19")
    assert rc == 0
    assert "missing: [9, 10]" in out
    assert "verdict: proper-subset" in out


def test_search_hit_matches_library():
    rc, out, _ = run_cli("search", "-p", "19", "-h", "5", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["realizable"] is True
    curve = find_curve_with_class(make_field(19), 5)
    assert result["witness"] == describe_witness(curve, 5).to_dict()
    assert result["witness"]["count"] == 15 and result["witness"]["beta"] == 5


def test_search_miss_is_an_answer_not_an_error():
    rc, out, _ = run_cli("search", "-p", "19", "-h", "9", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["realizable"] is False and result["witness"] is None
    rc, out2, _ = run_cli("search", "-p", "19", "-h", "9", "--no-shortcut", "--json")
    assert rc == 0
    assert json.loads(out2)["result"] == result
    assert json.loads(out2)["params"]["no_shortcut"] is True


def test_search_h_flag_is_the_residue():
    # -h is the class residue for this subcommand; --help still works
    rc, out, _ = run_cli("search", "--help")
    assert rc == 0
    assert "residue" in out or "class" in out


def test_verify_range_form():
    rc, out, _ = run_cli("verify", "--suite", "classification", "-p", "3..7", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["ok"] is True
    assert [s["p"] for s in result["suites"]] == [3, 5, 7]
    rc, out, _ = run_cli("verify", "--suite", "census", "-p", "19")
    assert rc == 0
    assert "suite=census p=19 n=1" in out and "PASS" in out


def test_ptorsion_json_golden():
    rc, out, _ = run_cli("ptorsion", "-p", "5", "-a4", "1", "-a6", "1", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result == {
        "class_exp": 1, "etale_degrees": [4], "hasse": [2],
        "j": [2], "j_p_root": [2], "label": "mu-form+etale",
        "modulus": None, "n": 1, "p": 5, "q": 5, "supersingular": False,
    }


def test_ptorsion_supersingular():
    rc, out, _ = run_cli("ptorsion", "-p", "5", "-a4", "0", "-a6", "1", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["supersingular"] is True and result["label"] == "M2"
    assert result["etale_degrees"] is None


@pytest.mark.parametrize("args", [
    ("hasse", "-p", "5", "-a4", "0", "-a6", "0"),          # singular model
    ("hasse", "-p", "4", "-a4", "1", "-a6", "1"),          # composite p
    ("hasse", "-p", "5", "-a4", "x", "-a6", "1"),          # malformed coeff
    ("search", "-p", "5", "-h", "0"),                      # residue out of range
    ("verify", "--suite", "closed-forms", "-p", "9"),      # composite p
    ("verify", "--suite", "bogus", "-p", "5"),             # unknown suite
    ("nonsense",),                                         # unknown subcommand
])
def test_usage_errors_exit_two(args):
    rc, _, err = run_cli(*args)
    assert rc == 2


def _timed_cli(*args):
    t0 = time.perf_counter()
    rc, out, err = run_cli(*args)
    return rc, out, err, time.perf_counter() - t0


def test_hasse_large_prime_within_budget():
    rc, out, _, elapsed = _timed_cli("hasse", "-p", "65537", "-a4", "1", "-a6", "1", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["ordinary"] is True
    assert result["phi"] == result["beta"] % 65537
    assert elapsed < 2.0, f"hasse -p 65537 took {elapsed:.2f}s, budget 2s"


def test_hasse_beyond_sweep_guard_fails_fast():
    rc, _, err, elapsed = _timed_cli("hasse", "-p", "1048583", "-a4", "1", "-a6", "1")
    assert rc == 2
    assert "2**20" in err
    assert elapsed < 1.0, f"hasse -p 1048583 took {elapsed:.2f}s, budget 1s"


@pytest.mark.parametrize("args", [
    ("hasse", "-p", "3", "-n", "20", "-a2", "1", "-a4", "1", "-a6", "1"),
    ("hasse", "-p", "65521", "-n", "2", "-a4", "1", "-a6", "1"),
    ("ptorsion", "-p", "3", "-n", "13", "-a4", "1", "-a6", "1"),
    ("search", "-p", "1031", "-n", "2", "-h", "1"),
    ("verify", "--suite", "classification", "-p", "3..1000000000"),
    ("verify", "--suite", "classification", "-p", "3", "-n", "1..1000000000000"),
], ids=["hasse-3^20", "hasse-65521^2", "ptorsion-3^13", "search-1031^2",
        "verify-p-range", "verify-n-range"])
def test_hasse_large_extension_fails_fast(args):
    # q > 2**20: the field is refused before any modulus search, and a
    # verify range with a bound above 2**20 before any list is built
    rc, _, err, elapsed = _timed_cli(*args)
    assert rc == 2
    assert "2**20" in err
    assert elapsed < 1.0, f"{' '.join(args)} took {elapsed:.2f}s, budget 1s"


def test_search_char3_slab_jump_within_budget():
    rc, out, _, elapsed = _timed_cli("search", "-p", "3", "-n", "6", "-h", "1", "--json")
    assert rc == 0
    assert elapsed < 2.0, f"search -p 3 -n 6 -h 1 took {elapsed:.2f}s, budget 2s"
    witness = json.loads(out)["result"]["witness"]
    ctx = make_field(3, 6)
    curve = WeierstrassCurve(ctx, ctx(witness["a4"]), ctx(witness["a6"]),
                             a2=ctx(witness["a2"]))
    assert describe_witness(curve, 1).to_dict() == witness


def test_search_char5_row_jump_within_budget():
    # A_5 = 2 a4: one model per a4 row is classified
    rc, out, _, elapsed = _timed_cli("search", "-p", "5", "-n", "8", "-h", "2", "--json")
    assert rc == 0
    assert elapsed < 5.0, f"search -p 5 -n 8 -h 2 took {elapsed:.2f}s, budget 5s"
    witness = json.loads(out)["result"]["witness"]
    ctx = make_field(5, 8)
    curve = WeierstrassCurve(ctx, ctx(witness["a4"]), ctx(witness["a6"]))
    assert describe_witness(curve, 2).to_dict() == witness


def test_realizable_large_degree_within_budget():
    rc, out, _, elapsed = _timed_cli("realizable", "-p", "3", "-n", "40", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["q"] == 3 ** 40 and result["realizable"] == [1, 2]
    assert elapsed < 1.0, f"realizable -p 3 -n 40 took {elapsed:.2f}s, budget 1s"


@pytest.mark.parametrize("p", ["211", "65537"])
def test_ptorsion_large_prime_within_budget(p):
    rc, out, _, elapsed = _timed_cli("ptorsion", "-p", p, "-a4", "1", "-a6", "1", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    order = (int(p) - 1) // math.gcd(result["class_exp"], int(p) - 1)
    assert result["etale_degrees"] == [order] * ((int(p) - 1) // order)
    assert elapsed < 2.0, f"ptorsion -p {p} took {elapsed:.2f}s, budget 2s"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_realizable_rejects_bad_degree(n):
    rc, out, err = run_cli("realizable", "-p", "5", "-n", n)
    assert rc == 2 and out == ""
    assert err == f"error: extension degree must be >= 1, got {n}\n"


def test_no_subcommand_prints_help():
    rc, out, _ = run_cli()
    assert rc == 2
    assert "usage" in out.lower()


def test_out_file_json(tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli("realizable", "-p", "13", "--json", "--out", str(target))
    assert rc == 0
    assert out == ""  # redirected
    envelope = json.loads(target.read_text())
    assert envelope["result"]["verdict"] == "complete"


def test_out_file_human(tmp_path):
    target = tmp_path / "report.txt"
    rc, out, _ = run_cli("hasse", "-p", "5", "-a4", "1", "-a6", "1", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert "points: 9" in target.read_text()


def test_out_file_unwritable(tmp_path):
    target = tmp_path / "missing" / "out.json"
    rc, out, err = run_cli("hasse", "-p", "5", "-a4", "1", "-a6", "1", "--json",
                           "--out", str(target))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and str(target) in err
    assert "Traceback" not in err
    assert not target.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hasseforms", "realizable", "-p", "13", "--json"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["verdict"] == "complete"
