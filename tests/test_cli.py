"""Command-line surface: envelopes, human output, exit codes."""

import argparse
import contextlib
import io
import json
import math
import random
import re
import subprocess
import sys
import time

import pytest

from hasseforms import (
    SUITE_NAMES,
    WeierstrassCurve,
    describe_witness,
    find_curve_with_class,
    hasse_invariant,
    make_field,
)
from hasseforms import cli
from hasseforms.cli import main
from hasseforms.errors import InconsistencyError


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


def test_hasse_human_golden_extension_field():
    # compound coefficients print in parentheses, 1 as the bare variable
    rc, out, err = run_cli("hasse", "-p", "3", "-n", "2", "-a2", "0,1",
                           "-a4", "1,1", "-a6", "2,2")
    assert rc == 0 and err == ""
    assert out == (
        "field: F_9 (p = 3, n = 2)\n"
        "modulus: t^2 + 1\n"
        "curve: WeierstrassCurve(y^2 = x^3 + t*x^2 + (t + 1)*x + (2*t + 2) over F_9)\n"
        "discriminant: t   j: t\n"
        "A_p: t   A_q: 1\n"
        "points: 9   trace beta: 1\n"
        "ordinary; kernel class exp 0, phi residue 1\n"
    )


def test_hasse_singular_model_message():
    rc, out, err = run_cli("hasse", "-p", "3", "-n", "2", "-a2", "1,1",
                           "-a4", "0", "-a6", "0")
    assert rc == 2 and out == ""
    assert err == "error: y^2 = x^3 + (t + 1)*x^2 over F_9 = F_3[t]/(t^2 + 1) is singular\n"


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


def test_verification_failure_exits_1_on_stderr_alone(monkeypatch):
    # an InconsistencyError from a handler prints nothing on stdout and its
    # message on stderr, and exits 1, --json or not
    message = "witness for class 2 is singular: (a2, a4, a6) = ((0,), (1,), (5,)) over F_7"

    def inconsistent(curve, h):
        raise InconsistencyError(message)

    monkeypatch.setattr(cli, "describe_witness", inconsistent)
    rc, out, err = run_cli("search", "-p", "7", "-h", "2", "--json")
    assert (rc, out, err) == (1, "", f"verification failure: {message}\n")


def test_verify_range_form():
    rc, out, _ = run_cli("verify", "--suite", "classification", "-p", "3..7", "--json")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["ok"] is True
    assert [s["p"] for s in result["suites"]] == [3, 5, 7]
    rc, out, _ = run_cli("verify", "--suite", "census", "-p", "19")
    assert rc == 0
    assert "suite=census p=19 n=1" in out and "PASS" in out


@pytest.mark.parametrize("p,n,field", [("5", "1..9", "F_5^9"), ("3", "1..13", "F_3^13"),
                                       ("3..5", "8..9", "F_5^9")])
def test_verify_refuses_a_range_past_the_guard_before_any_suite(monkeypatch, p, n, field):
    # the first field of the range past 2**20, in run order, is refused
    # with FieldCtx's own message before any suite runs
    def no_suite(*args):
        raise AssertionError(f"run_suite{args} ran")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    rc, out, err = run_cli("verify", "--suite", "census", "-p", p, "-n", n)
    assert (rc, out) == (2, "")
    assert err == (f"error: {field} is too large: fields need q = p**n <= 2**20 "
                   "for their log tables and sweeps\n")


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


@pytest.mark.parametrize("args", [
    ("hasse", "-p", "7", "-n", "2", "-a4", "1"),
    ("ptorsion", "-p", "7", "-n", "2", "-a4", "1"),
    ("hasse", "-p", "3", "-n", "2", "-a2", "-1,1", "-a4", "1"),
])
def test_coefficient_list_may_start_negative(args):
    # "-a6 -1,2" is a value, not an option, on every supported Python
    spaced = run_cli(*args, "-a6", "-1,2")
    joined = run_cli(*args, "-a6=-1,2")
    assert spaced == joined and spaced[0] == 0 and spaced[1]


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
    ("hasse", "-p", "3", "-n", "1000000000000", "-a4", "1", "-a6", "1"),
    ("realizable", "-p", "1048583"),
    ("realizable", "-p", "1000000000000000000000007"),
], ids=["hasse-3^20", "hasse-65521^2", "ptorsion-3^13", "search-1031^2",
        "verify-p-range", "verify-n-range", "hasse-huge-n", "realizable-p-2^20",
        "realizable-p-huge"])
def test_hasse_large_extension_fails_fast(args):
    # q > 2**20: the field is refused before any modulus search, or p**n
    # is formed for a huge n; a verify range with a bound above 2**20
    # before any list is built; realizable's p before it is trial-divided
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


@pytest.mark.parametrize("n", ["9013", "1000000000000"])
def test_realizable_refuses_unprintable_q_fast(n):
    # q = p**n is printed in full, so at most 4300 digits, and is refused
    # before it is formed for a huge n
    rc, out, err, elapsed = _timed_cli("realizable", "-p", "3", "-n", n)
    assert rc == 2 and out == ""
    assert err == f"error: q = 3**{n} has more than 4300 digits\n"
    assert elapsed < 1.0, f"realizable -p 3 -n {n} took {elapsed:.2f}s, budget 1s"


def test_realizable_prints_q_up_to_4300_digits():
    rc, out, _ = run_cli("realizable", "-p", "3", "-n", "9012", "--json")
    assert rc == 0
    assert json.loads(out)["result"]["q"] == 3**9012


@pytest.mark.parametrize("n", ["0", "-1"])
def test_realizable_rejects_bad_degree(n):
    rc, out, err = run_cli("realizable", "-p", "5", "-n", n)
    assert rc == 2 and out == ""
    assert err == f"error: extension degree must be >= 1, got {n}\n"


def test_no_subcommand_prints_help():
    rc, out, _ = run_cli()
    assert rc == 2
    assert "usage" in out.lower()


# The help and usage bytes argparse prints.  It wraps them to the terminal
# width, so the golden fixes COLUMNS; its layout also moves between Python
# releases (the quoting of choices in an invalid-choice error, the
# wrapping of long usage lines), so these are the bytes of Python 3.11.
TOP_USAGE = (
    "usage: hasseforms [-h] [--version]\n"
    "                  {hasse,realizable,search,verify,ptorsion} ...\n"
)
TOP_HELP = TOP_USAGE + """
Twisted forms of p-th roots of unity on elliptic curves over small finite
fields, by exhaustive enumeration.

positional arguments:
  {hasse,realizable,search,verify,ptorsion}
    hasse               invariants of one curve
    realizable          classes the trace interval allows
    search              first witness curve for one class
    verify              run an exhaustive identity suite
    ptorsion            describe the p-torsion scheme

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
CURVE_HELP = """
options:
  -h, --help  show this help message and exit
  -p P        odd prime characteristic
  -n N        extension degree (default 1)
  -a2 C       a2 coefficients c0,c1,... (characteristic 3 only)
  -a4 C       a4 coefficients c0,c1,...
  -a6 C       a6 coefficients c0,c1,...
  --json      emit one stable machine-readable envelope
  --out FILE  write the report to FILE instead of stdout
"""
HELP_GOLDEN = {
    ("--help",): (0, TOP_HELP, ""),
    ("--version",): (0, "0.1.0\n", ""),
    ("hasse", "--help"): (0, """\
usage: hasseforms hasse [-h] -p P [-n N] [-a2 C] -a4 C -a6 C [--json]
                        [--out FILE]
""" + CURVE_HELP, ""),
    ("realizable", "--help"): (0, """\
usage: hasseforms realizable [-h] -p P [-n N] [--json] [--out FILE]

options:
  -h, --help  show this help message and exit
  -p P        odd prime characteristic
  -n N        extension degree (default 1)
  --json      emit one stable machine-readable envelope
  --out FILE  write the report to FILE instead of stdout
""", ""),
    ("search", "--help"): (0, """\
usage: hasseforms search [--help] -p P [-n N] -h TARGET [--no-shortcut]
                         [--json] [--out FILE]

options:
  --help         show this help and exit
  -p P           odd prime characteristic
  -n N           extension degree (default 1)
  -h TARGET      target class residue in 1..p-1
  --no-shortcut  sweep every curve instead of pruning by traces
  --json         emit one stable machine-readable envelope
  --out FILE     write the report to FILE instead of stdout
""", ""),
    ("verify", "--help"): (0, """\
usage: hasseforms verify [-h] --suite
                         {classification,bridge,twists,closed-forms,norm,etale,census}
                         -p P [-n N] [--json] [--out FILE]

options:
  -h, --help            show this help message and exit
  --suite {classification,bridge,twists,closed-forms,norm,etale,census}
  -p P                  prime, list 5,7,11 or range 3..23 (primes only)
  -n N                  degree, list or range (default 1)
  --json                emit one stable machine-readable envelope
  --out FILE            write the report to FILE instead of stdout
""", ""),
    ("ptorsion", "--help"): (0, """\
usage: hasseforms ptorsion [-h] -p P [-n N] [-a2 C] -a4 C -a6 C [--json]
                           [--out FILE]
""" + CURVE_HELP, ""),
    ("nonsense",): (2, "", TOP_USAGE + (
        "hasseforms: error: argument command: invalid choice: 'nonsense' (choose "
        "from 'hasse', 'realizable', 'search', 'verify', 'ptorsion')\n")),
    (): (2, TOP_HELP, ""),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help layout is pinned as Python 3.11 prints it")
@pytest.mark.parametrize("argv", list(HELP_GOLDEN),
                         ids=lambda argv: " ".join(argv) or "no-subcommand")
def test_help_and_usage_golden(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(*argv) == HELP_GOLDEN[argv]


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


def test_hasse_computes_the_closed_form_once(monkeypatch):
    # A_q is read as the norm of A_p, not from a second closed-form sum
    levels = []
    real = cli.hasse_invariant

    def counted(curve, level="p"):
        levels.append(level)
        return real(curve, level)

    monkeypatch.setattr(cli, "hasse_invariant", counted)
    rc, out, _ = run_cli("hasse", "-p", "7", "-n", "2", "-a4", "1", "-a6", "3", "--json")
    assert rc == 0 and levels == ["p"]
    ctx = make_field(7, 2)
    curve = WeierstrassCurve(ctx, ctx(1), ctx(3))
    result = json.loads(out)["result"]
    assert result["hasse_q"] == list(hasse_invariant(curve, "q").coeffs)
    assert result["hasse_p"] == list(hasse_invariant(curve, "p").coeffs)


# Every outcome main can reach: parser usage errors, handler usage errors,
# --help and --version (which exit from inside parse_args), no subcommand,
# and every subcommand in human and --json form, interleaved.
REUSE_SEQUENCE = [
    ("hasse", "-p", "5", "-a4", "1", "-a6", "1", "--json"),
    ("hasse", "-p", "5", "-a4", "1"),
    ("--help",),
    ("realizable", "-p", "19"),
    ("--version",),
    ("search", "-p", "19", "-h", "5", "--json"),
    (),
    ("verify", "--suite", "classification", "-p", "3..7"),
    ("nonsense",),
    ("ptorsion", "-p", "5", "-a4", "1", "-a6", "1", "--json"),
    ("hasse", "-p", "5", "-a4", "x", "-a6", "1"),
    ("search", "--help"),
    ("hasse", "-p", "3", "-n", "2", "-a2", "0,1", "-a4", "1", "-a6", "1"),
    ("verify", "--suite", "bogus", "-p", "5"),
    ("realizable", "-p", "19", "--json"),
    ("hasse", "--help"),
    ("search", "-p", "19", "-h", "9"),
    ("search", "-p", "5", "-h", "0", "--json"),
    ("verify", "--suite", "bridge", "-p", "5,7", "--json"),
    ("ptorsion", "-p", "5", "-a4", "0", "-a6", "1"),
    ("verify", "--suite", "census", "-p", "3", "-n", "0"),
    ("--version",),
    ("hasse", "-p", "5", "-a4", "1", "-a6", "1", "--json"),
]


def _masked(result):
    rc, out, err = result
    return rc, re.sub(r'"timing-ms":\d+', '"timing-ms":0', out), err


def test_reused_parser_gives_the_bytes_of_a_fresh_one(monkeypatch):
    # reference: a freshly built parser for every call
    fresh = []
    for args in REUSE_SEQUENCE:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(_masked(run_cli(*args)))
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [_masked(run_cli(*args)) for args in REUSE_SEQUENCE]
    assert cli._PARSER is not None
    assert reused == fresh
    assert {rc for rc, _, _ in fresh} == {0, 2}
    assert all(out or err for _, out, err in fresh)


def _refuse_to_build():
    raise AssertionError("build_parser ran on a well-formed argv")


def test_well_formed_argv_build_no_parser(monkeypatch):
    monkeypatch.setattr(cli, "build_parser", _refuse_to_build)
    monkeypatch.setattr(cli, "_PARSER", None)
    well_formed = [argv for argv in REUSE_SEQUENCE if _read(argv) is not None]
    assert len(well_formed) >= len(REUSE_SEQUENCE) // 2
    for argv in well_formed:
        rc, out, err = run_cli(*argv)
        assert out or err
    assert cli._PARSER is None


def _counted_build(monkeypatch):
    built = []
    real = cli.build_parser

    def counted():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    return built


def test_first_declined_argv_builds_the_parser_once(monkeypatch):
    built = _counted_build(monkeypatch)
    run_cli("realizable", "-p", "19", "--json")
    assert built == [] and cli._PARSER is None
    declined = ("realizable", "-p", "19", "--js")
    assert _read(declined) is None
    run_cli(*declined)
    assert len(built) == 1 and cli._PARSER is built[0]


def test_later_declined_argv_reuse_the_parser(monkeypatch):
    built = _counted_build(monkeypatch)
    for i in range(50):
        run_cli(*REUSE_SEQUENCE[i % len(REUSE_SEQUENCE)])
    assert len(built) == 1 and cli._PARSER is built[0]
    # build_parser itself still returns a new parser on every call
    assert cli.build_parser() is not cli.build_parser()


def _fuzz_coeffs(rng, n):
    kind = rng.randrange(12)
    if kind < 7:
        return ",".join(str(rng.randint(-50, 50)) for _ in range(rng.randint(1, n)))
    if kind == 7:
        return ",".join("0" for _ in range(rng.randint(1, n)))
    if kind == 8:
        return str(rng.choice([-1, 1]) * (10**30 + rng.randrange(10**6)))
    if kind == 9:
        return ",".join(str(rng.randrange(7)) for _ in range(n + 1))  # too many
    return rng.choice(["x", "", "1,,2", "1.5", ",", "1,", "0x5", " ", "--", "-x", "1 2"])


FUZZ_PRIMES = [m for m in range(3, 212) if all(m % f for f in range(2, m))]
FUZZ_EXTENSIONS = [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2),
                   (13, 2), (13, 3), (31, 2), (101, 2), (211, 2)]
# edge of the guard: q just above 2**20, p = 2, composite, negative and
# zero p, degree zero, negative and huge
FUZZ_REFUSED = [(1048583, 1), (1031, 2), (3, 13), (103, 3), (2, 1), (2, 5),
                (9, 1), (15, 2), (1, 1), (0, 1), (-3, 1), (-7, 2), (5, 0),
                (7, -1), (3, 10**12), (-3, 10**8), (1048575, 1), (10**30, 1)]
FUZZ_RANGES = ["3", "5", "3..7", "3,5", "7", "-5..5", "11..13",
               "3..", "..5", "x..y", "13..3", "4", "4..4", "1..2", "",
               "3,,5", "0", "3..1000000000", "1048583", "2", "3..3..5"]
FUZZ_DEGREES = ["1", "1..1", "0..1", "0", "-1", "1..0", "x", "1048576", "2000000"]


def _fuzz_argv(rng):
    sub = rng.choice(["hasse", "ptorsion", "search", "realizable", "verify", "other"])
    if sub == "verify":
        suite = rng.choice(SUITE_NAMES + ("bogus",))
        degree = "1" if rng.random() < 0.5 else rng.choice(FUZZ_DEGREES)
        return ["verify", "--suite", suite, "-p", rng.choice(FUZZ_RANGES), "-n", degree]
    if sub == "other":
        return rng.choice([[], ["--version"], ["--help"], ["nonsense"], ["hasse"],
                           ["search", "-p", "5"], ["hasse", "-p", "5", "-a4", "1"],
                           ["realizable", "-p", "x"], ["realizable", "-n", "2"]])
    draw = rng.random()
    if draw < 0.7:
        p, n = rng.choice(FUZZ_PRIMES), 1
    elif draw < 0.85:
        p, n = rng.choice(FUZZ_EXTENSIONS)
    else:
        p, n = rng.choice(FUZZ_REFUSED)
    argv = [sub, "-p", str(p), "-n", str(n)]
    if sub in ("hasse", "ptorsion"):
        width = min(max(n, 1), 3)
        if p == 3 or rng.random() < 0.1:
            argv += ["-a2", _fuzz_coeffs(rng, width)]
        argv += ["-a4", _fuzz_coeffs(rng, width), "-a6", _fuzz_coeffs(rng, width)]
    elif sub == "search":
        h = rng.choice([rng.randint(-2, abs(p) + 2)] * 4 + [0, 10**25, "x", "1.0"])
        argv += ["-h", str(h)]
        if 0 < p**min(n, 2) <= 2000 and rng.random() < 0.3:
            argv.append("--no-shortcut")
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def test_cli_fuzz_exits_cleanly_within_budget():
    # a seeded, deterministic sweep of small, refused and malformed inputs:
    # every call ends with exit 0, 1 or 2 and no traceback
    rng = random.Random(20120)
    calls = [_fuzz_argv(rng) for _ in range(300)]
    budget = 10.0
    t0 = time.perf_counter()
    codes = []
    for argv in calls:
        try:
            rc, out, err = run_cli(*argv)
        except (Exception, SystemExit) as exc:  # an escape from main is a crash
            pytest.fail(f"{argv}: main raised {type(exc).__name__}: {exc}")
        assert rc in (0, 1, 2), f"{argv}: exit {rc}"
        assert "Traceback" not in err, f"{argv}: {err}"
        assert rc or not err, f"{argv}: exit 0 with stderr {err!r}"
        codes.append(rc)
    elapsed = time.perf_counter() - t0
    assert codes.count(0) >= 100 and codes.count(2) >= 100
    assert elapsed < budget, f"cli fuzz took {elapsed:.2f}s, budget {budget:g}s"


# argv shaped like the benchmark's single-curve calls, which main reads
# without parse_args
QUERY_ARGV = [
    ("hasse", "-p", "3", "-n", "4", "-a2", "1,0,2,1", "-a4", "0,1", "-a6", "2,2,0,1", "--json"),
    ("hasse", "-p", "101", "-a4", "17", "-a6", "3", "--json"),
    ("ptorsion", "-p", "43", "-a4", "5", "-a6", "8", "--json"),
    ("search", "-p", "19", "-h", "2", "--json"),
    ("search", "-h", "2", "--no-shortcut", "-n", "2", "-p", "5"),
    ("realizable", "-p", "19", "-n", "2", "--out", "report.json"),
    ("verify", "--suite", "bridge", "-p", "3..7", "-n", "1"),
]


def _read(argv):
    return cli._read(cli._joined(list(argv)))


def _typed(args):
    # a Namespace's attributes with their types, since True == 1
    return {dest: (type(value), value) for dest, value in vars(args).items()}


def test_reader_agrees_with_argparse():
    # main's reader gives None or the Namespace of parse_args, on the fuzz
    # corpus of several seeds, the reuse sequence and the query shapes
    parser = cli.build_parser()
    rngs = [random.Random(seed) for seed in (20120, 1, 2)]
    corpus = [_fuzz_argv(rng) for rng in rngs for _ in range(1000)]
    corpus += REUSE_SEQUENCE + QUERY_ARGV
    read = 0
    for argv in corpus:
        argv = cli._joined(list(argv))
        args = cli._read(argv)
        if args is not None:
            read += 1
            assert _typed(args) == _typed(parser.parse_args(argv)), argv
    assert read > len(corpus) // 3
    assert all(_read(argv) is not None for argv in QUERY_ARGV)


def _value(action):
    # a value parse_args takes for a store action
    return action.choices[0] if action.choices else "5"


def test_grammar_audit_against_argparse_actions():
    # the parser built from the grammar, read through argparse's own
    # actions, has the dests, types, required options, defaults, choices
    # and store_true options the reader reads off the grammar
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert subs.dest == "command"
    assert list(subs.choices) == list(cli.GRAMMAR) == list(cli.HANDLERS)
    for name, sp in subs.choices.items():
        stores = [a for a in sp._actions if type(a) is argparse._StoreAction]
        flags = [a for a in sp._actions if type(a) is argparse._StoreTrueAction]
        helps = [a for a in sp._actions if a not in stores + flags]
        assert all(type(a) is argparse._HelpAction for a in helps) and len(helps) == 1
        assert all(len(a.option_strings) == 1 for a in stores + flags)
        required = [a for a in sp._actions if a.required]
        assert all(a in stores for a in required)
        base = [name] + [s for a in required for s in (a.option_strings[0], _value(a))]
        args = cli._read(base)
        assert _typed(args) == _typed(parser.parse_args(base)), base
        # defaults as parse_args fills them in: a string default through the type
        defaults = {}
        for a in stores + flags:
            if not a.required:
                typed = isinstance(a.default, str) and a.type is not None
                defaults[a.dest] = a.type(a.default) if typed else a.default
        assert {dest: _typed(args)[dest] for dest in defaults} == {
            dest: (type(value), value) for dest, value in defaults.items()}
        for a in required:
            i = base.index(a.option_strings[0])
            assert cli._read(base[:i] + base[i + 2:]) is None, (base, a.dest)
        for a in stores:
            flag = a.option_strings[0]
            rest = [s for i, s in enumerate(base) if flag not in base[i - 1:i + 1]]
            for value in a.choices or [_value(a)]:
                argv = rest + [flag, value]
                assert _typed(cli._read(argv)) == _typed(parser.parse_args(argv)), argv
                expected = value if a.type is None else a.type(value)
                assert getattr(cli._read(argv), a.dest) == expected
            if a.type is not None:
                assert cli._read(rest + [flag, "x"]) is None, (name, flag)
            if a.choices is not None:
                assert cli._read(rest + [flag, "bogus"]) is None, (name, flag)
        for a in flags:
            argv = base + a.option_strings
            assert _typed(cli._read(argv)) == _typed(parser.parse_args(argv)), argv
            assert getattr(cli._read(argv), a.dest) is True
        for a in helps:
            assert all(cli._read(base + [s]) is None for s in a.option_strings)


@pytest.mark.parametrize("argv", [
    (),
    ("--version",),
    ("nonsense", "-p", "5"),
    ("hasse", "-p", "5", "-a4", "1", "-a6", "1", "extra"),
    ("realizable", "-p", "19", "--version"),
    ("realizable", "-p", "19", "--js"),
    ("realizable", "-p=19"),
    ("hasse", "-p", "7", "-a4", "1", "-a6", "-1,2"),
    ("search", "--help"),
    ("hasse", "-h"),
    ("hasse", "-p", "5", "-a4", "1", "-a6", "1", "--help"),
    ("realizable", "-p", "19", "-p", "23"),
    ("realizable", "-p", "19", "--json", "--json"),
    ("hasse", "-a4", "1", "-a6", "1", "-p"),
    ("realizable", "-p", "-3"),
    ("realizable", "-p", "--json"),
    ("realizable", "-p", "x"),
    ("verify", "--suite", "bogus", "-p", "5"),
    ("hasse", "-p", "5", "-a4", "1"),
], ids=["empty", "top-level-option", "unknown-subcommand", "extra-token",
        "subcommand-version", "abbreviation", "equals-form", "joined-negative",
        "search-help", "auto-help", "late-help", "repeated", "repeated-flag",
        "missing-value", "dash-value", "option-as-value", "type-error",
        "outside-choices", "missing-required"])
def test_reader_declines(argv):
    assert _read(argv) is None


@pytest.mark.parametrize("argv", [
    ("hasse", "-p", "5", "-a4", "1", "-a6", "1", "extra"),
    ("realizable", "-p", "19", "--version"),
    ("hasse", "-p", "5", "-a4", "1", "-a6", "1", "--js"),
    ("hasse", "-p=5", "-a4", "1", "-a6", "1"),
    ("hasse", "-p", "7", "-a4", "1", "-a6", "-1,2"),
    ("hasse", "-p"),
])
def test_declined_argv_keep_the_bytes_of_parse_args(monkeypatch, argv):
    # reference: main with the reader switched off, so parse_args on a
    # fresh parser, then the handler
    assert _read(argv) is None
    got = _masked(run_cli(*argv))
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    assert got == _masked(run_cli(*argv))
    if argv[-1] in ("extra", "--version"):
        # the error is the top-level parser's, under its usage line
        assert got[0] == 2 and got[2].startswith(cli.build_parser().format_usage())


def test_well_formed_argv_skip_parse_args(monkeypatch):
    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"parse_args ran on {args}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    for argv in QUERY_ARGV[:5]:
        rc, out, err = run_cli(*argv)
        assert rc == 0 and out and not err
