"""Independent checks of every operation the benchmark runs.

Each check returns None when the output is right and a one-line reason
when it is not.  The trace interval formula is recomputed here in plain
integers, and census reports are compared byte for byte, by digest, with
the reports of the seed commit (``digests.json``).
"""

from __future__ import annotations

import hashlib
import json
from math import gcd, isqrt


def allowed_residues(p: int, q: int) -> set[int]:
    """Residues beta mod p over 0 < |beta| <= isqrt(4q - 1), p not dividing beta."""
    bound = isqrt(4 * q - 1)
    if bound >= p - 1:
        return set(range(1, p))
    return {b % p for b in range(1, bound + 1)} | {-b % p for b in range(1, bound + 1)}


def report_digest(report_dict: dict) -> str:
    text = json.dumps(report_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_census(report, p: int, n: int, mods, digests: dict) -> str | None:
    q = p**n
    want = allowed_residues(p, q)
    if set(report.realizable) != want:
        return f"F_{p}^{n}: realizable {sorted(report.realizable)} but the interval allows {sorted(want)}"
    if set(mods.forms.realizable_set(p, q)) != want:
        return f"F_{p}^{n}: realizable_set disagrees with the interval formula"
    missing = [h for h in range(1, p) if h not in want]
    if list(report.missing) != missing:
        return f"F_{p}^{n}: missing {list(report.missing)}, expected {missing}"
    if report.verdict != ("proper-subset" if missing else "complete"):
        return f"F_{p}^{n}: verdict {report.verdict!r} with missing {missing}"
    for entry in report.entries:
        w = entry.witness
        if w is None:
            continue
        if w.beta % p != entry.residue or w.phi != entry.residue:
            return f"F_{p}^{n}: witness for {entry.residue} has beta {w.beta}, phi {w.phi}"
        if w.beta * w.beta > 4 * q or w.count != q + 1 - w.beta:
            return f"F_{p}^{n}: witness for {entry.residue} breaks the trace bound"
    expected = digests.get(f"{p}^{n}")
    if expected is not None and report_digest(report.to_dict()) != expected:
        return f"F_{p}^{n}: report bytes differ from the seed commit"
    return None


def check_suite(result, digests: dict) -> str | None:
    if not result.ok:
        return f"suite {result.suite} p={result.p} n={result.n}: {result.failures[:1]}"
    if result.cases < 1:
        return f"suite {result.suite} p={result.p} n={result.n} checked nothing"
    if result.suite == "census":
        expected = digests.get(f"{result.p}^{result.n}")
        if expected is not None and report_digest(result.detail) != expected:
            return f"suite census p={result.p} n={result.n}: report bytes differ from the seed commit"
    return None


def _check_hasse(res: dict, mods) -> str | None:
    p, n, q = res["p"], res["n"], res["q"]
    beta, count = res["beta"], res["count"]
    if beta != q + 1 - count or beta * beta > 4 * q:
        return f"beta {beta} with count {count} breaks the trace bound over F_{q}"
    if any(res["hasse_p"]):
        if res["phi"] != beta % p:
            return f"phi {res['phi']} but beta mod p = {beta % p}"
    elif beta % p:
        return f"supersingular but p does not divide beta = {beta}"
    ctx = mods.gf.make_field(p, n)
    ap, aq = ctx.element(res["hasse_p"]), ctx.element(res["hasse_q"])
    if ap ** ((q - 1) // (p - 1)) != aq:
        return "A_q is not A_p^((q-1)/(p-1))"
    if aq != beta % p:
        return f"A_q = {aq} but beta mod p = {beta % p}"
    return None


def _check_ptorsion(res: dict) -> str | None:
    p = res["p"]
    if res["supersingular"]:
        return None if res["label"] == "M2" else f"supersingular labelled {res['label']!r}"
    order = (p - 1) // gcd(res["class_exp"], p - 1)
    degrees = res["etale_degrees"]
    if sum(degrees) != p - 1 or any(d != order for d in degrees):
        return f"etale degrees {degrees} but class order {order}"
    return None


def _check_search(res: dict, h: int, mods) -> str | None:
    p, n = res["p"], res["n"]
    if res["realizable"] != (h in allowed_residues(p, p**n)):
        return f"class {h} reported realizable={res['realizable']}"
    if not res["realizable"]:
        return None
    w = res["witness"]
    if w["beta"] % p != h:
        return f"witness beta {w['beta']} is not {h} mod {p}"
    ctx = mods.gf.make_field(p, n)
    curve = mods.curve.WeierstrassCurve(ctx, w["a4"], w["a6"], a2=w["a2"])
    again = mods.search.describe_witness(curve, h).to_dict()
    if again != w:
        return f"witness re-derives as {again}"
    return None


def _check_realizable(res: dict) -> str | None:
    p, q = res["p"], res["q"]
    want = allowed_residues(p, q)
    missing = [h for h in range(1, p) if h not in want]
    if res["realizable"] != sorted(want) or res["missing"] != missing:
        return f"realizable {res['realizable']} over F_{q}, expected {sorted(want)}"
    if res["verdict"] != ("proper-subset" if missing else "complete"):
        return f"verdict {res['verdict']!r} with missing {missing}"
    return None


def check_cli(argv: list[str], code: int, out: str, err: str, mods) -> str | None:
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    res = json.loads(out)["result"]
    command = argv[0]
    if command == "hasse":
        return _check_hasse(res, mods)
    if command == "ptorsion":
        return _check_ptorsion(res)
    if command == "search":
        return _check_search(res, int(argv[argv.index("-h") + 1]), mods)
    if command == "realizable":
        return _check_realizable(res)
    return f"no check for command {command!r}"
