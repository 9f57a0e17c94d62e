"""The four workloads, their inputs and how one operation is executed.

A workload is a fixed list of core operations, run once per pass in a
seeded order: a ladder of census or suite runs, or (curve-queries) one
seeded block of single-curve CLI calls sent as a closed loop with one
client.  The seed draws the curve-queries block and only the order of
the fixed ladders, so every seed does the same amount of work.

Why each workload was chosen:

- census-prime: cold census over prime fields, where the truncated-power
  Hasse kernel is nearly all the time and no rank tables are built.
- census-ext: cold census over extension fields, where lazy q-by-q rank
  tables and model decodes dominate and the Hasse kernel matters little.
- curve-queries: the only path through cli, A_q at level q,
  discrete_log and factor; cold per-call field tables and the ptorsion
  tail set its latency.
- suites: exhaustive identity sweeps that visit every curve without an
  early exit, so point_count runs per curve; census pruning must not
  show here.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

# Prime fields and extension fields of the two census ladders.
CENSUS_PRIME = ((19, 1), (23, 1), (101, 1), (131, 1), (211, 1))
CENSUS_EXT = ((19, 2), (7, 3), (5, 4), (31, 2), (3, 4))

# One curve-queries block: 48 + 12 + 21 + 25 + 14 = 120 CLI calls.  What
# sets a call's cost is fixed: the field, the search target and the class
# of A_p for ptorsion (factor's cost depends on A_p alone).  The seed draws
# the curves, the realizable arguments and the order, so every seed costs
# the same.  Every third prime of 101..1009 gives a smooth spread of Hasse
# kernel costs around the 90th percentile.
HASSE_EXT = ((3, 4), (19, 2), (7, 3), (5, 3))
HASSE_EXT_EACH = 3
PTORSION_PRIMES = (13, 17, 19, 23, 31, 37, 43)
PTORSION_RESIDUES = (2, 3, 5)           # A_p mod p of the ptorsion curves
SEARCH_TARGET = 2                       # realizable over every field: a real sweep


def _primes(lo: int, hi: int) -> list[int]:
    return [m for m in range(max(lo, 3), hi + 1) if all(m % d for d in range(2, m))]


HASSE_PRIMES = tuple(_primes(101, 1009)[::3])
SEARCH_PRIMES = tuple(_primes(3, 101))
REALIZABLE_PRIMES = tuple(p for p in SEARCH_PRIMES if p <= 43)
REALIZABLE_CALLS = 14

SUITE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SUITE_LADDER = (
    [("classification", p, 1) for p in SUITE_PRIMES]
    + [("bridge", p, 1) for p in SUITE_PRIMES]
    + [("closed-forms", p, 1) for p in (5, 7, 11)]
    + [("twists", p, 1) for p in SUITE_PRIMES if p <= 19]
    + [("norm", p, 2) for p in (3, 5, 7)] + [("norm", 3, 3)]
    + [("etale", p, 1) for p in SUITE_PRIMES if p <= 23]
    + [("census", p, 1) for p in SUITE_PRIMES if p <= 23]
)


@dataclass(frozen=True)
class Op:
    kind: str        # "census", "cli" or "suite"
    args: tuple

    @property
    def label(self) -> str:
        if self.kind == "census":
            return "census F_%d^%d" % self.args
        if self.kind == "suite":
            return "suite %s F_%d^%d" % self.args
        return " ".join(a for a in self.args if a != "--json")


@dataclass
class Api:
    """The entry points an operation calls; traced passes swap in span wrappers."""

    make_field: object
    census: object
    cli_main: object
    run_suite: object


def execute(op: Op, api: Api):
    """Run one operation and return its raw output."""
    if op.kind == "census":
        return api.census(api.make_field(*op.args))
    if op.kind == "suite":
        return api.run_suite(*op.args)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli_main(list(op.args))
    return code, out.getvalue(), err.getvalue()


def _cli(*words) -> Op:
    return Op("cli", tuple(str(w) for w in words) + ("--json",))


def _coeffs(element) -> str:
    return ",".join(str(c) for c in element.coeffs)


def _random_curve_args(rng, mods, ctx) -> list:
    """-a2/-a4/-a6 arguments of a uniformly drawn nonsingular model over ctx."""
    while True:
        a2 = ctx.from_rank(rng.randrange(ctx.q)) if ctx.p == 3 else ctx.zero
        a4 = ctx.from_rank(rng.randrange(ctx.q))
        a6 = ctx.from_rank(rng.randrange(ctx.q))
        try:
            mods.curve.WeierstrassCurve(ctx, a4, a6, a2=a2)
        except mods.errors.SingularModelError:
            continue
        args = ["-a4", _coeffs(a4), "-a6", _coeffs(a6)]
        return (["-a2", _coeffs(a2)] if ctx.p == 3 else []) + args


def _trace(p: int, a4: int, a6: int) -> int:
    """beta = p + 1 - #E(F_p), counted with Euler's criterion."""
    count = 1
    for x in range(p):
        v = (x * x * x + a4 * x + a6) % p
        count += 1 if v == 0 else 2 if pow(v, (p - 1) // 2, p) == 1 else 0
    return p + 1 - count


def _curve_with_residue(rng, p: int, r: int) -> list:
    """-a4/-a6 of a random nonsingular curve over F_p with A_p = beta = r (mod p)."""
    while True:
        a4, a6 = rng.randrange(p), rng.randrange(p)
        if (4 * a4**3 + 27 * a6**2) % p and _trace(p, a4, a6) % p == r:
            return ["-a4", str(a4), "-a6", str(a6)]


def _query_block(rng, mods, fields) -> list[Op]:
    def field(p, n=1):
        if (p, n) not in fields:
            fields[(p, n)] = mods.gf.make_field(p, n)
        return fields[(p, n)]

    ops = []
    for p in HASSE_PRIMES:
        ops.append(_cli("hasse", "-p", p, *_random_curve_args(rng, mods, field(p))))
    for p, n in HASSE_EXT:
        for _ in range(HASSE_EXT_EACH):
            ops.append(_cli("hasse", "-p", p, "-n", n,
                            *_random_curve_args(rng, mods, field(p, n))))
    for p in PTORSION_PRIMES:
        for r in PTORSION_RESIDUES:
            ops.append(_cli("ptorsion", "-p", p, *_curve_with_residue(rng, p, r)))
    for p in SEARCH_PRIMES:
        ops.append(_cli("search", "-p", p, "-h", SEARCH_TARGET))
    for _ in range(REALIZABLE_CALLS):
        ops.append(_cli("realizable", "-p", rng.choice(REALIZABLE_PRIMES),
                        "-n", rng.randint(1, 4)))
    return ops


def _ladder(kind: str, entries):
    def ops(rng, mods, fields) -> list[Op]:
        for args in entries:
            fields[args[-2:]] = mods.gf.make_field(*args[-2:])
        return [Op(kind, args) for args in entries]
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    nominal_pass_s: float        # one pass at the seed commit, 2 vCPU; sets passes per run
    core: Callable               # (rng, mods, fields) -> core operations; builds their fields
    probe_fields: tuple          # fields for the gf first-use and element probes
    edge: tuple = ()             # operations from the hang list: outcome only, never timed
    edge_budget_s: float = 0.0   # budget of each edge operation

    def inputs(self, rng, mods, passes: int) -> tuple[list[Op], list[list[int]]]:
        """The core operations and, per pass, the order to run them in."""
        ops = self.core(rng, mods, {})
        return ops, [rng.sample(range(len(ops)), len(ops)) for _ in range(passes)]


WORKLOADS = {
    w.name: w for w in (
        Workload("census-prime", 2.0, _ladder("census", CENSUS_PRIME), CENSUS_PRIME),
        Workload("census-ext", 8.5, _ladder("census", CENSUS_EXT), CENSUS_EXT,
                 edge=(Op("census", (3, 6)),), edge_budget_s=8.0),
        Workload("curve-queries", 6.0, _query_block, HASSE_EXT + ((1009, 1),),
                 edge_budget_s=2.5, edge=(
            _cli("hasse", "-p", 65537, "-a4", 1, "-a6", 1),
            _cli("hasse", "-p", 1048583, "-a4", 1, "-a6", 1),
            _cli("ptorsion", "-p", 211, "-a4", 1, "-a6", 1),
            _cli("realizable", "-p", 3, "-n", 40),
        )),
        Workload("suites", 6.5, _ladder("suite", SUITE_LADDER),
                 ((3, 2), (5, 2), (7, 2), (3, 3), (31, 1))),
    )
}
