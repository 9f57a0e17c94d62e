"""Benchmark of hasseforms: one workload per run, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload census-prime --seed 1 --seconds 12 --trace 0

Workloads: census-prime, census-ext, curve-queries, suites (see
workloads.py and README.md); ``--workload all`` runs them one after
another.  Everything runs in this one process on one thread, with
HASSE_FORMS_THREADS unset so the census uses a single worker.

With ``--trace 0`` the run reports the end-to-end metrics, with times
scaled to a reference speed of the machine measured inside the run
(speed.py); with ``--trace 1`` it runs the same passes untraced and then
traced, then the edge operations, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
environment, each edge operation's outcome and every metric by name and
unit.  The full record of a run, and the spans of a traced run, are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from checks import check_census, check_cli, check_suite
from spans import LAYERS, PACKAGE, Tracer, install
from speed import Speedometer
from workloads import WORKLOADS, Api, execute

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
THREADS_ENV = "HASSE_FORMS_THREADS"
MIN_PASSES = 3          # the mean pass time is over at least three passes
CORE_GUARD_S = 60.0     # hang guard of a core operation; all take seconds at most
PROBE_GUARD_S = 120.0
SETUPS_PER_PASS = 4     # set-ups timed after each untraced pass; setup_s is their median

# Workload-specific names for pass_s, and for the latency percentiles that
# are printed on every run but reported as metrics only by traced runs.
ALIASES = {
    "census-prime": {"pass_s": "census_s"},
    "census-ext": {"pass_s": "census_s"},
    "curve-queries": {"op_p50_ms": "query_p50_ms", "op_p90_ms": "query_p90_ms"},
    "suites": {"pass_s": "suite_s"},
}


class OpTimeout(BaseException):
    """The per-operation budget ran out (raised by the ITIMER_REAL alarm)."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_package() -> SimpleNamespace:
    """A fresh import of every hasseforms module from this checkout's src/."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{
        name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS + ("errors",)})
    if not Path(mods.gf.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"{PACKAGE} was imported from {mods.gf.__file__}, not from {SRC}")
    return mods


def set_up(workload, seed: int, passes: int):
    """Import, field construction and input generation, timed as one step."""
    t0 = time.perf_counter()
    mods = import_package()
    ops, orders = workload.inputs(random.Random(seed), mods, passes)
    return time.perf_counter() - t0, mods, ops, orders


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_op(op, api, budget: float, tracer=None):
    """(status, output, wall seconds, CPU seconds) of one operation under the budget alarm."""
    if tracer is not None:
        tracer.op += 1
    cpu0 = cpu_seconds()
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = time.perf_counter()
    try:
        out, status = execute(op, api), "done"
    except OpTimeout:
        out, status = None, "timeout"
    except Exception as exc:  # the program raised: a failed operation, keep going
        out, status = f"{type(exc).__name__}: {exc}", "error"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    if tracer is not None and status != "done":
        tracer.abandon()
    return status, out, elapsed, cpu


def judge(op, status, out, mods, digests) -> str | None:
    """None when the operation answered correctly, else the reason it failed."""
    if status == "timeout":
        return "timeout"
    if status == "error":
        return out
    try:
        if op.kind == "census":
            return check_census(out, *op.args, mods, digests)
        if op.kind == "suite":
            return check_suite(out, digests)
        return check_cli(list(op.args), *out, mods)
    except Exception as exc:  # a malformed output is a wrong answer
        return f"check raised {type(exc).__name__}: {exc}"


def run_passes(ops, orders, api, mods, digests, samples, speed, tracer=None) -> list[float]:
    """Run the operations once per order; returns pass times, appends samples.

    Each operation starts from a collected heap, so the garbage of one
    (field contexts sit in reference cycles) is not freed inside the next.
    The speedometer samples the machine between operations (at most every
    SAMPLE_EVERY_S) and once at the end of each pass.
    """
    walls = []
    for order in orders:
        results = []
        for i in order:
            gc.collect()
            speed.maybe_sample()
            results.append(run_op(ops[i], api, CORE_GUARD_S, tracer))
        speed.sample()
        walls.append(sum(elapsed for _, _, elapsed, _ in results))
        for i, (status, out, elapsed, cpu) in zip(order, results):
            problem = judge(ops[i], status, out, mods, digests)
            samples.append({"index": i, "op": ops[i].label, "seconds": elapsed,
                            "cpu_s": cpu, "problem": problem})
    return walls


def best_per_op(samples, key: str) -> list[float]:
    """Each operation's least time over the passes, in operation order."""
    by_op: dict[int, list[float]] = {}
    for s in samples:
        by_op.setdefault(s["index"], []).append(s[key])
    return [min(v) for _, v in sorted(by_op.items())]


def run_edges(workload, api, mods, digests) -> list[dict]:
    """Each edge operation once, untraced; outcome ok, timeout, refused, error or wrong."""
    outcomes = []
    for op in workload.edge:
        status, out, elapsed, _ = run_op(op, api, workload.edge_budget_s)
        if status == "timeout":
            outcome = "timeout"
        elif status == "error":
            outcome = f"error: {out}"
        elif op.kind == "cli" and out[0] == 2:
            outcome = f"refused: {out[2].strip()[:200]}"
        else:
            problem = judge(op, status, out, mods, digests)
            outcome = "ok" if problem is None else f"wrong: {problem}"
        outcomes.append({"op": op.label, "outcome": outcome, "seconds": elapsed})
    return outcomes


def _probe_curve(mods, ctx):
    for a6 in range(1, ctx.p):
        try:
            return mods.curve.WeierstrassCurve(ctx, 1, a6, a2=1 if ctx.p == 3 else 0)
        except mods.errors.SingularModelError:
            continue
    raise RuntimeError(f"no probe curve over {ctx}")


def _first_call_s(mods, curve) -> float:
    t0 = time.perf_counter()
    mods.curve.point_count(curve)
    a = mods.curve.hasse_invariant(curve)
    if a:
        mods.forms.unit_class_of(a)
    return time.perf_counter() - t0


def probe_gf(mods, fields) -> dict:
    """Stand-alone gf probes: lazy first-use cost, element mul and inverse."""
    first_use = 0.0
    mul_ns, inv_ns = [], []
    rng = random.Random(0)
    for p, n in fields:
        ctx = mods.gf.make_field(p, n)
        curve = _probe_curve(mods, ctx)
        cold = _first_call_s(mods, curve)
        first_use += cold - _first_call_s(mods, curve)
        xs = [ctx.from_rank(rng.randrange(1, ctx.q)) for _ in range(2000)]
        pairs = list(zip(xs, reversed(xs)))
        mul, inv = [], []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for x, y in pairs:
                x * y
            t1 = time.perf_counter_ns()
            for x in xs:
                x.inverse()
            t2 = time.perf_counter_ns()
            mul.append((t1 - t0) / len(pairs))
            inv.append((t2 - t1) / len(xs))
        mul_ns.append(statistics.median(mul))
        inv_ns.append(statistics.median(inv))
    return {"first_use_s": first_use, "mul_ns": statistics.fmean(mul_ns),
            "inv_ns": statistics.fmean(inv_ns)}


def latency_ms(samples) -> tuple[float, float]:
    """Median and 90th percentile of the per-operation best times, in ms."""
    times = best_per_op(samples, "seconds")
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return statistics.median(times) * 1e3, p90 * 1e3


def layer_metrics(tracer, n: int, probes: dict, overhead: float, fail_ratio: float,
                  latency: tuple[float, float]) -> dict:
    calls, total, counts = tracer.calls, tracer.total_ns, tracer.counts

    def mean_us(name):
        return total[name] / calls[name] / 1e3 if calls[name] else 0.0

    def self_s(layer):
        return tracer.layer_self_s(layer) / n

    hasse_calls = sum(v for k, v in calls.items() if k.startswith("curve.hasse_invariant"))
    models = counts["search.models_built"]
    return {
        "curve.hasse_calls": (hasse_calls / n, "count"),
        "curve.hasse_p_us": (mean_us("curve.hasse_invariant[p]"), "us"),
        "curve.hasse_q_us": (mean_us("curve.hasse_invariant[q]"), "us"),
        "curve.point_count_calls": (calls["curve.point_count"] / n, "count"),
        "curve.point_count_us": (mean_us("curve.point_count"), "us"),
        "curve.models_singular": (counts["curve.models_singular"] / n, "count"),
        "curve.self_s": (self_s("curve"), "s"),
        "poly.self_s": (self_s("poly"), "s"),
        "poly.factor_calls": (calls["poly.factor"] / n, "count"),
        "poly.factor_s": (total["poly.factor"] / 1e9 / n, "s"),
        "gf.first_use_s": (probes["first_use_s"], "s"),
        "gf.make_field_s": (total["gf.make_field"] / 1e9 / n, "s"),
        "gf.mul_ns": (probes["mul_ns"], "ns"),
        "gf.inv_ns": (probes["inv_ns"], "ns"),
        "gf.discrete_log_calls": (calls["gf.discrete_log"] / n, "count"),
        "gf.discrete_log_us": (mean_us("gf.discrete_log"), "us"),
        "gf.self_s": (self_s("gf"), "s"),
        "forms.self_s": (self_s("forms"), "s"),
        "search.models_built": (models / n, "count"),
        "search.hit_ratio": (counts["search.witnesses"] / models if models else 0.0, "ratio"),
        "search.self_s": (self_s("search"), "s"),
        "verify.cases": (counts["verify.cases"] / n, "count"),
        "verify.self_s": (self_s("verify"), "s"),
        "cli.calls": (calls["cli.main"] / n, "count"),
        "cli.failed": ((counts["cli.nonzero"] + counts["cli.main.raised"]) / n, "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "fail_ratio": (fail_ratio, "ratio"),
        "query_p50_ms": (latency[0], "ms"),
        "query_p90_ms": (latency[1], "ms"),
    }


def commit_id() -> str | None:
    """HEAD of the checkout when it is a git work tree (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: int, trace: bool, speed: Speedometer) -> None:
    workload = WORKLOADS[name]
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
           "load1_at_start": os.getloadavg()[0], "commit": commit_id(),
           "src_sha256": source_digest()}
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    if trace:
        count = max(1, round(seconds / 2 / workload.nominal_pass_s))
    else:
        count = max(MIN_PASSES, round(seconds / workload.nominal_pass_s))

    # One set-up gives the modules and inputs of the run; SETUPS_PER_PASS
    # more after each untraced pass sample set-up time across the whole run.
    speed.start()
    dt, mods, ops, orders = set_up(workload, seed, count * (2 if trace else 1))
    setup_times = [dt]
    api = Api(mods.gf.make_field, mods.search.census, mods.cli.main, mods.verify.run_suite)

    samples: list[dict] = []
    walls = []
    for order in orders[:count]:
        walls += run_passes(ops, [order], api, mods, digests, samples, speed)
        setup_times += [set_up(workload, seed, len(orders))[0] for _ in range(SETUPS_PER_PASS)]
    # The untraced passes' times are reported at the reference speed, from
    # the kernel runs pooled across them (see speed.py).
    factor, cpu_factor = speed.factor(), speed.factor(cpu=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - speed.table_mb
    p50_ms, p90_ms = latency_ms(samples)

    tracer = None
    if trace:
        tracer = Tracer()
        modules = [getattr(mods, layer) for layer in LAYERS]
        uninstall = install(tracer, modules, mods.curve, mods.errors)
        traced = Api(*(tracer.wrap(f) for f in (api.make_field, api.census,
                                                 api.cli_main, api.run_suite)))
        try:
            traced_walls = run_passes(ops, orders[count:], traced, mods, digests,
                                      samples, speed, tracer)
        finally:
            uninstall()
        signal.setitimer(signal.ITIMER_REAL, PROBE_GUARD_S)
        try:
            probes = probe_gf(mods, workload.probe_fields)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    # Edge operations run in traced runs only, where fail_ratio is reported:
    # they take up to 10 s of budget per run, which untraced runs, repeated
    # many times to compare two commits, cannot spare.
    edges = run_edges(workload, api, mods, digests) if trace else []

    failed = sum(s["problem"] is not None for s in samples)
    edge_failed = sum(e["outcome"] != "ok" for e in edges)
    fail_ratio = (failed + edge_failed) / (len(samples) + len(edges))
    correct = failed == 0 and not any(e["outcome"].startswith("wrong") for e in edges)

    if trace:
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        metrics = layer_metrics(tracer, count, probes, overhead, fail_ratio,
                                (p50_ms, p90_ms))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times) * factor, "s"),
            "pass_s": (statistics.fmean(walls) * factor, "s"),
            "cpu_s": (sum(s["cpu_s"] for s in samples) / count * cpu_factor, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl.gz")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "passes": count, "edge_budget_s": workload.edge_budget_s, "env": env,
              "setup_s": setup_times, "pass_walls_s": walls,
              "speed_factor": factor, "speed_cpu_factor": cpu_factor,
              "speed_walls_s": speed.walls, "speed_cpus_s": speed.cpus,
              "edges": edges, "samples": samples, "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# perfbench {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"passes={count} ops={len(ops)} edge_budget={workload.edge_budget_s:g}s")
    print(f"# env {json.dumps(env)}")
    if workload.edge and not trace:
        print(f"# {len(workload.edge)} edge operations run with --trace 1 only")
    for e in edges:
        print(f"# edge {e['op']}: {e['outcome']} ({e['seconds']:.2f} s)")
    for s in samples:
        if s["problem"] is not None:
            print(f"# FAILED {s['op']}: {s['problem']}")
    aliases = {} if trace else ALIASES[name]
    for key, m in metrics.items():
        alias = f"  ({aliases[key]})" if key in aliases else ""
        print(f"# {key} {m['value']:.6g} {m['unit']}{alias}")
    if not trace:
        for key, value in (("op_p50_ms", p50_ms), ("op_p90_ms", p90_ms)):
            alias = f"  ({aliases[key]})" if key in aliases else ""
            print(f"# {key} {value:.6g} ms{alias}  over {len(ops)} operations")
    print(f"# {failed} of {len(samples)} core and {edge_failed} of {len(edges)} edge "
          f"operations failed: fail_ratio {fail_ratio:.6g}")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(THREADS_ENV, None)
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    speed = Speedometer()
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace), speed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
