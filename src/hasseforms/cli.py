"""Command line front end.

Subcommands:

    hasse       invariants of one curve: A_p, A_q, count, trace, class
    realizable  which classes the trace interval formula allows
    search      first witness curve for one class (or a proof of absence)
    verify      exhaustive identity suites over whole fields
    ptorsion    the p-torsion group scheme of one curve

Exit codes: 0 for a computed answer (including "not realizable"), 1 when
a verification suite reports failures or a cross-check breaks, 2 for bad
usage.  With --json the output is a single stable envelope object whose
keys are sorted; only timing-ms varies between identical runs.

Note: the search subcommand spells its target class -h, so its help
lives on --help only.

Each subcommand is written once, as data: its GRAMMAR entry holds its
handler, its add_parser keywords and its options, each the keywords
add_argument takes.  main reads a well-formed argv straight off it:
argv[0] picks the subcommand, and _read reads the rest into a
SimpleNamespace with the attributes parse_args would give, with no
parser built.  Only an argv it declines (help, version, abbreviations,
"=" forms, usage errors, no subcommand) builds the argparse parser from
the same grammar, a fresh one for that call, so every caller gets
argparse's bytes; main keeps no state between calls.  The envelope's
params are the parsed options, less command, json and out.

Importing this module loads neither argparse nor json: build_parser
imports argparse, and main imports json only to write a --json
envelope, so a well-formed text call loads neither.
"""

from __future__ import annotations

import sys
import time
from types import SimpleNamespace

from . import __version__
from .curve import WeierstrassCurve, hasse_invariant, point_count
from .errors import InconsistencyError
from .forms import phi, ptorsion_description, realizable_set, unit_class_of
from .gf import SWEEP_MAX, FieldCtx, _check_size, _is_prime, make_field, norm_to_prime
from .search import describe_witness, find_curve_with_class
from .verify import SUITE_NAMES, run_suite

# the least q realizable refuses to print; built once, since CPython does
# not fold a power this large
_MAX_PRINTED_Q = 10**4300


def _parse_coeffs(text: str) -> list[int]:
    parts = [s.strip() for s in text.split(",")]
    if not parts or any(not s for s in parts):
        raise ValueError(f"bad coefficient list {text!r}; expected like 0,1")
    try:
        return [int(s) for s in parts]
    except ValueError:
        raise ValueError(f"bad coefficient list {text!r}; entries must be integers")


def _parse_range(text: str, kind: str) -> list[int]:
    # "lo..hi" keeps every odd prime (kind "prime") or every degree >= 1
    # (kind "degree") in the interval; "a,b,c" must list only such values.
    # A bound above 2**20 is refused before any list is built.
    lo_s, dots, hi_s = text.partition("..")
    try:
        given = [int(lo_s), int(hi_s)] if dots else [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"bad {kind} {'range' if dots else 'list'} {text!r}; "
                         "expected like 3..13 or 3,5,7")
    if max(given) > SWEEP_MAX:
        raise ValueError(f"bound {max(given)} in {text!r} is above 2**20, "
                         "the largest field order")
    if kind == "prime":
        valid, name = (lambda m: m > 2 and _is_prime(m)), "an odd prime"
    else:
        valid, name = (lambda m: m >= 1), "a degree >= 1"
    if not dots:
        for m in given:
            if not valid(m):
                raise ValueError(f"{m} is not {name}")
        return given
    values = [m for m in range(given[0], given[1] + 1) if valid(m)]
    if not values:
        raise ValueError(f"no {kind}s in {text!r}")
    return values


def _elt_json(x) -> list[int] | None:
    return None if x is None else list(x.coeffs)


def _field_header(ctx: FieldCtx) -> dict:
    return {
        "p": ctx.p,
        "n": ctx.n,
        "q": ctx.q,
        "modulus": list(ctx.modulus) if ctx.modulus else None,
    }


def _field_lines(ctx: FieldCtx) -> list[str]:
    lines = [f"field: F_{ctx.q} (p = {ctx.p}, n = {ctx.n})"]
    if ctx.modulus:
        lines.append(f"modulus: {ctx.modulus_str()}")
    return lines


def _curve_from_args(ctx: FieldCtx, args) -> WeierstrassCurve:
    a2 = _parse_coeffs(args.a2) if args.a2 is not None else [0]
    a4 = _parse_coeffs(args.a4)
    a6 = _parse_coeffs(args.a6)
    return WeierstrassCurve(ctx, ctx.element(a4), ctx.element(a6),
                            a2=ctx.element(a2))


# -- subcommand handlers -------------------------------------------------
# each returns (result, lines, exit_code), where lines() builds the human
# report; main calls it only when it prints the report, not under --json

def _cmd_hasse(args):
    ctx = make_field(args.p, args.n)
    curve = _curve_from_args(ctx, args)
    fd = point_count(curve)
    ap = hasse_invariant(curve, "p")
    aq = norm_to_prime(ap)
    j = curve.j_invariant
    ordinary = bool(ap)
    cls = unit_class_of(ap) if ordinary else None
    residue = int(phi(cls)) if cls else None
    result = {
        **_field_header(ctx),
        "a2": _elt_json(curve.a2),
        "a4": _elt_json(curve.a4),
        "a6": _elt_json(curve.a6),
        "discriminant": _elt_json(curve.discriminant),
        "j": _elt_json(j),
        "hasse_p": _elt_json(ap),
        "hasse_q": _elt_json(aq),
        "count": fd.count,
        "beta": fd.beta,
        "ordinary": ordinary,
        "class_exp": cls.exp if cls else None,
        "phi": residue,
    }
    return result, lambda: _field_lines(ctx) + [
        f"curve: {curve!r}",
        f"discriminant: {curve.discriminant}   j: {j}",
        f"A_p: {ap}   A_q: {aq}",
        f"points: {fd.count}   trace beta: {fd.beta}",
        f"ordinary; kernel class exp {cls.exp}, phi residue {residue}" if ordinary
        else "supersingular; kernel is the self-dual infinitesimal form",
    ], 0


def _cmd_realizable(args):
    # p is bounded before the primality test, which trial-divides it, and
    # q before it is formed: it is printed in full, and any p >= 3 passes
    # 4300 digits, the most Python prints by default, by n = 9014
    if args.p > SWEEP_MAX:
        raise ValueError(f"p = {args.p} is above 2**20, the largest field order")
    if args.p == 2 or not _is_prime(args.p):
        raise ValueError(f"p must be an odd prime, got {args.p}")
    if args.n < 1:
        raise ValueError(f"extension degree must be >= 1, got {args.n}")
    if args.n > 9013 or (q := args.p**args.n) >= _MAX_PRINTED_Q:
        raise ValueError(f"q = {args.p}**{args.n} has more than 4300 digits")
    hit = realizable_set(args.p, q)
    missing = sorted(set(range(1, args.p)) - hit)
    verdict = "complete" if not missing else "proper-subset"
    result = {
        "p": args.p,
        "n": args.n,
        "q": q,
        "realizable": sorted(hit),
        "missing": missing,
        "verdict": verdict,
    }
    return result, lambda: [
        f"classes over F_{q} allowed by the trace interval: {sorted(hit)}",
        f"missing: {missing}" if missing else "missing: none",
        f"verdict: {verdict}",
    ], 0


def _cmd_search(args):
    ctx = make_field(args.p, args.n)
    h = args.h
    curve = find_curve_with_class(ctx, h,
                                  use_trace_shortcut=not args.no_shortcut)
    if curve is None:
        result = {**_field_header(ctx), "h": h, "realizable": False, "witness": None}
        return result, lambda: _field_lines(ctx) + [
            f"class {h}: not realizable over F_{ctx.q}",
            "no admissible trace exists in the open interval (-2*sqrt(q), 2*sqrt(q))"
            if not args.no_shortcut else
            "exhausted every curve without a hit",
        ], 0
    witness = describe_witness(curve, h)
    result = {**_field_header(ctx), "h": h, "realizable": True,
              "witness": witness.to_dict()}
    return result, lambda: _field_lines(ctx) + [
        f"class {h}: realizable over F_{ctx.q}",
        f"witness: {curve!r}",
        f"points: {witness.count}   beta: {witness.beta}   "
        f"class exp: {witness.class_exp}   phi: {witness.phi}",
    ], 0


def _cmd_verify(args):
    ps = _parse_range(args.p, "prime")
    ns = _parse_range(args.n, "degree")
    fields = [(p, n) for p in ps for n in ns]
    for p, n in fields:  # the whole range passes the size guard before a suite runs
        _check_size(p, n)
    results = [run_suite(args.suite, p, n) for p, n in fields]
    ok = all(r.ok for r in results)
    result = {"suites": [r.to_dict() for r in results], "ok": ok}
    return result, lambda: (
        [r.summary_line() for r in results]
        + [f"  FAIL {failure}" for r in results for failure in r.failures]), 0 if ok else 1


def _cmd_ptorsion(args):
    ctx = make_field(args.p, args.n)
    curve = _curve_from_args(ctx, args)
    desc = ptorsion_description(curve)
    if desc.supersingular:
        result = {**_field_header(ctx), "supersingular": True, "label": "M2",
                  "class_exp": None, "hasse": None, "j": None,
                  "etale_degrees": None, "j_p_root": None}
        return result, lambda: _field_lines(ctx) + [
            f"curve: {curve!r}",
            "supersingular: E[p] is the non-split self-dual thickening M2",
        ], 0
    result = {
        **_field_header(ctx),
        "supersingular": False,
        "label": desc.label,
        "class_exp": desc.hasse_class.exp,
        "hasse": _elt_json(desc.hasse),
        "j": _elt_json(desc.j),
        "etale_degrees": list(desc.etale_degrees),
        "j_p_root": _elt_json(desc.j_p_root),
    }
    return result, lambda: _field_lines(ctx) + [
        f"curve: {curve!r}",
        f"ordinary: multiplicative part twisted by class exp {desc.hasse_class.exp}",
        f"etale part: field factors of degrees {list(desc.etale_degrees)}",
        f"j: {desc.j}   p-th root of j: {desc.j_p_root}",
    ], 0


# -- the grammar ---------------------------------------------------------
# each option is its flag and the keywords add_argument takes; build_parser
# feeds them to argparse, and _read reads a well-formed argv off them.  The
# parsed options, less command, json and out, are the envelope's params

_FIELD = (
    ("-p", dict(type=int, required=True, help="odd prime characteristic")),
    ("-n", dict(type=int, default=1, help="extension degree (default %(default)s)")),
)
_CURVE = (
    ("-a2", dict(default=None, metavar="C",
                 help="a2 coefficients c0,c1,... (characteristic 3 only)")),
    ("-a4", dict(required=True, metavar="C", help="a4 coefficients c0,c1,...")),
    ("-a6", dict(required=True, metavar="C", help="a6 coefficients c0,c1,...")),
)
_OUTPUT = (
    ("--json", dict(action="store_true", help="emit one stable machine-readable envelope")),
    ("--out", dict(metavar="FILE", default=None,
                   help="write the report to FILE instead of stdout")),
)

# per subcommand: its handler, its add_parser keywords and its options
GRAMMAR = {
    "hasse": (_cmd_hasse, dict(help="invariants of one curve"), _FIELD + _CURVE + _OUTPUT),
    "realizable": (_cmd_realizable, dict(help="classes the trace interval allows"),
                   _FIELD + _OUTPUT),
    "search": (_cmd_search, dict(add_help=False, help="first witness curve for one class"), (
        ("--help", dict(action="help", help="show this help and exit")),
        *_FIELD,
        ("-h", dict(type=int, required=True, metavar="TARGET",
                    help="target class residue in 1..p-1")),
        ("--no-shortcut", dict(action="store_true",
                               help="sweep every curve instead of pruning by traces")),
        *_OUTPUT)),
    "verify": (_cmd_verify, dict(help="run an exhaustive identity suite"), (
        ("--suite", dict(required=True, choices=SUITE_NAMES)),
        ("-p", dict(required=True, help="prime, list 5,7,11 or range 3..23 (primes only)")),
        ("-n", dict(default="1", help="degree, list or range (default %(default)s)")),
        *_OUTPUT)),
    "ptorsion": (_cmd_ptorsion, dict(help="describe the p-torsion scheme"),
                 _FIELD + _CURVE + _OUTPUT),
}


def build_parser():
    import argparse  # only an argv the reader declines builds a parser

    parser = argparse.ArgumentParser(
        prog="hasseforms",
        description="Twisted forms of p-th roots of unity on elliptic curves "
                    "over small finite fields, by exhaustive enumeration.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command")
    for name, (_, settings, options) in GRAMMAR.items():
        sp = subs.add_parser(name, **settings)
        for flag, keywords in options:
            sp.add_argument(flag, **keywords)
    return parser


_COEFF_OPTIONS = tuple(flag for flag, _ in _CURVE)


def _joined(argv: list[str]) -> list[str]:
    # argparse before Python 3.13 takes a list such as "-1,2" for an option,
    # so "-a6 -1,2" is passed on as "-a6=-1,2", which it reads as the value
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _COEFF_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The attributes of the Namespace parse_args gives for a well-formed
    argv, in a SimpleNamespace: a subcommand of GRAMMAR, then each of its
    store and store_true options at most once, by its exact flag, a value
    apart from its option, not starting with "-", of the option's type and
    in its choices, and every required option.  The rest take their
    defaults as parse_args fills them in, under the dest argparse derives
    from the flag; no option names its own dest or has a string default
    that argparse would pass through its type, as the grammar audit test
    checks.  Any other argv gives None, and parse_args reads it, so help,
    version, abbreviations, "=" forms and errors keep argparse's bytes."""
    if not argv or argv[0] not in GRAMMAR:
        return None
    options = dict(GRAMMAR[argv[0]][2])
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = options.get(flag)
        if keywords is None or flag in given or keywords.get("action") == "help":
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value reads as an option
        if value[:1] == "-":
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, keywords in options.items():
        action = keywords.get("action")
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        elif action == "help":  # sets no attribute
            continue
        else:
            value = keywords.get("default", False if action == "store_true" else None)
        setattr(args, flag.lstrip("-").replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    argv = _joined(sys.argv[1:] if argv is None else list(argv))
    args = _read(argv)
    if args is None:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        if args.command is None:
            parser.print_help()
            return 2
    started = time.monotonic()
    try:
        result, lines, code = GRAMMAR[args.command][0](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if args.json:
        envelope = {
            "tool-version": __version__,
            "command": args.command,
            "params": {k: v for k, v in vars(args).items() if k not in ("command", "json", "out")},
            "result": result,
            "timing-ms": int((time.monotonic() - started) * 1000),
        }
        import json  # a text call writes no JSON; timing-ms leaves out the import

        text = json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = "\n".join(lines()) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def run() -> None:
    sys.exit(main())
