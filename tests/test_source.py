"""Source hygiene: every package module uses the names it imports, the
package exports exactly its modules' __all__ lists, every module-level
private name is read somewhere in the package, no
module-level functools cache takes a context, every cache has a path
that reads it more often than it builds it, every absolute import is of
the standard library, and the CLI loads neither dataclasses nor inspect,
nor logging, argparse or json until a call uses them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hasseforms
from hasseforms import census, iter_curves, make_field, point_count, run_suite

MODULES = sorted(Path(hasseforms.__file__).parent.glob("*.py"))


def _unused_imports(source, init=False):
    # the names a module binds by import and neither reads nor lists in
    # __all__; `from __future__` imports bind nothing.  `from .m import *`
    # binds "*m", which only an `*m.__all__` entry of the __all__ of a
    # package's __init__ (init) reads: anywhere else it is reported
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or (f"*{node.module}" if a.name == "*" else a.name)
                            for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            for entry in node.value.elts:
                star = getattr(entry, "value", None)
                if (init and isinstance(entry, ast.Starred) and isinstance(star, ast.Attribute)
                        and star.attr == "__all__" and isinstance(star.value, ast.Name)):
                    used.add(f"*{star.value.id}")
                else:  # a string, or ValueError
                    used.add(ast.literal_eval(entry))
    return sorted(imported - used)


def test_unused_import_guard_sees_reads_and_exports():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import gcd, isqrt as root\nfrom .gf import FieldCtx, make_field\n"
              "__all__ = ['make_field']\n\ndef f(n) -> FieldCtx:\n    return os.sep, root(n)\n")
    assert _unused_imports(source) == ["gcd", "sys"]
    # a star import outside __init__.py, and one __init__.py does not
    # republish, are reported, as is an unused explicit import beside them
    source = "from .gf import *\nfrom .poly import *\nfrom .curve import twist\n"
    assert _unused_imports(source + "__all__ = ['x']\n") == ["*gf", "*poly", "twist"]
    assert _unused_imports(source + "__all__ = [*gf.__all__]\n", init=True) == [
        "*poly", "twist"]
    with pytest.raises(ValueError):
        _unused_imports(source + "__all__ = [*gf.__all__]\n")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_modules_use_what_they_import(path):
    assert _unused_imports(path.read_text(), init=path.name == "__init__.py") == []


# the names the package exported before each module's __all__ became the
# one list of its public names; every one stays exported
_EXPORTED = """__version__ FieldCtx FieldElement make_field norm_to_prime
    quadratic_character primitive_element discrete_log Polynomial Factorization factor
    degree_pattern WeierstrassCurve FrobeniusData point_count hasse_invariant is_ordinary
    twist UnitClass unit_class_of enumerate_classes phi realizable_set twist_class_action
    FrobeniusKernelClass kernel_of_frobenius PTorsionDescription ptorsion_description
    admissible_traces iter_curves find_curve_with_class describe_witness WitnessRecord
    RealizabilityReport census SuiteResult SUITE_NAMES run_suite NotPrimeError
    EvenCharacteristicError FieldTooLargeError CtxMismatchError ZeroPolynomialError
    SingularModelError ZeroElementError ZeroTwistParameterError WrongJInvariantError
    BadCongruenceError InconsistencyError""".split()


def test_package_exports_each_modules_all():
    from hasseforms import curve, errors, forms, gf, poly, search, verify

    modules = (gf, poly, curve, forms, search, verify, errors)
    names = hasseforms.__all__
    assert len(_EXPORTED) == 49 and len(set(names)) == len(names)
    assert names == ["__version__", *(name for m in modules for name in m.__all__)]
    assert set(_EXPORTED) <= set(names)
    for m in modules:
        for name in m.__all__:
            assert getattr(hasseforms, name) is vars(m)[name], (m.__name__, name)


def _unread_private_names(sources):
    # module-level private defs, classes and assignments, as
    # "module.name", that no module reads: by name, as an attribute or
    # by a from-import
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [f"{module}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(name for name in defined if name.partition(".")[2] not in read)


def _cached_functions(source, decorators):
    # module-level functions that one of decorators decorates, bare,
    # called or through the module
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if (dec.attr if isinstance(dec, ast.Attribute)
                        else getattr(dec, "id", None)) in decorators:
                    yield node
                    break


def _ctx_keyed_caches(source):
    # module-level functions with a ctx parameter that functools.cache or
    # lru_cache decorates: such a memo would keep its last context, and
    # every table on it, alive
    return [node.name for node in _cached_functions(source, ("cache", "lru_cache"))
            if any(a.arg == "ctx" for a in
                   node.args.posonlyargs + node.args.args + node.args.kwonlyargs)]


def _non_stdlib_imports(source):
    # the top-level packages of the absolute imports of a module
    tops = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            tops.add(node.module.split(".")[0])
    return sorted(tops - sys.stdlib_module_names)


def test_private_name_guard_sees_reads_across_modules():
    sources = {
        "a": ("__all__ = []\n_used = 1\n_unused, _pair = 2, 3\n_typed: int = 4\n"
              "def _f():\n    return _used\nclass _C:\n    pass\n_h = 5\n"),
        "b": "from .a import _f\nfrom . import a\nx = a._h\ndef _g():\n    pass\n",
    }
    assert _unread_private_names(sources) == [
        "a._C", "a._pair", "a._typed", "a._unused", "b._g"]


def test_package_reads_its_private_names():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _unread_private_names(sources) == []


def test_ctx_cache_guard_sees_module_level_decorators():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@lru_cache(maxsize=1)\ndef _a(ctx, r):\n    pass\n"
              "@cache\ndef _b(p):\n    pass\n"
              "@functools.cache\ndef _c(ctx):\n    pass\n"
              "@_ctx_memo\ndef _d(ctx, r):\n    pass\n"
              "@functools.lru_cache\ndef _e(x, *, ctx):\n    pass\n"
              "class K:\n    @cache\n    def m(self, ctx):\n        pass\n")
    assert _ctx_keyed_caches(source) == ["_a", "_c", "_e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_level_cache_holds_a_context(path):
    assert _ctx_keyed_caches(path.read_text()) == []


# each cache of the package and the path that re-reads it, by the rule of
# gf._ctx_memo's docstring: a builder memoised on the context reads the
# same key twice on one context there, and a module-level functools cache
# is re-read across the calls it serves
_REREADERS = {
    # the census scan and each witness check read the residues by class
    "_class_residues": lambda: census(make_field(5, 2)),
    # point_count counts the models of a row off one histogram, each
    # count against the one rotated mask of the context
    "_row_hist": lambda: [point_count(c) for c in iter_curves(make_field(7))],
    "_zech_mask": lambda: [point_count(c) for c in iter_curves(make_field(7))],
    # the q rows of a char-3 a2 slab share the logs of (x + a2) x
    "_x_logs": lambda: run_suite("bridge", 3, 2),
    # hasse_invariant re-reads the row for each model of it
    "_hasse_row": lambda: run_suite("closed-forms", 5, 2),
    # the rows of an a2 slab share one closed form, A_3 = a2
    "_hasse_table": lambda: run_suite("bridge", 3, 2),
    # the row product of every row reads the Y operand of the context
    "_zech_operand": lambda: run_suite("bridge", 7),
    # the row callers over the fields of one characteristic share the terms
    "_hasse_terms": lambda: [census(make_field(7, n)) for n in (1, 2)],
    # the twists suite takes a discrete log over F_p per twist of its plan
    "_pohlig_hellman_plan": lambda: run_suite("twists", 7),
}


def _reads_and_builds(monkeypatch, name, path):
    # (reads, builds) of the cached builder name over one run of path.  A
    # functools cache counts both itself; a _ctx_memo builder is read
    # through every module's binding, each wrapped to count, and built as
    # often as the contexts it reads count (FieldCtx._builds)
    modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "hasseforms"]
    builder = next(vars(m)[name] for m in modules if name in vars(m))
    if hasattr(builder, "cache_info"):
        builder.cache_clear()
        path()
        info = builder.cache_info()
        return info.hits + info.misses, info.misses
    reads, before = 0, {}

    def counted(ctx, *key):
        nonlocal reads
        reads += 1
        before.setdefault(id(ctx), (ctx, ctx._builds[name]))
        return builder(ctx, *key)
    for m in modules:
        if vars(m).get(name) is builder:
            monkeypatch.setattr(m, name, counted)
    path()
    return reads, sum(ctx._builds[name] - n for ctx, n in before.values())


def test_cache_guard_sees_every_decorator():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@lru_cache(maxsize=1)\ndef _a(p):\n    pass\n"
              "@functools.cache\ndef _b(p):\n    pass\n"
              "@_ctx_memo\ndef _c(ctx, r):\n    pass\n"
              "@staticmethod\ndef _d(ctx):\n    pass\n"
              "class K:\n    @cache\n    def m(self, p):\n        pass\n")
    assert [node.name for node in _cached_functions(
        source, ("cache", "lru_cache", "_ctx_memo"))] == ["_a", "_b", "_c"]


def test_every_cache_names_a_rereader():
    found = {node.name for path in MODULES
             for node in _cached_functions(path.read_text(), ("cache", "lru_cache", "_ctx_memo"))}
    assert found == set(_REREADERS)


@pytest.mark.parametrize("name", sorted(_REREADERS))
def test_rereader_reads_the_cache_more_often_than_it_builds_it(monkeypatch, name):
    reads, builds = _reads_and_builds(monkeypatch, name, _REREADERS[name])
    assert 0 < builds < reads, (reads, builds)


# the private kernels the audit table, tests/test_audits.py, reads through
# its adapters.  Elsewhere only a unit test of a kernel itself names one: it
# times, logs or skips a table build, counts memo slots and builds, or pins
# the closed form, the Y operand's packing, a check's faults or errors, the
# orbit rule, the growth of the Frobenius table, the rings factor builds or
# the powers of a point
_AUDIT_KERNELS = set("""_log_tables _hasse_row _row_hasse _hasse_table _hasse_at _hasse_one
    _hasse_terms _row_counts _row_hist _log_hist _count_at _count_mestre _cyclic_mul _iter_rows
    _disc_at _disc_row _zech_y _zech_operand _zech_mask _x_logs _classified _check_row
    _builds _FIELD_TABLE _find_modulus _factor_int _generator_rank _power
    _mul_trunc _divmod _monic _gcd _derivative _Residues _reduction_table""".split())
_KERNEL_UNIT_TESTS = set("""
    test_acceptance.py::test_ac15_large_field_tables_within_budget
    test_curve.py::test_closed_form_has_one_term_exactly_for_p_up_to_11
    test_curve.py::test_zech_operand_matches_packed_slots
    test_curve.py::test_trace_names_the_model_it_rejects
    test_curve.py::test_power_of_a_point_matches_repeated_addition
    test_forms.py::test_single_curve_queries_over_fp_build_no_tables
    test_forms.py::test_classification_suite_builds_no_table_over_fp
    test_gf.py::test_table_build_logs_generator_and_walk
    test_gf.py::test_field_table_has_one_entry_per_admitted_extension
    test_gf.py::test_point_count_tabulates_each_row_once_in_norm_suite
    test_gf.py::test_pohlig_hellman_at_a_safe_prime
    test_gf.py::test_reading_a_generator_builds_no_tables
    test_poly.py::test_frobenius_table_grows_only_to_the_top_coefficient
    test_poly.py::test_factor_builds_one_reduction_table_per_modulus
    test_search.py::test_census_cross_check_catches_residue_outside_interval
    test_search.py::test_iter_curves_matches_index_decode
    test_search.py::test_iter_curves_tabulates_the_discriminant_once_per_row
    test_search.py::test_describe_witness_rejects_mismatch
    test_search.py::test_describe_witness_raises_on_supersingular_and_trace_bound
    test_search.py::test_check_row_faults_over_extension_field
    test_search.py::_orbits_by_union test_search.py::_row_stats
    test_search.py::test_row_orbits_weigh_up_to_every_row
    test_search.py::test_census_builds_one_point_count_row_per_witness_row
    test_search.py::test_single_class_search_answers_row_a4_zero_with_no_row_product
    test_search.py::test_census_catches_a_corrupted_hasse_invariant_over_extension
    test_search.py::test_census_stops_row_a4_zero_at_its_coset
    test_source.py::_REREADERS test_source.py::_reads_and_builds
    test_source.py::test_handler_attached_after_import_gets_every_record
    test_values.py::_ctx_with_tables test_values.py::test_value_types_round_trip
    test_values.py::_CHECKS
    test_verify.py::test_run_suite_logs_one_record_and_keeps_output""".split())


def _kernels_named(path):
    # {top-level name: the audit kernels it names as an identifier, an
    # attribute, an import or a string} of a test module, imports under
    # "<module>"
    owners = {}
    for node in ast.parse(path.read_text()).body:
        owner = getattr(node, "name", None) or next(
            (t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)), "<module>")
        owners[owner] = owners.get(owner, set()) | _AUDIT_KERNELS & {
            getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            or getattr(n, "value", None) for n in ast.walk(node)}
    return {owner: kernels for owner, kernels in owners.items() if kernels}


def test_audit_kernels_are_named_only_in_the_table():
    named = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        owners = _kernels_named(path) if path.name != "test_audits.py" else {}
        listed = set().union(*(k for o, k in owners.items()
                               if f"{path.name}::{o}" in _KERNEL_UNIT_TESTS))
        named |= {f"{path.name}::{o}" for o in owners if o != "<module>"}
        named |= {f"{path.name} imports {k}" for k in owners.get("<module>", set()) - listed}
    assert sorted(named - _KERNEL_UNIT_TESTS) == [] and sorted(_KERNEL_UNIT_TESTS - named) == []


def test_stdlib_guard_sees_absolute_imports_only():
    source = ("from __future__ import annotations\nimport os.path, numpy as np\n"
              "from collections import deque\nfrom . import gf\nfrom .gf import make_field\n"
              "from yaml.loader import SafeLoader\n")
    assert _non_stdlib_imports(source) == ["numpy", "yaml"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_modules_import_only_the_standard_library(path):
    assert _non_stdlib_imports(path.read_text()) == []


def _fresh_python(code, *args):
    # runs code in a fresh interpreter that imports the package from this tree
    src = str(Path(hasseforms.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the records are NamedTuples and one slotted class, so a CLI process
    # pays for neither dataclasses nor what it pulls in (inspect, ast,
    # dis); nor for logging, argparse or json, which only a call that
    # uses them imports.  Measured against the modules loaded before the
    # import, so a Python whose site loads them itself still passes
    code = ("import sys; before = set(sys.modules); import hasseforms.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'logging', 'argparse', 'json'} "
            "& (set(sys.modules) - before)))")
    assert _fresh_python(code).stdout.split() == []


# one CLI call; its last line on stderr names the watched modules the
# call added and those loaded before the import
_CALL_LOADS = """\
import sys
watched = {"logging", "argparse", "json"}
before = set(sys.modules)
from hasseforms import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
added = watched & (set(sys.modules) - before)
print(",".join(sorted(added)), ",".join(sorted(watched & before)), sep="|", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv,loads", [
    (["hasse", "-p", "653", "-a4", "310", "-a6", "290"], set()),
    (["hasse", "-p", "653", "-a4", "310", "-a6", "290", "--json"], {"json"}),
    (["hasse", "--help"], {"argparse"}),
], ids=["text", "json", "help"])
def test_cli_call_loads_only_what_it_uses(argv, loads):
    # a well-formed text call builds no parser, writes no JSON and has no
    # handler to log to; --json needs json, and --help argparse's parser
    proc = _fresh_python(_CALL_LOADS, *argv)
    added, preloaded = (set(filter(None, part.split(",")))
                        for part in proc.stderr.splitlines()[-1].split("|"))
    assert added == loads - preloaded


def test_handler_attached_after_import_gets_every_record():
    # the package never imports logging, yet a handler the program attaches
    # once it has imported logging itself gets the table-build, census and
    # run_suite records, each at its caller's logger.debug line; records
    # made before logging was imported are dropped
    code = """\
import os
import hasseforms
hasseforms.census(hasseforms.make_field(5))
import logging
records = []
handler = logging.Handler()
handler.emit = records.append
log = logging.getLogger("hasseforms")
log.addHandler(handler)
log.setLevel(logging.DEBUG)
hasseforms.census(hasseforms.make_field(7, 2))
hasseforms.run_suite("closed-forms", 5)
for r in records:
    print(r.name, r.funcName, os.path.basename(r.pathname), r.lineno,
          r.getMessage().split()[0], sep="|")
"""
    rows = [line.split("|") for line in _fresh_python(code).stdout.splitlines()]
    assert {name for name, *_ in rows} == {"hasseforms"}
    assert [(func, path, word) for _, func, path, _, word in rows] == [
        ("_log_tables", "gf.py", "built"), ("census", "search.py", "census"),
        ("_log_tables", "gf.py", "built"), ("run_suite", "verify.py", "suite")]
    package = Path(hasseforms.__file__).parent
    for _, _, path, lineno, _ in rows:
        line = (package / path).read_text().splitlines()[int(lineno) - 1]
        assert line.strip().startswith("logger.debug("), (path, lineno)
