"""Curve sweeps, witness search, and the class census."""

import json
import logging
import time
from collections import Counter, defaultdict
from itertools import product
from math import gcd, isqrt

import pytest

from hasseforms import (
    InconsistencyError,
    admissible_traces,
    census,
    describe_witness,
    find_curve_with_class,
    hasse_invariant,
    iter_curves,
    make_field,
    point_count,
    realizable_set,
    search,
)
from hasseforms import curve as curve_module
from hasseforms import search as search_module
from hasseforms.curve import (
    WeierstrassCurve,
    _decode,
    _disc_row,
    _hasse_row,
    _row_hasse,
    discriminant_general,
)
from hasseforms.errors import NotPrimeError
from hasseforms.gf import _is_prime
from hasseforms.search import _iter_rows, _row_orbits
from test_audits import (all_rows, audit_tests, built_or_none, object_residue, row_counts,
                         seed_count)

# the ladders of the audit table that run here, tests/test_audits.py
globals().update(audit_tests("test_search"))


def test_admissible_traces_frozen():
    assert admissible_traces(361, 9) == {-29, -10, 9, 28}
    assert admissible_traces(19, 9) == frozenset()
    assert admissible_traces(19, 2) == {2}
    assert admissible_traces(5, 1) == {1, -4}


def test_admissible_traces_matches_interval_scan():
    for q, p in ((19, 19), (361, 19), (25, 5), (27, 3)):
        bound = isqrt(4 * q - 1)
        for h in range(1, p):
            brute = {b for b in range(-bound, bound + 1) if b and b % p == h % p}
            assert admissible_traces(q, h, p=p) == brute


# every prime to 211, two larger primes, and every prime power p^n <= 3^12
# with n >= 2 and p <= 101 (the squares of larger p cost seconds here)
TRACE_RESIDUE_FIELDS = (
    [(p, p) for p in range(3, 212) if _is_prime(p)] + [(4099, 4099), (65537, 65537)]
    + [(p**n, p) for p in range(3, 102) if _is_prime(p)
       for n in range(2, 13) if p**n <= 3**12])


def test_census_wanted_residues_match_admissible_traces():
    # the census's wanted set, realizable_set, against admissible_traces
    # per residue
    for q, p in TRACE_RESIDUE_FIELDS:
        assert realizable_set(p, q) == {h for h in range(1, p) if admissible_traces(q, h, p)}


def test_census_cross_check_catches_residue_outside_interval(monkeypatch):
    # 9 is no trace residue over F_19; a scan that reports it must be caught
    classified = search._classified

    def injected(ctx, *args):
        models = classified(ctx, *args)
        r2, r4, r6, _ = next(models)
        yield r2, r4, r6, 9
        yield from models

    monkeypatch.setattr(search, "_classified", injected)
    with pytest.raises(InconsistencyError, match="interval formula"):
        census(make_field(19))


def test_admissible_traces_rejects_divisible_residue():
    with pytest.raises(ValueError):
        admissible_traces(19, 19)
    with pytest.raises(ValueError):
        admissible_traces(361, 38, p=19)
    # q must be the order of a field of characteristic p, as for
    # realizable_set: 25 is no power of 3, and 12 no power of its p = 2
    with pytest.raises(ValueError, match="not a power"):
        admissible_traces(25, 1, 3)
    with pytest.raises(ValueError, match="not a power"):
        admissible_traces(12, 1)
    with pytest.raises(NotPrimeError):
        admissible_traces(81, 1, 9)


def test_iter_curves_counts_and_order():
    ctx5 = make_field(5)
    curves = list(iter_curves(ctx5))
    assert len(curves) == 20
    assert repr(curves[0]) == "WeierstrassCurve(y^2 = x^3 + 1 over F_5)"
    assert repr(curves[1]) == "WeierstrassCurve(y^2 = x^3 + 2 over F_5)"
    brute = sum(
        1
        for a4 in ctx5.iter_elements()
        for a6 in ctx5.iter_elements()
        if discriminant_general(ctx5.zero, a4, a6)
    )
    assert len(curves) == brute

    ctx3 = make_field(3)
    assert len(list(iter_curves(ctx3))) == 18  # a2 models included


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (3, 3), (5, 2), (13, 1)])
def test_iter_curves_matches_index_decode(p, n):
    # the row-major sweep yields the decode of every rank triple, in lex
    # order; it is the decode of range(q) without the at most two
    # singular a6 ranks _iter_rows yields per row, which are singular, so
    # every row that _iter_rows yields holds a nonsingular model
    ctx = make_field(p, n)
    decoded = [c for r2, r4 in all_rows(ctx) for r6 in range(ctx.q)
               if (c := built_or_none(ctx, r2, r4, r6))]
    rows = list(_iter_rows(ctx))
    assert all(len(singular) <= 2 for _, _, _, singular in rows)
    assert all(built_or_none(ctx, r2, r4, r6) is None
               for r2, r4, _, singular in rows for r6 in singular)
    from_rows = [_decode(ctx, r2, r4, r6) for r2, r4, _, singular in rows
                 for r6 in range(ctx.q) if r6 not in singular]
    swept = list(iter_curves(ctx))
    assert swept == decoded == from_rows
    assert [c.discriminant for c in swept] == [c.discriminant for c in decoded]


def test_iter_curves_tabulates_the_discriminant_once_per_row(monkeypatch):
    # one _disc_row per (a2, a4) row, none per model: 729 rows over F_3^3
    calls = []

    def counted(ctx, r2, r4):
        calls.append((r2, r4))
        return _disc_row(ctx, r2, r4)

    monkeypatch.setattr(search_module, "_disc_row", counted)
    monkeypatch.setattr(curve_module, "_disc_row", counted)
    ctx = make_field(3, 3)
    assert len(list(iter_curves(ctx))) == 18954
    assert len(calls) == len(set(calls)) == 27 * 27


def test_find_curve_with_class_frozen():
    ctx = make_field(5)
    w1 = find_curve_with_class(ctx, 1)
    assert repr(w1) == "WeierstrassCurve(y^2 = x^3 + 3*x over F_5)"
    w2 = find_curve_with_class(ctx, 2)
    assert repr(w2) == "WeierstrassCurve(y^2 = x^3 + x over F_5)"


def test_find_curve_with_class_missing_residues():
    ctx = make_field(19)
    assert find_curve_with_class(ctx, 9) is None
    assert find_curve_with_class(ctx, 9, use_trace_shortcut=False) is None
    for h in (1, 5, 18):
        fast = find_curve_with_class(ctx, h)
        slow = find_curve_with_class(ctx, h, use_trace_shortcut=False)
        assert repr(fast) == repr(slow)


def test_find_curve_with_class_validates_residue():
    ctx = make_field(5)
    for bad in (0, 5, -1, 7):
        with pytest.raises(ValueError):
            find_curve_with_class(ctx, bad)


def test_describe_witness_roundtrip():
    ctx = make_field(5)
    e = WeierstrassCurve(ctx, ctx(1), ctx(1))
    record = describe_witness(e, 2)
    assert record.to_dict() == {
        "a2": [0], "a4": [1], "a6": [1],
        "count": 9, "beta": -3, "class_exp": 1, "phi": 2,
    }


def test_describe_witness_rejects_mismatch():
    ctx = make_field(5)
    e = WeierstrassCurve(ctx, ctx(1), ctx(1))  # class residue 2
    with pytest.raises(InconsistencyError):
        describe_witness(e, 1)
    ss = WeierstrassCurve(ctx, ctx(0), ctx(1))
    with pytest.raises(InconsistencyError):
        describe_witness(ss, 1)
    # the census hands its row check a count from the row product: 8 gives
    # beta = -2, residue 3; 14 gives beta = -8, residue 2 but beta^2 > 4q
    check = search_module._check_row
    assert check(ctx, 0, e.a4.rank, [(2, e.a6.rank)], [9]) == [describe_witness(e, 2)]
    for count in (8, 14):
        with pytest.raises(InconsistencyError, match="trace"):
            check(ctx, 0, e.a4.rank, [(2, e.a6.rank)], [count])


def test_describe_witness_raises_on_supersingular_and_trace_bound(monkeypatch):
    ctx = make_field(5)
    with pytest.raises(InconsistencyError, match="class 1 is singular"):
        search_module._check_row(ctx, 0, 0, [(1, 0)], [6])  # y^2 = x^3
    with pytest.raises(InconsistencyError, match="class 1 is supersingular"):
        describe_witness(WeierstrassCurve(ctx, ctx(0), ctx(1)), 1)
    # a point count of 14 keeps beta = -8 = 2 mod 5 but breaks beta^2 < 4q
    monkeypatch.setattr(search_module, "point_count",
                        lambda curve: curve_module.FrobeniusData(14, -8, True))
    with pytest.raises(InconsistencyError, match="class 2 breaks the trace"):
        describe_witness(WeierstrassCurve(ctx, ctx(1), ctx(1)), 2)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
def test_check_row_faults_over_extension_field(p, n):
    # over F_q the row check reads its discriminants through the rank
    # kernels, where over F_p it reads them on ints: each fault is named
    # on F_9 (a2 moves, the discriminant is linear in a6) and F_25 too
    ctx = make_field(p, n)
    q, check = ctx.q, search_module._check_row
    w = next(e.witness for e in census(ctx).entries if e.witness)
    r2, r4, r6 = (ctx._rank(c) for c in (w.a2, w.a4, w.a6))
    assert check(ctx, r2, r4, [(w.phi, r6)], [w.count]) == [w]
    # the first singular model with a6 != 0, and a2 != 0 over F_9
    s2, s4, s6 = next((a2, a4, a6) for a2, a4, _, singular in _iter_rows(ctx)
                      for a6 in singular if a6 and (a2 or p > 3))
    with pytest.raises(InconsistencyError, match="class 1 is singular"):
        check(ctx, s2, s4, [(1, s6)], [q + 1])
    # the first nonsingular model with A_p = 0
    z2, z4, z6 = next((a2, a4, a6) for a2, a4, _, singular in _iter_rows(ctx)
                      for a6, a in enumerate(_row_hasse(ctx, a2, a4))
                      if not a and a6 not in singular)
    with pytest.raises(InconsistencyError, match="class 1 is supersingular"):
        check(ctx, z2, z4, [(1, z6)], [q + 1])
    other = next(h for h in range(1, p) if h != w.phi)
    with pytest.raises(InconsistencyError,
                       match=f"class {other} has residue {w.phi} by phi"):
        check(ctx, r2, r4, [(other, r6)], [w.count])
    # beta off the class, and beta = h mod p past the bound beta^2 < 4q
    for beta in (w.beta + 1, w.phi + 2 * p * isqrt(q)):
        with pytest.raises(InconsistencyError, match=f"trace check: beta = {beta}"):
            check(ctx, r2, r4, [(w.phi, r6)], [q + 1 - beta])


def test_census_complete_field():
    report = census(make_field(13))
    assert report.verdict == "complete"
    assert report.missing == ()
    assert report.realizable == tuple(range(1, 13))
    assert [e.residue for e in report.entries] == list(range(1, 13))
    for entry in report.entries:
        assert entry.realizable and entry.witness is not None
        assert entry.witness.phi == entry.residue
        assert entry.witness.beta % 13 == entry.residue


def test_census_gap_field():
    report = census(make_field(19))
    assert report.verdict == "proper-subset"
    assert report.missing == (9, 10)
    for entry in report.entries:
        assert entry.realizable == (entry.residue not in (9, 10))
    assert set(report.realizable) == realizable_set(19)


def test_census_extension_field():
    report = census(make_field(3, 2))
    assert report.verdict == "complete"
    assert report.q == 9 and report.modulus == (1, 0, 1)
    payload = json.dumps(report.to_dict())
    assert json.loads(payload)["verdict"] == "complete"


def test_census_logs_one_table_build_per_context(caplog):
    plain = {(p, n): json.dumps(census(make_field(p, n)).to_dict(), sort_keys=True)
             for p, n in ((3, 2), (5, 2), (7, 2))}
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        for (p, n), want in plain.items():
            ctx = make_field(p, n)
            for _ in range(2):  # the second census reuses the tables
                report = census(ctx)
                assert json.dumps(report.to_dict(), sort_keys=True) == want
    records = [r for r in caplog.records if r.name == "hasseforms"]
    # each census adds its own record, checked in test_census_logs_one_record
    tables = [r for r in records if not r.getMessage().startswith("census over")]
    assert len(records) == len(tables) + 2 * len(plain)
    assert [r.levelno for r in tables] == [logging.DEBUG] * len(plain)
    for record, (p, n) in zip(tables, plain):
        text = record.getMessage()
        assert f"F_{p}^{n} (q = {p**n})" in text and text.endswith(" s")


def test_census_matches_per_class_search():
    ctx = make_field(11)
    report = census(ctx)
    for entry in report.entries:
        expected = find_curve_with_class(ctx, entry.residue)
        w = entry.witness
        # the witness records coefficients as little-endian tuples
        assert (ctx(tuple(w.a4)), ctx(tuple(w.a6))) == (expected.a4, expected.a6)


@pytest.mark.parametrize("p", [3, 7, 19, 23])
def test_census_consistency_against_curve_sweep(p):
    # independent route: collect beta residues from a full sweep and
    # compare with what the census reports as realizable
    ctx = make_field(p)
    seen = set()
    for curve in iter_curves(ctx):
        if hasse_invariant(curve):
            seen.add(point_count(curve).beta % p)
    report = census(ctx)
    assert set(report.realizable) == seen
    assert seen == realizable_set(p)


def test_char3_census_within_budget():
    # A_3 = a2: one model per orbit row is classified, slab 0's cosets
    # of fourth powers included
    t0 = time.perf_counter()
    report = census(make_field(3, 6))
    elapsed = time.perf_counter() - t0
    assert report.verdict == "complete"
    assert elapsed < 2.0, f"census over F_3^6 took {elapsed:.2f}s, budget 2s"


def test_char5_census_within_budget():
    # A_5 = 2 a4: one model per a4 row is classified
    t0 = time.perf_counter()
    report = census(make_field(5, 6))
    elapsed = time.perf_counter() - t0
    assert report.verdict == "complete"
    assert elapsed < 2.0, f"census over F_5^6 took {elapsed:.2f}s, budget 2s"


@pytest.mark.parametrize("p,n", [(p, 1) for p in range(5, 102) if _is_prime(p)]
                         + [(5, 2), (7, 2)])
def test_coset_rows_share_residues(p, n):
    # (a4, a6) and (u^4 a4, u^6 a6) are isomorphic, so the scan reads only
    # the first row of each coset of fourth powers; on the object route the
    # rows a4 and g^4 a4 have one residue multiset, and g^4 generates the
    # fourth powers
    ctx = make_field(p, n)
    rows = defaultdict(Counter)
    for curve in iter_curves(ctx):
        rows[curve.a4.rank][object_residue(curve)] += 1
    u4 = ctx.generator ** 4
    for a4 in ctx.iter_elements():
        assert rows[(u4 * a4).rank] == rows[a4.rank]


# the fields of the benchmark's suites ladder
SUITES_LADDER = [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)] + [
    (3, 2), (5, 2), (7, 2), (3, 3)]


def _orbits_by_union(ctx):
    # the (a2 rank, a4 rank, size) of the first row of each orbit of the
    # rows under x -> g^2 x, (a2, a4) -> (g^2 a2, g^4 a4), and in
    # characteristic 3 under x -> x + r, (a2, a4) -> (a2, a4 - a2 r) for r
    # in 1, g, ..., g^(n-1), which span F_q over F_p: union-find on
    # elements, orbits with no nonsingular model dropped
    q, g = ctx.q, ctx.generator
    shifts = [g ** i for i in range(ctx.n)] if ctx.p == 3 else []
    parent = {}

    def root(row):
        while parent.get(row, row) != row:
            row = parent[row]
        return row

    for a2, a4 in product([ctx.from_rank(r) for r in range(q if ctx.p == 3 else 1)],
                          list(ctx.iter_elements())):
        for b2, b4 in [(g * g * a2, g ** 4 * a4)] + [(a2, a4 - a2 * r) for r in shifts]:
            x, y = root((a2.rank, a4.rank)), root((b2.rank, b4.rank))
            parent[max(x, y)] = min(x, y)
    orbits = defaultdict(list)
    for row in product(range(q if ctx.p == 3 else 1), range(q)):
        orbits[root(row)].append(row)
    nonsingular = {(r2, r4) for r2, r4, _, _ in _iter_rows(ctx)}
    return sorted((*first, len(rows)) for first, rows in orbits.items()
                  if nonsingular & set(rows))


@pytest.mark.parametrize("p,n", SUITES_LADDER + [(3, 4), (5, 3)])
def test_row_orbits_are_the_orbits_of_the_rows(p, n):
    # one row per orbit, its first in enumeration order, weighed by the
    # orbit's size: at most 5 rows for p >= 5 and 6 for p = 3
    ctx = make_field(p, n)
    orbits = _row_orbits(ctx)
    assert orbits == _orbits_by_union(ctx)
    assert len(orbits) == (gcd(4, ctx.q - 1) + (2 if p == 3 else 1))


def _row_stats(ctx, r2, r4, singular):
    # (class exponent or -1, trace beta) of the row's models at every a6
    # but the singular ones: A_p off _row_hasse, #E off the row product
    log, pm1 = ctx._log_tables[1], ctx.p - 1
    hasse, counts = _row_hasse(ctx, r2, r4), row_counts(ctx, r2, r4)
    return Counter((log[hasse[r6]] % pm1 if hasse[r6] else -1, ctx.q + 1 - counts[r6])
                   for r6 in range(ctx.q) if r6 not in singular)


@pytest.mark.parametrize("p,n", SUITES_LADDER + [(3, 4), (5, 3)])
def test_row_orbits_weigh_up_to_every_row(p, n):
    # the orbit rows, each counted weight times, give the (class, trace)
    # counts of every row _iter_rows yields, and the weights add up to them
    ctx = make_field(p, n)
    weights = {(r2, r4): weight for r2, r4, weight in _row_orbits(ctx)}
    full, weighted, rows = Counter(), Counter(), list(_iter_rows(ctx))
    for r2, r4, _, singular in rows:
        stats, weight = _row_stats(ctx, r2, r4, singular), weights.get((r2, r4), 0)
        full.update(stats)
        weighted.update({key: weight * m for key, m in stats.items()})
    assert weighted == full
    assert sum(weights.values()) == len(rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_char3_rows_of_one_orbit_share_residues_and_counts(n):
    # in characteristic 3, x -> x + r sends (a2, a4) to (a2, a4 - a2 r) and
    # x -> u^2 x to (u^2 a2, u^4 a4): on the object route every row of
    # slab a2 != 0 and of slab u^2 a2 holds the (residue, #E) multiset of
    # row (a2, 0), and on slab a2 = 0 rows a4 and u^4 a4 hold one multiset
    ctx = make_field(3, n)
    rows = defaultdict(Counter)
    for curve in iter_curves(ctx):
        rows[curve.a2.rank, curve.a4.rank][object_residue(curve), point_count(curve).count] += 1
    u2 = ctx.generator ** 2
    for a2, a4 in product(ctx.iter_elements(), repeat=2):
        if a2:
            assert rows[a2.rank, a4.rank] == rows[a2.rank, 0] == rows[(u2 * a2).rank, 0]
        elif a4:
            assert rows[0, (u2 * u2 * a4).rank] == rows[0, a4.rank]


def _count_constructions(monkeypatch):
    built = []
    init = WeierstrassCurve.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeierstrassCurve, "__init__", counted)
    return built


@pytest.mark.parametrize("p,n", [(211, 1), (31, 2)])
def test_census_builds_only_witnesses(monkeypatch, p, n):
    # the census checks its witnesses on ranks and builds no curve; the
    # single-class search builds its one winner
    ctx = make_field(p, n)
    built = _count_constructions(monkeypatch)
    report = census(ctx)
    assert len(report.realizable) > 0 and built == []
    assert find_curve_with_class(ctx, 2) is not None
    assert len(built) == 1


@pytest.mark.parametrize("p,n", [(211, 1), (31, 2)])
def test_census_builds_one_point_count_row_per_witness_row(monkeypatch, p, n):
    # witnesses are checked in index order, row by row.  A row the scan
    # reads by A_p (every row over F_q, and row a4 = 0 over F_211, where
    # A_p = c a6^35 has one coefficient) builds no row product, and its
    # witnesses share the context's point-count row slot through _count_at;
    # over F_p the scan builds one _row_hist row and one row product per
    # row of several coefficients, the witnesses there read their counts
    # off those products, and no point count or second product is made
    products = []

    def counted(ctx, r2, r4):
        products.append((r2, r4))
        return real(ctx, r2, r4)

    def no_point_count(curve):
        raise AssertionError(f"point_count called on {curve!r}")

    real = search_module._row_counts
    monkeypatch.setattr(search_module, "_row_counts", counted)
    if n == 1:
        monkeypatch.setattr(search_module, "point_count", no_point_count)
    ctx = make_field(p, n)
    report = census(ctx)
    rows = {(ctx(e.witness.a2).rank, ctx(e.witness.a4).rank)
            for e in report.entries if e.witness}
    assert len(rows) < len(report.realizable)
    misses = ctx._builds["_row_hist"]
    if n == 1:
        assert _hasse_row(ctx, 0, 0)[0] == 35 and len(_hasse_row(ctx, 0, 0)[1]) == 1
        assert (0, 0) in rows and (0, 0) not in products
        assert all(len(_hasse_row(ctx, *row)[1]) > 1 for row in products)
        assert rows - {(0, 0)} <= set(products) and len(products) == len(set(products))
        assert misses == len(products) + 1
    else:
        assert misses == len(rows)
        assert products == []


@pytest.mark.parametrize("p,coset", [(19, {1, 7, 8, 11, 12, 18}), (13, {2, 5, 6, 7, 8, 11})])
def test_single_class_search_answers_row_a4_zero_with_no_row_product(monkeypatch, p, coset):
    # row a4 = 0 comes first and has A_p = c a6^k, one coefficient, so the
    # scan reads it by A_p and answers every class of its coset there,
    # before any row of several coefficients takes a row product; the
    # exhaustive route gives the same curves
    ctx = make_field(p)
    assert len(_hasse_row(ctx, 0, 0)[1]) == 1
    assert {object_residue(c) for c in iter_curves(ctx) if not c.a4} - {0} == coset

    def no_product(ctx, r2, r4):
        raise AssertionError(f"row product built for row {(r2, r4)}")

    monkeypatch.setattr(search_module, "_row_counts", no_product)
    for h in coset:
        found = find_curve_with_class(ctx, h)
        assert found is not None and not found.a4
        assert found == find_curve_with_class(ctx, h, use_trace_shortcut=False)


def _witness_hit(ctx, h):
    # (a2 rank, a4 rank, a6 rank) of the census witness of class h
    w = census(ctx).entries[h - 1].witness
    return ctx(w.a2).rank, ctx(w.a4).rank, ctx(w.a6).rank


def test_census_catches_a_corrupted_count_over_prime_field(monkeypatch):
    # one count slot of a witness row off by p q: the scan's residue
    # (1 - #E) mod p is unchanged, so the same witness wins, but its trace
    # breaks the bound
    ctx, h = make_field(101), 7
    seed_count(monkeypatch, search_module, _witness_hit(ctx, h), lambda c: c + ctx.p * ctx.q)
    with pytest.raises(InconsistencyError, match=f"class {h} breaks the trace"):
        census(ctx)


def test_census_catches_a_corrupted_hasse_invariant_over_extension(monkeypatch):
    # A_p of one witness times g in the witness check only: its class moves
    # by one, so phi no longer gives the residue the scan found
    ctx, h = make_field(31, 2), 5
    r2, r4, r6 = _witness_hit(ctx, h)
    hasse_at, row = search_module._hasse_at, search_module._hasse_row(ctx, r2, r4)
    g = ctx.generator.rank

    def corrupted(ctx, k, coeffs, r6s):
        out = hasse_at(ctx, k, coeffs, r6s)
        if (k, coeffs) == row and len(r6s) < 64 and r6 in r6s:
            i = list(r6s).index(r6)
            out[i] = ctx._mul(out[i], g)
        return out

    monkeypatch.setattr(search_module, "_hasse_at", corrupted)
    with pytest.raises(InconsistencyError, match=f"class {h} has residue"):
        census(ctx)


def test_census_logs_one_record_and_keeps_output(caplog):
    fields = [(19, 1), (211, 1), (3, 4), (31, 2)]

    def reports():
        return [json.dumps(census(make_field(p, n)).to_dict(), sort_keys=True)
                for p, n in fields]

    plain = reports()
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        assert reports() == plain
    records = [r for r in caplog.records
               if r.name == "hasseforms" and r.getMessage().startswith("census over")]
    assert [r.levelno for r in records] == [logging.DEBUG] * len(fields)
    for record, (p, n) in zip(records, fields):
        text = record.getMessage()
        assert text.startswith(f"census over {make_field(p, n)}: ")
        for part in ("models tested", "singular skipped", "rows tabulated",
                     "rows skipped", "rows stopped at their coset", "witness rows",
                     "scan ", "witness validation "):
            assert part in text
        assert text.endswith(" s")


@pytest.mark.parametrize("p,n,k,models", [(19, 2, 3, 89), (31, 2, 5, 243)])
def test_census_stops_row_a4_zero_at_its_coset(caplog, p, n, k, models):
    # on row a4 = 0, A_p = c a6^k with k = 3 over F_19^2 and k = 5 over
    # F_31^2, so its classes are one coset of 6 in F_p^*: the row stops at
    # the model that hits the sixth, where reading it through tested 424
    # and 1,161 models; the census then finds the rest on row a4 = 1
    ctx = make_field(p, n)
    assert _hasse_row(ctx, 0, 0)[0] == k and len(_hasse_row(ctx, 0, 0)[1]) == 1
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        report = census(ctx)
    assert report.verdict == "complete"
    text = next(r.getMessage() for r in caplog.records
                if r.getMessage().startswith("census over"))
    assert f": {models} models tested, " in text
    assert ", 2 rows tabulated, 0 rows skipped, 1 rows stopped at their coset, " in text


def test_census_record_counts_the_char3_orbit_rows(caplog):
    # over F_3^4 the scan reads slab 0's four coset rows, then rows (1, 0)
    # and (4, 0) of the two square classes of a2, one model each: rows of
    # constant A_3, of which the first five stop there and the census
    # ends on the sixth; the rows (a2, 0) drop a6 = 0, and 4 * 81 + 0 - 5
    # rows before row (4, 0) were not read
    ctx = make_field(3, 4)
    assert [row[:2] for row in _row_orbits(ctx)] == [
        (0, 1), (0, 3), (0, 4), (0, 12), (1, 0), (4, 0)]
    with caplog.at_level(logging.DEBUG, logger="hasseforms"):
        census(ctx)
    text = next(r.getMessage() for r in caplog.records
                if r.getMessage().startswith("census over"))
    assert (": 6 models tested, 2 singular skipped, 6 rows tabulated, 319 rows skipped, "
            "5 rows stopped at their coset, ") in text


def test_sweeps_guarded_on_oversized_fields():
    from hasseforms.errors import FieldTooLargeError

    # the oversized field is refused at construction, so no sweep can
    # start over it
    with pytest.raises(FieldTooLargeError):
        make_field(1048583)

