"""End-to-end result gate.

Each numbered test pins one headline result at its stated tolerance and
wall-clock budget: classification counts, the order-32/144 minimality sweeps,
the bound formulas, the big constructions, and a final deterministic property
sweep that replays every witness the earlier criteria emitted.  Tests share
one process so catalog and embedding memos carry across criteria; run the
module in file order (the default).  Each criterion prints one summary line,
visible under pytest -rA or -s.
"""

import time

import numpy as np

from mge import construct, is_isomorphic
from mge import enumerator, registry
from mge.enumerator import enumerate_groups
from mge.groups import TableGroup, bfs_closure
from mge.morphisms import Fingerprint
from mge.verify import (
    bundled_certificate,
    contains_all_upto,
    minimal_embedding_search,
    replay_report,
    reproduce,
    verify_certificate,
)
from regular_oracle import regular_oracle

# reports accumulated by criteria 1..11, replayed wholesale by criterion 12
REPORTS = {}

TABLE1_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1)


def _criterion(num: int, budget: float, t0: float, detail: str) -> None:
    dt = time.monotonic() - t0
    assert dt < budget, f"criterion {num} took {dt:.1f}s, budget {budget:.0f}s"
    print(f"criterion {num:02d} PASS  {dt:6.1f}s / {budget:.0f}s  {detail}")


def test_criterion_01_order_census_counts():
    t0 = time.monotonic()
    counts = tuple(len(enumerate_groups(n)) for n in range(1, 16))
    assert counts == TABLE1_COUNTS
    rep = reproduce("table1")
    REPORTS["table1"] = rep
    assert rep.passed and all(it.status == "pass" for it in rep.items)
    _criterion(1, 10, t0,
               f"orders 1..15 classify as {counts}, named recipes match bijectively")


def test_criterion_02_oracle_cross_check():
    t0 = time.monotonic()
    for n in range(1, 11):
        oracle = regular_oracle(n)
        cat = enumerate_groups(n)
        assert len(oracle) == len(cat), f"count mismatch at order {n}"
        hits = set()
        for e in oracle.entries:
            match = cat.find_isomorphic(e.group)
            assert match is not None, f"{e.recipe_text} missing from catalog {n}"
            hits.add(match.recipe_text)
        assert len(hits) == len(cat), f"matching not bijective at order {n}"
    _criterion(2, 60, t0,
               "exhaustive regular-representation census agrees for orders 1..10")


def test_criterion_03_order32_minimal_hosts():
    t0 = time.monotonic()
    rep = reproduce("thm-order32")
    REPORTS["thm-order32"] = rep
    assert rep.passed
    out = minimal_embedding_search("order", 8, 64)
    assert out.found_order == 32
    assert len(out.groups) == 2
    remaining = {lb: construct(f"named({lb})") for lb in ("C2xH1", "H2")}
    for text in out.groups:
        g = construct(text)
        matched = [lb for lb, h in remaining.items()
                   if g.order == h.order and is_isomorphic(g, h) is not None]
        assert len(matched) == 1, f"{text} matches {matched}"
        del remaining[matched[0]]
    _criterion(3, 120, t0,
               "exactly 2 of 51 order-32 groups host all of order 8: C2xH1 and H2")


def test_criterion_04_abelian_half_obstruction():
    t0 = time.monotonic()
    rep = reproduce("lemma-habex4")
    REPORTS["lemma-habex4"] = rep
    assert rep.passed
    sweep = [it for it in rep.items if it.item_id != "hypothesis coverage"]
    assert sweep and all(it.status == "pass" for it in sweep)
    cov = next(it for it in rep.items if it.item_id == "hypothesis coverage")
    n_hyp = int(cov.detail.split()[0])
    assert n_hyp == len(sweep) > 0
    _criterion(4, 120, t0,
               f"all {n_hyp} order-32 groups with an abelian exponent-<=4 half "
               "miss some order-8 group")


def test_criterion_05_order144_unique_minimal_host(monkeypatch):
    monkeypatch.setenv("MGE_TIER", "2")
    t0 = time.monotonic()
    rep = reproduce("thm-order144")
    REPORTS["thm-order144"] = rep
    assert rep.passed
    out = minimal_embedding_search("order", 12, 144)
    assert out.found_order == 144
    assert out.eliminated == {24: 15, 48: 52, 72: 50, 96: 231, 120: 47}
    assert len(out.groups) == 1
    s3s4 = construct("named(S3xS4)")
    assert is_isomorphic(construct(out.groups[0]), s3s4) is not None
    _criterion(5, 1800, t0,
               "minimal host for all groups of order 12 is 144, unique class "
               "S3xS4, after eliminating 24/48/72/96/120")


def test_minimal_pair_rows_supplementary(monkeypatch):
    """Not a numbered criterion: the full minimal-pairs table rides the
    catalogs the preceding sweeps just loaded, so verify all 15 rows here."""
    monkeypatch.setenv("MGE_TIER", "2")
    t0 = time.monotonic()
    rep = reproduce("table2")
    REPORTS["table2"] = rep
    assert rep.passed
    assert len(rep.items) == 15 and all(it.status == "pass" for it in rep.items)
    print(f"supplementary   PASS  {time.monotonic() - t0:6.1f}s          "
          "all 15 minimal-pair rows confirmed with uniqueness sweeps")


def test_criterion_06_a4_hosts_of_order96(monkeypatch):
    monkeypatch.setenv("MGE_TIER", "2")
    t0 = time.monotonic()
    rep = reproduce("lemma-order96")
    REPORTS["lemma-order96"] = rep
    assert rep.passed
    sweep = [it for it in rep.items if it.item_id != "hypothesis coverage"]
    assert sweep and all(it.status == "pass" for it in sweep)
    cov = next(it for it in rep.items if it.item_id == "hypothesis coverage")
    n_hosts = int(cov.detail.split()[0])
    assert n_hosts == len(sweep) > 0
    _criterion(6, 900, t0,
               f"all {n_hosts} order-96 groups hosting A4 miss some order-8 group")


def test_criterion_07_bound_formulas():
    t0 = time.monotonic()
    assert registry.pbound(2, 3) == 32
    assert registry.nbound(12) == 332_640
    assert registry.nbound(13) == registry.nbound(14) == registry.nbound(15) == 4_324_320
    stated = {8: 3_360, 9: 30_240, 10: 30_240, 11: 332_640,
              12: 665_280, 13: 8_648_640, 14: 8_648_640, 15: 8_648_640}
    for n, v in stated.items():
        assert registry.table4_value(n) == v
    for n in range(1, 12):
        assert registry.table4_value(n) == registry.nbound(n)
    for n in range(12, 16):
        assert registry.table4_value(n) == 2 * registry.nbound(n)
    _criterion(7, 1, t0,
               "pbound/nbound closed forms match every tabulated minimal order")


def test_criterion_08_minimal_hosts_up_to_11():
    t0 = time.monotonic()
    rep = reproduce("table5")
    REPORTS["table5"] = rep
    assert rep.passed and all(it.status == "pass" for it in rep.items)
    for n in range(1, 12):
        for label in registry.table5_row(n):
            assert construct(f"named({label})").order == registry.nbound(n)
    _criterion(8, 300, t0,
               "each listed ambient has order nbound(n) and hosts every group "
               "of order <= n")


FAMILY_ROWS = (("BIG12_SOL", 665_280, 12), ("BIG12_NONSOL", 665_280, 12),
               ("BIG15_SOL", 8_648_640, 15), ("BIG15_NONSOL", 8_648_640, 15))


def test_criterion_09_big_family_constructions():
    t0 = time.monotonic()
    prod = verify_certificate(bundled_certificate("named(BIGPROD)"))
    assert prod.passed and len(prod.items) == 39
    for label, order, n in FAMILY_ROWS:
        ambient = f"named({label})"
        g = construct(ambient)
        assert g.order == order, f"{label} has order {g.order}"
        assert verify_certificate(bundled_certificate(ambient)).passed
        rep = contains_all_upto(g, n, bundled_certificate(ambient), ambient_text=ambient)
        assert rep.passed, f"{label} fails containment up to {n}"
        REPORTS[f"upto-{label}"] = rep
    rep4 = reproduce("table4")
    REPORTS["table4"] = rep4
    assert rep4.passed and all(it.status == "pass" for it in rep4.items)
    _criterion(9, 600, t0,
               "four families realize 665280 / 8648640, certificates verify, "
               "containment up to 12 and 15 holds")


def test_criterion_10_sylow_tower_examples():
    t0 = time.monotonic()
    rep = reproduce("example-p6")
    REPORTS["example-p6"] = rep
    assert rep.passed
    by_id = {it.item_id: it for it in rep.items}
    assert by_id["GP6_3 hosts all of order 27"].status == "pass"
    assert by_id["W3 misses exactly the rank-3 elementary abelian group"].status == "pass"
    _criterion(10, 300, t0,
               "GP6_3 (order 729) hosts all five order-27 groups; W3 misses "
               "only EA(3,3)")


def test_criterion_11_order243_sweep_or_skip():
    t0 = time.monotonic()
    tier = enumerator.default_tier()
    rep = reproduce("lemma-p3")
    REPORTS["lemma-p3"] = rep
    assert rep.passed
    if tier >= 3:
        assert len(rep.items) == 67
        assert all(it.status == "pass" for it in rep.items)
        _criterion(11, 4 * 3600, t0,
                   "no order-243 group hosts all five order-27 groups")
    else:
        assert any(it.status == "skip" for it in rep.items)
        _criterion(11, 60, t0,
                   f"order-243 sweep needs tier 3 (active tier {tier}); "
                   "reported as skip, not failure")


def _closure(g: TableGroup, gens) -> list[int]:
    elems, _ = bfs_closure(0, sorted(set(int(x) for x in gens)), g.mul)
    return elems


def _centralizes(g: TableGroup, x: int, elems) -> bool:
    return all(g.mul(x, e) == g.mul(e, x) for e in elems)


def _commutators(g: TableGroup, a_elems, b_elems) -> list[int]:
    comms = {g.mul(g.inv_of(g.mul(b, a)), g.mul(a, b))
             for a in a_elems for b in b_elems}
    return _closure(g, comms)


SCENARIO_SEEDS = ("table1", "thm-order32", "lemma-habex4", "thm-order144",
                  "table2", "lemma-order96", "table4", "table5", "example-p6")


def test_criterion_12_property_laws_and_witness_replay(monkeypatch):
    # the reports it replays were made at tier 2 or above (criteria 5, 6 and
    # the minimal-pair rows set it), and replay reads the same tier
    monkeypatch.setenv("MGE_TIER", str(max(enumerator.default_tier(), 2)))
    t0 = time.monotonic()
    rng = np.random.default_rng(64)

    # Lagrange, class equation, fingerprint relabeling over every tier-1 catalog
    checked = 0
    for n in range(1, 65):
        for entry in enumerate_groups(n).entries:
            g = entry.group
            assert np.all(g.order % g.element_orders == 0)
            sizes = g.class_sizes
            assert int(sizes.sum()) == g.order
            assert np.all(g.order % sizes == 0)
            assert int((sizes == 1).sum()) == len(g.center_elements)
            sigma = np.arange(g.order)
            if g.order > 1:
                sigma[1:] = rng.permutation(np.arange(1, g.order))
            relabeled = np.empty_like(g.table)
            relabeled[np.ix_(sigma, sigma)] = sigma[g.table]
            gens = {"g1": int(sigma[g.greedy_gens[0]])} if g.order > 1 else {}
            assert Fingerprint.of(TableGroup(relabeled, gens)) == Fingerprint.of(g)
            checked += 1
    assert checked >= 300

    # random subgroups still obey Lagrange; commutator centralizing transfers
    small = [e.group for n in range(1, 25)
             for e in enumerate_groups(n).entries]
    lemma_hits = 0
    for g in small:
        for _ in range(4):
            sub = _closure(g, rng.integers(0, g.order, size=2))
            assert g.order % len(sub) == 0
            a_elems = _closure(g, rng.integers(0, g.order, size=2))
            b_elems = _closure(g, rng.integers(0, g.order, size=2))
            ab = _commutators(g, a_elems, b_elems)
            central = all(_centralizes(g, b, ab) for b in b_elems)
            abelian = all(g.mul(x, y) == g.mul(y, x) for x in ab for y in ab)
            if not (central and abelian):
                continue
            lemma_hits += 1
            for d in _commutators(g, b_elems, b_elems):
                assert _centralizes(g, d, a_elems)
    assert lemma_hits > 0

    # replay every witness the earlier criteria emitted, from scratch
    for sid in SCENARIO_SEEDS:
        REPORTS.setdefault(sid, reproduce(sid))
    n_witnesses = 0
    for name, rep in sorted(REPORTS.items()):
        assert rep.passed, f"{name} has failures"
        assert replay_report(rep), f"witness replay failed for {name}"
        n_witnesses += sum(1 for it in rep.items if it.witness is not None)
    assert n_witnesses > 100
    _criterion(12, 300, t0,
               f"laws hold over {checked} tier-1 groups, {lemma_hits} sampled "
               f"subgroup pairs satisfy the centralizer lemma, {n_witnesses} "
               "witnesses replayed")
