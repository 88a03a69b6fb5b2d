"""Catalog completeness against the classification of small groups, the
regular-representation oracle, serialization safety, and tier gating."""

import json

import pytest

from mge import construct, is_isomorphic
from mge.enumerator import (
    _BUNDLED_DIR,
    _canonical_entry,
    _compute,
    _seed_entries,
    Catalog,
    clear_memory_cache,
    cyclic_extensions,
    default_tier,
    enumerate_groups,
    order_allowed,
    regular_oracle,
)
from mge.errors import IncompleteSeedSet, OutOfRange, TierLimitExceeded
from mge.morphisms import Fingerprint, rich_invariant_key

# isomorphism class counts, orders 1..32
CLASS_COUNTS = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14,
                1, 5, 1, 5, 2, 2, 1, 15, 2, 2, 5, 4, 1, 4, 1, 51]

BIG_COUNTS = {48: 52, 60: 13, 64: 267, 72: 50, 96: 231, 120: 47, 144: 197}


@pytest.mark.parametrize("n", range(1, 33))
def test_class_counts_small(n):
    assert len(enumerate_groups(n)) == CLASS_COUNTS[n - 1]


@pytest.mark.parametrize("n", sorted(BIG_COUNTS))
def test_class_counts_large(n):
    assert len(enumerate_groups(n, tier=2)) == BIG_COUNTS[n]


def test_catalog_entries_are_distinct_classes():
    cat = enumerate_groups(12)
    groups = cat.groups()
    for i, a in enumerate(groups):
        for b in groups[i + 1:]:
            assert is_isomorphic(a, b) is None


def test_oracle_agrees_with_enumeration():
    for n in range(1, 9):
        oracle = regular_oracle(n)
        cat = enumerate_groups(n)
        assert len(oracle) == len(cat)
        for entry in oracle.entries:
            assert cat.find_isomorphic(entry.group) is not None
    assert regular_oracle(6).provenance == "oracle"


def test_oracle_range_limit():
    with pytest.raises(OutOfRange):
        regular_oracle(11)


def test_find_isomorphic():
    cat = enumerate_groups(8)
    hit = cat.find_isomorphic(construct("D(4)"))
    assert hit is not None
    assert is_isomorphic(construct(hit.recipe), construct("D(4)")) is not None
    assert cat.find_isomorphic(construct("C(16)")) is None


def test_catalog_round_trip_and_tamper_detection():
    cat = enumerate_groups(12)
    doc = json.loads(cat.dumps())
    again = Catalog.from_json(doc)
    assert [e.recipe_text for e in again.entries] == [e.recipe_text for e in cat.entries]

    bad = json.loads(cat.dumps())
    bad["entries"][0]["table_hash"] = "0" * 16
    with pytest.raises(ValueError):
        Catalog.from_json(bad)

    bad = json.loads(cat.dumps())
    bad["entries"][0]["fingerprint"] = "forged"
    with pytest.raises(ValueError):
        Catalog.from_json(bad)

    bad = json.loads(cat.dumps())
    bad["engine_version"] = "0.0"
    with pytest.raises(ValueError):
        Catalog.from_json(bad)


def test_recompute_matches_bundled_bytes():
    # full recomputation of a composite order reproduces the shipped catalog
    fresh = _compute(24)
    assert fresh.dumps() == (_BUNDLED_DIR / "order24.json").read_text().strip()


def test_cold_catalogs_match_bundled_bytes(tmp_path, monkeypatch):
    # orders 1-32 re-derived with no bundled file and no cache to load from
    (tmp_path / "cache").mkdir()
    (tmp_path / "bundled").mkdir()
    monkeypatch.setenv("MGE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr("mge.enumerator._BUNDLED_DIR", tmp_path / "bundled")
    clear_memory_cache()
    try:
        for n in range(1, 33):
            bundled = (_BUNDLED_DIR / f"order{n}.json").read_text().strip()
            assert enumerate_groups(n).dumps() == bundled, n
    finally:
        clear_memory_cache()


def test_cold_catalogs_above_32_match_bundled_bytes(tmp_path, monkeypatch):
    # opt-in, like the order-243 sweep: several minutes of search
    if default_tier() < 3:
        pytest.skip("cold re-derivation of orders 33-144 runs only at MGE_TIER=3")
    (tmp_path / "cache").mkdir()
    (tmp_path / "bundled").mkdir()
    monkeypatch.setenv("MGE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr("mge.enumerator._BUNDLED_DIR", tmp_path / "bundled")
    clear_memory_cache()
    try:
        for n in [*range(33, 65), 72, 96, 120, 144]:
            bundled = (_BUNDLED_DIR / f"order{n}.json").read_text().strip()
            assert enumerate_groups(n).dumps() == bundled, n
    finally:
        clear_memory_cache()


def test_canonical_entry_takes_the_candidates_fingerprint():
    g = construct("sd(gens(C(7), g1), gens(C(3), t), t.g1=g1^2)")
    rich_invariant_key(g)  # bucketing caches g's fingerprint
    entry = _canonical_entry(g)
    assert entry.fingerprint is Fingerprint.of(g)
    assert entry.fingerprint == Fingerprint.of(construct(entry.recipe))


@pytest.mark.parametrize("n", [*range(1, 65), 72, 96, 120, 144])
def test_bundled_catalog_loads(n):
    # from_json rebuilds every recipe and checks its table hash and fingerprint
    doc = json.loads((_BUNDLED_DIR / f"order{n}.json").read_text())
    cat = Catalog.from_json(doc)
    assert cat.order == n
    assert [e.to_json() for e in cat.entries] == doc["entries"]


def test_tier_gates():
    assert order_allowed(64, 1) and not order_allowed(72, 1)
    assert order_allowed(72, 2) and not order_allowed(81, 2)
    assert order_allowed(243, 3)
    with pytest.raises(TierLimitExceeded):
        enumerate_groups(72, tier=1)
    with pytest.raises(TierLimitExceeded):
        enumerate_groups(81, tier=2)
    with pytest.raises(TierLimitExceeded):
        enumerate_groups(300, tier=3)


def test_bad_order_arguments():
    with pytest.raises(OutOfRange):
        enumerate_groups(0)
    with pytest.raises(OutOfRange):
        enumerate_groups(True)
    with pytest.raises(OutOfRange):
        enumerate_groups(12, tier=9)


def test_default_tier_env(monkeypatch):
    monkeypatch.setenv("MGE_TIER", "3")
    assert default_tier() == 3
    monkeypatch.setenv("MGE_TIER", "silly")
    with pytest.raises(OutOfRange):
        default_tier()
    monkeypatch.delenv("MGE_TIER")
    assert default_tier() == 2


def test_cyclic_extensions():
    exts = cyclic_extensions(construct("C(3)"), 2)
    assert len(exts) == 2  # the cyclic and the dihedral extension
    assert {g.is_abelian for g in exts} == {True, False}
    assert [g.order for g in cyclic_extensions(construct("C(1)"), 5)] == [5]
    with pytest.raises(OutOfRange):
        cyclic_extensions(construct("C(3)"), 4)


def test_perfect_seeds_are_injected():
    cat60 = enumerate_groups(60)
    perfect = [g for g in cat60.groups() if len(g.derived_elements) == g.order]
    assert len(perfect) == 1 and perfect[0].order == 60
    cat120 = enumerate_groups(120, tier=2)
    perfect = [g for g in cat120.groups() if len(g.derived_elements) == g.order]
    # the double cover of the order-60 simple group, with centre of size 2
    assert len(perfect) == 1 and len(perfect[0].center_elements) == 2


def test_seed_table_refuses_beyond_its_range():
    with pytest.raises(IncompleteSeedSet):
        _seed_entries(300)


def test_cache_chain(tmp_path, monkeypatch):
    monkeypatch.setenv("MGE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr("mge.enumerator._BUNDLED_DIR", tmp_path / "nowhere")
    clear_memory_cache()
    try:
        cat = enumerate_groups(6)
        assert len(cat) == 2
        assert (tmp_path / "order6.json").is_file()

        clear_memory_cache()
        again = enumerate_groups(6)
        assert again.dumps() == cat.dumps()

        # corrupt cache entries are skipped, not trusted
        (tmp_path / "order6.json").write_text("{broken")
        clear_memory_cache()
        rebuilt = enumerate_groups(6)
        assert rebuilt.dumps() == cat.dumps()
    finally:
        clear_memory_cache()
