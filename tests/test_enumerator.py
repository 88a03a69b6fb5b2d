"""Catalog completeness against the classification of small groups, the
regular-representation oracle, serialization safety, and tier gating."""

import hashlib
import importlib.util
import itertools
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from mge import construct, enumerator, expressions, is_isomorphic
from mge._pins import PINS
from mge._version import ENGINE_VERSION
from mge.enumerator import (
    _BUNDLED_DIR,
    _canonical_entry,
    _compute,
    _dedupe,
    _ea_alpha_matrices,
    _ea_alpha_pairs,
    _extension_candidates,
    _extension_table,
    _factors_of_xp_minus_1,
    _generic_alpha_pairs,
    _seed_entries,
    Catalog,
    clear_memory_cache,
    default_tier,
    enumerate_groups,
    order_allowed,
)
from mge.errors import EngineError, IncompleteSeedSet, OutOfRange, TierLimitExceeded
from mge.groups import TableGroup
from mge.expressions import parse_expr
from mge.morphisms import (
    Fingerprint,
    automorphisms,
    elem_abelian_prime,
    order_counts,
    rich_invariant_key,
)
from mge.numtheory import is_prime
from regular_oracle import regular_oracle

# isomorphism class counts, orders 1..32
CLASS_COUNTS = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14,
                1, 5, 1, 5, 2, 2, 1, 15, 2, 2, 5, 4, 1, 4, 1, 51]

BIG_COUNTS = {48: 52, 60: 13, 64: 267, 72: 50, 96: 231, 120: 47, 144: 197}


@pytest.mark.parametrize("n", range(1, 33))
def test_class_counts_small(n):
    assert len(enumerate_groups(n)) == CLASS_COUNTS[n - 1]


@pytest.mark.parametrize("n", sorted(BIG_COUNTS))
def test_class_counts_large(n, monkeypatch):
    monkeypatch.setenv("MGE_TIER", "2")
    assert len(enumerate_groups(n)) == BIG_COUNTS[n]


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
    assert is_isomorphic(construct(hit.recipe_text), construct("D(4)")) is not None
    assert cat.find_isomorphic(construct("C(16)")) is None


def test_find_isomorphic_builds_only_entries_whose_stored_text_matches():
    doc = json.loads((_BUNDLED_DIR / "order144.json").read_text())
    cat = Catalog.from_json(doc)  # pinned: no entry is built at load
    g = construct("named(S3xS4)")
    assert cat.find_isomorphic(g) is not None
    text = Fingerprint.of(g).canonical_bytes().decode()
    built = [e for e in cat.entries if "group" in e.__dict__]
    assert len(cat.entries) == 197
    assert len(built) == 1 and built[0].fingerprint_text == text


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


def _reverse_stream(monkeypatch):
    """The enumerator sees every automorphism stream in reverse: the same set
    in another order, as a kernel trying its candidates otherwise would give."""
    def reversed_automorphisms(g):
        yield from reversed(list(automorphisms(g)))

    monkeypatch.setattr("mge.enumerator.automorphisms", reversed_automorphisms)


@pytest.mark.parametrize("stream", ["search", "reversed"])
def test_cold_catalogs_match_bundled_bytes(tmp_path, monkeypatch, stream):
    # orders 1-32 re-derived with no bundled file and no cache to load from;
    # the bytes do not depend on the order automorphisms are streamed in
    if stream == "reversed":
        _reverse_stream(monkeypatch)
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


@pytest.mark.parametrize("stream", ["search", "reversed"])
def test_cold_catalogs_above_32_match_bundled_bytes(tmp_path, monkeypatch, stream):
    # opt-in, like the order-243 sweep: several minutes of search
    if default_tier() < 3:
        pytest.skip("cold re-derivation of orders 33-243 runs only at MGE_TIER=3")
    if stream == "reversed":
        _reverse_stream(monkeypatch)
    (tmp_path / "cache").mkdir()
    (tmp_path / "bundled").mkdir()
    monkeypatch.setenv("MGE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr("mge.enumerator._BUNDLED_DIR", tmp_path / "bundled")
    clear_memory_cache()
    try:
        for n in [*range(33, 65), 72, 96, 120, 144, 81, 243]:
            bundled = (_BUNDLED_DIR / f"order{n}.json").read_text().strip()
            assert enumerate_groups(n).dumps() == bundled, n
    finally:
        clear_memory_cache()


def _no_new_fingerprint(*args, **kwargs):
    raise AssertionError("a fingerprint was computed again")


def test_canonical_entry_takes_the_candidates_fingerprint(monkeypatch):
    g = construct("sd(gens(C(7), g1), gens(C(3), t), t.g1=g1^2)")
    rich_invariant_key(g)  # bucketing caches g's fingerprint
    with monkeypatch.context() as m:
        m.setattr(Fingerprint, "__init__", _no_new_fingerprint)
        entry = _canonical_entry(g)
    text = entry.fingerprint_text
    assert text == Fingerprint.of(g).canonical_bytes().decode()
    assert text == Fingerprint.of(construct(entry.recipe_text)).canonical_bytes().decode()


def test_canonical_entry_is_the_group_its_recipe_builds():
    for n in range(1, 65):
        for e in enumerate_groups(n).entries:
            got, want = _canonical_entry(e.group), construct(e.recipe_text)
            assert got.recipe_text == e.recipe_text
            assert np.array_equal(got.group.table, want.table), e.recipe_text
            assert list(got.group.gens.items()) == list(want.gens.items()), e.recipe_text
            if n == 1:
                assert got.group.perm_elems is None and want.perm_elems is None
            else:
                assert np.array_equal(got.group.perm_elems.mat, want.perm_elems.mat), n


def test_regular_groups_hold_one_table():
    recipes = [e["recipe"] for path in sorted(_BUNDLED_DIR.glob("order*.json"))
               for e in json.loads(path.read_text())["entries"]
               if e["recipe"].startswith("perm(")]
    assert len(recipes) == 1192
    for text in recipes:
        g = construct(text)
        assert np.shares_memory(g.table, g.perm_elems.mat), text
    fresh = [e.group for e in _compute(12).entries]
    assert len(fresh) == 5
    assert all(np.shares_memory(g.table, g.perm_elems.mat) for g in fresh)


def test_canonical_entry_builds_nothing_from_text(monkeypatch):
    from mge import enumerator, groups, perms

    g = construct("sd(gens(C(7), g1), gens(C(3), t), t.g1=g1^2)")
    calls = []
    for module, name in ((enumerator, "construct"), (groups, "construct"),
                         (groups, "build_perm_group"), (perms, "parse_cycles")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    entry = _canonical_entry(g)
    assert entry.recipe_text.startswith("perm(21; ") and len(entry.group.gens) == 2
    assert calls == []
    assert np.shares_memory(entry.group.table, g.table)


def test_dedupe_builds_no_search_on_a_duplicate():
    # the bucket's kept group is the search source, so a candidate rejected
    # as a duplicate gets no generating sequence and no search levels
    candidates = [g for base in enumerate_groups(16).groups()
                  for g in _extension_candidates(base, 2)]
    entries = _dedupe(candidates)
    kept = {id(e.group.table) for e in entries}  # right_regular shares the kept table
    dupes = [g for g in candidates if id(g.table) not in kept]
    assert len(entries) == 51 and len(dupes) == len(candidates) - 51 > 20
    for g in dupes:
        assert "greedy_gens" not in g.__dict__
        assert "_search_levels" not in g.__dict__


def test_candidates_carry_no_generator_names():
    # a permutation base's names are cycle strings formatted on first read;
    # listing its extensions must not read them
    entries = json.loads((_BUNDLED_DIR / "order16.json").read_text())["entries"]
    for e in entries:
        base = construct(e["recipe"])
        assert base.perm_elems is not None and "gens" not in base.__dict__
        assert all(g.gens == {} for g in _extension_candidates(base, 2))
        assert "gens" not in base.__dict__, e["recipe"]


def _alpha_pairs(base, p):
    q = elem_abelian_prime(base) if base.n > 1 else None
    return _ea_alpha_pairs(base, q, p) if q else _generic_alpha_pairs(base, p)


def _norms(base, alpha, p):
    """{z alpha(z) ... alpha^(p-1)(z) : z central}, one element at a time."""
    out = set()
    for z in base.center_elements:
        y = norm = z
        for _ in range(p - 1):
            y = int(alpha[y])
            norm = base.mul(norm, y)
        out.add(norm)
    return out


def test_candidates_keep_one_a_per_norm_coset():
    # t -> t*z with z central keeps alpha and sends t^p = a to a*N(z), so a
    # dropped (alpha, a) builds the group that the least element of a*M builds
    dropped = 0
    for n in range(1, 17):
        for base in enumerate_groups(n).groups():
            for p in (2, 3):
                want = []
                for alpha, valid_a in _alpha_pairs(base, p):
                    norms = _norms(base, alpha, p)
                    for a in valid_a:
                        least = min(base.mul(a, m) for m in norms)
                        kept = _extension_table(base, alpha, least, p)
                        if a == least:
                            want.append(kept)
                            continue
                        got = TableGroup(_extension_table(base, alpha, a, p), {})
                        assert is_isomorphic(TableGroup(kept, {}), got) is not None
                        dropped += 1
                have = [g.table for g in _extension_candidates(base, p)]
                assert len(have) == len(want)
                assert all(np.array_equal(x, y) for x, y in zip(have, want)), (n, p)
    assert dropped > 100


def test_order24_candidates_from_order12_bases():
    # 58 candidates before the norm filter
    assert sum(1 for base in enumerate_groups(12).groups()
               for _ in _extension_candidates(base, 2)) == 28


def test_cold_enumeration_lists_aut_once_per_base(tmp_path, monkeypatch):
    (tmp_path / "cache").mkdir()
    monkeypatch.setenv("MGE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr("mge.enumerator._BUNDLED_DIR", tmp_path / "bundled")
    listed = []

    def counting(g, **kw):
        listed.append(id(g))
        return automorphisms(g, **kw)

    monkeypatch.setattr("mge.enumerator.automorphisms", counting)
    clear_memory_cache()
    try:
        for n in range(1, 33):
            enumerate_groups(n)
        bases = [id(g) for n in range(1, 17) for g in enumerate_groups(n).groups()
                 if n == 1 or elem_abelian_prime(g) is None]
        assert sorted(listed) == sorted(bases)
    finally:
        clear_memory_cache()


def test_malformed_cache_file_is_stale(tmp_path, monkeypatch):
    monkeypatch.setenv("MGE_CACHE_DIR", str(tmp_path))
    bundled = (_BUNDLED_DIR / "order6.json").read_text().strip()
    wrong_entries = {"order": 6, "engine_version": ENGINE_VERSION,
                     "method": "cyclic-extension", "entries": [1]}
    no_method = {"order": 6, "engine_version": ENGINE_VERSION, "entries": []}
    for doc in ([], wrong_entries, {**wrong_entries, "order": "6", "entries": []}, no_method):
        with pytest.raises(ValueError, match="a catalog needs an int 'order', a string 'method'"):
            Catalog.from_json(doc)
        (tmp_path / "order6.json").write_text(json.dumps(doc))
        clear_memory_cache()
        try:
            assert enumerate_groups(6).dumps() == bundled
        finally:
            clear_memory_cache()


BUNDLED_ORDERS = [*range(1, 65), 72, 81, 96, 120, 144, 243]


def _canonical_digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("n", BUNDLED_ORDERS)
def test_bundled_catalog_loads(n, monkeypatch):
    # the pinned document loads unbuilt; each entry's first .group rebuilds its
    # recipe and checks its order, table hash and fingerprint, so every entry
    # is built and checked here, and equals the fully checked load's entry
    doc = json.loads((_BUNDLED_DIR / f"order{n}.json").read_text())
    cat = Catalog.from_json(doc)
    assert cat.order == n
    assert not any("group" in e.__dict__ for e in cat.entries)
    assert [e.to_json() for e in cat.entries] == doc["entries"]
    monkeypatch.setattr("mge.enumerator.PINS", {})
    full = Catalog.from_json(doc)
    assert all("group" in e.__dict__ for e in full.entries)
    assert len(cat.entries) == len(full.entries)
    for lazy, eager in zip(cat.entries, full.entries):
        assert (lazy.fingerprint_text == eager.fingerprint_text
                == Fingerprint.of(lazy.group).canonical_bytes().decode())
        assert (lazy.fingerprint.element_orders == eager.fingerprint.element_orders
                == order_counts(lazy.group))
        assert lazy.table_hash == eager.table_hash == lazy.group.table_hash
        assert lazy.to_json() == eager.to_json()
        assert np.array_equal(lazy.group.table, eager.group.table)


def test_a_stored_fingerprint_parses_to_the_fingerprint_of_its_group():
    # a sweep reads the parse without building; here every entry is built
    for n in range(1, 33):
        doc = json.loads((_BUNDLED_DIR / f"order{n}.json").read_text())
        for e in Catalog.from_json(doc).entries:
            assert "group" not in e.__dict__
            fp = e.fingerprint
            assert fp.canonical_bytes().decode() == e.fingerprint_text
            assert fp == Fingerprint.of(e.group), e.recipe_text


def test_pins_match_every_bundled_file():
    files = {int(path.stem[5:]): path for path in _BUNDLED_DIR.glob("order*.json")}
    assert sorted(PINS) == sorted(files) == BUNDLED_ORDERS
    for n, path in files.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINS[n], n
        assert _canonical_digest(json.loads(path.read_text())) == PINS[n], n


def test_pin_writer_reproduces_the_committed_pins(tmp_path, monkeypatch):
    tool = Path(__file__).resolve().parent.parent / "tools" / "gen_catalogs.py"
    spec = importlib.util.spec_from_file_location("gen_catalogs", tool)
    gen_catalogs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_catalogs)
    monkeypatch.setattr(gen_catalogs, "PINS_PATH", tmp_path / "_pins.py")
    gen_catalogs.write_pins({int(path.stem[5:]): path.read_text()
                             for path in _BUNDLED_DIR.glob("order*.json")})
    committed = Path(enumerator.__file__).with_name("_pins.py")
    assert (tmp_path / "_pins.py").read_bytes() == committed.read_bytes()


def test_a_pinned_load_parses_no_recipe(monkeypatch):
    scanners = []

    class Counted(expressions._Scanner):  # parse_expr makes one per call
        def __init__(self, text):
            scanners.append(text)
            super().__init__(text)

    monkeypatch.setattr(expressions, "_Scanner", Counted)
    cat = Catalog.from_json(json.loads((_BUNDLED_DIR / "order144.json").read_text()))
    assert scanners == []
    cat.entries[0].group
    assert scanners == [cat.entries[0].recipe_text]


def test_the_pin_covers_what_the_catalog_stores():
    # a key the catalog does not read leaves dumps() on its pin; a changed
    # entry value moves it off, so the document takes the checked load
    text = (_BUNDLED_DIR / "order144.json").read_text()
    extra = {**json.loads(text), "note": "not read"}
    cat = Catalog.from_json(extra)
    assert not any("group" in e.__dict__ for e in cat.entries)
    assert cat.dumps() == text
    extra["entries"][0]["table_hash"] = "0" * 64
    with pytest.raises(ValueError, match="fails its table hash"):
        Catalog.from_json(extra)


def _reference_load(doc) -> list[dict]:
    """The checked load that every unpinned document gets: each entry parsed,
    built and checked in turn, raising at the first that fails."""
    raws = doc.get("entries") if isinstance(doc, dict) else None
    if not (isinstance(raws, list) and isinstance(doc.get("order"), int)
            and isinstance(doc.get("method"), str)
            and all(isinstance(r, dict) and all(isinstance(r.get(k), str) for k in
                    ("recipe", "fingerprint", "table_hash")) for r in raws)):
        raise ValueError("a catalog needs an int 'order', a string 'method' and a list "
                         "'entries' of string 'recipe', 'fingerprint' and 'table_hash'")
    if doc.get("engine_version") != ENGINE_VERSION:
        raise ValueError("catalog written by a different engine version")
    for raw in raws:
        try:
            g = construct(parse_expr(raw["recipe"]))
        except EngineError as exc:
            raise ValueError(f"catalog entry {raw['recipe']!r} does not build: {exc}") from exc
        if g.order != doc["order"]:
            raise ValueError(f"catalog entry {raw['recipe']!r} has wrong order")
        if g.table_hash != raw["table_hash"]:
            raise ValueError(f"catalog entry {raw['recipe']!r} fails its table hash")
        if Fingerprint.of(g).canonical_bytes().decode() != raw["fingerprint"]:
            raise ValueError(f"catalog entry {raw['recipe']!r} fails its fingerprint")
    return raws


def _one_byte_changed(text: str, rng: random.Random):
    """text with one letter or digit replaced by another of its kind, at a
    random place where the result still parses as JSON."""
    places = [i for i, c in enumerate(text) if c.isalnum()]
    while True:
        i = rng.choice(places)
        kind = ("0123456789" if text[i].isdigit() else
                "abcdefghijklmnopqrstuvwxyz" if text[i].islower() else
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        changed = text[:i] + rng.choice(kind.replace(text[i], "")) + text[i + 1:]
        try:
            return json.loads(changed)
        except ValueError:
            continue


@pytest.mark.parametrize("n", BUNDLED_ORDERS)
def test_a_changed_byte_takes_the_full_load(n):
    # a document one byte off its pin fails as the checked load fails, or
    # loads with every entry already built and checked
    doc = _one_byte_changed((_BUNDLED_DIR / f"order{n}.json").read_text(), random.Random(n))
    assert _canonical_digest(doc) != PINS[n]
    try:
        want = _reference_load(doc)
    except (ValueError, KeyError) as exc:
        with pytest.raises(type(exc)) as got:
            Catalog.from_json(doc)
        assert str(got.value) == str(exc)
        return
    cat = Catalog.from_json(doc)
    assert all("group" in e.__dict__ for e in cat.entries)
    assert [e.to_json() for e in cat.entries] == want


def test_a_pinned_entry_checks_its_group_on_first_use(monkeypatch):
    doc = json.loads((_BUNDLED_DIR / "order12.json").read_text())
    recipe = doc["entries"][1]["recipe"]
    wrong_hash = json.loads(json.dumps(doc))
    wrong_hash["entries"][1]["table_hash"] = "0" * 64
    wrong_fp = json.loads(json.dumps(doc))
    wrong_fp["entries"][1]["fingerprint"] = doc["entries"][0]["fingerprint"]
    wrong_order = {**doc, "order": 24}
    for bad, problem in ((wrong_hash, "fails its table hash"),
                         (wrong_fp, "fails its fingerprint"),
                         (wrong_order, "has wrong order")):
        monkeypatch.setattr("mge.enumerator.PINS", {bad["order"]: _canonical_digest(bad)})
        cat = Catalog.from_json(bad)  # pinned, so nothing is built or checked yet
        assert cat.dumps() == json.dumps(bad, sort_keys=True, separators=(",", ":"))
        for _ in range(2):  # a failed build is not kept
            with pytest.raises(ValueError, match=re.escape(f"catalog entry {recipe!r} {problem}")):
                cat.entries[1].group
        with pytest.raises(ValueError):
            Catalog.from_json({**bad, "method": "oracle"})  # unpinned: checked at load


def test_a_broken_bundled_file_is_recomputed_but_not_cached(tmp_path, monkeypatch):
    # the cache is read only for an order with no bundled file, so it is
    # written only for such an order too
    doc = json.loads((_BUNDLED_DIR / "order6.json").read_text())
    doc["entries"][0]["table_hash"] = "0" * 64
    (tmp_path / "bundled").mkdir()
    (tmp_path / "bundled" / "order6.json").write_text(json.dumps(doc))
    monkeypatch.setenv("MGE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr("mge.enumerator._BUNDLED_DIR", tmp_path / "bundled")
    clear_memory_cache()
    try:
        assert enumerate_groups(6).dumps() == (_BUNDLED_DIR / "order6.json").read_text().strip()
        assert (tmp_path / "cache" / "order3.json").is_file()  # not shipped here
        assert not (tmp_path / "cache" / "order6.json").exists()
    finally:
        clear_memory_cache()


def test_tier_gates(monkeypatch):
    assert order_allowed(64, 1) and not order_allowed(72, 1)
    assert order_allowed(72, 2) and not order_allowed(81, 2)
    assert order_allowed(243, 3)
    for tier, n in (("1", 72), ("2", 81), ("3", 300)):
        monkeypatch.setenv("MGE_TIER", tier)
        with pytest.raises(TierLimitExceeded, match=f"order {n} is outside tier {tier}; "
                                                    "raise MGE_TIER"):
            enumerate_groups(n)


def test_bad_order_arguments(monkeypatch):
    with pytest.raises(OutOfRange):
        enumerate_groups(0)
    with pytest.raises(OutOfRange):
        enumerate_groups(True)
    monkeypatch.setenv("MGE_TIER", "9")
    with pytest.raises(OutOfRange, match="MGE_TIER must be 1, 2, or 3, not '9'"):
        enumerate_groups(12)


def test_default_tier_env(monkeypatch):
    monkeypatch.setenv("MGE_TIER", "3")
    assert default_tier() == 3
    monkeypatch.setenv("MGE_TIER", "silly")
    with pytest.raises(OutOfRange):
        default_tier()
    monkeypatch.delenv("MGE_TIER")
    assert default_tier() == 2


def test_cyclic_extensions():
    def extensions(base, p):
        return [e.group for e in _dedupe(_extension_candidates(base, p))]

    exts = extensions(construct("C(3)"), 2)
    assert len(exts) == 2  # the cyclic and the dihedral extension
    assert {g.is_abelian for g in exts} == {True, False}
    assert [g.order for g in extensions(construct("C(1)"), 5)] == [5]


def _poly_rem(f, g, q):
    """Remainder of f by monic g over GF(q), coefficients constant first."""
    f = list(f)
    for i in range(len(f) - 1, len(g) - 2, -1):
        c = f[i]
        for j, gj in enumerate(g):
            f[i - len(g) + 1 + j] = (f[i - len(g) + 1 + j] - c * gj) % q
    return f[: len(g) - 1]


def _poly_mul(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % q
    return tuple(out)


def _monic(degree, q):
    return [c + (1,) for c in itertools.product(range(q), repeat=degree)]


PRIMES_TO_31 = [n for n in range(32) if is_prime(n)]
FIELD_RANKS = [(q, k) for q in PRIMES_TO_31 for k in range(1, 9) if q**k <= 256]


@pytest.mark.parametrize("q, k", FIELD_RANKS)
def test_factors_of_xp_minus_1_are_the_irreducible_divisors_up_to_degree_k(q, k):
    for p in PRIMES_TO_31:
        if p == q:
            continue
        xp1 = (q - 1,) + (0,) * (p - 1) + (1,)
        factors = _factors_of_xp_minus_1(q, p, k)
        for f in factors:
            assert f[-1] == 1 and 1 <= len(f) - 1 <= k
            assert not any(_poly_rem(xp1, f, q))
            assert all(
                any(_poly_rem(f, g, q)) for d in range(1, len(f) - 1) for g in _monic(d, q)
            ), (q, p, f)
        assert factors == sorted(factors, key=lambda f: (len(f), f))
        # x^p - 1 = (x - 1) times factors of one degree, the order of q mod p
        degree = next(d for d in range(1, p) if pow(q, d, p) == 1)
        if degree <= k:
            product = (1,)
            for f in factors:
                product = _poly_mul(product, f, q)
            assert product == xp1, (q, p, k)
        else:
            assert factors == [(q - 1, 1)], (q, p, k)


def test_factors_of_x7_minus_1_over_gf2():
    # x^7 - 1 = (x + 1)(x^3 + x^2 + 1)(x^3 + x + 1)
    assert _factors_of_xp_minus_1(2, 7, 3) == [(1, 1), (1, 0, 1, 1), (1, 1, 0, 1)]
    assert _factors_of_xp_minus_1(2, 7, 2) == [(1, 1)]


def _mat_power(mats, e, q):
    out = np.broadcast_to(np.eye(mats.shape[-1], dtype=np.int64), mats.shape).copy()
    while e:
        if e & 1:
            out = out @ mats % q
        mats = mats @ mats % q
        e >>= 1
    return out


@pytest.mark.parametrize("q, k", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_ea_alpha_matrices_are_one_per_class_of_order_dividing_p(q, k):
    """Brute force over GL(k, q): the classes of {A : A^p = 1} under
    conjugation, each hit by exactly one returned matrix."""
    mats = np.array(list(itertools.product(range(q), repeat=k * k)), dtype=np.int64)
    mats = mats.reshape(-1, k, k)
    dets = np.rint(np.linalg.det(mats)).astype(np.int64) % q
    gl = mats[dets != 0]
    gl_inv = _mat_power(gl, len(gl) - 1, q)  # x^|G| = 1 in a group G
    eye = np.eye(k, dtype=np.int64)
    for p in (2, 3, 5, 7):
        roots = gl[(_mat_power(gl, p, q) == eye).all(axis=(1, 2))]
        class_of: dict[bytes, int] = {}
        classes = 0
        for a in roots:
            if a.tobytes() not in class_of:
                for b in gl @ a @ gl_inv % q:
                    class_of[b.tobytes()] = classes
                classes += 1
        reps = _ea_alpha_matrices(q, k, p)
        hit = sorted(class_of[np.ascontiguousarray(r % q).tobytes()] for r in reps)
        assert hit == list(range(classes)), (q, k, p)


def test_perfect_seeds_are_injected(monkeypatch):
    monkeypatch.setenv("MGE_TIER", "2")
    cat60 = enumerate_groups(60)
    perfect = [g for g in cat60.groups() if len(g.derived_elements) == g.order]
    assert len(perfect) == 1 and perfect[0].order == 60
    cat120 = enumerate_groups(120)
    perfect = [g for g in cat120.groups() if len(g.derived_elements) == g.order]
    # the double cover of the order-60 simple group, with centre of size 2
    assert len(perfect) == 1 and len(perfect[0].center_elements) == 2


def test_seed_table_refuses_beyond_its_range():
    with pytest.raises(IncompleteSeedSet):
        _seed_entries(300)


def test_seed_entries_check_order_and_perfectness(monkeypatch):
    (a5,) = _seed_entries(60)
    (double_cover,) = _seed_entries(120)
    assert a5.order == 60 and len(a5.center_elements) == 1
    assert double_cover.order == 120 and len(double_cover.center_elements) == 2
    monkeypatch.setattr("mge.enumerator.perfect_seed_exprs", lambda: {60: ("C(60)",)})
    with pytest.raises(IncompleteSeedSet, match="seed 'C\\(60\\)' is not perfect"):
        _seed_entries(60)
    monkeypatch.setattr("mge.enumerator.perfect_seed_exprs", lambda: {120: ("A(5)",)})
    with pytest.raises(IncompleteSeedSet, match="has order 60, wanted 120"):
        _seed_entries(120)


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
