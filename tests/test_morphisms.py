"""Isomorphism testing, embedding search, automorphism counts, and the
fingerprint invariant, against hand-checked classifications."""

import gc
import json
import random
import re
import time
import weakref

import numpy as np
import pytest

from mge import construct, find_embedding, is_isomorphic, morphisms, registry
from mge.enumerator import Catalog, _BUNDLED_DIR
from mge.errors import AutBudgetExceeded, OutOfRange, SearchBudgetExceeded
from mge.numtheory import factorization
from mge.groups import TableGroup, bfs_closure
from mge.morphisms import (
    DEFAULT_SEARCH_BUDGET,
    TWISTED_FULL_POOL_LIMIT,
    Fingerprint,
    automorphisms,
    derived_series_orders,
    elem_abelian_prime,
    rich_invariant_key,
    search_monomorphisms,
)

ISO_PAIRS = [
    ("C(6)", "C(2) x C(3)"),
    ("D(6)", "C(2) x D(3)"),
    ("EA(2,2)", "C(2) x C(2)"),
    ("S(3)", "D(3)"),
    ("perm(4; (1 2 3 4), (1 3))", "D(4)"),
]

NON_ISO_PAIRS = [
    ("D(4)", "Q(2)"),
    ("C(4)", "EA(2,2)"),
    ("C(9)", "EA(3,2)"),
    ("A(4)", "D(6)"),
    ("C(2)", "C(3)"),
]


@pytest.mark.parametrize("a, b", ISO_PAIRS)
def test_isomorphic_pairs(a, b):
    ga, gb = construct(a), construct(b)
    m = is_isomorphic(ga, gb)
    assert m is not None
    assert sorted(m.images) == list(gb.elements())  # a bijection onto gb
    assert m.verify()
    # fingerprints and invariant keys agree on isomorphic groups
    assert Fingerprint.of(ga) == Fingerprint.of(gb)
    assert rich_invariant_key(ga) == rich_invariant_key(gb)


@pytest.mark.parametrize("a, b", NON_ISO_PAIRS)
def test_non_isomorphic_pairs(a, b):
    assert is_isomorphic(construct(a), construct(b)) is None


def test_witness_words_evaluate_back():
    m = is_isomorphic(construct("C(6)"), construct("C(2) x C(3)"))
    for src_word, dst_word in m.witness_words():
        x = m.source.evaluate_word(src_word)
        assert m(x) == m.target.evaluate_word(dst_word)


EMBED_YES = [
    ("C(4)", "D(4)"),
    ("A(4)", "S(4)"),
    ("C(8)", "D(8)"),
    ("Q(2)", "Q(4)"),
    ("D(3)", "A(5)"),
]

EMBED_NO = [
    ("Q(2)", "S(4)"),   # the Sylow 2-subgroup of S4 is dihedral
    ("C(8)", "S(5)"),   # no 8-cycle structure inside S5
    ("C(4)", "A(4)"),
    ("EA(2,3)", "D(8)"),
]


@pytest.mark.parametrize("h, g", EMBED_YES)
def test_embeddings_found(h, g):
    m = find_embedding(construct(h), construct(g))
    assert m is not None
    assert len(m.images) == m.source.order
    assert m.injective
    assert m.verify()


@pytest.mark.parametrize("h, g", EMBED_NO)
def test_embeddings_refuted(h, g):
    # a None against a dense ambient is a completed exhaustive search
    assert find_embedding(construct(h), construct(g)) is None


def test_embedding_respects_divisibility_shortcut():
    assert find_embedding(construct("C(5)"), construct("S(4)")) is None


def test_element_order_counts_refute_before_the_kernel(monkeypatch):
    def kernel(*args):
        raise AssertionError("the search kernel was entered")

    monkeypatch.setattr(morphisms, "_kernel", kernel)
    h, g = construct("EA(2,3)"), construct("D(4)")
    assert np.bincount(h.element_orders)[2] == 7 and np.bincount(g.element_orders)[2] == 5
    assert find_embedding(h, g) is None
    assert list(search_monomorphisms(h, g)) == []


def test_twisted_embedding_with_support():
    tw = construct("named(C5xC7xC9xD3xH1)")
    m = find_embedding(construct("C(45)"), tw, support=["C(5)", "C(9)"])
    assert m is not None and m.verify()
    for src_word, dst_word in m.witness_words():
        assert m(m.source.evaluate_word(src_word)) == tw.evaluate_word(dst_word)
    # absence against a twisted ambient returns None without claiming proof
    assert find_embedding(construct("C(4)"), tw, support=["C(5)"]) is None


def test_a_support_on_a_dense_target_is_refused():
    # a dense target has no components, so a support restriction names nothing
    h, g = construct("C(3)"), construct("S(4)")
    with pytest.raises(OutOfRange):
        find_embedding(h, g, support=["nonsense"])
    with pytest.raises(OutOfRange):
        next(search_monomorphisms(h, g, support=["0"]))
    assert find_embedding(h, g) is not None


def _ref_twisted_order(g, x):
    """The order of x, by multiplying until the identity comes back."""
    k, cur = 1, x
    while cur != g.identity:
        cur, k = g.mul(cur, x), k + 1
    return k


def test_twisted_element_order_matches_the_multiplication_loop():
    rng = random.Random(5)
    big = construct("named(BIG12_SOL)")
    support = list(big.support_elements([0, 1]))
    assert len(support) == 192 and any(bits for _, bits in support)
    tw = construct("named(C5xC7xC9xD3xH1)")
    prod = construct("named(BIGPROD)")  # eight twist bits; K1 and A5 parts only
    mixed = [((rng.randrange(8), 0, 0, 0, 0, 0, 0, rng.randrange(60)), rng.randrange(1 << 8))
             for _ in range(100)]
    for g, elems in ((big, support), (tw, rng.sample(list(tw.elements()), 100)), (prod, mixed)):
        for x in elems:
            assert g.element_order(x) == _ref_twisted_order(g, x), x


def test_full_pool_twisted_search_is_fast():
    tw = construct("named(C5xC7xC9xD3xH1)")
    start = time.perf_counter()
    m = find_embedding(construct("C(2)"), tw)
    assert time.perf_counter() - start < 1.0
    assert m is not None and m.verify()


def test_full_pool_over_its_limit_is_refused_before_enumerating(monkeypatch):
    big = construct("named(BIG15_SOL)")
    assert big.order > TWISTED_FULL_POOL_LIMIT

    def enumerate_pool(*args):
        raise AssertionError("the pool was enumerated")

    monkeypatch.setattr(big, "elements", enumerate_pool)
    monkeypatch.setattr(big, "support_elements", enumerate_pool)
    with pytest.raises(SearchBudgetExceeded, match="needs a support restriction"):
        find_embedding(construct("C(2)"), big)


def test_search_monomorphisms_resolves_support_names():
    tw = registry.resolve("BIGPROD").build()
    h = construct("C(5)")
    first = find_embedding(h, tw, support=["A5"])
    assert first is not None
    maps = list(search_monomorphisms(h, tw, support=["A5"]))
    assert maps and all(m.verify() for m in maps)
    assert first.images in [m.images for m in maps]
    assert [m.images for m in search_monomorphisms(h, tw, support=["7"])] == \
        [m.images for m in maps]  # "A5" is component 7


AUT_COUNTS = [
    ("C(6)", 2),
    ("EA(2,2)", 6),
    ("D(3)", 6),
    ("Q(2)", 24),
    ("EA(2,3)", 168),  # the simple linear group on rank 3 over GF(2)
    ("C(1)", 1),
]


@pytest.mark.parametrize("text, count", AUT_COUNTS)
def test_automorphism_counts(text, count):
    assert sum(1 for _ in automorphisms(construct(text))) == count


def test_budget_exhaustion_raises():
    a5 = construct("A(5)")
    with pytest.raises(SearchBudgetExceeded):
        list(search_monomorphisms(a5, a5, require_iso=True, budget=3))


def test_derived_series():
    assert tuple(derived_series_orders(construct("S(4)"))) == (24, 12, 4, 1)
    assert tuple(derived_series_orders(construct("A(5)"))) == (60,)  # perfect
    assert tuple(derived_series_orders(construct("C(6)"))) == (6, 1)


def test_elem_abelian_detection():
    assert elem_abelian_prime(construct("EA(3,2)")) == 3
    assert elem_abelian_prime(construct("C(5)")) == 5
    assert elem_abelian_prime(construct("C(4)")) is None
    assert elem_abelian_prime(construct("D(3)")) is None
    assert elem_abelian_prime(construct("C(1)")) is None


def ref_ea_basis(g, p):
    """The basis as it was found before it was ``greedy_gens``: the least
    element outside the span, one closure per element taken."""
    k = factorization(g.order)[p]
    basis, span = [], {0}
    for x in range(g.order):
        if x in span:
            continue
        basis.append(x)
        span = set(bfs_closure(0, basis, g.mul)[0])
        if len(basis) == k:
            break
    return basis


def test_ea_basis_matches_reference():
    texts = [e["recipe"] for path in sorted(_BUNDLED_DIR.glob("order*.json"))
             for e in json.loads(path.read_text())["entries"]
             if json.loads(e["fingerprint"])["abelian_invariants"] is not None]
    texts += sorted(set(re.findall(r"EA\(\d+,\d+\)", registry._DATA_PATH.read_text())))
    checked = 0
    for text in texts + ["EA(3,5)"]:
        g = construct(text)
        p = elem_abelian_prime(g)
        if p is not None:
            assert list(g.greedy_gens) == ref_ea_basis(g, p), text
            checked += 1
    assert checked == 33  # 29 bundled entries, EA(2,2), EA(3,2), EA(5,2) and EA(3,5)


# --- the search kernel against the dict-based loop it replaced -----------------


class _RefBudget:
    def __init__(self, amount: int):
        self.left = amount
        self.spent = 0

    def spend(self, k: int) -> None:
        self.left -= k
        self.spent += k
        if self.left < 0:
            raise SearchBudgetExceeded("embedding search budget exhausted")


def _ref_hashable(x):
    return int(x) if isinstance(x, (int, np.integer)) else x


def reference_search(src, dst, *, require_iso=False, budget=None, support=None, bud=None):
    """The search loop as it stood before the int kernel: dicts for the map
    and the used images, products through ``mul``, every pool element tried
    in ascending order.  Yields ``(gen_images, images)`` with ``images`` the
    image of each source id; ``bud.spent`` counts the work units so far."""
    bud = bud or _RefBudget(DEFAULT_SEARCH_BUDGET if budget is None else budget)
    dense = isinstance(dst, TableGroup)
    if require_iso and (not dense or src.order != dst.order):
        return
    if dense and dst.order % src.order != 0:
        return
    if src.order == 1:
        yield [], [dst.identity]
        return

    gens = src.greedy_gens
    levels = [bfs_closure(0, list(gens[: i + 1]), src.mul) for i in range(len(gens))]
    src_orders = [src.element_order(g) for g in gens]
    src_cent = [src.centralizer_size(g) for g in gens]

    if dense:
        dorders = dst.element_orders
        pools = []
        for o, cz in zip(src_orders, src_cent):
            cand = np.flatnonzero(dorders == o)
            if require_iso:
                keep = [int(x) for x in cand if dst.centralizer_size(int(x)) == cz]
            else:
                keep = [int(x) for x in cand if dst.centralizer_size(int(x)) >= cz]
            pools.append(keep)
    else:
        if support is None:
            assert dst.order <= TWISTED_FULL_POOL_LIMIT
            it = dst.elements()
        else:
            it = dst.support_elements(support)
        raw = []
        for x in it:
            bud.spend(1)
            raw.append((x, dst.element_order(x)))
        pools = [[x for x, o in raw if o == want] for want in src_orders]

    img = {src.identity: dst.identity}
    used = {_ref_hashable(dst.identity): src.identity}

    def place(level):
        elems, deriv = levels[level]
        gen_elem = gens[level]
        for cand in pools[level]:
            hc = _ref_hashable(cand)
            if hc in used:
                continue
            added = [(gen_elem, hc)]
            img[gen_elem] = cand
            used[hc] = gen_elem
            ok = True
            for e in elems:
                if e in img:
                    continue
                parent, pos = deriv[e]
                bud.spend(1)
                val = dst.mul(img[parent], img[gens[pos]])
                hv = _ref_hashable(val)
                if hv in used:
                    ok = False
                    break
                img[e] = val
                used[hv] = e
                added.append((e, hv))
            if ok:
                for x in elems:
                    for j in range(level + 1):
                        bud.spend(1)
                        if img[src.mul(x, gens[j])] != dst.mul(img[x], img[gens[j]]):
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                if level + 1 == len(gens):
                    yield [(g, img[g]) for g in gens], [img[x] for x in range(src.order)]
                else:
                    yield from place(level + 1)
            for e, hv in added:
                del img[e]
                del used[hv]

    yield from place(0)


def _reference_first(src, dst, **kw):
    """(first yield or None, work units spent up to it or to the end)."""
    bud = _RefBudget(DEFAULT_SEARCH_BUDGET)
    for found in reference_search(src, dst, bud=bud, **kw):
        return found, bud.spent
    return None, bud.spent


def _assert_same_first(got, want, spent, retry):
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.gen_images, got.images) == want
    # the first-witness search fits in the reference's own work units
    again = retry(spent)
    assert (again is None) == (want is None)
    if want is not None:
        assert again.gen_images == want[0]


def _bundled(n: int) -> list[TableGroup]:
    doc = json.loads((_BUNDLED_DIR / f"order{n}.json").read_text())
    return Catalog.from_json(doc).groups()


def _shared_bucket_pairs():
    pairs = []
    for n in range(1, 33):
        buckets: dict[bytes, list[TableGroup]] = {}
        for g in _bundled(n):
            buckets.setdefault(rich_invariant_key(g), []).append(g)
        for groups in buckets.values():
            pairs += [(a, b) for a in groups for b in groups if a is not b]
    return pairs


def test_is_isomorphic_matches_reference_on_shared_buckets():
    pairs = _shared_bucket_pairs()
    assert pairs  # orders 1-32 have rich-key collisions to separate
    for a, b in pairs:
        want, spent = _reference_first(a, b, require_iso=True)
        _assert_same_first(is_isomorphic(a, b), want, spent,
                           lambda k: is_isomorphic(a, b, budget=k))


SMALL_REGISTRY = [
    label for label in registry.available_labels()
    if registry._named_entry(label)["order"] <= 12
]


@pytest.mark.parametrize("label", SMALL_REGISTRY)
def test_first_witnesses_match_reference(label):
    h = construct(f"named({label})")
    for b in _bundled(h.order):
        if rich_invariant_key(b) == rich_invariant_key(h):
            want, spent = _reference_first(h, b, require_iso=True)
            assert want is not None
            _assert_same_first(is_isomorphic(h, b), want, spent,
                               lambda k: is_isomorphic(h, b, budget=k))
    for text in ("S(4)", "A(5)", "S(3) x S(4)"):
        g = construct(text)
        want, spent = _reference_first(h, g)
        _assert_same_first(find_embedding(h, g), want, spent,
                           lambda k: find_embedding(h, g, budget=k))


def test_embedding_verdicts_match_reference_into_order_24():
    refuted = found = 0
    for label in SMALL_REGISTRY:
        h = construct(f"named({label})")
        for g in _bundled(24):
            want = _reference_first(h, g)[0] is not None
            assert (find_embedding(h, g) is not None) == want, label
            found += want
            refuted += not want and 24 % h.order == 0
    assert found and refuted  # both verdicts occur among pairs the divisibility passes


def test_a_stored_derived_order_refutes_only_pairs_with_no_embedding():
    # H embeds in G only if |H'| divides |G'|; wherever a bundled entry's
    # stored derived order refutes a small registry group, the reference
    # search finds no embedding, and some such pair passes the order counts
    refuted = beyond_counts = 0
    for label in SMALL_REGISTRY:
        h = construct(f"named({label})")
        src = Fingerprint.of(h)
        for m in (24, 48):
            doc = json.loads((_BUNDLED_DIR / f"order{m}.json").read_text())
            for e in Catalog.from_json(doc).entries:
                dst = e.fingerprint
                if dst.derived_order % len(h.derived_elements) == 0:
                    continue
                refuted += 1
                beyond_counts += morphisms.order_counts_fit(src.element_orders,
                                                            dst.element_orders)
                assert not morphisms.may_embed(src, dst)
                assert _reference_first(h, e.group)[0] is None, (label, e.recipe_text)
    assert refuted > beyond_counts > 0


def test_twisted_first_witness_matches_reference():
    tw = construct("named(C5xC7xC9xD3xH1)")
    for text, names in (("C(45)", ["C(5)", "C(9)"]), ("C(4)", ["C(5)"])):
        h = construct(text)
        want, spent = _reference_first(h, tw, support=tw.resolve_support(names))
        _assert_same_first(find_embedding(h, tw, support=names), want, spent,
                           lambda k: find_embedding(h, tw, support=names, budget=k))


@pytest.mark.parametrize("text", [t for t, _ in AUT_COUNTS])
def test_automorphism_streams_match_reference(text):
    g = construct(text)
    want = list(reference_search(g, g, require_iso=True))
    got = [(m.gen_images, m.images)
           for m in search_monomorphisms(g, g, require_iso=True)]
    assert got == want
    assert [(m.gen_images, m.images) for m in automorphisms(g)] == want


def test_automorphisms_refuse_a_large_elementary_abelian_group_up_front():
    # |GL(6, 2)| is over AUT_BUDGET, so the stream raises before its first map
    with pytest.raises(AutBudgetExceeded):
        next(automorphisms(construct("EA(2,6)")))


def test_budget_runs_out_at_the_reference_unit():
    a5 = construct("A(5)")
    bud = _RefBudget(DEFAULT_SEARCH_BUDGET)
    count = sum(1 for _ in reference_search(a5, a5, require_iso=True, bud=bud))
    b = bud.spent
    assert count == 120
    assert sum(1 for _ in reference_search(a5, a5, require_iso=True, budget=b)) == 120
    with pytest.raises(SearchBudgetExceeded):
        list(reference_search(a5, a5, require_iso=True, budget=b - 1))
    assert sum(1 for _ in search_monomorphisms(a5, a5, require_iso=True, budget=b)) == 120
    with pytest.raises(SearchBudgetExceeded):
        list(search_monomorphisms(a5, a5, require_iso=True, budget=b - 1))


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _embeds(g):
    assert find_embedding(construct("C(4)"), g) is not None


def _embeds_not(g):
    # the counts of element orders fit, so the kernel runs before it finds nothing
    assert find_embedding(construct("Q(2)"), g) is None


def _isomorphic(g):
    assert is_isomorphic(construct("D(3)"), g) is not None


def _one_automorphism(g):
    stream = automorphisms(g)
    assert next(stream).verify()
    stream.close()


def _over_budget(g):
    try:
        find_embedding(construct("C(6)"), g, budget=1)
    except SearchBudgetExceeded:
        return
    pytest.fail("the search finished inside a budget of 1")


@pytest.mark.parametrize("search, target", [
    (_embeds, "D(12)"),
    (_embeds_not, "C(4) x C(2) x C(2)"),
    (_isomorphic, "S(3)"),
    (_one_automorphism, "D(6)"),
    (_over_budget, "D(12)"),
])
def test_a_finished_search_frees_its_target(no_gc, search, target):
    g = construct(target)
    dead = weakref.ref(g)
    search(g)
    del g
    assert dead() is None
