"""Structural laws checked over randomly sampled groups and subgroups:
Lagrange divisibility, the class equation, fingerprint invariance under
relabeling, centralizer closure of commutator actions, and word round-trips."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mge import construct, is_isomorphic
from mge.enumerator import enumerate_groups
from mge.groups import TableGroup, bfs_closure
from mge.morphisms import Fingerprint, find_embedding

POOL_ORDERS = [1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 20, 21, 24, 27]
POOL = [e.group for n in POOL_ORDERS for e in enumerate_groups(n).entries]
SMALL = [g for g in POOL if g.order <= 24]

group_idx = st.integers(0, len(POOL) - 1)
small_idx = st.integers(0, len(SMALL) - 1)


def closure(g: TableGroup, gens) -> list[int]:
    elems, _ = bfs_closure(g.identity, sorted(set(gens)), g.mul)
    return elems


@settings(deadline=None)
@given(group_idx, st.lists(st.integers(0, 10_000), max_size=3))
def test_lagrange(idx, raw):
    g = POOL[idx]
    gens = [r % g.order for r in raw]
    sub = closure(g, gens)
    assert g.order % len(sub) == 0


@settings(deadline=None)
@given(group_idx)
def test_class_equation(idx):
    g = POOL[idx]
    sizes = g.class_sizes
    assert int(sizes.sum()) == g.order
    assert all(g.order % int(s) == 0 for s in sizes)
    assert int((sizes == 1).sum()) == len(g.center_elements)


@settings(deadline=None)
@given(group_idx, st.randoms(use_true_random=False))
def test_fingerprint_survives_relabeling(idx, rng):
    g = POOL[idx]
    sigma = np.arange(g.order)
    tail = list(range(1, g.order))
    rng.shuffle(tail)
    sigma[1:] = tail
    relabeled = np.empty_like(g.table)
    relabeled[np.ix_(sigma, sigma)] = sigma[g.table]
    h = TableGroup(relabeled, {"g1": int(sigma[g.greedy_gens[0]])} if g.order > 1 else {})
    assert Fingerprint.of(h) == Fingerprint.of(g)
    assert is_isomorphic(g, h) is not None


@settings(deadline=None)
@given(group_idx, st.integers(0, 10_000))
def test_word_round_trip(idx, raw):
    g = POOL[idx]
    x = raw % g.order
    assert g.evaluate_word(g.label_of(x)) == x


@settings(deadline=None)
@given(group_idx, st.integers(0, 10_000), st.integers(-6, 6))
def test_power_respects_element_order(idx, raw, k):
    g = POOL[idx]
    x = raw % g.order
    o = g.element_order(x)
    assert g.power(x, k) == g.power(x, k % o)
    assert g.power(x, o) == g.identity


def _centralizes(g: TableGroup, x: int, elems) -> bool:
    return all(g.mul(x, e) == g.mul(e, x) for e in elems)


def _commutator_subgroup(g: TableGroup, a_elems, b_elems) -> list[int]:
    comms = {
        g.mul(g.inv_of(g.mul(b, a)), g.mul(a, b))
        for a in a_elems
        for b in b_elems
    }
    return closure(g, comms)


@settings(deadline=None, max_examples=60)
@given(small_idx, st.lists(st.integers(0, 10_000), min_size=1, max_size=2),
       st.lists(st.integers(0, 10_000), min_size=1, max_size=2))
def test_centralizer_transfer_of_commutators(idx, raw_a, raw_b):
    """If B centralizes [A,B] and [A,B] is abelian, the derived subgroup of
    B centralizes A."""
    g = SMALL[idx]
    a_elems = closure(g, [r % g.order for r in raw_a])
    b_elems = closure(g, [r % g.order for r in raw_b])
    ab = _commutator_subgroup(g, a_elems, b_elems)

    hyp_central = all(_centralizes(g, b, ab) for b in b_elems)
    hyp_abelian = all(g.mul(x, y) == g.mul(y, x) for x in ab for y in ab)
    if not (hyp_central and hyp_abelian):
        return
    b_derived = _commutator_subgroup(g, b_elems, b_elems)
    for d in b_derived:
        assert _centralizes(g, d, a_elems)


EMBED_POOL = ["C(2)", "C(3)", "C(4)", "EA(2,2)", "C(6)", "D(3)", "C(8)",
              "D(4)", "Q(2)", "A(4)"]
HOSTS = ["S(4)", "D(6)", "C(2) x D(4)", "A(5)", "named(H2)"]


@settings(deadline=None, max_examples=50)
@given(st.integers(0, len(EMBED_POOL) - 1), st.integers(0, len(HOSTS) - 1))
def test_embedding_witnesses_are_sound(hi, gi):
    h, g = construct(EMBED_POOL[hi]), construct(HOSTS[gi])
    m = find_embedding(h, g)
    if m is None:
        return  # absence is a valid outcome; soundness only binds witnesses
    assert m.verify()
    for src_word, dst_word in m.witness_words():
        assert m(h.evaluate_word(src_word)) == g.evaluate_word(dst_word)
