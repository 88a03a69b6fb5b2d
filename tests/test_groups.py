"""Construction oracles: orders, exponents, centres, classes, and word
evaluation for every constructor, checked against hand-computed values."""

import hashlib
import json
import random
import time
import tracemalloc

import numpy as np
import pytest

from mge import (
    TableGroup,
    TwistedGroup,
    check_table,
    construct,
    find_embedding,
    groups,
    perms,
    quotient_group,
    registry,
    verify,
)
from mge.errors import (
    CentralIdentificationError,
    InvalidAction,
    NotNormal,
    OrderLimitExceeded,
    SubgroupLimitExceeded,
    UnknownGenerator,
)
from mge.enumerator import _BUNDLED_DIR
from mge.groups import ELEMENT, _remap_word, bfs_closure, build_product
from regular_oracle import compose

# constructor text, order, abelian, exponent, centre size
BASIC_FACTS = [
    ("C(1)", 1, True, 1, 1),
    ("C(12)", 12, True, 12, 12),
    ("EA(2,3)", 8, True, 2, 8),
    ("EA(3,2)", 9, True, 3, 9),
    ("D(3)", 6, False, 6, 1),
    ("D(4)", 8, False, 4, 2),
    ("D(7)", 14, False, 14, 1),
    ("Q(2)", 8, False, 4, 2),
    ("Q(3)", 12, False, 12, 2),
    ("S(4)", 24, False, 12, 1),
    ("A(4)", 12, False, 6, 1),
    ("A(5)", 60, False, 30, 1),
    ("C(2) x C(6)", 12, True, 6, 12),
    ("sd(gens(C(7), g1), gens(C(3), t), t.g1=g1^2)", 21, False, 21, 1),
    ("cp(D(4), gens(D(4), c, d), a^2=c^2)", 32, False, 4, 2),
    ("quo(Q(2), a^2)", 4, True, 2, 4),
    ("perm(5; (1 2 3 4 5), (2 5)(3 4))", 10, False, 10, 1),
]


@pytest.mark.parametrize("text, order, abelian, exponent, z", BASIC_FACTS)
def test_basic_facts(text, order, abelian, exponent, z):
    g = construct(text)
    assert g.order == order
    assert g.is_abelian is abelian
    assert g.exponent == exponent
    assert len(g.center_elements) == z
    assert check_table(g.table)


def test_element_order_census():
    q2 = construct("Q(2)")
    counts = np.bincount(q2.element_orders, minlength=5)
    # the quaternion group has a single involution
    assert list(counts[1:5]) == [1, 1, 0, 6]
    a4 = construct("A(4)")
    counts = np.bincount(a4.element_orders, minlength=4)
    assert list(counts[1:4]) == [1, 3, 8]


def test_conjugacy_classes_of_s4():
    s4 = construct("S(4)")
    sizes = sorted(int(s) for s in s4.class_sizes)
    assert sizes == [1, 3, 6, 6, 8]
    assert np.bincount(s4.class_ids).tolist() == s4.class_sizes.tolist()
    assert int(s4.class_sizes.sum()) == 24


def test_derived_and_invariants():
    s4 = construct("S(4)")
    assert len(s4.derived_elements) == 12
    assert s4.abelian_invariants is None
    assert construct("C(12)").abelian_invariants == (12,)
    assert construct("C(2) x C(6)").abelian_invariants == (6, 2)
    assert construct("EA(2,3)").abelian_invariants == (2, 2, 2)
    # perfect: the derived subgroup is everything
    assert len(construct("A(5)").derived_elements) == 60


def test_word_evaluation_round_trip():
    d4 = construct("D(4)")
    assert d4.evaluate_word("1") == d4.identity
    ab = d4.evaluate_word("a*b")
    assert d4.element_order(ab) == 2
    assert d4.evaluate_word("a^-1") == d4.inv_of(d4.evaluate_word("a"))
    for x in d4.elements():
        assert d4.evaluate_word(d4.label_of(x)) == x
    with pytest.raises(UnknownGenerator):
        d4.evaluate_word("z")


def test_cycle_factors_in_words():
    s4 = construct("S(4)")
    x = s4.evaluate_word("(1 2 3 4)*(1 2)")
    assert s4.element_order(x) == 3
    # spaces inside cycles are optional
    assert s4.evaluate_word("(12)(34)") == s4.evaluate_word("(1 2)(3 4)")


def test_power_and_inverse_agree():
    g = construct("Q(3)")
    for x in g.elements():
        assert g.power(x, -1) == g.inv_of(x)
        assert g.power(x, g.element_order(x)) == g.identity
        assert g.mul(x, g.inv_of(x)) == g.identity


def test_product_needs_distinct_names():
    with pytest.raises(InvalidAction):
        construct("sd(C(7), C(3), t.g1=g1^2)")


def test_table_limit_guard():
    with pytest.raises(OrderLimitExceeded):
        construct("C(5001)")


def _reference_dihedral(n):
    """D(n) by its own broadcast formula: index ``flip * n + rot`` is
    ``a^rot * b^flip``, and b inverts a."""
    i = np.arange(2 * n, dtype=ELEMENT)
    rot, flip = i % n, i // n
    ri, rj = rot[:, None], rot[None, :]
    fi, fj = flip[:, None], flip[None, :]
    return (fi ^ fj) * n + np.where(fi == 0, ri + rj, ri - rj) % n, {"a": 1 % n, "b": n}


def _reference_dicyclic(n):
    """Q(n) by its own broadcast formula: as D(2n), but b^2 = a^n."""
    tn = 2 * n
    i = np.arange(2 * tn, dtype=ELEMENT)
    rot, flip = i % tn, i // tn
    ri, rj = rot[:, None], rot[None, :]
    fi, fj = flip[:, None], flip[None, :]
    newrot = (np.where(fi == 0, ri + rj, ri - rj) + (fi & fj) * n) % tn
    return (fi ^ fj) * tn + newrot, {"a": 1, "b": tn}


def _reference_elem_abelian(p, k):
    """EA(p,k) by its own broadcast formula: the digitwise sum mod p, digit
    i of weight p^i."""
    idx = np.arange(p**k, dtype=ELEMENT)
    table = np.zeros((p**k, p**k), dtype=ELEMENT)
    for i in range(k):
        d = (idx // p**i) % p
        table += ((d[:, None] + d[None, :]) % p) * p**i
    return table, {f"a{i + 1}": p**i for i in range(k)}


def _reference_tables():
    """(text, table, gens) of D(1..200), D(2500), Q(1..100), Q(1250) and
    EA(p,k) for p <= 13 and every k, one at a time."""
    for n in [*range(1, 201), 2500]:
        yield f"D({n})", *_reference_dihedral(n)
    for n in [*range(1, 101), 1250]:
        yield f"Q({n})", *_reference_dicyclic(n)
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 13):
            if p**k <= groups.TABLE_LIMIT:
                yield f"EA({p},{k})", *_reference_elem_abelian(p, k)


def test_named_builders_match_their_own_broadcast_formulas():
    # D(n) and Q(n) are cyclic extensions and EA(p,k) the product fold of
    # C(p); each still gives the table, generators and digest of its formula
    for text, table, gens in _reference_tables():
        g = construct(text)
        assert g.table.dtype == ELEMENT and np.array_equal(g.table, table), text
        assert g.gens == gens, text
        want = hashlib.sha256()
        for rows in range(0, len(table), 256):
            want.update(table[rows:rows + 256].astype(np.int32))
        assert g.table_hash == want.hexdigest(), text


def test_a_perm_degree_past_the_limit_is_refused():
    # the group has order 2, but each cycle would be read into 5001 points
    with pytest.raises(OrderLimitExceeded, match="degree 5001"):
        construct("perm(5001; (1 2))")


def test_product_names_that_collide_after_renaming_are_refused():
    # C(3)'s a would become a_2, the name C(2)'s generator already has
    with pytest.raises(InvalidAction, match="rename with gens"):
        construct("gens(C(2), a_2) x C(3) x C(4)")


def test_symmetric_and_alternating_past_the_limit_are_refused_at_once():
    for text in ("S(1000000)", "A(1000000)", "S(7)"):
        start = time.perf_counter()
        with pytest.raises(OrderLimitExceeded):
            construct(text)
        assert time.perf_counter() - start < 1.0, text
    assert construct("S(6)").order == 720
    assert construct("A(7)").order == 2520


@pytest.mark.parametrize(
    "text, order",
    [("perm(4; (1234), (12)) x C(2)", 48), ("quo(S(4), (12)(34), (13)(24)) x C(2)", 12)],
)
def test_direct_product_builds_each_factor_once(text, order, monkeypatch):
    build, calls = groups.build_perm_group, []
    monkeypatch.setattr(groups, "build_perm_group", lambda *a: calls.append(a) or build(*a))
    assert construct(text).order == order
    assert len(calls) == 1


def test_subgroup_and_sylow():
    s4 = construct("S(4)")
    h = s4.subgroup([s4.evaluate_word("(12)"), s4.evaluate_word("(34)")])
    assert h.order == 4
    want = {s4.identity} | {
        s4.evaluate_word(w) for w in ("(12)", "(34)", "(12)(34)")
    }
    assert set(h.elements) == want
    assert h.group.is_abelian and h.group.exponent == 2


def test_subgroup_of_generating_elements():
    s4 = construct("S(4)")
    h = s4.subgroup([s4.evaluate_word("(123)"), s4.evaluate_word("(12)(34)")])
    assert h.order == 12
    assert set(h.elements) == set(s4.derived_elements)
    assert set(h.group.gens) == {"g1", "g2"}
    assert not h.group.is_abelian


def test_subgroup_elements_are_in_discovery_order():
    s4 = construct("S(4)")
    gens = [s4.evaluate_word("(123)"), s4.evaluate_word("(12)(34)")]
    h = s4.subgroup(gens)
    assert h.elements == bfs_closure(0, gens, s4.mul)[0]
    assert [h.elements[int(x)] for x in h.group.gens.values()] == gens
    index = {e: i for i, e in enumerate(h.elements)}
    assert h.group.table.tolist() == [[index[s4.mul(a, b)] for b in h.elements]
                                      for a in h.elements]


def test_quotient_groups():
    s4 = construct("S(4)")
    v4 = [s4.identity] + [x for x in s4.elements() if s4.label_of(x) in ("(12)(34)", "(13)(24)", "(14)(23)")]
    q = quotient_group(s4, v4)
    assert q.order == 6 and not q.is_abelian
    d4 = construct("D(4)")
    q2 = quotient_group(d4, d4.center_elements)
    assert q2.order == 4 and q2.exponent == 2
    with pytest.raises(NotNormal):
        quotient_group(s4, [s4.identity, s4.evaluate_word("(12)")])
    with pytest.raises(NotNormal):
        construct("quo(S(3), (12))")  # the words generate a subgroup, not its normal closure


def test_quotient_tabulates_no_subgroup(monkeypatch):
    init, orders = TableGroup.__init__, []

    def counted(self, table, *a, **k):
        orders.append(len(table))
        init(self, table, *a, **k)

    monkeypatch.setattr(TableGroup, "__init__", counted)
    assert construct("quo(S(4), (12)(34), (13)(24))").order == 6
    assert orders == [24, 6]


def test_central_product_rejects_bad_identification():
    with pytest.raises(CentralIdentificationError):
        construct("cp(D(4), gens(D(4), c, d), a=c)")  # a is not central
    with pytest.raises(CentralIdentificationError):
        construct("cp(C(4), gens(C(8), c), a=c)")  # order 4 vs 8


def test_bfs_closure_calls_mul_per_element_then_generator():
    # the order its docstring states: call i * k + pos forms elems[i] * gens[pos]
    s4 = construct("S(4)")
    gens = [s4.evaluate_word("(1234)"), s4.evaluate_word("(12)")]
    calls = []
    elems, deriv = bfs_closure(0, gens, lambda x, y: calls.append((x, y)) or s4.mul(x, y))
    assert calls == [(x, g) for x in elems for g in gens]
    assert all(s4.mul(deriv[e][0], gens[deriv[e][1]]) == e for e in elems[1:])


def test_bfs_closure_generic():
    elems, deriv = bfs_closure(0, [1], lambda a, b: (a + b) % 5)
    assert sorted(elems) == [0, 1, 2, 3, 4]
    assert deriv[0] is None and deriv[2] == (1, 0)
    assert bfs_closure(0, [], lambda a, b: a)[0] == [0]


def test_along_generators_names_bindings_that_do_not_generate():
    c4 = construct("C(4)")
    assert groups.along_generators(c4, [1], [3], c4.mul, 0) == [0, 3, 2, 1]  # x -> x^3
    g = TableGroup(c4.table, {"a": 2})  # a = x^2 generates only {1, x^2}
    assert groups.along_generators(g, [2], [2], g.mul, 0) is None
    assert g.labels == ["#0", "#1", "#2", "#3"]
    with pytest.raises(InvalidAction, match="generator images must cover a generating set"):
        groups.gen_image_map(g, {})
    with pytest.raises(InvalidAction, match="acting generators do not generate the acting group"):
        groups.build_semidirect(construct("C(3)"), TableGroup(c4.table, {"t": 2}), ())


def test_table_hash_is_stable_and_structural():
    a = construct("D(4)")
    b = construct("D(4)")
    assert a.table_hash == b.table_hash
    assert a.table_hash != construct("Q(2)").table_hash


@pytest.mark.parametrize(
    "text",
    [
        "C(12)",
        "D(3) x Q(2)",
        "sd(gens(C(7), g1), gens(C(3), t), t.g1=g1^2)",
        "perm(5; (1 2 3 4 5), (2 5)(3 4))",
    ],
)
def test_table_hash_is_the_int32_table_digest(text):
    g = construct(text)
    want = hashlib.sha256(g.table.astype(np.int32).tobytes()).hexdigest()
    assert g.table_hash == want


def test_group_table_is_read_only():
    g = construct("S(3)")
    before = g.table.copy()
    with pytest.raises(ValueError):
        g.table[1, 2] = 5
    with pytest.raises(ValueError):
        g.table.fill(0)
    assert (g.table == before).all()


def test_table_group_keeps_its_table_without_a_copy():
    n = 1200
    table = ((np.arange(n)[:, None] + np.arange(n)) % n).astype(np.int16)
    tracemalloc.start()
    try:
        g = TableGroup(table, {"a": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(g.table, table)
    assert peak < table.nbytes / 10
    assert g.inv_of(1) == n - 1


def test_regular_permutation_group_is_built_in_one_table():
    cycle = "(" + " ".join(str(i) for i in range(1, 1201)) + ")"
    tracemalloc.start()
    try:
        g = construct(f"perm(1200; {cycle})")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.table.dtype == ELEMENT
    assert np.shares_memory(g.perm_elems.mat, g.table)
    assert peak < 1.5 * g.table.nbytes


def test_central_product_of_large_factors_is_quick():
    # the least element of each coset is found in the left factor: C(2000)
    # x C(2000) has 4,000,000 pairs, which are never multiplied
    start = time.perf_counter()
    g = construct("cp(C(2000), C(2000), a=a)")
    assert time.perf_counter() - start < 2.0
    assert g.order == 2000 and g.abelian_invariants == (2000,)


def test_resolving_a_cycle_keeps_no_second_table():
    cycle = "(" + " ".join(str(i) for i in range(1, 1201)) + ")"
    g = construct(f"perm(1200; {cycle})")
    tracemalloc.start()
    try:
        assert g.evaluate_word(cycle) == 1
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.table.nbytes / 10 and kept < g.table.nbytes / 10


def test_a_cycle_sharing_leading_images_is_no_element():
    g = construct("perm(4; (1234))")  # regular: an element is known by its image of 1
    assert g.evaluate_word("(1234)") == 1
    assert g._resolve_cycles("(12)") is None  # (12) also sends 1 to 2
    with pytest.raises(UnknownGenerator):
        g.evaluate_word("(12)")
    s4 = construct("S(4)")
    assert s4.perm_elems.index_of([[1, 0, 2, 3], [1, 0, 3, 3]]).tolist() == [
        s4.evaluate_word("(12)"), -1]


def test_central_product_flat_ids_past_the_element_dtype():
    # the pair (l, r) of C(200) x C(200) has the flat id 200*l + r, up to
    # 39,999, which an ELEMENT product would wrap; the quotient is rebuilt
    # here from least coset representatives in int64
    g = construct("cp(C(200), C(200), a=a)")
    n = 200
    flat = np.arange(n * n, dtype=np.int64)
    l, r = flat // n, flat % n
    least = np.min([(l + i) % n * n + (r - i) % n for i in range(n)], axis=0)
    reps = np.flatnonzero(least == flat)
    coset = np.searchsorted(reps, least)
    rl, rr = reps // n, reps % n
    want = coset[(rl[:, None] + rl) % n * n + (rr[:, None] + rr) % n]
    assert g.order == n and (g.table == want).all()
    assert g.table_hash == "1e4379b57bd6889d52b98ae706c67975086093eb0e532d47ce20ce642cd95884"


def test_product_element_orders_are_the_lcm_of_factor_orders():
    # at order 3360 a flat cell index x * n + x passes the ELEMENT range
    g = construct("named(C5xC7xD3xH1)")
    ids = np.arange(g.n)
    want = np.ones(g.n, dtype=np.int64)
    for c in g.components:
        want = np.lcm(want, c.group.element_orders[ids // c.stride % c.group.n])
    assert len(g.components) == 4
    assert (g.element_orders == want).all()


def test_is_abelian_agrees_with_the_full_table_comparison():
    exprs = ["S(4)"] + [e for n in range(1, 16) for e in registry.groups_of_order(n)]
    for e in exprs:
        g = construct(e)
        assert g.is_abelian == bool((g.table == g.table.T).all()), e


# factors, then each factor's generator renaming inside the product
PRODUCT_BUILDS = [
    (
        ["D(3)", "Q(2)", "C(1)"],
        [{"a": "a_1", "b": "b_1"}, {"a": "a_2", "b": "b_2"}, {"a": "a_3"}],
    ),
    (["C(2)", "C(2)", "C(2)"], [{"a": "a_1"}, {"a": "a_2"}, {"a": "a_3"}]),
    (
        ["S(3)", "A(4)"],
        [{"(123)": "(123)_1", "(12)": "(12)"}, {"(123)": "(123)_2", "(234)": "(234)"}],
    ),
]


@pytest.mark.parametrize("texts, renames", PRODUCT_BUILDS)
def test_product_table_matches_brute_force(texts, renames):
    factors = [construct(t) for t in texts]
    g = build_product(factors)
    n = g.n
    strides = []
    rest = n
    for f in factors:
        rest //= f.n
        strides.append(rest)
    assert rest == 1 and [c.stride for c in g.components] == strides

    def digits(x):
        return [(x // r) % f.n for f, r in zip(factors, strides)]

    def product(x, y):
        cells = zip(factors, strides, digits(x), digits(y))
        return sum(int(f.table[dx, dy]) * r for f, r, dx, dy in cells)

    table = [[product(x, y) for y in range(n)] for x in range(n)]
    assert g.table.tolist() == table
    assert g.gens == {
        ren[name]: int(e) * r
        for f, r, ren in zip(factors, strides, renames)
        for name, e in f.gens.items()
    }
    for x in range(n):
        parts = []
        for f, r, ren, d in zip(factors, strides, renames, digits(x)):
            if d == 0:
                continue
            # a factor's label that names another element of the product (or
            # none) is replaced by a word in the factor's renamed generators
            word = _remap_word(f.label_of(d), ren)
            try:
                same = g.evaluate_word(word) == d * r
            except UnknownGenerator:
                same = False
            parts.append(word if same else _remap_word(f._bfs_labels()[d], ren))
        assert g.label_of(x) == ("*".join(parts) or "1")


# products whose factors share cycle strings, each with how many labels did
# not evaluate back before factor labels were checked: S(3) x S(4) 84 of 144
# (81 raised, 3 named another element), S(3) x A(4) 17 of 72, A(4) x A(4) 135
# of 144; the twisted S(5) x A(5) 189 of the 195 sampled
@pytest.mark.parametrize(
    "text, step", [("S(3) x S(4)", 1), ("S(3) x A(4)", 1), ("A(4) x A(4)", 1), ("S(5) x A(5)", 37)]
)
def test_every_product_label_evaluates_back(text, step):
    g = construct(text)
    assert isinstance(g, TwistedGroup) == (text == "S(5) x A(5)")
    for x in list(g.elements())[::step]:
        assert g.evaluate_word(g.label_of(x)) == x, g.label_of(x)


def test_twisted_product_basics():
    tw = construct("named(C5xC7xC9xD3xH1)")
    assert isinstance(tw, TwistedGroup)
    assert tw.order == 30240
    assert tw.comp_names == ["C(5)", "C(7)", "C(9)", "D(3)", "H1"]
    e = tw.identity
    assert tw.mul(e, e) == e
    x = tw.evaluate_word("a_1*a_3")
    assert tw.element_order(x) == 45  # C5 and C9 parts in one word
    assert tw.evaluate_word(tw.label_of(x)) == x
    assert tw.resolve_support(["H1"]) == [4]
    assert tw.resolve_support("04") == [0, 4]


def test_twisted_products_follow_the_componentwise_formula():
    # (b1, d1)(b2, d2) = (b1 * d1(b2), d1 xor d2), with and without twist bits
    tw = construct("named(BIG12_SOL)")
    rng = random.Random(3)

    def random_element():
        return (tuple(rng.randrange(c.n) for c in tw.components), rng.randrange(1 << tw.rank))

    for _ in range(300):
        (b1, d1), (b2, d2) = x, y = random_element(), random_element()
        if rng.random() < 0.5:
            x = (b1, d1 := 0)
        want = []
        for ci, g in enumerate(tw.components):
            act = tw._composed(ci, d1)
            want.append(int(g.table[b1[ci], b2[ci] if act is None else act[b2[ci]]]))
        assert tw.mul(x, y) == (tuple(want), d1 ^ d2)
        inv = tw.inv_of(x)
        assert tw.mul(x, inv) == tw.identity == tw.mul(inv, x)


@pytest.mark.parametrize("cert", ["big12_sol", "bigprod_upto15"])
def test_twisted_subgroup_tables_match_brute_force(cert):
    # the certificate subgroups of a twisted ambient, tabulated from right
    # multiplication by their generators, against one product per cell
    data = json.loads((verify._CERT_DIR / f"{cert}.json").read_text())
    tw = construct(data["ambient"])
    assert isinstance(tw, TwistedGroup)
    for claim in data["claims"]:
        h = tw.subgroup(claim["generators"])
        index = {e: i for i, e in enumerate(h.elements)}
        want = [[index[tw.mul(a, b)] for b in h.elements] for a in h.elements]
        assert h.group.table.tolist() == want, claim


def test_twisted_subgroup_forms_each_product_once(monkeypatch):
    # the closure's (element, generator) products are the subgroup's table:
    # the ambient multiplies k * |H| times, and no second pass is made
    tw = construct("named(BIGPROD)")
    words = ["c^3", "theta3", "a2"]
    mul, calls = TwistedGroup.mul, []
    monkeypatch.setattr(TwistedGroup, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y))
    gens = [tw.evaluate_word(w) for w in words]
    calls.clear()
    h = tw.subgroup(gens)
    assert h.order > 1 and len(calls) == len(gens) * h.order


def test_table_products_are_plain_ints():
    g = construct("C(7) x S(5)")
    rng = random.Random(4)
    for _ in range(200):
        a, b = rng.randrange(g.n), rng.randrange(g.n)
        assert type(g.mul(a, b)) is int and g.mul(a, b) == int(g.table[a, b])
        assert type(g.inv_of(a)) is int and g.inv_of(a) == int(g.inv[a])


def test_twisted_support_elements_count():
    tw = construct("named(C5xC7xC9xD3xH1)")
    pool = list(tw.support_elements([0, 3]))
    assert len(pool) == 5 * 6  # product of the selected component orders


def test_twisted_family_has_twist_generators():
    big = construct("named(BIG12_SOL)")
    assert isinstance(big, TwistedGroup)
    assert big.order == 665280
    assert "sigma" in big.gens
    s = big.evaluate_word("sigma")
    assert big.element_order(s) == 2
    inv = big.inv_of(s)
    assert big.mul(s, inv) == big.identity


def test_twisted_factor_keeps_its_twists_in_a_larger_product():
    big = construct("named(BIG12_SOL)")
    g = construct("named(BIG12_SOL) x C(2)")
    assert isinstance(g, TwistedGroup) and g.order == 1_330_560 == 2 * big.order
    assert g.comp_names == [*big.comp_names, "C(2)"]
    sigma = g.evaluate_word("sigma")
    assert sigma == ((0,) * 7, 1) and g.mul(sigma, sigma) == g.identity
    (twist,) = g.dgens
    # the twist's actions are padded with no action on the new component
    assert len(twist.actions) == 7 and twist.actions[-1] is None
    for got, want in zip(twist.actions, big.dgens[0].actions):
        assert (got is None and want is None) or np.array_equal(got, want)
    a = g.evaluate_word("a")
    assert g.mul(sigma, a) == g.mul(a, sigma)
    with pytest.raises(ValueError, match="twist generator name 'sigma' collides"):
        construct("named(BIG12_SOL) x named(BIG12_NONSOL)")


def test_gens_renames_a_twisted_group():
    plain = construct("named(C5xC7xC9xD3xH1)")
    tw = construct("gens(named(C5xC7xC9xD3xH1), p, q, r, s, t, u, v)")
    assert list(tw.gens) == list("pqrstuv")
    assert list(tw.gens.values()) == list(plain.gens.values())
    assert tw.label_of(tw.gens["t"]) == "t"
    assert tw.evaluate_word("p*v") == plain.evaluate_word("a_1*x2")
    big = construct("gens(named(BIG12_SOL), p1, p2, q1, q2, q3, c, d, e, f, s)")
    assert big.dgens[0].name == "s" and big.evaluate_word("s") == ((0,) * 6, 1)
    x = big.evaluate_word("p1*s")
    assert big.label_of(x) == "p1*s" and big.evaluate_word(big.label_of(x)) == x
    with pytest.raises(UnknownGenerator):
        big.evaluate_word("sigma")


def test_gens_renames_a_copy_of_a_named_ambient():
    names = ", ".join(["p1", "p2", "q1", "q2", "q3", "c", "d", "e", "f", "s"])
    renamed = construct(f"gens(named(BIG12_SOL), {names})")
    plain = construct("named(BIG12_SOL)")
    assert renamed is not plain and list(renamed.gens)[-1] == "s"
    assert plain.dgens[0].name == "sigma" and "a1" in plain.gens and "p1" not in plain.gens
    assert plain.label_of(plain.evaluate_word("a1*sigma")) == "a1*sigma"


def test_a_direct_product_reads_its_classes_off_its_factors():
    assert "_conjugacy" in construct("named(C5xC7xD3xH1)").__dict__
    assert "_conjugacy" not in construct("named(H1)").__dict__  # a semidirect product
    for text in ["S(3) x A(4) x C(2)", "Q(2) x D(4)", "C(1) x S(3)", "D(5) x C(1) x C(3)"]:
        g = construct(text)
        got, want = g._conjugacy, TableGroup(g.table, g.gens)._conjugacy
        assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype, text
        assert got[1] == want[1] and all(type(r) is int for r in got[1]), text
        assert np.array_equal(got[2], want[2]) and got[2].dtype == want[2].dtype, text


def test_dense_registry_groups_stay_dense():
    for label, order in [("W3", 243), ("W5", 3125), ("GP6_3", 729), ("S3xS4", 144)]:
        g = construct(f"named({label})")
        assert isinstance(g, TableGroup)
        assert g.order == order


def test_check_table_rejects_non_group():
    bad = np.zeros((3, 3), dtype=np.int64)
    assert not check_table(bad)
    assert check_table(construct("C(7)").table)


@pytest.mark.parametrize("amap", [[0, 2, 2], [0, 1, 5], [0, -1, 1], [0, 1], [1, 0, 2]])
def test_an_action_that_is_no_bijection_fixing_the_identity_is_refused(amap):
    with pytest.raises(InvalidAction, match="is not a bijection fixing the identity"):
        groups._require_automorphism(construct("C(3)"), np.array(amap), "action")


def _brute_force_perm_table(degree, cycles):
    """Reference table: closure by compose, elements in lexicographic
    order (the identity is the least tuple), one compose call per cell."""
    gens = [perms.parse_cycles(c, degree=degree) for c in cycles]
    closure, _ = bfs_closure(tuple(range(degree)), gens, compose)
    elems = sorted(closure)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[compose(a, b)] for b in elems] for a in elems]
    names = {perms.format_cycles(p): index[p] for p in gens}
    return elems, table, names


# text, and the degree and generators it is built from
PERM_BUILDS = [
    ("S(5)", 5, ["(1 2 3 4 5)", "(1 2)"]),
    ("A(5)", 5, ["(1 2 3)", "(1 2 3 4 5)"]),
    ("perm(10; (1 2 3 4), (1 2), (5 6 7)(9 10))", 10, ["(1 2 3 4)", "(1 2)", "(5 6 7)(9 10)"]),
    ("A(2)", 2, ["()"]),
    ("perm(1; ())", 1, ["()"]),
    ("perm(4; (1 2 3 4), (1 2 3 4), (1 3))", 4, ["(1 2 3 4)", "(1 2 3 4)", "(1 3)"]),
]


@pytest.mark.parametrize("text, degree, cycles", PERM_BUILDS)
def test_perm_table_matches_brute_force(text, degree, cycles):
    g = construct(text)
    elems, table, names = _brute_force_perm_table(degree, cycles)
    assert g.perm_elems.mat.tolist() == [list(p) for p in elems]
    assert g.table.tolist() == table
    assert g.gens == names


def test_perm_closure_limit():
    with pytest.raises(SubgroupLimitExceeded):
        construct("perm(8; (1 2 3 4 5 6 7 8), (1 2))")


def test_labels_are_formatted_on_demand():
    for g in (
        construct("perm(5; (1 2 3 4 5), (2 5)(3 4))"),
        construct("gens(C(2) x S(3) x D(4), u, v, w, x, y)"),
        construct("quo(Q(2), a^2)"),
    ):
        assert [g.label_of(x) for x in g.elements()] == g.labels
    ambient = construct("perm(7; (1 2 3), (4 5 6 7), (4 5))")
    m = find_embedding(construct("C(12)"), ambient)
    assert m is not None and m.witness_words()
    assert "labels" not in ambient.__dict__


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 60])
def test_cyclic_labels_are_powers_of_the_generator(n):
    for text, name in ((f"C({n})", "a"), (f"gens(C({n}), x)", "x")):
        g = construct(text)
        assert g.labels == ["1"] + [name if k == 1 else f"{name}^{k}" for k in range(1, n)]
        assert g.label_of(n - 1) == g.labels[-1]


def _exhaustive_greedy_gens(g):
    """The greedy generating sequence found by closing every candidate in
    every round: the reference that the pruned ``greedy_gens`` must match."""
    if g.n == 1:
        return ()
    first = int(np.lexsort((np.arange(g.n), -g.element_orders))[0])
    chosen = [first]
    have = set(bfs_closure(0, chosen, g.mul)[0])
    while len(have) < g.n:
        best, best_size = -1, -1
        for x in range(g.n):
            if x in have:
                continue
            size = len(bfs_closure(0, chosen + [x], g.mul)[0])
            if size > best_size:
                best, best_size = x, size
        chosen.append(best)
        have = set(bfs_closure(0, chosen, g.mul)[0])
    return tuple(chosen)


def test_greedy_gens_matches_exhaustive_reference():
    texts = ["S(4)", "A(5)", "S(3) x S(4)", "EA(2,6)"]
    for n in range(1, 33):
        doc = json.loads((_BUNDLED_DIR / f"order{n}.json").read_text())
        texts += [e["recipe"] for e in doc["entries"]]
    for text in texts:
        g = construct(text)
        assert g.greedy_gens == _exhaustive_greedy_gens(g), text


@pytest.mark.parametrize("text, most", [("S(3) x S(4)", 8), ("EA(2,6)", 64)])
def test_greedy_gens_skips_covered_candidates(monkeypatch, text, most):
    g = construct(text)
    assert "greedy_gens" not in g.__dict__
    calls = []

    def counting_closure(*args, **kwargs):
        calls.append(1)
        return bfs_closure(*args, **kwargs)

    monkeypatch.setattr("mge.groups.bfs_closure", counting_closure)
    assert g.greedy_gens
    assert 0 < len(calls) <= most
