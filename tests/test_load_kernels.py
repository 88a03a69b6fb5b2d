"""The routines a checked catalog load runs, against their earlier forms.

Each ``ref_*`` function below is the routine as it stood before it was made
cheaper: a per-level sorted closure, a per-character cycle parser and raw
segment scanner, one ``np.unique`` per conjugacy class, a Python closure of
every distinct commutator, element orders by repeated multiplication, and
invariant factors by splitting off one largest cyclic subgroup at a time.
The current routines must give the same values on every bundled catalog
entry of orders 1-64 and every dense registry group (the order-840 and
order-3360 containment ambients among them), and the parsers must accept
and reject the same strings.  The permutation group build, which now reads
every group off a Schreier tree (of point 0, or of the identity under left
multiplication), is compared with the build that closed every group row by
row, located each product by its images of a base, and named its
generators up front.  The semidirect product, now one broadcast, is
compared with the build that filled one block per pair of actor elements,
on every registry group that has one and on invalid actions.  The quotient
and the central product, which are now tabulated from the right action of
their generators on the cosets, are compared with the builds that checked normality one element at a time and filled
the central product's table one row at a time.

The routines cold enumeration runs on each candidate are compared the same
way: the bucket key built from per-element ``power`` calls, the derived
series through one table per term, sliced from the term before, the extension table
filled one block at a time, the generating set of Aut(N) grown by one
``bfs_closure`` over byte-keyed maps per generator added, the classes
of extension automorphisms marked one map at a time, and the maps of an
elementary abelian base read off the coordinate dictionaries of all q^k
vectors, where they now extend from the images of the basis."""

import itertools
import json
import random
import re

import numpy as np
import pytest

from mge import TableGroup, construct, groups, perms, quotient_group, registry
from mge.enumerator import (
    _BUNDLED_DIR,
    Catalog,
    _aut_listing,
    _ea_alpha_matrices,
    _ea_alpha_pairs,
    _extension_table,
    _generic_alpha_pairs,
)
from mge.errors import (
    CentralIdentificationError,
    EngineError,
    InvalidAction,
    NotNormal,
    OrderLimitExceeded,
    ParseError,
    SubgroupLimitExceeded,
)
from mge.expressions import PermGroupExpr, _Scanner, parse_expr
from mge.groups import (
    SUBGROUP_LIMIT,
    TABLE_LIMIT,
    _perm_closure,
    _row_blocks,
    bfs_closure,
)
from mge.morphisms import (
    Fingerprint,
    automorphisms,
    derived_series_orders,
    elem_abelian_prime,
    rich_invariant_key,
)
from mge.numtheory import factorization

# --- the earlier routines -----------------------------------------------------


def _ref_row_order(mat):
    rows = np.ascontiguousarray(mat, dtype=">i4")
    return np.argsort(rows.view(np.dtype((np.void, 4 * mat.shape[1]))).ravel(), kind="stable")


def ref_perm_closure(degree, gens):
    found = np.arange(degree, dtype=np.int32)[None, :]
    frontier = found
    while len(frontier):
        both = np.concatenate([found, gens[:, frontier].reshape(-1, degree)])
        order = _ref_row_order(both)
        rows = both[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        idx = order[first]
        frontier = both[idx[idx >= len(found)]]
        found = np.concatenate([found, frontier])
        if len(found) > SUBGROUP_LIMIT:
            raise SubgroupLimitExceeded(f"closure exceeded {SUBGROUP_LIMIT} elements")
    return found[_ref_row_order(found)]


class RefPermElements:
    """Rows of images located by their images of a greedy base (the base of
    Schreier-Sims), one dense ``(key so far, image) -> next key`` table per
    base point, -1 where no element continues that way."""

    def __init__(self, mat):
        n, degree = mat.shape
        self.mat = mat
        self.degree = degree
        self.base = []
        self._steps = []
        key = np.zeros(n, dtype=np.int64)
        classes = 1
        for b in range(degree):
            if classes == n:
                break
            vals, ranks = np.unique(key * degree + mat[:, b], return_inverse=True)
            if len(vals) > classes:
                step = np.full((classes + 1) * degree, -1, dtype=np.intp)
                step[vals] = np.arange(len(vals))
                self.base.append(b)
                self._steps.append(step)
                key, classes = ranks.reshape(n), len(vals)
        self._elem_of_key = np.full(n + 1, -1, dtype=np.int64)  # key -1 -> -1
        self._elem_of_key[key] = np.arange(n)

    def locate(self, images):
        if not self._steps:  # the trivial group
            return np.zeros(images.shape[:-1], dtype=np.int64)
        key = self._steps[0].take(images[..., 0])
        for k, step in enumerate(self._steps[1:], start=1):
            key = step.take(key * self.degree + images[..., k])
        return self._elem_of_key.take(key)

    def index_of(self, rows):
        idx = self.locate(rows[..., self.base])
        return np.where((idx >= 0) & (self.mat[idx] == rows).all(axis=-1), idx, -1)


def ref_build_perm_group(degree, gen_perms):
    gens = np.asarray(gen_perms, dtype=np.int32).reshape(len(gen_perms), degree)
    mat = _perm_closure(degree, gens)
    n = len(mat)
    if n > TABLE_LIMIT:
        raise OrderLimitExceeded(f"permutation closure has {n} elements")
    elems = RefPermElements(mat)
    base = elems.base
    table = np.empty((n, n), dtype=np.int32)
    for rows in _row_blocks(n, n):
        prods = elems.locate(mat[:, mat[rows, base]].transpose(1, 0, 2))
        if (prods < 0).any():
            raise EngineError("a product of permutations fell outside their closure")
        table[rows] = prods
    gen_idx = elems.locate(gens[:, base])
    names = {perms.format_cycles(p): int(i) for p, i in zip(gen_perms, gen_idx)}
    return TableGroup(table, names, perm_elems=elems)


def ref_build_semidirect(base, actor, clauses):
    m, q = base.n, actor.n
    n = m * q
    if n > TABLE_LIMIT:
        raise OrderLimitExceeded(f"semidirect product of order {n} exceeds table limit")
    overlap = set(base.gens) & set(actor.gens)
    if overlap:
        raise InvalidAction(
            f"generator names {sorted(overlap)} appear on both sides; rename with gens()"
        )
    per_gen = {t: {} for t in actor.gens}
    for cl in clauses:
        t = cl.actor_gen
        if t is None:
            if len(actor.gens) != 1:
                raise InvalidAction(
                    f"clause {cl.text()!r} omits the acting generator but the actor has several"
                )
            t = next(iter(actor.gens))
        if t not in actor.gens:
            raise InvalidAction(f"unknown acting generator {t!r}")
        if cl.base_gen not in base.gens:
            raise InvalidAction(f"unknown base generator {cl.base_gen!r}")
        if cl.base_gen in per_gen[t]:
            raise InvalidAction(f"duplicate clause for {t}.{cl.base_gen}")
        per_gen[t][cl.base_gen] = cl.word
    conj_of_gen = {}
    for t in actor.gens:
        amap = groups.gen_image_map(base, per_gen[t])
        groups._require_automorphism(base, amap, f"action of {t!r}")
        conj_of_gen[t] = amap
    actor_names = list(actor.gens)
    aelems, aderiv = bfs_closure(0, [actor.gens[s] for s in actor_names], actor.mul)
    if len(aelems) != q:
        raise InvalidAction("acting generators do not generate the acting group")
    conj_by = np.zeros((q, m), dtype=np.int64)
    conj_by[0] = np.arange(m)
    for u in aelems[1:]:
        parent, pos = aderiv[u]
        conj_by[u] = conj_of_gen[actor_names[pos]][conj_by[parent]]
    for u in range(q):
        for s in actor_names:
            v = actor.mul(u, actor.gens[s])
            if not (conj_by[v] == conj_of_gen[s][conj_by[u]]).all():
                raise InvalidAction(
                    "action clauses are inconsistent with the acting group's relations"
                )
    un_conj = np.zeros((q, m), dtype=np.int64)
    for t in range(q):
        un_conj[t, conj_by[t]] = np.arange(m)
    outer = np.zeros((n, n), dtype=np.int64)
    for t1 in range(q):
        moved = base.table.astype(np.int64)[:, un_conj[t1]]
        for t2 in range(q):
            tt = actor.mul(t1, t2)
            outer[t1 * m:(t1 + 1) * m, t2 * m:(t2 + 1) * m] = moved + tt * m
    renames = groups._renamed_bindings([base, actor])
    gens = {renames[0][s]: int(e) for s, e in base.gens.items()}
    gens.update({renames[1][s]: int(e) * m for s, e in actor.gens.items()})
    comps = [groups._Component(base, 1, renames[0]), groups._Component(actor, m, renames[1])]
    return TableGroup(outer.astype(np.int32), gens, components=comps)


def ref_quotient_group(g, normal_elems):
    n = g.n
    nset = {int(e) for e in normal_elems}
    arr = np.asarray(sorted(nset), dtype=np.int64)
    idx = np.arange(n)
    for a in sorted(nset):
        conj = g.table[g.table[idx, a], g.inv[idx]]
        if not all(int(c) in nset for c in conj):
            raise NotNormal(
                f"element {g.label_of(a)} has conjugates outside the subgroup"
            )
    cosets = g.table[arr[:, None], np.arange(n)[None, :]]
    rep = cosets.min(axis=0)
    uniq = np.unique(rep)
    new_idx = np.zeros(n, dtype=np.int64)
    new_idx[uniq] = np.arange(len(uniq))
    tab = new_idx[rep[g.table[np.ix_(uniq, uniq)]]]
    gens = {name: int(new_idx[rep[e]]) for name, e in g.gens.items()}
    return TableGroup(tab.astype(np.int32), gens)


def ref_build_central_product(left, right, left_word, right_word):
    u = left.evaluate_word(left_word)
    v = right.evaluate_word(right_word)
    if u not in set(left.center_elements):
        raise CentralIdentificationError(f"{left_word!r} is not central on the left side")
    if v not in set(right.center_elements):
        raise CentralIdentificationError(f"{right_word!r} is not central on the right side")
    d = left.element_order(u)
    if d != right.element_order(v):
        raise CentralIdentificationError(
            f"identified elements have orders {d} != {right.element_order(v)}"
        )
    nl, nr = left.n, right.n
    m = nl * nr // d
    if m > TABLE_LIMIT:
        raise OrderLimitExceeded(f"central product of order {m} exceeds table limit")
    lmul = left.table[:, u].astype(np.int64)
    rmul = right.table[:, right.inv_of(v)].astype(np.int64)
    cl = np.repeat(np.arange(nl, dtype=np.int64), nr)
    cr = np.tile(np.arange(nr, dtype=np.int64), nl)
    canon = cl * nr + cr
    for _ in range(d - 1):
        cl = lmul[cl]
        cr = rmul[cr]
        canon = np.minimum(canon, cl * nr + cr)
    reps = np.flatnonzero(canon == np.arange(nl * nr))
    pos = np.full(nl * nr, -1, dtype=np.int64)
    pos[reps] = np.arange(m)
    flat_to_q = pos[canon]
    la = (reps // nr).astype(np.int64)
    ra = (reps % nr).astype(np.int64)
    tab = np.empty((m, m), dtype=np.int32)
    ltab = left.table.astype(np.int64)
    rtab = right.table.astype(np.int64)
    for a in range(m):
        tab[a] = flat_to_q[ltab[la[a], la] * nr + rtab[ra[a], ra]]
    renames = groups._renamed_bindings([left, right])
    gens = {renames[0][s]: int(flat_to_q[int(e) * nr]) for s, e in left.gens.items()}
    gens.update({renames[1][s]: int(flat_to_q[int(e)]) for s, e in right.gens.items()})
    return TableGroup(tab, gens)


_REF_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def ref_parse_cycles(text, degree=None):
    text = text.strip()
    if not text.startswith("(") or _REF_CYCLE_RE.sub("", text).strip() != "":
        raise ParseError(f"not a cycle string: {text!r}")
    cycles = []
    maxpt = 0
    for body in _REF_CYCLE_RE.findall(text):
        body = body.strip()
        if not body:
            continue
        if " " in body or "," in body:
            parts = [p for p in re.split(r"[,\s]+", body) if p]
        else:
            parts = list(body)
        try:
            pts = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"bad cycle body {body!r} in {text!r}") from None
        if any(p < 1 for p in pts):
            raise ParseError(f"cycle points are 1-based: {text!r}")
        if len(set(pts)) != len(pts):
            raise ParseError(f"repeated point inside a cycle: {text!r}")
        cycles.append([p - 1 for p in pts])
        maxpt = max(maxpt, max(pts))  # a body of commas only fails here, with ValueError
    if degree is None:
        degree = maxpt
    elif maxpt > degree:
        raise ParseError(f"cycle string {text!r} mentions point past degree {degree}")
    out = list(range(degree))
    touched = set()
    for cyc in cycles:
        for pt in cyc:
            if pt in touched:
                raise ParseError(f"point {pt + 1} appears in two cycles: {text!r}")
            touched.add(pt)
        for k, pt in enumerate(cyc):
            out[pt] = cyc[(k + 1) % len(cyc)]
    return tuple(out)


def ref_read_raw_segment(text, pos, stoppers=",;)"):
    """(segment, position after it), as the scanner read one character at a time."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    start = pos
    depth = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and ch in stoppers:
            break
        pos += 1
    seg = text[start:pos].strip()
    if not seg:
        raise ParseError(f"expected a word at position {start} in {text!r}")
    return seg, pos


def ref_conjugacy(g):
    n = g.n
    class_id = np.full(n, -1, dtype=np.int64)
    reps, sizes = [], []
    all_g = np.arange(n)
    for x in range(n):
        if class_id[x] >= 0:
            continue
        orbit = np.unique(g.table[g.table[all_g, x], g.inv[all_g]])
        class_id[orbit] = len(reps)
        reps.append(x)
        sizes.append(len(orbit))
    return class_id, reps, np.asarray(sizes, dtype=np.int64)


def ref_derived_elements(g):
    n, t, inv = g.n, g.table, g.inv
    comms = np.unique(t[t[np.repeat(inv, n), np.tile(inv, n)], t.ravel()])
    elems, _ = bfs_closure(0, [int(c) for c in comms if c != 0], lambda a, b: int(t[a, b]))
    return sorted(elems)


def ref_element_orders(g):
    n = g.n
    idx = np.arange(n)
    cur = idx.copy()
    orders = np.zeros(n, dtype=np.int64)
    k = 1
    while (orders == 0).any():
        hit = (cur == 0) & (orders == 0)
        orders[hit] = k
        cur = g.table[cur, idx]
        k += 1
    return orders


def ref_abelian_invariants(g):
    invs = []
    while g.order > 1:
        x = int(np.argmax(g.element_orders))
        invs.append(g.element_order(x))
        cyc, _ = bfs_closure(0, [x], g.mul)
        g = quotient_group(g, sorted(cyc))
    return tuple(invs)


def ref_derived_series_orders(g):
    out = [g.order]
    cur = g
    elems = cur.derived_elements
    while len(elems) not in (1, out[-1]):
        out.append(len(elems))
        arr = np.asarray(elems)  # the derived subgroup's table, sliced from cur's
        back = np.zeros(cur.n, dtype=np.int64)
        back[arr] = np.arange(len(arr))
        cur = TableGroup(back[cur.table[np.ix_(arr, arr)]], {})
        elems = cur.derived_elements
    if len(elems) == 1 and out[-1] != 1:
        out.append(1)
    return out


def ref_rich_invariant_key(g):
    fp = Fingerprint.of(g).canonical_bytes()
    _, reps, sizes = g._conjugacy
    per_class = sorted(
        (
            int(sizes[i]),
            int(g.element_order(r)),
            int(g.element_order(g.power(r, 2))),
            int(sizes[g.class_ids[g.power(r, 2)]]),
        )
        for i, r in enumerate(reps)
    )
    series = ref_derived_series_orders(g)
    return fp + b"|" + repr(per_class).encode() + b"|" + repr(series).encode()


def ref_extension_table(base, amap, a, p):
    m = base.n
    t = base.table.astype(np.int64)
    pows = [np.arange(m)]
    for _ in range(1, p):
        pows.append(amap[pows[-1]])
    n = m * p
    out = np.empty((n, n), dtype=np.int64)
    # index i*m + x stands for x * t^i; t^p = a commutes with t
    for i in range(p):
        for j in range(p):
            blk = t[:, pows[i]]
            if i + j >= p:
                blk = t[blk, a]
            out[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk + ((i + j) % p) * m
    return out


def ref_aut_generators(auts, n):
    """A greedy generating subset of the int64 maps ``auts``, in their given order."""

    def compose(x, g):  # x * g == g[x]
        return np.frombuffer(g, np.int64)[np.frombuffer(x, np.int64)].tobytes()

    ident = np.arange(n, dtype=np.int64).tobytes()
    have = {ident}
    gens, keys = [], []
    for cand in auts:
        key = cand.tobytes()
        if key in have:
            continue
        gens.append(cand)
        keys.append(key)
        have = set(bfs_closure(ident, keys, compose, limit=len(auts))[0])
        if len(have) == len(auts):
            break
    return gens


def ref_generic_alpha_pairs(base, p):
    """(alpha, valid a) pairs, each class marked by a BFS over single maps."""
    m = base.n
    table = base.table.astype(np.int64)
    auts, aut_gens = _aut_listing(base)
    idx = np.arange(m)
    conj = [table[table[b, idx], base.inv[b]] for b in range(m)]  # b y b^-1
    inner_rep = {}
    for b in range(m):
        inner_rep.setdefault(conj[b].astype(auts.dtype).tobytes(), b)
    inv_aut_gens = [np.argsort(s) for s in aut_gens]
    gen_conj = [conj[b] for b in base.greedy_gens]
    gen_conj += [np.argsort(c) for c in gen_conj]
    pw = auts
    for _ in range(p - 1):
        pw = np.take_along_axis(auts, pw, axis=1)
    inner = [inner_rep.get(row.tobytes()) for row in pw]
    seen = set()
    for row, a0 in zip(auts, inner):
        if a0 is None:
            continue
        alpha = row.astype(np.int64)
        if alpha.tobytes() in seen:
            continue
        frontier = [alpha]
        seen.add(alpha.tobytes())
        while frontier:
            nxt = []
            for f in frontier:
                neighbours = []
                for s, si in zip(aut_gens, inv_aut_gens):
                    neighbours.append(s[f[si]])
                    neighbours.append(si[f[s]])
                for c in gen_conj:
                    neighbours.append(c[f])
                    neighbours.append(f[c])
                acc = f
                for _ in range(p - 2):
                    acc = f[acc]
                    neighbours.append(acc)
                for nb in neighbours:
                    if nb.tobytes() not in seen:
                        seen.add(nb.tobytes())
                        nxt.append(nb)
            frontier = nxt
        valid_a = sorted(
            int(table[a0, z]) for z in base.center_elements
            if alpha[table[a0, z]] == table[a0, z]
        )
        yield alpha, valid_a


def ref_ea_alpha_pairs(base, q, p):
    """(alpha, valid a) pairs for an elementary abelian base: with the basis
    ``greedy_gens``, ``alpha(e)`` is the element whose coordinates are those
    of e times the matrix, looked up in dictionaries of all q^k vectors."""
    basis = list(base.greedy_gens)
    elem_of, vec_of = {}, {}
    for combo in itertools.product(range(q), repeat=len(basis)):
        e = 0
        for c, b in zip(combo, basis):
            e = base.mul(e, base.power(b, c))
        elem_of[combo] = e
        vec_of[e] = combo
    for mat in _ea_alpha_matrices(q, factorization(base.n)[q], p):
        amap = np.empty(base.n, dtype=np.int64)
        for e in range(base.n):
            v = np.asarray(vec_of[e], dtype=np.int64)
            amap[e] = elem_of[tuple(int(c) for c in (v @ mat) % q)]
        yield amap, [e for e in range(base.n) if amap[e] == e]


# --- the groups compared ------------------------------------------------------


def _bundled_recipes(orders):
    for n in orders:
        doc = json.loads((_BUNDLED_DIR / f"order{n}.json").read_text())
        for e in doc["entries"]:
            yield e["recipe"]


def _perm_recipes(orders):
    out = []
    for text in _bundled_recipes(orders):
        expr = parse_expr(text)
        if isinstance(expr, PermGroupExpr):
            out.append(expr)
    return out


BUNDLED_ORDERS = range(1, 65)


@pytest.fixture(scope="module")
def registry_groups():
    """Every registry label that builds as a dense table, with its group."""
    out = []
    for label in registry.available_labels():
        g = registry.resolve(label).build()
        if isinstance(g, TableGroup):
            out.append((label, g))
    return out


@pytest.fixture(scope="module")
def compared_groups(registry_groups):
    return [(text, construct(text)) for text in _bundled_recipes(BUNDLED_ORDERS)] + registry_groups


def test_registry_includes_the_containment_ambients(registry_groups):
    orders = {label: g.order for label, g in registry_groups}
    assert {orders[k] for k in ("C4xC5xC7xD3", "C7xS5")} == {840}
    assert {orders[k] for k in ("C5xC7xD3xH1", "C7xD15xH1")} == {3360}


def test_perm_closure_matches_reference(registry_groups):
    recipes = _perm_recipes(BUNDLED_ORDERS)
    assert len(recipes) > 500
    for expr in recipes:
        gens = np.asarray([perms.parse_cycles(s, degree=expr.degree) for s in expr.gens],
                          dtype=np.int32).reshape(len(expr.gens), expr.degree)
        got = _perm_closure(expr.degree, gens)
        assert np.array_equal(got, ref_perm_closure(expr.degree, gens)), expr.text()
    for label, g in registry_groups:
        if g.perm_elems is None:
            continue
        gens = g.perm_elems.mat[sorted(g.gens.values())]
        got = _perm_closure(g.perm_elems.degree, gens)
        assert np.array_equal(got, ref_perm_closure(g.perm_elems.degree, gens)), label


def test_build_perm_group_matches_reference(monkeypatch):
    closed = []
    monkeypatch.setattr(groups, "_perm_closure",
                        lambda degree, gens: closed.append(degree) or _perm_closure(degree, gens))

    def builds(text):
        got = construct(text)
        with monkeypatch.context() as m:
            m.setattr(groups, "build_perm_group", ref_build_perm_group)
            want = construct(text)
        return got, want

    def assert_same(text):
        got, want = builds(text)
        assert np.array_equal(got.table, want.table), text
        assert np.array_equal(got.perm_elems.mat, want.perm_elems.mat), text
        assert list(got.gens.items()) == list(want.gens.items()), text

    for text in _bundled_recipes(BUNDLED_ORDERS):
        if text.startswith("perm("):
            closed.clear()
            assert_same(text)
            assert closed == [], text  # every bundled recipe is a regular group
    for label in registry.available_labels():
        got, _ = builds(f"named({label})")
        if isinstance(got, TableGroup) and got.perm_elems is not None:
            assert_same(f"named({label})")
    # full orbits that are not closed, an intransitive group, and degree 1
    for text, fallback in (("S(3)", True), ("S(5)", True), ("A(5)", True), ("A(6)", True),
                           ("S(6)", True), ("A(7)", True), ("perm(5; (1 2), (3 4 5))", True),
                           ("perm(1; ())", False)):
        closed.clear()
        assert_same(text)
        assert bool(closed) == fallback, text


SEMIDIRECT_EXPRS = [
    "sd(gens(C(7), g1), gens(C(3), t), t.g1=g1^2)",
    "sd(gens(C(5), g), gens(C(4), t), t.g=g^2)",
    "sd(gens(C(5), g), gens(C(4), t), g=g^2)",
    "sd(gens(EA(2,2), b1, b2), gens(S(3), r, s), r.b1=b2, r.b2=b1*b2, s.b1=b2, s.b2=b1)",
    "sd(gens(EA(2,2), b1, b2), gens(S(3), r, s), r.b1=b2, r.b2=b1*b2, s.b1=b1, s.b2=b1*b2)",
    "sd(gens(C(5), a), gens(Q(2), x, y), x.a=a^2, y.a=a^4)",
    "sd(gens(C(5), a), gens(Q(2), x, y), y.a=a^4)",
    # each InvalidAction of the builder
    "sd(C(7), C(3), t.g1=g1^2)",
    "sd(gens(C(7), g1), gens(C(3), t), t.g1=g1^3)",
    "sd(gens(C(6), a), gens(C(2), t), t.a=a^2)",
    "sd(gens(C(7), g1), gens(C(3), t), u.g1=g1^2)",
    "sd(gens(C(7), g1), gens(C(3), t), t.h=g1)",
    "sd(gens(C(7), g1), gens(C(3), t), t.g1=g1^2, t.g1=g1^4)",
    "sd(gens(C(8), y), gens(EA(2,2), x1, x2), y=y^5)",
]


def test_build_semidirect_matches_reference(monkeypatch):
    calls = []
    build = groups.build_semidirect
    monkeypatch.setattr(groups, "build_semidirect", lambda *a: calls.append(a) or build(*a))

    def outcome(text):
        try:
            g = construct(text)
        except InvalidAction as exc:
            return str(exc)
        parts = g.components if isinstance(g, groups.TwistedGroup) else [g]
        return [(p.table.tobytes(), list(p.gens.items())) for p in parts]

    texts = [f"named({label})" for label in registry.available_labels()] + SEMIDIRECT_EXPRS
    compared = 0
    for text in texts:
        calls.clear()
        got = outcome(text)
        if not calls:
            continue
        with monkeypatch.context() as m:
            m.setattr(groups, "build_semidirect", ref_build_semidirect)
            assert got == outcome(text), text
        compared += 1
    assert compared >= 13 + len(SEMIDIRECT_EXPRS)


# every quo() and cp() expression of the tests, the order-243 and order-3125
# central products, and identifications that are not normal or not central
COSET_EXPRS = [
    "named(W3)",
    "named(W5)",
    "named(GP6_3)",
    "cp(D(4), gens(D(4), c, d), a^2=c^2)",
    "quo(Q(2), a^2)",
    "quo(S(4), (12)(34), (13)(24)) x C(2)",
    "quo(D(6), a^3)",
    "quo(S(3) x C(4), a^2)",
    "cp(Q(2), gens(D(4), c, d), a^2=c^2)",
    "cp(gens(C(6), x), gens(C(4), y), x^3=y^2)",
    "quo(S(3), (12))",
    "quo(S(4), (12)(34))",
    "quo(A(5), (123))",
    "cp(D(4), gens(D(4), c, d), a=c)",
    "cp(C(4), gens(C(8), c), a=c)",
    "cp(D(4), gens(C(8), c), a^2=c^2)",
    "cp(gens(C(6), x), D(3), x^3=1)",
]


def _coset_outcome(build, *args):
    try:
        g = build(*args)
    except (NotNormal, CentralIdentificationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return g.table.tobytes(), list(g.gens.items())


def test_coset_builds_match_reference(monkeypatch):
    refused = 0
    for text in COSET_EXPRS:
        got = _coset_outcome(construct, text)
        with monkeypatch.context() as m:
            m.setattr(groups, "quotient_group", ref_quotient_group)
            m.setattr(groups, "build_central_product", ref_build_central_product)
            assert got == _coset_outcome(construct, text), text
        refused += isinstance(got, str)
    assert refused == 7  # each expected refusal is compared


def test_quotients_by_centre_and_derived_subgroup_match_reference():
    compared = 0
    for text in _bundled_recipes(range(1, 33)):
        g = construct(text)
        for normal in (g.center_elements, g.derived_elements):
            want = _coset_outcome(ref_quotient_group, g, normal)
            assert _coset_outcome(quotient_group, g, normal) == want, text
            compared += 1
    assert compared == 2 * 144  # the 144 bundled groups of orders 1-32
    # subgroups that are not normal: the error names the same first element
    for text, words in (("S(4)", ["(12)"]), ("S(4)", ["(123)"]), ("D(6)", ["b"]),
                        ("A(5)", ["(12)(34)", "(13)(24)"])):
        g = construct(text)
        elems = g.subgroup(words).elements
        want = _coset_outcome(ref_quotient_group, g, elems)
        assert want.startswith("NotNormal")
        assert _coset_outcome(quotient_group, g, elems) == want, text


def test_perm_closure_limit_matches_reference():
    # S(8) by a transposition and an 8-cycle has 40320 > SUBGROUP_LIMIT elements
    gens = np.asarray([perms.parse_cycles("(1 2)", 8), perms.parse_cycles("(1 2 3 4 5 6 7 8)", 8)],
                      dtype=np.int32)
    for closure in (_perm_closure, ref_perm_closure):
        with pytest.raises(SubgroupLimitExceeded):
            closure(8, gens)


def test_invariants_match_reference(compared_groups):
    for name, g in compared_groups:
        class_id, reps, sizes = g._conjugacy
        want_id, want_reps, want_sizes = ref_conjugacy(g)
        assert np.array_equal(class_id, want_id), name
        assert reps == want_reps, name
        assert np.array_equal(sizes, want_sizes) and sizes.dtype == want_sizes.dtype, name
        assert g.derived_elements == ref_derived_elements(g), name
        orders = g.element_orders
        assert np.array_equal(orders, ref_element_orders(g)) and orders.dtype == np.int64, name


def test_abelian_invariants_match_reference():
    recipes = [
        e["recipe"]
        for path in sorted(_BUNDLED_DIR.glob("order*.json"))
        for e in json.loads(path.read_text())["entries"]
        if json.loads(e["fingerprint"])["abelian_invariants"] is not None
    ]
    assert len(recipes) == 155  # every abelian entry of every bundled order
    for text in recipes + ["EA(2,6) x C(4)", "C(4) x C(8) x C(3) x C(9) x C(2)"]:
        g = construct(text)
        assert g.abelian_invariants == ref_abelian_invariants(g), text


def test_derived_subgroup_larger_than_the_commutator_set():
    # order 96 is the least order where the commutators need not form a
    # subgroup; two bundled groups of that order show it
    larger = 0
    for text in _bundled_recipes([96]):
        g = construct(text)
        t, inv, n = g.table, g.inv, g.n
        commutators = np.unique(t[t[np.repeat(inv, n), np.tile(inv, n)], t.ravel()])
        larger += len(g.derived_elements) > len(commutators)
        assert g.derived_elements == ref_derived_elements(g), text
    assert larger == 2


def test_index_of_misses_give_minus_one():
    g = construct("perm(10; (1 2 3 4), (1 2), (5 6 7)(9 10))")
    elems = g.perm_elems
    assert elems.index_of(elems.mat).tolist() == list(range(g.n))
    stack = elems.mat[[[3, 1], [0, g.n - 1]]]  # a 2 x 2 stack of rows
    assert elems.index_of(stack).tolist() == [[3, 1], [0, g.n - 1]]
    assert elems.index_of(elems.mat.astype(np.int64)).tolist() == list(range(g.n))
    odd = perms.parse_cycles("(5 6)", 10)  # not in the group
    assert elems.index_of(odd) == -1
    assert elems.index_of([odd, elems.mat[5]]).tolist() == [-1, 5]


def test_class_reps_are_class_minima(compared_groups):
    # the level-0 cut of find_embedding and is_isomorphic relies on this
    for name, g in compared_groups:
        minima = np.full(len(g.class_reps), g.n, dtype=np.int64)
        np.minimum.at(minima, g.class_ids, np.arange(g.n))
        assert minima.tolist() == g.class_reps, name


# --- the cold-enumeration kernels ------------------------------------------------


@pytest.fixture(scope="module")
def bundled_catalogs():
    """Every bundled catalog (orders 1-64, 72, 81, 96, 120, 144, 243) as
    {order: [group, ...]}, built from the recipes."""
    orders = sorted(int(path.stem[5:]) for path in _BUNDLED_DIR.glob("order*.json"))
    return {n: [construct(text) for text in _bundled_recipes([n])] for n in orders}


def _partition(keys):
    blocks = {}
    for i, k in enumerate(keys):
        blocks.setdefault(k, []).append(i)
    return sorted(blocks.values())


def test_rich_key_partitions_every_bundled_catalog_as_the_reference(bundled_catalogs):
    assert sorted(bundled_catalogs) == [*range(1, 65), 72, 81, 96, 120, 144, 243]
    shared = 0
    for n, groups in bundled_catalogs.items():
        got = _partition([rich_invariant_key(g) for g in groups])
        assert got == _partition([ref_rich_invariant_key(g) for g in groups]), n
        shared += sum(len(b) > 1 for b in got)
    assert shared > 0  # some keys are shared, so the partitions are not all trivial


def test_derived_series_matches_reference(bundled_catalogs):
    for n, groups in bundled_catalogs.items():
        for i, g in enumerate(groups):
            assert derived_series_orders(g) == ref_derived_series_orders(g), (n, i)
    for text in ("S(4)", "Q(2) x A(4)", "A(5) x C(2)", "S(3) x S(4)"):
        g = construct(text)
        assert derived_series_orders(g) == ref_derived_series_orders(g), text


def test_rich_key_is_invariant_under_relabeling(bundled_catalogs):
    rng = np.random.default_rng(11)
    for n in range(1, 65):
        for g in bundled_catalogs[n]:
            pi = np.concatenate([[0], 1 + rng.permutation(n - 1)])  # fixes the identity 0
            table = np.empty_like(g.table)
            table[np.ix_(pi, pi)] = pi[g.table]  # pi(x) * pi(y) = pi(x * y)
            assert rich_invariant_key(TableGroup(table, {})) == rich_invariant_key(g), n


def test_extension_table_matches_reference(bundled_catalogs):
    pairs = 0
    for n in (8, 12, 16, 24):
        for base in bundled_catalogs[n]:
            q = elem_abelian_prime(base)
            for p in (2, 3):
                alphas = _ea_alpha_pairs(base, q, p) if q else _generic_alpha_pairs(base, p)
                for amap, valid_a in alphas:
                    for a in valid_a:
                        got = _extension_table(base, amap, a, p)
                        assert np.array_equal(got, ref_extension_table(base, amap, a, p)), n
                        pairs += 1
    assert pairs > 500


def test_aut_listing_matches_reference(bundled_catalogs, monkeypatch):
    # the listing is the stream sorted by its images of the greedy generators,
    # so a reversed stream lists the same rows with the same generators
    def reversed_automorphisms(g):
        yield from reversed(list(automorphisms(g)))

    bases = 0
    for n in (1, 8, 12, 16, 18, 24):
        for base in bundled_catalogs[n]:
            if n > 1 and elem_abelian_prime(base) is not None:
                continue  # elementary abelian bases take the matrix path
            cols = list(base.greedy_gens)
            stream = sorted((np.asarray(mo.images, dtype=np.int64)
                             for mo in automorphisms(base)),
                            key=lambda row: row[cols].tolist())
            auts, gens = _aut_listing(base)
            assert auts.dtype == np.uint8 and np.array_equal(auts, stream), n
            want = ref_aut_generators(stream, n)
            assert len(gens) == len(want), n
            assert all(np.array_equal(g, w) and g.dtype == np.int64
                       for g, w in zip(gens, want)), n
            assert _aut_listing(base)[0] is auts  # listed once per base
            del base.__dict__["_aut_listing"]
            with monkeypatch.context() as m:
                m.setattr("mge.enumerator.automorphisms", reversed_automorphisms)
                again, again_gens = _aut_listing(base)
            assert np.array_equal(again, auts), n
            assert len(again_gens) == len(gens), n
            assert all(np.array_equal(g, w) for g, w in zip(again_gens, gens)), n
            bases += 1
    assert bases == 43


def test_generic_alpha_pairs_match_reference(bundled_catalogs):
    bases = pairs = 0
    for n in range(8, 25):
        for base in bundled_catalogs[n]:
            if elem_abelian_prime(base) is not None:
                continue
            for p in (2, 3):
                got = [(a.tolist(), v) for a, v in _generic_alpha_pairs(base, p)]
                want = [(a.tolist(), v) for a, v in ref_generic_alpha_pairs(base, p)]
                assert got == want, (n, p)
                pairs += len(got)
            bases += 1
    assert (bases, pairs) == (57, 275)


EA_BASES = [(2, k) for k in range(1, 7)] + [(3, k) for k in range(1, 5)]
EA_BASES += [(5, 1), (5, 2), (7, 1), (7, 2)]


def test_ea_alpha_pairs_match_reference():
    pairs = 0
    for q, k in EA_BASES:
        base = construct(f"EA({q},{k})")
        for p in (2, 3, 5, 7):
            got = [(a.dtype, a.tobytes(), v) for a, v in _ea_alpha_pairs(base, q, p)]
            want = [(a.dtype, a.tobytes(), v) for a, v in ref_ea_alpha_pairs(base, q, p)]
            assert got == want, (q, k, p)
            pairs += len(got)
    assert pairs == 121


# --- parsing --------------------------------------------------------------------


def _outcome(parse, *args):
    try:
        return ("ok", parse(*args))
    except ParseError:
        return ("rejected",)
    except ValueError:  # the earlier parser's failure on a body of commas only
        return ("rejected",)


def test_parse_cycles_matches_reference_on_bundled_generators():
    for expr in _perm_recipes(BUNDLED_ORDERS):
        for s in expr.gens:
            assert perms.parse_cycles(s, expr.degree) == ref_parse_cycles(s, expr.degree)


# one string per kind of malformed input, and the degree it is read at
MALFORMED_CYCLES = [
    ("(0 1 2)", 12),  # 0-based
    ("(012)", None),  # 0-based, compact
    ("(1 2 1)", 12),  # repeated point
    ("(121)", None),  # repeated point, compact
    ("(1 2)(2 3)", 12),  # point in two cycles
    ("(12)(23)", None),  # point in two cycles, compact
    ("(1 13)", 12),  # past degree
    ("(19)", 8),  # past degree, compact
    ("(1 x 2)", 12),  # bad body
    ("(1\t2)", 12),  # bad body: a tab is not a separator in a compact body
    ("(1-2)", 12),  # bad body
    ("(1 2", 12),  # not a cycle string
    ("1 2)", 12),
    ("(1 (2) 3)", 12),
    ("(,)", 12),  # a body of commas only
]


@pytest.mark.parametrize("text, degree", MALFORMED_CYCLES)
def test_parse_cycles_rejects_each_malformed_kind(text, degree):
    assert _outcome(ref_parse_cycles, text, degree) == ("rejected",)
    with pytest.raises(ParseError):
        perms.parse_cycles(text, degree)


WELL_FORMED_CYCLES = [
    ("()", 3), ("( )", None), ("(12)(34)", None), (" (1 10 3)(2 7) ", None),
    ("(1,2, 3)", 5), ("( 12 )", 4), ("(1 2)  (3 4)()", 6), ("(,1,2,)", None),
    ("(+1 02)", 3), ("(5)", 7), ("(1 5001)(2 3)", None), ("(\u0661 2)", 2),
]


@pytest.mark.parametrize("text, degree", WELL_FORMED_CYCLES)
def test_parse_cycles_accepts_what_the_reference_accepts(text, degree):
    want = ref_parse_cycles(text, degree)
    assert perms.parse_cycles(text, degree) == want


def test_parse_cycles_matches_reference_on_random_strings():
    rng = random.Random(7)
    alphabet = "()()0123456789 ,\t-a"
    for _ in range(6000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        if rng.random() < 0.5:
            text = "(" + text + ")"
        degree = rng.choice([None, 3, 9, 12])
        want = _outcome(ref_parse_cycles, text, degree)
        assert _outcome(perms.parse_cycles, text, degree) == want, (text, degree)


def test_read_raw_segment_matches_reference():
    rng = random.Random(11)
    texts = [
        "(1 2)(3 4), (5 6))", "a*b^2; c", "  (1 (2 3)) x, y", "(1 2", "", "  ,",
        "perm(4; (1 2 3 4), (1 2))", "a.b=b^2, t.a=a^-1)",
    ]
    texts += ["".join(rng.choice("(),; ab1") for _ in range(rng.randint(0, 12)))
              for _ in range(20000)]
    for text in texts:
        for pos in range(len(text) + 1):
            sc = _Scanner(text)
            sc.pos = pos
            try:
                got = (sc.read_raw_segment(), sc.pos)
            except ParseError:
                got = None
            try:
                want = ref_read_raw_segment(text, pos)
            except ParseError:
                want = None
            assert got == want, (text, pos)


# --- tamper detection on a regular-recipe entry ----------------------------------


def _order48_doc():
    doc = json.loads((_BUNDLED_DIR / "order48.json").read_text())
    recipe = doc["entries"][0]["recipe"]
    assert recipe.startswith("perm(48;")  # a regular recipe
    return doc


def test_order48_regular_entry_loads():
    cat = Catalog.from_json(_order48_doc())
    assert cat.order == 48


def test_checked_load_formats_no_cycle_strings(monkeypatch):
    formatted = []
    real = perms.format_cycles
    monkeypatch.setattr(perms, "format_cycles", lambda p: formatted.append(p) or real(p))
    cat = Catalog.from_json(_order48_doc())
    assert len(cat) == 52 and formatted == []
    assert cat.entries[0].group.gens and formatted  # names are formatted when read


def test_swapped_point_in_a_generator_is_rejected():
    doc = _order48_doc()
    expr = parse_expr(doc["entries"][0]["recipe"])
    first = expr.gens[0]
    a, b = re.findall(r"\d+", first)[:2]
    swapped = re.sub(r"\d+", lambda m: {a: b, b: a}.get(m.group(), m.group()), first)
    assert swapped != first
    doc["entries"][0]["recipe"] = PermGroupExpr(expr.degree, (swapped, *expr.gens[1:])).text()
    with pytest.raises(ValueError):
        Catalog.from_json(doc)


@pytest.mark.parametrize("field", ["derived_order", "class_sizes"])
def test_fingerprint_off_in_one_field_is_rejected(field):
    doc = _order48_doc()
    fp = json.loads(doc["entries"][0]["fingerprint"])
    if field == "derived_order":
        fp[field] += 1
    else:
        fp[field][0][1] += 1
    doc["entries"][0]["fingerprint"] = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    with pytest.raises(ValueError):
        Catalog.from_json(doc)


def test_wrong_order_is_rejected():
    doc = _order48_doc()
    doc["order"] = 96
    with pytest.raises(ValueError):
        Catalog.from_json(doc)
