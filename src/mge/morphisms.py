"""Isomorphism testing, embedding search, and automorphism streams.

All searches share one backtracking kernel over int element ids: pick a
short generating sequence for the source, propose images for each generator
in turn, and extend the partial map along the source's BFS derivations.  A
partial map that survives the (element, generator) product checks on a
prefix closure is a genuine homomorphism of that closure, so pruning is
sound; a completed map is a verified monomorphism without any separate pass.

The kernel keeps the map in a list and the used images in a bytearray, reads
products from read-only memoryviews of the rows of the target's int16 table
(no copy; a row view is made when its id is first placed), and counts work
units inline.  A TwistedGroup target has no table: a thin adapter interns
its candidate elements to ids and multiplies on demand.

Candidates for a generator are target elements of the same order whose
centralizer is as large (exactly as large for isomorphisms), tried in
ascending id order.  Each pool is a union of conjugacy classes, and
conjugating an embedding gives an embedding, so the first embedding the
ascending search meets sends the first generator to the smallest element of
its class.  ``_conjugacy`` scans elements in ascending order, so those
minima are exactly ``class_reps``: find_embedding and is_isomorphic try only
class representatives for the first generator and return the same witness
as the full search, for fewer work units.  search_monomorphisms and
automorphisms still see every morphism.

An automorphism stream is this same search from a group to itself, with a
budget on the number of maps.  An elementary abelian group of rank k whose
|GL(k, p)| is over that budget is refused before the search starts.

An embedding into a dense target is refuted before any search when the source
has more elements of some order than the target: a monomorphism keeps orders.
A catalog sweep refutes a candidate host before building it, from its stored
fingerprint (``may_embed``): by those counts and by derived-order divisibility.

Absence results are proofs only when the target is a dense TableGroup, since
then candidate pools cover the whole group.  Against a TwistedGroup the pool
is restricted (by support, or by sheer size), so only positive findings count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import AutBudgetExceeded, OrderLimitExceeded, OutOfRange, SearchBudgetExceeded
from .groups import TableGroup, TwistedGroup, _close_products, _row_blocks, bfs_closure
from .numtheory import factorization, is_prime

DEFAULT_SEARCH_BUDGET = 50_000_000
AUT_BUDGET = 1 << 20
TWISTED_FULL_POOL_LIMIT = 2_000_000


@dataclass(frozen=True)
class Fingerprint:
    """Cheap isomorphism invariants with a canonical byte serialization.

    Equal fingerprints do not imply isomorphism; unequal ones refute it.
    """

    order: int
    abelian: bool
    element_orders: tuple[tuple[int, int], ...]  # (order, multiplicity)
    center_order: int
    derived_order: int
    exponent: int
    class_sizes: tuple[tuple[int, int], ...]  # (size, multiplicity)
    abelian_invariants: tuple[int, ...] | None

    @staticmethod
    def of(g: TableGroup) -> "Fingerprint":
        cached = g.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        fp = Fingerprint(
            order=g.order,
            abelian=g.is_abelian,
            element_orders=order_counts(g),
            center_order=len(g.center_elements),
            derived_order=len(g.derived_elements),
            exponent=g.exponent,
            class_sizes=_histogram(g.class_sizes),
            abelian_invariants=g.abelian_invariants,
        )
        g.__dict__["_fingerprint"] = fp
        return fp

    def canonical_bytes(self) -> bytes:
        """The fields as compact JSON with sorted keys, pairs as arrays: the
        text a catalog entry stores."""
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":")).encode()

    @staticmethod
    def from_text(text: str) -> "Fingerprint":
        """The fingerprint whose ``canonical_bytes`` are ``text``, arrays read
        back as tuples; nothing is built or checked."""
        def tuples(v):
            return tuple(map(tuples, v)) if isinstance(v, list) else v

        return Fingerprint(**{k: tuples(v) for k, v in json.loads(text).items()})


def _histogram(values: np.ndarray) -> tuple[tuple[int, int], ...]:
    counts = np.bincount(values)  # (value, multiplicity) for each value present
    return tuple((int(v), int(counts[v])) for v in np.flatnonzero(counts))


def order_counts(g: TableGroup) -> tuple[tuple[int, int], ...]:
    """g's element orders as (order, multiplicity) pairs, as its fingerprint
    stores them; cached on ``g``."""
    counts = g.__dict__.get("_order_counts")
    if counts is None:
        counts = g.__dict__["_order_counts"] = _histogram(g.element_orders)
    return counts


def order_counts_fit(src, dst) -> bool:
    """Whether a group with order counts ``src`` may embed in one with ``dst``:
    a monomorphism maps the elements of each order injectively."""
    have = dict(dst)
    return all(k <= have.get(o, 0) for o, k in src)


def may_embed(src: Fingerprint, dst: Fingerprint) -> bool:
    """Whether a group with fingerprint ``src`` may embed in one with ``dst``,
    read off the two fingerprints alone.  A monomorphism maps the elements of
    each order injectively (``order_counts_fit``), and it maps the derived
    subgroup H' into G', so |H'| divides |G'| by Lagrange."""
    return (order_counts_fit(src.element_orders, dst.element_orders)
            and dst.derived_order % src.derived_order == 0)


def derived_series_orders(g: TableGroup) -> list[int]:
    """Orders of the derived series down to its first perfect term; each term
    after G' closes the commutators of the one before inside g's table."""
    t, inv = g.table, g.inv
    out = [g.order]
    elems = np.asarray(g.derived_elements)
    while len(elems) not in (1, out[-1]):
        out.append(len(elems))
        mask = np.zeros(g.n, dtype=bool)
        for rows in _row_blocks(len(elems), len(elems)):
            a = elems[rows]
            mask[t[t[inv[a]][:, inv[elems]], t[a][:, elems]]] = True  # a^-1 b^-1 a b
        elems = _close_products(t, mask)
    if len(elems) == 1 and out[-1] != 1:
        out.append(1)
    return out


def rich_invariant_key(g: TableGroup) -> bytes:
    """The fingerprint, the derived series and, per class with representative r,
    (size, order of r, order of r^2, size of r^2's class), rows sorted: a finer
    (still sound) key that buckets candidates before pairwise isomorphism tests."""
    fp = Fingerprint.of(g).canonical_bytes()
    class_id, reps, sizes = g._conjugacy
    orders, reps = g.element_orders, np.asarray(reps)
    sq = g.table[reps, reps]
    cols = np.stack([sizes, orders[reps], orders[sq], sizes[class_id[sq]]])  # int64
    per_class = cols[:, np.lexsort(cols[::-1])].T.tobytes()
    series = derived_series_orders(g)
    return fp + b"|" + per_class + b"|" + repr(series).encode()


@dataclass
class Morphism:
    """A verified structure-preserving map, stored as generator images plus
    ``images``, the image of every source element indexed by its id."""

    source: object
    target: object
    gen_images: list[tuple[object, object]]
    images: list

    def __call__(self, x):
        return self.images[x]

    @property
    def injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def verify(self) -> bool:
        src, dst = self.source, self.target
        m = self.images
        if len(m) != src.order or not self.injective:
            return False
        if m[src.identity] != dst.identity:
            return False
        gens = list(src.greedy_gens) or [src.identity]
        for x in src.elements():
            for y in gens:
                if m[src.mul(x, y)] != dst.mul(m[x], m[y]):
                    return False
        return True

    def witness_words(self) -> list[tuple[str, str]]:
        return [
            (self.source.label_of(a), self.target.label_of(b))
            for a, b in self.gen_images
        ]


# --- the search kernel ------------------------------------------------------------


def _search_levels(src: TableGroup) -> list:
    """The source side of the search, one entry per generator of
    ``src.greedy_gens``; cached on ``src``.

    Entry ``L`` is ``(gen, prefix, steps, elems, prods)`` for the closure of
    ``prefix``, the first ``L + 1`` generators.  ``steps`` lists
    ``(e, parent, g)`` with ``e == parent * g`` for each element that the
    closure adds besides ``gen``, in BFS order.  ``elems`` is the whole
    closure in BFS order and ``prods[i][j]`` is ``elems[i] * prefix[j]``."""
    levels = src.__dict__.get("_search_levels")
    if levels is not None:
        return levels
    levels = []
    have = {src.identity}
    gens = src.greedy_gens
    for level, gen in enumerate(gens):
        prefix = gens[: level + 1]
        elems, deriv = bfs_closure(src.identity, list(prefix), src.mul)
        have.add(gen)
        steps = []
        for e in elems:
            if e not in have:
                parent, pos = deriv[e]
                steps.append((e, parent, prefix[pos]))
        have.update(elems)
        prods = src.table[np.ix_(elems, prefix)].tolist()
        levels.append((gen, prefix, steps, elems, prods))
    src.__dict__["_search_levels"] = levels
    return levels


def _kernel(levels, pools, row, size: int, budget: int):
    """Backtracking over int ids.  Yields the live ``img`` list (source
    element -> target id) of each monomorphism, in ascending lexicographic
    order of the generator images.

    ``pools[L]`` holds the candidate ids for generator ``L`` in ascending
    order, id 0 is the identity, and every id is below ``size``.
    ``row(a)[b]`` is the id of the product of ids ``a`` and ``b``; a row is
    made when its id is first placed, so a search pays only for the rows it
    reaches.  Each derived image and each (element, generator) product check
    costs one work unit; the unit past ``budget`` raises
    SearchBudgetExceeded."""
    img = [0] * len(levels[-1][3])
    used = bytearray(size)
    used[0] = 1
    rows = [None] * size
    rows[0] = row(0)
    left = budget
    last = len(levels) - 1

    def place(level: int):
        nonlocal left
        gen, prefix, steps, elems, prods = levels[level]
        for cand in pools[level]:
            if used[cand]:
                continue
            img[gen] = cand
            used[cand] = 1
            if rows[cand] is None:
                rows[cand] = row(cand)
            placed = 0
            ok = True
            for e, parent, g in steps:
                left -= 1
                if left < 0:
                    raise SearchBudgetExceeded("embedding search budget exhausted")
                v = rows[img[parent]][img[g]]
                if used[v]:
                    ok = False
                    break
                img[e] = v
                used[v] = 1
                if rows[v] is None:
                    rows[v] = row(v)
                placed += 1
            if ok:
                # the (element, generator) checks on the prefix closure;
                # survivors are homomorphisms of it
                prefix_ids = [img[y] for y in prefix]
                for x, xys in zip(elems, prods):
                    dx = rows[img[x]]
                    for xy, y in zip(xys, prefix_ids):
                        left -= 1
                        if left < 0:
                            raise SearchBudgetExceeded("embedding search budget exhausted")
                        if img[xy] != dx[y]:
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                if level == last:
                    yield img
                else:
                    yield from place(level + 1)
            for e, _, _ in steps[:placed]:
                used[img[e]] = 0
            used[cand] = 0

    try:
        yield from place(0)
    finally:
        del place  # place holds itself, and through its cells the target's rows


class _TwistedRow:
    """Row ``x`` of the kernel's products for a TwistedGroup whose candidate
    elements are interned as ids into ``elems``: ``row[b]`` is the id of
    ``x * elems[b]``, multiplied on demand and not stored."""

    __slots__ = ("x", "mul", "elems", "id_of")

    def __init__(self, x, mul, elems: list, id_of: dict):
        self.x, self.mul, self.elems, self.id_of = x, mul, elems, id_of

    def __getitem__(self, b: int) -> int:
        return self.id_of[self.mul(self.x, self.elems[b])]


def _twisted_elements(dst: TwistedGroup, support, left: int):
    """The candidate elements of a TwistedGroup target at one work unit each,
    and the units left.  They form the support subgroup (or the whole group),
    so products stay inside, and the enumeration starts at the identity."""
    if support is None:
        if dst.order > TWISTED_FULL_POOL_LIMIT:
            raise SearchBudgetExceeded(
                f"target of order {dst.order} needs a support restriction"
            )
        it = dst.elements()
    else:
        it = dst.support_elements(support)
    elems = []
    for x in it:
        left -= 1
        if left < 0:
            raise SearchBudgetExceeded("embedding search budget exhausted")
        elems.append(x)
    return elems, left


def _dense_pools(src: TableGroup, dst: TableGroup, require_iso: bool, reps_only: bool):
    """Candidate ids per generator: the elements of the generator's order
    whose centralizer is as large (or, for isomorphisms, exactly as large).
    Each pool is a union of conjugacy classes.  With ``reps_only`` the first
    pool keeps only class representatives.  The target's classes are
    computed only when some element has a wanted order."""
    cent = None
    pools = []
    for level, g in enumerate(src.greedy_gens):
        mask = dst.element_orders == src.element_order(g)
        if mask.any():
            if cent is None:
                cent = dst.n // dst.class_sizes[dst.class_ids]
            cz = src.centralizer_size(g)
            mask &= (cent == cz) if require_iso else (cent >= cz)
            if reps_only and level == 0:
                reps = np.zeros(dst.n, dtype=bool)
                reps[dst.class_reps] = True
                mask &= reps
        pools.append(np.flatnonzero(mask).tolist())
    return pools


def _search(src: TableGroup, dst, require_iso: bool, budget: int | None, support,
            reps_only: bool):
    """The one search behind every public entry point; see
    search_monomorphisms.  With ``reps_only`` (first-witness callers only)
    the first generator's images are cut to ``dst.class_reps``."""
    left = DEFAULT_SEARCH_BUDGET if budget is None else budget
    dense = isinstance(dst, TableGroup)
    if not dense:
        support = dst.resolve_support(support)
    elif support is not None:
        raise OutOfRange("support names components of a twisted target; a dense target has none")
    if require_iso and (not dense or src.order != dst.order):
        return
    if dense and dst.order % src.order != 0:
        return
    if dense and not require_iso and not order_counts_fit(order_counts(src), order_counts(dst)):
        return
    if src.order == 1:
        yield Morphism(src, dst, [], [dst.identity])
        return

    gens = src.greedy_gens
    if dense:
        pools = _dense_pools(src, dst, require_iso, reps_only)
        size = dst.n
        row = dst.row
    else:
        elems, left = _twisted_elements(dst, support, left)
        orders = [dst.element_order(x) for x in elems]
        wants = [src.element_order(g) for g in gens]
        pools = [[i for i, o in enumerate(orders) if o == want] for want in wants]
        id_of = {x: i for i, x in enumerate(elems)}

        def row(a):
            return _TwistedRow(elems[a], dst.mul, elems, id_of)

        size = len(elems)

    for img in _kernel(_search_levels(src), pools, row, size, left):
        images = img[:] if dense else [elems[i] for i in img]
        yield Morphism(src, dst, [(g, images[g]) for g in gens], images)


def search_monomorphisms(
    src: TableGroup,
    dst,
    *,
    require_iso: bool = False,
    budget: int | None = None,
    support=None,
):
    """Yield every monomorphism src -> dst (isomorphisms when require_iso).

    Deterministic: candidates are tried in ascending element order.  Raises
    SearchBudgetExceeded when the work cap is hit, in which case nothing may
    be concluded from an absence of yields.  Against a TwistedGroup,
    ``support`` names the components (by name or index) images may use; a
    dense target has no components, and a support for it raises OutOfRange.
    """
    return _search(src, dst, require_iso, budget, support, False)


def is_isomorphic(a: TableGroup, b: TableGroup, *, budget: int | None = None) -> Morphism | None:
    """A verified isomorphism, or None (which is a proof of non-isomorphism).

    The isomorphism returned is the first one search_monomorphisms would
    yield, found with the first generator's images cut to class
    representatives; see the module docstring for why that loses nothing.
    """
    if not isinstance(a, TableGroup) or not isinstance(b, TableGroup):
        raise OrderLimitExceeded("isomorphism testing needs both groups within the table limit")
    if a.order != b.order:
        return None
    if Fingerprint.of(a) != Fingerprint.of(b):
        return None
    for m in _search(a, b, True, budget, None, True):
        return m
    return None


def find_embedding(
    h: TableGroup, g, *, support=None, budget: int | None = None
) -> Morphism | None:
    """A verified embedding of h into g, or None.

    None proves absence only when g is a dense TableGroup; against a
    TwistedGroup the pool is restricted and absence is inconclusive.  Into a
    dense g the embedding returned is the first one search_monomorphisms
    would yield, found with the first generator's images cut to class
    representatives (see the module docstring).  A TwistedGroup g goes
    through the same kernel, its candidate elements interned to int ids.
    """
    if not isinstance(h, TableGroup):
        raise OrderLimitExceeded("the embedded group must be within the table limit")
    for m in _search(h, g, False, budget, support, True):
        return m
    return None


def automorphisms(g: TableGroup):
    """Stream every automorphism of g in the order search_monomorphisms
    yields them.  Raises AutBudgetExceeded past AUT_BUDGET automorphisms, and
    before the first one when g is elementary abelian of rank k and
    |GL(k, p)| is over the budget.
    """
    p = elem_abelian_prime(g)
    if p is not None:
        k = factorization(g.order)[p]
        total = 1
        for i in range(k):
            total *= p**k - p**i
        if total > AUT_BUDGET:
            raise AutBudgetExceeded(f"|Aut| = {total} exceeds the budget {AUT_BUDGET}")
    count = 0
    for m in search_monomorphisms(g, g, require_iso=True):
        count += 1
        if count > AUT_BUDGET:
            raise AutBudgetExceeded(
                f"more than {AUT_BUDGET} automorphisms of a group of order {g.order}"
            )
        yield m


def elem_abelian_prime(g: TableGroup) -> int | None:
    """The prime p when g is elementary abelian of exponent p, else None."""
    if not g.is_abelian:
        return None
    e = g.exponent
    if is_prime(e) and list(factorization(g.order)) == [e]:
        return e
    return None
