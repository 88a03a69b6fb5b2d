"""Isomorphism testing, embedding search, and automorphism streams.

All searches share one backtracking engine: pick a short generating sequence
for the source, propose images for each generator in turn, and extend the
partial map along the source's BFS derivations.  A partial map that survives
the (element, generator) product checks on a prefix closure is a genuine
homomorphism of that closure, so pruning is sound; a completed map is a
verified monomorphism without any separate pass.

Absence results are proofs only when the target is a dense TableGroup, since
then candidate pools cover the whole group.  Against a TwistedGroup the pool
is restricted (by support, or by sheer size), so only positive findings count.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import AutBudgetExceeded, SearchBudgetExceeded
from .groups import Subgroup, TableGroup, TwistedGroup, bfs_closure
from .numtheory import factorization, is_prime

DEFAULT_SEARCH_BUDGET = 50_000_000
AUT_BUDGET = 1 << 25
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
        orders = g.element_orders
        uniq, counts = np.unique(orders, return_counts=True)
        osig = tuple((int(u), int(c)) for u, c in zip(uniq, counts))
        su, sc = np.unique(g.class_sizes, return_counts=True)
        csig = tuple((int(u), int(c)) for u, c in zip(su, sc))
        fp = Fingerprint(
            order=g.order,
            abelian=g.is_abelian,
            element_orders=osig,
            center_order=len(g.center_elements),
            derived_order=len(g.derived_elements),
            exponent=g.exponent,
            class_sizes=csig,
            abelian_invariants=g.abelian_invariants,
        )
        g.__dict__["_fingerprint"] = fp
        return fp

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "abelian": self.abelian,
            "element_orders": [list(t) for t in self.element_orders],
            "center_order": self.center_order,
            "derived_order": self.derived_order,
            "exponent": self.exponent,
            "class_sizes": [list(t) for t in self.class_sizes],
            "abelian_invariants": (
                None if self.abelian_invariants is None else list(self.abelian_invariants)
            ),
        }

    @staticmethod
    def from_json(d: dict) -> "Fingerprint":
        return Fingerprint(
            order=d["order"],
            abelian=d["abelian"],
            element_orders=tuple((a, b) for a, b in d["element_orders"]),
            center_order=d["center_order"],
            derived_order=d["derived_order"],
            exponent=d["exponent"],
            class_sizes=tuple((a, b) for a, b in d["class_sizes"]),
            abelian_invariants=(
                None
                if d["abelian_invariants"] is None
                else tuple(d["abelian_invariants"])
            ),
        )


def derived_series_orders(g: TableGroup) -> list[int]:
    out = [g.order]
    cur = g
    elems = cur.derived_elements
    while len(elems) not in (1, out[-1]):
        out.append(len(elems))
        sg = Subgroup.from_elements(cur, elems, elems[:3])
        cur = sg.group
        elems = cur.derived_elements
    if len(elems) == 1 and out[-1] != 1:
        out.append(1)
    return out


def rich_invariant_key(g: TableGroup) -> bytes:
    """Finer (still sound) separation key used to bucket candidates before
    pairwise isomorphism checks."""
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
    series = derived_series_orders(g)
    return fp + b"|" + repr(per_class).encode() + b"|" + repr(series).encode()


@dataclass
class Morphism:
    """A verified structure-preserving map, stored as generator images plus
    the full element map."""

    source: object
    target: object
    gen_images: list[tuple[object, object]]
    mapping: dict
    kind: str = "monomorphism"

    def __call__(self, x):
        return self.mapping[x]

    @property
    def injective(self) -> bool:
        vals = [_hashable(v) for v in self.mapping.values()]
        return len(set(vals)) == len(vals)

    def verify(self) -> bool:
        src, dst = self.source, self.target
        m = self.mapping
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

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "generators": [
                {"source": sw, "image": tw} for sw, tw in self.witness_words()
            ],
        }


def _hashable(x):
    return int(x) if isinstance(x, (int, np.integer)) else x


# --- the backtracking engine ----------------------------------------------------


class _Budget:
    __slots__ = ("left",)

    def __init__(self, amount: int):
        self.left = amount

    def spend(self, k: int) -> None:
        self.left -= k
        if self.left < 0:
            raise SearchBudgetExceeded("embedding search budget exhausted")


def _twisted_pool(dst: TwistedGroup, support, budget: _Budget):
    """Candidate images in the support-restricted pool, with their orders."""
    if support is None:
        if dst.order > TWISTED_FULL_POOL_LIMIT:
            raise SearchBudgetExceeded(
                f"target of order {dst.order} needs a support restriction"
            )
        it = dst.elements()
    else:
        it = dst.support_elements(support)
    pool = []
    for x in it:
        budget.spend(1)
        pool.append((x, dst.element_order(x)))
    return pool


def search_monomorphisms(
    src: TableGroup,
    dst,
    *,
    require_iso: bool = False,
    budget: int | None = None,
    support=None,
):
    """Yield monomorphisms src -> dst (isomorphisms when require_iso).

    Deterministic: candidates are tried in ascending element order.  Raises
    SearchBudgetExceeded when the work cap is hit, in which case nothing may
    be concluded from an absence of yields.
    """
    bud = _Budget(DEFAULT_SEARCH_BUDGET if budget is None else budget)
    dense = isinstance(dst, TableGroup)
    if require_iso and (not dense or src.order != dst.order):
        return
    if dense and dst.order % src.order != 0:
        return
    if src.order == 1:
        kind = "isomorphism" if require_iso else "monomorphism"
        yield Morphism(src, dst, [], {0: dst.identity}, kind)
        return

    gens = src.greedy_gens
    levels = src.bfs_levels(gens)
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
        raw = _twisted_pool(dst, support, bud)
        pools = [[x for x, o in raw if o == want] for want in src_orders]

    img: dict = {src.identity: dst.identity}
    used: dict = {_hashable(dst.identity): src.identity}

    def place(level: int):
        elems, deriv = levels[level]
        gen_elem = gens[level]
        for cand in pools[level]:
            hc = _hashable(cand)
            if hc in used:
                continue
            added: list = [(gen_elem, hc)]
            img[gen_elem] = cand
            used[hc] = gen_elem
            ok = True
            for e in elems:
                if e in img:
                    continue
                parent, pos = deriv[e]
                bud.spend(1)
                val = dst.mul(img[parent], img[gens[pos]])
                hv = _hashable(val)
                if hv in used:
                    ok = False
                    break
                img[e] = val
                used[hv] = e
                added.append((e, hv))
            if ok:
                # full (element, generator) product check on the prefix
                # closure; survivors are verified homomorphisms of it
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
                    kind = "isomorphism" if require_iso else "monomorphism"
                    if require_iso and src is dst:
                        kind = "automorphism"
                    yield Morphism(src, dst, [(g, img[g]) for g in gens], dict(img), kind)
                else:
                    yield from place(level + 1)
            for e, hv in added:
                del img[e]
                del used[hv]

    yield from place(0)


def is_isomorphic(a: TableGroup, b: TableGroup, *, budget: int | None = None) -> Morphism | None:
    """A verified isomorphism, or None (which is a proof of non-isomorphism)."""
    if not isinstance(a, TableGroup) or not isinstance(b, TableGroup):
        raise TypeError("isomorphism testing needs dense groups on both sides")
    if a.order != b.order:
        return None
    if Fingerprint.of(a) != Fingerprint.of(b):
        return None
    for m in search_monomorphisms(a, b, require_iso=True, budget=budget):
        return m
    return None


def find_embedding(
    h: TableGroup, g, *, support=None, budget: int | None = None
) -> Morphism | None:
    """A verified embedding of h into g, or None.

    None proves absence only when g is a dense TableGroup; against a
    TwistedGroup the pool is restricted and absence is inconclusive.
    """
    if not isinstance(h, TableGroup):
        raise TypeError("the embedded group must be dense")
    if isinstance(g, TwistedGroup) and support is not None:
        support = g.resolve_support(support)
    for m in search_monomorphisms(h, g, budget=budget, support=support):
        return m
    return None


def automorphisms(g: TableGroup, *, budget: int = AUT_BUDGET):
    """Stream every automorphism of g in a deterministic order.

    Elementary abelian groups of rank at least 2 go through the
    invertible-linear-map shortcut; everything else uses the generic search.
    Raises AutBudgetExceeded past ``budget`` automorphisms.
    """
    if g.order == 1:
        yield Morphism(g, g, [], {0: 0}, "automorphism")
        return
    p = elem_abelian_prime(g)
    if p is not None and g.order > p:
        yield from _linear_automorphisms(g, p, budget)
        return
    count = 0
    for m in search_monomorphisms(g, g, require_iso=True):
        count += 1
        if count > budget:
            raise AutBudgetExceeded(f"more than {budget} automorphisms")
        yield m


def automorphism_count(g: TableGroup, *, budget: int = AUT_BUDGET) -> int:
    return sum(1 for _ in automorphisms(g, budget=budget))


def elem_abelian_prime(g: TableGroup) -> int | None:
    """The prime p when g is elementary abelian of exponent p, else None."""
    if not g.is_abelian:
        return None
    e = g.exponent
    if is_prime(e) and list(factorization(g.order)) == [e]:
        return e
    return None


def ea_basis_and_coords(g: TableGroup, p: int):
    """A basis of an elementary abelian group plus both coordinate maps."""
    k = factorization(g.order)[p]
    basis: list[int] = []
    span = {0}
    for x in range(g.order):
        if x in span:
            continue
        basis.append(x)
        span = set(bfs_closure(0, basis, g.mul)[0])
        if len(basis) == k:
            break
    elem_of: dict[tuple[int, ...], int] = {}
    vec_of: dict[int, tuple[int, ...]] = {}
    for combo in itertools.product(range(p), repeat=k):
        e = 0
        for c, b in zip(combo, basis):
            e = g.mul(e, g.power(b, c))
        elem_of[combo] = e
        vec_of[e] = combo
    return basis, elem_of, vec_of


def _linear_automorphisms(g: TableGroup, p: int, budget: int):
    n = g.order
    k = factorization(n)[p]
    total = 1
    for i in range(k):
        total *= p**k - p**i
    if total > budget:
        raise AutBudgetExceeded(f"|Aut| = {total} exceeds the budget {budget}")
    basis, elem_of, vec_of = ea_basis_and_coords(g, p)
    vectors = list(itertools.product(range(p), repeat=k))
    zero = tuple([0] * k)

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    def emit(rows: list, covered: set):
        if len(rows) == k:
            mapping = {}
            for e in range(n):
                v = vec_of[e]
                w = zero
                for i in range(k):
                    if v[i]:
                        for _ in range(v[i]):
                            w = add(w, rows[i])
                mapping[e] = elem_of[w]
            yield Morphism(g, g, [(b, mapping[b]) for b in basis], mapping, "automorphism")
            return
        for cand in vectors:
            if cand in covered:
                continue
            yield from emit(rows + [cand], set(bfs_closure(zero, rows + [cand], add)[0]))

    yield from emit([], {zero})
