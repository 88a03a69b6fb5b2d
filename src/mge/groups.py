"""Concrete finite groups and the expression realizer.

Two realizations exist.  TableGroup stores the full multiplication table as a
dense numpy array and supports every structural query; it is capped at
TABLE_LIMIT elements.  TwistedGroup represents a direct product of dense
components optionally extended by a rank-r elementary-abelian 2-group of
commuting componentwise involutions; its elements are (component tuple, bits)
pairs and it is never materialized as a table.

Element handles are plain ints for TableGroup (0 is always the identity) and
(tuple[int, ...], int) pairs for TwistedGroup.

``along_generators`` is the one routine that extends a map from generator
images to every element, along the derivations of ``bfs_closure``.

Three routines fill a table: ``_product_table`` (direct products, EA(p,k)),
``_extension_table`` (cyclic extensions: the enumerator's candidates, D(n),
Q(n)) and ``_regular_table`` (groups given by an action).

Semidirect action convention: a clause ``t.g=w`` pins conjugation of ``g`` by
``t``, i.e. ``t^-1 * g * t = w`` holds in the product.  Base generators with
no clause for some acting generator are fixed by it.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import factorial, lcm, prod

import numpy as np

from . import perms
from .errors import (
    CentralIdentificationError,
    EngineError,
    InvalidAction,
    NotNormal,
    OrderLimitExceeded,
    ParseError,
    SubgroupLimitExceeded,
    UnknownGenerator,
)
from .expressions import (
    ActionClause,
    Alternating,
    CentralProduct,
    Cyclic,
    Dicyclic,
    Dihedral,
    DirectProduct,
    ElemAbelian,
    GroupExpr,
    Named,
    PermGroupExpr,
    Quotient,
    Renamed,
    SemidirectProduct,
    Symmetric,
    parse_expr,
    tokenize_word,
)
from .numtheory import factorization

TABLE_LIMIT = 5000
# The dtype of every table cell and element id.  Builders compute in it (an
# ELEMENT array times a Python int stays ELEMENT) and add two ids before
# reducing them, so 2 * TABLE_LIMIT must fit; a flat cell index a * n + b
# does not, and is formed in np.intp.
ELEMENT = np.dtype(np.int16)
assert 2 * TABLE_LIMIT <= np.iinfo(ELEMENT).max
SUBGROUP_LIMIT = 5000
CHECK_TABLE_LIMIT = 512
# cells per block when an n x n array is built or read in parts: a block's
# temporaries (an np.intp index is 8 bytes a cell) stay small beside the table
_BLOCK_CELLS = 1 << 16


def _row_blocks(rows: int, cols: int):
    """Slices of ``range(rows)`` whose blocks of ``cols`` columns hold about
    _BLOCK_CELLS cells each."""
    step = max(1, _BLOCK_CELLS // max(cols, 1))
    return [slice(r0, r0 + step) for r0 in range(0, rows, step)]


# --- shared closure helpers --------------------------------------------------


def _close_products(table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The sorted elements of the product closure of the set S marked in
    ``mask``: ``S * S`` is marked, in row blocks, until nothing is added."""
    while True:
        s = np.flatnonzero(mask)
        for rows in _row_blocks(len(s), len(s)):
            mask[table[s[rows]][:, s]] = True
        if mask.sum() == len(s):
            return s


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a matrix as one opaque bytes value."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _row_closure(seeds: np.ndarray, step, seen: set):
    """Yield, level by level, the rows reachable from ``seeds`` whose bytes
    are not in ``seen``, adding their keys to ``seen``.  The first level is
    the new seeds; each next one is ``step(level)`` (a 2-d array of rows of
    the same dtype) less the rows already seen."""
    rows = seeds
    while len(rows):
        first = dict(zip(_row_keys(rows).tolist(), range(len(rows))))
        rows = rows[[i for k, i in first.items() if k not in seen]]
        seen.update(first)
        if len(rows):
            yield rows
            rows = step(rows)


def bfs_closure(identity, gens, mul, limit=SUBGROUP_LIMIT):
    """Breadth-first closure of ``gens`` under ``mul``.

    Returns (elements in discovery order, derivations) where the derivation
    of a non-identity element is (parent, generator position) with
    element == mul(parent, gens[pos]).  Deterministic for fixed inputs.
    ``mul`` runs once per element, in discovery order, times each generator
    in turn: call ``i * len(gens) + pos`` forms ``elems[i] * gens[pos]``.
    """
    elems = [identity]
    seen = {identity}
    deriv = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for pos, g in enumerate(gens):
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    elems.append(y)
                    deriv[y] = (x, pos)
                    nxt.append(y)
                    if len(elems) > limit:
                        raise SubgroupLimitExceeded(f"closure exceeded {limit} elements")
        frontier = nxt
    return elems, deriv


def along_generators(g, gens, images, mul, start):
    """The image of every element of ``g``, as a list indexed by element id:
    the identity goes to ``start`` and ``x * gens[k]`` to
    ``mul(image of x, images[k])``, along the derivations of ``bfs_closure``.
    None when ``gens`` do not generate ``g``; whether the map respects
    ``g``'s relations is the caller's check."""
    elems, deriv = bfs_closure(0, gens, g.mul)
    if len(elems) != g.n:
        return None
    out = [start] * g.n
    for e in elems[1:]:
        parent, pos = deriv[e]
        out[e] = mul(out[parent], images[pos])
    return out


def _power(g, x, k: int):
    """``x**k`` by square-and-multiply; shared by both group classes."""
    if k < 0:
        x, k = g.inv_of(x), -k
    out, base = g.identity, x
    while k:
        if k & 1:
            out = g.mul(out, base)
        base = g.mul(base, base)
        k >>= 1
    return out


# --- the element interface of both group classes --------------------------------
#
# A product-like group (a TableGroup with components, or a TwistedGroup) lists
# its factors as (group, generator renaming) pairs in ``_factors()`` and places
# a factor's element in the product with ``_inject(position, element)``.


def _evaluate_word(g, word: str):
    out = g.identity
    for name, exp in tokenize_word(word):
        out = g.mul(out, g.power(_resolve_factor(g, name), exp))
    return out


def _resolve_factor(g, name: str):
    if name == "1":
        return g.identity
    if name in g.gens:
        return g.gens[name]
    got = g._resolve_cycles(name) if perms.looks_like_cycles(name) else None
    if got is None:
        raise UnknownGenerator(f"no generator or element named {name!r}")
    return got


def _resolve_in_factors(g, token: str):
    """The element a cycle string names in the one factor that has it; None
    when no factor has it."""
    hits = []
    for pos, (f, _) in enumerate(g._factors()):
        e = f._resolve_cycles(token)
        if e is not None:
            hits.append(g._inject(pos, e))
    if len(hits) > 1:
        raise UnknownGenerator(f"cycle element {token!r} is ambiguous here")
    return hits[0] if hits else None


def _factor_words(g, digits) -> list[str]:
    """One word per non-identity factor digit of an element, in the product's
    generator names.  A factor keeps its own label when that label names the
    same element of the product; otherwise (a cycle string that another
    factor also parses, or that is a generator name of another factor) the
    label is a word in the factor's renamed generators."""
    words = []
    for pos, ((f, rename), d) in enumerate(zip(g._factors(), digits)):
        if d == 0:
            continue
        word = _remap_word(f.label_of(d), rename)
        try:
            same = g.evaluate_word(word) == g._inject(pos, d)
        except EngineError:
            same = False
        words.append(word if same else _remap_word(f._bfs_labels()[d], rename))
    return words


def _subgroup(g, generators) -> "Subgroup":
    """The subgroup the words generate, tabulated from its closure's products."""
    gen_elems = [g.evaluate_word(w) if isinstance(w, str) else w for w in generators]
    products = []

    def mul(x, y):
        products.append(g.mul(x, y))
        return products[-1]

    elems, _ = bfs_closure(g.identity, gen_elems, mul)
    index = {e: i for i, e in enumerate(elems)}
    right = np.array([index[p] for p in products], dtype=np.intp).reshape(len(elems), -1).T
    grp = _acting_group(right, {f"g{k + 1}": int(e) for k, e in enumerate(right[:, 0])})
    return Subgroup(elems, grp)


# --- dense groups --------------------------------------------------------------


class _Component:
    """A factor's copy inside a product-like parent.

    The parent index of a tuple of factor digits is sum(digit * stride), so
    digit extraction is pure arithmetic.
    """

    def __init__(self, group: "TableGroup", stride: int, rename: dict[str, str]):
        self.group = group
        self.stride = stride
        self.rename = rename

    def inject(self, e: int) -> int:
        return e * self.stride

    def digit(self, parent_idx: int) -> int:
        return (parent_idx // self.stride) % self.group.n


class TableGroup:
    """A finite group as a dense multiplication table over 0..n-1.

    Index 0 is the identity in every group this module builds.
    """

    def __init__(
        self,
        table: np.ndarray,
        gens: dict[str, int] | None,
        *,
        perm_elems: PermElements | None = None,
        components: list[_Component] | None = None,
    ):
        table = np.ascontiguousarray(table, dtype=ELEMENT)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("table must be square")
        if n > TABLE_LIMIT:
            raise OrderLimitExceeded(f"order {n} exceeds table limit {TABLE_LIMIT}")
        if not (table[0] == np.arange(n)).all() or not (table[:, 0] == np.arange(n)).all():
            raise ValueError("index 0 must be the identity")
        # argmin copies a read-only input whole, so inverses are found first
        self.inv = np.argmin(table, axis=1).astype(ELEMENT)
        if (table[np.arange(n), self.inv] != 0).any():
            raise ValueError("table has an element without an inverse")
        table.flags.writeable = False  # table_hash is computed once
        self.table = table
        self.n = n
        # zero-copy views: indexing one yields a Python int without a numpy scalar
        self._cells = memoryview(table)
        self._flat_cells = self._cells.cast("B").cast(self._cells.format)
        self._inv_cells = memoryview(self.inv)
        if gens is not None:  # None for a permutation group; see the gens property
            self.gens = dict(gens)
        self.perm_elems = perm_elems
        self.components = components

    # -- basics --

    @cached_property
    def gens(self) -> dict[str, int]:
        """A permutation group's generators by cycle string, formatted on first read."""
        return {self.label_of(i): i for i in self.perm_elems.gen_ids}

    @property
    def order(self) -> int:
        return self.n

    @property
    def identity(self) -> int:
        return 0

    def elements(self):
        return range(self.n)

    def mul(self, a: int, b: int) -> int:
        return self._cells[a, b]

    def inv_of(self, a: int) -> int:
        return self._inv_cells[a]

    def row(self, a: int) -> memoryview:
        """Row ``a`` of the table (``a * x`` for every x), a read-only view without a copy."""
        return self._flat_cells[a * self.n : a * self.n + self.n]

    power = _power

    def element_order(self, x: int) -> int:
        return int(self.element_orders[x])

    def _powers(self, x: np.ndarray, k: int) -> np.ndarray:
        """``x[i] ** k`` for every entry, by square-and-multiply; k >= 1."""
        cells = self.table.ravel()
        out = None
        while k:
            if k & 1:
                out = x if out is None else cells.take(self._flat(out, x))
            k >>= 1
            if k:
                x = cells.take(self._flat(x, x))
        return out

    def _flat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The flat cell index ``a * n + b`` of each pair, in np.intp: an
        ELEMENT product would wrap."""
        return a.astype(np.intp) * self.n + b

    @cached_property
    def element_orders(self) -> np.ndarray:
        """The order of every element, one prime at a time.  For ``p**a``
        exactly dividing n, ``y = x ** (n // p**a)`` has order the p-part of
        the order of x, which is read off by raising y to the p-th power
        until it is the identity."""
        n = self.n
        orders = np.ones(n, dtype=np.int64)
        for p, a in factorization(n).items():
            y = self._powers(np.arange(n), n // p**a)
            for _ in range(a):
                moved = y != 0
                if not moved.any():
                    break
                orders[moved] *= p
                y = self._powers(y, p)
        return orders

    @cached_property
    def is_abelian(self) -> bool:
        """Whether every conjugacy class is one element, read off the class
        scan that the fingerprint and the search need anyway."""
        return len(self.class_reps) == self.n

    @cached_property
    def exponent(self) -> int:
        return lcm(*(int(d) for d in np.flatnonzero(np.bincount(self.element_orders))))

    # -- conjugacy --

    @cached_property
    def _conjugacy(self) -> tuple[np.ndarray, list[int], np.ndarray]:
        """(class id of each element, class representatives, class sizes).

        Elements are scanned in ascending order and each one not yet in a
        class opens the next class with its conjugates ``g * x * g^-1``, so
        ``class_reps[i]`` is the minimum of class i.  The level-0 cut of the
        search in ``morphisms`` relies on that invariant.  ``build_product``
        fills the same triple from its factors instead."""
        n = self.n
        cells = self.table.ravel()
        inv_rows = self.inv.astype(np.intp) * n  # g^-1 * y is cells[inv_rows[g] + y]
        class_id = np.full(n, -1, dtype=np.int64)
        class_of = memoryview(class_id)  # reading one cell yields a Python int
        reps: list[int] = []
        for x in range(n):
            if class_of[x] < 0:
                class_id[cells.take(inv_rows + self.table[x])] = len(reps)  # g^-1 * x * g
                reps.append(x)
        return class_id, reps, np.bincount(class_id)

    @property
    def class_ids(self) -> np.ndarray:
        return self._conjugacy[0]

    @property
    def class_reps(self) -> list[int]:
        return self._conjugacy[1]

    @property
    def class_sizes(self) -> np.ndarray:
        return self._conjugacy[2]

    def centralizer_size(self, x: int) -> int:
        return self.n // int(self.class_sizes[self.class_ids[x]])

    @cached_property
    def center_elements(self) -> list[int]:
        cid, _, sizes = self._conjugacy
        return [int(x) for x in np.flatnonzero(sizes[cid] == 1)]

    @cached_property
    def derived_elements(self) -> list[int]:
        """Sorted element list of the commutator subgroup.

        The commutators with a class representative r are
        ``r^-1 * b^-1 * r * b``, that is r^-1 times each conjugate of r, and
        every commutator is a conjugate of one of those.  So the commutators
        are the classes that these n products meet, and G' is their closure."""
        t, class_id = self.table, self.class_ids
        reps = np.asarray(self.class_reps)
        met = np.zeros(len(reps), dtype=bool)
        met[class_id[t[self.inv[reps[class_id]], np.arange(self.n)]]] = True
        return _close_products(t, met[class_id]).tolist()

    @cached_property
    def abelian_invariants(self) -> tuple[int, ...] | None:
        """Invariant factors, largest first, for abelian groups; else None.

        They are read off the element orders one prime at a time.  If the
        p-primary part has partition l, then ``m * p**(sum of min(l_i, j))``
        elements have an order whose p-part divides ``p**j`` (m the p'-part
        of n).  So count j over count j-1 is ``p**l'_j``, l' the conjugate
        partition, and l_i is the number of those steps that reach ``p**i``."""
        if not self.is_abelian:
            return None
        invs: list[int] = []
        for p, a in factorization(self.n).items():
            counts = [np.count_nonzero(self.element_orders % p ** (j + 1)) for j in range(a + 1)]
            steps = [int(hi // lo) for lo, hi in zip(counts, counts[1:])]
            i, q = 0, p
            while steps[0] >= q:
                if i == len(invs):
                    invs.append(1)
                invs[i] *= p ** sum(s >= q for s in steps)
                i, q = i + 1, q * p
        return tuple(invs)

    # -- words and labels --

    evaluate_word = _evaluate_word
    subgroup = _subgroup

    def _factors(self) -> list[tuple["TableGroup", dict[str, str]]]:
        return [(c.group, c.rename) for c in self.components or ()]

    def _inject(self, pos: int, e: int) -> int:
        return self.components[pos].inject(e)

    def _resolve_cycles(self, token: str) -> int | None:
        if self.perm_elems is None:
            return _resolve_in_factors(self, token)
        try:
            p = perms.parse_cycles(token, degree=self.perm_elems.degree)
        except ParseError:
            return None
        i = int(self.perm_elems.index_of(p))
        return i if i >= 0 else None

    @cached_property
    def labels(self) -> list[str]:
        """Every element's label.  Only groups labelled by generator words
        need this whole list; label_of formats single elements of the rest."""
        if self.perm_elems is None and not self.components:
            return self._bfs_labels()
        return [self.label_of(x) for x in range(self.n)]

    def _bfs_labels(self) -> list[str]:
        names = list(self.gens)
        words = along_generators(self, list(self.gens.values()), names, lambda w, s: w + [s], [])
        if words is None:
            # bindings do not generate; indices are still unambiguous
            return [f"#{i}" for i in range(self.n)]
        return [_compress_word(w) for w in words]

    def label_of(self, x: int) -> str:
        if self.perm_elems is not None:
            return perms.format_cycles(self.perm_elems.mat[x].tolist())
        if self.components:
            return "*".join(_factor_words(self, [c.digit(x) for c in self.components])) or "1"
        return self.labels[x]

    # -- generating sequences --

    @cached_property
    def greedy_gens(self) -> tuple[int, ...]:
        """A short generating sequence: the highest-order element first, then
        repeatedly whichever element grows the closure most; ties break to the
        lowest index.  Deterministic.

        A round closes only the candidates that could still win.  ``covered``
        holds every closure tried so far in the round.  If ``y > x`` lies in
        ``K = <chosen, x>``, then ``<chosen, y>`` is inside ``K``, so it is no
        larger than the best so far, and only a strictly larger closure
        replaces the best: ``y`` is skipped without changing the answer.  A
        closure that is the whole group ends the round, and the winner's
        closure is the next round's ``have``."""
        if self.n == 1:
            return ()
        orders = self.element_orders
        first = int(np.lexsort((np.arange(self.n), -orders))[0])
        chosen = [first]
        have = set(bfs_closure(0, chosen, self.mul)[0])
        while len(have) < self.n:
            best, best_closure = -1, have
            covered = set(have)
            for x in range(self.n):
                if x in covered:
                    continue
                closure = bfs_closure(0, chosen + [x], self.mul)[0]
                covered.update(closure)
                if len(closure) > len(best_closure):
                    best, best_closure = x, closure
                    if len(closure) == self.n:
                        break
            chosen.append(best)
            have = set(best_closure)
        return tuple(chosen)

    @cached_property
    def table_hash(self) -> str:
        """sha256 of the table's bytes as int32, row-major: the digest every
        catalog and pin stores.  The ELEMENT table is widened one row block
        at a time, so no int32 copy of the whole table is made."""
        h = hashlib.sha256()
        for rows in _row_blocks(self.n, self.n):
            h.update(self.table[rows].astype(np.int32))
        return h.hexdigest()

    def __repr__(self) -> str:
        return f"<TableGroup order={self.n}>"


def _compress_word(names: list[str]) -> str:
    runs = [(name, len(list(run))) for name, run in itertools.groupby(names)]
    return "*".join(name if k == 1 else f"{name}^{k}" for name, k in runs) or "1"


def _remap_word(word: str, rename: dict[str, str]) -> str:
    if not rename or word == "1" or word.startswith("#"):
        return word
    parts = []
    for name, exp in tokenize_word(word):
        name = rename.get(name, name)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


@dataclass
class Subgroup:
    """A subgroup: its ambient elements in discovery order, and its own table."""

    elements: list
    group: TableGroup

    @property
    def order(self) -> int:
        return len(self.elements)


# --- groups given by an action ---------------------------------------------------


def _acting_group(right: np.ndarray, gens: dict[str, int]) -> TableGroup:
    """The group tabulated by _regular_table from a right action: ``right[k, i]``
    is the id of ``x_i * g_k`` for elements or cosets ``x_i`` (the identity
    at 0) and a generating sequence ``g_k``; ``gens`` names generator ids."""
    table = _regular_table(right.shape[1], right)
    if table is None:
        raise EngineError("the generators do not generate the elements they act on")
    return TableGroup(table, gens)


def quotient_group(g: TableGroup, normal_elems: list[int]) -> TableGroup:
    """G/N for the subgroup N on ``normal_elems``.  N must be normal: the
    first element of N (in id order) with a conjugate outside N is named in
    the NotNormal error.  A coset's least element is its representative,
    the cosets are numbered in the order of their representatives, and G's
    generators act on them by right multiplication.  Each generator maps to
    its coset."""
    inside = np.zeros(g.n, dtype=bool)
    inside[np.asarray(normal_elems, dtype=np.intp)] = True
    arr = np.flatnonzero(inside)
    conj = g.table[g.table[:, arr], g.inv[:, None]]  # conj[x, j] = x a_j x^-1
    escapes = ~inside[conj].all(axis=0)
    if escapes.any():
        a = int(arr[np.argmax(escapes)])
        raise NotNormal(f"element {g.label_of(a)} has conjugates outside the subgroup")
    least = np.arange(g.n)
    for rows in _row_blocks(len(arr), g.n):  # N's products, in row blocks
        least = np.minimum(least, g.table[arr[rows]].min(axis=0))
    reps, coset = np.unique(least, return_inverse=True)
    gens = np.array(list(g.gens.values()), dtype=np.intp)
    right = coset[g.table[reps[:, None], gens]].T  # the coset of reps[c] * gens[k]
    return _acting_group(right, {name: int(coset[e]) for name, e in g.gens.items()})


# --- builders --------------------------------------------------------------------


def build_cyclic(n: int) -> TableGroup:
    if n > TABLE_LIMIT:
        raise OrderLimitExceeded(f"C({n}) exceeds table limit")
    idx = np.arange(n, dtype=ELEMENT)
    return TableGroup((idx[:, None] + idx[None, :]) % n, {"a": 1 % n})


def _extension_table(base: TableGroup, amap: np.ndarray, a: int, p: int) -> np.ndarray:
    """Index ``i*m + x`` stands for ``x * t^i`` and ``t^p = a`` commutes with t, so
    block (i, j) is ``x * alpha^i(y)``, times ``a`` when ``i + j >= p``, coset (i+j) % p."""
    m, t = base.n, base.table
    pows = [np.arange(m)]
    for _ in range(1, p):
        pows.append(amap[pows[-1]])
    blk = t[:, np.stack(pows)].transpose(1, 0, 2)[:, :, None, :]  # [i, x, ., y]
    i = np.arange(p, dtype=ELEMENT)  # every cell stays ELEMENT, like the table
    s = i[:, None, None, None] + i[:, None]  # i + j, as [i, ., j, .]
    out = np.where(s >= p, t[:, a][blk], blk) + (s % p) * m
    return out.reshape(m * p, m * p)


def build_elem_abelian(p: int, k: int) -> TableGroup:
    """The product of k copies of C(p).  The table, a digitwise sum mod p,
    is the same whichever digit leads, so ``a{i+1}`` is ``p^i``."""
    # 2^k > TABLE_LIMIT once k reaches its bit length, so no larger power is formed
    if k >= TABLE_LIMIT.bit_length() or p**k > TABLE_LIMIT:
        raise OrderLimitExceeded(f"EA({p},{k}) exceeds table limit")
    return TableGroup(_product_table([build_cyclic(p)] * k), {f"a{i + 1}": p**i for i in range(k)})


def build_dihedral(n: int) -> TableGroup:
    """C(n) extended by b of order 2 acting by inversion."""
    if 2 * n > TABLE_LIMIT:
        raise OrderLimitExceeded(f"D({n}) exceeds table limit")
    c = build_cyclic(n)
    return TableGroup(_extension_table(c, c.inv, 0, 2), {"a": 1 % n, "b": n})


def build_dicyclic(n: int) -> TableGroup:
    """C(2n) extended by b acting by inversion, with b^2 = a^n."""
    if 4 * n > TABLE_LIMIT:
        raise OrderLimitExceeded(f"Q({n}) exceeds table limit")
    c = build_cyclic(2 * n)
    return TableGroup(_extension_table(c, c.inv, n, 2), {"a": 1, "b": 2 * n})


def _perm_closure(degree: int, gens: np.ndarray) -> np.ndarray:
    """Every element generated by the rows of ``gens``, as rows in
    lexicographic order: the identity closed under right multiplication
    (``x * g == g[x]``), then sorted once as big-endian bytes, whose order
    agrees with numeric order."""
    gens = np.asarray(gens, dtype=np.int32)  # the row keys are int32 bytes
    seen: set[bytes] = set()
    levels = []
    for level in _row_closure(np.arange(degree, dtype=np.int32)[None],
                              lambda f: np.take(gens, f, axis=1).reshape(-1, degree), seen):
        levels.append(level)
        if len(seen) > SUBGROUP_LIMIT:
            raise SubgroupLimitExceeded(f"closure exceeded {SUBGROUP_LIMIT} elements")
    found = np.concatenate(levels)
    return found[np.argsort(_row_keys(found.astype(">i4")))]


class PermElements:
    """The elements of a permutation group as rows of images in lexicographic
    order, ``mat``, with the element ids of the generating permutations,
    ``gen_ids``.  For a regular group ``mat`` is a view of the table (see
    right_regular)."""

    def __init__(self, mat: np.ndarray, gen_ids: list[int]):
        self.mat = mat
        self.degree = mat.shape[1]
        self.gen_ids = gen_ids

    @cached_property
    def _ids(self) -> tuple[int, dict[bytes, int]]:
        """(b, each element's id keyed by its images of points 0..b-1), for
        the fewest leading points b that tell the elements apart: 1 for a
        regular group.  The rows are sorted, so b is one more than the last
        point at which a row first differs from the row before it."""
        b = 1
        for rows in _row_blocks(len(self.mat) - 1, self.degree):
            differs = self.mat[1:][rows] != self.mat[:-1][rows]
            b = max(b, int(differs.argmax(axis=1).max()) + 1)
        return b, dict(zip(_row_keys(self.mat[:, :b]).tolist(), range(len(self.mat))))

    def index_of(self, rows) -> np.ndarray:
        """Element id of each permutation row (the last axis runs over the
        points); -1 for non-members.  A row is looked up by its leading
        images and the hit is confirmed against the whole row."""
        rows = np.asarray(rows, dtype=self.mat.dtype)
        flat = rows.reshape(-1, self.degree)
        b, keyed = self._ids
        ids = np.array([keyed.get(k, -1) for k in _row_keys(flat[:, :b]).tolist()], dtype=ELEMENT)
        ids[(self.mat[ids] != flat).any(axis=1)] = -1
        return ids.reshape(rows.shape[:-1])


def _regular_table(degree: int, gens: np.ndarray) -> np.ndarray | None:
    """The table of the group that the rows of ``gens`` (permutations of
    ``range(degree)``, ``x * s == s[x]``) generate, if it acts regularly, else
    None.  Element ``p`` is the permutation ``U[p]`` taking point 0 to ``p``.
    ``U[p][i]`` is the point of ``U[i] * U[p]``, so row ``p`` of U is column
    ``p`` of the table: U is filled as the transposed view of the table, and
    the build holds one n x n array.  Rows are filled along a Schreier tree of
    point 0 and accepted when ``U[j] * s == U[s[j]]`` for all points j and
    generators s: U then holds 1, is closed under the generators and is made
    of their products, so it is the whole group.

    Every group acts regularly on its own elements, and a quotient on its
    own cosets, so this also tabulates a group from right multiplication by
    its generators (``s[i]`` the id of ``x_i * g``, the identity at 0): any
    other permutation group, every subgroup, quotient and central product."""
    if degree > TABLE_LIMIT:
        return None
    gens = np.asarray(gens, dtype=ELEMENT)  # the dtype of u: wider rows slow the check
    table = np.empty((degree, degree), dtype=ELEMENT)
    u = table.T
    u[0] = np.arange(degree)
    flat, rows, seen = gens.ravel(), gens.tolist(), bytearray(degree)
    seen[0] = 1
    frontier = [0]
    while frontier:  # one tree level, filled in row blocks
        level = []
        for j in frontier:
            for k, s in enumerate(rows):
                if not seen[s[j]]:
                    seen[s[j]] = 1
                    level.append((s[j], j, k))
        if level:  # (point s[j], parent j, generator s) triples
            points, parents, by = np.array(level).T
            for b in _row_blocks(len(level), degree):  # u[j] * s, as x * s == s[x]
                u[points[b]] = flat[by[b, None] * degree + u[parents[b]]]
        frontier = [q for q, _, _ in level]
    if 0 in seen:
        return None
    # U[j] * s == U[s[j]] reads s[table[i, j]] == table[i, s[j]] on the table;
    # one generator and one row block at a time: no array larger than the table
    closed = all((s.take(table[b]) == table[b].take(s, axis=1)).all()
                 for s in gens for b in _row_blocks(degree, degree))
    return table if closed else None


def right_regular(table: np.ndarray, gen_ids: list[int]) -> TableGroup:
    """The group of ``table`` acting on its own elements by right
    multiplication: element ``x`` is the permutation ``y -> y * x``, whose
    images are column ``x`` of the table.  The element rows are the view
    ``table.T``, so the group holds one n x n array; ``gen_ids`` are the
    element ids of its generators."""
    table = np.ascontiguousarray(table, dtype=ELEMENT)
    return TableGroup(table, None, perm_elems=PermElements(table.T, gen_ids))


def build_perm_group(degree: int, gen_perms: list[perms.Perm]) -> TableGroup:
    """Tabulate the group generated by ``gen_perms``.

    Elements are numbered in lexicographic order of their image tuples, which
    puts the identity at index 0.  A regular group's elements ``U`` from
    _regular_table are in that order (``U[p]`` starts with ``p``), and it is
    the right-regular group of the table, whose transpose is ``U``.  Any
    other group is closed by _perm_closure and tabulated by _regular_table
    from right multiplication on its elements: ``x * g`` has the row ``g[x]``.
    """
    gens = np.asarray(gen_perms, dtype=np.int32).reshape(len(gen_perms), degree)
    table = _regular_table(degree, gens)
    if table is not None:
        return right_regular(table, gens[:, 0].tolist())
    elems = PermElements(_perm_closure(degree, gens), [])  # at most SUBGROUP_LIMIT rows
    right = elems.index_of(gens[:, elems.mat])  # right[k, i] is the id of x_i * g_k
    if (right < 0).any():
        raise EngineError("a product of permutations fell outside their closure")
    elems.gen_ids = right[:, 0].tolist()
    return TableGroup(_regular_table(len(elems.mat), right), None, perm_elems=elems)


def build_symmetric(n: int) -> TableGroup:
    # past the limit n! > n > TABLE_LIMIT, so no larger factorial is formed
    if factorial(min(n, TABLE_LIMIT + 1)) > TABLE_LIMIT:
        raise OrderLimitExceeded(f"S({n}) exceeds table limit")
    if n == 1:
        return build_perm_group(1, [(0,)])
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    return build_perm_group(n, [cycle, swap] if n > 2 else [swap])


def build_alternating(n: int) -> TableGroup:
    if n <= 2:
        d = max(n, 1)
        return build_perm_group(d, [tuple(range(d))])
    if factorial(min(n, TABLE_LIMIT + 1)) // 2 > TABLE_LIMIT:
        raise OrderLimitExceeded(f"A({n}) exceeds table limit")
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n == 3:
        gens = [three]
    elif n % 2 == 1:
        gens = [three, tuple(list(range(1, n)) + [0])]
    else:
        gens = [three, tuple([0] + list(range(2, n)) + [1])]
    return build_perm_group(n, gens)


def _renamed_bindings(groups: list[TableGroup]) -> list[dict[str, str]]:
    """Deduplicate generator names across factors: a name used by several
    factors gets a 1-based position suffix in each of them.  A suffixed name
    that is also another generator's name is refused."""
    counts = Counter(name for g in groups for name in g.gens)
    renames = [{name: (f"{name}_{pos}" if counts[name] > 1 else name) for name in g.gens}
               for pos, g in enumerate(groups, start=1)]
    names = [new for ren in renames for new in ren.values()]
    if len(set(names)) != len(names):
        raise InvalidAction(f"renamed generator names collide in {names}; rename with gens()")
    return renames


def _product_table(factors: list[TableGroup]) -> np.ndarray:
    """The table of the direct product in mixed radix, the first factor's
    digit the most significant.  It grows one factor at a time by
    broadcasting, ``t[(x1, y1), (x2, y2)] = t[x1, x2] * b + f[y1, y2]`` for a
    factor of order ``b``; the caller keeps the order within TABLE_LIMIT."""
    table = np.zeros((1, 1), dtype=ELEMENT)
    for f in factors:  # every cell is below the order, so each fold stays ELEMENT
        a, b = len(table), f.n
        grid = table[:, None, :, None] * b + f.table[None, :, None, :]
        table = grid.reshape(a * b, a * b)
    return table


def build_product(factors: list[TableGroup]) -> TableGroup:
    """Direct product in mixed radix (``_product_table``), with each factor's
    generators renamed apart and its components and classes kept."""
    for f in factors:
        if not isinstance(f, TableGroup):
            raise OrderLimitExceeded("direct-product factors must fit the dense-table limit")
    n = 1
    for f in factors:
        n *= f.n
    if n > TABLE_LIMIT:
        raise OrderLimitExceeded(f"direct product of order {n} exceeds table limit")
    table = _product_table(factors)
    renames = _renamed_bindings(factors)
    gens: dict[str, int] = {}
    comps: list[_Component] = []
    rest = n
    for f, ren in zip(factors, renames):
        rest //= f.n
        for name, e in f.gens.items():
            gens[ren[name]] = int(e) * rest
        comps.append(_Component(f, rest, ren))
    g = TableGroup(table, gens, components=comps)
    g.__dict__["_conjugacy"] = _product_conjugacy(factors)
    return g


def _product_conjugacy(factors: list[TableGroup]) -> tuple[np.ndarray, list[int], np.ndarray]:
    """``TableGroup._conjugacy`` of a direct product, read off its factors:
    the class of x is the product of its digits' classes, so its least
    element has the least element of each digit's class as its digits."""
    least = np.zeros(1, dtype=np.int64)
    for f in factors:
        class_id, reps, _ = f._conjugacy
        least = (least[:, None] * f.n + np.asarray(reps)[class_id]).ravel()
    is_rep = least == np.arange(len(least))
    class_id = (np.cumsum(is_rep) - 1)[least]
    return class_id, np.flatnonzero(is_rep).tolist(), np.bincount(class_id)


def gen_image_map(g: TableGroup, images: dict[str, str]) -> np.ndarray:
    """The map of ``g`` pinned by generator-image words; generators without a
    listed image are fixed.  The map extends along the generators, so it is
    total; whether it is an automorphism is for the caller to check."""
    img_elems = [
        e if images.get(nm) is None else g.evaluate_word(images[nm]) for nm, e in g.gens.items()
    ]
    out = along_generators(g, list(g.gens.values()), img_elems, g.mul, 0)
    if out is None:
        raise InvalidAction("generator images must cover a generating set")
    return np.array(out, dtype=ELEMENT)


def build_semidirect(
    base: TableGroup, actor: TableGroup, clauses: tuple[ActionClause, ...]
) -> TableGroup:
    m, q = base.n, actor.n
    n = m * q
    if n > TABLE_LIMIT:
        raise OrderLimitExceeded(f"semidirect product of order {n} exceeds table limit")
    overlap = set(base.gens) & set(actor.gens)
    if overlap:
        raise InvalidAction(
            f"generator names {sorted(overlap)} appear on both sides; rename with gens()"
        )
    per_gen: dict[str, dict[str, str]] = {t: {} for t in actor.gens}
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
    # conj_of_gen[t][x] = t^-1 x t, extended multiplicatively from the clauses
    conj_of_gen: dict[str, np.ndarray] = {}
    for t in actor.gens:
        amap = gen_image_map(base, per_gen[t])
        _require_automorphism(base, amap, f"action of {t!r}")
        conj_of_gen[t] = amap
    conj_by = along_generators(
        actor, list(actor.gens.values()), list(conj_of_gen.values()), lambda f, s: s[f],
        np.arange(m),
    )
    if conj_by is None:
        raise InvalidAction("acting generators do not generate the acting group")
    conj_by = np.array(conj_by, dtype=np.int64)
    # the extension must respect the actor's own relations: conj_by[u * s] == s o conj_by[u]
    for s in actor.gens:
        if not (conj_by[actor.table[:, actor.gens[s]]] == conj_of_gen[s][conj_by]).all():
            raise InvalidAction(
                "action clauses are inconsistent with the acting group's relations"
            )
    # pair (b, t) <-> index t*m + b stands for the product b*t, and
    # (b1 t1)(b2 t2) == b1 (t1 b2 t1^-1) t1 t2
    un_conj = np.argsort(conj_by, axis=1)  # un_conj[t][x] == t x t^-1
    moved = base.table[:, un_conj].transpose(1, 0, 2)  # [t1, b1, b2]
    outer = moved[:, :, None, :] + actor.table[:, None, :, None] * m
    renames = _renamed_bindings([base, actor])
    gens = {renames[0][s]: int(e) for s, e in base.gens.items()}
    gens.update({renames[1][s]: int(e) * m for s, e in actor.gens.items()})
    comps = [_Component(base, 1, renames[0]), _Component(actor, m, renames[1])]
    return TableGroup(outer.reshape(n, n), gens, components=comps)


def _require_automorphism(g: TableGroup, amap: np.ndarray, what: str) -> None:
    if not np.array_equal(np.sort(amap), np.arange(g.n)) or int(amap[0]) != 0:
        raise InvalidAction(f"{what} is not a bijection fixing the identity")
    if not (amap[g.table] == g.table[amap[:, None], amap[None, :]]).all():
        raise InvalidAction(f"{what} is not an automorphism of the base")


def build_central_product(
    left: TableGroup, right: TableGroup, left_word: str, right_word: str
) -> TableGroup:
    """Quotient of left x right by N = <(u, v^-1)>, u and v the two central
    words.  The coset of (l, r) is {(l u^i, r v^-i)}, and its least pair in
    the order of ``l*nr + r`` has the least left part l u^i, so it is found
    in the left factor alone.  The cosets are numbered in the order of their
    least pairs: (l, r) with l least in l<u> is the coset rank(l)*nr + r.
    Both factors' generators act on the cosets by right multiplication, so
    the full product is never tabulated."""
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
    lu = left.table[:, [left.power(u, i) for i in range(d)]]  # l * u^i
    vpow = np.array([right.power(v, -i) for i in range(d)])
    shift = lu.argmin(axis=1)  # the i that makes l * u^i least
    heads, rank = np.unique(lu.min(axis=1), return_inverse=True)  # the least left parts

    def coset(l, r):  # the id of the coset of each pair (l, r)
        return rank[l] * nr + right.table[r, vpow[shift[l]]]

    lc, rc = heads[np.arange(m) // nr], np.arange(m) % nr  # each coset's least pair
    acts = [coset(left.table[lc, e], rc) for e in left.gens.values()]
    acts += [coset(lc, right.table[rc, e]) for e in right.gens.values()]
    renames = _renamed_bindings([left, right])
    gens = {renames[0][s]: int(coset(e, 0)) for s, e in left.gens.items()}
    gens.update({renames[1][s]: int(coset(0, e)) for s, e in right.gens.items()})
    return _acting_group(np.array(acts, dtype=np.intp).reshape(-1, m), gens)


# --- twisted products --------------------------------------------------------------


class _DGen:
    """One twist generator: an involution acting componentwise; None entries
    act as the identity on that component."""

    def __init__(self, name: str, actions: list[np.ndarray | None]):
        self.name = name
        self.actions = actions


class TwistedGroup:
    """Direct product of dense components extended by a rank-r elementary
    abelian 2-group of commuting componentwise involutory automorphisms.

    Elements are (component index tuple, bits); bit i set means twist i
    participates.  (b1, d1)(b2, d2) = (b1 * d1(b2), d1 xor d2).
    """

    def __init__(
        self,
        components: list[TableGroup],
        comp_names: list[str],
        dgens: list[_DGen],
    ):
        if len(comp_names) != len(components):
            raise ValueError("one name per component")
        self.components = components
        self.comp_names = _dedupe_names(comp_names)
        self.dgens = dgens
        self.rank = len(dgens)
        order = 1 << self.rank
        for c in components:
            order *= c.n
        self.order = order
        self._action_memo: dict[tuple[int, int], np.ndarray | None] = {}
        self._masks = [
            sum(1 << bit for bit, d in enumerate(dgens) if d.actions[ci] is not None)
            for ci in range(len(components))
        ]
        self.renames = _renamed_bindings(components)
        self.gens: dict[str, object] = {}
        for ci, (c, ren) in enumerate(zip(components, self.renames)):
            for name, e in c.gens.items():
                self.gens[ren[name]] = self._inject(ci, int(e))
        for bit, d in enumerate(dgens):
            if d.name in self.gens:
                raise ValueError(f"twist generator name {d.name!r} collides")
            self.gens[d.name] = (self._zero_tuple(), 1 << bit)
        self._validate()

    def _zero_tuple(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.components)

    def _inject(self, ci: int, e: int):
        base = [0] * len(self.components)
        base[ci] = e
        return (tuple(base), 0)

    def _validate(self) -> None:
        for d in self.dgens:
            if len(d.actions) != len(self.components):
                raise ValueError(f"twist {d.name!r} must list one action per component")
            for ci, act in enumerate(d.actions):
                if act is None:
                    continue
                g = self.components[ci]
                _require_automorphism(g, act, f"twist {d.name!r} on {self.comp_names[ci]}")
                if not (act[act] == np.arange(g.n)).all():
                    raise ValueError(
                        f"twist {d.name!r} is not involutory on {self.comp_names[ci]}"
                    )
        for ci in range(len(self.components)):
            acts = [d.actions[ci] for d in self.dgens if d.actions[ci] is not None]
            for i in range(len(acts)):
                for j in range(i + 1, len(acts)):
                    if not (acts[i][acts[j]] == acts[j][acts[i]]).all():
                        raise ValueError(
                            f"twists do not commute on component {self.comp_names[ci]}"
                        )
        for bits in range(1, 1 << self.rank):
            if all(self._composed(ci, bits) is None for ci in range(len(self.components))):
                raise ValueError("twist bits act unfaithfully (a combination is trivial)")

    def _composed(self, ci: int, bits: int) -> np.ndarray | None:
        """Composite action of twist bits on component ci; None is identity."""
        key = (ci, bits & self._masks[ci])
        if key[1] == 0:
            return None
        if key not in self._action_memo:
            out: np.ndarray | None = None
            for bit, d in enumerate(self.dgens):
                if key[1] & (1 << bit) and d.actions[ci] is not None:
                    act = d.actions[ci]
                    out = act.copy() if out is None else act[out]
            self._action_memo[key] = out
        return self._action_memo[key]

    # -- element interface --

    @property
    def identity(self):
        return (self._zero_tuple(), 0)

    def mul(self, x, y):
        (b1, d1), (b2, d2) = x, y
        if d1 == 0:  # no twist moves the right factor
            return (tuple([g.mul(a, b) for g, a, b in zip(self.components, b1, b2)]), d2)
        moved = []
        for ci, g in enumerate(self.components):
            act = self._composed(ci, d1)
            e = b2[ci] if act is None else int(act[b2[ci]])
            moved.append(g.mul(b1[ci], e))
        return (tuple(moved), d1 ^ d2)

    def inv_of(self, x):
        b, d = x
        if d == 0:
            return (tuple([g.inv_of(e) for g, e in zip(self.components, b)]), 0)
        moved = []
        for ci, g in enumerate(self.components):
            e = g.inv_of(b[ci])
            act = self._composed(ci, d)
            moved.append(e if act is None else int(act[e]))
        return (tuple(moved), d)

    power = _power

    def element_order(self, x) -> int:
        """The lcm of the component orders; with twist bits set, twice the
        order of ``x*x``, which has none (the twists are commuting involutions)."""
        b, d = x
        if d:
            return 2 * self.element_order(self.mul(x, x))
        return lcm(*(g.element_order(e) for g, e in zip(self.components, b)))

    def elements(self):
        """Every element, ordered by (component tuple, bits).  Only sensible
        for small instances; sweeps should restrict support instead."""
        return self.support_elements(range(len(self.components)))

    def support_elements(self, support: list[int]):
        """Elements with trivial base part off the given components; every
        twist-bit combination is included."""
        ranges = [
            range(c.n) if ci in support else range(1)
            for ci, c in enumerate(self.components)
        ]
        for base in itertools.product(*ranges):
            for bits in range(1 << self.rank):
                yield (base, bits)

    def resolve_support(self, names) -> list[int] | None:
        if names is None:
            return None
        out = set()
        for s in names:
            s = str(s).strip()
            if s.isdigit():
                i = int(s)
                if not 0 <= i < len(self.components):
                    raise UnknownGenerator(f"component index {i} out of range")
            elif s in self.comp_names:
                i = self.comp_names.index(s)
            else:
                raise UnknownGenerator(f"unknown component {s!r}; have {self.comp_names}")
            out.add(i)
        return sorted(out)

    evaluate_word = _evaluate_word
    subgroup = _subgroup
    _resolve_cycles = _resolve_in_factors

    def _factors(self) -> list[tuple[TableGroup, dict[str, str]]]:
        return list(zip(self.components, self.renames))

    def label_of(self, x) -> str:
        b, d = x
        parts = _factor_words(self, b)
        parts += [dg.name for bit, dg in enumerate(self.dgens) if d >> bit & 1]
        return "*".join(parts) or "1"

    def __repr__(self) -> str:
        return f"<TwistedGroup order={self.order}>"


def _dedupe_names(names: list[str]) -> list[str]:
    counts, seen, out = Counter(names), Counter(), []
    for s in names:
        seen[s] += 1
        out.append(s if counts[s] == 1 else f"{s}_{seen[s]}")
    return out


# --- table validation -----------------------------------------------------------


def check_table(table) -> bool:
    """Full associativity/identity/inverse validation; cubic time, so refused
    above CHECK_TABLE_LIMIT elements.  Expects the identity at index 0."""
    table = np.asarray(table)
    n = table.shape[0]
    if n > CHECK_TABLE_LIMIT:
        raise ValueError(f"check_table is limited to {CHECK_TABLE_LIMIT} elements")
    if table.ndim != 2 or table.shape != (n, n):
        return False
    if table.min() < 0 or table.max() >= n:
        return False
    if not (table[0] == np.arange(n)).all() or not (table[:, 0] == np.arange(n)).all():
        return False
    ids = np.arange(n)  # entries are in range, so a row or column is a permutation
    if (np.sort(table, axis=1) != ids).any() or (np.sort(table, axis=0) != ids[:, None]).any():
        return False
    for i in range(n):
        if not (table[table[i], :] == table[i][table]).all():
            return False
    return True


# --- expression realization --------------------------------------------------------


def _resolve_named(label: str):
    from . import registry

    return registry.resolve(label)


def construct(expr: GroupExpr | str):
    """Realize an expression (or its text form) as a TableGroup, or as a
    TwistedGroup when a direct product exceeds the dense-table limit."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    return _construct(expr)


_ONE_INT_BUILDERS = {Cyclic: build_cyclic, Dihedral: build_dihedral, Dicyclic: build_dicyclic,
                     Symmetric: build_symmetric, Alternating: build_alternating}


def _construct(expr: GroupExpr):
    build = _ONE_INT_BUILDERS.get(type(expr))
    if build is not None:
        return build(expr.n)
    if isinstance(expr, ElemAbelian):
        return build_elem_abelian(expr.p, expr.k)
    if isinstance(expr, PermGroupExpr):
        if expr.degree > TABLE_LIMIT:  # refused before a cycle is read into that many points
            raise OrderLimitExceeded(f"perm() degree {expr.degree} exceeds table limit")
        gen_perms = [perms.parse_cycles(s, degree=expr.degree) for s in expr.gens]
        return build_perm_group(expr.degree, gen_perms)
    if isinstance(expr, DirectProduct):
        factors = [construct(f) for f in expr.factors]
        if prod(f.order for f in factors) <= TABLE_LIMIT:
            return build_product(factors)
        return _build_twisted_product(factors, expr.factors)
    if isinstance(expr, SemidirectProduct):
        base = construct(expr.base)
        actor = construct(expr.actor)
        if not isinstance(base, TableGroup) or not isinstance(actor, TableGroup):
            raise OrderLimitExceeded("sd() sides must fit the dense-table limit")
        return build_semidirect(base, actor, expr.clauses)
    if isinstance(expr, CentralProduct):
        left = construct(expr.left)
        right = construct(expr.right)
        if not isinstance(left, TableGroup) or not isinstance(right, TableGroup):
            raise OrderLimitExceeded("cp() sides must fit the dense-table limit")
        return build_central_product(left, right, expr.left_word, expr.right_word)
    if isinstance(expr, Quotient):
        g = construct(expr.inner)
        if not isinstance(g, TableGroup):
            raise OrderLimitExceeded("quo() needs a dense-table group")
        return quotient_group(g, bfs_closure(0, [g.evaluate_word(w) for w in expr.words], g.mul)[0])
    if isinstance(expr, Renamed):
        return _apply_renames(construct(expr.inner), expr.names)
    if isinstance(expr, Named):
        return _resolve_named(expr.label).build()
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _apply_renames(g, names: tuple[str, ...]):
    old = list(g.gens)
    if len(names) != len(old):
        raise ParseError(f"gens() got {len(names)} names for {len(old)} generators: {old}")
    mapping = dict(zip(old, names))
    if isinstance(g, TableGroup):
        g.__dict__.pop("labels", None)
        if g.components:
            for comp in g.components:
                comp.rename = {k: mapping.get(v, v) for k, v in comp.rename.items()}
    else:  # a named ambient is shared, so its renamed form is a copy
        g = copy.copy(g)
        g.dgens = [_DGen(mapping.get(dg.name, dg.name), dg.actions) for dg in g.dgens]
        g.renames = [
            {k: mapping.get(v, v) for k, v in ren.items()} for ren in g.renames
        ]
    g.gens = {mapping[o]: g.gens[o] for o in old}
    return g


def _build_twisted_product(factors: list, exprs: Sequence[GroupExpr]) -> TwistedGroup:
    flat: list[TableGroup] = []
    names: list[str] = []
    dgens: list[_DGen] = []
    for f, fe in zip(factors, exprs):
        if isinstance(f, TwistedGroup):
            offset = len(flat)
            flat.extend(f.components)
            names.extend(f.comp_names)
            for d in f.dgens:
                dgens.append(_DGen(d.name, [None] * offset + list(d.actions)))
        else:
            flat.append(f)
            names.append(fe.label if isinstance(fe, Named) else fe.text())
    for d in dgens:
        d.actions.extend([None] * (len(flat) - len(d.actions)))
    return TwistedGroup(flat, names, dgens)
