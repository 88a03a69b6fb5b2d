"""Exhaustive enumeration of small group orders.

Every group whose derived subgroup is proper has a normal subgroup of prime
index (pull back an index-p subgroup of the abelianization), so recursing on
"base of order n/p extended by a cyclic group of order p" reaches every
non-perfect isomorphism class.  The perfect classes in range come from a
fixed seed list that is verified on load rather than discovered.

An extension of N by C_p is pinned by a pair (alpha, a): alpha the
conjugation automorphism induced by a chosen coset generator t, and a = t^p,
subject to alpha(a) = a and alpha^p = conjugation-by-a.  Moving t by a
central z changes a only by the norm z alpha(z) ... alpha^(p-1)(z), so a is
taken up to norms of Z(N): one a per coset of the norm subgroup.  Candidates
are over-generated from such pairs, deduped by invariant buckets plus explicit
isomorphism tests, and pinned to canonical regular-representation recipes so
repeated runs emit byte-identical catalogs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path

import numpy as np

from ._pins import PINS
from ._version import ENGINE_VERSION
from .errors import (
    EngineError,
    IncompleteSeedSet,
    OutOfRange,
    TierLimitExceeded,
)
from .expressions import PermGroupExpr
from .groups import (
    TableGroup,
    _extension_table,
    _row_closure,
    along_generators,
    build_cyclic,
    construct,
    right_regular,
)
from .morphisms import (
    Fingerprint,
    automorphisms,
    elem_abelian_prime,
    is_isomorphic,
    rich_invariant_key,
)
from .numtheory import factorization
from .registry import perfect_seed_exprs

HARD_ORDER_LIMIT = 256
TIER_EXTRA = {1: frozenset(), 2: frozenset({72, 96, 120, 144}),
              3: frozenset({72, 96, 120, 144, 81, 243})}


def default_tier() -> int:
    raw = os.environ.get("MGE_TIER", "2")
    try:
        tier = int(raw)
    except ValueError:
        raise OutOfRange(f"MGE_TIER must be 1, 2, or 3, not {raw!r}")
    if tier not in TIER_EXTRA:
        raise OutOfRange(f"MGE_TIER must be 1, 2, or 3, not {raw!r}")
    return tier


def order_allowed(n: int, tier: int) -> bool:
    return 1 <= n <= 64 or n in TIER_EXTRA[tier]


def cache_dir() -> Path:
    raw = os.environ.get("MGE_CACHE_DIR")
    if raw:
        return Path(raw).expanduser()
    return Path.home() / ".cache" / "mge"


_BUNDLED_DIR = Path(__file__).parent / "data" / "catalogs"


# --- catalogs ---------------------------------------------------------------------


class CatalogEntry:
    """A catalog group as its document stores it: recipe text, order, table
    hash and fingerprint text (``Fingerprint.canonical_bytes``), so
    ``to_json`` gives back the stored bytes.  The group is built from the
    recipe text on first use, raising ValueError when the recipe does not
    build or the group has the wrong order or fails either stored value.
    ``fingerprint`` parses the stored text once without building the group,
    so a sweep refutes a candidate host from its stored element-order counts
    and derived order (``morphisms.may_embed``) before reading ``group``; the
    stored text is trusted as far as the catalog's load checked it."""

    def __init__(self, recipe_text: str, order: int, table_hash: str, fingerprint_text: str):
        self.recipe_text = recipe_text
        self.order = order
        self.table_hash = table_hash
        self.fingerprint_text = fingerprint_text

    @cached_property
    def fingerprint(self) -> Fingerprint:
        """The stored fingerprint text, parsed."""
        return Fingerprint.from_text(self.fingerprint_text)

    @cached_property
    def group(self) -> TableGroup:
        text = self.recipe_text
        try:
            g = construct(text)
        except EngineError as exc:  # e.g. a bad parse, or a generator closing past the limit
            raise ValueError(f"catalog entry {text!r} does not build: {exc}") from exc
        if g.order != self.order:
            raise ValueError(f"catalog entry {text!r} has wrong order")
        if g.table_hash != self.table_hash:
            raise ValueError(f"catalog entry {text!r} fails its table hash")
        if Fingerprint.of(g).canonical_bytes().decode() != self.fingerprint_text:
            raise ValueError(f"catalog entry {text!r} fails its fingerprint")
        return g

    def to_json(self) -> dict:
        return {
            "recipe": self.recipe_text,
            "fingerprint": self.fingerprint_text,
            "table_hash": self.table_hash,
        }


@dataclass
class Catalog:
    order: int
    entries: list[CatalogEntry]
    provenance: str  # cyclic-extension | oracle

    def __len__(self) -> int:
        return len(self.entries)

    def groups(self) -> list[TableGroup]:
        return [e.group for e in self.entries]

    def find_isomorphic(self, g: TableGroup) -> CatalogEntry | None:
        text = Fingerprint.of(g).canonical_bytes().decode()
        for e in self.entries:  # stored fingerprints: only a match is built
            if e.fingerprint_text == text and is_isomorphic(e.group, g) is not None:
                return e
        return None

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "engine_version": ENGINE_VERSION,
            "method": self.provenance,
            "entries": [e.to_json() for e in self.entries],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(doc: dict) -> "Catalog":
        """Nothing is parsed or built at load when ``dumps()`` of the loaded
        catalog has the sha256 pinned for its order in ``_pins``: each entry
        builds and checks its group on first use.  Any other catalog has
        every group built and checked here."""
        raws = doc.get("entries") if isinstance(doc, dict) else None
        if not (isinstance(raws, list) and isinstance(doc.get("order"), int)
                and isinstance(doc.get("method"), str)
                and all(isinstance(r, dict) and all(isinstance(r.get(k), str) for k in
                        ("recipe", "fingerprint", "table_hash")) for r in raws)):
            raise ValueError("a catalog needs an int 'order', a string 'method' and a list "
                             "'entries' of string 'recipe', 'fingerprint' and 'table_hash'")
        if doc.get("engine_version") != ENGINE_VERSION:
            raise ValueError("catalog written by a different engine version")
        order = doc["order"]
        cat = Catalog(order, [CatalogEntry(r["recipe"], order, r["table_hash"], r["fingerprint"])
                              for r in raws], doc["method"])
        if hashlib.sha256(cat.dumps().encode()).hexdigest() != PINS.get(order):
            cat.groups()  # the full checked load
        return cat


def _canonical_entry(g: TableGroup) -> CatalogEntry:
    """g pinned to its regular recipe: the right-regular representation,
    generated by the columns of a greedy generating sequence (``C(1)`` for
    the trivial group).  Building that recipe gives g's own table back, so
    the entry's group is right_regular over g's table and nothing is parsed
    or rebuilt.  The entry holds that group, and its fingerprint text comes
    from g's fingerprint, which bucketing already computed."""
    if g.n == 1:
        text, h = "C(1)", build_cyclic(1)
    else:
        h = right_regular(g.table, list(g.greedy_gens))
        text = PermGroupExpr(g.n, tuple(h.gens)).text()
    entry = CatalogEntry(text, g.n, h.table_hash, Fingerprint.of(g).canonical_bytes().decode())
    entry.__dict__["group"] = h
    return entry


def _dedupe(candidates) -> list[CatalogEntry]:
    """Sequential reduce in deterministic generation order: invariant-key
    buckets first, explicit isomorphism tests only within a bucket, with the
    bucket's kept group as the search source (a duplicate builds no search)."""
    buckets: dict[bytes, list[TableGroup]] = {}
    found: list[TableGroup] = []
    for g in candidates:
        reps = buckets.setdefault(rich_invariant_key(g), [])
        if any(is_isomorphic(r, g) is not None for r in reps):
            continue
        reps.append(g)
        found.append(g)
    entries = [_canonical_entry(g) for g in found]
    entries.sort(key=lambda e: (e.fingerprint_text, e.recipe_text))
    return entries


# --- extension pairs over elementary abelian bases -------------------------------
#
# For an elementary abelian base GF(q)^k every conjugation is trivial, so valid
# alphas are exactly the matrices A with A^p = 1, taken up to GL(k, q)-
# conjugacy.  When p equals q these are the unipotent Jordan types.  Otherwise
# x^p - 1 is squarefree, so A is semisimple and its class is a sum of companion
# blocks, one per irreducible factor of x^p - 1 it uses.  A block of degree
# above k never fits, so trial division over the monic polynomials of degree
# 1..k finds every usable factor: a divisor of x^p - 1 is irreducible exactly
# when no smaller factor divides it.


def _poly_divmod(f: tuple, g: tuple, q: int) -> tuple[tuple, tuple]:
    f = list(f)
    dg = len(g) - 1
    lead_inv = pow(g[-1], -1, q)
    quo = [0] * max(len(f) - dg, 0)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] * lead_inv % q
        quo[i - dg] = c
        if c:
            for j in range(dg + 1):
                f[i - dg + j] = (f[i - dg + j] - c * g[j]) % q
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return tuple(quo), tuple(f)


def _monic_polys(degree: int, q: int):
    for coeffs in itertools.product(range(q), repeat=degree):
        yield coeffs + (1,)


def _factors_of_xp_minus_1(q: int, p: int, k: int) -> list[tuple]:
    """Monic irreducible factors of x^p - 1 over GF(q) of degree at most k,
    ascending by (degree, coeffs); needs p != q, so x^p - 1 is squarefree."""
    xp1 = (q - 1,) + (0,) * (p - 1) + (1,)
    factors: list[tuple] = []
    for d in range(1, k + 1):
        for f in _monic_polys(d, q):
            if _poly_divmod(xp1, f, q)[1] == (0,) and not any(
                _poly_divmod(f, g, q)[1] == (0,) for g in factors
            ):
                factors.append(f)
    return factors


def _companion(poly: tuple) -> np.ndarray:
    d = len(poly) - 1
    m = np.zeros((d, d), dtype=np.int64)
    for i in range(d - 1):
        m[i + 1, i] = 1
    for i in range(d):
        m[i, d - 1] = -poly[i]
    return m


def _jordan(size: int) -> np.ndarray:
    m = np.eye(size, dtype=np.int64)
    for i in range(size - 1):
        m[i + 1, i] = 1
    return m


def _block_diag(blocks: list[np.ndarray], k: int) -> np.ndarray:
    m = np.zeros((k, k), dtype=np.int64)
    at = 0
    for b in blocks:
        s = b.shape[0]
        m[at:at + s, at:at + s] = b
        at += s
    return m


def _partitions(k: int, maxpart: int):
    if k == 0:
        yield ()
        return
    for first in range(min(k, maxpart), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _ea_alpha_matrices(q: int, k: int, p: int) -> list[np.ndarray]:
    if p == q:
        return [
            _block_diag([_jordan(s) for s in part], k)
            for part in _partitions(k, min(p, k))
        ]
    factors = _factors_of_xp_minus_1(q, p, k)
    degrees = [len(f) - 1 for f in factors]
    reps = []

    def rec(i: int, remaining: int, blocks: list[np.ndarray]):
        if i == len(factors):
            if remaining == 0:
                reps.append(_block_diag(blocks, k))
            return
        d = degrees[i]
        comp = _companion(factors[i]) % q
        for count in range(remaining // d, -1, -1):
            rec(i + 1, remaining - count * d, blocks + [comp] * count)

    rec(0, k, [])
    return reps


def _ea_alpha_pairs(base: TableGroup, q: int, p: int):
    """(alpha map, valid a list) pairs for an elementary abelian base.  Alpha
    sends ``basis[i]`` of the basis ``greedy_gens`` to the element with
    coordinates ``mat[i]`` and extends along the basis; on coordinate vectors
    that is ``v @ mat``, since the map is linear."""
    basis = list(base.greedy_gens)
    for mat in _ea_alpha_matrices(q, len(basis), p):
        images = [reduce(base.mul, map(base.power, basis, row.tolist()), 0) for row in mat]
        amap = np.array(along_generators(base, basis, images, base.mul, 0), dtype=np.int64)
        yield amap, [e for e in range(base.n) if amap[e] == e]


# --- extension pairs over arbitrary bases -----------------------------------------


def _aut_listing(base: TableGroup) -> tuple[np.ndarray, list[np.ndarray]]:
    """Aut(base) as the rows of one array, of the narrowest unsigned dtype that
    holds ``n - 1``, plus a greedy generating subset widened to int64.  The rows
    are sorted by their images of ``base.greedy_gens``, first generator first.
    An automorphism is determined by those images, so the order is total: any
    order in which ``automorphisms`` streams the same set gives the same
    listing, and the search's candidate order reaches no catalog.  Every prime
    extends the same base, so the listing is cached on ``base`` like the
    search levels."""
    cached = base.__dict__.get("_aut_listing")
    if cached is not None:
        return cached
    dtype = np.min_scalar_type(base.n - 1)
    auts = np.fromiter(
        itertools.chain.from_iterable(mo.images for mo in automorphisms(base)), dtype=dtype
    ).reshape(-1, base.n)
    if base.n > 1:  # the trivial base has no generators, and lexsort needs a key
        auts = auts[np.lexsort(auts[:, list(base.greedy_gens)[::-1]].T)]

    # greedy in listing order; <H, g> is H plus what right multiplication by the
    # generators reaches from H*g, and x * g is g[x]
    elems = [np.arange(base.n, dtype=dtype)[None]]
    have = {elems[0].tobytes()}
    gens: list[np.ndarray] = []
    for cand in auts:
        if len(have) == len(auts):
            break
        if cand.tobytes() in have:
            continue
        gens.append(cand)
        elems.extend(_row_closure(cand[np.concatenate(elems)],
                                  lambda f: np.concatenate([g[f] for g in gens]), have))
    gens = [g.astype(np.int64) for g in gens]
    base.__dict__["_aut_listing"] = (auts, gens)
    return auts, gens


def _generic_alpha_pairs(base: TableGroup, p: int):
    """(alpha map, valid a list) pairs for an arbitrary base, with alpha
    reduced modulo regradings that provably preserve the extension's
    isomorphism class: conjugating by an automorphism (relabel the base),
    composing with an inner map (move t inside its coset), and replacing t
    by a coprime power (pick another generator of the quotient)."""
    m = base.n
    table = base.table.astype(np.int64)
    auts, aut_gens = _aut_listing(base)
    idx = np.arange(m)

    conj = [table[table[b, idx], base.inv[b]] for b in range(m)]  # b y b^-1
    inner_rep: dict[bytes, int] = {}
    for b in range(m):
        inner_rep.setdefault(conj[b].astype(auts.dtype).tobytes(), b)
    center = base.center_elements

    inv_aut_gens = [np.argsort(s) for s in aut_gens]
    gen_conj = [conj[b] for b in base.greedy_gens]

    # alpha^p for every row at once; alpha qualifies when that is inner
    pw = auts
    for _ in range(p - 1):
        pw = np.take_along_axis(auts, pw, axis=1)
    inner = [inner_rep.get(row.tobytes()) for row in pw]

    def neighbours(f: np.ndarray) -> np.ndarray:
        """The regradings of every row of ``f`` at once.  No inverse moves: each
        move's inverse is one of its powers, and f after c_b is c_f(b) after f."""
        moves = [s[f[:, si]] for s, si in zip(aut_gens, inv_aut_gens)] + [c[f] for c in gen_conj]
        acc = f
        for _ in range(p - 2):
            acc = np.take_along_axis(f, acc, axis=1)
            moves.append(acc)
        return np.concatenate(moves) if moves else f[:0]

    seen: set[bytes] = set()
    for row, a0 in zip(auts, inner):
        if a0 is None:
            continue
        alpha = row.astype(np.int64)
        if alpha.tobytes() in seen:
            continue
        for _ in _row_closure(alpha[None], neighbours, seen):
            pass  # marks the whole equivalence class of this representative
        valid_a = sorted(
            int(table[a0, z]) for z in center if alpha[table[a0, z]] == table[a0, z]
        )
        yield alpha, valid_a


def _extension_candidates(base: TableGroup, p: int):
    q = elem_abelian_prime(base)
    pairs = (
        _ea_alpha_pairs(base, q, p) if q is not None else _generic_alpha_pairs(base, p)
    )
    table = base.table
    centre = np.asarray(base.center_elements)
    for amap, valid_a in pairs:
        # Replacing t by t*z with z in Z(N) keeps alpha, since z is central, and
        # sends t^p = a to a*N(z) with N(z) = z alpha(z) ... alpha^(p-1)(z): the
        # factors are central, so they commute past t.  N is a homomorphism on
        # the abelian Z(N), so the norms M form a subgroup that alpha fixes, and
        # (alpha, a) and (alpha, b) build isomorphic groups for every b in a*M.
        # valid_a ascends, so keeping only the least element of each coset a*M
        # keeps the first candidate of every isomorphism class.  Candidates carry
        # no generator names: nothing that dedupes or pins them reads names.
        y = norms = centre
        for _ in range(p - 1):
            y = amap[y]
            norms = table[norms, y]
        a = np.asarray(valid_a, dtype=np.intp)
        for x in a[table[a[:, None], np.flatnonzero(np.bincount(norms))].min(axis=1) == a]:
            yield TableGroup(_extension_table(base, amap, int(x), p), {})


# --- perfect seeds ----------------------------------------------------------------


def _seed_entries(n: int) -> list[TableGroup]:
    if n > HARD_ORDER_LIMIT:
        raise IncompleteSeedSet(
            f"perfect groups are only tabulated up to order {HARD_ORDER_LIMIT}; "
            f"order {n} could hide an unlisted one"
        )
    out = []
    for text in perfect_seed_exprs().get(n, ()):
        g = construct(text)
        if g.order != n:
            raise IncompleteSeedSet(f"seed {text!r} has order {g.order}, wanted {n}")
        if len(g.derived_elements) != g.order:
            raise IncompleteSeedSet(f"seed {text!r} is not perfect")
        if len(g.center_elements) > 2:
            raise IncompleteSeedSet(f"seed {text!r} has too large a centre")
        out.append(g)
    return out


# --- the enumerator ---------------------------------------------------------------

_MEMO: dict[int, Catalog] = {}


def clear_memory_cache() -> None:
    _MEMO.clear()


def enumerate_groups(n: int) -> Catalog:
    """The complete catalog of isomorphism classes of order n, for an order
    the active tier (MGE_TIER) allows."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise OutOfRange(f"order must be a positive integer, not {n!r}")
    tier = default_tier()
    if not order_allowed(n, tier):
        raise TierLimitExceeded(f"order {n} is outside tier {tier}; raise MGE_TIER")
    return _catalog(n)


def _catalog(n: int) -> Catalog:
    if n in _MEMO:
        return _MEMO[n]
    # the cache is read, and written, only for an order the package does not
    # ship, so no cache file can stand in for a bundled catalog
    path = _BUNDLED_DIR / f"order{n}.json"
    bundled = path.is_file()
    if not bundled:
        path = cache_dir() / f"order{n}.json"
    try:
        cat = Catalog.from_json(json.loads(path.read_text()))
    except (OSError, ValueError):
        cat = None  # missing, stale or foreign; recompute
    if cat is None:
        cat = _compute(n)
        if not bundled:
            _save_cache(cat, path)
    _MEMO[n] = cat
    return cat


def _compute(n: int) -> Catalog:
    if n == 1:
        return Catalog(1, [_canonical_entry(construct("C(1)"))], "cyclic-extension")

    def candidates():
        for p in factorization(n):
            for entry in _catalog(n // p).entries:
                yield from _extension_candidates(entry.group, p)
        yield from _seed_entries(n)

    return Catalog(n, _dedupe(candidates()), "cyclic-extension")


def _save_cache(cat: Catalog, target: Path) -> None:
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(cat.dumps())
        os.replace(tmp, target)
    except OSError:
        pass  # caching is best-effort; results are still returned
