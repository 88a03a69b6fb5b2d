"""The regular-representation oracle: an enumeration of small orders that
shares nothing with the cyclic-extension recursion but the final dedupe.

It reads Cayley's theorem backwards: isomorphism classes of order n are
exactly the conjugacy classes of regular subgroups of the symmetric group of
degree n, so for n <= 10 it searches for regular subgroups directly.  Its
closure and its tabulation are its own, kept apart from ``groups.bfs_closure``
and ``groups._regular_table``.  Tests import it to cross-check the catalogs."""

import itertools

import numpy as np

from mge.enumerator import Catalog, _canonical_entry, _dedupe
from mge.errors import OutOfRange
from mge.groups import TableGroup, construct
from mge.numtheory import factorization

ORACLE_LIMIT = 10


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right product of permutation tuples: apply p, then q."""
    return tuple(q[i] for i in p)


def _cycle_lengths(p: tuple[int, ...]) -> list[int]:
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s]:
            continue
        length = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        out.append(length)
    return out


def _is_uniform_fpf(p: tuple[int, ...]) -> bool:
    lens = _cycle_lengths(p)
    return lens[0] > 1 and all(c == lens[0] for c in lens)


def _uniform_with_image(n: int, u: int) -> list[tuple[int, ...]]:
    """All permutations of degree n whose cycles share one length > 1 and
    which map point 0 to point u."""
    out = []
    for d in range(2, n + 1):
        if n % d:
            continue
        perm = [-1] * n

        def close_cycle(points: list[int]):
            for x, y in zip(points, points[1:]):
                perm[x] = y
            perm[points[-1]] = points[0]

        def rec(remaining: frozenset):
            if not remaining:
                out.append(tuple(perm))
                return
            r = min(remaining)
            rest = sorted(remaining - {r})
            if r == 0:
                tails = (
                    (u,) + t
                    for t in itertools.permutations([x for x in rest if x != u], d - 2)
                )
            else:
                tails = itertools.permutations(rest, d - 1)
            for tail in tails:
                pts = [r, *tail]
                close_cycle(pts)
                rec(remaining - set(pts))

        rec(frozenset(range(n)))
    return out


def _perm_closure_capped(gens: list[tuple], cap: int):
    ident = tuple(range(len(gens[0])))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                c = compose(e, g)
                if c not in elems:
                    if len(elems) >= cap:
                        return None
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return elems


def _oracle_table(elems: set[tuple], n: int) -> np.ndarray:
    """The table of the regular group ``elems``, read off their images: the
    oracle's own tabulation, kept apart from ``groups._regular_table``."""
    by_image = sorted(elems, key=lambda p: p[0])
    tab = np.empty((n, n), dtype=np.int64)
    for j, rho in enumerate(by_image):
        tab[:, j] = rho  # (rho_i rho_j)(0) = rho_j(i)
    return tab


def regular_oracle(n: int) -> Catalog:
    """Isomorphism classes of order n via regular subgroups of the symmetric
    group of degree n; independent of the extension recursion."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise OutOfRange(f"order must be a positive integer, not {n!r}")
    if n > ORACLE_LIMIT:
        raise OutOfRange(f"the oracle is exhaustive only up to order {ORACLE_LIMIT}")
    if n == 1:
        return Catalog(1, [_canonical_entry(construct("C(1)"))], "oracle")

    p = min(factorization(n))
    # canonical element of order p: every class has a regular copy through it
    c0 = tuple(i + 1 if i % p < p - 1 else i - (p - 1) for i in range(n))
    buckets: dict[int, list[tuple]] = {}

    def bucket(u: int) -> list[tuple]:
        if u not in buckets:
            buckets[u] = _uniform_with_image(n, u)
        return buckets[u]

    found: list[np.ndarray] = []

    def extend(gens: list[tuple], elems: set[tuple]):
        if len(elems) == n:
            found.append(_oracle_table(elems, n))
            return
        if len(gens) >= 3:
            return
        covered = {e[0] for e in elems}
        u = min(set(range(n)) - covered)
        for cand in bucket(u):
            if cand in elems:
                continue
            closure = _perm_closure_capped(gens + [cand], n)
            if closure is None or n % len(closure):
                continue
            if all(e == tuple(range(n)) or _is_uniform_fpf(e) for e in closure):
                extend(gens + [cand], closure)

    start = _perm_closure_capped([c0], n)
    extend([c0], start)
    groups = (TableGroup(t, {"g1": 1}) for t in found)
    return Catalog(n, _dedupe(groups), "oracle")
