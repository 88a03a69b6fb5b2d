"""Named constructions, small-order tables, and embedding-order bounds.

Every named group lives in ``data/registry.json`` as an expression string (or,
for the rank-extended products, a component/twist descriptor) together with its
expected order, so the catalog is auditable without reading code.  This module
realizes those descriptors on demand, exposes the tabulated minimal-order data,
and computes the arithmetic lower bounds the tables rest on.

The four extension families each fix one canonical representative (no extra
twists); ``family_member`` realizes the other members by multiplying the
defining involution with any subset of the family's free twists.
"""

from __future__ import annotations

import json
from functools import cache
from math import prod
from pathlib import Path

import numpy as np

from . import perms
from .errors import InvalidAction, OutOfRange, UnknownLabel
from .expressions import GroupExpr, parse_expr
from .groups import TableGroup, TwistedGroup, _DGen, construct, gen_image_map
from .numtheory import factorization, is_prime

_DATA_PATH = Path(__file__).parent / "data" / "registry.json"


@cache
def _data() -> dict:
    with open(_DATA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _named_entry(label: str) -> dict:
    entry = _data()["named"].get(label)
    if entry is None:
        raise UnknownLabel(f"no group registered under {label!r}")
    return entry


def available_labels() -> tuple[str, ...]:
    return tuple(sorted(_data()["named"]))


# twisted ambients by the registry text they are built from (an expression,
# else the entry with every component and twist text), so a patched entry,
# component or twist never reads a group built for other data; the entries an
# expression names through named() are not in its key.  Replay empties it.
_AMBIENTS: dict[str, TwistedGroup] = {}


class Resolved:
    """Handle for one registry label.  build() gives the group: a twisted
    ambient is built once per process and shared (it holds no table beyond
    its components, which ``_kfactor`` shares already), and a dense group is
    built fresh on each call, so no host table outlives its check."""

    def __init__(self, label: str, entry: dict):
        self.label = label
        self._entry = entry

    def build(self):
        entry = self._entry
        key = entry.get("expr") or json.dumps([entry, _data()["kfactors"], _data()["thetas"]])
        g = _AMBIENTS.get(key)
        if g is None:
            if "expr" in entry:
                g = construct(entry["expr"])
            elif "family" in entry:
                g = family_member(self.label)
            else:
                desc = entry["product"]
                g = _twisted_group(desc, {t: [t] for t in desc["dgens"]})
        if g.order != entry["order"]:
            raise RuntimeError(
                f"registry entry {self.label!r} built order {g.order}, "
                f"expected {entry['order']}"
            )
        if isinstance(g, TwistedGroup):
            _AMBIENTS[key] = g
        return g


def resolve(label: str) -> Resolved:
    return Resolved(label, _named_entry(label))


def named_group(label: str) -> GroupExpr:
    """The defining expression of a registered label.  Labels whose group is
    not expressible in the grammar (the rank-extended products) come back as a
    named() reference that construct() realizes through this registry."""
    entry = _named_entry(label)
    if "expr" in entry:
        return parse_expr(entry["expr"])
    return parse_expr(f"named({label})")


# --- twist machinery -----------------------------------------------------------


def _conj_map(g: TableGroup, cycles: str) -> np.ndarray:
    """Automorphism of a permutation group given by conjugation with an outer
    permutation of the same degree (written in cycle notation)."""
    if g.perm_elems is None:
        raise InvalidAction("conjugation twists need a permutation group")
    t = np.asarray(perms.parse_cycles(cycles, degree=g.perm_elems.degree))
    mat = g.perm_elems.mat
    out = g.perm_elems.index_of(t[mat[:, np.argsort(t)]])  # rows t^-1 * p * t
    if (out < 0).any():
        raise InvalidAction(f"conjugation by {cycles} does not normalize the group")
    return out


def _theta_action(theta: dict, comp: TableGroup) -> np.ndarray:
    if "conj" in theta:
        return _conj_map(comp, theta["conj"])
    return gen_image_map(comp, theta["images"])


@cache
def _kfactor(text: str) -> TableGroup:
    """A twisted product's component, built once per expression text, so a
    patched registry never reads a group built for other data."""
    return construct(text)


def _twisted_group(desc: dict, twists: dict[str, list[str]]) -> TwistedGroup:
    """The components of ``desc`` extended by one twist generator per entry of
    ``twists``; a generator composes the actions of the thetas it lists."""
    thetas = _data()["thetas"]
    names = list(desc["components"])
    comps = [_kfactor(_data()["kfactors"][nm]) for nm in names]
    dgens = []
    for dname, tnames in twists.items():
        actions: list[np.ndarray | None] = [None] * len(comps)
        for tname in tnames:
            theta = thetas[tname]
            ci = names.index(theta["component"])
            act = _theta_action(theta, comps[ci])
            actions[ci] = act if actions[ci] is None else act[actions[ci]]
        dgens.append(_DGen(dname, actions))
    return TwistedGroup(comps, names, dgens)


def family_thetas(label: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(defining twists, free twists) of an extension family."""
    entry = _named_entry(label)
    if "family" not in entry:
        raise UnknownLabel(f"{label!r} is not an extension family")
    desc = entry["family"]
    return tuple(desc["sigma"]), tuple(desc["free"])


def family_member(label: str, thetas=()) -> TwistedGroup:
    """One member of an extension family: the defining involution multiplied
    by the chosen free twists.  Repeats collapse (the twists are involutory);
    an empty choice gives the canonical representative.  Every member has
    the order of the canonical one, which ``Resolved.build`` checks."""
    sigma, free = family_thetas(label)
    extras: list[str] = []
    for t in thetas:
        t = str(t)
        if t not in free:
            raise UnknownLabel(f"family {label!r} admits extra twists {free}, not {t!r}")
        if t in extras:
            extras.remove(t)
        else:
            extras.append(t)
    return _twisted_group(_named_entry(label)["family"], {"sigma": [*sigma, *extras]})


# --- tabulated data --------------------------------------------------------------


def _table_row(table: str, n: int):
    rows = _data()[table]
    if not 1 <= n <= len(rows):
        raise OutOfRange(f"tabulated data covers 1..{len(rows)}, not {n}")
    return rows[str(n)]


def group_labels_of_order(n: int) -> list[str]:
    """Registry labels of every isomorphism type of order n (n <= 15)."""
    return list(_table_row("table1", n))


def groups_of_order(n: int) -> list[GroupExpr]:
    """Defining expressions of every isomorphism type of order n (n <= 15)."""
    return [named_group(lbl) for lbl in group_labels_of_order(n)]


def table2_row(n: int) -> tuple[int, tuple[str, ...]]:
    """(least order, labels) of the groups of least order containing every
    group of order exactly n."""
    row = _table_row("table2", n)
    return int(row["order"]), tuple(row["groups"])


def table4_value(n: int) -> int:
    """Least order of a group containing every group of order n or less."""
    return int(_table_row("table4", n))


def table5_row(n: int) -> tuple[str, ...]:
    """Labels of the listed minimal hosts for all groups of order <= n."""
    return tuple(_table_row("table5", n))


# --- bounds ---------------------------------------------------------------------


def pbound(p: int, k: int) -> int:
    """Least possible order, p^(2k-1), of a group containing every group of
    order p^k."""
    if not is_prime(p):
        raise OutOfRange(f"pbound needs a prime, got {p}")
    if k < 1:
        raise OutOfRange(f"pbound needs k >= 1, got {k}")
    return p ** (2 * k - 1)


def collection_bound(n: int) -> int:
    """Every group containing all groups of order n has order divisible by
    this: the product of pbound(p, a) over the prime powers p^a dividing n."""
    if n < 1:
        raise OutOfRange(f"collection_bound needs n >= 1, got {n}")
    out = 1
    for p, a in factorization(n).items():
        out *= pbound(p, a)
    return out


def collection_bound_factors(n: int):
    """n, then collection_bound(n) // n, whose product is collection_bound(n):
    p^a divides pbound(p, a) = p^(2a-1), so n divides the bound.  Lazy, so a
    caller that stops after n never factors it."""
    if n < 1:
        raise OutOfRange(f"collection_bound needs n >= 1, got {n}")
    yield n
    yield collection_bound(n) // n


def nbound_factors(n: int):
    """pbound(p, k_p) for each prime p <= n in increasing order, with p^k_p
    the largest power of p not exceeding n; nbound(n) is their product.
    Lazy, so a caller may stop once a partial product is large enough."""
    if n < 1:
        raise OutOfRange(f"nbound needs n >= 1, got {n}")
    for p in range(2, n + 1):
        if not is_prime(p):
            continue
        k = 1
        while p ** (k + 1) <= n:
            k += 1
        yield pbound(p, k)


def nbound(n: int) -> int:
    """Every group containing all groups of order n or less has order
    divisible by this: the product of pbound(p, k_p) over primes p <= n with
    p^k_p the largest power of p not exceeding n."""
    return prod(nbound_factors(n))


# --- enumeration seeds -----------------------------------------------------------


def perfect_seed_exprs() -> dict[int, tuple[str, ...]]:
    """Expression strings for every perfect group of each listed order;
    verified on load by the enumerator (order, perfectness, centre size)."""
    return {int(k): tuple(v) for k, v in _data()["perfect_seeds"].items()}
