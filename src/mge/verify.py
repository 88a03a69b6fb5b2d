"""Embedding certificates, coverage reports, and minimal-order searches.

Three layers live here.  Claims and certificates are the serialized form of
"these words generate a copy of that group"; verifying one replays the words,
closes them into a subgroup, and runs the isomorphism test.  Coverage checks
(contains_all_of_order / contains_all_upto) quantify those claims over every
isomorphism class of a given order, falling back to embedding search when the
ambient group is dense.  On top of both sits the scenario runner, which
reproduces the tabulated results end to end and emits deterministic
machine-readable reports.  Each check of the tables, the theorems and
example-p6's host item returns a problem text, None when it holds, and
``_item`` turns that into the fail or pass item: table 2 and the theorems
share one minimal-search row (``_search_row``), tables 4 and 5 one host
check (``_host_problem``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from . import enumerator, registry
from ._version import ENGINE_VERSION
from .errors import (
    EngineError,
    IncompleteCertificates,
    TierLimitExceeded,
    UnknownLabel,
)
from .groups import Subgroup, TableGroup, along_generators, construct
from .morphisms import Fingerprint, find_embedding, is_isomorphic, may_embed

_CERT_DIR = Path(__file__).resolve().parent / "data" / "certs"


# --- certificates -----------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One embedding assertion: the words generate a copy of the target."""

    target: str
    generators: tuple[str, ...]
    source: str = "paper"

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "generators": list(self.generators),
            "source": self.source,
        }

    @staticmethod
    def from_json(doc: dict) -> "Claim":
        words = doc.get("generators") if isinstance(doc, dict) else None
        if not (isinstance(words, list) and all(isinstance(w, str) for w in words)
                and isinstance(doc.get("target"), str)):
            raise ValueError("a claim needs a string 'target' and a list of string 'generators'")
        src = doc.get("source", "paper")
        if src not in ("paper", "derived"):
            raise ValueError(f"claim source must be 'paper' or 'derived', got {src!r}")
        return Claim(doc["target"], tuple(doc["generators"]), src)


@dataclass
class Certificate:
    """A batch of claims sharing one ambient group."""

    ambient: str
    anchor: str
    claims: list[Claim]

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient,
            "anchor": self.anchor,
            "claims": [c.to_json() for c in self.claims],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(doc: dict) -> "Certificate":
        if not (isinstance(doc, dict) and isinstance(doc.get("ambient"), str)
                and isinstance(doc.get("claims"), list)):
            raise ValueError("a certificate needs a string 'ambient' and a list 'claims'")
        claims = [Claim.from_json(c) for c in doc["claims"]]
        return Certificate(doc["ambient"], doc.get("anchor", ""), claims)

    @staticmethod
    def load(path) -> "Certificate":
        with open(path, "r", encoding="utf-8") as fh:
            return Certificate.from_json(json.load(fh))


@cache
def bundled_certificates() -> dict[str, "Certificate"]:
    """Shipped certificates keyed by their ambient expression text; an
    ambient has at most one."""
    out = {}
    if _CERT_DIR.is_dir():
        for p in sorted(_CERT_DIR.glob("*.json")):
            cert = Certificate.load(p)
            if cert.ambient in out:
                raise ValueError(f"{p.name} is a second certificate for ambient {cert.ambient!r}")
            out[cert.ambient] = cert
    return out


def bundled_certificate(ambient: str) -> "Certificate":
    certs = bundled_certificates()
    if ambient not in certs:
        raise UnknownLabel(f"no bundled certificate for ambient {ambient!r}")
    return certs[ambient]


# --- reports ----------------------------------------------------------------------


@dataclass
class ReportItem:
    item_id: str
    status: str  # pass | fail | skip
    detail: str = ""
    witness: dict | None = None

    def to_json(self) -> dict:
        doc = {"id": self.item_id, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


@dataclass
class Report:
    scenario: str
    items: list[ReportItem]
    engine_version: str = ENGINE_VERSION

    @property
    def passed(self) -> bool:
        # skips carry tier reasons and do not fail a run
        return not self.failed_ids()

    def failed_ids(self) -> list[str]:
        return [it.item_id for it in self.items if it.status == "fail"]

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for it in self.items:
            out[it.status] = out.get(it.status, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "engine_version": self.engine_version,
            "passed": self.passed,
            "items": [it.to_json() for it in self.items],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def lines(self) -> list[str]:
        out = []
        for it in self.items:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[it.status]
            suffix = f"  ({it.detail})" if it.detail else ""
            out.append(f"[{mark}] {it.item_id}{suffix}")
        c = self.counts()
        verdict = "PASS" if self.passed else "FAIL"
        out.append(
            f"{self.scenario}: {verdict}  "
            f"({c['pass']} passed, {c['fail']} failed, {c['skip']} skipped)"
        )
        return out


# --- claim verification -----------------------------------------------------------


def generated_subgroup(g, words) -> Subgroup:
    """The subgroup of g that the word images generate."""
    return g.subgroup(list(words))


@cache
def _registry_targets() -> dict[str, TableGroup]:
    """The registry's groups of orders 1-15 by expression text, in table 1's
    order: the one memo of claim targets, as it holds only shipped data."""
    return {e.text(): construct(e) for n in range(1, 16) for e in registry.groups_of_order(n)}


def _target_group(text: str) -> TableGroup:
    """The registry's group for text, else a fresh build that no memo keeps."""
    g = _registry_targets().get(text) or construct(text)
    if not isinstance(g, TableGroup):
        raise EngineError(f"claim target {text!r} is not a dense group")
    return g


def verify_claim(g, claim: Claim, *, ambient_text: str | None = None) -> ReportItem:
    """Replay one claim: evaluate, close, compare orders, test isomorphism."""
    try:
        target = _target_group(claim.target)
    except EngineError as e:
        return ReportItem(claim.target, "fail", f"{type(e).__name__}: {e}")
    return _check_claim(g, claim, target, ambient_text)


def _check_claim(g, claim: Claim, target: TableGroup, ambient_text: str | None) -> ReportItem:
    """``verify_claim`` against the claim's target, built already."""
    try:
        sub = generated_subgroup(g, claim.generators)
    except EngineError as e:
        return ReportItem(claim.target, "fail", f"{type(e).__name__}: {e}")
    if sub.order != target.order:
        return ReportItem(claim.target, "fail", f"order mismatch {sub.order} != {target.order}")
    if is_isomorphic(target, sub.group) is None:
        why = f"generated subgroup is not isomorphic to {claim.target}"
        return ReportItem(claim.target, "fail", why)
    witness = {"kind": "embedding", **claim.to_json()}
    if ambient_text is not None:
        witness["ambient"] = ambient_text
    detail = f"order {target.order}, source {claim.source}"
    return ReportItem(claim.target, "pass", detail, witness)


def verify_certificate(cert: Certificate | str | Path) -> Report:
    """Check every claim of a certificate against its ambient group."""
    if not isinstance(cert, Certificate):
        cert = Certificate.load(cert)
    g = construct(cert.ambient)
    items = [verify_claim(g, c, ambient_text=cert.ambient) for c in cert.claims]
    for i, it in enumerate(items):
        it.item_id = f"claim {i + 1}: {it.item_id}"
    return Report("verify-certificate", items)


# --- coverage checks --------------------------------------------------------------


def _targets_of_order(n: int) -> list[tuple[str, TableGroup]]:
    """(text, group) per class of order n: table 1's row n to order 15, else the catalog."""
    if 1 <= n <= 15:
        return [(t, g) for t, g in _registry_targets().items() if g.order == n]
    return [(e.recipe_text, e.group) for e in enumerator.enumerate_groups(n).entries]


def _check_target(g, text: str, target: TableGroup, claims, ambient_text):
    """Pass on the first (claim, claim target) of ``claims`` for the target's
    class that verifies, else on an embedding search of the dense ambient."""
    notes = []
    for c, t in claims:
        if t is not target and (t.order != target.order or is_isomorphic(t, target) is None):
            continue
        item = _check_claim(g, c, t, ambient_text)
        if item.status == "pass":
            item.item_id = text
            return item
        notes.append(item.detail)
    if not isinstance(g, TableGroup):
        raise IncompleteCertificates(
            f"no verified claim covers target {text!r} in non-dense ambient "
            f"{ambient_text or type(g).__name__}"
        )
    m = find_embedding(target, g)
    if m is not None:
        status, detail = "pass", f"order {target.order}, source derived"
        witness = {"kind": "embedding", "target": text, "source": "derived",
                   "generators": [g.label_of(x) for _, x in m.gen_images]}
    else:
        status, detail = "fail", f"no embedding of {text}"
        if notes:
            detail += f"; claim failures: {'; '.join(notes)}"
        witness = {"kind": "absence", "target": text}
    if ambient_text is not None:
        witness["ambient"] = ambient_text
    return ReportItem(text, status, detail, witness)


def _contains_all(g, orders, scenario, certificate, ambient_text, stop_on_fail) -> Report:
    """One item per isomorphism class of each order, in order.  Each claim's
    target is built once; a claim whose target does not build names no class."""
    items, claims = [], []
    for c in certificate.claims if certificate is not None else ():
        try:
            claims.append((c, _target_group(c.target)))
        except EngineError:
            pass
    for n in orders:
        for text, target in _targets_of_order(n):
            items.append(_check_target(g, text, target, claims, ambient_text))
            if stop_on_fail and items[-1].status == "fail":
                return Report(scenario, items)
    return Report(scenario, items)


def contains_all_of_order(
    g,
    n: int,
    certificate: Certificate | None = None,
    *,
    ambient_text: str | None = None,
    stop_on_fail: bool = False,
) -> Report:
    """Does every group of order n embed in g?  One item per target."""
    return _contains_all(
        g, [n], f"contains-all-of-order-{n}", certificate, ambient_text, stop_on_fail
    )


def contains_all_upto(
    g,
    n: int,
    certificate: Certificate | None = None,
    *,
    ambient_text: str | None = None,
    stop_on_fail: bool = False,
) -> Report:
    """Does every group of order at most n embed in g?"""
    return _contains_all(
        g, range(1, n + 1), f"contains-all-upto-{n}", certificate, ambient_text, stop_on_fail
    )


# --- minimal-order search ---------------------------------------------------------


@dataclass
class SearchOutcome:
    collection: str
    n: int
    bound: int
    max_order: int
    candidates: list[int]
    found_order: int | None
    groups: list[str]
    eliminated: dict[int, int] = field(default_factory=dict)
    built: dict[int, int] = field(default_factory=dict)  # entries left to search, per order

    @property
    def found(self) -> bool:
        return self.found_order is not None

    def to_json(self) -> dict:
        return {
            "collection": self.collection,
            "n": self.n,
            "bound": self.bound,
            "max_order": self.max_order,
            "candidates": self.candidates,
            "found_order": self.found_order,
            "groups": self.groups,
            "eliminated": {str(k): v for k, v in self.eliminated.items()},
            "built": {str(k): v for k, v in self.built.items()},
        }


def minimal_embedding_search(kind: str, n: int, max_order: int) -> SearchOutcome:
    """Least order admitting a group that hosts the whole collection.

    kind "order" quantifies over all groups of order exactly n, kind "upto"
    over all groups of order at most n.  Candidate orders are the multiples
    of the matching lower bound; the first order with a passing group stops
    the search, but every group of that order is still examined so the full
    set of minimal groups gets reported.  A candidate is built and searched
    only when its stored fingerprint refutes no target (``may_embed``: the
    element-order counts and derived-order divisibility); ``built`` counts
    those candidates at each order reached.

    The bound is multiplied out only until it passes max_order: every host
    order is a multiple of each partial product, so none is a candidate then,
    and ``bound`` is that partial product.
    """
    if kind not in ("order", "upto"):
        raise ValueError(f"kind must be 'order' or 'upto', got {kind!r}")
    bound = 1
    factors = registry.collection_bound_factors if kind == "order" else registry.nbound_factors
    for f in factors(n):
        bound *= f
        if bound > max_order:
            break
    tier = enumerator.default_tier()
    orders = range(bound, max_order + 1, bound)
    for m in orders:  # a range past the tier is refused before it is listed
        if not enumerator.order_allowed(m, tier):
            raise TierLimitExceeded(f"candidate order {m} is outside tier {tier}; raise MGE_TIER")
    candidates = list(orders)
    name = f"all-{'of-order' if kind == 'order' else 'upto'} {n}"
    eliminated: dict[int, int] = {}
    built: dict[int, int] = {}
    found, passing = None, []
    targets = [t for k in ([n] if kind == "order" else range(1, n + 1))
               for _, t in _targets_of_order(k)] if candidates else []
    prints = [Fingerprint.of(t) for t in targets]
    for m in candidates:
        cat = enumerator.enumerate_groups(m)
        left = [e for e in cat.entries if all(may_embed(fp, e.fingerprint) for fp in prints)]
        built[m] = len(left)
        # a catalog group is dense, so each verdict is what contains_all_* decides
        passing = [
            e.recipe_text for e in left
            if all(find_embedding(t, e.group) is not None for t in targets)
        ]
        if passing:
            found = m
            break
        eliminated[m] = len(cat.entries)
    return SearchOutcome(name, n, bound, max_order, candidates, found, passing, eliminated, built)


# --- witness replay ---------------------------------------------------------------


def replay_witness(w: dict) -> bool:
    """Re-verify a report witness from scratch.  True means it still holds; a
    witness that is malformed, of an unknown kind, or asks for more than the
    engine builds does not hold, so one tampered witness fails only its item."""
    try:
        return isinstance(w, dict) and _replay(w)
    except (EngineError, KeyError, TypeError, ValueError):
        return False


def _replay(w: dict) -> bool:
    kind = w.get("kind")
    if kind == "embedding":
        return verify_claim(construct(w["ambient"]), Claim.from_json(w)).status == "pass"
    if kind == "absence":
        g = construct(w["ambient"])
        if not isinstance(g, TableGroup):
            return False
        return find_embedding(_target_group(w["target"]), g) is None
    if kind == "bijection":
        cat = enumerator.enumerate_groups(w["order"])
        stated = [list(p) for p in w["pairs"]]
        pairs, problem = _bijection(cat, [lb for lb, _ in stated])
        return problem is None and pairs == stated
    if kind == "minimal-search":
        out = minimal_embedding_search(w["search_kind"], w["n"], w["max_order"])
        return out.found_order == w["order"] and sorted(out.groups) == sorted(w["groups"])
    if kind == "containment":
        g = construct(w["ambient"])
        cert = bundled_certificates().get(w["ambient"])
        checker = contains_all_of_order if w["quantifier"] == "order" else contains_all_upto
        return checker(g, w["n"], cert, ambient_text=w["ambient"]).passed
    if kind == "table4":
        return _table4_problem(w["n"], w["factor"], w["ambient"]) is None
    raise ValueError(f"unknown witness kind {kind!r}")


def replay_report(report: Report) -> bool:
    """Every pass item's witness re-verifies from empty catalog, target,
    component and ambient memos."""
    enumerator.clear_memory_cache()
    _registry_targets.cache_clear()
    registry._kfactor.cache_clear()
    registry._AMBIENTS.clear()
    return all(
        replay_witness(it.witness)
        for it in report.items
        if it.status == "pass" and it.witness is not None
    )


# --- scenario runner --------------------------------------------------------------


_SCENARIOS: dict[str, object] = {}


def _scenario(sid: str):
    def reg(fn):
        _SCENARIOS[sid] = fn
        return fn

    return reg


def scenario_ids() -> list[str]:
    return list(_SCENARIOS)


def reproduce(sid: str) -> Report:
    if sid not in _SCENARIOS:
        raise UnknownLabel(f"unknown scenario {sid!r}; have {', '.join(_SCENARIOS)}")
    return Report(sid, _SCENARIOS[sid]())


def _item(item_id: str, problem: str | None, detail: str, witness: dict | None) -> ReportItem:
    """The report item of one check: a fail item stating the problem when
    there is one, else a pass item with the detail and the witness."""
    if problem is not None:
        return ReportItem(item_id, "fail", problem)
    return ReportItem(item_id, "pass", detail, witness)


def _bijection(cat, labels: list[str]) -> tuple[list[list[str]], str | None]:
    """Pair each registry label with the catalog class it is isomorphic to;
    the problem is a count that differs from the catalog's, or the first label
    that matches no class or a class an earlier label took."""
    if len(cat) != len(labels):
        return [], f"enumerated {len(cat)} classes, expected {len(labels)}"
    pairs = []
    seen = set()
    for lb in labels:
        entry = cat.find_isomorphic(_target_group(registry.named_group(lb).text()))
        if entry is None:
            return pairs, f"{lb} matches no enumerated class"
        if entry.recipe_text in seen:
            return pairs, f"{lb} duplicates the class of {entry.recipe_text}"
        seen.add(entry.recipe_text)
        pairs.append([lb, entry.recipe_text])
    return pairs, None


def _passing_classes_problem(out: SearchOutcome, labels: list[str]) -> str | None:
    """Why the passing classes of the search's found order are not exactly
    the labelled groups, or None when they are."""
    cat = enumerator.enumerate_groups(out.found_order)
    passing = [e for e in cat.entries if e.recipe_text in out.groups]
    if len(passing) != len(labels):
        return f"expected {len(labels)} classes, found {len(passing)}"
    return _bijection(enumerator.Catalog(cat.order, passing, cat.provenance), labels)[1]


def _search_row(item_id: str, n: int, max_order: int, order: int):
    """The search for the least order hosting every group of order n, run up
    to max_order, as (outcome, witness, None) when it finds `order`.  Otherwise
    the third place holds the item that ends the row: a skip when a candidate
    order is outside the tier, a fail naming the order the search found."""
    try:
        out = minimal_embedding_search("order", n, max_order)
    except TierLimitExceeded as e:
        return None, None, ReportItem(item_id, "skip", str(e))
    if out.found_order != order:
        problem = f"search found order {out.found_order}, stated {order}"
        return None, None, _item(item_id, problem, "", None)
    witness = {"kind": "minimal-search", "search_kind": "order", "n": n,
               "max_order": max_order, "order": order, "groups": out.groups}
    return out, witness, None


def _host_problem(ambient: str, order: int, n: int) -> str | None:
    """Why the ambient does not have the stated order or does not host every
    group of order at most n, or None when it does both."""
    g = construct(ambient)
    if g.order != order:
        return f"{ambient} has order {g.order}, stated {order}"
    rep = contains_all_upto(g, n, bundled_certificates().get(ambient), ambient_text=ambient,
                            stop_on_fail=True)
    return None if rep.passed else f"{ambient} does not host {rep.failed_ids()}"


@_scenario("table1")
def _run_table1() -> list[ReportItem]:
    items = []
    for n in range(1, 16):
        labels = registry.group_labels_of_order(n)
        pairs, problem = _bijection(enumerator.enumerate_groups(n), labels)
        items.append(_item(f"order {n}", problem, f"{len(labels)} classes, bijective",
                           {"kind": "bijection", "order": n, "pairs": pairs}))
    return items


@_scenario("table2")
def _run_table2() -> list[ReportItem]:
    items = []
    for n in range(1, 16):
        order, labels = registry.table2_row(n)
        out, witness, stop = _search_row(f"n={n}", n, order, order)
        items.append(stop or _item(
            f"n={n}", _passing_classes_problem(out, list(labels)),
            f"minimal order {order}, groups {{{', '.join(labels)}}}", witness,
        ))
    return items


def _table4_problem(n: int, factor: int, ambient: str) -> str | None:
    """Why the ambient does not attain table 4's value factor * nbound(n) for
    all groups of order at most n, or None when it does."""
    stated = registry.table4_value(n)
    nb = registry.nbound(n)
    if stated != factor * nb:
        return f"stated {stated} != {factor} * nbound({n}) = {factor * nb}"
    return _host_problem(ambient, stated, n)


@_scenario("table4")
def _run_table4() -> list[ReportItem]:
    items = []
    for n in range(1, 16):
        factor = 1 if n <= 11 else 2
        label = registry.table5_row(n)[0] if n <= 11 else "BIG12_SOL" if n == 12 else "BIG15_SOL"
        ambient = f"named({label})"
        minimality = ("minimal: equals the collection lower bound" if factor == 1
                      else "attained; lower bound not re-derived here")
        items.append(_item(
            f"n={n}", _table4_problem(n, factor, ambient),
            f"{registry.table4_value(n)} attained by {label}; {minimality}",
            {"kind": "table4", "n": n, "factor": factor, "ambient": ambient},
        ))
    return items


@_scenario("table5")
def _run_table5() -> list[ReportItem]:
    items = []
    for n in range(1, 12):
        expected = registry.nbound(n)
        for label in registry.table5_row(n):
            ambient = f"named({label})"
            items.append(_item(
                f"n={n}: {label}", _host_problem(ambient, expected, n),
                f"order {expected}, hosts every group of order <= {n}",
                {"kind": "containment", "ambient": ambient, "quantifier": "upto", "n": n},
            ))
    return items


def _minimal_host_items(n: int, max_order: int, order: int, labels: list[str]) -> list[ReportItem]:
    """The search for the least order hosting every group of order n finds
    `order`, and its passing classes are exactly the labelled groups."""
    out, witness, stop = _search_row("minimal order", n, max_order, order)
    if stop is not None:
        return [stop]
    detail = str(order)
    if out.eliminated:
        elim = ", ".join(f"{m} ({c} groups)" for m, c in sorted(out.eliminated.items()))
        detail += f" after eliminating {elim}"
    plural = "group" if len(labels) == 1 else "groups"
    return [
        _item("minimal order", None, detail, witness),
        _item("passing classes", _passing_classes_problem(out, labels),
              f"exactly {len(labels)} {plural}: {' and '.join(labels)}", witness),
    ]


@_scenario("thm-order32")
def _run_thm32() -> list[ReportItem]:
    return _minimal_host_items(8, 64, 32, ["C2xH1", "H2"])


@_scenario("thm-order144")
def _run_thm144() -> list[ReportItem]:
    return _minimal_host_items(12, 144, 144, ["S3xS4"])


def _index2_subgroups(g: TableGroup):
    """Element arrays of the index-2 subgroups: the kernels of the maps onto
    C2.  Every choice of images of ``greedy_gens`` at once extends along the
    generators to a map phi, which is a homomorphism exactly when
    ``phi(x * s) == phi(x) ^ phi(s)`` for every element x and generator s."""
    gens = list(g.greedy_gens)
    choices = np.arange(1, 1 << len(gens))
    bits = [choices >> k & 1 for k in range(len(gens))]
    phi = np.array(along_generators(g, gens, bits, np.bitwise_xor, 0 * choices)).T  # [choice, x]
    ok = (phi[:, g.table[:, gens]] == phi[:, :, None] ^ phi[:, None, gens]).all(axis=(1, 2))
    for row in phi[ok]:
        yield np.flatnonzero(row == 0)


def _has_abelian_exp4_half(g: TableGroup) -> bool:
    """An abelian subgroup of index 2 and exponent at most 4 exists."""
    orders = g.element_orders
    for sub in _index2_subgroups(g):
        if orders[sub].max() > 4:
            continue
        block = g.table[np.ix_(sub, sub)]
        if (block == block.T).all():
            return True
    return False


def _absence_item(entry, n: int, stop_on_fail: bool, note: str, hosts_all: str):
    """Pass when some group of order n does not embed in a catalog group; the
    first missing target is the witness."""
    rep = contains_all_of_order(
        entry.group, n, ambient_text=entry.recipe_text, stop_on_fail=stop_on_fail
    )
    missing = rep.failed_ids()
    return _item(
        entry.recipe_text, None if missing else hosts_all, f"{note}missing {', '.join(missing)}",
        {"kind": "absence", "ambient": entry.recipe_text, "target": "".join(missing[:1])},
    )


@_scenario("lemma-habex4")
def _run_habex4() -> list[ReportItem]:
    cat = enumerator.enumerate_groups(32)
    with_hyp = [e for e in cat.entries if _has_abelian_exp4_half(e.group)]
    items = [
        _absence_item(
            e, 8, False, "",
            "hosts all groups of order 8 despite an abelian half of exponent <= 4",
        )
        for e in with_hyp
    ]
    items.append(
        ReportItem(
            "hypothesis coverage", "pass",
            f"{len(with_hyp)} of {len(cat)} order-32 groups have an abelian "
            f"index-2 subgroup of exponent <= 4",
        )
    )
    return items


@_scenario("lemma-order96")
def _run_order96() -> list[ReportItem]:
    """Every order-96 group that hosts A4 misses some group of order 8.  An
    entry whose stored fingerprint refutes A4 (``may_embed``) is never built."""
    tier = enumerator.default_tier()
    if not enumerator.order_allowed(96, tier):
        return [ReportItem("order 96 sweep", "skip",
                           f"needs tier 2 enumeration of order 96 (active tier {tier})")]
    cat = enumerator.enumerate_groups(96)
    a4 = _target_group("A(4)")
    a4_print = Fingerprint.of(a4)
    items = [
        _absence_item(e, 8, False, "hosts A4; ", "hosts A4 and every group of order 8")
        for e in cat.entries
        if may_embed(a4_print, e.fingerprint) and find_embedding(a4, e.group) is not None
    ]
    items.append(
        ReportItem(
            "hypothesis coverage", "pass",
            f"{len(items)} of {len(cat)} order-96 groups host A4",
        )
    )
    return items


@_scenario("lemma-p3")
def _run_p3() -> list[ReportItem]:
    tier = enumerator.default_tier()
    if not enumerator.order_allowed(243, tier):
        return [
            ReportItem(
                "order 243 sweep", "skip",
                f"needs tier 3 enumeration of order 243 (active tier {tier}; "
                "set MGE_TIER=3)",
            )
        ]
    cat = enumerator.enumerate_groups(243)
    # stopping at the first miss leaves exactly one missing target
    return [
        _absence_item(e, 27, True, "", "hosts every group of order 27")
        for e in cat.entries
    ]


@_scenario("example-p6")
def _run_p6() -> list[ReportItem]:
    items = []
    g6 = construct(registry.named_group("GP6_3"))
    rep = contains_all_of_order(g6, 27, ambient_text="named(GP6_3)")
    items.append(_item(
        "GP6_3 hosts all of order 27", None if rep.passed else f"missing {rep.failed_ids()}",
        f"order {g6.order}, {len(rep.items)} targets",
        {"kind": "containment", "ambient": "named(GP6_3)", "quantifier": "order", "n": 27},
    ))
    if rep.passed:
        items.extend(rep.items)
    w = construct(registry.named_group("W3"))
    wrep = contains_all_of_order(w, 27, ambient_text="named(W3)")
    missing = wrep.failed_ids()
    first = "".join(missing[:1])
    ea = _target_group("EA(3, 3)")
    exact = len(missing) == 1 and is_isomorphic(_target_group(first), ea) is not None
    items.append(_item(
        "W3 misses exactly the rank-3 elementary abelian group",
        None if exact else f"missing set was {missing}", f"missing {first} only",
        {"kind": "absence", "ambient": "named(W3)", "target": first},
    ))
    return items
