"""Certificates, containment reports, the minimal-order search, witness
replay, and the reproducible scenarios."""

import copy
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from mge import construct, enumerator, groups, morphisms, registry, verify
from mge.enumerator import _BUNDLED_DIR, default_tier, enumerate_groups
from mge.errors import IncompleteCertificates, TierLimitExceeded, UnknownLabel
from mge.verify import (
    Certificate,
    Claim,
    bundled_certificate,
    bundled_certificates,
    contains_all_of_order,
    contains_all_upto,
    generated_subgroup,
    minimal_embedding_search,
    replay_report,
    replay_witness,
    reproduce,
    scenario_ids,
    verify_certificate,
    verify_claim,
)


def test_claim_round_trip():
    c = Claim("C(4)", ("(1234)",), "paper")
    assert Claim.from_json(c.to_json()) == c
    with pytest.raises(ValueError):
        Claim.from_json({"target": "C(4)", "generators": [], "source": "guess"})


def test_certificate_round_trip(tmp_path):
    cert = Certificate(
        "S(4)",
        "symmetric group on four points",
        [Claim("C(4)", ("(1234)",)), Claim("EA(2,2)", ("(12)(34)", "(13)(24)"), "derived")],
    )
    path = tmp_path / "c.json"
    path.write_text(cert.dumps())
    again = Certificate.load(path)
    assert again == cert
    assert verify_certificate(path).passed


# each is a certificate file whose shape is wrong; loading one must raise
# ValueError (which the command line reports as a usage error)
MALFORMED_CERTIFICATES = {
    "empty object": {},
    "claim without generators": {"ambient": "S(4)", "claims": [{"target": "C(4)"}]},
    "top-level list": [{"ambient": "S(4)", "claims": []}],
    "generators as one string": {
        "ambient": "S(4)", "claims": [{"target": "C(4)", "generators": "a^2"}]
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CERTIFICATES))
def test_malformed_certificate_is_a_value_error(name, tmp_path):
    doc = MALFORMED_CERTIFICATES[name]
    with pytest.raises(ValueError):
        Certificate.from_json(doc)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        verify_certificate(path)


def test_bundled_certificates_refuse_two_for_one_ambient(monkeypatch, tmp_path):
    for name in ("a.json", "b.json"):
        cert = Certificate("S(4)", name, [Claim("C(4)", ("(1234)",))])
        (tmp_path / name).write_text(cert.dumps())
    monkeypatch.setattr(verify, "_CERT_DIR", tmp_path)
    bundled_certificates.cache_clear()
    try:
        with pytest.raises(ValueError, match="S\\(4\\)"):
            bundled_certificates()
    finally:
        bundled_certificates.cache_clear()


def test_generated_subgroup():
    s4 = construct("S(4)")
    sub = generated_subgroup(s4, ["(123)", "(12)(34)"])
    assert sub.order == 12


def ref_index2_subgroups(g):
    """The index-2 subgroups as hyperplanes over the quotient by the subgroup
    the squares generate, with hand-made coset and coordinate labels."""
    n = g.n
    elems, _ = groups.bfs_closure(0, sorted({int(s) for s in np.diagonal(g.table)}), g.mul)
    nset = sorted(elems)
    if len(nset) == n:
        return
    rep = np.full(n, -1, dtype=np.int64)
    reps = []
    for x in range(n):
        if rep[x] >= 0:
            continue
        r = len(reps)
        reps.append(x)
        for e in nset:
            rep[g.table[x, e]] = r
    coords = {0: 0}
    nbits = 0
    for i in range(1, len(reps)):
        if i in coords:
            continue
        bit = 1 << nbits
        nbits += 1
        for j in list(coords):
            coords[int(rep[g.table[reps[j], reps[i]]])] = coords[j] | bit
    coord_of = np.zeros(len(reps), dtype=np.int64)
    for j, c in coords.items():
        coord_of[j] = c
    elem_coord = coord_of[rep]
    for phi in range(1, 1 << nbits):
        masked = elem_coord & phi
        parity = np.zeros(n, dtype=np.int64)
        while masked.any():
            parity ^= masked & 1
            masked = masked >> 1
        yield np.flatnonzero(parity == 0)


def test_index2_subgroups_match_reference():
    compared = 0
    for n in (8, 12, 16, 24, 32, 48):
        for e in json.loads((_BUNDLED_DIR / f"order{n}.json").read_text())["entries"]:
            g = construct(e["recipe"])
            got = sorted(sub.tolist() for sub in verify._index2_subgroups(g))
            assert got == sorted(sub.tolist() for sub in ref_index2_subgroups(g)), e["recipe"]
            compared += 1
    assert compared == 142


def test_verify_claim_pass():
    s4 = construct("S(4)")
    item = verify_claim(s4, Claim("C(4)", ("(1234)",)))
    assert item.status == "pass"
    assert item.witness["target"] == "C(4)"


def test_verify_claim_order_mismatch():
    s4 = construct("S(4)")
    item = verify_claim(s4, Claim("C(8)", ("(1234)",)))
    assert item.status == "fail"
    assert "order mismatch 4 != 8" in item.detail


def test_verify_claim_wrong_class():
    s4 = construct("S(4)")
    item = verify_claim(s4, Claim("C(4)", ("(12)(34)", "(13)(24)")))
    assert item.status == "fail"
    assert "not isomorphic" in item.detail


def test_verify_claim_bad_word():
    s4 = construct("S(4)")
    item = verify_claim(s4, Claim("C(4)", ("nosuch",)))
    assert item.status == "fail"


def test_bundled_certificates_lookup():
    certs = bundled_certificates()
    assert "named(S3xS4)" in certs
    assert "named(BIGPROD)" in certs
    with pytest.raises(UnknownLabel):
        bundled_certificate("named(NOPE)")


def test_bundled_lemma_certificate_verifies():
    rep = verify_certificate(bundled_certificate("named(S3xS4)"))
    assert rep.passed
    assert rep.counts()["pass"] == len(bundled_certificate("named(S3xS4)").claims)


def test_verify_certificate_searches_from_its_claim_targets(monkeypatch):
    # the memo's target is the search source, so each distinct target builds
    # its search levels once and no generated subgroup builds any
    cert = bundled_certificate("named(S3xS4)")
    verify._registry_targets.cache_clear()
    levels, built = morphisms._search_levels, []

    def counted(src):
        if "_search_levels" not in src.__dict__:
            built.append(src)
        return levels(src)

    monkeypatch.setattr(morphisms, "_search_levels", counted)
    assert verify_certificate(cert).passed
    targets = {c.target for c in cert.claims if verify._target_group(c.target).order > 1}
    assert sorted(map(id, built)) == sorted(id(verify._target_group(t)) for t in targets)


@pytest.mark.parametrize("text", ["C(", "C(2) x C(5000)"])
def test_a_claim_whose_target_does_not_build_names_no_class(text):
    # a parse error, and a target past the table limit, skip only that claim
    s4 = construct("S(4)")
    cert = Certificate("S(4)", "", [Claim(text, ("(12)",)), Claim("C(4)", ("(1234)",))])
    rep = contains_all_of_order(s4, 4, cert, ambient_text="S(4)")
    assert rep.passed
    (item,) = [it for it in rep.items if it.item_id == "C(4)"]
    assert item.detail == "order 4, source paper"


def test_a_foreign_claim_target_is_built_once_per_check(monkeypatch):
    built = []
    monkeypatch.setattr(verify, "construct",
                        lambda text: built.append(text) or construct(text))
    cert = Certificate("S(4)", "", [Claim("C(2) x C(8)", ("(12)",))])
    rep = contains_all_upto(construct("S(4)"), 4, cert, ambient_text="S(4)")
    assert rep.passed and len(rep.items) == 5
    assert built.count("C(2) x C(8)") == 1


def test_a_matching_claim_target_is_built_once_per_check(monkeypatch):
    built = []
    monkeypatch.setattr(verify, "construct",
                        lambda text: built.append(text) or construct(text))
    cert = Certificate("S(4)", "", [Claim("EA(2,2)", ("(12)", "(34)"))])
    rep = contains_all_upto(construct("S(4)"), 4, cert, ambient_text="S(4)")
    assert rep.passed and built.count("EA(2,2)") == 1
    (item,) = [it for it in rep.items if it.item_id == "C(2) x C(2)"]
    assert item.detail == "order 4, source paper"


def test_a_claim_on_the_checked_target_is_matched_without_a_search(monkeypatch):
    tested = []
    monkeypatch.setattr(verify, "is_isomorphic",
                        lambda a, b: tested.append(a is b) or morphisms.is_isomorphic(a, b))
    cert = Certificate("S(4)", "", [Claim("C(4)", ("(1234)",))])
    rep = contains_all_of_order(construct("S(4)"), 4, cert, ambient_text="S(4)")
    assert rep.passed and rep.items[0].detail == "order 4, source paper"
    assert True not in tested


def test_containment_pass_dense():
    rep = contains_all_of_order(construct("named(C2xH1)"), 8, ambient_text="named(C2xH1)")
    assert rep.passed
    assert rep.counts()["pass"] == 5
    for item in rep.items:
        assert item.witness is not None


def test_containment_ex192_order12():
    # order 192 hosts all five groups of order 12 even though 144 | 192 fails
    assert 192 % 144 != 0
    rep = contains_all_of_order(construct("named(EX192)"), 12, ambient_text="named(EX192)")
    assert rep.passed


def test_containment_failure_is_reported():
    rep = contains_all_of_order(construct("C(8)"), 8, ambient_text="C(8)")
    assert not rep.passed
    failed = {it.item_id for it in rep.items if it.status == "fail"}
    assert "D(4)" in failed and "Q(2)" in failed


def test_containment_stop_on_fail():
    rep = contains_all_of_order(
        construct("C(8)"), 8, ambient_text="C(8)", stop_on_fail=True
    )
    assert not rep.passed
    assert rep.counts()["fail"] == 1


def test_failed_claim_falls_back_to_the_derived_search():
    s4 = construct("S(4)")
    wrong = Certificate("S(4)", "a claim whose generator has the wrong order",
                        [Claim("C(4)", ("(12)",))])
    rep = contains_all_of_order(s4, 4, wrong, ambient_text="S(4)")
    (item,) = [it for it in rep.items if it.item_id == "C(4)"]
    assert item.status == "pass" and item.detail == "order 4, source derived"
    assert item.witness["source"] == "derived"
    absent = Certificate("S(4)", "a claim of a target S(4) does not contain",
                         [Claim("C(6)", ("(123)",))])
    rep = contains_all_of_order(s4, 6, absent, ambient_text="S(4)")
    (item,) = [it for it in rep.items if it.item_id == "C(6)"]
    assert item.status == "fail"
    assert item.detail == "no embedding of C(6); claim failures: order mismatch 3 != 6"


def test_twisted_ambient_needs_certificates():
    tw = construct("named(C5xC7xC9xD3xH1)")
    with pytest.raises(IncompleteCertificates):
        contains_all_of_order(tw, 8, ambient_text="named(C5xC7xC9xD3xH1)")


def test_twisted_ambient_with_bundled_certificates():
    label = "C5xC7xC9xD3xH1"
    tw = construct(f"named({label})")
    cert = bundled_certificate(f"named({label})")
    rep = contains_all_upto(tw, 9, cert, ambient_text=f"named({label})")
    assert rep.passed


def test_upto_containment_small():
    rep = contains_all_upto(construct("C(6)"), 3, ambient_text="C(6)")
    assert rep.passed
    assert rep.counts()["pass"] == 3  # one target per order 1, 2, 3


def test_upto_sweep_hashes_no_table(monkeypatch):
    g = construct("S(4)")
    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(groups, "hashlib", types.SimpleNamespace(sha256=sha256))
    rep = contains_all_upto(g, 4)
    assert len(rep.items) == 5  # C1, C2, C3, C4, EA(2,2)
    assert hashed == []


def test_minimal_search_order_collection():
    out = minimal_embedding_search("order", 4, 16)
    assert out.found_order == 8
    assert out.candidates == [8, 16]  # multiples of the divisibility bound
    assert out.eliminated == {}
    got = [construct(text) for text in out.groups]
    assert len(got) == 2
    # exactly one host per isomorphism type: one abelian, one dihedral
    from mge import is_isomorphic

    flat = sorted(
        "C(2) x C(4)" if is_isomorphic(g, construct("C(2) x C(4)")) else
        "D(4)" if is_isomorphic(g, construct("D(4)")) else "?"
        for g in got
    )
    assert flat == ["C(2) x C(4)", "D(4)"]


def test_minimal_search_builds_no_witness_labels(monkeypatch):
    def label_of(self, x):
        raise AssertionError("a witness label was built")

    monkeypatch.setattr(groups.TableGroup, "label_of", label_of)
    out = minimal_embedding_search("order", 8, 64)
    assert out.found_order == 32 and out.candidates == [32, 64]


def test_thm_order144_builds_only_candidates_its_stored_counts_leave(monkeypatch):
    # a candidate with fewer elements of some order than an order-12 target,
    # or a derived subgroup whose order the target's does not divide, hosts no
    # such target, and it is refuted from its stored fingerprint
    monkeypatch.setenv("MGE_TIER", "2")
    targets = [t for _, t in verify._targets_of_order(12)]
    needs = [np.bincount(t.element_orders) for t in targets]
    derived = [len(t.derived_elements) for t in targets]
    left = 0
    for m in (24, 48, 72, 96, 120, 144):
        for e in json.loads((_BUNDLED_DIR / f"order{m}.json").read_text())["entries"]:
            stored = json.loads(e["fingerprint"])
            have = dict(stored["element_orders"])
            left += (all(k <= have.get(o, 0) for need in needs for o, k in enumerate(need))
                     and all(stored["derived_order"] % d == 0 for d in derived))
    built = []
    real = enumerator.construct
    monkeypatch.setattr(enumerator, "construct", lambda expr: built.append(expr) or real(expr))
    enumerator.clear_memory_cache()
    try:
        text = reproduce("thm-order144").dumps()
    finally:
        enumerator.clear_memory_cache()
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS["thm-order144"]
    assert left == 25 and len(built) == left


def test_lemma_order96_builds_only_entries_whose_stored_fingerprint_admits_a4(monkeypatch):
    # A4 has 8 elements of order 3 and a derived subgroup of order 4, so an
    # entry with fewer such elements or a derived order not divisible by 4 is
    # refuted before it is built
    monkeypatch.setenv("MGE_TIER", "2")
    built = []
    real = enumerator.construct
    monkeypatch.setattr(enumerator, "construct", lambda expr: built.append(expr) or real(expr))
    enumerator.clear_memory_cache()
    try:
        text = reproduce("lemma-order96").dumps()
        total = len(enumerate_groups(96))
    finally:
        enumerator.clear_memory_cache()
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS["lemma-order96"]
    assert total == 231 and len(built) == 36


def test_a_minimal_search_says_how_many_entries_it_built(monkeypatch):
    monkeypatch.setenv("MGE_TIER", "2")
    out = minimal_embedding_search("order", 12, 144)
    assert out.found_order == 144
    assert out.built == {24: 0, 48: 0, 72: 1, 96: 8, 120: 0, 144: 16}
    assert out.eliminated == {24: 15, 48: 52, 72: 50, 96: 231, 120: 47}
    assert out.to_json()["built"] == {"24": 0, "48": 0, "72": 1, "96": 8, "120": 0, "144": 16}


def test_scenarios_leave_numpy_ma_unimported(tmp_path):
    # numpy's plain unique() imports numpy.ma on first use; the engine's
    # counts and checks use bincount and sort instead
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "MGE_TIER": "2", "MGE_CACHE_DIR": str(tmp_path)}
    bare = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    if bare.stdout.strip() == "True":
        pytest.skip("importing numpy alone loads numpy.ma")
    script = ("import sys\nfrom mge.verify import reproduce\n"
              "assert reproduce('thm-order144').passed and reproduce('table4').passed\n"
              "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_passing_classes_are_matched_to_labels_through_the_catalog():
    out = minimal_embedding_search("order", 4, 16)
    assert verify._passing_classes_problem(out, ["D4", "C2xC4"]) is None
    assert verify._passing_classes_problem(out, ["D4"]) == "expected 1 classes, found 2"
    assert verify._passing_classes_problem(out, ["D4", "Q2"]) == "Q2 matches no enumerated class"


def test_minimal_search_trivial():
    out = minimal_embedding_search("order", 2, 4)
    assert out.found_order == 2 and len(out.groups) == 1


def test_minimal_search_upto():
    out = minimal_embedding_search("upto", 3, 12)
    assert out.found_order == 6
    assert len(out.groups) == 2  # the cyclic and the dihedral group of order 6


def test_minimal_search_rejects_bad_kind():
    with pytest.raises(ValueError):
        minimal_embedding_search("sideways", 4, 16)


def test_minimal_search_tier_guard(monkeypatch):
    monkeypatch.setenv("MGE_TIER", "1")
    with pytest.raises(TierLimitExceeded):
        minimal_embedding_search("order", 5, 200)


def test_minimal_search_checks_the_tier_before_listing_candidates():
    tracemalloc.start()
    try:
        with pytest.raises(TierLimitExceeded, match="candidate order 65 is outside tier"):
            minimal_embedding_search("order", 1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("kind, n", [("upto", 2 * 10**6), ("upto", 10**5), ("order", 2**61 - 1)])
def test_minimal_search_stops_multiplying_a_bound_past_max_order(kind, n):
    start = time.perf_counter()
    out = minimal_embedding_search(kind, n, 10)
    assert time.perf_counter() - start < 1
    assert out.candidates == [] and not out.found and out.bound > 10
    json.dumps(out.to_json())  # what `mge minimal --json` writes


def test_minimal_search_keeps_a_bound_that_fits():
    assert minimal_embedding_search("upto", 4, 24).bound == registry.nbound(4) == 24
    assert minimal_embedding_search("order", 8, 32).bound == registry.collection_bound(8) == 32


def _peak_rss_kb(tmp_path, code: str) -> int:
    """Peak RSS in kB of a fresh tier-2 interpreter that imports the engine
    and runs ``code``.  It is read from VmHWM, the peak of the child's own
    address space: Linux carries the spawning process's peak into the
    child's ru_maxrss, so a large test process would hide the difference."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "MGE_TIER": "2", "MGE_CACHE_DIR": str(tmp_path)}
    script = ("import mge, mge.verify, mge.cli\n" + code + "\n"
              "print(next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return int(proc.stdout.split()[-2])


def test_table5_holds_each_dense_host_once(tmp_path):
    # the hosts of order 3360 of tables 4 and 5 are int16 tables of 21.5 MB
    # each; holding one at a time, built without a copy, stays under one and
    # a half of them
    base = _peak_rss_kb(tmp_path, "")
    for sid in ("table4", "table5"):
        run = _peak_rss_kb(tmp_path, f"assert mge.verify.reproduce({sid!r}).passed")
        assert (run - base) * 1024 < 1.5 * 3360 * 3360 * 2, sid


def test_scenarios_registered():
    ids = scenario_ids()
    for sid in ("table1", "table2", "table4", "table5", "thm-order32",
                "thm-order144", "lemma-habex4", "lemma-order96", "lemma-p3",
                "example-p6"):
        assert sid in ids
    with pytest.raises(UnknownLabel):
        reproduce("nope")


# sha256 of each scenario's tier-2 report bytes, recorded in a fresh process
# with empty memos; a report must not depend on what ran before it
REPORT_DIGESTS = {
    "table1": "6844e64fb5240b7dba7742162fafb28a12617907a25aaf003baf9f44f419ec86",
    "table2": "9f6d9ae180f823c3d91255f96eb6b30e09ff93e2f36c24f513482d2cdd48b0a4",
    "table4": "d519ef33fac27dc782afeb4da2cb0f2cddb3cf2052334bf74eccf496b21277b9",
    "table5": "f413813ca8ecdb61c6284646812fd246326b3c23cd7238350b226b1ec7496639",
    "thm-order32": "9f4abdf59a03c182731df90c4115907cb9ec453f71c0f82f957c4b11f5b4e81d",
    "thm-order144": "3f239415fa783c7f85dc6cab90f644338992b1b504ceb33f1b2f299cc715cfbe",
    "lemma-habex4": "b8ebb39cba08dad88843b7e6f9831b675f795e0641bf1fff291078650be54a6a",
    "lemma-order96": "d0f1f9debad37b8084687156611fc7dfa434f39da8e229d5c5d8bc7e1f90a7fb",
    "lemma-p3": "ccd81e03876e3bc1fc7f6a66eef3bdd2e5e5226f84a5c399e6dae2412cb42330",
    "example-p6": "6514c8e939bb38ce642f0c1cba107637cc7fd75727df839231a6c7c4ae95850b",
}


@pytest.mark.parametrize("sid", sorted(REPORT_DIGESTS))
def test_scenario_reports_are_deterministic(sid, monkeypatch):
    monkeypatch.setenv("MGE_TIER", "2")
    text = reproduce(sid).dumps()
    doc = json.loads(text)
    assert doc["scenario"] == sid and doc["passed"] is True
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[sid]


# sha256 of the tier-3 lemma-p3 report (the order-243 sweep), recorded the
# same way; opt-in like acceptance criterion 11
LEMMA_P3_TIER3_DIGEST = "ce7aa8d21b61c9545e21d14ace0895c4190755710988623111c93826f8784a68"


def test_lemma_p3_tier3_report_is_pinned():
    if default_tier() < 3:
        pytest.skip("the order-243 sweep runs only at MGE_TIER=3")
    text = reproduce("lemma-p3").dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == LEMMA_P3_TIER3_DIGEST


def test_a_cache_file_cannot_shadow_a_bundled_catalog(tmp_path, monkeypatch):
    # consistent entry by entry, but one class short of the bundled order-72 catalog
    doc = json.loads((_BUNDLED_DIR / "order72.json").read_text())
    doc["entries"] = doc["entries"][1:]
    (tmp_path / "order72.json").write_text(json.dumps(doc))
    monkeypatch.setenv("MGE_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("MGE_TIER", "2")
    enumerator.clear_memory_cache()
    try:
        assert len(enumerator.Catalog.from_json(doc)) == 49
        assert len(enumerate_groups(72)) == 50
        text = reproduce("thm-order144").dumps()
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS["thm-order144"]
    finally:
        enumerator.clear_memory_cache()


def test_embedding_witnesses_keep_each_groups_generator_names():
    # C(2) x C(2) and EA(2,2) have one table but other generator names
    first = contains_all_of_order(construct("C(2) x C(2)"), 4, ambient_text="C(2) x C(2)")
    rep = contains_all_of_order(construct("EA(2,2)"), 4, ambient_text="EA(2, 2)")
    for r in (first, rep):
        witnesses = [it.witness for it in r.items if it.status == "pass"]
        assert witnesses and all(replay_witness(w) for w in witnesses)
    assert rep.items[1].witness["generators"] == ["a1", "a2"]
    fresh = contains_all_of_order(construct("EA(2,2)"), 4, ambient_text="EA(2, 2)")
    assert fresh.dumps() == rep.dumps()


def test_thm_order32_scenario_and_replay():
    rep = reproduce("thm-order32")
    assert rep.passed
    assert replay_report(rep)


def test_replay_witness_rejects_tampering():
    rep = reproduce("thm-order32")
    w = next(it.witness for it in rep.items if it.witness is not None)
    assert replay_witness(w)
    bad = dict(w)
    if "groups" in bad:
        bad["groups"] = list(bad["groups"]) + ["C(5)"]
    elif "target" in bad:
        bad["target"] = "C(5)"
    assert not replay_witness(bad)


def _pass_witness(sid: str, item_id: str) -> dict:
    rep = reproduce(sid)
    w = next(it.witness for it in rep.items if it.item_id == item_id)
    assert replay_witness(w)
    return w


def test_replay_rejects_a_tampered_bijection():
    w = _pass_witness("table1", "order 8")
    pairs = w["pairs"]
    swapped = [[pairs[0][0], pairs[1][1]], [pairs[1][0], pairs[0][1]]] + pairs[2:]
    duplicated = [pairs[0], pairs[0]] + pairs[2:]
    for bad in (swapped, duplicated, pairs[:-1]):
        assert not replay_witness({**w, "pairs": bad})


def test_replay_rejects_a_tampered_table4_witness():
    w = _pass_witness("table4", "n=6")
    assert w["factor"] == 1
    assert not replay_witness({**w, "factor": 2})
    # named(C2xH1) has order 32, not table 4's 120 for n = 6
    assert not replay_witness({**w, "ambient": "named(C2xH1)"})


def test_replay_fails_a_malformed_witness_instead_of_raising():
    bij = _pass_witness("table1", "order 8")
    t4 = _pass_witness("table4", "n=6")
    search = next(it.witness for it in reproduce("thm-order32").items if it.witness)
    assert search["kind"] == "minimal-search"
    for bad in (
        {**bij, "pairs": [bij["pairs"][0][:1]] + bij["pairs"][1:]},  # a one-element pair
        {**t4, "n": 16},  # table 4 stops at n = 15
        {"kind": "absence", "ambient": "C(4)", "target": "C(99999)"},  # past the table limit
        {"kind": "embedding", "ambient": "C(4)", "target": "C(99999)", "generators": ["a"]},
        {k: v for k, v in search.items() if k != "search_kind"},
        {"kind": "no-such-kind"},
    ):
        assert replay_witness(bad) is False, bad


def test_replay_fails_a_witness_nested_too_deeply():
    deep = "(" * 5000 + "C(4)" + ")" * 5000
    assert replay_witness({"kind": "absence", "ambient": deep, "target": "C(2)"}) is False


def test_replay_fails_a_witness_that_is_not_a_dict():
    for bad in ([], "x", 5, None):
        assert replay_witness(bad) is False, bad


def test_replay_fails_a_minimal_search_witness_with_a_huge_n():
    w = {"kind": "minimal-search", "search_kind": "upto", "n": 2 * 10**6,
         "max_order": 10, "order": 1, "groups": []}
    start = time.perf_counter()
    assert replay_witness(w) is False
    assert replay_witness({**w, "search_kind": "order", "n": 2**61 - 1}) is False
    assert time.perf_counter() - start < 1


def test_replay_report_fails_on_one_tampered_witness():
    rep = reproduce("table1")
    assert replay_report(rep)
    items = list(rep.items)
    at = next(i for i, it in enumerate(items) if it.item_id == "order 8")
    w = items[at].witness
    items[at] = verify.ReportItem(items[at].item_id, "pass", items[at].detail,
                                  {**w, "pairs": [w["pairs"][0][:1]] + w["pairs"][1:]})
    assert replay_report(verify.Report(rep.scenario, items)) is False


def test_replay_reads_an_embedding_witness_as_a_claim():
    w = {"kind": "embedding", "ambient": "S(4)", "target": "C(2)", "source": "derived"}
    assert replay_witness({**w, "generators": ["(12)"]}) is True
    # element ids are not words: each would pick an element by position
    for bad in ([-1], [True], [10**6]):
        assert replay_witness({**w, "generators": bad}) is False, bad


def test_replay_report_reads_no_catalog_the_prover_left(monkeypatch):
    rep = reproduce("thm-order144")
    w = rep.items[0].witness
    cat = enumerate_groups(144)
    host = next(e for e in cat.entries if e.recipe_text in w["groups"])
    other = next(e for e in cat.entries if e is not host)
    # a memo that files the real host under another class's recipe
    fake = enumerator.CatalogEntry(other.recipe_text, 144, host.table_hash, host.fingerprint_text)
    fake.__dict__["group"] = host.group
    monkeypatch.setitem(enumerator._MEMO, 144, enumerator.Catalog(144, [fake], cat.provenance))
    bad = {**w, "groups": [other.recipe_text]}
    poisoned = verify.Report(rep.scenario, [verify.ReportItem("x", "pass", "", bad)])
    assert replay_report(poisoned) is False
    assert replay_report(rep)


def test_replay_report_empties_the_kfactor_memo():
    construct("named(BIGPROD)")
    assert registry._kfactor.cache_info().currsize > 0
    assert replay_report(verify.Report("empty", []))
    assert registry._kfactor.cache_info().currsize == 0


def test_replay_report_empties_the_ambient_memo():
    construct("named(BIG12_SOL)")
    assert registry._AMBIENTS
    assert replay_report(verify.Report("empty", []))
    assert not registry._AMBIENTS


def test_replay_keeps_no_target_a_witness_names():
    # targets of about 8 MB each, none of them a registry group
    witnesses = [{"kind": "embedding", "ambient": "C(2)", "target": f"C({n})",
                  "generators": ["a"]} for n in range(1981, 1991)]
    witnesses += [{"kind": "absence", "ambient": "C(2)", "target": f"C({n})"}
                  for n in range(1991, 2001)]
    replay_witness({"kind": "absence", "ambient": "C(2)", "target": "C(3)"})
    tracemalloc.start()
    try:
        for w in witnesses:
            replay_witness(w)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20


def test_lemma_p3_skips_below_tier3(monkeypatch):
    monkeypatch.setenv("MGE_TIER", "2")
    rep = reproduce("lemma-p3")
    assert rep.passed
    assert rep.counts()["skip"] >= 1


@pytest.fixture
def registry_copy(monkeypatch):
    """A deep copy of the registry data that the test may change; the memos
    that read the registry are cleared afterwards, so no change leaks."""
    data = copy.deepcopy(registry._data())
    monkeypatch.setattr(registry, "_data", lambda: data)
    yield data
    verify._registry_targets.cache_clear()
    registry._AMBIENTS.clear()


# (changes to the registry data as {path of keys: new value}, scenario, tier,
#  the report's items that do not pass as (id, status, detail))
SCENARIO_FAILURES = {
    "table1 count mismatch": (
        {("table1", "8"): ["C8", "C2xC4", "C2xC2xC2", "D4", "Q2", "C4"]}, "table1", 2,
        [("order 8", "fail", "enumerated 5 classes, expected 6")],
    ),
    "table1 duplicate class": (
        {("table1", "8"): ["C8", "C8", "C2xC2xC2", "D4", "Q2"]}, "table1", 2,
        [("order 8", "fail", "C8 duplicates the class of perm(8; (15372648))")],
    ),
    "table2 wrong order": (
        {("table2", "6", "order"): 24}, "table2", 2,
        [("n=6", "fail", "search found order 12, stated 24")],
    ),
    "table2 wrong groups": (
        {("table2", "8", "groups"): ["C2xH1"]}, "table2", 2,
        [("n=8", "fail", "expected 1 classes, found 2")],
    ),
    "table4 wrong value": (
        {("table4", "6"): 240}, "table4", 2,
        [("n=6", "fail", "stated 240 != 1 * nbound(6) = 120")],
    ),
    "table5 label of the wrong order": (
        {("table5", "4"): ["C4xD3", "D6"]}, "table5", 2,
        [("n=4: D6", "fail", "named(D6) has order 12, stated 24")],
    ),
    "table5 label that hosts too little": (
        {("named", "K2T", "expr"): "C(24)", ("table5", "4"): ["C4xD3", "K2T"]}, "table5", 2,
        [("n=4: K2T", "fail", "named(K2T) does not host ['C(2) x C(2)']")],
    ),
    "example-p6 host that misses a target": (
        {("named", "GP6_3", "expr"): "named(W3)"}, "example-p6", 2,
        [("GP6_3 hosts all of order 27", "fail",
          "missing ['perm(27; (1 2 3)(4 5 6)(7 8 9)(10 11 12)(13 14 15)(16 17 18)(19 20 21)"
          "(22 23 24)(25 26 27), (1 4 7)(2 5 8)(3 6 9)(10 13 16)(11 14 17)(12 15 18)"
          "(19 22 25)(20 23 26)(21 24 27), (1 10 19)(2 11 20)(3 12 21)(4 13 22)(5 14 23)"
          "(6 15 24)(7 16 25)(8 17 26)(9 18 27))']")],
    ),
    "example-p6 with W3 and GP6_3 swapped": (
        {("named", "W3", "expr"): "cp(gens(C(27), x), named(B3), x^9=z1) x C(3)",
         ("named", "GP6_3", "expr"): "cp(gens(C(27), x), named(B3), x^9=z1)"}, "example-p6", 2,
        [("GP6_3 hosts all of order 27", "fail",
          "missing ['perm(27; (1 2 3)(4 5 6)(7 8 9)(10 11 12)(13 14 15)(16 17 18)(19 20 21)"
          "(22 23 24)(25 26 27), (1 4 7)(2 5 8)(3 6 9)(10 13 16)(11 14 17)(12 15 18)"
          "(19 22 25)(20 23 26)(21 24 27), (1 10 19)(2 11 20)(3 12 21)(4 13 22)(5 14 23)"
          "(6 15 24)(7 16 25)(8 17 26)(9 18 27))']"),
         ("W3 misses exactly the rank-3 elementary abelian group", "fail",
          "missing set was []")],
    ),
    "table2 at tier 1": (
        {}, "table2", 1,
        [("n=12", "skip", "candidate order 72 is outside tier 1; raise MGE_TIER")],
    ),
    "thm-order144 at tier 1": (
        {}, "thm-order144", 1,
        [("minimal order", "skip", "candidate order 72 is outside tier 1; raise MGE_TIER")],
    ),
    "lemma-order96 at tier 1": (
        {}, "lemma-order96", 1,
        [("order 96 sweep", "skip", "needs tier 2 enumeration of order 96 (active tier 1)")],
    ),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_FAILURES))
def test_scenario_reports_each_failed_or_skipped_check(case, registry_copy, monkeypatch):
    changes, sid, tier, expected = SCENARIO_FAILURES[case]
    for (*path, key), value in changes.items():
        row = registry_copy
        for k in path:
            row = row[k]
        row[key] = value
    monkeypatch.setenv("MGE_TIER", str(tier))
    items = reproduce(sid).items
    got = [(it.item_id, it.status, it.detail) for it in items if it.status != "pass"]
    assert got == expected
    assert all(it.witness is None for it in items if it.status != "pass")


def test_absence_item_fails_on_a_host_of_every_target():
    # thm-order32 finds that H2 hosts every group of order 8
    entry = enumerate_groups(32).find_isomorphic(construct(registry.named_group("H2")))
    item = verify._absence_item(entry, 8, False, "", "hosts all groups of order 8")
    assert (item.item_id, item.status, item.detail, item.witness) == (
        entry.recipe_text, "fail", "hosts all groups of order 8", None,
    )


def test_minimal_host_items_fail_on_a_wrong_order_or_wrong_labels():
    items = verify._minimal_host_items(8, 64, 16, ["C2xH1", "H2"])
    assert [(it.item_id, it.status, it.detail) for it in items] == [
        ("minimal order", "fail", "search found order 32, stated 16"),
    ]
    items = verify._minimal_host_items(8, 64, 32, ["C2xH1"])
    assert [(it.item_id, it.status) for it in items] == [
        ("minimal order", "pass"), ("passing classes", "fail"),
    ]
    assert items[1].detail == "expected 1 classes, found 2"
