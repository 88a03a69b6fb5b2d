"""End-to-end runs of the command-line front end via main(), plus one
subprocess check of the installed entry point."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mge.cli import main
from mge.verify import Certificate, Claim


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_dense(capsys):
    code, out, _ = run(capsys, "construct", "D(4) x C(3)")
    assert code == 0
    assert "order 24" in out
    assert "abelian False" in out


def test_construct_twisted(capsys):
    code, out, _ = run(capsys, "construct", "named(BIG12_SOL)")
    assert code == 0
    assert "order 665280" in out
    assert "twist rank" in out


def test_construct_parse_error(capsys):
    code, _, err = run(capsys, "construct", "F(3)")
    assert code == 2
    assert "error" in err.lower() or err


def test_construct_nested_too_deeply_is_a_usage_error(capsys):
    code, _, err = run(capsys, "construct", "(" * 5000 + "C(2)" + ")" * 5000)
    assert code == 2
    assert "nested too deeply" in err


def test_iso_exit_codes(capsys):
    code, out, _ = run(capsys, "iso", "C(6)", "C(2) x C(3)")
    assert code == 0 and "isomorphic" in out
    code, out, _ = run(capsys, "iso", "D(4)", "Q(2)")
    assert code == 1 and "not isomorphic" in out


def test_embed_exit_codes(capsys):
    code, out, _ = run(capsys, "embed", "C(4)", "D(4)")
    assert code == 0 and "embeds via" in out
    code, out, _ = run(capsys, "embed", "Q(2)", "S(4)")
    assert code == 1 and out.strip() == "no embedding"


def test_iso_and_embed_refuse_a_group_over_the_table_limit(capsys):
    # S(5) x S(5) has order 14400, so it is built without a dense table
    for argv in (["iso", "S(5) x S(5)", "C(2)"], ["iso", "C(2)", "S(5) x S(5)"],
                 ["embed", "S(5) x S(5)", "C(2)"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "table limit" in err, argv


def test_embed_refuses_a_support_on_a_dense_host(capsys):
    code, out, err = run(capsys, "embed", "C(3)", "S(4)", "--support", "nonsense")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "support" in err


def test_embed_twisted_is_inconclusive(capsys):
    code, out, _ = run(
        capsys, "embed", "C(4)", "named(C5xC7xC9xD3xH1)", "--support", "C(5)"
    )
    assert code == 1
    assert "inconclusive" in out


def test_enumerate_and_out_file(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "8")
    assert code == 0
    assert out.startswith("5 groups of order 8")

    path = tmp_path / "cat.json"
    code, out, _ = run(capsys, "enumerate", "8", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["order"] == 8 and len(doc["entries"]) == 5


def test_enumerate_tier_error(capsys, monkeypatch):
    monkeypatch.setenv("MGE_TIER", "2")
    code, _, err = run(capsys, "enumerate", "81")
    assert code == 2
    assert "tier" in err.lower()


def test_no_subcommand_takes_a_tier_flag(capsys):
    # MGE_TIER is the one way to set the tier
    for argv in (["reproduce", "table2", "--tier", "1"], ["enumerate", "8", "--tier", "1"],
                 ["minimal", "--order", "4", "--max", "16", "--tier", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "unrecognized arguments: --tier 1" in err, argv


def test_minimal_search(capsys, tmp_path):
    path = tmp_path / "outcome.json"
    code, out, _ = run(capsys, "minimal", "--order", "4", "--max", "16",
                       "--json", str(path))
    assert code == 0
    assert "minimal order 8" in out
    doc = json.loads(path.read_text())
    assert doc["found_order"] == 8 and len(doc["groups"]) == 2


def test_minimal_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "minimal", "--max", "16")
    assert code == 2
    code, _, err = run(capsys, "minimal", "--order", "4", "--upto", "4", "--max", "16")
    assert code == 2


def test_minimal_negative_result(capsys):
    code, out, _ = run(capsys, "minimal", "--order", "8", "--max", "16")
    assert code == 1
    assert out.startswith("exhausted(16)")


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--pbound", "2", "3")
    assert code == 0 and out.strip() == "32"
    code, out, _ = run(capsys, "bounds", "--nbound", "12")
    assert code == 0 and out.strip() == "332640"
    code, out, _ = run(capsys, "bounds", "--collection", "8")
    assert code == 0 and out.strip() == "32"
    code, _, _ = run(capsys, "bounds")
    assert code == 2


@pytest.mark.parametrize("argv", [("--nbound", "100000"), ("--pbound", "2", "100000")])
def test_bounds_refuses_a_bound_too_long_to_print(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "more than 4000 digits" in err


@pytest.mark.parametrize("argv", [("--pbound", "1000000000000000003", "1"),
                                  ("--collection", "100000000000031")])
def test_bounds_refuses_an_argument_too_large_to_factor(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "the most `mge bounds` factors" in err


def test_verify_certificate_file(capsys, tmp_path):
    cert = Certificate("S(4)", "ambient for spot checks",
                       [Claim("C(4)", ("(1234)",))])
    path = tmp_path / "cert.json"
    path.write_text(cert.dumps())
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", str(path), "--json", str(report_path))
    assert code == 0
    assert "[PASS]" in out
    doc = json.loads(report_path.read_text())
    assert doc["passed"] is True

    bad = Certificate("S(4)", "", [Claim("C(8)", ("(1234)",))])
    path.write_text(bad.dumps())
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "[FAIL]" in out


@pytest.mark.parametrize("target", ["C(", "C(2) x C(5000)"], ids=["parse error", "twisted"])
def test_verify_fails_alone_a_claim_whose_target_does_not_build(capsys, tmp_path, target):
    cert = Certificate("S(4)", "", [Claim(target, ("(12)",)), Claim("C(4)", ("(1234)",))])
    path = tmp_path / "cert.json"
    path.write_text(cert.dumps())
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith(f"[FAIL] claim 1: {target}  (")
    assert lines[1] == "[PASS] claim 2: C(4)  (order 4, source paper)"


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2


@pytest.mark.parametrize("doc", [
    {},
    {"ambient": "S(4)", "claims": [{"target": "C(4)"}]},
    [{"ambient": "S(4)", "claims": []}],
    {"ambient": "S(4)", "claims": [{"target": "C(4)", "generators": "a^2"}]},
], ids=["empty object", "claim without generators", "top-level list",
        "generators as one string"])
def test_verify_malformed_certificate_is_a_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: ") and out == ""


def test_reproduce_scenario(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "reproduce", "table1", "--json", str(path))
    assert code == 0
    assert "table1: PASS" in out
    doc = json.loads(path.read_text())
    assert doc["scenario"] == "table1" and doc["passed"] is True


def test_reproduce_rejects_unknown(capsys):
    # argparse choices guard the scenario name; usage errors come back as 2
    code, _, err = run(capsys, "reproduce", "nope")
    assert code == 2
    assert "invalid choice" in err


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("mge ")


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from mge.cli import main; sys.exit(main(['bounds', '--nbound', '15']))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4324320"


def test_demos_run(tmp_path):
    # the demos call the public API the way a reader would; an empty cache
    # directory keeps them from reading catalogs an earlier run left behind
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "MGE_CACHE_DIR": str(tmp_path)}
    demos = sorted((root / "demos").glob("*.py"))
    assert len(demos) == 3
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], cwd=root, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"


def test_trace_hooks_install_in_a_fresh_interpreter():
    # perfbench/spans.py wraps engine functions, methods and cached
    # properties by name and raises when one is gone or has changed kind.
    # It runs in a subprocess: installed here, it would wrap the engine for
    # every later test.
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install()"],
        cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


_COUNT_WRAPPED = """
import sys, spans
spans.install()
wrapped = 0
for mod, path, _, _ in spans.TARGETS:
    owner, *member = path.split(".")
    if member:
        raw = vars(getattr(sys.modules["mge." + mod], owner))[member[0]]
        fn = (getattr(raw, "__func__", None) or getattr(raw, "func", None)
              or getattr(raw, "fget", None) or raw)  # staticmethod, cached_property, property
    else:
        fn = getattr(sys.modules["mge." + mod], owner)
    wrapped += fn.__code__.co_name == "wrapper"
print(wrapped, len(spans.TARGETS))
"""


def test_trace_hooks_bind_every_target():
    # a renamed engine function breaks the traced benchmark iteration, so
    # each of the layer boundaries perfbench names must end up wrapped
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_WRAPPED],
        cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["21", "21"]


_TIMED_CALL = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # a runaway allocation fails fast
from mge.cli import main
from mge.verify import replay_witness
start = time.perf_counter()
result = {call}
print(result, time.perf_counter() - start)
"""


def _timed_call(call: str, timeout: float) -> tuple[str, float]:
    """The result of ``call`` and the seconds it took, run in a fresh
    interpreter with 1 GB of address space; a run still going after
    ``timeout`` seconds fails the test rather than holding up the suite."""
    root = Path(__file__).resolve().parents[1]
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _TIMED_CALL.replace("{call}", call)],
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src"),
                           "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{call} still ran after {timeout} s")
    assert proc.returncode == 0, proc.stderr
    result, seconds = proc.stdout.split()
    return result, float(seconds)


_BIG_PRIME = 2**61 - 1


@pytest.mark.parametrize("call, expected", [
    (f"replay_witness({{'kind': 'minimal-search', 'search_kind': 'order', 'n': {_BIG_PRIME}, "
     f"'max_order': {_BIG_PRIME}, 'order': 1, 'groups': []}})", "False"),
    (f"main(['minimal', '--order', '{_BIG_PRIME}', '--max', '{_BIG_PRIME}'])", "2"),
    (f"main(['construct', 'EA({_BIG_PRIME}, 1)'])", "2"),
], ids=["replay-minimal-search", "cli-minimal", "cli-construct-EA"])
def test_a_number_too_large_to_factor_is_refused_at_once(call, expected):
    result, seconds = _timed_call(call, timeout=5)
    assert result == expected
    assert seconds < 1.0


_HUGE = ["EA(2,1000000000)", "perm(200000000; (1 2))"]


@pytest.mark.parametrize("text", _HUGE)
def test_a_huge_group_is_refused_before_it_is_allocated(text):
    result, seconds = _timed_call(f"main(['construct', {text!r}])", timeout=2)
    assert result == "2"
    assert seconds < 0.1


@pytest.mark.parametrize("text", _HUGE)
def test_an_embedding_witness_in_a_huge_ambient_reads_false(text):
    witness = {"kind": "embedding", "ambient": text, "target": "C(2)",
               "source": "derived", "generators": ["(1 2)"]}
    result, _ = _timed_call(f"replay_witness({witness!r})", timeout=2)
    assert result == "False"
