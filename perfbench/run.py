"""mge benchmark: fresh-process reproduce and replay, cold enumeration.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the engine is imported from `src/` next to this
directory.  Every engine process gets MGE_TIER=2 and its own fresh, empty
MGE_CACHE_DIR, so no user cache and no memo of an earlier process is read.

Workloads.  Each iteration runs a main process, then a second fresh process
that checks the main process's output:

  host-search     main: `mge reproduce thm-order144 --json R` (the paper's
                  unique minimal host of order 144; time goes to loading the
                  bundled catalogs and witness labels).  Check: replay every
                  pass witness of R with `verify.replay_witness`.
  containment     main: `reproduce table4`, `reproduce table5` and `verify`
                  on every bundled certificate.  No catalog above order 15
                  is loaded; time goes to group tables, hashing, named
                  ambients and claim checks.  Check: replay their witnesses.
  enumerate-cold  main: `enumerator.enumerate_groups(n)` for n = 1..63 with
                  the bundled catalogs hidden, so every catalog is derived
                  (isomorphism dedupe) and written to the cache dir.  Check:
                  reload the 63 written catalogs from that cache dir.

The seed shuffles the order of the steps inside each process; no result
depends on that order.  Every report, catalog and replay verdict is checked
against golden.json (recorded from the engine at the commit that added this
benchmark) and each mismatch counts as a failed operation.

End-to-end metrics (--trace 0), medians over the iterations that fit in
--seconds: reproduce_s and replay_s (wall time of the main and the check
process, spawn to exit), peak_rss_mb (peak RSS of the main process) and
setup_s (a fresh interpreter importing mge, mge.verify and mge.cli).

Per-layer metrics (--trace 1): the same untraced iterations, then one more
iteration whose processes install spans.py first.  For each wrapped function
it reports calls, self time (duration minus the time its child spans cover)
and total time (time covered by its spans), summed over both processes, plus
outcome ratios, catalog counters and the tracing overhead (traced minus
untraced wall time).  Times are wall times per thread: spans on the
`verify._pmap` pool threads include waiting for the interpreter lock, and the
span that waits for the pool keeps that wait as self time.

The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUNDLED = SRC / "mge" / "data" / "catalogs"
CERTS = SRC / "mge" / "data" / "certs"
WORK = ROOT / ".perfbench-work"
GOLDEN_PATH = BENCH / "golden.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
COLD_ORDERS = range(1, 64)
SETUP_REPEATS = 4
RELOADS = 3
HARD_LIMIT_S = 160.0  # the whole run must end well inside 180 s

# Per-layer span names, as spans.TARGETS records them.
LAYERS = [
    "expressions.parse_expr",
    "groups.construct",
    "groups.build_perm_group",
    "groups.build_product",
    "groups.labels",
    "groups.table_hash",
    "registry.build",
    "enumerator.enumerate_groups",
    "enumerator.Catalog.from_json",
    "morphisms.Fingerprint.of",
    "morphisms.rich_invariant_key",
    "morphisms.is_isomorphic",
    "morphisms.find_embedding",
    "morphisms.witness_words",
    "verify.verify_claim",
    "verify.generated_subgroup",
    "verify.minimal_embedding_search",
    "verify.contains_all",
    "verify.replay_witness.embedding",
    "verify.replay_witness.containment",
    "verify.replay_witness.table4",
    "verify.replay_witness.minimal-search",
    "cli.main",
]
RATIOS = {
    "verify.verify_claim.pass_ratio": "verify.verify_claim",
    "morphisms.is_isomorphic.found_ratio": "morphisms.is_isomorphic",
    "morphisms.find_embedding.found_ratio": "morphisms.find_embedding",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Proc:
    """One finished engine process."""

    wall: float
    rss_mb: float
    result: dict | None
    cache: Path
    spans: Path | None


class Run:
    """State of one benchmark run: the work dir, the seeded RNG and the
    tally of attempted and failed operations."""

    def __init__(self, work: Path, seed: int, deadline: float, golden: dict):
        self.work = work
        self.golden = golden
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._seq = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def fresh(self, name: str) -> Path:
        self._seq += 1
        d = self.work / f"{self._seq:04d}-{name}"
        d.mkdir(parents=True)
        return d

    def env(self, cache: Path) -> dict:
        env = dict(os.environ)
        env.update(PYTHONPATH=str(SRC), MGE_TIER="2", MGE_CACHE_DIR=str(cache))
        return env

    def timed(self, cmd: list[str], env: dict, log: Path) -> tuple[int, float, float]:
        """Exit code, wall seconds from spawn to exit, and peak RSS in MB."""
        limit = max(1.0, self.deadline - time.perf_counter())
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def spawn(self, job: dict, *, trace: bool, cache: Path | None = None) -> Proc:
        d = self.fresh(job["mode"])
        if cache is None:
            cache = d / "cache"
            cache.mkdir()
        spans = d / "spans.json" if trace else None
        job = {**job, "src": str(SRC), "result": str(d / "result.json"),
               "trace": str(spans) if spans else None}
        (d / "job.json").write_text(json.dumps(job))
        log = d / "log.txt"
        code, wall, rss = self.timed(
            [sys.executable, str(BENCH / "worker.py"), str(d / "job.json")],
            self.env(cache), log)
        result = None
        if self.check(code == 0, f"{job['mode']} process exited {code}: {_tail(log)}"):
            result = json.loads((d / "result.json").read_text())
        return Proc(wall, rss, result, cache, spans)

    def setup_time(self) -> float:
        d = self.fresh("setup")
        code, wall, _ = self.timed([sys.executable, "-c", "import mge, mge.verify, mge.cli"],
                                   self.env(d), d / "log.txt")
        self.check(code == 0, f"import mge exited {code}: {_tail(d / 'log.txt')}")
        return wall

    # -- output checks --

    def check_exit_codes(self, proc: Proc, what: list[str]) -> None:
        codes = proc.result["exit_codes"] if proc.result else [None] * len(what)
        for name, code in zip(what, codes):
            self.check(code == 0, f"{name}: mge exited {code}")

    def check_report(self, key: str, path: Path) -> list[dict]:
        """Golden bytes and item states of one report; its pass witnesses."""
        if not self.check(path.is_file(), f"{key}: no report written"):
            return []
        data = path.read_bytes()
        self.check(sha256(data) == self.golden["reports"].get(key),
                   f"{key}: report bytes differ from the golden copy")
        try:
            items = json.loads(data)["items"]
        except (ValueError, KeyError):
            self.check(False, f"{key}: report is not valid JSON")
            return []
        witnesses = []
        for it in items:
            # a skip is unexpected at tier 2, so it counts as a failure too
            self.check(it.get("status") == "pass", f"{key}: {it.get('id')} is {it.get('status')}")
            if it.get("status") == "pass" and it.get("witness") is not None:
                witnesses.append(it["witness"])
        return witnesses

    def replay(self, witnesses: list[dict], trace: bool) -> Proc:
        witnesses = list(witnesses)
        self.rng.shuffle(witnesses)
        proc = self.spawn({"mode": "replay", "witnesses": witnesses}, trace=trace)
        verdicts = proc.result["verdicts"] if proc.result else []
        self.check(len(verdicts) == len(witnesses),
                   f"replayed {len(verdicts)} of {len(witnesses)} witnesses")
        for w, ok in zip(witnesses, verdicts):
            what = w.get("target", w.get("n"))
            self.check(ok, f"replay of {w.get('kind')} witness {what} failed")
        return proc

    def check_catalog_digests(self, proc: Proc, loads: int) -> None:
        if proc.result is None:
            return
        self.check(proc.result["from_json_calls"] == loads,
                   f"guard: {proc.result['from_json_calls']} Catalog.from_json calls, "
                   f"expected {loads}")
        for n in COLD_ORDERS:
            self.check(proc.result["sha256"].get(str(n)) == self.golden["catalogs"][str(n)],
                       f"order {n}: catalog differs from the golden copy")


# --- workloads: one iteration each, returning (main process, check processes) ---


def host_search(run: Run, trace: bool) -> tuple[Proc, list[Proc]]:
    report = run.fresh("reports") / "thm-order144.json"
    argv = ["reproduce", "thm-order144", "--json", str(report)]
    main = run.spawn({"mode": "cli", "argvs": [argv]}, trace=trace)
    run.check_exit_codes(main, ["thm-order144"])
    witnesses = run.check_report("thm-order144", report)
    return main, [run.replay(witnesses, trace)]


def containment(run: Run, trace: bool) -> tuple[Proc, list[Proc]]:
    out = run.fresh("reports")
    steps = [(s, ["reproduce", s, "--json", str(out / f"{s}.json")]) for s in ("table4", "table5")]
    for cert in sorted(CERTS.glob("*.json")):
        key = f"cert-{cert.stem}"
        steps.append((key, ["verify", str(cert), "--json", str(out / f"{key}.json")]))
    golden_certs = {k for k in run.golden["reports"] if k.startswith("cert-")}
    run.check(golden_certs == {k for k, _ in steps[2:]},
              "the bundled certificates differ from those in the golden copy")
    run.rng.shuffle(steps)
    main = run.spawn({"mode": "cli", "argvs": [argv for _, argv in steps]}, trace=trace)
    run.check_exit_codes(main, [key for key, _ in steps])
    witnesses = []
    for key, _ in sorted(steps):
        witnesses += run.check_report(key, out / f"{key}.json")
    return main, [run.replay(witnesses, trace)]


def enumerate_cold(run: Run, trace: bool) -> tuple[Proc, list[Proc]]:
    hidden = run.fresh("no-bundled")
    orders = list(COLD_ORDERS)
    run.rng.shuffle(orders)
    main = run.spawn({"mode": "enumerate", "orders": orders, "hide_bundled": str(hidden)},
                     trace=trace)
    # guards: nothing loaded, everything derived and written
    run.check_catalog_digests(main, loads=0)
    written = sorted(main.cache.glob("*.json"))
    run.check(len(written) == len(COLD_ORDERS),
              f"guard: cache dir holds {len(written)} catalogs, expected {len(COLD_ORDERS)}")
    for n in COLD_ORDERS:
        path = main.cache / f"order{n}.json"
        data = path.read_bytes() if path.is_file() else b""
        self_ok = data == (BUNDLED / f"order{n}.json").read_bytes()
        run.check(self_ok and sha256(data) == run.golden["catalogs"][str(n)],
                  f"order {n}: written catalog differs from the bundled file")
    # the reload is short, so it runs several times for a steadier median
    checks = []
    for _ in range(1 if trace else RELOADS):
        run.rng.shuffle(orders)
        checks.append(run.spawn({"mode": "enumerate", "orders": orders,
                                 "hide_bundled": str(hidden)}, trace=trace, cache=main.cache))
        run.check_catalog_digests(checks[-1], loads=len(COLD_ORDERS))
    return main, checks


WORKLOADS = {"host-search": host_search, "containment": containment,
             "enumerate-cold": enumerate_cold}


# --- trace aggregation ------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


class LayerStats:
    """Calls, self time, total time and call outcomes of one span name.
    Total time is the time covered by at least one of its spans on each
    thread, so recursive calls are not counted twice."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.outcomes: list = []

    def add(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.total_s += other.total_s
        self.outcomes += other.outcomes


def span_stats(path: Path) -> dict[str, LayerStats]:
    """Per-name stats of one process's span file."""
    doc = json.loads(path.read_text())
    names, spans = doc["names"], doc["spans"]
    children = defaultdict(list)
    by_thread = defaultdict(list)
    for sid, parent, ni, t0, t1, tid, _ in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
        by_thread[names[ni], tid].append((t0, t1))
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for sid, _, ni, t0, t1, _, out in spans:
        st = stats[names[ni]]
        st.calls += 1
        st.self_s += (t1 - t0) - _covered(children.get(sid, []))
        if out is not None:
            st.outcomes.append(out)
    for (name, _), intervals in by_thread.items():
        stats[name].total_s += _covered(intervals)
    return stats


def traced_metrics(run: Run, traced: tuple[Proc, list[Proc]], untraced_wall: float,
                   lines: list[str]) -> dict:
    """Per-layer metrics of one traced iteration, summed over its processes;
    appends the largest self times of each process to lines."""
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    procs = [traced[0], *traced[1]]
    for role, proc in zip(("main", "check"), procs):
        if not run.check(proc.spans.is_file(), f"the traced {role} process wrote no spans"):
            continue
        own = span_stats(proc.spans)
        lines.append(f"traced {role} process {proc.wall:.3f} s; largest self times "
                     f"(total time, calls):")
        for name, st in sorted(own.items(), key=lambda kv: -kv[1].self_s)[:6]:
            lines.append(f"  {name:38s} {st.self_s:8.3f} s {st.self_s / proc.wall:6.1%}"
                         f"  ({st.total_s:.3f} s, {st.calls})")
        for name, st in own.items():
            stats[name].add(st)
    traced_wall = sum(p.wall for p in procs)
    metrics = {}
    for name in LAYERS:
        st = stats[name]
        metrics[f"{name}.calls"] = (st.calls, "count")
        metrics[f"{name}.self_s"] = (st.self_s, "s")
        metrics[f"{name}.total_s"] = (st.total_s, "s")
    for ratio, name in RATIOS.items():
        outs = stats[name].outcomes
        metrics[ratio] = (sum(map(bool, outs)) / len(outs) if outs else 0.0, "ratio")
    loaded = sum(stats["enumerator.Catalog.from_json"].outcomes)
    metrics["enumerator.catalog_groups_loaded"] = (loaded, "count")
    written = sum(len(list(c.glob("*.json"))) for c in {p.cache for p in procs})
    metrics["enumerator.cache_files_written"] = (written, "count")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    lines.append(f"traced iteration {traced_wall:.3f} s, untraced median {untraced_wall:.3f} s")
    return metrics


def _tail(path: Path, n: int = 400) -> str:
    try:
        return path.read_text(errors="replace")[-n:].strip().replace("\n", " | ")
    except OSError:
        return ""


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    for need in (SRC / "mge" / "__init__.py", BUNDLED, CERTS, GOLDEN_PATH, BENCHMARK_PATH):
        if not need.exists():
            print(f"error: {need} is missing; run from a full checkout of the repo",
                  file=sys.stderr)
            return 2
    env_before = environment()

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(work, args.seed, start + HARD_LIMIT_S, json.loads(GOLDEN_PATH.read_text()))
    step = WORKLOADS[args.workload]
    lines = []
    try:
        setup = []
        if not args.trace:
            run.setup_time()  # writes the bytecode caches; not counted
            setup += [run.setup_time() for _ in range(SETUP_REPEATS)]
        iterations = []
        t_loop = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            iterations.append(step(run, False))
            if not args.trace:
                # spread the probes over the run, as the machine's speed drifts
                setup += [run.setup_time() for _ in range(SETUP_REPEATS)]
            now = time.perf_counter()
            # leave room for one more iteration (two if a traced one follows)
            room = (now - t0) * (2.6 if args.trace else 1.3)
            if now - t_loop >= args.seconds or now - start + room > HARD_LIMIT_S:
                break
        lines.append(f"workload {args.workload}  seed {args.seed}  "
                     f"iterations {len(iterations)}")
        mains = [m for m, _ in iterations]
        checks = [c for _, cs in iterations for c in cs]
        lines.append("per process: reproduce_s " + " ".join(f"{p.wall:.3f}" for p in mains)
                     + "  replay_s " + " ".join(f"{p.wall:.3f}" for p in checks))
        reproduce_s = statistics.median(p.wall for p in mains)
        replay_s = statistics.median(p.wall for p in checks)
        if args.trace:
            metrics = traced_metrics(run, step(run, True), reproduce_s + replay_s, lines)
        else:
            metrics = {
                "reproduce_s": (reproduce_s, "s"),
                "replay_s": (replay_s, "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (statistics.median(p.rss_mb for p in mains), "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    declared = json.loads(BENCHMARK_PATH.read_text())["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in declared}
    if declared != {k: u for k, (_, u) in metrics.items()}:
        raise RuntimeError("the metrics computed here differ from those BENCHMARK.json declares")
    failed_share = run.failed / run.attempted if run.attempted else 1.0
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value} {unit}")
    lines.append(f"failed_share {failed_share} share ({run.failed} of {run.attempted})")
    for p in run.problems[:20]:
        print(f"FAILED: {p}", file=sys.stderr)
    env = {**env_before, "loadavg_end": list(os.getloadavg())}
    lines.append("environment " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
