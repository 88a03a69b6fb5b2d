"""One benchmark step in a fresh interpreter: `python3 worker.py JOB.json`.

The job file names a mode and its inputs; the worker writes what the
benchmark checks to the job's `result` path.  Modes:

  cli        run `mge.cli.main(argv)` for each argv; result: exit codes
  replay     `verify.replay_witness` on each witness; result: verdicts
  enumerate  `enumerator.enumerate_groups(n)` for each order, with the
             bundled catalogs hidden; result: sha256 of each catalog's
             bytes and the number of `Catalog.from_json` calls

With `trace` set in the job, spans.install() wraps the layer boundaries
before anything runs and the spans are written to that path at exit.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from pathlib import Path


def run_cli(job: dict) -> dict:
    from mge import cli

    return {"exit_codes": [cli.main(list(argv)) for argv in job["argvs"]]}


def run_replay(job: dict) -> dict:
    from mge import verify

    verdicts = []
    for w in job["witnesses"]:
        try:
            verdicts.append(verify.replay_witness(w) is True)
        except Exception:  # a crash is a failed replay; keep checking the rest
            traceback.print_exc()
            verdicts.append(False)
    return {"verdicts": verdicts}


def run_enumerate(job: dict) -> dict:
    from mge import enumerator

    # Without this hook the run would load the bundled files instead of
    # computing, and time a load where it claims an enumeration.
    if not hasattr(enumerator, "_BUNDLED_DIR"):
        raise SystemExit("enumerator._BUNDLED_DIR is gone: cannot hide the bundled catalogs")
    enumerator._BUNDLED_DIR = Path(job["hide_bundled"])
    loads = [0]
    from_json = enumerator.Catalog.from_json

    def counted(doc):
        cat = from_json(doc)
        loads[0] += 1
        return cat

    enumerator.Catalog.from_json = staticmethod(counted)
    digests = {}
    for n in job["orders"]:
        cat = enumerator.enumerate_groups(n)
        digests[str(n)] = hashlib.sha256(cat.dumps().encode()).hexdigest()
    return {"from_json_calls": loads[0], "sha256": digests}


MODES = {"cli": run_cli, "replay": run_replay, "enumerate": run_enumerate}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    recorder = None
    if job.get("trace"):
        import spans

        recorder = spans.install()
    import mge

    src = Path(job["src"]).resolve()
    if src not in Path(mge.__file__).resolve().parents:
        raise SystemExit(f"imported mge from {mge.__file__}, not from {src}")
    result = MODES[job["mode"]](job)
    if recorder is not None:
        recorder.dump(job["trace"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
