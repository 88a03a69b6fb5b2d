"""Regenerate the bundled order catalogs under src/mge/data/catalogs/.

Run from the repository root.  The bundled files are hidden while the tool
runs, so every order is derived again from its divisors; only a catalog
already in MGE_CACHE_DIR is read instead of recomputed (point it at an empty
directory for a cold run).  A cold run takes a few minutes, most of it on
order 243.  Output is deterministic for a fixed engine version, so on an
unchanged engine the files come out byte-identical.  Each file is read back
through the checked load (``Catalog.from_json``), and the tool stops with an
error when that load fails or its ``dumps()`` differs from the bytes written.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mge import enumerator  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "mge" / "data" / "catalogs"


def main() -> int:
    orders = sorted(set(range(1, 65)) | enumerator.TIER_EXTRA[3])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as empty:
        enumerator._BUNDLED_DIR = Path(empty)  # derived afresh, not read from these files
        for n in orders:
            t0 = time.time()
            cat = enumerator._catalog(n)
            path = OUT_DIR / f"order{n}.json"
            text = cat.dumps()
            path.write_text(text, encoding="utf-8")
            try:
                again = enumerator.Catalog.from_json(json.loads(path.read_text(encoding="utf-8")))
            except ValueError as exc:
                print(f"error: {path.name} does not load back: {exc}", file=sys.stderr)
                return 1
            if again.dumps() != text:
                print(f"error: {path.name} loads back to other bytes", file=sys.stderr)
                return 1
            print(f"order {n}: {len(cat)} classes -> {path.name} [{time.time() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
