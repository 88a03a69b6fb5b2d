"""Regenerate the bundled order catalogs under src/mge/data/catalogs/.

Run from the repository root.  The bundled files are hidden while the tool
runs, so every order is derived again from its divisors; only a catalog
already in MGE_CACHE_DIR is read instead of recomputed (point it at an empty
directory for a cold run).  A cold run takes a few minutes, most of it on
order 243.  Output is deterministic for a fixed engine version, so on an
unchanged engine the files come out byte-identical.  Each file is read back
through ``Catalog.from_json`` and every entry's group is built and checked
against its order, table hash and fingerprint, and the tool stops with an
error when that fails or the read-back ``dumps()`` differs from the bytes
written.  Last it writes src/mge/_pins.py, the sha256 of each file's bytes,
which lets ``Catalog.from_json`` load an unchanged bundled file unbuilt.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mge import enumerator  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "mge"
OUT_DIR = SRC / "data" / "catalogs"
PINS_PATH = SRC / "_pins.py"
PINS_HEADER = '''"""sha256 of each bundled catalog's bytes (``Catalog.dumps()``), by order.

Written by tools/gen_catalogs.py.  ``Catalog.from_json`` loads a document
whose canonical bytes match its order's pin without building its groups.
"""

'''


def write_pins(texts: dict[int, str]) -> None:
    rows = "".join(f'    {n}: "{hashlib.sha256(t.encode()).hexdigest()}",\n'
                   for n, t in sorted(texts.items()))
    PINS_PATH.write_text(PINS_HEADER + "PINS = {\n" + rows + "}\n", encoding="utf-8")


def main() -> int:
    orders = sorted(set(range(1, 65)) | enumerator.TIER_EXTRA[3])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    texts = {}
    with tempfile.TemporaryDirectory() as empty:
        enumerator._BUNDLED_DIR = Path(empty)  # derived afresh, not read from these files
        for n in orders:
            t0 = time.time()
            cat = enumerator._catalog(n)
            path = OUT_DIR / f"order{n}.json"
            text = texts[n] = cat.dumps()
            path.write_text(text, encoding="utf-8")
            try:
                again = enumerator.Catalog.from_json(json.loads(path.read_text(encoding="utf-8")))
                again.groups()  # builds and checks every entry, pinned or not
            except ValueError as exc:
                print(f"error: {path.name} does not load back: {exc}", file=sys.stderr)
                return 1
            if again.dumps() != text:
                print(f"error: {path.name} loads back to other bytes", file=sys.stderr)
                return 1
            print(f"order {n}: {len(cat)} classes -> {path.name} [{time.time() - t0:.1f}s]")
    write_pins(texts)
    print(f"{len(texts)} pins -> {PINS_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
