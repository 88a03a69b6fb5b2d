"""Regenerate the bundled order catalogs under src/mge/data/catalogs/.

Run from the repository root.  Honors MGE_CACHE_DIR, so a warm cache makes
this a copy; a cold run recomputes everything (the order-243 catalog takes
tens of minutes).  Output is deterministic for a fixed engine version.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mge import enumerator  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "mge" / "data" / "catalogs"


def main() -> int:
    orders = sorted(set(range(1, 65)) | enumerator.TIER_EXTRA[3])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for n in orders:
        t0 = time.time()
        cat = enumerator._catalog(n)
        path = OUT_DIR / f"order{n}.json"
        path.write_text(cat.dumps(), encoding="utf-8")
        print(f"order {n}: {len(cat)} classes -> {path.name} [{time.time() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
