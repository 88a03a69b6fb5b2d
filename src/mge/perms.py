"""Permutation helpers: cycle-string parsing, formatting, composition.

Permutations are tuples of 0-based images: ``p[i]`` is where point ``i`` goes.
Products compose left to right, so ``(p * q)[i] == q[p[i]]``; this makes the
right regular representation ``g -> (x -> x*g)`` a homomorphism.

Cycle strings use 1-based points.  Compact form ("(12)(34)") treats every
digit as one point and is only unambiguous for degree <= 9; for larger
degrees points must be separated by spaces, as in "(1 10 3)(2 7)".
"""

from __future__ import annotations

import re

from .errors import ParseError

_CYCLE_RE = re.compile(r"\(([^()]*)\)")

Perm = tuple[int, ...]


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right product: apply p, then q."""
    return tuple(q[i] for i in p)


def looks_like_cycles(text: str) -> bool:
    """True when the string is entirely parenthesised cycles, e.g. "(12)(34)"."""
    text = text.strip()
    if not text.startswith("("):
        return False
    return _CYCLE_RE.sub("", text).strip() == ""


def parse_cycles(text: str, degree: int | None = None) -> Perm:
    """Parse a cycle string into a permutation tuple.

    With ``degree=None`` the degree is the largest point mentioned.  "()" is
    the identity (degree must then be given, or 0 is used).
    """
    text = text.strip()
    if not looks_like_cycles(text):
        raise ParseError(f"not a cycle string: {text!r}")
    cycles: list[list[int]] = []
    maxpt = 0
    for body in _CYCLE_RE.findall(text):
        body = body.strip()
        if not body:
            continue
        if " " in body or "," in body:
            parts = [p for p in re.split(r"[,\s]+", body) if p]
        else:
            parts = list(body)
        try:
            pts = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"bad cycle body {body!r} in {text!r}") from None
        if any(p < 1 for p in pts):
            raise ParseError(f"cycle points are 1-based: {text!r}")
        if len(set(pts)) != len(pts):
            raise ParseError(f"repeated point inside a cycle: {text!r}")
        cycles.append([p - 1 for p in pts])
        maxpt = max(maxpt, max(pts))
    if degree is None:
        degree = maxpt
    elif maxpt > degree:
        raise ParseError(f"cycle string {text!r} mentions point past degree {degree}")
    out = list(range(degree))
    touched: set[int] = set()
    for cyc in cycles:
        for pt in cyc:
            if pt in touched:
                raise ParseError(f"point {pt + 1} appears in two cycles: {text!r}")
            touched.add(pt)
        for k, pt in enumerate(cyc):
            out[pt] = cyc[(k + 1) % len(cyc)]
    return tuple(out)


def format_cycles(p: Perm) -> str:
    """Render a permutation as a cycle string; the identity renders as "()"."""
    n = len(p)
    seen = [False] * n
    parts: list[str] = []
    compact = n <= 9
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i + 1)
            i = p[i]
        if compact:
            parts.append("(" + "".join(str(x) for x in cyc) + ")")
        else:
            parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"
