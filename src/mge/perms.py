"""Permutation helpers: cycle-string parsing and formatting.

Permutations are tuples of 0-based images: ``p[i]`` is where point ``i`` goes.
Products compose left to right, so ``(p * q)[i] == q[p[i]]``; this makes the
right regular representation ``g -> (x -> x*g)`` a homomorphism.

Cycle strings use 1-based points.  Compact form ("(12)(34)") treats every
digit as one point and is only unambiguous for degree <= 9; for larger
degrees points must be separated by spaces, as in "(1 10 3)(2 7)".
"""

from __future__ import annotations

import re
from itertools import accumulate, chain

from .errors import ParseError

_CYCLES_RE = re.compile(r"(?:\([^()]*\)\s*)+")
# a body with no space or comma and at least two characters: compact form
_COMPACT_RE = re.compile(r"\(\s*([^()\s,][^() ,]*[^()\s,])\s*\)")
# a body of commas and whitespace only, with at least one comma
_EMPTY_LIST_RE = re.compile(r"\([\s,]*,[\s,]*\)")
_OPEN_AND_COMMA = str.maketrans("(,", "  ")

Perm = tuple[int, ...]


def looks_like_cycles(text: str) -> bool:
    """True when the string is entirely parenthesised cycles, e.g. "(12)(34)"."""
    return _CYCLES_RE.fullmatch(text.strip()) is not None


def _spaced_body(m: re.Match) -> str:
    """A compact body rewritten with one space between its points."""
    body = m.group(1)
    if any(ch.isspace() for ch in body):
        raise ParseError(f"bad cycle body {body!r}")
    return "(" + " ".join(body) + ")"


def parse_cycles(text: str, degree: int | None = None) -> Perm:
    """Parse a cycle string into a permutation tuple.

    With ``degree=None`` the degree is the largest point mentioned.  "()" is
    the identity (degree must then be given, or 0 is used).

    A body that holds a space or a comma is split at runs of commas and
    whitespace; any other body is read one character per point.  Compact
    bodies are first rewritten with spaces, so the whole string is split by
    ``str`` methods into one token list per cycle.  Tokens are read with
    ``int`` and the checks run on all points at once.
    """
    text = text.strip()
    if _CYCLES_RE.fullmatch(text) is None:
        raise ParseError(f"not a cycle string: {text!r}")
    if _EMPTY_LIST_RE.search(text):
        raise ParseError(f"cycle body without points in {text!r}")
    spaced = _COMPACT_RE.sub(_spaced_body, text).translate(_OPEN_AND_COMMA)
    cycles = [c for c in map(str.split, spaced.split(")")) if c]
    tokens = list(chain.from_iterable(cycles))
    try:
        flat = [int(p) - 1 for p in tokens]
    except ValueError:
        raise ParseError(f"bad cycle body in {text!r}") from None
    if flat and min(flat) < 0:
        raise ParseError(f"cycle points are 1-based: {text!r}")
    bounds = list(accumulate(map(len, cycles), initial=0))
    distinct = len(set(flat))
    if distinct != len(flat):
        for s, e in zip(bounds, bounds[1:]):
            if len(set(flat[s:e])) != e - s:
                raise ParseError(f"repeated point inside a cycle: {text!r}")
    maxpt = max(flat, default=-1) + 1
    if degree is None:
        degree = maxpt
    elif maxpt > degree:
        raise ParseError(f"cycle string {text!r} mentions point past degree {degree}")
    if distinct != len(flat):
        touched: set[int] = set()
        for pt in flat:
            if pt in touched:
                raise ParseError(f"point {pt + 1} appears in two cycles: {text!r}")
            touched.add(pt)
    out = list(range(degree))
    for x, y in zip(flat, flat[1:]):  # each point to the one written after it,
        out[x] = y
    for s, e in zip(bounds, bounds[1:]):  # then each cycle's last point to its first
        out[flat[e - 1]] = flat[s]
    return tuple(out)


def format_cycles(p: Perm) -> str:
    """Render a permutation as a cycle string; the identity renders as "()"."""
    n = len(p)
    sep = "" if n <= 9 else " "
    seen = [False] * n
    cycles: list[str] = []
    for start in range(n):
        i = p[start]
        if i == start or seen[start]:
            continue
        cyc = [start + 1]
        while i != start:
            seen[i] = True
            cyc.append(i + 1)
            i = p[i]
        cycles.append(sep.join(map(str, cyc)))
    return "(" + ")(".join(cycles) + ")" if cycles else "()"
