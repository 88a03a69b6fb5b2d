"""Group expression AST and the text grammar for it.

The grammar, with ``x`` as the infix direct-product operator: an ``x`` that
no name character follows (``C(2)x C(3)`` is a product, ``C(2) x1`` is not).

    expr  := atom (" x " atom)*
    atom  := C(n) | EA(p,k) | D(n) | Q(n) | S(n) | A(n)
           | sd(expr, expr, clause, ...)      semidirect product, acted-on base first
           | cp(expr, expr, word=word)        central product with one identification
           | quo(expr, word, ...)             quotient by the normal closure-checked subgroup
           | perm(degree; cycles, ...)        permutation group on 1-based points
           | named(LABEL)                     registry lookup
           | gens(expr, name, ...)            same group, generators renamed
           | (expr)

    clause := actorgen.basegen=word | basegen=word   (the second form is only
              allowed when the acting group has exactly one generator)

A clause ``t.g=w`` pins the action of the acting generator ``t`` on the base
generator ``g`` by conjugation: ``t^-1 * g * t`` equals the base word ``w``.

Words are ``*``-separated factors; each factor is a bound generator name, a
cycle string such as ``(12)(34)``, or the literal ``1`` for the identity, any
of which may carry an integer exponent like ``a^-2``.

The one-integer constructors C, D, Q, S and A share the node class
``_OneInt``, and the parser's head table is built from them.  Every
``, item`` tail is read by ``_Scanner.read_tail``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .numtheory import FACTOR_LIMIT, is_prime


class GroupExpr:
    """Base class for expression nodes."""

    def text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class _OneInt(GroupExpr):
    """A constructor of one integer ``n >= 1``, written ``head(n)``.  Each
    subclass only names its head; equality still tells the classes apart."""

    n: int
    head = ""

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"{self.head}(n) needs n >= 1, got {self.n}")

    def text(self) -> str:
        return f"{self.head}({self.n})"


class Cyclic(_OneInt):
    head = "C"


class Dihedral(_OneInt):
    head = "D"


class Dicyclic(_OneInt):
    head = "Q"


class Symmetric(_OneInt):
    head = "S"


class Alternating(_OneInt):
    head = "A"


@dataclass(frozen=True)
class ElemAbelian(GroupExpr):
    p: int
    k: int

    def __post_init__(self) -> None:
        if self.p > FACTOR_LIMIT:  # past it, the primality test is refused
            raise ValueError(f"EA(p,k) needs p <= {FACTOR_LIMIT}, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"EA(p,k) needs prime p, got {self.p}")
        if self.k < 1:
            raise ValueError(f"EA(p,k) needs k >= 1, got {self.k}")

    def text(self) -> str:
        return f"EA({self.p},{self.k})"


@dataclass(frozen=True)
class DirectProduct(GroupExpr):
    factors: tuple[GroupExpr, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise ValueError("direct product needs at least two factors")

    def text(self) -> str:
        return " x ".join(
            f"({f.text()})" if isinstance(f, DirectProduct) else f.text()
            for f in self.factors
        )


@dataclass(frozen=True)
class ActionClause:
    actor_gen: str | None  # None: infer, legal only for a 1-generator actor
    base_gen: str
    word: str

    def text(self) -> str:
        lhs = self.base_gen if self.actor_gen is None else f"{self.actor_gen}.{self.base_gen}"
        return f"{lhs}={self.word}"


@dataclass(frozen=True)
class SemidirectProduct(GroupExpr):
    base: GroupExpr
    actor: GroupExpr
    clauses: tuple[ActionClause, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("sd() needs at least one action clause")

    def text(self) -> str:
        parts = [self.base.text(), self.actor.text()]
        parts += [c.text() for c in self.clauses]
        return "sd(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class CentralProduct(GroupExpr):
    left: GroupExpr
    right: GroupExpr
    left_word: str
    right_word: str

    def text(self) -> str:
        return f"cp({self.left.text()}, {self.right.text()}, {self.left_word}={self.right_word})"


@dataclass(frozen=True)
class Quotient(GroupExpr):
    inner: GroupExpr
    words: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("quo() needs at least one word")

    def text(self) -> str:
        return "quo(" + ", ".join([self.inner.text(), *self.words]) + ")"


@dataclass(frozen=True)
class PermGroupExpr(GroupExpr):
    degree: int
    gens: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("perm() needs degree >= 1")
        if not self.gens:
            raise ValueError("perm() needs at least one generator")

    def text(self) -> str:
        return f"perm({self.degree}; " + ", ".join(self.gens) + ")"


@dataclass(frozen=True)
class Named(GroupExpr):
    label: str

    def text(self) -> str:
        return f"named({self.label})"


@dataclass(frozen=True)
class Renamed(GroupExpr):
    inner: GroupExpr
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("gens() needs at least one name")
        if len(set(self.names)) != len(self.names):
            raise ValueError("gens() names must be distinct")

    def text(self) -> str:
        return "gens(" + ", ".join([self.inner.text(), *self.names]) + ")"


# --- word tokenizing ------------------------------------------------------

_NAME_CHAR = "[A-Za-z0-9_]"
_NAME_RE = re.compile(f"{_NAME_CHAR}+")
_INT_RE = re.compile(r"-?\d+")  # \d is str.isdecimal: int() reads every such digit


def tokenize_word(word: str) -> list[tuple[str, int]]:
    """Split a word into (factor, exponent) pairs.

    A factor is a generator name, a cycle string, or "1".  Exponents may be
    negative.  No evaluation happens here; name resolution needs a group.
    """
    word = word.strip()
    if not word:
        raise ParseError("empty word")
    out: list[tuple[str, int]] = []
    for chunk in word.split("*"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty factor in word {word!r}")
        exp = 1
        if "^" in chunk:
            base, _, etext = chunk.rpartition("^")
            base = base.strip()
            etext = etext.strip()
            try:
                exp = int(etext)
            except ValueError:
                raise ParseError(f"bad exponent {etext!r} in word {word!r}") from None
        else:
            base = chunk
        if not base:
            raise ParseError(f"missing factor before '^' in word {word!r}")
        out.append((base, exp))
    return out


# --- expression parsing ---------------------------------------------------

_ONE_INT_HEADS = {cls.head: cls for cls in (Cyclic, Dihedral, Dicyclic, Symmetric, Alternating)}
_ATOM_HEADS = {*_ONE_INT_HEADS, "EA", "sd", "cp", "quo", "perm", "named", "gens"}

# the product operator: an ``x`` that does not start a longer name
_PRODUCT_OP_RE = re.compile(rf"\s*x(?!{_NAME_CHAR})")


# text a raw segment passes over at depth 0: no stopper, groups without nesting
_FLAT_RUN_RE = re.compile(r"(?:[^(),;]+|\([^()]*\))*")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        got = self.peek()
        if got != ch:
            got = got or "end of input"
            raise ParseError(f"expected {ch!r} at position {self.pos}, got {got!r}")
        self.pos += 1

    def read_name(self) -> str:
        self.skip_ws()
        name = _NAME_RE.match(self.text, self.pos)
        if name is None:
            raise ParseError(f"expected a name at position {self.pos} in {self.text!r}")
        self.pos = name.end()
        return name.group()

    def read_int(self) -> int:
        self.skip_ws()
        number = _INT_RE.match(self.text, self.pos)
        if number is None:
            raise ParseError(f"expected an integer at position {self.pos}")
        self.pos = number.end()
        return int(number.group())

    def read_tail(self, read) -> list:
        """The items of a ``, item, item ...`` tail, each read by ``read()``."""
        items = []
        while self.peek() == ",":
            self.expect(",")
            items.append(read())
        return items

    def read_raw_segment(self) -> str:
        """Capture raw text (a word or clause) up to a comma, semicolon or
        closing parenthesis outside any parentheses.  A run of plain text and
        flat groups is skipped in one regex match; nested groups are walked
        one character at a time."""
        self.skip_ws()
        start = pos = self.pos
        text = self.text
        depth = 0
        while pos < len(text):
            if depth == 0:
                pos = _FLAT_RUN_RE.match(text, pos).end()
                if pos == len(text):
                    break
            ch = text[pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0:  # "," or ";"
                break
            pos += 1
        self.pos = pos
        seg = text[start:pos].strip()
        if not seg:
            raise ParseError(f"expected a word at position {start} in {self.text!r}")
        return seg


def parse_expr(text: str) -> GroupExpr:
    """Parse the expression grammar; raises ParseError on any malformed input,
    and on input nested deeper than the interpreter's recursion allows."""
    sc = _Scanner(text)
    try:
        expr = _parse_product(sc)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError(f"trailing input at position {sc.pos}: {text[sc.pos:]!r}")
    return expr


def _parse_product(sc: _Scanner) -> GroupExpr:
    factors = [_parse_atom(sc)]
    while op := _PRODUCT_OP_RE.match(sc.text, sc.pos):
        sc.pos = op.end()
        factors.append(_parse_atom(sc))
    if len(factors) == 1:
        return factors[0]
    flat: list[GroupExpr] = []
    for f in factors:
        if isinstance(f, DirectProduct):
            flat.extend(f.factors)
        else:
            flat.append(f)
    return DirectProduct(tuple(flat))


def _wrap(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_atom(sc: _Scanner) -> GroupExpr:
    if sc.peek() == "(":
        sc.expect("(")
        inner = _parse_product(sc)
        sc.expect(")")
        return inner
    head = sc.read_name()
    if head not in _ATOM_HEADS:
        raise ParseError(f"unknown constructor {head!r}")
    sc.expect("(")
    node: GroupExpr
    if head in _ONE_INT_HEADS:
        node = _wrap(_ONE_INT_HEADS[head], sc.read_int())
    elif head == "EA":
        p = sc.read_int()
        sc.expect(",")
        k = sc.read_int()
        node = _wrap(ElemAbelian, p, k)
    elif head == "sd":
        base = _parse_product(sc)
        sc.expect(",")
        actor = _parse_product(sc)
        clauses = sc.read_tail(lambda: _parse_clause(sc.read_raw_segment()))
        node = _wrap(SemidirectProduct, base, actor, tuple(clauses))
    elif head == "cp":
        left = _parse_product(sc)
        sc.expect(",")
        right = _parse_product(sc)
        sc.expect(",")
        seg = sc.read_raw_segment()
        if "=" not in seg:
            raise ParseError(f"cp() identification needs '=': {seg!r}")
        lw, _, rw = seg.partition("=")
        if not lw.strip() or not rw.strip():
            raise ParseError(f"cp() identification needs words on both sides: {seg!r}")
        node = CentralProduct(left, right, lw.strip(), rw.strip())
    elif head == "quo":
        inner = _parse_product(sc)
        words = sc.read_tail(sc.read_raw_segment)
        node = _wrap(Quotient, inner, tuple(words))
    elif head == "perm":
        degree = sc.read_int()
        sc.expect(";")
        gens = [sc.read_raw_segment(), *sc.read_tail(sc.read_raw_segment)]
        node = _wrap(PermGroupExpr, degree, tuple(gens))
    elif head == "named":
        node = Named(sc.read_name())
    else:  # gens
        inner = _parse_product(sc)
        names = sc.read_tail(sc.read_name)
        node = _wrap(Renamed, inner, tuple(names))
    sc.expect(")")
    return node


def _parse_clause(segment: str) -> ActionClause:
    if "=" not in segment:
        raise ParseError(f"action clause needs '=': {segment!r}")
    lhs, _, word = segment.partition("=")
    lhs = lhs.strip()
    word = word.strip()
    if not lhs or not word:
        raise ParseError(f"malformed action clause: {segment!r}")
    if "." in lhs:
        actor_gen, _, base_gen = lhs.partition(".")
        actor_gen = actor_gen.strip()
        base_gen = base_gen.strip()
        if not actor_gen or not base_gen or "." in base_gen:
            raise ParseError(f"malformed clause target: {lhs!r}")
        return ActionClause(actor_gen, base_gen, word)
    return ActionClause(None, lhs, word)
