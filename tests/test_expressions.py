"""Grammar round-trips and rejection cases for the expression parser."""

import pytest

from mge import construct
from mge.errors import ParseError
from mge.expressions import (
    ActionClause,
    Alternating,
    Cyclic,
    Dicyclic,
    Dihedral,
    DirectProduct,
    Named,
    SemidirectProduct,
    Symmetric,
    parse_expr,
    tokenize_word,
)

ROUND_TRIPS = [
    "C(1)",
    "C(12)",
    "EA(2,3)",
    "D(7)",
    "Q(3)",
    "S(5)",
    "A(4)",
    "C(2) x C(4)",
    "C(2) x C(2) x C(3)",
    "sd(gens(C(7), g1), gens(C(3), t), t.g1=g1^2)",
    "cp(D(4), gens(D(4), c, d), a^2=c^2)",
    "quo(Q(2), a^2)",
    "perm(4; (1 2 3 4), (1 2))",
    "named(S3xS4)",
    "gens(D(3), r, s)",
]


@pytest.mark.parametrize("text", ROUND_TRIPS)
def test_text_round_trip(text):
    expr = parse_expr(text)
    assert expr.text() == text
    assert parse_expr(expr.text()) == expr


def test_whitespace_is_free():
    assert parse_expr("  C( 12 )  ") == Cyclic(12)
    # the operator may hug the preceding atom but not a following name
    assert parse_expr("C(2)x C(3) x(C(5))") == parse_expr("C(2) x C(3) x C(5)")
    with pytest.raises(ParseError):
        parse_expr("C(2) xC(3)")
    # a tab or newline around the operator is whitespace too
    assert parse_expr("C(2)\tx\nC(3)") == parse_expr("C(2) x C(3)")
    assert parse_expr("C(2)\n x\tC(3)") == parse_expr("C(2) x C(3)")
    # x1 and x_ are names, not the operator, so they are trailing input
    for text in ("C(2) x1", "C(2) x_ C(3)"):
        with pytest.raises(ParseError, match="trailing input"):
            parse_expr(text)


ONE_INT_CLASSES = [(Cyclic, "C"), (Dihedral, "D"), (Dicyclic, "Q"), (Symmetric, "S"),
                   (Alternating, "A")]


@pytest.mark.parametrize("cls,head", ONE_INT_CLASSES)
def test_one_int_constructors_keep_their_identity(cls, head):
    node = cls(3)
    assert parse_expr(f"{head}(3)") == node
    assert node.text() == f"{head}(3)"
    assert repr(node) == f"{cls.__name__}(n=3)"
    assert hash(node) == hash(cls(3))
    for other, _ in ONE_INT_CLASSES:
        assert (node == other(3)) == (other is cls)
    assert Cyclic(3) != Dihedral(3)
    with pytest.raises(ValueError, match=rf"^{head}\(n\) needs n >= 1, got 0$"):
        cls(0)


def test_product_flattens():
    expr = parse_expr("(C(2) x C(3)) x C(4)")
    assert isinstance(expr, DirectProduct)
    assert len(expr.factors) == 3
    assert expr == parse_expr("C(2) x C(3) x C(4)")


def test_parens_select_a_subexpression():
    expr = parse_expr("(C(6))")
    assert expr == Cyclic(6)


def test_named_label():
    assert parse_expr("named(H1)") == Named("H1")


def test_semidirect_clause_shapes():
    expr = parse_expr("sd(gens(C(5), g), gens(C(4), t), t.g=g^2)")
    assert isinstance(expr, SemidirectProduct)
    assert expr.clauses == (ActionClause("t", "g", "g^2"),)
    # one-generator actors may omit the actor name
    short = parse_expr("sd(gens(C(5), g), gens(C(4), t), g=g^2)")
    assert short.clauses == (ActionClause(None, "g", "g^2"),)


def test_tokenize_word_factors_and_exponents():
    assert tokenize_word("a^2*b^-1*(12)(34)*1") == [
        ("a", 2),
        ("b", -1),
        ("(12)(34)", 1),
        ("1", 1),
    ]
    assert tokenize_word("  g1 ") == [("g1", 1)]


@pytest.mark.parametrize(
    "bad",
    ["", "a**b", "a^", "a^x", "*a"],
)
def test_tokenize_word_rejects(bad):
    with pytest.raises(ParseError):
        tokenize_word(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "F(3)",                       # unknown constructor
        "C(2) y C(3)",                # not the product keyword
        "C(2) x",                     # dangling operator
        "C(3))",                      # trailing input
        "EA(4,2)",                    # p must be prime
        "EA(2,0)",                    # k must be positive
        "C(0)",
        "C(-)",                       # sign with no digits
        "EA(-,2)",
        "C(\u00b2)",                  # str.isdigit but not a decimal digit
        "sd(C(3), C(2))",             # no action clause
        "sd(C(3), C(2), a=b",         # unclosed
        "cp(D(4), D(4), a^2)",        # identification needs '='
        "cp(D(4), D(4), a^2=a^2, b^2=b^2)",  # exactly one identification
        "quo(C(4))",                  # no word
        "perm(3)",                    # missing generator block
        "gens(C(4), a, a)",           # duplicate names
        "named()",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_expr(bad)


def test_parse_rejects_nesting_deeper_than_recursion_allows():
    deep = "(" * 5000 + "C(2)" + ")" * 5000
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expr(deep)
    # a depth that parses also builds
    text = "C(2)"
    for _ in range(400):
        text = f"gens({text}, g1)"
    assert construct(text).order == 2


@pytest.mark.parametrize("head", [head for _, head in ONE_INT_CLASSES])
@pytest.mark.parametrize("n", [0, -2])
def test_parse_rejects_each_head_below_one(head, n):
    with pytest.raises(ParseError, match=rf"^{head}\(n\) needs n >= 1, got {n}$"):
        parse_expr(f"{head}({n})")
