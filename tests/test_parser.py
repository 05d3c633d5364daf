import random
from fractions import Fraction

import pytest

from itlmc import (
    And,
    MalformedStep,
    Atom,
    Bottom,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    ParseError,
    StrongBox,
    WeakBox,
    interval,
    parse_derivation,
    parse_formula,
    parse_interval_set,
    parse_poset_model,
    parse_real_system,
    print_formula,
    print_poset_model,
)

P, Q, R = Atom("p"), Atom("q"), Atom("r")


# -- formulas ---------------------------------------------------------------

def test_precedence_and_associativity():
    assert parse_formula("p -> q -> r") == Implies(P, Implies(Q, R))
    assert parse_formula("p | q & r") == Or(P, And(Q, R))
    assert parse_formula("p & q | r") == Or(And(P, Q), R)
    assert parse_formula("p & q & r") == And(And(P, Q), R)
    assert parse_formula("~p | q") == Or(Not(P), Q)
    assert parse_formula("O <> [] [*] p") == Next(
        Eventually(StrongBox(WeakBox(P)))
    )


def test_iff_expands_and_refuses_chains():
    assert parse_formula("p <-> q") == And(Implies(P, Q), Implies(Q, P))
    with pytest.raises(ParseError, match="non-associative"):
        parse_formula("p <-> q <-> r")
    # explicit parens are fine
    parse_formula("(p <-> q) <-> r")


def test_unicode_aliases():
    a = parse_formula("□(p ∨ ¬q) → ◇⊡p ∧ ○⊥")
    b = parse_formula("[](p | ~q) -> <>[*]p & O false")
    assert a == b


def test_parse_error_spans():
    with pytest.raises(ParseError) as err:
        parse_formula("p -> (q & )")
    assert "at" in str(err.value)
    assert err.value.span.start >= 8


def test_unbalanced_and_trailing():
    for bad in ["(p", "p)", "p q", "", "&", "p ->"]:
        with pytest.raises(ParseError):
            parse_formula(bad)


# Every ParseError the formula parser raises, ASCII and unicode aliases:
# (input, message, span start, span end).
_MALFORMED = [
    ("", "expected an atom, 'false' or '(', found '<end>'", 0, 0),
    ("   ", "expected an atom, 'false' or '(', found '<end>'", 3, 3),
    ("p $ q", "unexpected character '$'", 2, 3),
    ("p < q", "unexpected character '<'", 2, 3),
    ("p - q", "unexpected character '-'", 2, 3),
    ("p [ q", "unexpected character '['", 2, 3),
    ("[*p", "unexpected character '['", 0, 1),
    ("p λ q", "unexpected character 'λ'", 2, 3),
    ("p\tq ∀", "unexpected character '∀'", 4, 5),
    ("p q $", "unexpected character '$'", 4, 5),
    ("(p", "expected ')', found '<end>'", 2, 2),
    ("(p q", "expected ')', found 'q'", 3, 4),
    ("((p -> q)", "expected ')', found '<end>'", 9, 9),
    ("(p & q]", "unexpected character ']'", 6, 7),
    ("(p ¬q)", "expected ')', found '~'", 3, 4),
    ("p <-> (q", "expected ')', found '<end>'", 8, 8),
    ("p)", "unexpected ')' after formula", 1, 2),
    ("p q", "unexpected 'q' after formula", 2, 3),
    ("p -> q )", "unexpected ')' after formula", 7, 8),
    ("false false", "unexpected 'false' after formula", 6, 11),
    ("p ⊥", "unexpected 'false' after formula", 2, 3),
    ("p ¬q", "unexpected '~' after formula", 2, 3),
    ("p O q", "unexpected 'O' after formula", 2, 3),
    ("p <-> q <-> r", "'<->' is non-associative; parenthesize to chain", 8, 11),
    ("p <-> q -> r", "'<->' is non-associative; parenthesize to chain", 8, 10),
    ("p -> q <-> r <-> s", "'<->' is non-associative; parenthesize to chain", 13, 16),
    ("(p ↔ q → r)", "'<->' is non-associative; parenthesize to chain", 7, 8),
    ("p <-> q | r <-> s", "'<->' is non-associative; parenthesize to chain", 12, 15),
    ("&", "expected an atom, 'false' or '(', found '&'", 0, 1),
    ("p ->", "expected an atom, 'false' or '(', found '<end>'", 4, 4),
    ("p -> ∧ q", "expected an atom, 'false' or '(', found '&'", 5, 6),
    (")", "expected an atom, 'false' or '(', found ')'", 0, 1),
    ("O", "expected an atom, 'false' or '(', found '<end>'", 1, 1),
    ("~ ->", "expected an atom, 'false' or '(', found '->'", 2, 4),
    ("(", "expected an atom, 'false' or '(', found '<end>'", 1, 1),
    ("p | | q", "expected an atom, 'false' or '(', found '|'", 4, 5),
    ("[] )", "expected an atom, 'false' or '(', found ')'", 3, 4),
    ("p -> (q & )", "expected an atom, 'false' or '(', found ')'", 10, 11),
    ("O ∨", "expected an atom, 'false' or '(', found '|'", 2, 3),
]


@pytest.mark.parametrize("text, message, start, end", _MALFORMED)
def test_parse_error_messages_and_spans_are_pinned(text, message, start, end):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert (err.value.message, err.value.span.start, err.value.span.end) == (
        message, start, end
    )


def test_deep_formulas_parse():
    # Checked through the printer: == and hash on Formula still recurse.
    assert print_formula(parse_formula("(" * 400 + "p" + ")" * 400)) == "p"
    nexts = "O " * 2000 + "p"
    assert print_formula(parse_formula(nexts)) == nexts
    chain = " -> ".join(f"p{i}" for i in range(1000))
    assert print_formula(parse_formula(chain)) == chain
    nested = "p & (" * 999 + "p & q" + ")" * 999
    assert print_formula(parse_formula(nested)) == nested


def _rand_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Bottom(), P, Q, R])
    kind = rng.randrange(7)
    if kind < 4:
        op = [Next, Eventually, StrongBox, WeakBox][kind]
        return op(_rand_formula(rng, depth - 1))
    op = [And, Or, Implies][kind - 4]
    return op(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))


def test_print_parse_roundtrip_bulk():
    rng = random.Random(7)
    for _ in range(10_000):
        phi = _rand_formula(rng, 5)
        assert parse_formula(print_formula(phi)) == phi


_UNARY_SYMBOLS = ((Next, "O "), (Eventually, "<>"), (StrongBox, "[]"), (WeakBox, "[*]"))
_PINNED_CHILDREN = (
    P, Bottom(), Implies(P, Q), Or(P, Q), And(P, Q),
    Next(P), Eventually(P), StrongBox(P), WeakBox(P),
)
# Every child kind at each position of each binary operator, then under
# each unary operator, in the order `_pinned_formulas` builds them.
_PINNED_TEXT = [
    'p -> r', 'r -> p', 'false -> r', 'r -> false', '(p -> q) -> r', 'r -> p -> q',
    'p | q -> r', 'r -> p | q', 'p & q -> r', 'r -> p & q', 'O p -> r', 'r -> O p',
    '<>p -> r', 'r -> <>p', '[]p -> r', 'r -> []p', '[*]p -> r', 'r -> [*]p',
    'p | r', 'r | p', 'false | r', 'r | false', '(p -> q) | r', 'r | (p -> q)',
    'p | q | r', 'r | (p | q)', 'p & q | r', 'r | p & q', 'O p | r', 'r | O p',
    '<>p | r', 'r | <>p', '[]p | r', 'r | []p', '[*]p | r', 'r | [*]p',
    'p & r', 'r & p', 'false & r', 'r & false', '(p -> q) & r', 'r & (p -> q)',
    '(p | q) & r', 'r & (p | q)', 'p & q & r', 'r & (p & q)', 'O p & r', 'r & O p',
    '<>p & r', 'r & <>p', '[]p & r', 'r & []p', '[*]p & r', 'r & [*]p',
    'O p', 'O false', 'O (p -> q)', 'O (p | q)', 'O (p & q)', 'O O p',
    'O <>p', 'O []p', 'O [*]p', '<>p', '<>false', '<>(p -> q)',
    '<>(p | q)', '<>(p & q)', '<>O p', '<><>p', '<>[]p', '<>[*]p',
    '[]p', '[]false', '[](p -> q)', '[](p | q)', '[](p & q)', '[]O p',
    '[]<>p', '[][]p', '[][*]p', '[*]p', '[*]false', '[*](p -> q)',
    '[*](p | q)', '[*](p & q)', '[*]O p', '[*]<>p', '[*][]p', '[*][*]p',
]


def _pinned_formulas():
    for op in (Implies, Or, And):
        for child in _PINNED_CHILDREN:
            yield op(child, R)
            yield op(R, child)
    for op, _ in _UNARY_SYMBOLS:
        for child in _PINNED_CHILDREN:
            yield op(child)


def test_printer_output_is_pinned():
    formulas = list(_pinned_formulas())
    assert [print_formula(f) for f in formulas] == _PINNED_TEXT
    binary = zip(formulas[:54], _PINNED_TEXT[:54])
    for f, text in binary:
        for op, symbol in _UNARY_SYMBOLS:
            assert print_formula(op(f)) == f"{symbol}({text})"


# -- poset model files ------------------------------------------------------

FIG4 = """
worlds: w v u
order: v<=u
step: w->v  v->v  u->u
val p: u
val q:
"""


def test_parse_poset_model_roundtrip():
    model, valuation = parse_poset_model(FIG4)
    assert model.worlds == ("w", "v", "u")
    assert model.leq("v", "u") and not model.leq("u", "v")
    assert valuation == {"p": frozenset({"u"}), "q": frozenset()}
    again, val2 = parse_poset_model(print_poset_model(model, valuation))
    assert again.worlds == model.worlds
    assert again.order_pairs == model.order_pairs
    assert again.step == model.step
    assert val2 == valuation


def test_poset_model_errors():
    with pytest.raises(ParseError, match="at least one world"):
        parse_poset_model("order:\nstep:\n")
    with pytest.raises(MalformedStep):
        parse_poset_model("worlds: a\nstep: a->b\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_poset_model("worlds: a\nworlds: a\nstep: a->a\n")
    with pytest.raises(MalformedStep):
        parse_poset_model("worlds: a b\norder: a<=b\n")  # no step section
    with pytest.raises(ParseError, match="unknown world"):
        parse_poset_model("worlds: a\nstep: a->a\nval p: b\n")


def test_poset_model_comments_ignored():
    model, _ = parse_poset_model(
        "# header\nworlds: a  # trailing\nstep: a->a\n"
    )
    assert model.worlds == ("a",)


# -- interval sets ----------------------------------------------------------

def test_parse_interval_set_forms():
    assert parse_interval_set("(0, 1)") == interval(0, 1)
    assert parse_interval_set("[1/2, 3/2]") == interval(
        Fraction(1, 2), Fraction(3, 2), True, True
    )
    assert parse_interval_set("(-inf, 0) u (1, inf)") == interval(None, 0).union(
        interval(1, None)
    )
    assert parse_interval_set("{}").is_empty()
    assert parse_interval_set("").is_empty()
    assert parse_interval_set("[2, 2]") == parse_interval_set("[2,2]")


def test_parse_interval_set_errors():
    with pytest.raises(ParseError):
        parse_interval_set("[-inf, 0)")  # infinity cannot be closed
    with pytest.raises(ParseError):
        parse_interval_set("(1, 0)")  # empty interval literal
    with pytest.raises(ParseError):
        parse_interval_set("(0 1)")


# -- real system files ------------------------------------------------------

def test_parse_real_system_piecewise():
    system = parse_real_system(
        "map: piecewise x <= 0 : 0 ; x > 0 : 2*x\n"
        "val p: (-inf, 1)\n"
        "caps: iter=32 restart=4\n"
    )
    assert system.map.apply(Fraction(-3)) == 0
    assert system.map.apply(Fraction(2)) == 4
    assert system.caps.iter == 32 and system.caps.restart == 4
    assert system.caps.orbit == 128  # unset fields keep defaults


def test_caps_are_ascii_digits_zero_allowed():
    system = parse_real_system("map: x\ncaps: iter=0 window=12\n")
    assert system.caps.iter == 0 and system.caps.window == 12
    for bad in ("iter=-1", "iter=+3", "iter=\u00b2", "iter=3.0", "iter=", "iters=3", "iter"):
        with pytest.raises(ParseError):
            parse_real_system(f"map: x\ncaps: {bad}\n")


def test_parse_real_system_affine_forms():
    for text, x, want in [
        ("x + 1", 2, 3),
        ("3 - x", 1, 2),
        ("1/2*x", 4, 2),
        ("x/2", 5, Fraction(5, 2)),
        ("-x", 3, -3),
        ("0", 9, 0),
    ]:
        system = parse_real_system(f"map: {text}\n")
        assert system.map.apply(Fraction(x)) == Fraction(want)


def test_parse_real_system_must_tile_the_line():
    with pytest.raises(ParseError):
        parse_real_system("map: piecewise x <= 0 : 0 ; x > 1 : x\n")
    with pytest.raises(ParseError):
        parse_real_system("map: piecewise x < 0 : 0 ; x > 0 : x\n")  # 0 uncovered
    with pytest.raises(ParseError):
        parse_real_system("map: piecewise x <= 0 : 0 ; x >= 0 : x\n")  # 0 twice


def test_parse_real_system_rejects_discontinuous_pieces():
    with pytest.raises(ValueError):
        parse_real_system("map: piecewise x <= 0 : 0 ; x > 0 : x + 5\n")


# -- derivation files -------------------------------------------------------

GOOD = """
1. p -> p | q        ; ipc-taut
2. O(p -> p | q)     ; nec-next 1
"""


def test_parse_derivation():
    deriv = parse_derivation(GOOD)
    assert len(deriv.lines) == 2
    assert deriv.theorem == Next(Implies(P, Or(P, Q)))
    just = deriv.lines[1].justification
    assert just.rule == "nec-next" and just.premises == (1,)


def test_derivation_numbering_must_be_consecutive():
    with pytest.raises(ParseError, match="expected line number 2"):
        parse_derivation("1. p -> p ; ipc-taut\n3. p -> p ; ipc-taut\n")


def test_derivation_premises_must_precede():
    with pytest.raises(ParseError, match="does not precede"):
        parse_derivation("1. p ; mp 1 2\n")
    with pytest.raises(ParseError, match="does not precede"):
        parse_derivation("1. p -> p ; ipc-taut\n2. p ; mp 2 1\n")


def test_derivation_missing_separator():
    with pytest.raises(ParseError, match=";"):
        parse_derivation("1. p -> p ipc-taut\n")


def test_derivation_substitution_parse():
    deriv = parse_derivation("1. []p -> O []p ; axiom ix {phi:=p}\n")
    just = deriv.lines[0].justification
    assert just.schema == "ix"
    assert just.subst == {"phi": P}
    bare = parse_derivation("1. O false -> false ; axiom ii\n")
    assert bare.lines[0].justification.subst is None
