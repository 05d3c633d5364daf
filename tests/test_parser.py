import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import itlmc
from itlmc import (
    And,
    MalformedStep,
    Atom,
    Bottom,
    Eventually,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    ParseError,
    SourceSpan,
    StrongBox,
    WeakBox,
    interval,
    parse_derivation,
    parse_edges,
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


def test_any_unicode_whitespace_separates_while_names_stay_ascii():
    assert parse_formula("p\u3000&\u0085q") == And(P, Q)
    model, _ = parse_poset_model("worlds:\u3000a b\norder: a<=b\nstep: a->a b->b\n")
    assert model.worlds == ("a", "b")
    for text in ("p\u00e9", "\uff50", "p\u0663"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_formula(text)


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
    # Checked through the printer, which keeps its own stack too.
    assert print_formula(parse_formula("(" * 400 + "p" + ")" * 400)) == "p"
    nexts = "O " * 2000 + "p"
    assert print_formula(parse_formula(nexts)) == nexts
    chain = " -> ".join(f"p{i}" for i in range(1000))
    assert print_formula(parse_formula(chain)) == chain
    nested = "p & (" * 999 + "p & q" + ")" * 999
    assert print_formula(parse_formula(nested)) == nested


def test_printing_holds_memory_in_proportion_to_the_text():
    # Holding each node's text held about n**2 / 2 characters: over 100 MB here.
    text = "O " * 10_000 + "p"
    phi = parse_formula(text)
    tracemalloc.start()
    try:
        printed = print_formula(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert printed == text
    assert peak < 2_000_000


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


# -- the reader against a reference -----------------------------------------

# The formula reader as it was when every token carried its span: the
# tokenizer resolves aliases as it scans and stops at the first bad
# character, and the parser is the same operator-stack algorithm.  Its
# tables are copies, so a slip in the reader's own tables shows here.
_REF_BINARY = {
    "->": (Implies, 0, 1, 0),
    "<->": (Iff, 0, 1, 1),
    "|": (Or, 1, 1, 2),
    "&": (And, 2, 2, 3),
}
_REF_PREFIX = {"~": Not, "O": Next, "<>": Eventually, "[]": StrongBox, "[*]": WeakBox}
_REF_ALIASES = {
    "○": "O", "◇": "<>", "□": "[]", "⊡": "[*]", "¬": "~",
    "→": "->", "↔": "<->", "∧": "&", "∨": "|", "⊥": "false",
}
_REF_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_REF_SYMBOLS = sorted([*_REF_BINARY, *_REF_PREFIX, "(", ")"], key=len, reverse=True)
_REF_TOKEN_RE = re.compile(
    r"({}|{}|[{}])|(\S)".format(
        _REF_NAME_RE.pattern,
        "|".join(map(re.escape, _REF_SYMBOLS)),
        re.escape("".join(_REF_ALIASES)),
    )
)
_REF_OPEN = (None, -1, 0)


def _reference_tokens(text):
    tokens = []
    for m in _REF_TOKEN_RE.finditer(text):
        token, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", SourceSpan(*m.span()))
        tokens.append((_REF_ALIASES.get(token, token), *m.span()))
    tokens.append(("<end>", len(text), len(text)))
    return tokens


def _reference_parse_formula(text):
    operands = []
    pending = []
    after_operand = False
    for kind, start, end in _reference_tokens(text):
        if not after_operand:
            if kind in _REF_PREFIX:
                pending.append((_REF_PREFIX[kind], 3, 3))
            elif kind == "(":
                pending.append(_REF_OPEN)
            elif kind == "false" or _REF_NAME_RE.fullmatch(kind):
                operands.append(Bottom() if kind == "false" else Atom(kind))
                after_operand = True
            else:
                raise ParseError(
                    f"expected an atom, 'false' or '(', found {kind!r}", SourceSpan(start, end)
                )
            continue
        build, level, left, right = _REF_BINARY.get(kind, (None, 0, 0, 0))
        while pending and pending[-1][1] >= left:
            fn, fn_level, _ = pending.pop()
            arg = operands.pop()
            operands.append(fn(arg) if fn_level == 3 else fn(operands.pop(), arg))
        if build is not None:
            if pending and pending[-1][2] > level:
                raise ParseError(
                    "'<->' is non-associative; parenthesize to chain", SourceSpan(start, end)
                )
            pending.append((build, level, right))
            after_operand = False
        elif pending:
            if kind != ")":
                raise ParseError(f"expected ')', found {kind!r}", SourceSpan(start, end))
            pending.pop()
        elif kind != "<end>":
            raise ParseError(f"unexpected {kind!r} after formula", SourceSpan(start, end))
    return operands[0]


def _outcome(parse, text):
    """The node parse(text) returns, or the message and span it raises."""
    try:
        return parse(text)
    except ParseError as err:
        return err.message, err.span


def _assert_same_outcome(text):
    got, want = _outcome(parse_formula, text), _outcome(_reference_parse_formula, text)
    assert got is want if isinstance(want, Formula) else got == want, text
    return want


# Pieces of fuzzed text: every ASCII operator and alias, the words the
# scanner must keep whole, bad characters, and runs that unbalance
# parentheses or chain '<->'.
_FUZZ_PIECES = (
    ["->", "<->", "|", "&", "~", "O", "<>", "[]", "[*]", "(", ")"]
    + list(_REF_ALIASES)
    + ["false", "O", "Op", "p'", "p", "q", "r_1"]
    + ["$", "é", "<", "*", "-", "#"]
    + ["((", "))", "(p", "q)", "p <-> q <->", "<-> r"]
)
_FUZZ_GAPS = ["", " ", " ", "  ", "\t"]
_TO_ALIAS = [("false", "⊥"), ("->", "→"), ("|", "∨"), ("&", "∧"), ("O ", "○"),
             ("<>", "◇"), ("[*]", "⊡"), ("[]", "□")]


def _fuzz_text(rng):
    if rng.random() < 0.4:
        return "".join(
            rng.choice(_FUZZ_GAPS) + rng.choice(_FUZZ_PIECES) for _ in range(rng.randrange(1, 10))
        )
    text = print_formula(_rand_formula(rng, 4))
    for ascii_token, alias in _TO_ALIAS:
        if rng.random() < 0.3:
            text = text.replace(ascii_token, alias)
    if rng.random() < 0.3:
        text = text.replace(" ", rng.choice(_FUZZ_GAPS))
    if rng.random() < 0.4:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_FUZZ_PIECES + [""]) + text[at + rng.randrange(2):]
    return text


def test_reader_matches_the_reference_on_fuzzed_text():
    rng = random.Random(20_000)
    kinds = ["unexpected character", "expected an atom", "expected ')'", "after formula",
             "non-associative"]
    parsed, raised = 0, set()
    for _ in range(20_000):
        outcome = _assert_same_outcome(_fuzz_text(rng))
        if isinstance(outcome, Formula):
            parsed += 1
        else:
            raised.add(next(kind for kind in kinds if kind in outcome[0]))
    # Both branches are exercised, and every kind of error is raised.
    assert 5_000 < parsed < 15_000
    assert raised == set(kinds)


_CORPUS = Path(itlmc.__file__).parent / "corpus"


def test_reader_matches_the_reference_on_the_bundled_files(monkeypatch):
    seen = []
    read = itlmc.parser.parse_formula

    def recording(text, base=0):
        seen.append(text)
        return read(text, base)

    monkeypatch.setattr(itlmc.parser, "parse_formula", recording)
    for path in sorted(_CORPUS.glob("deriv/*.drv")):
        parse_derivation(path.read_text())
    for path in sorted(_CORPUS.glob("edge/*.edg")):
        parse_edges(path.read_text())
    monkeypatch.undo()
    # every line formula and every substitution of every bundled file
    assert len(seen) > 200
    for text in seen:
        assert isinstance(_assert_same_outcome(text), Formula), text


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


def test_caps_line_reads_the_component_cap():
    system = parse_real_system("map: x\ncaps: components=0 iter=5\n")
    assert (system.caps.components, system.caps.iter, system.caps.window) == (0, 5, 8)
    assert parse_real_system("map: x\n").caps.components == 64


def test_caps_lines_accumulate():
    system = parse_real_system("map: 2*x\ncaps: iter=3\ncaps: restart=2\n")
    assert (system.caps.iter, system.caps.restart, system.caps.orbit) == (3, 2, 128)


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


# -- pinned file-format errors ----------------------------------------------

# (input, message, span start, span end) for every ParseError a poset model,
# real system or derivation file can raise; spans are offsets into the file.
_MALFORMED_POSET_MODELS = [
    ('worlds a\n', "expected 'section: entries'", 0, 8),
    ('  worlds: a\n  bogus: x  \n', "unknown section 'bogus'", 14, 22),
    ('worlds: a\nworlds: b\n', 'duplicate worlds section', 10, 19),
    ('worlds: a 1b\n', "bad world name '1b'", 0, 12),
    ('worlds: a\norder: a<b\n', "expected 'a<=b', found 'a<b'", 10, 20),
    ('worlds: a b\norder: <=b\n', "expected 'a<=b', found '<=b'", 12, 22),
    ('worlds: a b\norder: a<=\n', "expected 'a<=b', found 'a<='", 12, 22),
    ('worlds: a\nstep: a->\n', "expected 'a->b', found 'a->'", 10, 19),
    ('worlds: a\nstep: a\n', "expected 'a->b', found 'a'", 10, 17),
    ('worlds: a\nstep: a->a a->a\n', "duplicate step for world 'a'", 10, 25),
    ('worlds: a\nstep: a->a\nval 1p: a\n', "bad atom name '1p'", 21, 30),
    ('worlds: a\nstep: a->a\nval: a\n', "bad atom name ''", 21, 27),
    ('worlds: a\nstep: a->a\nval p: a\nval p: a\n', "duplicate valuation for atom 'p'", 30, 38),
    ('worlds: a\nstep: a->a\nval p q: a\n', "bad atom name 'p q'", 21, 31),
    ('order:\nstep:\n', 'at least one world required', 0, 13),
    ('# only a comment\n', 'at least one world required', 0, 17),
    ('worlds:\n', 'at least one world required', 0, 8),
    ('worlds: a\nstep: a->a\nval p: b\n', "valuation of 'p' mentions unknown world 'b'", 0, 30),
    ('worlds: a # c: d\n  foo # bar: baz\n', "expected 'section: entries'", 19, 22),
    ('worlds: a\r\nfoo\r\n', "expected 'section: entries'", 11, 14),
    ('\tworlds: a\n\tstep a->a\t\n', "expected 'section: entries'", 12, 21),
    ('worlds: a\nstep: a->a\nvalues: a\n', "unknown section 'values'", 21, 30),
]
_MALFORMED_REAL_SYSTEMS = [
    ('map x\n', "expected 'section: entries'", 0, 5),
    ('map: x\nmap: x\n', 'duplicate map section', 7, 13),
    ('val p: (0, 1)\n', 'a map section is required', 0, 14),
    ('# nothing\n', 'a map section is required', 0, 10),
    ('map: x\nfoo: 1\n', "unknown section 'foo'", 7, 13),
    ('map: x\nvalid: (0, 1)\n', "unknown section 'valid'", 7, 20),
    ('map: x\nval 2: (0, 1)\n', "bad atom name '2'", 7, 20),
    ('map: x\nval p: (0, 1)\nval p: (0, 1)\n', "duplicate valuation for atom 'p'", 21, 34),
    ('map: x\ncaps: iter\n', "expected 'name=value', found 'iter'", 7, 17),
    ('map: x\ncaps: foo=1\n', "unknown cap 'foo'", 7, 18),
    ('map: x\ncaps: iter=x\n', "cap 'iter' needs a non-negative integer (digits only, 0 allowed), found 'x'", 7, 19),
    ('map: x\ncaps: iter=-1\n', "cap 'iter' needs a non-negative integer (digits only, 0 allowed), found '-1'", 7, 20),
    ('map: x\nval p: (0 1)\n', "expected an interval like '(a, b)'", 13, 19),
    ('map: x\nval p:   (0 1)   \n', "expected an interval like '(a, b)'", 13, 21),
    ('map: x\nval p: [-inf, 0)\n', "'-inf' endpoint cannot be closed", 14, 23),
    ('map: x\nval p: (0, inf]\n', "'inf' endpoint cannot be closed", 14, 22),
    ('map: x\nval p: (1, 0)\n', 'interval is empty', 14, 20),
    ('map: x\nval p: [1, 1)\n', 'interval is empty', 14, 20),
    ('map: x\nval p: (0, 1) v (2, 3)\n', "expected 'u' between intervals", 20, 29),
    ('map: x\nval p: (0, 1) u\n', "expected an interval like '(a, b)'", 22, 22),
    ('map: x\nval p: (0, 1) u (2 3)\n', "expected an interval like '(a, b)'", 22, 28),
    ('map: x\nval p: (0, 1) u (3, 2)  # comment\n', 'interval is empty', 23, 29),
    ('map: x\nval p: 0, 1\n', "expected an interval like '(a, b)'", 13, 18),
    ('map: x\nval p: (0,1)(1,2)\n', "expected 'u' between intervals", 19, 24),
    ('map: x $\n', "unexpected character '$' in expression", 7, 8),
    ('map: 2 3\n', "unexpected '3' in expression", 7, 8),
    ('map:\n', 'expected a term', 4, 5),
    ('map:    \n', 'expected a term', 4, 5),
    ('map: x +\n', 'expected a term', 8, 9),
    ('map: *x\n', 'expected a number', 5, 6),
    ('map: 2*3\n', "expected 'x' after '*'", 5, 6),
    ('map: 2 * \n', "expected 'x' after '*'", 5, 6),
    ('map: x/\n', 'expected a number', 7, 8),
    ('map: x/x\n', 'expected a number', 7, 8),
    ('map: - - x\n', 'expected a number', 7, 8),
    ('map: 1.x\n', "unexpected character '.' in expression", 6, 7),
    ('map: .5\n', "unexpected character '.' in expression", 5, 6),
    ('map: 2 / 3\n', "unexpected '/' in expression", 7, 8),
    ('map: x 12/5\n', "unexpected '12/5' in expression", 7, 8),
    ('map: x x\n', "unexpected 'x' in expression", 7, 8),
    ('map: 2x\n', "unexpected 'x' in expression", 6, 7),
    ('map: x2\n', "unexpected '2' in expression", 6, 7),
    ('map: 1/23.5\n', "unexpected character '.' in expression", 9, 10),
    ('map: 3 + -x\n', 'expected a number', 9, 10),
    ('map: x * 2\n', "unexpected '*' in expression", 7, 8),
    ('map: 2*x/\n', 'expected a number', 9, 10),
    ('map: 2*x/+\n', 'expected a number', 9, 10),
    ('map: y\n', "unexpected character 'y' in expression", 5, 6),
    ('map: +\n', 'expected a term', 6, 7),
    ('map: x -\n', 'expected a term', 8, 9),
    ('map: x + 1 +\n', 'expected a term', 12, 13),
    ('map: piecewise x : 0\n', "expected a guard like 'x<=0' or '0<x<=1'", 14, 17),
    ('map: piecewise x<=0 0 ; x>0 : x\n', "expected 'guard : expression'", 14, 22),
    ('map: piecewise\n', "expected 'guard : expression'", 14, 14),
    ('map: piecewise 1<x<0 : 0 ; x>0 : x\n', 'guard describes an empty set', 14, 21),
    ('map: piecewise 1<=x<=0 : 0\n', 'guard describes an empty set', 14, 23),
    ('map: piecewise x>0 : x\n', 'first piece must extend to -inf', 0, 22),
    ('map: piecewise x<=0 : 0\n', 'last piece must extend to inf', 0, 23),
    ('map: piecewise x<=0 : 0 ; x>1 : x\n', 'pieces must tile the whole line', 0, 33),
    ('map: piecewise x<0 : 0 ; x>0 : x\n', 'boundary 0 must belong to exactly one piece', 0, 32),
    ('map: piecewise x<=0 : 0 ; x>=0 : x\n', 'boundary 0 must belong to exactly one piece', 0, 34),
    ('map: piecewise x<=0 : 0 ; 0<x<=1 : x ; x>1 : $\n', "unexpected character '$' in expression", 45, 46),
    ('map: piecewise x<=0 : 0 ; 0<x<=1 : x ; x>1 : 2 *\n', "expected 'x' after '*'", 45, 46),
    ('map: piecewise x<=0 : 0 ; 0<x>1 : x\n', "expected a guard like 'x<=0' or '0<x<=1'", 25, 32),
    ('map: piecewise x=<0 : 0 ; x>0 : x\n', "expected a guard like 'x<=0' or '0<x<=1'", 14, 20),
    ('map: piecewise x<=0 : 0 ; x>0 : x ;\n', "expected 'guard : expression'", 35, 35),
    ('map: piecewise x<=0 : 0 ;; x>0 : x\n', "expected 'guard : expression'", 25, 25),
    ('map:piecewise x<=0:0;x>0:x;x>1:x\n', 'pieces must tile the whole line', 0, 32),
    ('   map :  piecewise  x <= 0 : 0  ;  x > 0 : 2 * x  $\n', "unexpected character '$' in expression", 51, 52),
    # numbers are ASCII digits: an Arabic-Indic one is a decimal digit to \d
    ('map: \u0663*x\n', "unexpected character '\u0663' in expression", 5, 6),
    ('map: x\nval p: (\u0663, 4)\n', "expected an interval like '(a, b)'", 13, 20),
]
_MALFORMED_DERIVATIONS = [
    ('p ; ipc-taut\n', "expected '<n>. <formula> ; <justification>'", 0, 12),
    ('2. p ; ipc-taut\n', 'expected line number 1', 0, 15),
    ('1. p -> p ; ipc-taut\n1. p ; ipc-taut\n', 'expected line number 2', 21, 36),
    ('1. p ipc-taut\n', "missing ';' before justification", 0, 13),
    ('1. p -> #q ; ipc-taut\n', "missing ';' before justification", 0, 7),
    ('1. p & ; ipc-taut\n', "expected an atom, 'false' or '(', found '<end>'", 7, 7),
    ('   1.   p -> (q ; ipc-taut\n', "expected ')', found '<end>'", 16, 16),
    ('1. p ;\n', 'missing justification', 6, 6),
    ('1. p ;   \n', 'missing justification', 6, 6),
    ('1. p ; axiom\n', 'axiom justification needs a schema name', 7, 12),
    ('1. p ; axiom   \n', 'axiom justification needs a schema name', 7, 12),
    ('1. p ; axiom ix {phi}\n', "expected 'name := formula', found 'phi'", 7, 21),
    ('1. p ; axiom ix {1x:=p}\n', "bad metavariable '1x'", 7, 23),
    ('1. p ; axiom ix {phi:=p, phi:=q}\n', "metavariable 'phi' bound twice", 7, 32),
    ('1. p ; axiom ix {phi:=p,}\n', "expected 'name := formula', found ''", 7, 25),
    ('1. p ; axiom {phi:=p}\n', "bad schema name ''", 7, 21),
    ('1. p ; axiom a b\n', "bad schema name 'a b'", 7, 16),
    ('1. p ; axiom a b {phi:=p}\n', "bad schema name 'a b'", 7, 25),
    ('1. p ; mp x\n', "premise reference must be a line number, found 'x'", 7, 11),
    ('1. p ; mp 1\n', 'line 1 references line 1, which does not precede it', 7, 11),
    ('1. p ; mp 0\n', 'line 1 references line 0, which does not precede it', 7, 11),
    ('1. p -> p ; ipc-taut\n2. p ; mp 1 3\n', 'line 2 references line 3, which does not precede it', 28, 34),
    ('', 'derivation has no lines', 0, 0),
    ('# only\n   \n', 'derivation has no lines', 0, 11),
    ('1 p ; ipc-taut\n', "expected '<n>. <formula> ; <justification>'", 0, 14),
    ('1. p ; ipc-taut ; more\n', "premise reference must be a line number, found ';'", 7, 22),
    ('1.p;mp 1\n', 'line 1 references line 1, which does not precede it', 4, 8),
    ('1. p ; axiom ix {phi:=p} x\n', "bad schema name 'ix {phi:=p} x'", 7, 26),
    # numbers are ASCII digits: an Arabic-Indic one is a decimal digit to \d
    ('\u0661. p -> p ; ipc-taut\n', "expected '<n>. <formula> ; <justification>'", 0, 20),
    ('1. p -> p ; ipc-taut\n2. p ; mp \u0661\n',
     "premise reference must be a line number, found '\u0661'", 28, 32),
]

_MALFORMED_FILES = (
    [(parse_poset_model, *case) for case in _MALFORMED_POSET_MODELS]
    + [(parse_real_system, *case) for case in _MALFORMED_REAL_SYSTEMS]
    + [(parse_derivation, *case) for case in _MALFORMED_DERIVATIONS]
)


def _error_of(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value.message, err.value.span.start, err.value.span.end


@pytest.mark.parametrize("parse, text, message, start, end", _MALFORMED_FILES)
def test_file_error_messages_and_spans_are_pinned(parse, text, message, start, end):
    assert _error_of(parse, text) == (message, start, end)


def test_substitution_errors_point_into_the_substitution():
    for text, message, start, end in [
        ("1. p ; axiom ix {phi:=&}\n", "expected an atom, 'false' or '(', found '&'", 22, 23),
        ("1. p ; axiom ix {phi:=p, psi:=&}\n", "expected an atom, 'false' or '(', found '&'", 30, 31),
        ("1. p ; axiom a&b {phi:=&}\n", "expected an atom, 'false' or '(', found '&'", 23, 24),
        ("1. p ;   axiom   ix  {  phi :=  ( }\n", "expected an atom, 'false' or '(', found '<end>'", 33, 33),
        ("1. p ; axiom ix { phi := p ,psi:= q r}\n", "unexpected 'r' after formula", 36, 37),
    ]:
        assert _error_of(parse_derivation, text) == (message, start, end), text


def test_rational_literals():
    system = parse_real_system("map: 1.5/2*x + 0.25\nval p: (-3/2, 1.5/3)\n")
    assert system.map.pieces == ((Fraction(3, 4), Fraction(1, 4)),)
    assert system.valuation["p"] == interval(Fraction(-3, 2), Fraction(1, 2))
    assert parse_real_system("map: x/1/2\n").map.pieces == ((2, 0),)


def test_premise_references_are_decimal_numbers():
    assert _error_of(parse_derivation, "1. p ; mp \u00b2\n") == (
        "premise reference must be a line number, found '\u00b2'", 7, 11
    )


def test_hash_starts_a_comment_and_is_no_name_character():
    assert _error_of(parse_formula, "p -> #q") == ("unexpected character '#'", 5, 6)
    model, _ = parse_poset_model("worlds: a#b\nstep: a->a # c\n")
    assert model.worlds == ("a",)
    assert parse_real_system("map: x # + 1\n").map.pieces == ((1, 0),)
    deriv = parse_derivation("1. p -> p ; ipc-taut #1\n2. p ; mp 1#2\n")
    assert deriv.lines[1].justification.premises == (1,)
    assert _error_of(parse_derivation, "1. p -> #q ; ipc-taut\n") == (
        "missing ';' before justification", 0, 7
    )


# -- edge files --------------------------------------------------------------

_EDGE = (
    "from=A; to=B; style=solid; label=l; formula=O p -> p; witness=w;"
    " point=x; derivation=d; logic=L.db; inclusion="
)


def test_parse_edges():
    text = f"# header\n\n  {_EDGE}a:d1, b:d2 # trailing comment\n{_EDGE}\n"
    first, second = parse_edges(text)
    assert (first.source, first.target, first.style, first.label) == ("A", "B", "solid", "l")
    assert first.formula == Implies(Next(P), P)
    assert (first.witness, first.point, first.derivation, first.logic) == ("w", "x", "d", "L.db")
    assert first.inclusion == (("a", "d1"), ("b", "d2"))
    assert second.inclusion == ()


# (input, message, span start, span end): spans are offsets into the file.
_MALFORMED_EDGES = [
    ("from=A; to=B\n", "edge line is missing fields: style, label, formula,"
     " witness, point, derivation, logic, inclusion", 0, 12),
    ("# c\n  " + _EDGE.replace(" point=x;", "") + "  # c\n",
     "edge line is missing fields: point", 6, 107),
    (_EDGE.replace("formula=O p -> p", "formula =  O p -> &"), "expected an atom,"
     " 'false' or '(', found '&'", 54, 55),
    (_EDGE + "\n" + _EDGE.replace("O p -> p", "p q"),
     "unexpected 'q' after formula", 157, 158),
    (_EDGE.replace("formula=O p -> p;", "formula;"), "expected an atom, 'false'"
     " or '(', found '<end>'", 43, 43),
]


@pytest.mark.parametrize("text, message, start, end", _MALFORMED_EDGES)
def test_edge_error_messages_and_spans_are_pinned(text, message, start, end):
    assert _error_of(parse_edges, text) == (message, start, end)
