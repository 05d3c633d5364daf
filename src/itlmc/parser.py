"""Concrete syntax: formulas, poset models, real systems, derivations.

The formula grammar (ASCII first, unicode aliases accepted on input only):

    impl  := disj ('->' impl)?  |  disj '<->' disj
    disj  := conj ('|' conj)*
    conj  := unary ('&' unary)*
    unary := ('~' | 'O' | '<>' | '[]' | '[*]') unary | atom
    atom  := 'false' | identifier | '(' impl ')'

'<->' is non-associative; implication is right-associative; '&' and '|'
are left-associative.  `print_formula` emits minimal parentheses and
round-trips through `parse_formula`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .formula import (
    And,
    Atom,
    Bottom,
    Eventually,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    StrongBox,
    WeakBox,
    fold,
)
from .hilbert import AxiomJust, Derivation, DerivationLine, IpcTaut, RuleJust
from .poset import DynamicPoset, Valuation
from .realline import (
    EvalCaps,
    Interval,
    IntervalSet,
    PiecewiseAffineMap,
    RealSystem,
    make_interval,
)


@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets [start, end) into the parsed text."""

    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


# --------------------------------------------------------------------------
# formula tokenizer

_ALIASES = {
    "○": "O",      # next
    "◇": "<>",     # eventually
    "□": "[]",     # henceforth
    "⊡": "[*]",    # weak henceforth
    "¬": "~",
    "→": "->",
    "↔": "<->",
    "∧": "&",
    "∨": "|",
    "⊥": "false",
}

_IDENT_RE = re.compile(r"[A-Za-z_#][A-Za-z0-9_'#]*")

_TOKEN_RE = re.compile(
    r"(<->|->|\[\*\]|\[\]|<>|[~&|()]|[A-Za-z_#][A-Za-z0-9_'#]*)"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    span: SourceSpan


def _tokenize_formula(text: str) -> list[_Token]:
    # Unicode aliases are rewritten to their ASCII token before matching;
    # alias characters are all one code point so spans keep their offsets.
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        alias = _ALIASES.get(ch)
        if alias is not None:
            tokens.append(_Token(alias, SourceSpan(i, i + 1)))
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", SourceSpan(i, i + 1))
        tokens.append(_Token(m.group(0), SourceSpan(i, m.end())))
        i = m.end()
    tokens.append(_Token("<end>", SourceSpan(n, n)))
    return tokens


_UNARY_TOKENS = {"~", "O", "<>", "[]", "[*]"}


class _FormulaParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize_formula(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.span)
        return self.advance()

    def parse(self) -> Formula:
        phi = self.impl()
        tok = self.peek()
        if tok.kind != "<end>":
            raise ParseError(f"unexpected {tok.kind!r} after formula", tok.span)
        return phi

    def impl(self) -> Formula:
        left = self.disj()
        tok = self.peek()
        if tok.kind == "->":
            self.advance()
            return Implies(left, self.impl())
        if tok.kind == "<->":
            self.advance()
            right = self.disj()
            nxt = self.peek()
            if nxt.kind in ("->", "<->"):
                raise ParseError(
                    "'<->' is non-associative; parenthesize to chain", nxt.span
                )
            return Iff(left, right)
        return left

    def disj(self) -> Formula:
        phi = self.conj()
        while self.peek().kind == "|":
            self.advance()
            phi = Or(phi, self.conj())
        return phi

    def conj(self) -> Formula:
        phi = self.unary()
        while self.peek().kind == "&":
            self.advance()
            phi = And(phi, self.unary())
        return phi

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind in _UNARY_TOKENS:
            self.advance()
            child = self.unary()
            if tok.kind == "~":
                return Not(child)
            if tok.kind == "O":
                return Next(child)
            if tok.kind == "<>":
                return Eventually(child)
            if tok.kind == "[]":
                return StrongBox(child)
            return WeakBox(child)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            phi = self.impl()
            self.expect(")")
            return phi
        if tok.kind == "false":
            self.advance()
            return Bottom()
        if _IDENT_RE.fullmatch(tok.kind):
            self.advance()
            return Atom(tok.kind)
        raise ParseError(
            f"expected an atom, 'false' or '(', found {tok.kind!r}", tok.span
        )


def parse_formula(text: str) -> Formula:
    return _FormulaParser(text).parse()


# --------------------------------------------------------------------------
# formula printer

# Precedence levels: Implies 0, Or 1, And 2, unary 3, atoms 4.  A child is
# parenthesized when its level is below the minimum its position requires.
# Binary nodes: (level, symbol, left minimum, right minimum).

_INFIX = {Implies: (0, " -> ", 1, 0), Or: (1, " | ", 1, 2), And: (2, " & ", 2, 3)}
_PREFIX = {Next: "O ", Eventually: "<>", StrongBox: "[]", WeakBox: "[*]"}


def _at_least(part: tuple[int, str], minimum: int) -> str:
    level, text = part
    return text if level >= minimum else "(" + text + ")"


def _render(phi: Formula, args: tuple) -> tuple[int, str]:
    """Level and text of phi, given those of its children."""
    op = type(phi)
    if op in _INFIX:
        level, symbol, left, right = _INFIX[op]
        return level, _at_least(args[0], left) + symbol + _at_least(args[1], right)
    if op in _PREFIX:
        return 3, _PREFIX[op] + _at_least(args[0], 3)
    return 4, phi.name if op is Atom else "false"


def print_formula(phi: Formula) -> str:
    return fold(phi, _render)[1]


# --------------------------------------------------------------------------
# shared line scanning for the three file formats

def _logical_lines(text: str) -> list[tuple[int, str]]:
    """Comment-stripped non-blank lines as (byte offset of line start, body)."""
    out = []
    offset = 0
    for raw in text.split("\n"):
        body = raw.split("#", 1)[0]
        if body.strip():
            out.append((offset, body))
        offset += len(raw) + 1
    return out


def _line_span(offset: int, body: str) -> SourceSpan:
    lead = len(body) - len(body.lstrip())
    return SourceSpan(offset + lead, offset + len(body.rstrip()))


def _shift(err: ParseError, base: int) -> ParseError:
    return ParseError(
        err.message, SourceSpan(err.span.start + base, err.span.end + base)
    )


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


# --------------------------------------------------------------------------
# poset model files

def parse_poset_model(text: str) -> tuple[DynamicPoset, Valuation]:
    worlds: list[str] = []
    order: list[tuple[str, str]] = []
    step: dict[str, str] = {}
    valuation: dict[str, frozenset[str]] = {}
    saw_worlds = False

    for offset, body in _logical_lines(text):
        span = _line_span(offset, body)
        stripped = body.strip()
        if ":" not in stripped:
            raise ParseError("expected 'section: entries'", span)
        head, _, rest = stripped.partition(":")
        head = head.strip()
        tokens = rest.split()
        if head == "worlds":
            if saw_worlds:
                raise ParseError("duplicate worlds section", span)
            saw_worlds = True
            for name in tokens:
                if not _NAME_RE.match(name):
                    raise ParseError(f"bad world name {name!r}", span)
            worlds.extend(tokens)
        elif head == "order":
            for token in tokens:
                if "<=" not in token:
                    raise ParseError(f"expected 'a<=b', found {token!r}", span)
                a, _, b = token.partition("<=")
                if not a or not b:
                    raise ParseError(f"expected 'a<=b', found {token!r}", span)
                order.append((a, b))
        elif head == "step":
            for token in tokens:
                if "->" not in token:
                    raise ParseError(f"expected 'a->b', found {token!r}", span)
                a, _, b = token.partition("->")
                if not a or not b:
                    raise ParseError(f"expected 'a->b', found {token!r}", span)
                if a in step:
                    raise ParseError(f"duplicate step for world {a!r}", span)
                step[a] = b
        elif head.startswith("val"):
            atom = head[3:].strip()
            if not _NAME_RE.match(atom):
                raise ParseError(f"bad atom name {atom!r}", span)
            if atom in valuation:
                raise ParseError(f"duplicate valuation for atom {atom!r}", span)
            valuation[atom] = frozenset(tokens)
        else:
            raise ParseError(f"unknown section {head!r}", span)

    if not worlds:
        raise ParseError("at least one world required", SourceSpan(0, len(text)))
    model = DynamicPoset(tuple(worlds), tuple(order), dict(step))
    for atom, names in valuation.items():
        for name in names:
            if name not in model.index:
                raise ParseError(
                    f"valuation of {atom!r} mentions unknown world {name!r}",
                    SourceSpan(0, len(text)),
                )
    return model, valuation


def print_poset_model(model: DynamicPoset, valuation: Valuation) -> str:
    lines = ["worlds: " + " ".join(model.worlds)]
    pairs = [
        f"{a}<={b}"
        for a in model.worlds
        for b in model.worlds
        if a != b and model.leq(a, b)
    ]
    lines.append("order:" + (" " + " ".join(pairs) if pairs else ""))
    lines.append(
        "step: " + " ".join(f"{w}->{model.step[w]}" for w in model.worlds)
    )
    for atom in sorted(valuation):
        members = [w for w in model.worlds if w in valuation[atom]]
        lines.append(f"val {atom}:" + (" " + " ".join(members) if members else ""))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# rationals, intervals, interval sets

_NUM_RE = re.compile(r"-?\d+(?:\.\d+)?(?:/\d+)?")


def _parse_rational(token: str, span: SourceSpan) -> Fraction:
    if not _NUM_RE.fullmatch(token):
        raise ParseError(f"bad number {token!r}", span)
    return Fraction(token)


_INTERVAL_RE = re.compile(
    r"\s*([\[\(])\s*(-inf|-?\d+(?:\.\d+)?(?:/\d+)?)\s*,"
    r"\s*(inf|-?\d+(?:\.\d+)?(?:/\d+)?)\s*([\]\)])"
)


def parse_interval_set(text: str) -> IntervalSet:
    """Parse e.g. ``(-inf, 0) u [1, 2]`` or ``{}`` (the empty set)."""
    stripped = text.strip()
    if stripped in ("{}", ""):
        return IntervalSet.of(())
    parts: list[Interval] = []
    pos = 0
    while True:
        m = _INTERVAL_RE.match(text, pos)
        if m is None:
            raise ParseError(
                "expected an interval like '(a, b)'", SourceSpan(pos, len(text))
            )
        lo_txt, hi_txt = m.group(2), m.group(3)
        lo_closed = m.group(1) == "["
        hi_closed = m.group(4) == "]"
        span = SourceSpan(m.start(1), m.end(4))
        lo = None if lo_txt == "-inf" else _parse_rational(lo_txt, span)
        hi = None if hi_txt == "inf" else _parse_rational(hi_txt, span)
        if lo is None and lo_closed:
            raise ParseError("'-inf' endpoint cannot be closed", span)
        if hi is None and hi_closed:
            raise ParseError("'inf' endpoint cannot be closed", span)
        made = make_interval(lo, lo_closed, hi, hi_closed)
        if made is None:
            raise ParseError("interval is empty", span)
        parts.append(made)
        pos = m.end()
        rest = text[pos:].lstrip()
        if not rest:
            break
        if not rest.startswith("u"):
            raise ParseError(
                "expected 'u' between intervals", SourceSpan(pos, len(text))
            )
        pos = pos + text[pos:].index("u") + 1
    return IntervalSet.of(parts)


# --------------------------------------------------------------------------
# affine expressions over x

_AFFINE_TOKEN_RE = re.compile(r"(\d+(?:\.\d+)?(?:/\d+)?|[x*/+-])")


def _parse_affine(text: str, base: int) -> tuple[Fraction, Fraction]:
    """Parse a one-variable affine expression like '2*x - 1' or 'x/3'."""
    tokens: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _AFFINE_TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(
                f"unexpected character {text[i]!r} in expression",
                SourceSpan(base + i, base + i + 1),
            )
        tokens.append((m.group(0), i))
        i = m.end()

    slope = Fraction(0)
    intercept = Fraction(0)
    pos = 0

    def error(msg: str, at: int) -> ParseError:
        return ParseError(msg, SourceSpan(base + at, base + at + 1))

    def take_number() -> Fraction:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] in "x*/+-":
            at = tokens[pos][1] if pos < len(tokens) else len(text)
            raise error("expected a number", at)
        value = Fraction(tokens[pos][0])
        pos += 1
        return value

    def take_term(sign: int) -> None:
        nonlocal slope, intercept, pos
        if pos >= len(tokens):
            raise error("expected a term", len(text))
        tok, at = tokens[pos]
        if tok == "x":
            pos += 1
            coeff = Fraction(1)
        else:
            coeff = take_number()
            if pos < len(tokens) and tokens[pos][0] == "*":
                pos += 1
                if pos >= len(tokens) or tokens[pos][0] != "x":
                    raise error("expected 'x' after '*'", at)
                pos += 1
            else:
                intercept += sign * coeff
                return
        # optional divisor after x
        if pos < len(tokens) and tokens[pos][0] == "/":
            pos += 1
            coeff /= take_number()
        slope += sign * coeff

    sign = 1
    if tokens and tokens[0][0] in "+-":
        sign = -1 if tokens[0][0] == "-" else 1
        pos = 1
    take_term(sign)
    while pos < len(tokens):
        tok, at = tokens[pos]
        if tok == "+":
            pos += 1
            take_term(1)
        elif tok == "-":
            pos += 1
            take_term(-1)
        else:
            raise error(f"unexpected {tok!r} in expression", at)
    return slope, intercept


# --------------------------------------------------------------------------
# real system files

_GUARD_SIMPLE_RE = re.compile(
    r"\s*x\s*(<=|<|>=|>)\s*(-?\d+(?:\.\d+)?(?:/\d+)?)\s*\Z"
)
_GUARD_RANGE_RE = re.compile(
    r"\s*(-?\d+(?:\.\d+)?(?:/\d+)?)\s*(<=|<)\s*x\s*(<=|<)\s*"
    r"(-?\d+(?:\.\d+)?(?:/\d+)?)\s*\Z"
)


def _parse_guard(text: str, base: int) -> Interval:
    span = SourceSpan(base, base + len(text))
    m = _GUARD_SIMPLE_RE.match(text)
    if m is not None:
        bound = Fraction(m.group(2))
        op = m.group(1)
        if op == "<=":
            return make_interval(None, False, bound, True)
        if op == "<":
            return make_interval(None, False, bound, False)
        if op == ">=":
            return make_interval(bound, True, None, False)
        return make_interval(bound, False, None, False)
    m = _GUARD_RANGE_RE.match(text)
    if m is not None:
        lo = Fraction(m.group(1))
        hi = Fraction(m.group(4))
        made = make_interval(lo, m.group(2) == "<=", hi, m.group(3) == "<=")
        if made is None:
            raise ParseError("guard describes an empty set", span)
        return made
    raise ParseError("expected a guard like 'x<=0' or '0<x<=1'", span)


def _build_map(
    pieces: list[tuple[Interval, Fraction, Fraction]], span: SourceSpan
) -> PiecewiseAffineMap:
    pieces = sorted(pieces, key=lambda p: (p[0].lo is not None, p[0].lo or 0))
    first = pieces[0][0]
    if first.lo is not None:
        raise ParseError("first piece must extend to -inf", span)
    last = pieces[-1][0]
    if last.hi is not None:
        raise ParseError("last piece must extend to inf", span)
    breakpoints = []
    for prev, cur in zip(pieces, pieces[1:]):
        dom_prev, dom_cur = prev[0], cur[0]
        if dom_prev.hi is None or dom_cur.lo is None or dom_prev.hi != dom_cur.lo:
            raise ParseError("pieces must tile the whole line", span)
        if dom_prev.hi_closed == dom_cur.lo_closed:
            raise ParseError(
                f"boundary {dom_prev.hi} must belong to exactly one piece", span
            )
        breakpoints.append(dom_prev.hi)
    return PiecewiseAffineMap(
        tuple(breakpoints), tuple((slope, icpt) for _, slope, icpt in pieces)
    )


def _parse_map_line(rest: str, base: int, span: SourceSpan) -> PiecewiseAffineMap:
    body = rest.strip()
    shift = base + rest.index(body) if body else base
    if body.startswith("piecewise"):
        body = body[len("piecewise"):]
        shift += len("piecewise")
        pieces = []
        offset = 0
        for chunk in body.split(";"):
            if ":" not in chunk:
                raise ParseError(
                    "expected 'guard : expression'",
                    SourceSpan(shift + offset, shift + offset + len(chunk)),
                )
            guard_txt, _, expr_txt = chunk.partition(":")
            guard = _parse_guard(guard_txt, shift + offset)
            slope, icpt = _parse_affine(
                expr_txt, shift + offset + len(guard_txt) + 1
            )
            pieces.append((guard, slope, icpt))
            offset += len(chunk) + 1
        return _build_map(pieces, span)
    slope, icpt = _parse_affine(body, shift)
    return PiecewiseAffineMap.affine(slope, icpt)


def parse_real_system(text: str) -> RealSystem:
    pwmap: PiecewiseAffineMap | None = None
    valuation: dict[str, IntervalSet] = {}
    caps = EvalCaps()

    for offset, body in _logical_lines(text):
        span = _line_span(offset, body)
        stripped = body.strip()
        if ":" not in stripped:
            raise ParseError("expected 'section: entries'", span)
        head, _, rest = stripped.partition(":")
        head = head.strip()
        rest_base = offset + body.index(":") + 1
        if head == "map":
            if pwmap is not None:
                raise ParseError("duplicate map section", span)
            pwmap = _parse_map_line(rest, rest_base, span)
        elif head.startswith("val"):
            atom = head[3:].strip()
            if not _NAME_RE.match(atom):
                raise ParseError(f"bad atom name {atom!r}", span)
            if atom in valuation:
                raise ParseError(f"duplicate valuation for atom {atom!r}", span)
            try:
                valuation[atom] = parse_interval_set(rest)
            except ParseError as err:
                raise _shift(err, rest_base) from None
        elif head == "caps":
            values = {}
            for token in rest.split():
                if "=" not in token:
                    raise ParseError(f"expected 'name=value', found {token!r}", span)
                key, _, num = token.partition("=")
                if key not in ("iter", "restart", "orbit", "window"):
                    raise ParseError(f"unknown cap {key!r}", span)
                if not num.isdigit():
                    raise ParseError(f"cap {key!r} needs a positive integer", span)
                values[key] = int(num)
            caps = EvalCaps(**values)
        else:
            raise ParseError(f"unknown section {head!r}", span)

    if pwmap is None:
        raise ParseError("a map section is required", SourceSpan(0, len(text)))
    return RealSystem(pwmap, valuation, caps)


# --------------------------------------------------------------------------
# derivation files

_DERIV_LINE_RE = re.compile(r"\s*(\d+)\.\s*(.*)\Z")
_SUBST_RE = re.compile(r"\{(.*)\}\s*\Z", re.DOTALL)


def _parse_justification(text: str, base: int, line_no: int):
    stripped = text.strip()
    shift = base + text.index(stripped) if stripped else base
    span = SourceSpan(shift, shift + len(stripped))
    if not stripped:
        raise ParseError("missing justification", span)
    if stripped == "ipc-taut":
        return IpcTaut()
    head, _, rest = stripped.partition(" ")
    rest = rest.strip()
    if head == "axiom":
        if not rest:
            raise ParseError("axiom justification needs a schema name", span)
        m = _SUBST_RE.search(rest)
        subst = None
        name = rest
        if m is not None:
            name = rest[: m.start()].strip()
            subst = {}
            body = m.group(1).strip()
            if body:
                for part in body.split(","):
                    if ":=" not in part:
                        raise ParseError(
                            f"expected 'name := formula', found {part!r}", span
                        )
                    meta, _, phi_txt = part.partition(":=")
                    meta = meta.strip()
                    if not _NAME_RE.match(meta):
                        raise ParseError(f"bad metavariable {meta!r}", span)
                    if meta in subst:
                        raise ParseError(
                            f"metavariable {meta!r} bound twice", span
                        )
                    try:
                        subst[meta] = parse_formula(phi_txt)
                    except ParseError as err:
                        raise _shift(err, shift + rest.index(phi_txt)) from None
        if not name or " " in name:
            raise ParseError(f"bad schema name {name!r}", span)
        return AxiomJust(name, subst)
    # anything else is a rule name followed by premise line numbers
    premises = []
    for token in rest.split():
        if not token.isdigit():
            raise ParseError(
                f"premise reference must be a line number, found {token!r}", span
            )
        index = int(token)
        if index < 1 or index >= line_no:
            raise ParseError(
                f"line {line_no} references line {index}, which does not precede it",
                span,
            )
        premises.append(index)
    return RuleJust(head, tuple(premises))


def parse_derivation(text: str) -> Derivation:
    lines: list[DerivationLine] = []
    for offset, body in _logical_lines(text):
        span = _line_span(offset, body)
        m = _DERIV_LINE_RE.match(body)
        if m is None:
            raise ParseError("expected '<n>. <formula> ; <justification>'", span)
        number = int(m.group(1))
        if number != len(lines) + 1:
            raise ParseError(f"expected line number {len(lines) + 1}", span)
        rest = m.group(2)
        if ";" not in rest:
            raise ParseError("missing ';' before justification", span)
        phi_txt, _, just_txt = rest.partition(";")
        phi_base = offset + body.index(rest)
        try:
            phi = parse_formula(phi_txt)
        except ParseError as err:
            raise _shift(err, phi_base) from None
        just = _parse_justification(just_txt, phi_base + len(phi_txt) + 1, number)
        lines.append(DerivationLine(number, phi, just, span))
    if not lines:
        raise ParseError("derivation has no lines", SourceSpan(0, len(text)))
    return Derivation(tuple(lines))
