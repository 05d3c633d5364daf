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
from dataclasses import dataclass, fields, replace
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
# formula syntax: one operator table for the parser and the printer

# Precedence levels: '->' and '<->' 0, '|' 1, '&' 2, prefix operators 3,
# atoms 4.  A child whose level is below the minimum its position requires
# is parenthesized by the printer and cannot be formed there by the parser.
# Binary tokens: (builder, level, left minimum, right minimum).
_BINARY = {
    "->": (Implies, 0, 1, 0),
    "<->": (Iff, 0, 1, 1),
    "|": (Or, 1, 1, 2),
    "&": (And, 2, 2, 3),
}
_PREFIX = {"~": Not, "O": Next, "<>": Eventually, "[]": StrongBox, "[*]": WeakBox}
_PREFIX_LEVEL = 3
_ATOM_LEVEL = 4

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

# Identifiers come first, so 'O' and 'false' scan as words ('Op' is an
# atom); longer symbols precede their prefixes.  Any other non-space
# character lands in the second group and is an error.
_SYMBOLS = sorted([*_BINARY, *_PREFIX, "(", ")"], key=len, reverse=True)
_TOKEN_RE = re.compile(
    r"({}|{}|[{}])|(\S)".format(
        _IDENT_RE.pattern,
        "|".join(map(re.escape, _SYMBOLS)),
        re.escape("".join(_ALIASES)),
    )
)

# A pending '(' sits below every level, so no operator folds it.
_OPEN = (None, -1, 0)


def _tokenize_formula(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        token, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", SourceSpan(*m.span()))
        tokens.append((_ALIASES.get(token, token), *m.span()))
    tokens.append(("<end>", len(text), len(text)))
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse with an explicit operator stack, so depth is not limited."""
    operands: list[Formula] = []
    pending: list[tuple] = []  # (builder, level, right minimum) and _OPEN
    after_operand = False
    for kind, start, end in _tokenize_formula(text):
        if not after_operand:
            if kind in _PREFIX:
                pending.append((_PREFIX[kind], _PREFIX_LEVEL, _PREFIX_LEVEL))
            elif kind == "(":
                pending.append(_OPEN)
            elif kind == "false" or _IDENT_RE.fullmatch(kind):
                operands.append(Bottom() if kind == "false" else Atom(kind))
                after_operand = True
            else:
                raise ParseError(
                    f"expected an atom, 'false' or '(', found {kind!r}",
                    SourceSpan(start, end),
                )
            continue
        # Fold every pending operator whose level reaches the incoming
        # operator's left minimum: its result can be that left operand.
        # Any other token has minimum 0 and folds down to the nearest '('.
        build, level, left, right = _BINARY.get(kind, (None, 0, 0, 0))
        while pending and pending[-1][1] >= left:
            fn, fn_level, _ = pending.pop()
            arg = operands.pop()
            operands.append(
                fn(arg) if fn_level == _PREFIX_LEVEL else fn(operands.pop(), arg)
            )
        if build is not None:
            # What stays pending takes this operator's result as its right
            # operand, which must reach its right minimum.
            if pending and pending[-1][2] > level:
                raise ParseError(
                    "'<->' is non-associative; parenthesize to chain",
                    SourceSpan(start, end),
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


# The printer reads the same tables; Iff and Not build other nodes, so
# neither reaches a tree.  A word operator needs a space before its operand.
_INFIX = {
    build: (level, f" {token} ", left, right)
    for token, (build, level, left, right) in _BINARY.items()
    if build is not Iff
}
_PRINT_PREFIX = {
    build: token + " " if token.isalpha() else token
    for token, build in _PREFIX.items()
    if build is not Not
}


def _at_least(part: tuple[int, str], minimum: int) -> str:
    level, text = part
    return text if level >= minimum else "(" + text + ")"


def _render(phi: Formula, args: tuple) -> tuple[int, str]:
    """Level and text of phi, given those of its children."""
    op = type(phi)
    if op in _INFIX:
        level, symbol, left, right = _INFIX[op]
        return level, _at_least(args[0], left) + symbol + _at_least(args[1], right)
    if op in _PRINT_PREFIX:
        return _PREFIX_LEVEL, _PRINT_PREFIX[op] + _at_least(args[0], _PREFIX_LEVEL)
    return _ATOM_LEVEL, phi.name if op is Atom else "false"


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


_CAP_NAMES = tuple(f.name for f in fields(EvalCaps))


def parse_caps(
    items: list[str], span: SourceSpan, base: EvalCaps = EvalCaps()
) -> EvalCaps:
    """base with each 'name=value' item set; a value is ASCII digits, 0 allowed."""
    values = {}
    for item in items:
        key, sep, num = item.partition("=")
        if not sep:
            raise ParseError(f"expected 'name=value', found {item!r}", span)
        if key not in _CAP_NAMES:
            raise ParseError(f"unknown cap {key!r}", span)
        if not (num.isascii() and num.isdigit()):
            raise ParseError(
                f"cap {key!r} needs a non-negative integer (digits only, 0 allowed),"
                f" found {num!r}",
                span,
            )
        values[key] = int(num)
    return replace(base, **values)


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
            caps = parse_caps(rest.split(), span)
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
