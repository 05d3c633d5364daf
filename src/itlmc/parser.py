"""Concrete syntax: formulas and the four corpus file formats.

The formula grammar (ASCII first, unicode aliases accepted on input only):

    impl  := disj ('->' impl)?  |  disj '<->' disj
    disj  := conj ('|' conj)*
    conj  := unary ('&' unary)*
    unary := ('~' | 'O' | '<>' | '[]' | '[*]') unary | atom
    atom  := 'false' | identifier | '(' impl ')'

An identifier is [A-Za-z_][A-Za-z0-9_']*, the same rule as names in files.

'<->' is non-associative; implication is right-associative; '&' and '|'
are left-associative.  `print_formula` emits minimal parentheses and
round-trips through `parse_formula`.

Formula tokens carry no spans: an error re-scans the text once to find
them, and a bad character anywhere in it is reported before any grammar
error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .formula import (
    BUILDERS,
    And,
    Atom,
    Bottom,
    Eventually,
    Formula,
    Iff,
    Implies,
    InputError,
    Next,
    Not,
    Or,
    StrongBox,
    WeakBox,
    fold,
    render,
)
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
    """Character offsets [start, end) into the parsed text."""

    start: int
    end: int


class ParseError(InputError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


class MalformedEncoding(InputError):
    """An input file whose bytes are not UTF-8."""


def read_input(path) -> str:
    """The text of an input file, read as `open` reads UTF-8; bad bytes name the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise MalformedEncoding(
            f"{path} is not UTF-8: byte {err.object[err.start]:#04x}"
            f" at byte offset {err.start} ({err.reason})"
        ) from None


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

# Input-only spellings, each read as the ASCII token it maps to.
_ALIASES = {
    "○": "O", "◇": "<>", "□": "[]", "⊡": "[*]", "¬": "~",
    "→": "->", "↔": "<->", "∧": "&", "∨": "|", "⊥": "false",
}

# The one name rule: formula atoms, and world, atom and metavariable names
# in files.  '#' is not a name character; it starts a comment in files.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_NAME_START = frozenset(filter(_NAME_RE.match, map(chr, range(128))))


def _spelled(table: dict) -> dict:
    """table, with each alias of one of its tokens read as that token."""
    return table | {alias: table[token] for alias, token in _ALIASES.items() if token in table}


# The reader's tables, keyed by every spelling.  An entry is what the
# operator stack holds: (builder, level, left minimum, right minimum).  A
# pending '(' sits below every level, so no operator folds it.
_OPENERS = _spelled(
    {token: (BUILDERS.get(b, b), _PREFIX_LEVEL, 0, _PREFIX_LEVEL) for token, b in _PREFIX.items()}
    | {"(": (None, -1, 0, 0)}
)
_INFIX_READ = _spelled({t: (BUILDERS.get(b, b), *rest) for t, (b, *rest) in _BINARY.items()})
_FALSE = frozenset(_spelled({"false": None}))
_SYMBOLS = {*_OPENERS, *_INFIX_READ, *_FALSE, ")"}

# Identifiers come first, so 'O' and 'false' scan as words ('Op' is an
# atom); longer symbols precede their prefixes.  Any other non-space
# character scans alone and is an error.
_SCAN_RE = re.compile("|".join(
    [_NAME_RE.pattern]
    + [re.escape(s) for s in sorted(_SYMBOLS, key=len, reverse=True) if s[0] not in _NAME_START]
    + [r"\S"]
))


def _formula_error(text: str, base: int, index: int, message: str) -> ParseError:
    """message at token index of text, with '{!r}' naming that token in ASCII.

    Tokens carry no spans, so this re-scans text once.  The first bad
    character wins over the grammar error, wherever it lies.
    """
    tokens = [(m.group(), *m.span()) for m in _SCAN_RE.finditer(text)]
    bad = [t for t in tokens if t[0][0] not in _NAME_START and t[0] not in _SYMBOLS]
    if bad:
        message, index = "unexpected character {!r}", tokens.index(bad[0])
    token, start, end = (tokens + [("<end>", len(text), len(text))])[index]
    return ParseError(
        message.format(_ALIASES.get(token, token)), SourceSpan(base + start, base + end)
    )


def parse_formula(text: str, base: int = 0) -> Formula:
    """Parse with an explicit operator stack, so depth is not limited."""
    operands: list[Formula] = []
    pending: list[tuple] = []  # entries of _OPENERS and _INFIX_READ
    atom = BUILDERS[Atom]
    after_operand = False
    tokens = _SCAN_RE.findall(text)
    tokens.append("<end>")
    for i, token in enumerate(tokens):
        if not after_operand:
            entry = _OPENERS.get(token)
            if entry is not None:
                pending.append(entry)
            elif token[0] in _NAME_START or token in _FALSE:
                operands.append(Bottom() if token in _FALSE else atom(token))
                after_operand = True
            else:
                raise _formula_error(text, base, i, "expected an atom, 'false' or '(', found {!r}")
            continue
        # Fold every pending operator whose level reaches the incoming
        # operator's left minimum: its result can be that left operand.
        # Any other token has minimum 0 and folds down to the nearest '('.
        entry = _INFIX_READ.get(token, (None, 0, 0, 0))
        left = entry[2]
        while pending and pending[-1][1] >= left:
            fn, fn_level, _, _ = pending.pop()
            arg = operands.pop()
            operands.append(fn(arg) if fn_level == _PREFIX_LEVEL else fn(operands.pop(), arg))
        if entry[0] is not None:
            # What stays pending takes this operator's result as its right
            # operand, which must reach its right minimum.
            if pending and pending[-1][3] > entry[1]:
                raise _formula_error(
                    text, base, i, "'<->' is non-associative; parenthesize to chain"
                )
            pending.append(entry)
            after_operand = False
        elif pending and token == ")":
            pending.pop()
        elif pending:
            raise _formula_error(text, base, i, "expected ')', found {!r}")
        elif token != "<end>":
            raise _formula_error(text, base, i, "unexpected {!r} after formula")
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
_LEVEL = dict.fromkeys(_PRINT_PREFIX, _PREFIX_LEVEL) | {op: e[0] for op, e in _INFIX.items()}
# Each nested '<->' doubles a formula's printed text; longer text is refused.
MAX_PRINTED_CHARS = 1 << 24


def _at_least(phi: Formula, minimum: int) -> tuple:
    return (phi,) if _LEVEL.get(type(phi), _ATOM_LEVEL) >= minimum else ("(", phi, ")")


def _parts(phi: Formula) -> tuple:
    """phi's text in order, as strings and its children, each in parentheses if need be."""
    op = type(phi)
    if op in _INFIX:
        _, symbol, left, right = _INFIX[op]
        return (*_at_least(phi.left, left), symbol, *_at_least(phi.right, right))
    if op in _PRINT_PREFIX:
        return (_PRINT_PREFIX[op], *_at_least(phi.child, _PREFIX_LEVEL))
    return (phi.name if op is Atom else "false",)


def _length(phi: Formula, args: tuple) -> int:
    """Printed length of phi, given those of its children."""
    children = iter(args)
    return sum(len(part) if type(part) is str else next(children) for part in _parts(phi))


def print_formula(phi: Formula) -> str:
    if fold(phi, _length) > MAX_PRINTED_CHARS:
        raise InputError(f"formula text would exceed {MAX_PRINTED_CHARS} characters")
    return render(phi, _parts)


# --------------------------------------------------------------------------
# corpus files: one rule each for lines and comments, names and numbers
#
# In all four formats '#' starts a comment that runs to the end of its
# line, and blank lines are skipped.  Numbers are ASCII digits.  Error spans
# are offsets into the file: a parser given `base`, the offset of its text,
# adds it.

def _logical_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank lines without their comments, as (line offset, text)."""
    out = []
    offset = 0
    for raw in text.split("\n"):
        body = raw.partition("#")[0]
        if body.strip():
            out.append((offset, body))
        offset += len(raw) + 1
    return out


def _line_span(offset: int, body: str) -> SourceSpan:
    lead = len(body) - len(body.lstrip())
    return SourceSpan(offset + lead, offset + len(body.rstrip()))


# A rational literal: 3, 0.25, 1/3 or 1.5/2.
_RATIONAL = r"[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?"
_SIGNED = rf"-?{_RATIONAL}"


def _group_span(m: re.Match, group: int, base: int) -> SourceSpan:
    return SourceSpan(base + m.start(group), base + m.end(group))


def _divide(a: Fraction, b: Fraction, span: SourceSpan) -> Fraction:
    if not b:
        raise ParseError("division by zero", span)
    return a / b


def _rational(m: re.Match, group: int, base: int) -> Fraction:
    """Value of the rational literal that group of m matched."""
    num, _, den = m.group(group).partition("/")
    return _divide(Fraction(num), Fraction(den or 1), _group_span(m, group, base))


def parse_rational(text: str) -> Fraction:
    """Value of a whole text that is one signed rational literal."""
    m = re.fullmatch(_SIGNED, text)
    if m is None:
        raise ParseError("not a rational literal", SourceSpan(0, len(text)))
    return _rational(m, 0, 0)


def _sections(text: str):
    """(head, atom, entries, entries offset, line span) per 'head: entries' line.

    atom is the checked name of a 'val <atom>' line and None on other lines.
    """
    atoms: set[str] = set()
    for offset, body in _logical_lines(text):
        span = _line_span(offset, body)
        head, colon, rest = body.partition(":")
        if not colon:
            raise ParseError("expected 'section: entries'", span)
        base = offset + len(head) + 1
        head = head.strip()
        atom = None
        if head.split(None, 1)[:1] == ["val"]:
            atom = head[3:].strip()
            if not _NAME_RE.fullmatch(atom):
                raise ParseError(f"bad atom name {atom!r}", span)
            if atom in atoms:
                raise ParseError(f"duplicate valuation for atom {atom!r}", span)
            atoms.add(atom)
        yield head, atom, rest.rstrip(), base, span


# --------------------------------------------------------------------------
# poset model files

def _pair(token: str, sep: str, span: SourceSpan) -> tuple[str, str]:
    a, found, b = token.partition(sep)
    if not (a and found and b):
        raise ParseError(f"expected 'a{sep}b', found {token!r}", span)
    return a, b


def parse_poset_model(text: str) -> tuple[DynamicPoset, Valuation]:
    worlds: list[str] | None = None
    order: list[tuple[str, str]] = []
    step: dict[str, str] = {}
    valuation: dict[str, frozenset[str]] = {}
    for head, atom, rest, _, span in _sections(text):
        tokens = rest.split()
        if atom is not None:
            valuation[atom] = frozenset(tokens)
        elif head == "worlds":
            if worlds is not None:
                raise ParseError("duplicate worlds section", span)
            for name in tokens:
                if not _NAME_RE.fullmatch(name):
                    raise ParseError(f"bad world name {name!r}", span)
            worlds = tokens
        elif head == "order":
            order.extend(_pair(token, "<=", span) for token in tokens)
        elif head == "step":
            for token in tokens:
                a, b = _pair(token, "->", span)
                if a in step:
                    raise ParseError(f"duplicate step for world {a!r}", span)
                step[a] = b
        else:
            raise ParseError(f"unknown section {head!r}", span)

    if not worlds:
        raise ParseError("at least one world required", SourceSpan(0, len(text)))
    model = DynamicPoset(tuple(worlds), tuple(order), step)
    for atom, names in valuation.items():
        unknown = sorted(names.difference(model.index))
        if unknown:
            raise ParseError(
                f"valuation of {atom!r} mentions unknown world {unknown[0]!r}",
                SourceSpan(0, len(text)),
            )
    return model, valuation


def print_poset_model(model: DynamicPoset, valuation: Valuation) -> str:
    lines = ["worlds: " + " ".join(model.worlds)]
    pairs = [f"{a}<={b}" for a in model.worlds for b in model.worlds if a != b and model.leq(a, b)]
    lines.append("order:" + (" " + " ".join(pairs) if pairs else ""))
    lines.append("step: " + " ".join(f"{w}->{model.step[w]}" for w in model.worlds))
    for atom in sorted(valuation):
        members = [w for w in model.worlds if w in valuation[atom]]
        lines.append(f"val {atom}:" + (" " + " ".join(members) if members else ""))
    return "\n".join(lines) + "\n"


def print_extension(model: DynamicPoset, extension) -> str:
    """The worlds of the extension in model order, as "{v, u}"."""
    return "{" + ", ".join(w for w in model.worlds if w in extension) + "}"


# --------------------------------------------------------------------------
# intervals, interval sets

_INTERVAL_RE = re.compile(
    rf"\s*([\[(])\s*(-inf|{_SIGNED})\s*,\s*(inf|{_SIGNED})\s*([\])])"
)


def parse_interval_set(text: str, base: int = 0) -> IntervalSet:
    """Parse e.g. ``(-inf, 0) u [1, 2]`` or ``{}`` (the empty set)."""
    if text.strip() in ("{}", ""):
        return IntervalSet.of(())
    parts: list[Interval] = []
    pos = 0
    while True:
        m = _INTERVAL_RE.match(text, pos)
        if m is None:
            raise ParseError(
                "expected an interval like '(a, b)'", SourceSpan(base + pos, base + len(text))
            )
        span = SourceSpan(base + m.start(1), base + m.end(4))
        lo_closed, hi_closed = m.group(1) == "[", m.group(4) == "]"
        lo = None if m.group(2) == "-inf" else _rational(m, 2, base)
        hi = None if m.group(3) == "inf" else _rational(m, 3, base)
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
            return IntervalSet.of(parts)
        if not rest.startswith("u"):
            raise ParseError(
                "expected 'u' between intervals", SourceSpan(base + pos, base + len(text))
            )
        pos = len(text) - len(rest) + 1


# --------------------------------------------------------------------------
# affine expressions over x, guards, maps

_AFFINE_TOKEN_RE = re.compile(rf"\s*(?:({_RATIONAL}|[x*/+-])|(\S))")


def _parse_affine(text: str, base: int) -> tuple[Fraction, Fraction]:
    """Slope and intercept of an expression like '2*x - 1' or 'x/3 + 1/2'.

    A term is 'x' or 'c*x', either optionally divided by '/c', or a
    constant 'c'; every term but the first needs its '+' or '-'.
    """
    tokens = []
    for m in _AFFINE_TOKEN_RE.finditer(text):
        if m.group(2):
            raise ParseError(
                f"unexpected character {m.group(2)!r} in expression",
                _group_span(m, 2, base),
            )
        tokens.append(m)

    def kind(i: int) -> str:
        return tokens[i].group(1) if i < len(tokens) else ""

    def fail(message: str, i: int):
        at = base + (tokens[i].start(1) if i < len(tokens) else len(text))
        raise ParseError(message, SourceSpan(at, at + 1))

    def number(i: int) -> Fraction:
        if not kind(i)[:1].isdigit():
            fail("expected a number", i)
        return _rational(tokens[i], 1, base)

    slope = intercept = Fraction(0)
    sign, i = (-1 if kind(0) == "-" else 1), int(kind(0) in ("+", "-"))
    while True:
        if i == len(tokens):
            fail("expected a term", i)
        if kind(i) != "x" and kind(i + 1) != "*":
            intercept += sign * number(i)
            i += 1
        else:
            coeff = Fraction(1)
            if kind(i) != "x":
                coeff = number(i)
                if kind(i + 2) != "x":
                    fail("expected 'x' after '*'", i)
                i += 2
            i += 1
            if kind(i) == "/":
                divisor = number(i + 1)
                coeff = _divide(coeff, divisor, _group_span(tokens[i + 1], 1, base))
                i += 2
            slope += sign * coeff
        if i == len(tokens):
            return slope, intercept
        if kind(i) not in ("+", "-"):
            fail(f"unexpected {kind(i)!r} in expression", i)
        sign, i = (-1 if kind(i) == "-" else 1), i + 1


_GUARD_RE = re.compile(
    rf"\s*(?:x\s*(>=?)\s*({_SIGNED})"
    rf"|(?:({_SIGNED})\s*(<=?)\s*)?x\s*(<=?)\s*({_SIGNED}))\s*\Z"
)


def _parse_guard(text: str, base: int) -> Interval:
    span = SourceSpan(base, base + len(text))
    m = _GUARD_RE.match(text)
    if m is None:
        raise ParseError("expected a guard like 'x<=0' or '0<x<=1'", span)
    above, lo, lo_op, hi_op = m.group(1, 3, 4, 5)
    if above:
        return make_interval(_rational(m, 2, base), above == ">=", None, False)
    lo = None if lo is None else _rational(m, 3, base)
    made = make_interval(lo, lo_op == "<=", _rational(m, 6, base), hi_op == "<=")
    if made is None:
        raise ParseError("guard describes an empty set", span)
    return made


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


def _parse_map(rest: str, base: int, span: SourceSpan) -> PiecewiseAffineMap:
    body = rest.lstrip()
    start = base + len(rest) - len(body)
    if not body.startswith("piecewise"):
        return PiecewiseAffineMap.affine(*_parse_affine(body, start))
    start += len("piecewise")
    pieces = []
    for chunk in body[len("piecewise"):].split(";"):
        guard, colon, expr = chunk.partition(":")
        if not colon:
            raise ParseError(
                "expected 'guard : expression'", SourceSpan(start, start + len(chunk))
            )
        pieces.append(
            (_parse_guard(guard, start), *_parse_affine(expr, start + len(guard) + 1))
        )
        start += len(chunk) + 1
    return _build_map(pieces, span)


# --------------------------------------------------------------------------
# real system files

_CAP_NAMES = tuple(f.name for f in fields(EvalCaps))


def parse_caps(text: str, span: SourceSpan, base: EvalCaps = EvalCaps()) -> EvalCaps:
    """base with each 'name=value' item of text set, items parted by commas or
    whitespace; a value is ASCII digits, 0 allowed."""
    values = {}
    for item in text.replace(",", " ").split():
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
    for head, atom, rest, base, span in _sections(text):
        if atom is not None:
            valuation[atom] = parse_interval_set(rest, base)
        elif head == "map":
            if pwmap is not None:
                raise ParseError("duplicate map section", span)
            pwmap = _parse_map(rest, base, span)
        elif head == "caps":
            caps = parse_caps(rest, span, caps)
        else:
            raise ParseError(f"unknown section {head!r}", span)

    if pwmap is None:
        raise ParseError("a map section is required", SourceSpan(0, len(text)))
    return RealSystem(pwmap, valuation, caps)


# --------------------------------------------------------------------------
# derivation files: the parsed form the Hilbert checker reads

@dataclass(frozen=True)
class AxiomJust:
    schema: str
    subst: Optional[dict[str, Formula]]


@dataclass(frozen=True)
class RuleJust:
    rule: str
    premises: tuple[int, ...]


@dataclass(frozen=True)
class IpcTaut:
    pass


Justification = Union[AxiomJust, RuleJust, IpcTaut]


@dataclass(frozen=True)
class DerivationLine:
    number: int
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Derivation:
    lines: tuple[DerivationLine, ...]

    @property
    def theorem(self) -> Formula:
        return self.lines[-1].formula


_DERIV_LINE_RE = re.compile(r"\s*([0-9]+)\.\s*(.*)\Z")
_SUBST_RE = re.compile(r"\{(.*)\}\s*\Z", re.DOTALL)


def _line_error(message: str, offset: int, body: str) -> ParseError:
    """message with the span of body, which starts at offset, stripped."""
    return ParseError(message, _line_span(offset, body))


def _parse_subst(text: str, base: int, just: tuple[int, str]) -> dict[str, Formula]:
    """The 'name := formula, ...' list inside braces, text starting at base;
    errors span just, the (offset, text) of the justification."""
    body = text.strip()
    base += len(text) - len(text.lstrip())
    subst: dict[str, Formula] = {}
    if not body:
        return subst
    for part in body.split(","):
        meta, bind, phi_txt = part.partition(":=")
        if not bind:
            raise _line_error(f"expected 'name := formula', found {part!r}", *just)
        phi_base = base + len(meta) + len(bind)
        meta = meta.strip()
        if not _NAME_RE.fullmatch(meta):
            raise _line_error(f"bad metavariable {meta!r}", *just)
        if meta in subst:
            raise _line_error(f"metavariable {meta!r} bound twice", *just)
        subst[meta] = parse_formula(phi_txt, phi_base)
        base += len(part) + 1
    return subst


def _parse_justification(text: str, base: int, line_no: int):
    """The justification text, which starts at base; spans cover it stripped."""
    stripped = text.strip()
    if stripped == "ipc-taut":
        return IpcTaut()
    if not stripped:
        raise ParseError("missing justification", SourceSpan(base, base))
    head, *tail = stripped.split(None, 1)
    rest = "".join(tail)
    if head == "axiom":
        if not rest:
            raise _line_error("axiom justification needs a schema name", base, text)
        m = _SUBST_RE.search(rest)
        name, subst = rest, None
        if m is not None:
            name = rest[: m.start()].strip()
            end = base + len(text.rstrip())
            subst = _parse_subst(m.group(1), end - len(rest) + m.start(1), (base, text))
        if len(name.split()) != 1:
            raise _line_error(f"bad schema name {name!r}", base, text)
        return AxiomJust(name, subst)
    # anything else is a rule name followed by premise line numbers
    premises = []
    for token in rest.split():
        if not (token.isascii() and token.isdigit()):
            raise _line_error(
                f"premise reference must be a line number, found {token!r}", base, text
            )
        index = int(token)
        if index < 1 or index >= line_no:
            raise _line_error(
                f"line {line_no} references line {index}, which does not precede it", base, text
            )
        premises.append(index)
    return RuleJust(head, tuple(premises))


def parse_derivation(text: str) -> Derivation:
    lines: list[DerivationLine] = []
    for offset, body in _logical_lines(text):
        m = _DERIV_LINE_RE.match(body)
        if m is None:
            raise _line_error("expected '<n>. <formula> ; <justification>'", offset, body)
        number = int(m.group(1))
        if number != len(lines) + 1:
            raise _line_error(f"expected line number {len(lines) + 1}", offset, body)
        phi_txt, semi, just_txt = m.group(2).partition(";")
        if not semi:
            raise _line_error("missing ';' before justification", offset, body)
        phi_base = offset + m.start(2)
        phi = parse_formula(phi_txt, phi_base)
        just = _parse_justification(just_txt, phi_base + len(phi_txt) + 1, number)
        lines.append(DerivationLine(number, phi, just))
    if not lines:
        raise ParseError("derivation has no lines", SourceSpan(0, len(text)))
    return Derivation(tuple(lines))


# --------------------------------------------------------------------------
# edge files

@dataclass(frozen=True)
class EdgeSpec:
    """One arrow of the logic-inclusion diagram.

    Solid edges claim proper inclusion (source strictly below target);
    dashed edges only claim the target is not below the source.  The
    formula belongs to the target and fails somewhere the source is
    sound; `witness` names the falsifying corpus model ("out-of-scope:"
    entries document witnesses outside the mechanized structure classes).
    """

    source: str
    target: str
    style: str
    label: str
    formula: Formula
    witness: str
    point: str
    derivation: str
    logic: str
    inclusion: tuple[tuple[str, str], ...] = ()


# The fields of an edge line, in EdgeSpec's field order.
_EDGE_KEYS = (
    "from", "to", "style", "label", "formula",
    "witness", "point", "derivation", "logic", "inclusion",
)


def parse_edges(text: str) -> list[EdgeSpec]:
    """One edge per line, as ';'-separated 'key=value' fields.

    'inclusion' holds comma-separated 'axiom:derivation' pairs, or nothing.
    """
    edges = []
    for offset, body in _logical_lines(text):
        entries: dict[str, tuple[str, int]] = {}  # key: (value, its offset)
        start = offset
        for part in body.split(";"):
            key, sep, value = part.partition("=")
            if part.strip():
                lead = len(value) - len(value.lstrip())
                entries[key.strip()] = (value.strip(), start + len(key) + len(sep) + lead)
            start += len(part) + 1
        missing = [key for key in _EDGE_KEYS if key not in entries]
        if missing:
            raise _line_error(f"edge line is missing fields: {', '.join(missing)}", offset, body)
        values = {key: entries[key][0] for key in _EDGE_KEYS}
        values["formula"] = parse_formula(*entries["formula"])
        pairs = (item.strip().partition(":") for item in values["inclusion"].split(","))
        values["inclusion"] = tuple((a, d) for a, _, d in pairs) if values["inclusion"] else ()
        edges.append(EdgeSpec(*values.values()))
    return edges
