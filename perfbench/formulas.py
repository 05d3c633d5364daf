"""Formula trees of the benchmark's own: generation, rendering and parsing.

A node is a tuple: ("bot",), ("atom", name), ("and" | "or" | "imp", left,
right) or ("next" | "dia" | "box" | "wbox", child). Negation is
("imp", phi, ("bot",)). These trees are independent of itlmc's classes, so
the oracles never evaluate the program's own data structures.
"""

from __future__ import annotations

import re

BOT = ("bot",)
P = ("atom", "p")
Q = ("atom", "q")

UNARY = ("next", "dia", "box", "wbox")
BINARY = ("and", "or", "imp")

_UNARY_TEXT = {"next": "O ", "dia": "<>", "box": "[]", "wbox": "[*]"}
_BINARY_TEXT = {"and": " & ", "or": " | ", "imp": " -> "}


def neg(phi):
    return ("imp", phi, BOT)


def render(phi) -> str:
    """ASCII concrete syntax; every binary subterm is parenthesized."""
    op = phi[0]
    if op == "bot":
        return "false"
    if op == "atom":
        return phi[1]
    if op in _UNARY_TEXT:
        return _UNARY_TEXT[op] + _operand(phi[1])
    return _operand(phi[1]) + _BINARY_TEXT[op] + _operand(phi[2])


def _operand(phi) -> str:
    text = render(phi)
    return "(" + text + ")" if phi[0] in BINARY else text


def rename(phi, names: dict):
    """Replace atom names by `names` (missing names stay)."""
    op = phi[0]
    if op == "atom":
        return ("atom", names.get(phi[1], phi[1]))
    return (op,) + tuple(rename(child, names) for child in phi[1:])


def atoms(phi) -> set[str]:
    if phi[0] == "atom":
        return {phi[1]}
    out: set[str] = set()
    for child in phi[1:]:
        out |= atoms(child)
    return out


def distinct_subterms(phi) -> int:
    seen = set()

    def walk(f):
        if f in seen:
            return
        seen.add(f)
        if f[0] in UNARY or f[0] in BINARY:
            for child in f[1:]:
                walk(child)

    walk(phi)
    return len(seen)


def random_formula(rng, depth: int):
    """Random formula over p and q with O, <>, [], ~ and the binary connectives."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((P, Q, P, Q, BOT))
    r = rng.random()
    if r < 0.35:
        return (rng.choice(("next", "dia", "box")), random_formula(rng, depth - 1))
    if r < 0.5:
        return neg(random_formula(rng, depth - 1))
    op = rng.choice(("and", "or", "imp", "imp"))
    return (op, random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def classical(phi, val: dict[str, bool]) -> bool:
    """Truth on a one-world model: every temporal operator is the identity."""
    op = phi[0]
    if op == "bot":
        return False
    if op == "atom":
        return val.get(phi[1], False)
    if op == "and":
        return classical(phi[1], val) and classical(phi[2], val)
    if op == "or":
        return classical(phi[1], val) or classical(phi[2], val)
    if op == "imp":
        return not classical(phi[1], val) or classical(phi[2], val)
    return classical(phi[1], val)


# --------------------------------------------------------------------------
# conversion from itlmc formula objects (read-only: fields and class names)

_CLASS_OPS = {
    "And": "and", "Or": "or", "Implies": "imp", "Next": "next",
    "Eventually": "dia", "StrongBox": "box", "WeakBox": "wbox",
}


def from_itlmc(f):
    kind = type(f).__name__
    if kind == "Bottom":
        return BOT
    if kind == "Atom":
        return ("atom", f.name)
    op = _CLASS_OPS[kind]
    if op in BINARY:
        return (op, from_itlmc(f.left), from_itlmc(f.right))
    return (op, from_itlmc(f.child))


# --------------------------------------------------------------------------
# parser for the ASCII syntax (used on derivation lines and batteries)

_TOKEN_RE = re.compile(r"\s*(<->|->|\[\*\]|\[\]|<>|[~&|()]|[A-Za-z_#][A-Za-z0-9_'#]*)")


class FormulaSyntaxError(ValueError):
    pass


def parse(text: str):
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected text at {pos}: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("<end>")
    parser = _Parser(tokens)
    phi = parser.impl()
    if parser.peek() != "<end>":
        raise FormulaSyntaxError(f"trailing input {parser.peek()!r}")
    return phi


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def impl(self):
        left = self.disj()
        if self.peek() == "->":
            self.take()
            return ("imp", left, self.impl())
        if self.peek() == "<->":
            self.take()
            right = self.disj()
            return ("and", ("imp", left, right), ("imp", right, left))
        return left

    def disj(self):
        phi = self.conj()
        while self.peek() == "|":
            self.take()
            phi = ("or", phi, self.conj())
        return phi

    def conj(self):
        phi = self.unary()
        while self.peek() == "&":
            self.take()
            phi = ("and", phi, self.unary())
        return phi

    def unary(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return neg(self.unary())
        op = {"O": "next", "<>": "dia", "[]": "box", "[*]": "wbox"}.get(tok)
        if op is not None:
            self.take()
            return (op, self.unary())
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok == "(":
            phi = self.impl()
            if self.take() != ")":
                raise FormulaSyntaxError("expected ')'")
            return phi
        if tok == "false":
            return BOT
        if re.fullmatch(r"[A-Za-z_#][A-Za-z0-9_'#]*", tok):
            return ("atom", tok)
        raise FormulaSyntaxError(f"unexpected token {tok!r}")
