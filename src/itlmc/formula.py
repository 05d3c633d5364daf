"""Formula AST for an intuitionistic temporal language.

Connectives: falsum, atoms, conjunction, disjunction, implication, plus the
temporal operators next, eventually, strong henceforth and weak henceforth.
Negation and biconditional are defined connectives and are normalized away at
construction time: the tree never contains a Not or Iff node.

Nodes are hash-consed: building a node equal to a live one returns that
node, so equal formulas are one object, and `==` and `hash` are identity,
constant time at any depth. Interning assumes that one thread builds
formulas at a time. Each node carries its operator set: a bitmask of the
node classes in it, made once from its children's.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial


class InputError(ValueError):
    """Malformed input: the base of every input error of the package."""

    __str__ = Exception.__str__  # a message, not a key, in KeyError subclasses too


# Every live node, as a weak reference keyed by its class and fields.
# Children are interned already, so the key hashes them by identity. A
# plain dict read from C is what keeps a hit cheap.
_NODES: dict[tuple, weakref.ref] = {}


def _forget(key: tuple, dead: weakref.ref) -> None:
    """Drop a dead node's entry, unless its key now holds a newer node."""
    if _NODES.get(key) is dead:
        del _NODES[key]


class Formula:
    """Base class for formula nodes: immutable, interned, compared by identity."""

    __slots__ = ("__weakref__", "ops")  # ops: the operator set, ORed `_BIT` values

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _NODES.get(key)
        node = ref and ref()
        return _make(cls, fields, key) if node is None else node

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # The flat walk program, so pickling and copying do not recurse.
        return _build, (walk(self)[1],)

    def __repr__(self) -> str:
        def show(f: Formula, args: tuple) -> str:
            return f"{type(f).__name__}({', '.join([repr(f.name)] if type(f) is Atom else args)})"

        return fold(self, show)


class Bottom(Formula):
    """Falsum."""

    __slots__ = __match_args__ = ()


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Implies(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Next(Formula):
    __slots__ = __match_args__ = ("child",)


class Eventually(Formula):
    __slots__ = __match_args__ = ("child",)


class StrongBox(Formula):
    """Henceforth interpreted as the greatest invariant open subset."""

    __slots__ = __match_args__ = ("child",)


class WeakBox(Formula):
    """Henceforth interpreted as the interior of the orbit intersection."""

    __slots__ = __match_args__ = ("child",)


def Not(phi: Formula) -> Formula:
    """Defined negation: phi -> false."""
    return Implies(phi, Bottom())


def Iff(phi: Formula, psi: Formula) -> Formula:
    """Defined biconditional: (phi -> psi) & (psi -> phi)."""
    return And(Implies(phi, psi), Implies(psi, phi))


_ARITY = {
    Bottom: 0, Atom: 0, And: 2, Or: 2, Implies: 2,
    Next: 1, Eventually: 1, StrongBox: 1, WeakBox: 1,
}
_BIT = {op: 1 << i for i, op in enumerate(_ARITY)}


def _make(cls: type, fields: tuple, key: tuple) -> Formula:
    """A new node, entered in _NODES under key, which no live node holds."""
    if len(fields) != len(cls.__slots__):
        raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} argument(s)")
    node = object.__new__(cls)
    ops = _BIT[cls]
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(node, name, value)
    for child in fields[: _ARITY[cls]]:
        ops |= child.ops
    object.__setattr__(node, "ops", ops)
    _NODES[key] = weakref.ref(node, partial(_forget, key))
    return node


def _interned(cls: type):
    """A builder of the node cls(*fields) that skips the class call."""
    get = _NODES.get
    if len(cls.__slots__) == 1:
        def build(a):
            ref = get(key := (cls, a))
            node = ref and ref()
            return _make(cls, (a,), key) if node is None else node
    else:
        def build(a, b):
            ref = get(key := (cls, a, b))
            node = ref and ref()
            return _make(cls, (a, b), key) if node is None else node
    return build


# A builder per node class with fields. The reader builds through these:
# most of its nodes are live already, and a hit then costs one dict read.
BUILDERS = {op: _interned(op) for op in _ARITY if op.__slots__}


def children(phi: Formula) -> tuple[Formula, ...]:
    arity = _ARITY[type(phi)]
    if arity == 2:
        return (phi.left, phi.right)
    return (phi.child,) if arity else ()


Program = list[tuple[type, int, int]]


def walk(phi: Formula) -> tuple[list[Formula], Program]:
    """Distinct subformulas of phi in postorder, each with its (op, a, b) entry.

    Children precede their parents; phi comes last. Equal subformulas are
    one node and get one position. The op is the node class. For an atom, a
    is its name; for other nodes a and b are the positions of the children
    (0 where a node has fewer). The walk keeps its own stack, so formula
    depth is not bounded by the recursion limit, and it skips nodes it has
    placed, so its cost follows the distinct nodes, not the tree.
    """
    position: dict[Formula, int] = {}
    program: Program = []
    # Expanding a node pushes it back, to be placed, under its children,
    # left child on top. A node already placed is skipped.
    todo = [(phi, False)]
    while todo:
        f, expanded = todo.pop()
        if f in position:
            continue
        op = type(f)
        arity = _ARITY[op]
        if arity == 2:
            if not expanded:
                todo += ((f, True), (f.right, False), (f.left, False))
                continue
            entry = (op, position[f.left], position[f.right])
        elif arity:
            if not expanded:
                todo += ((f, True), (f.child, False))
                continue
            entry = (op, position[f.child], 0)
        else:
            entry = (op, f.name if op is Atom else 0, 0)
        position[f] = len(program)
        program.append(entry)
    return list(position), program


def _build(program: Program) -> Formula:
    """The formula whose walk program is program."""
    nodes: list[Formula] = []
    for op, a, b in program:
        args = (a,) if op is Atom else tuple(nodes[i] for i in (a, b)[: _ARITY[op]])
        nodes.append(op(*args))
    return nodes[-1]


def subformulas(phi: Formula) -> list[Formula]:
    """Distinct subformulas in deterministic bottom-up (postorder) order.

    Children always precede their parents; the whole formula comes last.
    """
    return walk(phi)[0]


def operators(phi: Formula) -> set[type]:
    """Node classes occurring in phi, read from its operator set."""
    return {op for op, bit in _BIT.items() if phi.ops & bit}


def atoms(phi: Formula) -> list[str]:
    """Atom names occurring in phi, sorted."""
    return sorted(a for op, a, _ in walk(phi)[1] if op is Atom)


def fold(phi: Formula, fn):
    """Value of phi under fn, computed once per distinct subformula, bottom-up.

    ``fn(f, args)`` gets a subformula and the values of its children, in
    order; leaves get an empty tuple.
    """
    nodes, program = walk(phi)
    values: list = []
    for f, (op, a, b) in zip(nodes, program):
        arity = _ARITY[op]
        args = (values[a], values[b]) if arity == 2 else (values[a],) if arity else ()
        values.append(fn(f, args))
    return values[-1]


@dataclass(frozen=True, slots=True)
class LanguageFragment:
    """Which henceforth/eventually operators a formula may use.

    Next is always available; the three flags govern Eventually, StrongBox
    and WeakBox respectively.
    """

    eventually: bool
    strong_box: bool
    weak_box: bool

    def allows(self, phi: Formula) -> bool:
        ops = phi.ops
        return (
            (self.eventually or not ops & _BIT[Eventually])
            and (self.strong_box or not ops & _BIT[StrongBox])
            and (self.weak_box or not ops & _BIT[WeakBox])
        )


FRAGMENTS: dict[str, LanguageFragment] = {
    "db": LanguageFragment(eventually=True, strong_box=True, weak_box=False),
    "dw": LanguageFragment(eventually=True, strong_box=False, weak_box=True),
    "b": LanguageFragment(eventually=False, strong_box=True, weak_box=False),
    "w": LanguageFragment(eventually=False, strong_box=False, weak_box=True),
    "d": LanguageFragment(eventually=True, strong_box=False, weak_box=False),
}


def translate_weak(phi: Formula) -> Formula:
    """Replace every strong box by a weak box. Rejects mixed input."""

    def swap(f: Formula, args: tuple) -> Formula:
        op = type(f)
        if op is WeakBox:
            raise InputError("formula mixes both henceforth flavors")
        return (WeakBox if op is StrongBox else op)(*args) if args else f

    return fold(phi, swap)


# Named schema builders. These are the standard separation schemas used
# throughout the test corpus; each takes concrete argument formulas.

def wh(phi: Formula) -> Formula:
    """Weak step invariance: []phi -> []O phi."""
    return Implies(StrongBox(phi), StrongBox(Next(phi)))


def fs_next(phi: Formula, psi: Formula) -> Formula:
    """Fischer Servi next schema: (O phi -> O psi) -> O(phi -> psi)."""
    return Implies(Implies(Next(phi), Next(psi)), Next(Implies(phi, psi)))


def fs_dia(phi: Formula, psi: Formula) -> Formula:
    """Fischer Servi eventually schema: (<>phi -> []psi) -> [](phi -> psi)."""
    return Implies(
        Implies(Eventually(phi), StrongBox(psi)),
        StrongBox(Implies(phi, psi)),
    )


def cd(phi: Formula, psi: Formula) -> Formula:
    """Constant domain schema: [](phi | psi) -> ([]phi | <>psi)."""
    return Implies(
        StrongBox(Or(phi, psi)),
        Or(StrongBox(phi), Eventually(psi)),
    )


def cd_minus(phi: Formula) -> Formula:
    """CD instance on a negation split: [](~phi | phi) -> ([]~phi | <>phi)."""
    return cd(Not(phi), phi)


def bi(phi: Formula, psi: Formula) -> Formula:
    """Box induction: ([](phi | psi) & [](O psi -> psi)) -> ([]phi | psi)."""
    return Implies(
        And(StrongBox(Or(phi, psi)), StrongBox(Implies(Next(psi), psi))),
        Or(StrongBox(phi), psi),
    )


def cem(phi: Formula, psi: Formula) -> Formula:
    """Next excluded middle: (~O phi & O ~~phi) -> (O psi | ~O psi)."""
    return Implies(
        And(Not(Next(phi)), Next(Not(Not(phi)))),
        Or(Next(psi), Not(Next(psi))),
    )
