"""Formula AST for an intuitionistic temporal language.

Connectives: falsum, atoms, conjunction, disjunction, implication, plus the
temporal operators next, eventually, strong henceforth and weak henceforth.
Negation and biconditional are defined connectives and are normalized away at
construction time: the tree never contains a Not or Iff node.
"""

from __future__ import annotations

from dataclasses import dataclass


class Formula:
    """Base class for formula nodes. Instances are immutable and hashable."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    """Falsum."""


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Eventually(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class StrongBox(Formula):
    """Henceforth interpreted as the greatest invariant open subset."""

    child: Formula


@dataclass(frozen=True, slots=True)
class WeakBox(Formula):
    """Henceforth interpreted as the interior of the orbit intersection."""

    child: Formula


def Not(phi: Formula) -> Formula:
    """Defined negation: phi -> false."""
    return Implies(phi, Bottom())


def Iff(phi: Formula, psi: Formula) -> Formula:
    """Defined biconditional: (phi -> psi) & (psi -> phi)."""
    return And(Implies(phi, psi), Implies(psi, phi))


BINARY_TYPES = (And, Or, Implies)
UNARY_TYPES = (Next, Eventually, StrongBox, WeakBox)


def children(phi: Formula) -> tuple[Formula, ...]:
    if isinstance(phi, BINARY_TYPES):
        return (phi.left, phi.right)
    if isinstance(phi, UNARY_TYPES):
        return (phi.child,)
    return ()


def subformulas(phi: Formula) -> list[Formula]:
    """Distinct subformulas in deterministic bottom-up (postorder) order.

    Children always precede their parents; the whole formula comes last.
    """
    out: list[Formula] = []
    seen: set[Formula] = set()

    def walk(f: Formula) -> None:
        if f in seen:
            return
        for c in children(f):
            walk(c)
        if f not in seen:
            seen.add(f)
            out.append(f)

    walk(phi)
    return out


def atoms(phi: Formula) -> list[str]:
    """Atom names occurring in phi, sorted."""
    return sorted({f.name for f in subformulas(phi) if isinstance(f, Atom)})


Program = list[tuple[type, int, int]]


def compile_formula(phi: Formula) -> tuple[Program, list[str]]:
    """Postorder op program of phi and its atom names, as `atoms(phi)`.

    The program has one (op, a, b) entry per entry of `subformulas(phi)`, in
    the same order, so the last one is phi itself. The op is the node class.
    For an atom, a is the index of its name; for other nodes a and b are the
    program indices of the children (0 where a node has fewer). Entries are
    keyed by (op, a, b), so no formula object is hashed.
    """
    program: Program = []
    position: dict[tuple, int] = {}

    def walk(f: Formula) -> int:
        if isinstance(f, Atom):
            key = (Atom, f.name, 0)
        else:
            kids = [walk(c) for c in children(f)] + [0, 0]
            key = (type(f), kids[0], kids[1])
        if key not in position:
            position[key] = len(program)
            program.append(key)
        return position[key]

    walk(phi)
    names = sorted(name for op, name, _ in program if op is Atom)
    slot = {name: i for i, name in enumerate(names)}
    program = [(op, slot[a], 0) if op is Atom else (op, a, b) for op, a, b in program]
    return program, names


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
        for f in subformulas(phi):
            if isinstance(f, Eventually) and not self.eventually:
                return False
            if isinstance(f, StrongBox) and not self.strong_box:
                return False
            if isinstance(f, WeakBox) and not self.weak_box:
                return False
        return True


FRAGMENTS: dict[str, LanguageFragment] = {
    "db": LanguageFragment(eventually=True, strong_box=True, weak_box=False),
    "dw": LanguageFragment(eventually=True, strong_box=False, weak_box=True),
    "b": LanguageFragment(eventually=False, strong_box=True, weak_box=False),
    "w": LanguageFragment(eventually=False, strong_box=False, weak_box=True),
    "d": LanguageFragment(eventually=True, strong_box=False, weak_box=False),
}


def _swap_boxes(phi: Formula, src: type, dst: type, forbidden: type) -> Formula:
    if isinstance(phi, forbidden):
        raise ValueError("formula mixes both henceforth flavors")
    if isinstance(phi, src):
        return dst(_swap_boxes(phi.child, src, dst, forbidden))
    if isinstance(phi, BINARY_TYPES):
        return type(phi)(
            _swap_boxes(phi.left, src, dst, forbidden),
            _swap_boxes(phi.right, src, dst, forbidden),
        )
    if isinstance(phi, UNARY_TYPES):
        return type(phi)(_swap_boxes(phi.child, src, dst, forbidden))
    return phi


def translate_weak(phi: Formula) -> Formula:
    """Replace every strong box by a weak box. Rejects mixed input."""
    return _swap_boxes(phi, StrongBox, WeakBox, WeakBox)


def translate_strong(phi: Formula) -> Formula:
    """Replace every weak box by a strong box. Rejects mixed input."""
    return _swap_boxes(phi, WeakBox, StrongBox, StrongBox)


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
