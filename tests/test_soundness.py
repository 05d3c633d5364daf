"""Each axiom system's soundness theorem as an oracle across the engines.

Seeded random derivations, built from axiom instances and `ipc-taut` lines
by `mp`, `nec-next` and `nec-box` in every `.db` and weak-rendered logic,
must pass `hilbert.check`. Every line of one is a theorem, so it must have
no countermodel up to bound 3 in the logic's sound poset classes, and must
denote all of R, or be undetermined, on every real system the logic is
sound for (`search.SOUND_STRUCTURES`): the four bundled systems and seeded
random ones, invertible maps standing for `real-open`. A wrong schema or
rule, or a wrong engine, surfaces as a line that fails.
"""

import random
from fractions import Fraction

import pytest

from itlmc import (
    REALS,
    And,
    Corpus,
    Derivation,
    DerivationLine,
    Implies,
    LOGICS,
    Next,
    PiecewiseAffineMap,
    RealSystem,
    SOUND_STRUCTURES,
    SemanticClass,
    StrongBox,
    ValidUpTo,
    WeakBox,
    check,
    eval_real,
    instantiate,
    parse_formula,
    translate_weak,
    validity,
)
from itlmc.parser import AxiomJust, IpcTaut, RuleJust
from conftest import random_interval_set, random_map

_PARTS = tuple(map(parse_formula, (
    "p", "q", "false", "~p", "O p", "[]p", "<>q", "p -> q", "p | ~p", "O p & q", "[](p -> q)",
)))
_SLOPES = tuple(Fraction(a) for a in ("1/2", "1", "2", "3"))


def _derivation(rng: random.Random, logic, names) -> Derivation:
    """A random derivation in the logic over the atoms p and q, from an
    instance of each named schema."""
    box = WeakBox if logic.weak_rendered else StrongBox
    parts = [f for f in (translate_weak(f) if logic.weak_rendered else f for f in _PARTS)
             if logic.fragment.allows(f)]
    lines: list[DerivationLine] = []

    def add(phi, just) -> DerivationLine:
        lines.append(DerivationLine(len(lines) + 1, phi, just))
        return lines[-1]

    def axiom(name, subst) -> DerivationLine:
        return add(instantiate(logic.axioms[name], subst), AxiomJust(name, subst))

    for name in names:
        axiom(name, {mv: rng.choice(parts) for mv in logic.axioms[name].metavars})
    for _ in range(8):
        move = rng.randrange(5)
        if move == 0:
            # a schema instance, some metavariables set to earlier theorems
            name = rng.choice(sorted(logic.axioms))
            pool = parts + [line.formula for line in lines[-3:]]
            axiom(name, {mv: rng.choice(pool) for mv in logic.axioms[name].metavars})
        elif move == 1:
            # A and B give A & B: A -> B -> A & B, then mp twice
            a, b = rng.choice(lines), rng.choice(lines)
            both = And(a.formula, b.formula)
            taut = add(Implies(a.formula, Implies(b.formula, both)), IpcTaut())
            half = add(Implies(b.formula, both), RuleJust("mp", (a.number, taut.number)))
            add(both, RuleJust("mp", (b.number, half.number)))
        elif move == 2:
            a = rng.choice(lines)
            rule, op = rng.choice((("nec-next", Next), ("nec-box", box)))
            add(op(a.formula), RuleJust(rule, (a.number,)))
        elif move == 3:
            # A -> B gives []A -> []B: nec-box, axiom vi, mp
            implications = [line for line in lines if type(line.formula) is Implies]
            if implications:
                line = rng.choice(implications)
                a, b = line.formula.left, line.formula.right
                boxed = add(box(line.formula), RuleJust("nec-box", (line.number,)))
                k = axiom("vi", {"phi": a, "psi": b})
                add(Implies(box(a), box(b)), RuleJust("mp", (boxed.number, k.number)))
        else:
            # modus ponens wherever an implication's antecedent is a line
            have = {line.formula: line.number for line in lines}
            ready = [line for line in lines if type(line.formula) is Implies
                     and line.formula.left in have and line.formula.right not in have]
            if ready:
                line = rng.choice(ready)
                add(line.formula.right, RuleJust("mp", (have[line.formula.left], line.number)))
    return Derivation(tuple(lines))


def _invertible_map(rng: random.Random) -> PiecewiseAffineMap:
    """A random increasing map with up to two breakpoints: a bijection of R."""
    ends = (Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rng.randint(0, 2)))
    breakpoints = sorted(set(ends))
    pieces = [(rng.choice(_SLOPES), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))]
    for b in breakpoints:
        a, c = pieces[-1]
        slope = rng.choice(_SLOPES)
        pieces.append((slope, a * b + c - slope * b))
    return PiecewiseAffineMap.from_pieces(breakpoints, pieces)


def _real_systems() -> list[tuple[str, RealSystem]]:
    """(structure, system): the bundled systems, then seeded random and invertible ones."""
    corpus, rng = Corpus(), random.Random(7304)
    systems = [corpus.load(name, "real-system")
               for name in ("r-double", "r-kinked", "r-const", "r-shift")]
    for make in (random_map, _invertible_map) * 3:
        valuation = {atom: random_interval_set(rng).interior() for atom in "pq"}
        systems.append(RealSystem(make(rng), valuation))
    assert sum(system.map.is_open() for system in systems) >= 4
    return [("real-open" if system.map.is_open() else "real", system) for system in systems]


_LOGICS = sorted(name for name, logic in LOGICS.items()
                 if name.endswith(".db") or logic.weak_rendered)


@pytest.mark.parametrize("name", _LOGICS)
def test_derived_theorems_hold_where_the_logic_is_sound(name):
    logic, rng = LOGICS[name], random.Random(f"soundness {name}")
    sound = SOUND_STRUCTURES[logic.base_name]
    classes = [SemanticClass(kind, 3) for kind in "ep" if f"poset-{kind}" in sound]
    # a real system of an invertible map is also a continuous one
    systems = [system for tag, system in _real_systems()
               if tag in sound or ("real" in sound and tag == "real-open")]
    names, theorems = rng.sample(sorted(logic.axioms), len(logic.axioms)), set()
    for i in range(3):
        derivation = _derivation(rng, logic, names[i::3])
        result = check(derivation, logic)
        assert result.ok, (result, derivation)
        theorems.update(line.formula for line in derivation.lines)
    for phi in theorems:
        for semclass in classes:
            verdict = validity(phi, semclass)
            assert isinstance(verdict, ValidUpTo), (phi, semclass, verdict)
        for system in systems:
            value = eval_real(system, phi).value
            assert value is None or value == REALS, (phi, system, str(value))
