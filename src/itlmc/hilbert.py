"""Hilbert-style derivation checking for the temporal logic family.

A logic is a named set of axiom schemas plus inference rules over one of
the language fragments.  Derivations are line sequences; every line must
be an axiom instance, an intuitionistic tautology, or follow from earlier
lines by a rule.  Propositional reasoning is discharged by a decision
procedure for intuitionistic propositional logic that treats maximal
tensed subformulas as opaque atoms.

Axiom schema names (metavariables ``phi``, ``psi``):

    ii        ~O false
    iii       O(phi & psi) <-> O phi & O psi
    iv        O(phi | psi) <-> O phi | O psi
    v         O(phi -> psi) -> (O phi -> O psi)
    vi        [](phi -> psi) -> ([]phi -> []psi)
    vii       [](phi -> psi) -> (<>phi -> <>psi)
    viii      []phi -> phi
    ix        []phi -> O[]phi
    x         phi -> <>phi
    xi        O<>phi -> <>phi
    xii       [](phi -> O phi) -> (phi -> []phi)
    xiii      [](O phi -> phi) -> (<>phi -> phi)
    wh        []phi -> []O phi
    fs-next   (O phi -> O psi) -> O(phi -> psi)
    cd        [](phi | psi) -> []phi | <>psi
    cd-minus  [](~phi | phi) -> []~phi | <>phi
    bi        []( phi | psi) & [](O psi -> psi) -> []phi | psi
    cem       (~O phi & O~~phi) -> (O psi | ~O psi)

Plus a finite basis for fully explicit propositional steps: ipc-k, ipc-s,
ipc-and-intro, ipc-and-left, ipc-and-right, ipc-or-left, ipc-or-right,
ipc-or-elim, ipc-efq.

Rules: mp, nec-next, nec-box, and (in the next/eventually fragment)
dia-mono and dia-ind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .formula import (
    FRAGMENTS,
    And,
    Atom,
    Bottom,
    Eventually,
    Formula,
    Iff,
    Implies,
    InputError,
    LanguageFragment,
    Next,
    Not,
    Or,
    StrongBox,
    WeakBox,
    atoms,
    bi,
    cd,
    cd_minus,
    cem,
    children,
    fold,
    fs_next,
    operators,
    translate_weak,
    walk,
    wh,
)


class MissingMetavariable(InputError):
    """An axiom justification that leaves a metavariable of its schema unassigned."""


class UnknownLogic(InputError, KeyError):
    """No axiom system by the name given."""


# --------------------------------------------------------------------------
# schemas, rules, logics

@dataclass(frozen=True)
class Schema:
    """An axiom template; every atom occurring in it is a metavariable."""

    name: str
    template: Formula

    @cached_property
    def metavars(self) -> tuple[str, ...]:
        return tuple(atoms(self.template))


@dataclass(frozen=True)
class Rule:
    name: str
    premises: tuple[Formula, ...]
    conclusion: Formula


@dataclass(frozen=True)
class LogicSpec:
    """A named axiomatic system over one language fragment.

    Weak-rendered logics (suffixes .dw and .w) state their schemas and
    rules with the weak box, the language their derivations are written in,
    so a line is matched against them as written.
    """

    name: str
    fragment_code: str
    axioms: dict[str, Schema]
    rules: dict[str, Rule]

    @property
    def fragment(self) -> LanguageFragment:
        return FRAGMENTS[self.fragment_code]

    @property
    def weak_rendered(self) -> bool:
        return self.fragment.weak_box

    @property
    def base_name(self) -> str:
        return self.name.split(".", 1)[0]


# --------------------------------------------------------------------------
# derivations

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


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failed_line: Optional[int]
    reason: Optional[str]
    line_count: int


# --------------------------------------------------------------------------
# matching and instantiation

def _match_into(template: Formula, target: Formula, binding: dict) -> bool:
    """Extend binding so that template, its atoms bound, equals target."""
    todo = [(template, target)]
    while todo:
        t, f = todo.pop()
        op = type(t)
        if op is Atom:
            if binding.setdefault(t.name, f) is not f:
                return False
        elif op is not type(f):
            return False
        else:
            todo.extend(zip(children(t), children(f)))
    return True


def _check_subst(schema: Schema, subst: dict[str, Formula]) -> None:
    """Raise unless subst assigns exactly the schema's metavariables.

    An unknown name is reported before a missing one, and of several
    missing ones the first in sorted order.
    """
    metavars = schema.metavars
    for name in subst:
        if name not in metavars:
            raise InputError(f"axiom {schema.name!r} has no metavariable {name!r}")
    for name in metavars:
        if name not in subst:
            raise MissingMetavariable(
                f"metavariable {name!r} of axiom {schema.name!r} is not assigned"
            )


def instantiate(schema: Schema, subst: dict[str, Formula]) -> Formula:
    _check_subst(schema, subst)

    def put(f: Formula, args: tuple) -> Formula:
        if type(f) is Atom:
            return subst[f.name]
        return type(f)(*args) if args else f

    return fold(schema.template, put)


# --------------------------------------------------------------------------
# intuitionistic propositional tautology decision
#
# Dyckhoff's contraction-free sequent calculus LJT over the positions of
# walk(phi): a sequent is a frozenset of positions plus a goal position.
# Tensed entries are atoms, and equal subformulas share one position.  The
# implications the rules build are interned into the same (op, a, b) table.
# Every rule strictly decreases sequent weight, so the search terminates;
# it runs on an explicit stack of rule generators with a memo per call.

_OPAQUE = (Atom, Next, Eventually, StrongBox, WeakBox)  # entries read as atoms


def is_ipc_tautology(phi: Formula) -> bool:
    """Decide intuitionistic validity, tensed subformulas read as atoms.

    The search reads walk positions, not formula objects, so formula depth
    is not bounded by the recursion limit.
    """
    program = walk(phi)[1]
    index = {key: i for i, key in enumerate(program)}
    bottom = index.get((Bottom, 0, 0))

    def implies(a: int, b: int) -> int:
        key = (Implies, a, b)
        if key not in index:
            index[key] = len(program)
            program.append(key)
        return index[key]

    def rules(gamma: frozenset, goal: int):
        # yields the sequents a rule needs and is sent their verdicts
        if bottom in gamma or goal in gamma:
            return True
        for f in gamma:
            op, a, b = program[f]
            if op is And:
                return (yield (gamma - {f}) | {a, b}, goal)
            if op is Or:
                rest = gamma - {f}
                return (yield rest | {a}, goal) and (yield rest | {b}, goal)
            if op is Implies:
                head, c, d = program[a]
                if head is Bottom:
                    return (yield gamma - {f}, goal)
                if head in _OPAQUE and a in gamma:
                    return (yield (gamma - {f}) | {b}, goal)
                if head is And:
                    return (yield (gamma - {f}) | {implies(c, implies(d, b))}, goal)
                if head is Or:
                    return (yield (gamma - {f}) | {implies(c, b), implies(d, b)}, goal)
        op, a, b = program[goal]
        if op is And:
            return (yield gamma, a) and (yield gamma, b)
        if op is Implies:
            return (yield gamma | {a}, b)
        if op is Or and ((yield gamma, a) or (yield gamma, b)):
            return True
        for f in gamma:
            op, a, b = program[f]
            if op is Implies and program[a][0] is Implies:
                rest = gamma - {f}
                d = program[a][2]
                if (yield rest | {implies(d, b)}, a) and (yield rest | {b}, goal):
                    return True
        return False

    memo: dict[tuple, bool] = {}
    top = (frozenset(), len(program) - 1)
    stack = [(top, rules(*top))]
    verdict = None
    while stack:
        sequent, search = stack[-1]
        try:
            sub = search.send(verdict)
        except StopIteration as done:
            stack.pop()
            verdict = memo[sequent] = done.value
            continue
        verdict = memo.get(sub)
        if verdict is None:
            stack.append((sub, rules(*sub)))
    return verdict


# --------------------------------------------------------------------------
# the logic registry

_PHI = Atom("phi")
_PSI = Atom("psi")
_CHI = Atom("chi")

_CORE_TEMPLATES = {
    "ii": Not(Next(Bottom())),
    "iii": Iff(Next(And(_PHI, _PSI)), And(Next(_PHI), Next(_PSI))),
    "iv": Iff(Next(Or(_PHI, _PSI)), Or(Next(_PHI), Next(_PSI))),
    "v": Implies(Next(Implies(_PHI, _PSI)), Implies(Next(_PHI), Next(_PSI))),
    "vi": Implies(
        StrongBox(Implies(_PHI, _PSI)), Implies(StrongBox(_PHI), StrongBox(_PSI))
    ),
    "vii": Implies(
        StrongBox(Implies(_PHI, _PSI)), Implies(Eventually(_PHI), Eventually(_PSI))
    ),
    "viii": Implies(StrongBox(_PHI), _PHI),
    "ix": Implies(StrongBox(_PHI), Next(StrongBox(_PHI))),
    "x": Implies(_PHI, Eventually(_PHI)),
    "xi": Implies(Next(Eventually(_PHI)), Eventually(_PHI)),
    "xii": Implies(
        StrongBox(Implies(_PHI, Next(_PHI))), Implies(_PHI, StrongBox(_PHI))
    ),
    "xiii": Implies(
        StrongBox(Implies(Next(_PHI), _PHI)), Implies(Eventually(_PHI), _PHI)
    ),
}

_EXTRA_TEMPLATES = {
    "wh": wh(_PHI),
    "fs-next": fs_next(_PHI, _PSI),
    "cd": cd(_PHI, _PSI),
    "cd-minus": cd_minus(_PHI),
    "bi": bi(_PHI, _PSI),
    "cem": cem(_PHI, _PSI),
}

_IPC_BASIS_TEMPLATES = {
    "ipc-k": Implies(_PHI, Implies(_PSI, _PHI)),
    "ipc-s": Implies(
        Implies(_PHI, Implies(_PSI, _CHI)),
        Implies(Implies(_PHI, _PSI), Implies(_PHI, _CHI)),
    ),
    "ipc-and-intro": Implies(_PHI, Implies(_PSI, And(_PHI, _PSI))),
    "ipc-and-left": Implies(And(_PHI, _PSI), _PHI),
    "ipc-and-right": Implies(And(_PHI, _PSI), _PSI),
    "ipc-or-left": Implies(_PHI, Or(_PHI, _PSI)),
    "ipc-or-right": Implies(_PSI, Or(_PHI, _PSI)),
    "ipc-or-elim": Implies(
        Implies(_PHI, _CHI),
        Implies(Implies(_PSI, _CHI), Implies(Or(_PHI, _PSI), _CHI)),
    ),
    "ipc-efq": Implies(Bottom(), _PHI),
}

ALL_SCHEMAS: dict[str, Schema] = {
    name: Schema(name, template)
    for name, template in {**_CORE_TEMPLATES, **_EXTRA_TEMPLATES, **_IPC_BASIS_TEMPLATES}.items()
}

IPC_BASIS_NAMES = tuple(_IPC_BASIS_TEMPLATES)

_CORE_NAMES = tuple(_CORE_TEMPLATES)

_BASE_AXIOMS: dict[str, tuple[str, ...]] = {
    "ITL": _CORE_NAMES,
    "ITL0": tuple(n for n in _CORE_NAMES if n != "ix") + ("wh",),
    "ETL": _CORE_NAMES + ("cd-minus",),
    "RTL": _CORE_NAMES + ("cd-minus", "cem"),
    "CDTL": _CORE_NAMES + ("cd",),
    "ITL+": _CORE_NAMES + ("fs-next",),
    "ETL+": _CORE_NAMES + ("fs-next", "cd-minus"),
    "CDTL+": _CORE_NAMES + ("fs-next", "cd"),
}

_RULE_MP = Rule("mp", (_PHI, Implies(_PHI, _PSI)), _PSI)
_RULE_NEC_NEXT = Rule("nec-next", (_PHI,), Next(_PHI))
_RULE_NEC_BOX = Rule("nec-box", (_PHI,), StrongBox(_PHI))
_RULE_DIA_MONO = Rule(
    "dia-mono", (Implies(_PHI, _PSI),), Implies(Eventually(_PHI), Eventually(_PSI))
)
_RULE_DIA_IND = Rule(
    "dia-ind", (Implies(Next(_PHI), _PHI),), Implies(Eventually(_PHI), _PHI)
)

_BOX_RULES = {r.name: r for r in (_RULE_MP, _RULE_NEC_NEXT, _RULE_NEC_BOX)}
_DIA_RULES = {
    r.name: r for r in (_RULE_MP, _RULE_NEC_NEXT, _RULE_DIA_MONO, _RULE_DIA_IND)
}


def _weak_base(names: tuple[str, ...]) -> tuple[str, ...]:
    # Henceforth in its weak reading loses the next-step axiom; the
    # weak-henceforth axiom takes its place.  Sets already built that way
    # (or containing the functional-step or constant-domain axioms, whose
    # systems keep the strong reading) are unchanged.
    if "ix" not in names or "fs-next" in names or "cd" in names:
        return names
    return tuple(n for n in names if n != "ix") + ("wh",)


def _drop_eventually(names: tuple[str, ...]) -> tuple[str, ...]:
    kept = tuple(n for n in names if Eventually not in operators(ALL_SCHEMAS[n].template))
    if "cd" in names:
        kept += ("bi",)
    return kept


def _drop_henceforth(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(n for n in names if StrongBox not in operators(ALL_SCHEMAS[n].template))


_WEAK_SCHEMAS = {n: Schema(n, translate_weak(s.template)) for n, s in ALL_SCHEMAS.items()}


def _spec(name: str, code: str, axiom_names: tuple[str, ...], rules):
    """The logic; over a weak-box fragment its schemas and rules use the weak box."""
    schemas = _WEAK_SCHEMAS if FRAGMENTS[code].weak_box else ALL_SCHEMAS
    if schemas is _WEAK_SCHEMAS:
        rules = {n: Rule(n, tuple(map(translate_weak, r.premises)), translate_weak(r.conclusion))
                 for n, r in rules.items()}
    axioms = {n: schemas[n] for n in (*axiom_names, *IPC_BASIS_NAMES)}
    return LogicSpec(name, code, axioms, dict(rules))


def build_logics() -> dict[str, LogicSpec]:
    logics: dict[str, LogicSpec] = {}
    for base, names in _BASE_AXIOMS.items():
        weak_names = _weak_base(names)
        logics[f"{base}.db"] = _spec(f"{base}.db", "db", names, _BOX_RULES)
        logics[f"{base}.dw"] = _spec(f"{base}.dw", "dw", weak_names, _BOX_RULES)
        logics[f"{base}.b"] = _spec(f"{base}.b", "b", _drop_eventually(names), _BOX_RULES)
        logics[f"{base}.w"] = _spec(f"{base}.w", "w", _drop_eventually(weak_names), _BOX_RULES)
        logics[f"{base}.d"] = _spec(f"{base}.d", "d", _drop_henceforth(names), _DIA_RULES)
    return logics


LOGICS: dict[str, LogicSpec] = build_logics()


def get_logic(name: str) -> LogicSpec:
    spec = LOGICS.get(name)
    if spec is None:
        raise UnknownLogic(
            f"unknown logic {name!r}; available: {', '.join(sorted(LOGICS))}"
        )
    return spec


# --------------------------------------------------------------------------
# checking

def _justify(line: DerivationLine, lines: tuple, logic: LogicSpec) -> Optional[str]:
    """Why the line's justification fails, or None when it holds."""
    phi, just = line.formula, line.justification
    if isinstance(just, IpcTaut):
        return None if is_ipc_tautology(phi) else "not an intuitionistic tautology"
    if isinstance(just, AxiomJust):
        schema = logic.axioms.get(just.schema)
        if schema is None:
            return f"axiom {just.schema!r} is not part of {logic.name}"
        if just.subst is None:
            if _match_into(schema.template, phi, {}):
                return None
            return f"formula does not match axiom {just.schema!r}"
        try:
            _check_subst(schema, just.subst)
        except InputError as err:
            return str(err)
        if _match_into(schema.template, phi, dict(just.subst)):
            return None
        return f"formula is not the stated instance of axiom {just.schema!r}"
    if isinstance(just, RuleJust):
        rule = logic.rules.get(just.rule)
        if rule is None:
            return f"rule {just.rule!r} is not part of {logic.name}"
        if len(just.premises) != len(rule.premises):
            return f"rule {just.rule!r} takes {len(rule.premises)} premise(s)"
        if any(i < 1 or i >= line.number for i in just.premises):
            return "premise references must point at earlier lines"
        # Every metavariable of a conclusion occurs in its premises, so
        # matching the conclusion under their binding only compares.
        binding: dict[str, Formula] = {}
        templates = (*rule.premises, rule.conclusion)
        targets = (*(lines[i - 1].formula for i in just.premises), phi)
        if all(_match_into(t, f, binding) for t, f in zip(templates, targets)):
            return None
        return f"rule {just.rule!r} does not derive this line from the cited premises"
    return "unknown justification"


def check(derivation: Derivation, logic: LogicSpec) -> CheckResult:
    """Check a derivation line by line and reject at the first failing line.

    Each line is checked for its number, then for the logic's language as
    written, then for its justification.
    """
    lines = derivation.lines
    total = len(lines)
    if not lines:
        return CheckResult(False, None, "empty derivation", 0)
    for expected, line in enumerate(lines, 1):
        if line.number != expected:
            reason = f"expected line number {expected}"
        elif not logic.fragment.allows(line.formula):
            reason = "formula outside the logic's language"
        else:
            reason = _justify(line, lines, logic)
        if reason is not None:
            return CheckResult(False, line.number, reason, total)
    return CheckResult(True, None, None, total)
