import hashlib
import random
import re
from dataclasses import replace
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from itlmc import (
    ALL_SCHEMAS,
    And,
    Atom,
    Bottom,
    Corpus,
    Derivation,
    DerivationLine,
    Eventually,
    Formula,
    Implies,
    LOGICS,
    Next,
    Or,
    SemanticClass,
    StrongBox,
    UnknownLogic,
    ValidUpTo,
    WeakBox,
    check,
    get_logic,
    instantiate,
    is_ipc_tautology,
    parse_derivation,
    parse_formula,
    print_formula,
    translate_weak,
    validity,
)
from itlmc.formula import FRAGMENTS, atoms, children, fold, walk
from itlmc.hilbert import IPC_BASIS_NAMES, RULE_TABLE, SCHEMA_TABLE, CheckResult, Rule, Schema
from itlmc.parser import AxiomJust, IpcTaut, RuleJust
from conftest import formulas

P, Q = Atom("p"), Atom("q")


# -- intuitionistic tautology decider ----------------------------------------

ACCEPTED = [
    "p -> p",
    "p -> q -> p",
    "(p -> q -> r) -> (p -> q) -> p -> r",
    "p & q -> p",
    "p -> p | q",
    "false -> p",
    "~~(p | ~p)",
    "(p -> q) -> ~q -> ~p",
    "~~~p -> ~p",
    "((p | q) -> r) -> (p -> r) & (q -> r)",
]

REJECTED = [
    "p | ~p",
    "~~p -> p",
    "((p -> q) -> p) -> p",  # Peirce
    "(p -> q) | (q -> p)",
    "~(p & q) -> ~p | ~q",
    "((p -> p) -> q) -> r",  # the first premise of its rule holds, the second not
]


@pytest.mark.parametrize("text", ACCEPTED)
def test_ipc_accepts(text):
    assert is_ipc_tautology(parse_formula(text))


@pytest.mark.parametrize("text", REJECTED)
def test_ipc_rejects(text):
    assert not is_ipc_tautology(parse_formula(text))


def test_ipc_basis_schemas_are_tautologies():
    for name in LOGICS["ITL.db"].axioms:
        if name.startswith("ipc-"):
            assert is_ipc_tautology(ALL_SCHEMAS[name].template), name


def test_tense_subformulas_are_abstracted_not_unfolded():
    # sound: tensed parts behave as opaque atoms, so this is just K
    assert is_ipc_tautology(
        Implies(Eventually(P), Implies(StrongBox(Q), Eventually(P)))
    )
    # and no temporal reasoning leaks in: this needs the logic, not IPC
    assert not is_ipc_tautology(
        Implies(Implies(Eventually(P), StrongBox(Q)), Implies(P, Q))
    )
    # identical tensed subformulas must be identified, though
    assert is_ipc_tautology(Implies(StrongBox(P), StrongBox(P)))


def test_placeholders_never_equal_an_atom_of_the_formula():
    # '#' is no identifier character, but library callers can still build
    # such atoms, so a placeholder must avoid them all
    h0, h1, hh, hh0 = Atom("#0"), Atom("#1"), Atom("##"), Atom("##0")
    op = Next(P)
    for phi in (
        Implies(h0, op), Implies(op, h1), Implies(hh, Implies(hh0, op)), Implies(op, Next(Q))
    ):
        assert not is_ipc_tautology(phi), phi
    assert is_ipc_tautology(Implies(And(h0, op), And(op, h0)))
    line = DerivationLine(1, Implies(h0, op), IpcTaut())
    assert not check(Derivation((line,)), get_logic("ITL.db")).ok


def test_deep_inputs_get_a_verdict():
    chain = P
    for _ in range(1999):
        chain = Implies(P, chain)
    assert is_ipc_tautology(chain)
    names = [Atom(f"p{i}") for i in range(600)]
    conjunction = names[0]
    for atom in names[1:]:
        conjunction = And(conjunction, atom)
    assert is_ipc_tautology(Implies(conjunction, names[0]))
    assert not is_ipc_tautology(Implies(conjunction, Q))


# -- reference prover ----------------------------------------------------------
#
# The recursive formula-level prover the library used before it read walk
# positions, kept as an independent oracle: the same contraction-free
# calculus, over formula objects, with tensed subformulas renamed to atoms.

_FALSE = Bottom()


def _abstract_tenses(phi: Formula) -> Formula:
    """Replace maximal tensed subformulas by placeholder atoms.

    Equal tensed subformulas share one walk position and so one placeholder.
    Placeholder names are longer than every atom name of phi, so none of
    them equals an atom of phi.
    """
    nodes, program = walk(phi)
    mark = "#" * (1 + max((len(a) for op, a, _ in program if op is Atom), default=0))
    out: list[Formula] = []
    for i, (f, (op, a, b)) in enumerate(zip(nodes, program)):
        if op in (Next, Eventually, StrongBox, WeakBox):
            out.append(Atom(f"{mark}{i}"))
        elif op in (And, Or, Implies):
            out.append(op(out[a], out[b]))
        else:
            out.append(f)
    return out[-1]


@lru_cache(maxsize=None)
def _prove(gamma: frozenset, goal: Formula) -> bool:
    if _FALSE in gamma or goal in gamma:
        return True
    for f in gamma:
        if isinstance(f, And):
            return _prove((gamma - {f}) | {f.left, f.right}, goal)
        if isinstance(f, Or):
            rest = gamma - {f}
            return _prove(rest | {f.left}, goal) and _prove(rest | {f.right}, goal)
        if isinstance(f, Implies):
            head = f.left
            if isinstance(head, Bottom):
                return _prove(gamma - {f}, goal)
            if isinstance(head, Atom) and head in gamma:
                return _prove((gamma - {f}) | {f.right}, goal)
            if isinstance(head, And):
                curried = Implies(head.left, Implies(head.right, f.right))
                return _prove((gamma - {f}) | {curried}, goal)
            if isinstance(head, Or):
                split = {
                    Implies(head.left, f.right),
                    Implies(head.right, f.right),
                }
                return _prove((gamma - {f}) | split, goal)
    if isinstance(goal, And):
        return _prove(gamma, goal.left) and _prove(gamma, goal.right)
    if isinstance(goal, Implies):
        return _prove(gamma | {goal.left}, goal.right)
    if isinstance(goal, Or) and (
        _prove(gamma, goal.left) or _prove(gamma, goal.right)
    ):
        return True
    for f in gamma:
        if isinstance(f, Implies) and isinstance(f.left, Implies):
            inner = f.left
            rest = gamma - {f}
            if _prove(rest | {Implies(inner.right, f.right)}, inner) and _prove(
                rest | {f.right}, goal
            ):
                return True
    return False


def _basis_instances(schema):
    args = formulas(("p", "q"), max_leaves=4)
    drawn = st.fixed_dictionaries({v: args for v in schema.metavars})
    return drawn.map(lambda subst: instantiate(schema, subst))


# tensed formulas over p and q, implications between two formulas with
# fewer tenses (which give the left rules an antecedent), and instances of
# the propositional basis, so that both verdicts are common
BASIS_INSTANCES = {name: _basis_instances(ALL_SCHEMAS[name]) for name in IPC_BASIS_NAMES}
_NEXT_ONLY = formulas(("p", "q"), allow_dia=False, allow_strong=False)
PROVER_INPUTS = st.one_of(
    formulas(("p", "q")),
    st.builds(Implies, _NEXT_ONLY, _NEXT_ONLY),
    st.sampled_from(IPC_BASIS_NAMES).flatmap(BASIS_INSTANCES.__getitem__),
)


@settings(max_examples=400, deadline=None)
@given(PROVER_INPUTS)
def test_prover_matches_the_reference(phi):
    assert is_ipc_tautology(phi) == _prove(frozenset(), _abstract_tenses(phi))


@settings(max_examples=120, deadline=None)
@given(PROVER_INPUTS)
def test_tautologies_have_no_kripke_countermodel(phi):
    # a dynamic poset is in particular a Kripke model of IPC, and tensed
    # subformulas are just some up-sets of it
    if is_ipc_tautology(phi):
        assert isinstance(validity(phi, SemanticClass("e", 3)), ValidUpTo), phi


# -- registry ----------------------------------------------------------------

def test_registry_shape():
    assert len(LOGICS) == 40
    bases = {"ITL", "ITL0", "ETL", "RTL", "CDTL", "ITL+", "ETL+", "CDTL+"}
    suffixes = {"db", "dw", "b", "w", "d"}
    assert {name.split(".")[0] for name in LOGICS} == bases
    assert {name.split(".")[1] for name in LOGICS} == suffixes
    for name, logic in LOGICS.items():
        assert {"ipc-k", "ipc-s", "ipc-efq"} <= set(logic.axioms)
        assert "mp" in logic.rules
        assert logic.weak_rendered == name.endswith((".dw", ".w"))


def _registry_text() -> str:
    """Each logic's fragment and axiom and rule names, then each template and rule, as repr."""
    lines = []
    for name, logic in LOGICS.items():
        names = f"{' '.join(logic.axioms)} | {' '.join(logic.rules)}"
        lines.append(f"{name} {logic.fragment_code} {names}")
        lines += [f"  {s.name}: {s.template!r}" for s in logic.axioms.values()]
        lines += [f"  {r.name}: {r.premises!r} => {r.conclusion!r}" for r in logic.rules.values()]
    return "\n".join(lines)


def test_registry_is_the_one_recorded():
    # Recorded when each schema was still built node by node: all 40
    # logics, as 930 lines of text, must stay as they were.
    digest = hashlib.sha256(_registry_text().encode()).hexdigest()
    assert digest == "c804e5d6a00f9e63abe463e33dff5982b60e83caf1ac9722750e87907cff1615"


def test_each_table_line_is_the_node_that_prints_and_parses_back():
    lines = [line.split(None, 1) for line in SCHEMA_TABLE.splitlines() if line]
    assert [name for name, _ in lines] == list(ALL_SCHEMAS)
    for name, text in lines:
        template = ALL_SCHEMAS[name].template
        assert parse_formula(text) is template, name
        assert parse_formula(print_formula(template)) is template, name
    rules = LOGICS["ITL.db"].rules | LOGICS["ITL.d"].rules
    assert [name for name, *_ in RULE_TABLE] == list(rules)
    for name, *texts in RULE_TABLE:
        rule = rules[name]
        for text, node in zip(texts, (*rule.premises, rule.conclusion), strict=True):
            assert parse_formula(text) is node and parse_formula(print_formula(node)) is node, name


@pytest.mark.parametrize("name", sorted(LOGICS))
def test_each_logic_states_its_axioms_and_rules_in_its_own_language(name):
    # A weak-rendered logic states with [*] what its strong twin states
    # with [], so a derivation line and the schema it cites are compared as
    # written.
    logic = LOGICS[name]
    allows = logic.fragment.allows
    for schema in logic.axioms.values():
        assert allows(schema.template), schema.name
        if logic.weak_rendered:
            assert schema.template == translate_weak(ALL_SCHEMAS[schema.name].template)
    for rule in logic.rules.values():
        assert all(map(allows, (*rule.premises, rule.conclusion))), rule.name


def test_every_db_logic_has_the_same_rules():
    # The inclusion check of a solid separation edge compares axioms only;
    # it relies on the `.db` logics it compares having one rule set.
    db_rules = {name: set(logic.rules) for name, logic in LOGICS.items() if name.endswith(".db")}
    assert len(db_rules) == 8
    assert all(rules == {"mp", "nec-box", "nec-next"} for rules in db_rules.values())


def test_weak_underlying_swap():
    # the forward-step axiom weakens where no shift/distribution axiom forces it
    for base in ("ITL", "ETL", "RTL"):
        assert "ix" not in LOGICS[f"{base}.dw"].axioms
        assert "wh" in LOGICS[f"{base}.dw"].axioms
    for base in ("ITL+", "ETL+", "CDTL", "CDTL+"):
        assert "ix" in LOGICS[f"{base}.dw"].axioms
    assert "wh" in LOGICS["ITL0.db"].axioms and "ix" not in LOGICS["ITL0.db"].axioms


def test_diamond_free_and_box_free_fragments():
    for name, logic in LOGICS.items():
        if name.endswith((".b", ".w")):
            assert "x" not in logic.axioms and "xiii" not in logic.axioms
            assert "nec-box" in logic.rules
        if name.endswith(".d"):
            assert "vi" not in logic.axioms and "xii" not in logic.axioms
            assert "nec-box" not in logic.rules
            assert {"dia-mono", "dia-ind"} <= set(logic.rules)
    # backward induction replaces distribution only in the diamond-free slice
    assert "bi" in LOGICS["CDTL.b"].axioms
    assert "bi" not in LOGICS["ETL.b"].axioms
    assert "bi" not in LOGICS["CDTL.db"].axioms


def test_get_logic_unknown():
    with pytest.raises(UnknownLogic, match="available"):
        get_logic("XYZ.db")


# -- derivation checking ------------------------------------------------------

def test_empty_derivation_rejected():
    from itlmc import Derivation, ParseError

    with pytest.raises(ParseError, match="no lines"):
        parse_derivation("# nothing here\n")
    result = check(Derivation(()), get_logic("ITL.db"))
    assert not result.ok and "empty" in result.reason


def test_axiom_instance_must_match_stated_substitution():
    bad = parse_derivation("1. []p -> O []p ; axiom ix {phi:=q}\n")
    result = check(bad, get_logic("ITL.db"))
    assert not result.ok and result.failed_line == 1


def test_axiom_must_belong_to_logic():
    deriv = parse_derivation("1. (O p -> O q) -> O(p -> q) ; axiom fs-next {phi:=p, psi:=q}\n")
    assert check(deriv, get_logic("ITL+.db")).ok
    result = check(deriv, get_logic("ITL.db"))
    assert not result.ok and "fs-next" in result.reason


def test_axiom_without_substitution_is_matched():
    deriv = parse_derivation("1. []q -> O []q ; axiom ix\n")
    assert check(deriv, get_logic("ITL.db")).ok
    bad = parse_derivation("1. []q -> O p ; axiom ix\n")
    assert not check(bad, get_logic("ITL.db")).ok


def test_rule_premise_mismatch():
    text = (
        "1. p -> p | q ; ipc-taut\n"
        "2. (p -> p | q) -> (p -> p | q) ; ipc-taut\n"
        "3. q ; mp 1 2\n"
    )
    result = check(parse_derivation(text), get_logic("ITL.db"))
    assert not result.ok and result.failed_line == 3


def test_rule_premise_count():
    result = check(
        parse_derivation("1. p -> p ; ipc-taut\n2. O(p -> p) ; nec-next 1 1\n"),
        get_logic("ITL.db"),
    )
    assert not result.ok and result.failed_line == 2


def test_nonconsecutive_numbering_is_a_parse_error():
    from itlmc import ParseError

    with pytest.raises(ParseError):
        parse_derivation("2. p -> p ; ipc-taut\n")


def test_fragment_enforced_per_line():
    deriv = parse_derivation("1. <>p -> <>p ; ipc-taut\n")
    result = check(deriv, get_logic("ITL.b"))
    assert not result.ok and "language" in result.reason


def test_monotone_in_the_axiom_set():
    # anything ITL.db accepts, every superset logic accepts verbatim
    text = (
        "1. []p -> O []p               ; axiom ix {phi:=p}\n"
        "2. []([]p -> O []p)           ; nec-box 1\n"
        "3. []([]p -> O []p) -> ([]p -> [][]p) ; axiom xii {phi:=[]p}\n"
        "4. []p -> [][]p               ; mp 2 3\n"
    )
    deriv = parse_derivation(text)
    for name in ("ITL.db", "ETL.db", "RTL.db", "CDTL.db", "ITL+.db", "ETL+.db", "CDTL+.db"):
        result = check(deriv, get_logic(name))
        assert result.ok, (name, result.reason)


def test_uniform_atom_renaming_preserves_acceptance():
    text = (
        "1. []p -> O []p               ; axiom ix {phi:=p}\n"
        "2. []([]p -> O []p)           ; nec-box 1\n"
        "3. []([]p -> O []p) -> ([]p -> [][]p) ; axiom xii {phi:=[]p}\n"
        "4. []p -> [][]p               ; mp 2 3\n"
    )
    renamed = re.sub(r"\bp\b", "zeta'", text)
    result = check(parse_derivation(renamed), get_logic("ITL.db"))
    assert result.ok
    assert check(parse_derivation(renamed), get_logic("ITL.db")).line_count == 4


# -- weak-rendered logics ------------------------------------------------------

def test_weak_rendering_reads_schemas_with_the_weak_box():
    strong_step = "1. [*]p -> O [*]p ; axiom ix {phi:=p}\n"
    assert check(parse_derivation(strong_step), get_logic("CDTL.dw")).ok
    result = check(parse_derivation(strong_step), get_logic("ITL.dw"))
    assert not result.ok and "ix" in result.reason


def test_weak_logic_has_weak_forward_axiom():
    deriv = parse_derivation("1. [*]p -> [*]O p ; axiom wh {phi:=p}\n")
    assert check(deriv, get_logic("ITL.dw")).ok


def test_weak_logic_rejects_strong_box_lines():
    deriv = parse_derivation("1. []p -> []p ; ipc-taut\n")
    result = check(deriv, get_logic("ITL.dw"))
    assert not result.ok and "language" in result.reason


def test_mixed_box_flavors_are_rejected_at_the_first_strong_box_line():
    deriv = parse_derivation(
        "1. [*]p -> [*]O p ; axiom wh {phi:=p}\n"
        "2. []p -> [*]p ; ipc-taut\n"
    )
    for logic in ("ITL.dw", "ITL.w"):
        result = check(deriv, get_logic(logic))
        assert (result.ok, result.failed_line) == (False, 2)
        assert "language" in result.reason


def test_substitution_values_are_read_in_the_weak_rendering():
    # cites the forward axiom at a weak-box instance
    deriv = parse_derivation("1. [*][*]p -> O [*][*]p ; axiom ix {phi:=[*]p}\n")
    assert check(deriv, get_logic("CDTL.dw")).ok


# -- instantiation -------------------------------------------------------------

def test_instantiate_requires_all_metavariables():
    from itlmc import MissingMetavariable

    schema = ALL_SCHEMAS["vi"]
    with pytest.raises(MissingMetavariable):
        instantiate(schema, {"phi": P})
    with pytest.raises(ValueError, match="no metavariable"):
        instantiate(schema, {"phi": P, "psi": Q, "chi": P})
    inst = instantiate(schema, {"phi": P, "psi": Q})
    assert inst == parse_formula("[](p -> q) -> ([]p -> []q)")
    # of several missing metavariables, the first in sorted order is named
    with pytest.raises(MissingMetavariable, match="'chi' of axiom 'ipc-s'"):
        instantiate(ALL_SCHEMAS["ipc-s"], {})


# -- the first failing line ------------------------------------------------------

def test_weak_logic_reports_the_first_failing_line():
    deriv = parse_derivation("1. p ; ipc-taut\n2. []p -> p ; axiom viii\n")
    for name in ("ITL.db", "ITL.dw"):
        result = check(deriv, get_logic(name))
        assert (result.failed_line, result.reason) == (1, "not an intuitionistic tautology")
    assert _reference_check(deriv, get_logic("ITL.dw")).failed_line == 2


def test_a_strong_substitution_in_a_weak_logic_is_not_the_stated_instance():
    deriv = parse_derivation("1. [*]p -> O [*]p ; axiom ix {phi:=[]p}\n")
    result = check(deriv, get_logic("CDTL.dw"))
    assert (result.failed_line, result.reason) == (
        1, "formula is not the stated instance of axiom 'ix'"
    )
    assert _reference_check(deriv, get_logic("CDTL.dw")).reason == _MIXED


def test_rule_conclusions_use_only_premise_metavariables():
    # this is what makes matching a conclusion under the premises' binding
    # the same as comparing the line with the substituted conclusion
    for logic in LOGICS.values():
        for rule in logic.rules.values():
            used = {name for premise in rule.premises for name in atoms(premise)}
            assert set(atoms(rule.conclusion)) <= used, (logic.name, rule.name)


# -- reference checker -----------------------------------------------------------
#
# The checker the library used before it matched weak renderings directly:
# strong-rendered logics run one pass for line numbers, then one for language
# and justification; weak-rendered logics first check every line's language,
# then translate every line and substitution, and the logic's schemas and
# rules, to the strong box and run the strong checker under the strong
# fragment. A missing metavariable is named in sorted order here as in the
# library; the old code named whichever a set gave first.

_MIXED = "formula mixes both henceforth flavors"


def translate_strong(phi):
    """Replace every weak box by a strong box. Rejects mixed input."""

    def swap(f, args):
        if type(f) is StrongBox:
            raise ValueError(_MIXED)
        return (StrongBox if type(f) is WeakBox else type(f))(*args) if args else f

    return fold(phi, swap)


def test_translate_strong_rejects_mixed_flavors():
    with pytest.raises(ValueError, match=_MIXED):
        translate_strong(And(StrongBox(P), WeakBox(Q)))


@given(formulas(allow_weak=False, allow_strong=True))
def test_translate_weak_then_strong_roundtrips(phi):
    assert translate_strong(translate_weak(phi)) == phi


@given(formulas(allow_weak=True, allow_strong=False))
def test_translate_strong_then_weak_roundtrips(phi):
    assert translate_weak(translate_strong(phi)) == phi


# Nodes are interned and immutable, so the reference may memoize per node.
@lru_cache(maxsize=None)
def _reference_operators(phi) -> frozenset:
    """Node classes in phi, by recursion over its fields, not its operator set."""
    found = {type(phi)}
    for name in type(phi).__match_args__:
        value = getattr(phi, name)
        if isinstance(value, Formula):
            found |= _reference_operators(value)
    return frozenset(found)


def _allows(fragment, phi) -> bool:
    ops = _reference_operators(phi)
    return (
        (fragment.eventually or Eventually not in ops)
        and (fragment.strong_box or StrongBox not in ops)
        and (fragment.weak_box or WeakBox not in ops)
    )


@lru_cache(maxsize=None)
def _to_strong(phi):
    try:
        return translate_strong(phi)
    except ValueError as err:
        return err


def _reference_match(template, target, binding) -> bool:
    todo = [(template, target)]
    while todo:
        t, f = todo.pop()
        if type(t) is Atom:
            if binding.setdefault(t.name, f) is not f:
                return False
        elif type(t) is not type(f):
            return False
        else:
            todo.extend(zip(children(t), children(f)))
    return True


def _reference_substitute(template, binding):
    def put(f, args):
        if type(f) is Atom:
            return binding[f.name]
        return type(f)(*args) if args else f

    return fold(template, put)


def _reference_instantiate(schema, subst):
    for name in subst:
        if name not in schema.metavars:
            raise ValueError(f"axiom {schema.name!r} has no metavariable {name!r}")
    for name in schema.metavars:
        if name not in subst:
            raise ValueError(
                f"metavariable {name!r} of axiom {schema.name!r} is not assigned"
            )
    return _reference_substitute(schema.template, subst)


def _reference_core(lines, logic, fragment) -> CheckResult:
    total = len(lines)

    def reject(number, reason):
        return CheckResult(False, number, reason, total)

    for expected, line in enumerate(lines, 1):
        if line.number != expected:
            return reject(line.number, f"expected line number {expected}")
    for line in lines:
        phi, just = line.formula, line.justification
        if not _allows(fragment, phi):
            return reject(line.number, "formula outside the logic's language")
        if isinstance(just, IpcTaut):
            if not is_ipc_tautology(phi):
                return reject(line.number, "not an intuitionistic tautology")
        elif isinstance(just, AxiomJust):
            schema = logic.axioms.get(just.schema)
            if schema is None:
                return reject(line.number, f"axiom {just.schema!r} is not part of {logic.name}")
            if just.subst is not None:
                try:
                    instance = _reference_instantiate(schema, just.subst)
                except ValueError as err:
                    return reject(line.number, str(err))
                if instance is not phi:
                    return reject(
                        line.number,
                        f"formula is not the stated instance of axiom {just.schema!r}",
                    )
            elif not _reference_match(schema.template, phi, {}):
                return reject(line.number, f"formula does not match axiom {just.schema!r}")
        else:
            rule = logic.rules.get(just.rule)
            if rule is None:
                return reject(line.number, f"rule {just.rule!r} is not part of {logic.name}")
            if len(just.premises) != len(rule.premises):
                return reject(
                    line.number, f"rule {just.rule!r} takes {len(rule.premises)} premise(s)"
                )
            if any(i < 1 or i >= line.number for i in just.premises):
                return reject(line.number, "premise references must point at earlier lines")
            binding = {}
            matched = all(
                _reference_match(template, lines[i - 1].formula, binding)
                for template, i in zip(rule.premises, just.premises)
            )
            if not matched or _reference_substitute(rule.conclusion, binding) is not phi:
                return reject(
                    line.number,
                    f"rule {just.rule!r} does not derive this line from the cited premises",
                )
    return CheckResult(True, None, None, total)


def _reference_check(derivation, logic) -> CheckResult:
    lines, total = derivation.lines, len(derivation.lines)
    if not lines:
        return CheckResult(False, None, "empty derivation", 0)
    if not logic.weak_rendered:
        return _reference_core(lines, logic, logic.fragment)
    for line in lines:
        if not _allows(logic.fragment, line.formula):
            return CheckResult(False, line.number, "formula outside the logic's language", total)
    translated = []
    for line in lines:
        just = line.justification
        values = [line.formula]
        if isinstance(just, AxiomJust) and just.subst is not None:
            values += just.subst.values()
        strong = [_to_strong(v) for v in values]
        error = next((v for v in strong if isinstance(v, ValueError)), None)
        if error is not None:
            return CheckResult(False, line.number, str(error), total)
        if isinstance(just, AxiomJust) and just.subst is not None:
            just = AxiomJust(just.schema, dict(zip(just.subst, strong[1:])))
        translated.append(DerivationLine(line.number, strong[0], just))
    strong = FRAGMENTS["db" if logic.fragment_code == "dw" else "b"]
    axioms = {n: Schema(n, translate_strong(s.template)) for n, s in logic.axioms.items()}
    rules = {n: Rule(n, tuple(map(translate_strong, r.premises)), translate_strong(r.conclusion))
             for n, r in logic.rules.items()}
    return _reference_core(tuple(translated), replace(logic, axioms=axioms, rules=rules), strong)


# Seeded mutants of the bundled derivations and of their weak renderings:
# each rewrites one or two lines, in formula, justification or number.

_RULE_NAMES = ("mp", "nec-next", "nec-box", "dia-mono", "dia-ind")


def _rerender(phi):
    for translate in (translate_weak, translate_strong):
        try:
            other = translate(phi)
        except ValueError:
            continue
        if other is not phi:
            return other
    return Implies(phi, Bottom())


def _mutate_formula(rng, line, lines):
    phi = line.formula
    return rng.choice((
        lambda: rng.choice(lines).formula,
        lambda: _rerender(phi),
        lambda: Next(phi),
        lambda: Implies(phi, Bottom()),
        lambda: fold(phi, lambda f, args: Atom("q" if f.name == "p" else "p")
                     if type(f) is Atom else type(f)(*args) if args else f),
    ))()


def _mutate_justification(rng, line):
    just = line.justification
    if isinstance(just, AxiomJust):
        subst = dict(just.subst or {})
        if subst and rng.random() < 0.5:
            name = rng.choice(sorted(subst))
            subst[name] = rng.choice((
                lambda: _rerender(subst[name]), lambda: And(subst[name], Bottom())
            ))()
            return replace(just, subst=subst)
        return rng.choice((
            lambda: replace(just, schema=rng.choice(sorted(ALL_SCHEMAS))),
            lambda: replace(just, subst=None),
            lambda: replace(just, subst={**subst, "chi": P}),
            lambda: replace(just, subst={k: v for k, v in list(subst.items())[1:]}),
            lambda: IpcTaut(),
        ))()
    if isinstance(just, RuleJust):
        return rng.choice((
            lambda: replace(just, rule=rng.choice(_RULE_NAMES)),
            lambda: replace(just, premises=just.premises[::-1]),
            lambda: replace(just, premises=(line.number,) + just.premises[1:]),
            lambda: IpcTaut(),
        ))()
    return AxiomJust(rng.choice(sorted(ALL_SCHEMAS)), None)


def _mutant(rng, derivation):
    lines = list(derivation.lines)
    for _ in range(rng.choice((1, 1, 2))):
        i = rng.randrange(len(lines))
        line = lines[i]
        choice = rng.random()
        if choice < 0.4:
            line = replace(line, formula=_mutate_formula(rng, line, lines))
        elif choice < 0.9:
            line = replace(line, justification=_mutate_justification(rng, line))
        else:
            line = replace(line, number=line.number + 100)
        lines[i] = line
    return Derivation(tuple(lines))


def _checker_inputs():
    corpus, rng = Corpus(), random.Random(20261019)
    out = []
    for entry in corpus.entries():
        if entry.kind != "derivation":
            continue
        text = corpus.text_of(entry.id)
        for rendered in (text, text.replace("[]", "[*]")):
            derivation = parse_derivation(rendered)
            out.append(derivation)
            out.extend(_mutant(rng, derivation) for _ in range(40))
    return out


# (reference reason, new reason without its last word) on the same line
_REASON_CHANGES = (
    (_MIXED, "formula is not the stated instance of axiom"),
    ("formula outside the logic's language", "expected line number"),
)


def test_checker_matches_the_reference_up_to_the_first_failing_line():
    inputs = _checker_inputs()
    assert len(inputs) == 13 * 2 * 41
    seen = {"accepted": 0, "same": 0, "earlier": 0, **dict.fromkeys(dict(_REASON_CHANGES), 0)}
    for derivation in inputs:
        position = {line.number: i for i, line in enumerate(derivation.lines)}
        for logic in LOGICS.values():
            got, want = check(derivation, logic), _reference_check(derivation, logic)
            assert got.ok == want.ok, (logic.name, derivation)
            if got.ok:
                seen["accepted"] += 1
                continue
            if (want.failed_line, want.reason) == (got.failed_line, got.reason):
                seen["same"] += 1
                continue
            # the reference on the lines up to the new failing line fails
            # there, and for the same reason, except in a weak logic when
            # a substitution is written in the other rendering, or when a
            # misnumbered line is also outside the language, which the
            # reference checked first
            first = position[got.failed_line]
            prefix = _reference_check(Derivation(derivation.lines[: first + 1]), logic)
            assert prefix.failed_line == got.failed_line, (logic.name, derivation)
            if prefix.reason != got.reason:
                assert logic.weak_rendered, (logic.name, got)
                assert (prefix.reason, got.reason.rsplit(" ", 1)[0]) in _REASON_CHANGES
                seen[prefix.reason] += 1
            else:
                assert position[want.failed_line] > first, (logic.name, got, want)
                seen["earlier"] += 1
    assert min(seen.values()) > 0, seen
