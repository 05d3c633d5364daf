import re
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from itlmc import (
    ALL_SCHEMAS,
    And,
    Atom,
    Bottom,
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
    validity,
)
from itlmc.formula import walk
from itlmc.hilbert import IPC_BASIS_NAMES, IpcTaut
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

def test_weak_rendering_translates_then_checks():
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


def test_substitution_values_are_translated_too():
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
