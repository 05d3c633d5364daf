import copy
import gc
import itertools
import pickle
import re
import time
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given

from itlmc import (
    And,
    Atom,
    Bottom,
    Countermodel,
    Eventually,
    FRAGMENTS,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    SemanticClass,
    StrongBox,
    WeakBox,
    atoms,
    cd,
    children,
    parse_formula,
    subformulas,
    translate_weak,
    validity,
)
from itlmc import formula
from itlmc.formula import BUILDERS, operators, walk
from itlmc.parser import print_formula
from conftest import formulas

P, Q = Atom("p"), Atom("q")


def test_not_and_iff_normalize_at_construction():
    assert Not(P) == Implies(P, Bottom())
    assert Iff(P, Q) == And(Implies(P, Q), Implies(Q, P))


def test_nodes_are_hashable_and_comparable():
    assert len({P, Atom("p"), Q}) == 2
    assert Next(P) != Eventually(P)
    assert StrongBox(P) != WeakBox(P)


def test_equal_nodes_are_one_object():
    text = "[](p | q) -> []p | <>q"
    assert parse_formula(text) is parse_formula(text)
    assert Bottom() is Bottom() and Not(P) is Implies(Atom("p"), Bottom())
    phi = parse_formula(text)
    assert pickle.loads(pickle.dumps(phi)) is phi
    assert copy.copy(phi) is phi and copy.deepcopy(phi) is phi


def _rebuild(f):
    """A fresh construction of f from its fields, recursively."""
    if type(f) is Atom:
        return Atom(f.name)
    return type(f)(*map(_rebuild, children(f)))


@given(formulas(allow_weak=True), formulas(allow_weak=True))
def test_identity_is_structural_equality(phi, psi):
    assert _rebuild(phi) is phi
    assert parse_formula(print_formula(phi)) is phi
    assert (phi is psi) == (print_formula(phi) == print_formula(psi))


def test_nodes_are_immutable():
    phi = And(P, Q)
    with pytest.raises(AttributeError):
        phi.left = Q
    with pytest.raises(AttributeError):
        del phi.right
    with pytest.raises(AttributeError):
        P.name = "q"
    assert phi.left is P and P.name == "p"


def test_wrong_arity_raises_type_error():
    size = len(formula._NODES)
    with pytest.raises(TypeError):
        And(P)
    with pytest.raises(TypeError):
        Next(P, Q)
    with pytest.raises(TypeError):
        Atom()
    with pytest.raises(TypeError):
        Bottom(P)
    assert len(formula._NODES) == size


def test_unreferenced_nodes_are_collected():
    node = And(Atom("only-here"), Next(Atom("only-here")))
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None


def test_unreferenced_nodes_leave_the_intern_table():
    gc.collect()
    size = len(formula._NODES)
    node = And(Atom("leaves"), Next(Atom("leaves")))
    assert len(formula._NODES) == size + 3
    assert formula._NODES[(Atom, "leaves")]() is node.left
    del node
    gc.collect()
    assert len(formula._NODES) == size
    assert (Atom, "leaves") not in formula._NODES


def test_a_dead_entry_does_not_evict_its_successor():
    key = (Atom, "reborn")
    first = Atom("reborn")
    dead = formula._NODES[key]
    del first
    gc.collect()
    assert dead() is None and key not in formula._NODES
    second = Atom("reborn")
    assert formula._NODES[key]() is second
    formula._forget(key, dead)  # the dead entry's callback, run late
    assert formula._NODES[key]() is second and Atom("reborn") is second
    # A dead entry still in the table is replaced, and its callback then
    # leaves the replacement alone.
    del second
    formula._NODES[key] = dead
    third = Atom("reborn")
    assert formula._NODES[key]() is third
    formula._forget(key, dead)
    assert Atom("reborn") is third


def test_pickle_and_copy_return_the_interned_node():
    text = "[](p_dies | q) -> O p_dies"
    data = pickle.dumps(parse_formula(text))
    gc.collect()
    restored = pickle.loads(data)
    assert restored is parse_formula(text)
    assert pickle.loads(data) is restored
    assert copy.copy(restored) is restored and copy.deepcopy(restored) is restored
    deep = parse_formula("O " * 3000 + "p")
    assert pickle.loads(pickle.dumps(deep)) is deep and copy.deepcopy(deep) is deep


def test_subformula_count_of_distribution_schema():
    # box(p or q) -> box p or dia q has exactly 8 distinct subformulas
    assert len(subformulas(cd(P, Q))) == 8


def test_subformulas_is_postorder_and_deduplicated():
    phi = And(P, Implies(P, Q))
    subs = subformulas(phi)
    assert subs.count(P) == 1
    assert subs.index(P) < subs.index(Implies(P, Q)) < subs.index(phi)


def _reference_subformulas(phi):
    """Distinct subformulas by a recursive walk that dedups on formula hashes."""
    out = []
    seen = set()

    def visit(f):
        if f in seen:
            return
        for c in children(f):
            visit(c)
        if f not in seen:
            seen.add(f)
            out.append(f)

    visit(phi)
    return out


@given(formulas(allow_weak=True))
def test_compiled_program_follows_subformulas(phi):
    subs = subformulas(phi)
    assert subs == _reference_subformulas(phi)
    nodes, walked = walk(phi)
    assert nodes == subs
    for (op, a, b), f in zip(walked, subs):
        assert op is type(f)
        if op is Atom:
            assert a == f.name
        else:
            kids = [subs[i] for i in (a, b)][: len(children(f))]
            assert tuple(kids) == children(f)


def test_deep_formulas_do_not_recurse():
    depth = 3000
    phi = StrongBox(P)
    for _ in range(depth):
        phi = Next(phi)
    assert len(subformulas(phi)) == depth + 2
    assert len(walk(phi)[1]) == depth + 2 and atoms(phi) == ["p"]
    assert print_formula(phi) == "O " * depth + "[]p"
    assert print_formula(translate_weak(phi)) == "O " * depth + "[*]p"


def test_walk_places_each_shared_node_once():
    # n doublings are a tree of 2**(n + 1) - 1 nodes but n + 1 distinct ones.
    # A walk of the tree takes over 0.5 s at 20 and runs out of memory at 40,
    # so 20 goes first.
    for levels in (20, 40):
        x = P
        for _ in range(levels):
            x = And(x, x)
        start = time.perf_counter()
        nodes, program = walk(x)
        assert time.perf_counter() - start < 0.1
        assert len(nodes) == levels + 1 and nodes == _reference_subformulas(x)
        assert program == [(Atom, "p", 0)] + [(And, i, i) for i in range(levels)]


def _assert_operator_sets(phi):
    """Every node's operator set decodes to the operators its walk meets."""
    for f in subformulas(phi):
        assert operators(f) == {op for op, _, _ in walk(f)[1]}


def _with_defined(allow_weak):
    """Formulas built through ~ and <-> as well as the node classes."""
    return st.recursive(
        formulas(max_leaves=4, allow_weak=allow_weak),
        lambda f: st.one_of(st.builds(Not, f), st.builds(Iff, f, f)),
        max_leaves=6,
    )


_FRESH = itertools.count()


@given(_with_defined(allow_weak=True))
def test_operator_set_is_the_walked_operators(phi):
    _assert_operator_sets(phi)
    # The reader's builders miss on fresh atom names and hit on the rest.
    n = next(_FRESH)
    text = re.sub(r"\b([pqr])\b", rf"\1_fresh{n}", print_formula(phi))
    _assert_operator_sets(parse_formula(text))
    _assert_operator_sets(parse_formula(print_formula(phi)))


@given(_with_defined(allow_weak=False))
def test_operator_set_of_a_weak_translation(phi):
    _assert_operator_sets(translate_weak(phi))


def test_operator_set_of_a_node_rebuilt_by_pickle():
    data = pickle.dumps(Iff(Not(StrongBox(Atom("gone"))), WeakBox(Eventually(Atom("gone")))))
    gc.collect()
    assert (Atom, "gone") not in formula._NODES
    phi = pickle.loads(data)
    assert print_formula(phi) == "(([]gone -> false) -> [*]<>gone) & ([*]<>gone -> []gone -> false)"
    _assert_operator_sets(phi)


def test_intern_builders_give_the_class_call_node():
    fresh = BUILDERS[Atom]("built-here")
    assert fresh is Atom("built-here")
    assert BUILDERS[And](fresh, P) is And(fresh, P)
    node = Next(fresh)
    assert BUILDERS[Next](fresh) is node
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None
    rebuilt = BUILDERS[Next](fresh)
    assert rebuilt is Next(fresh) and operators(rebuilt) == {Next, Atom}
    assert set(BUILDERS) == {op for op in formula._ARITY if op is not Bottom}


def test_repr_pickle_and_copy_do_not_recurse():
    shallow = parse_formula("[](p | q) -> ~p")
    assert repr(shallow) == (
        "Implies(StrongBox(Or(Atom('p'), Atom('q'))), Implies(Atom('p'), Bottom()))"
    )
    depth = 3000
    deep = P
    for _ in range(depth):
        deep = Next(deep)
    assert repr(deep) == "Next(" * depth + "Atom('p')" + ")" * depth
    assert pickle.loads(pickle.dumps(deep)) is deep
    assert copy.deepcopy(deep) is deep and copy.copy(deep) is deep
    verdict = validity(deep, SemanticClass("e", 2))
    assert isinstance(verdict, Countermodel) and repr(deep) in repr(verdict)


def test_atoms_sorted():
    assert atoms(And(Atom("q"), Or(Atom("p"), Atom("q")))) == ["p", "q"]


def test_children():
    assert children(And(P, Q)) == (P, Q)
    assert children(Next(P)) == (P,)
    assert children(P) == ()


def test_fragments():
    strong = StrongBox(P)
    weak = WeakBox(P)
    dia = Eventually(P)
    assert FRAGMENTS["db"].allows(And(strong, dia))
    assert not FRAGMENTS["db"].allows(weak)
    assert FRAGMENTS["dw"].allows(And(weak, dia))
    assert not FRAGMENTS["dw"].allows(strong)
    assert FRAGMENTS["b"].allows(strong) and not FRAGMENTS["b"].allows(dia)
    assert FRAGMENTS["w"].allows(weak) and not FRAGMENTS["w"].allows(strong)
    assert FRAGMENTS["d"].allows(dia) and not FRAGMENTS["d"].allows(strong)


def test_translate_rejects_mixed_flavors():
    with pytest.raises(ValueError):
        translate_weak(And(StrongBox(P), WeakBox(Q)))
