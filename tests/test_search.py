import random
from functools import reduce
from itertools import permutations, product
from operator import and_
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from itlmc import (
    BoundTooLarge,
    Countermodel,
    DynamicPoset,
    Eventually,
    Implies,
    LOGICS,
    MAX_BOUND,
    Next,
    Not,
    Or,
    SemanticClass,
    SOUND_STRUCTURES,
    StrongBox,
    ValidUpTo,
    WeakBox,
    cem,
    eval_formula,
    parse_formula,
    print_poset_model,
    soundness_sweep,
    validity,
    Atom,
)
from itlmc import search
from itlmc.cli import SWEEP_LOGICS
from itlmc.formula import atoms, walk
from itlmc.hilbert import instantiate
from itlmc.poset import eval_sliced
from itlmc.search import _atom_rows

from conftest import (
    count_posets, enumerate_models, formulas, kripke_extension, oracle_table, orders, random_model,
)


def test_semantic_class_validation():
    with pytest.raises(ValueError):
        SemanticClass("x", 2)
    with pytest.raises(ValueError):
        SemanticClass("e", 0)
    with pytest.raises(BoundTooLarge):
        SemanticClass("e", MAX_BOUND + 1)


def test_labeled_poset_counts():
    # 1, 3, 19, 219, 4231: labeled posets on n points
    assert [count_posets(n) for n in range(1, 6)] == [1, 3, 19, 219, 4231]


def _naive_class_e(n):
    """Independent generator: all orders x all maps, first principles."""
    worlds = tuple(f"w{i}" for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = set()
    for keep in product([False, True], repeat=len(pairs)):
        rel = {p for p, k in zip(pairs, keep) if k}
        if any((j, i) in rel for i, j in rel):
            continue
        if any(
            (i, k) not in rel
            for i, j in rel
            for j2, k in rel
            if j2 == j and i != k
        ):
            continue
        closed = rel | {(i, i) for i in range(n)}
        for step in product(range(n), repeat=n):
            if all((step[i], step[j]) in closed for i, j in rel):
                found.add((frozenset(rel), step))
    return found


def test_enumeration_matches_naive_generator():
    for n in (1, 2):
        got = set()
        for model, _ in enumerate_models(SemanticClass("e", n)):
            if model.n != n:
                continue
            idx = model.index
            rel = frozenset(
                (idx[a], idx[b]) for a, b in model.order_pairs if a != b
            )
            got.add((rel, tuple(model.step_arr)))
        assert got == _naive_class_e(n)


def test_class_e_bound_2_model_count():
    models = list(enumerate_models(SemanticClass("e", 2)))
    assert len(models) == 11


def test_class_p_is_a_subclass():
    e_models = {
        (m.order_pairs, tuple(m.step_arr))
        for m, _ in enumerate_models(SemanticClass("e", 2))
    }
    p_models = {
        (m.order_pairs, tuple(m.step_arr))
        for m, _ in enumerate_models(SemanticClass("p", 2))
    }
    assert p_models < e_models


def test_validity_finds_classic_countermodel():
    verdict = validity(parse_formula("p | ~p"), SemanticClass("e", 2))
    assert isinstance(verdict, Countermodel)
    ext = eval_formula(verdict.model, verdict.valuation, verdict.formula)
    assert verdict.world not in ext


def test_first_countermodel_is_deterministic():
    phi = parse_formula("(<>p -> []q) -> [](p -> q)")
    a = validity(phi, SemanticClass("e", 3))
    b = validity(phi, SemanticClass("e", 3))
    assert isinstance(a, Countermodel) and isinstance(b, Countermodel)
    assert a.model.worlds == b.model.worlds
    assert a.model.order_pairs == b.model.order_pairs
    assert a.model.step == b.model.step
    assert a.valuation == b.valuation and a.world == b.world


def test_shift_schema_fails_in_class_e_but_not_p_at_small_bound():
    phi = parse_formula("(O p -> O q) -> O(p -> q)")
    assert isinstance(validity(phi, SemanticClass("e", 3)), Countermodel)
    assert validity(phi, SemanticClass("p", 3)) == ValidUpTo(3)


def test_next_excluded_middle_countermodel_in_class_e():
    # an explicit three-world witness, then the search finds one too
    model = DynamicPoset(
        ("v0", "w", "w1"),
        (("v0", "w"), ("w", "w1"), ("v0", "w1")),
        {"v0": "v0", "w": "v0", "w1": "w"},
    )
    assert model.is_continuous and not model.is_open
    valuation = {"p": frozenset({"w1"}), "q": frozenset({"w", "w1"})}
    ext = eval_formula(model, valuation, cem(Atom("p"), Atom("q")))
    assert ext == frozenset({"w1"})
    verdict = validity(cem(Atom("p"), Atom("q")), SemanticClass("e", 5))
    assert isinstance(verdict, Countermodel)
    assert verdict.model.n <= 3


def test_distribution_valid_at_small_class_e_bound():
    phi = parse_formula("[](p | q) -> []p | <>q")
    assert validity(phi, SemanticClass("e", 3)) == ValidUpTo(3)


def test_double_negation_box_swap():
    phi = parse_formula("[]~~p -> ~~[]p")
    assert validity(phi, SemanticClass("p", 3)) == ValidUpTo(3)
    # explicit class-e witness: interleaved two-chains with a merging step
    model = DynamicPoset(
        ("x", "m", "y", "t"),
        (("x", "m"), ("y", "t")),
        {"x": "y", "m": "y", "y": "y", "t": "t"},
    )
    valuation = {"p": frozenset({"m", "t"})}
    ext = eval_formula(model, valuation, phi)
    assert ext == frozenset({"y", "t"})


def test_soundness_sweep_clean_for_core_logic():
    results = soundness_sweep(LOGICS["ITL.db"], SemanticClass("e", 2))
    assert all(isinstance(v, ValidUpTo) for v in results.values())


def test_soundness_sweep_flags_unsound_schema():
    # next-excluded-middle is not class-e sound, and the sweep says so
    results = soundness_sweep(LOGICS["RTL.db"], SemanticClass("e", 3))
    assert isinstance(results["cem"], Countermodel)
    assert all(
        isinstance(v, ValidUpTo) for k, v in results.items() if k != "cem"
    )


def test_sound_structures_table_shape():
    assert set(SOUND_STRUCTURES) == {
        "ITL", "ITL0", "ETL", "RTL", "CDTL", "ITL+", "ETL+", "CDTL+"
    }
    assert "poset-e" not in SOUND_STRUCTURES["RTL"]
    assert SOUND_STRUCTURES["CDTL+"] == frozenset({"poset-p"})
    assert "real" in SOUND_STRUCTURES["ITL"]


def _reference_models(semclass: SemanticClass):
    """Every model of the class in enumeration order, with its up-set masks.

    Carriers come by size, then in `orders` order; steps in product order.
    Models on one carrier share a single up-set list object.
    """
    for n in range(1, semclass.bound + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        identity = {w: w for w in worlds}
        for pairs in orders(n):
            carrier = DynamicPoset(
                worlds,
                tuple((worlds[i], worlds[j]) for i, j in pairs),
                identity,
            )
            upsets = [m for m in range(1 << n) if carrier.is_up_set_mask(m)]
            for step in product(range(n), repeat=n):
                model = carrier.replace_step(
                    {worlds[i]: worlds[step[i]] for i in range(n)}
                )
                if not model.is_continuous:
                    continue
                if semclass.kind == "p" and not model.is_open:
                    continue
                yield model, upsets


def _model_key(model):
    return model.worlds, model.order_pairs, tuple(model.step.items())


@pytest.mark.parametrize("kind", "ep")
def test_enumeration_matches_reference_models(kind):
    reference = [_model_key(m) for m, _ in _reference_models(SemanticClass(kind, 4))]
    for bound in (1, 2, 3, 4):
        got = [_model_key(m) for m, _ in enumerate_models(SemanticClass(kind, bound))]
        assert got == [key for key in reference if len(key[0]) <= bound]


@pytest.mark.parametrize(
    "kind, counts",
    [("e", [1, 10, 225, 9504, 696735]), ("p", [1, 8, 126, 3188, 122130])],
)
def test_table_counts_per_size(kind, counts):
    assert [sum(len(c.steps) for c in oracle_table(kind, n, False)) for n in range(1, 6)] == counts


@pytest.mark.parametrize(
    "kind, counts",
    [("e", [1, 6, 43, 452, 6497]), ("p", [1, 5, 26, 170, 1297])],
)
def test_reduced_table_counts_per_size(kind, counts):
    # One carrier per unlabeled poset (OEIS A000112), one step per orbit.
    tables = [search._table(kind, n) for n in range(1, 6)]
    assert [len(table) for table in tables] == [1, 2, 5, 16, 63]
    assert [sum(len(c.steps) for c in table) for table in tables] == counts


def test_classes_count_the_unlabeled_posets():
    # OEIS A000112, read off the generator alone: no step table of six worlds.
    assert [len(search._classes(n)) for n in range(1, 7)] == [1, 2, 5, 16, 63, 318]


@pytest.mark.parametrize("kind", "ep")
def test_table_holds_the_first_labeling_of_each_class_that_orders_meets(kind):
    # Field for field: the posets, in order, and their steps, up-sets and masks.
    for n in range(1, 6):
        assert search._table(kind, n) == oracle_table(kind, n, True)


def _canonical_form(n, pairs, step):
    """The least relabeling of a (poset, step) pair: equal exactly for isomorphic pairs."""
    forms = []
    for sigma in permutations(range(n)):
        image = [0] * n
        for i, target in enumerate(step):
            image[sigma[i]] = sigma[target]
        forms.append((tuple(sorted((sigma[i], sigma[j]) for i, j in pairs)), tuple(image)))
    return min(forms)


@pytest.mark.parametrize("kind", "ep")
def test_reduced_table_holds_one_model_per_isomorphism_class(kind):
    for n in range(1, 5):
        reduced = [
            _canonical_form(n, c.pairs, step) for c in search._table(kind, n) for step in c.steps
        ]
        labeled = {
            _canonical_form(n, c.pairs, step) for c in oracle_table(kind, n, False) for step in c.steps
        }
        assert len(set(reduced)) == len(reduced)
        assert set(reduced) == labeled


def _tables_built(phi, semclass):
    """The verdict, and the sizes whose tables the scan asks for, in order, with no batch kept."""
    built, table = [], search._table

    def build(kind, n):
        if n not in built:
            built.append(n)
        return table(kind, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_table", build)
        mp.setattr(search, "_PLANS", {})
        return validity(phi, semclass), built


def test_table_is_invisible_and_built_only_as_far_as_the_scan_goes():
    used = SemanticClass("e", 3)
    assert validity(parse_formula("[]p -> p"), used) == ValidUpTo(3)
    fresh = SemanticClass("e", 3)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    # The batch that refutes on three worlds has room left, and fills it from
    # the four- and five-world tables.
    verdict, built = _tables_built(cem(Atom("p"), Atom("q")), SemanticClass("e", 5))
    assert isinstance(verdict, Countermodel) and verdict.model.n == 3
    assert built == [1, 2, 3, 4, 5]
    verdict, built = _tables_built(parse_formula("[](p | q) -> []p | <>q"), SemanticClass("e", 4))
    assert verdict == ValidUpTo(4) and built == [1, 2, 3, 4]
    # One step of the four-world antichain takes 2^16 lanes at four atoms, more
    # than the refuting batch has left, so that batch ends before the table.
    for kind in "ep":
        phi = parse_formula("((p -> q) | (q -> p)) | (r & s)")
        verdict, built = _tables_built(phi, SemanticClass(kind, 4))
        assert isinstance(verdict, Countermodel) and verdict.model.n == 3
        assert built == [1, 2, 3]


@pytest.mark.parametrize("kind", "ep")
@pytest.mark.parametrize("text", ["p", "(p -> q) -> p", "O p & ~q", "p & q -> r | s"])
def test_a_formula_refuted_on_one_world_builds_only_the_one_world_table(text, kind):
    verdict, built = _tables_built(parse_formula(text), SemanticClass(kind, 5))
    assert isinstance(verdict, Countermodel) and verdict.model.n == 1
    assert built == [1]


@pytest.mark.parametrize("n", range(1, 6))
def test_each_tables_first_poset_is_the_antichain(n):
    # `_groups` reads the width of a size's first step off 2^n up-sets without the table.
    for kind in "ep":
        first = search._table(kind, n)[0]
        assert first.pairs == () and len(first.upsets) == 2**n


def _reference_countermodel(phi, semclass):
    """One valuation at a time through the Kripke clauses; first failing world."""
    names = tuple(atoms(phi))
    for model, upsets in _reference_models(semclass):
        for assignment in product(upsets, repeat=len(names)):
            valuation = {a: model.worlds_of(m) for a, m in zip(names, assignment)}
            ext = kripke_extension(model, valuation, phi)
            for world in model.worlds:
                if world not in ext:
                    return model, valuation, world
    return None


# Full bound-3 scans with three atoms (42k reference evaluations each) are
# left to the benchmark; bound 3 draws formulas over two atoms.
_ATOM_NAMES = {2: ("p", "q", "r"), 3: ("p", "q")}
_FORMULAS = {
    bound: formulas(names, max_leaves=8, allow_weak=True) for bound, names in _ATOM_NAMES.items()
}


# On one world every temporal operator is the identity and the logic is
# classical, so each of these holds there whatever f is. At the bound most
# are refuted, and only a refutation on a carrier of several worlds, which
# has several steps, can tell step order from valuation order.
_ONE_WORLD_TAUTOLOGIES = (
    lambda f: Implies(Next(f), f),
    lambda f: Implies(f, Next(f)),
    lambda f: Implies(Eventually(f), f),
    lambda f: Implies(f, StrongBox(f)),
    lambda f: Implies(f, WeakBox(f)),
    lambda f: Or(f, Not(f)),
    lambda f: Implies(Not(Not(f)), f),
)

# The axioms of ITL hold in both classes, on one world as on every model,
# whatever formulas replace their metavariables.
_ITL = LOGICS["ITL.db"]
_AXIOMS = tuple(_ITL.axioms[name] for name in sorted(_ITL.axioms))
_PARTS = {bound: formulas(names, max_leaves=3, allow_weak=True) for bound, names in _ATOM_NAMES.items()}


@st.composite
def _queries(draw):
    # Three draws in four, and more as hypothesis favours 0, are one-world
    # tautologies refuted at the bound. The rest are instances of an ITL
    # axiom, which keep the ValidUpTo verdict compared. A full bound-3
    # reference scan costs some 30 bound-2 ones, so one draw in four is
    # bound 3.
    bound = draw(st.sampled_from((2, 2, 2, 3)))
    kind = draw(st.sampled_from("ep"))
    semclass = SemanticClass(kind, bound)
    if draw(st.integers(0, 3)) < 3:
        # The first tautology, from a drawn one on, that the bound refutes.
        # Where f makes all of them valid the atom p stands in, on which the
        # bound refutes each of them in both classes, so nothing is redrawn.
        f = draw(_FORMULAS[bound])
        start = draw(st.integers(0, len(_ONE_WORLD_TAUTOLOGIES) - 1))
        makes = _ONE_WORLD_TAUTOLOGIES[start:] + _ONE_WORLD_TAUTOLOGIES[:start]
        candidates = (make(g) for g in (f, Atom("p")) for make in makes)
        refuted = (phi for phi in candidates if not isinstance(validity(phi, semclass), ValidUpTo))
        return next(refuted), semclass
    schema = draw(st.sampled_from(_AXIOMS))
    parts = {mv: draw(_PARTS[bound]) for mv in schema.metavars}
    return instantiate(schema, parts), semclass


def _assert_matches_reference(phi, semclass):
    verdict = validity(phi, semclass)
    expected = _reference_countermodel(phi, semclass)
    if expected is None:
        assert verdict == ValidUpTo(semclass.bound)
        return verdict
    model, valuation, world = expected
    assert isinstance(verdict, Countermodel)
    assert verdict.model.worlds == model.worlds
    assert verdict.model.order_pairs == model.order_pairs
    assert verdict.model.step == model.step
    assert verdict.valuation == valuation
    assert verdict.world == world
    return verdict


@settings(max_examples=80, deadline=None)
@given(_queries())
def test_validity_matches_reference_search(query):
    event(type(_assert_matches_reference(*query)).__name__)


def _narrow_chunks(mp, chunk_bits):
    """Set the chunk width, and check that no row is wider unless it holds one step."""
    evaluate = search.eval_sliced

    def eval_sliced_narrow(moves, ups, program, atom_rows, full):
        # A chunk of one step is the only one whose worlds all have one target.
        assert full.bit_length() <= chunk_bits or all(len(t) == 1 for t in moves)
        return evaluate(moves, ups, program, atom_rows, full)

    mp.setattr(search, "CHUNK_BITS", chunk_bits)
    mp.setattr(search, "eval_sliced", eval_sliced_narrow)


@settings(max_examples=40, deadline=None)
@given(_queries(), st.sampled_from([1, 40]))
def test_chunk_boundaries_keep_the_first_countermodel(query, chunk_bits):
    # Width 1 puts every step map in its own chunk; 40 bits cut carriers
    # into several chunks of a few steps, the last one often shorter.
    with pytest.MonkeyPatch.context() as mp:
        _narrow_chunks(mp, chunk_bits)
        _assert_matches_reference(*query)


@pytest.mark.parametrize("chunk_bits", [1, 40, search.CHUNK_BITS])
@pytest.mark.parametrize("text, kind", [("q & p -> [](p & q)", "e"), ("<>p | q -> p -> []p", "p")])
def test_first_failing_step_wins_over_lower_valuations_of_later_steps(text, kind, chunk_bits):
    # Both hold on one world. On two, a later step of the first failing
    # carrier fails under a lower valuation index than its first failing step.
    with pytest.MonkeyPatch.context() as mp:
        _narrow_chunks(mp, chunk_bits)
        _assert_matches_reference(parse_formula(text), SemanticClass(kind, 3))


@settings(max_examples=60, deadline=None)
@given(formulas(max_leaves=8, allow_weak=True), st.integers(0, 2**32))
def test_sliced_rows_match_kripke_extension(phi, seed):
    # Several step maps of one random carrier in one call: each step's
    # slice of the rows agrees with the set-based Kripke clauses.
    rng = random.Random(seed)
    poset, _ = random_model(rng, max_worlds=4)
    index = poset.index
    pairs = tuple(sorted((index[a], index[b]) for a, b in poset.order_pairs if a != b))
    carrier = next(c for c in oracle_table("e", poset.n, False) if c.pairs == pairs)
    first = rng.randrange(len(carrier.steps))
    slots = rng.randint(1, min(6, len(carrier.steps) - first))
    program, names = walk(phi)[1], atoms(phi)
    valuations = len(carrier.upsets) ** len(names)
    rows, full = _atom_rows(carrier.members, len(carrier.upsets), len(names), slots)
    assert full == (1 << valuations * slots) - 1
    # Bit v * slots + s stands for valuation v under step first + s.
    moves = [{} for _ in range(poset.n)]
    for s in range(slots):
        bits = sum(1 << (v * slots + s) for v in range(valuations))
        for i, j in enumerate(carrier.steps[first + s]):
            moves[i][j] = moves[i].get(j, 0) | bits
    by_name = dict(zip(names, rows))
    ups = [[(j, 0) for j in up] for up in carrier.ups]
    top = eval_sliced([list(t.items()) for t in moves], ups, program, by_name, full)
    assert all(row <= full for row in top)
    for s in range(slots):
        step = carrier.steps[first + s]
        model = poset.replace_step({w: poset.worlds[j] for w, j in zip(poset.worlds, step)})
        for v, assignment in enumerate(product(carrier.upsets, repeat=len(names))):
            valuation = {a: model.worlds_of(up) for a, up in zip(names, assignment)}
            ext = kripke_extension(model, valuation, phi)
            bit = v * slots + s
            assert [(row >> bit) & 1 for row in top] == [w in ext for w in model.worlds]


@given(st.integers(1, 70), st.integers(1, 40), st.data())
def test_repeat_matches_the_pattern_written_out(period, copies, data):
    # The pattern as a bit string, written out `copies` times and read back.
    x = data.draw(st.integers(0, 2**period - 1))
    written = format(x, f"0{period}b") * copies
    assert search._repeat(x, period, period * copies) == int(written, 2)


def _random_group(rng, kind, sizes):
    """Chunks (size, carrier index, first step, slot count) of up to four carriers of
    each size, in scan order."""
    group = []
    for n in sizes:
        table = search._table(kind, n)
        for index in sorted(rng.sample(range(len(table)), min(4, len(table)))):
            first = rng.randrange(len(table[index].steps))
            group.append((n, index, first, rng.randint(1, min(3, len(table[index].steps) - first))))
    return group


@settings(max_examples=60, deadline=None)
@given(formulas(max_leaves=8, allow_weak=True), st.sampled_from("ep"), st.integers(0, 2**32))
def test_mixed_lane_batch_rows_match_each_chunk_alone_and_kripke_extension(phi, kind, seed):
    # Chunks of several carriers of one size, of different widths and
    # orders, stacked along the lanes of one batch: each chunk's slice of
    # the rows is its own evaluation, and agrees with the Kripke clauses.
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    program, names = walk(phi)[1], atoms(phi)
    group = _random_group(rng, kind, [n])
    moves, ups, rows, full, chunks = search._batch(kind, len(names), group)
    assert all(len(up) == n for up in (moves, ups, *rows))
    assert full.bit_length() == sum(width for _, width, *_ in chunks)
    if len(group) > 1:
        assert any(off for up in ups for _, off in up)
    top = eval_sliced(moves, ups, program, dict(zip(names, rows)), full)
    assert all(row <= full for row in top)
    for chunk in group:
        alone = search._batch(kind, len(names), [chunk])
        (lane, width, _, index, first, slots), = (c for c in chunks if c[2:] == chunk)
        alone_top = eval_sliced(*alone[:2], program, dict(zip(names, alone[2])), alone[3])
        assert [row >> lane & (1 << width) - 1 for row in top] == alone_top
        carrier = search._table(kind, n)[index]
        base = search._poset(n, carrier.pairs)
        assignments = list(product(carrier.upsets, repeat=len(names)))
        for bit in rng.sample(range(width), min(12, width)):
            model = search._with_step(base, carrier.steps[first + bit % slots])
            valuation = {a: model.worlds_of(up) for a, up in zip(names, assignments[bit // slots])}
            ext = kripke_extension(model, valuation, phi)
            assert [row >> lane + bit & 1 for row in top] == [w in ext for w in model.worlds]


@settings(max_examples=60, deadline=None)
@given(formulas(max_leaves=8, allow_weak=True), st.sampled_from("ep"), st.integers(0, 2**32))
def test_cross_size_batch_rows_match_each_chunk_alone_at_its_size(phi, kind, seed):
    # Chunks of two or three sizes in one batch: at its own worlds each
    # chunk's slice of the rows is its evaluation alone at its size. Its
    # padding worlds are one-world models with every atom false, so there
    # the rows are all ones or all zeros, as the formula holds on that model.
    rng = random.Random(seed)
    sizes = sorted(rng.sample(range(1, 5), rng.randint(2, 3)))
    program, names = walk(phi)[1], atoms(phi)
    group = _random_group(rng, kind, sizes)
    moves, ups, rows, full, chunks = search._batch(kind, len(names), group)
    assert all(len(up) == sizes[-1] for up in (moves, ups, *rows))
    top = eval_sliced(moves, ups, program, dict(zip(names, rows)), full)
    point = search._poset(1, ())
    holds = "w0" in eval_formula(point, {a: () for a in names}, phi)
    for (lane, width, n, *_), chunk in zip(chunks, group):
        alone = search._batch(kind, len(names), [chunk])
        alone_top = eval_sliced(*alone[:2], program, dict(zip(names, alone[2])), alone[3])
        lanes = [row >> lane & (1 << width) - 1 for row in top]
        assert lanes[:n] == alone_top
        assert lanes[n:] == [(1 << width) - 1 if holds else 0] * (sizes[-1] - n)


@pytest.mark.parametrize("chunk_bits", [200, search.CHUNK_BITS])
@pytest.mark.parametrize("text, kind", [
    ("[]p -> p", "e"), ("[](p | q) -> []p | <>q", "p"), ("<>[][]p -> O O p", "e"),
    ("O O p -> p | O p", "p"), ("r | (r -> q | ~q)", "e"),
])
def test_padded_worlds_hold_once_the_one_world_batch_passes(text, kind, chunk_bits):
    # Every batch after the first holds chunks of several sizes padded to
    # its largest, and the padding worlds never fail: their rows are all
    # ones in their chunk's lanes, so the top rows need no lane mask.
    phi, semclass = parse_formula(text), SemanticClass(kind, 4)
    tops = []
    with pytest.MonkeyPatch.context() as mp:
        _narrow_chunks(mp, chunk_bits)
        mp.setattr(search, "_PLANS", {})
        evaluate = search.eval_sliced
        mp.setattr(search, "eval_sliced", lambda *args: tops.append(evaluate(*args)) or tops[-1])
        validity(phi, semclass)
        plan = search._PLANS[kind, 4, len(atoms(phi)), chunk_bits]
    assert len(plan) - (plan[-1] is None) == len(tops) > 1
    assert {n for *_, chunks in plan[:1] for _, _, n, *_ in chunks} == {1}
    padded = 0
    for (*_, chunks), top in zip(plan[1:], tops[1:]):
        for lane, width, n, *_ in chunks:
            assert n > 1
            for row in top[n:]:
                assert row >> lane & (1 << width) - 1 == (1 << width) - 1
                padded += 1
    assert padded


def _labeled_scan(phi, semclass):
    """Reference: `validity` over the labeled tables, keeping no chunk plans."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_table", lambda kind, n: oracle_table(kind, n, False))
        mp.setattr(search, "_PLANS", {})
        mp.setattr(search, "PLANNED_ATOMS", -1)
        return validity(phi, semclass)


# Formulas first refuted at two, three and four worlds, with their class.
_REFUTED_AT = [
    ("p | ~p", "e", 2),
    ("(O p -> O q) -> O (p -> q)", "e", 2),
    ("[]~~p -> ~~[]p", "e", 2),
    ("[]<>p -> <>[]p", "p", 2),
    ("~p | ~~p", "e", 3),
    ("<>(O O p -> p)", "e", 3),
    ("(p -> q) | (q -> p)", "p", 3),
    ("O O p -> p | O p", "p", 3),
    ("<>[][]p -> O O p", "e", 4),
    ("(q -> p) | (<>[]q -> p -> O q)", "e", 4),
    ("r | (r -> q | (q -> p | ~p))", "e", 4),
    ("<>(O O p -> p)", "p", 4),
    ("<>q | ([]O q -> q)", "p", 4),
    ("[](O O p -> []<>p)", "p", 4),
]


@pytest.mark.parametrize("chunk_bits", [1, search.CHUNK_BITS])
@pytest.mark.parametrize("text, kind, size", _REFUTED_AT)
def test_reduced_scan_keeps_the_labeled_first_countermodel(text, kind, size, chunk_bits):
    phi = parse_formula(text)
    semclass = SemanticClass(kind, 4)
    with pytest.MonkeyPatch.context() as mp:
        _narrow_chunks(mp, chunk_bits)
        verdict, expected = validity(phi, semclass), _labeled_scan(phi, semclass)
    assert isinstance(verdict, Countermodel) and verdict.model.n == size
    assert _model_key(verdict.model) == _model_key(expected.model)
    assert verdict.valuation == expected.valuation and verdict.world == expected.world


def _scan_batches(phi, semclass, chunk_bits):
    """The verdict under this chunk width, with each batch the scan evaluated and its top rows."""
    tops = []
    with pytest.MonkeyPatch.context() as mp:
        _narrow_chunks(mp, chunk_bits)
        mp.setattr(search, "_PLANS", {})
        evaluate = search.eval_sliced
        mp.setattr(search, "eval_sliced", lambda *args: tops.append(evaluate(*args)) or tops[-1])
        verdict = validity(phi, semclass)
        plan = search._PLANS[semclass.kind, semclass.bound, len(atoms(phi)), chunk_bits]
    # Each batch built is evaluated once, in order; a scan that ends valid adds None.
    assert len(plan) - (plan[-1] is None) == len(tops)
    return verdict, list(zip(plan, tops))


def _failing_chunks(batch, top):
    """The positions of the batch's chunks that have a failing lane."""
    *_, full, chunks = batch
    missing = full & ~reduce(and_, top)
    return [c for c, (lane, width, *_) in enumerate(chunks) if missing >> lane & (1 << width) - 1]


def _last_batch(phi, semclass, chunk_bits):
    """The countermodel under this chunk width, with the last batch the scan evaluated: its
    chunks' widths, the positions of its failing chunks and its chunk records."""
    verdict, evaluated = _scan_batches(phi, semclass, chunk_bits)
    batch, top = evaluated[-1]
    chunks = batch[-1]
    return verdict, [width for _, width, *_ in chunks], _failing_chunks(batch, top), chunks


def _assert_packed_scan_matches(phi, semclass, chunk_bits):
    """The packed scan agrees with the reference search and with the labeled scan."""
    with pytest.MonkeyPatch.context() as mp:
        _narrow_chunks(mp, chunk_bits)
        verdict = _assert_matches_reference(phi, semclass)
    expected = _labeled_scan(phi, semclass)
    if isinstance(verdict, Countermodel):
        assert _model_key(verdict.model) == _model_key(expected.model)
        assert verdict.valuation == expected.valuation and verdict.world == expected.world
    else:
        assert verdict == expected


# Refuted in a chunk of a batch of several chunks, at 40, 200 and 1000 bits:
# the positions of the failing chunks in that batch, and their sizes. Where
# a batch holds several sizes, a chunk of a larger size may fail too.
_PACKED = [
    ("p | ~p", "e", 200, [1, 3, 4, 5], [2, 3, 3, 3]),
    ("~p | ~~p", "e", 200, [5], [3]),
    ("~p | ~~p", "p", 1000, [5, 10], [3, 4]),
    ("<>(O O p -> p)", "p", 200, [1], [4]),
    ("O p -> p", "e", 40, [0, 1, 2], [2, 2, 3]),
    ("O O p -> p | O p", "p", 200, [2, 3, 4, 6], [3, 3, 3, 3]),
    ("<>q | ([]O q -> q)", "p", 200, [1, 2, 3], [4, 4, 4]),
    ("<>[][]p -> O O p", "e", 200, [2], [4]),
]


@pytest.mark.parametrize("text, kind, chunk_bits, failing, sizes", _PACKED)
def test_first_failing_chunk_of_a_batch_gives_the_countermodel(text, kind, chunk_bits, failing, sizes):
    phi, semclass = parse_formula(text), SemanticClass(kind, 4)
    verdict, widths, found, chunks = _last_batch(phi, semclass, chunk_bits)
    assert len(widths) > 1 and found == failing
    assert [chunks[c][2] for c in failing] == sizes
    # The countermodel's step lies in the first failing chunk, not in a later one.
    n, index, first, slots = chunks[failing[0]][2:]
    assert verdict.model.n == n
    carrier = search._table(kind, n)[index]
    assert verdict.model.order_pairs == search._poset(verdict.model.n, carrier.pairs).order_pairs
    assert tuple(verdict.model.step_arr) in carrier.steps[first:first + slots]
    _assert_packed_scan_matches(phi, semclass, chunk_bits)


@pytest.mark.parametrize("text", ["O(p -> p)", "O(~p | ~~p)"])
def test_lanes_above_a_chunks_width_are_never_read(text):
    # The lanes above a narrow chunk's width are the next chunk's, of
    # another poset and step. A chunk that read them would fail where no
    # model of it does, and the re-check would disagree. Both formulas meet
    # a batch whose first chunk, of two worlds, is narrower than a later one.
    phi, semclass = parse_formula(text), SemanticClass("e", 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "CHUNK_BITS", 200)
        mp.setattr(search, "_PLANS", {})
        validity(phi, semclass)
        plan = search._PLANS["e", 3, 1, 200]
    widths = [width for _, width, *_ in plan[1][-1]]
    assert widths[0] < max(widths)
    _assert_packed_scan_matches(phi, semclass, 200)


@pytest.mark.parametrize("chunk_bits", [40, 200, search.CHUNK_BITS])
@pytest.mark.parametrize("text, kind", [(t, k) for t, k, size in _REFUTED_AT if size == 4])
def test_scan_stops_at_the_first_failing_batch(text, kind, chunk_bits):
    phi, semclass = parse_formula(text), SemanticClass(kind, 4)
    verdict, evaluated = _scan_batches(phi, semclass, chunk_bits)
    assert isinstance(verdict, Countermodel) and verdict.model.n == 4
    # Every batch built is evaluated, and all pass but the last, whose first
    # failing chunk is of four worlds; the stream has not ended.
    batches = [batch for batch, _ in evaluated]
    assert None not in batches
    assert [bool(_failing_chunks(*pair)) for pair in evaluated] == [False] * (len(batches) - 1) + [True]
    assert batches[-1][-1][_failing_chunks(*evaluated[-1])[0]][2] == 4
    sizes = [n for *_, chunks in batches for _, _, n, *_ in chunks]
    assert sizes == sorted(sizes)


def test_kept_batches_fit_the_chunk_width_and_four_atoms_keep_none():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_PLANS", {})
        for chunk_bits in (40, 200, search.CHUNK_BITS):
            mp.setattr(search, "CHUNK_BITS", chunk_bits)
            for text in ("[](p | q) -> []p | <>q", "r | (r -> q | (q -> p | ~p))", "O O p -> p | O p"):
                for kind in "ep":
                    validity(parse_formula(text), SemanticClass(kind, 4))
        plans = dict(search._PLANS)
        assert {bits for *_, bits in plans} == {40, 200, search.CHUNK_BITS}
        for (kind, bound, k, chunk_bits), plan in plans.items():
            # The one-world batch first, then the larger sizes as one stream.
            assert None not in plan[:-1]
            sizes = [[n for _, _, n, *_ in batch[-1]] for batch in plan if batch]
            assert sizes[0] == [1] and all(1 not in s for s in sizes[1:])
            for batch in filter(None, plan):
                widths = [width for _, width, *_ in batch[-1]]
                assert len(widths) == 1 or sum(widths) <= chunk_bits
        search._PLANS.clear()
        assert validity(parse_formula("p & q & r & s -> p"), SemanticClass("e", 3)) == ValidUpTo(3)
        assert isinstance(validity(parse_formula("p | q | r | ~s"), SemanticClass("e", 3)), Countermodel)
        assert search._PLANS == {}


def _sweep_digest(bound, runs=None):
    """Soundness sweep verdicts at the bound, one line each, countermodels in full: of
    ``runs``, (logic, class) pairs, or by default of every logic in both classes."""
    lines = []
    for name, kind in runs or [(name, kind) for name in sorted(LOGICS) for kind in "ep"]:
        for schema, verdict in sorted(soundness_sweep(LOGICS[name], SemanticClass(kind, bound)).items()):
            if isinstance(verdict, Countermodel):
                lines.append(f"{name} {kind} {schema}: countermodel at {verdict.world}")
                text = print_poset_model(verdict.model, verdict.valuation)
                lines += ["  " + line for line in text.splitlines()]
            else:
                lines.append(f"{name} {kind} {schema}: {type(verdict).__name__} {verdict.bound}")
    return "\n".join(lines) + "\n"


def test_bound_4_soundness_sweeps_of_every_logic_are_frozen():
    # 40 logics x 2 classes: 1,524 verdicts, 20 of them countermodels.
    frozen = (Path(__file__).parent / "sweep_bound4.txt").read_text()
    got = _sweep_digest(4)
    verdicts = [line for line in got.splitlines() if not line.startswith(" ")]
    assert len(verdicts) == 1524 and sum("countermodel" in line for line in verdicts) == 20
    assert got == frozen


def test_bound_5_default_sweep_is_frozen():
    # The `itlmc sweep --bound 5` default: five logics, each in its class, 105 verdicts.
    runs = [(name, "e" if "poset-e" in SOUND_STRUCTURES[LOGICS[name].base_name] else "p")
            for name in SWEEP_LOGICS]
    frozen = (Path(__file__).parent / "sweep_bound5.txt").read_text()
    got = _sweep_digest(5, runs)
    assert sum(not line.startswith(" ") for line in got.splitlines()) == 105
    assert got == frozen
