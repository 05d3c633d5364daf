"""Shared strategies and deterministic random generators for the tests."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import permutations, product

import hypothesis.strategies as st

from itlmc import (
    And,
    Atom,
    Bottom,
    DynamicPoset,
    Eventually,
    Implies,
    Interval,
    IntervalSet,
    Next,
    Or,
    PiecewiseAffineMap,
    StrongBox,
    WeakBox,
    eval_formula,
    make_interval,
)
from itlmc import search


def formulas(
    atom_names=("p", "q", "r"),
    max_leaves: int = 10,
    allow_dia: bool = True,
    allow_strong: bool = True,
    allow_weak: bool = False,
):
    """Hypothesis strategy for random formulas in a chosen fragment."""
    leaves = st.sampled_from([Bottom(), *(Atom(a) for a in atom_names)])
    unary = [Next]
    if allow_dia:
        unary.append(Eventually)
    if allow_strong:
        unary.append(StrongBox)
    if allow_weak:
        unary.append(WeakBox)

    def extend(children):
        options = [st.builds(op, children) for op in unary]
        options += [
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Implies, children, children),
        ]
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def random_poset(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random strict partial order on range(n), as closed pair list."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, n * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or leq[j][i]:
            continue
        leq[i][j] = True
        for a in range(n):
            for b in range(n):
                if leq[a][i] and leq[j][b]:
                    leq[a][b] = True
    return [(i, j) for i in range(n) for j in range(n) if i != j and leq[i][j]]


def orders(n: int):
    """All partial orders on n labeled points, as strict pair lists.

    Each index pair i < j independently takes one of three states
    (incomparable, i below j, j below i), the state vectors in
    lexicographic order; non-transitive combinations are filtered out.
    """
    index_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for states in product((0, 1, 2), repeat=len(index_pairs)):
        leq = [1 << i for i in range(n)]  # row i = mask of j with i <= j
        for (i, j), s in zip(index_pairs, states):
            if s == 1:
                leq[i] |= 1 << j
            elif s == 2:
                leq[j] |= 1 << i
        # Transitive: every world above a world above i is above i.
        if all(leq[k] & ~leq[i] == 0 for i in range(n) for k in range(n) if leq[i] >> k & 1):
            yield tuple((i, j) for i in range(n) for j in range(n) if i != j and leq[i] >> j & 1)


def count_posets(n: int) -> int:
    """Number of partial orders on n labeled points."""
    return sum(1 for _ in orders(n))


@cache
def oracle_table(kind: str, n: int, reduced: bool):
    """The model table of a class on n worlds, built by walking `orders`.

    The labeled table holds every labeled poset with all its class steps.
    The reduced one holds the first poset of each isomorphism class that
    the walk meets, with the steps `search._orbit_minima` keeps under its
    automorphisms: what `search._table` must equal.
    """
    interned = list(product(range(n), repeat=n))
    relabelings = list(permutations(range(n))) if reduced else []
    seen = set()  # the relabeled pair lists of the isomorphism classes met so far
    table = []
    for pairs in orders(n):
        if pairs in seen:
            continue
        up_masks = [1 << i for i in range(n)]
        for i, j in pairs:
            up_masks[i] |= 1 << j
        steps = search._class_steps(up_masks, kind, interned)
        if reduced:
            images = [tuple(sorted((s[i], s[j]) for i, j in pairs)) for s in relabelings]
            seen.update(images)
            automorphisms = [s for s, image in zip(relabelings, images) if image == pairs]
            steps = search._orbit_minima(steps, automorphisms)
        table.append(search._carrier(up_masks, steps))
    return tuple(table)


def enumerate_models(semclass, atom_names=()):
    """All (model, valuation) pairs of the class up to its bound, labeled.

    Carriers come by size, then in `orders` order; steps in product order.
    Valuations of a model come in `itertools.product` order over its
    up-sets, the first atom varying slowest.
    """
    for n in range(1, semclass.bound + 1):
        for carrier in oracle_table(semclass.kind, n, False):
            base = search._poset(n, carrier.pairs)
            for step in carrier.steps:
                model = search._with_step(base, step)
                for assignment in product(carrier.upsets, repeat=len(atom_names)):
                    yield model, {a: model.worlds_of(m) for a, m in zip(atom_names, assignment)}


def random_model(
    rng: random.Random,
    max_worlds: int = 8,
    atom_names=("p", "q"),
    require_open: bool = False,
) -> tuple[DynamicPoset, dict[str, frozenset[str]]]:
    """A random continuous dynamic poset model with up-set valuation."""
    while True:
        n = rng.randint(1, max_worlds)
        worlds = tuple(f"w{i}" for i in range(n))
        pairs = random_poset(rng, n)
        order = tuple((worlds[i], worlds[j]) for i, j in pairs)
        carrier = DynamicPoset(worlds, order, {w: w for w in worlds})
        for _ in range(40):
            step = {w: worlds[rng.randrange(n)] for w in worlds}
            model = carrier.replace_step(step)
            if model.is_continuous and (not require_open or model.is_open):
                break
        else:
            model = carrier  # identity step is continuous and open
        valuation = {}
        for atom in atom_names:
            seed = {w for w in worlds if rng.random() < 0.4}
            closed = {
                v for v in worlds for w in seed if w == v or model.leq(w, v)
            }
            valuation[atom] = frozenset(closed)
        return model, valuation


def kripke_extension(model, valuation, phi) -> frozenset[str]:
    """Worlds where phi holds, read off the Kripke clauses with plain sets.

    Independent of the engine: -> ranges over the worlds above, O follows
    the step, <> and [] range over the forward orbit, and [*] asks every
    world above for its whole orbit (the engine skips that interior on
    continuous steps). Recursive, for the small formulas of the tests.
    """
    worlds = model.worlds

    def above(w):
        return [v for v in worlds if model.leq(w, v)]

    def orbit(w):
        seen = []
        while w not in seen:
            seen.append(w)
            w = model.step[w]
        return seen

    def ext(f) -> frozenset[str]:
        match f:
            case Bottom():
                return frozenset()
            case Atom(name):
                return frozenset(valuation.get(name, ()))
            case And(a, b):
                return ext(a) & ext(b)
            case Or(a, b):
                return ext(a) | ext(b)
            case Implies(a, b):
                ea, eb = ext(a), ext(b)
                return frozenset(
                    w for w in worlds if all(v not in ea or v in eb for v in above(w))
                )
            case Next(a):
                ea = ext(a)
                return frozenset(w for w in worlds if model.step[w] in ea)
            case Eventually(a):
                ea = ext(a)
                return frozenset(w for w in worlds if any(x in ea for x in orbit(w)))
            case StrongBox(a):
                ea = ext(a)
                return frozenset(w for w in worlds if all(x in ea for x in orbit(w)))
            case WeakBox(a):
                ea = ext(a)
                return frozenset(
                    w for w in worlds
                    if all(x in ea for v in above(w) for x in orbit(v))
                )
        raise TypeError(f"unknown formula {f!r}")

    return ext(phi)


def eval_box_by_orbit(model, valuation, phi) -> frozenset[str]:
    """Henceforth phi computed by walking orbits, not by the fixpoint chain.

    Independent oracle: a world satisfies the box iff its entire forward
    orbit (finite, detected by revisit) stays inside the extension of phi.
    """
    child = eval_formula(model, valuation, phi)
    out = set()
    for w in model.worlds:
        v, seen = w, set()
        while v not in seen and v in child:
            seen.add(v)
            v = model.step[v]
        if v in seen:
            out.add(w)
    return frozenset(out)


def random_interval_set(rng: random.Random, max_pieces: int = 4) -> IntervalSet:
    """A random finite union of rational intervals (possibly unbounded)."""
    pieces = []
    for _ in range(rng.randint(0, max_pieces)):
        a = Fraction(rng.randint(-24, 24), rng.randint(1, 8))
        b = Fraction(rng.randint(-24, 24), rng.randint(1, 8))
        lo, hi = (a, b) if a <= b else (b, a)
        if rng.random() < 0.15:
            lo = None
        if rng.random() < 0.15:
            hi = None
        piece = make_interval(
            lo,
            lo is not None and rng.random() < 0.5,
            hi,
            hi is not None and rng.random() < 0.5,
        )
        if piece is not None:
            pieces.append(piece)
    if not pieces and rng.random() < 0.3:
        return IntervalSet((Interval(None, False, None, False),))
    return IntervalSet.of(pieces)


def random_point(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-60, 60), rng.randint(1, 12))


MAP_SLOPES = tuple(Fraction(a) for a in ("-2", "-1", "-1/3", "0", "1/2", "1", "3"))


def random_map(rng: random.Random) -> PiecewiseAffineMap:
    """A random continuous map with up to two breakpoints, flat pieces and
    negative slopes."""
    ends = (Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(0, 2)))
    breakpoints = sorted(set(ends))
    pieces = [(rng.choice(MAP_SLOPES), Fraction(rng.randint(-12, 12), rng.randint(1, 3)))]
    for b in breakpoints:
        a, c = pieces[-1]
        slope = rng.choice(MAP_SLOPES)
        pieces.append((slope, a * b + c - slope * b))
    return PiecewiseAffineMap.from_pieces(breakpoints, pieces)
