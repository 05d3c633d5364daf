"""Bounded countermodel search over finite dynamic posets.

A scan goes by size up to a world bound and, at each size, over one model
per isomorphism class of (poset, step) pairs under all up-set valuations of
the formula's atoms. Each table, of a class and a size, is built once per
process, when a batch first takes a chunk from it, so a formula refuted on
one world never builds the larger sizes. Only a reported countermodel
becomes a `DynamicPoset`.

The posets are generated directly, one per isomorphism class (isomorph
rejection, as in McKay and Brinkmann's "Posets on up to 16 points", Order
2002). Label pair i < j has state 0 (incomparable), 1 (i below j) or 2 (j
below i); a class is kept as its labeling with the least state vector, and
the classes are sorted by it: the order in which a walk of all labeled
posets by state vector meets each class first. Each poset keeps the
monotone step maps (open ones only for class p) least in their orbit under
conjugation by its automorphisms. Every labeled (poset, step) pair dropped
is isomorphic to an earlier one kept, so it fails only after a kept one has
failed: the scan meets the first countermodel of a scan of every labeled
model in that order.

`validity` evaluates chunks of a carrier's step maps: a world's row has bit
v * S + s for valuation v under the chunk's step s, for S steps and V
valuations. The lowest failing step slot, then valuation, then world, is
the countermodel a scan of one step at a time would meet first.

The one-world table, the classical valuations, is a batch of its own; the
chunks of sizes 2..bound follow as one stream in scan order, packed into
batches of CHUNK_BITS = 2^16 lanes: a chunk takes as many of its carrier's
next steps as its batch has room for (one, alone, if it is wider). A batch
is one `eval_sliced` call over the worlds of its largest chunk, chunk c at
lanes [lane_c, lane_c + width_c) of every row. The order is a lane mask,
like the step: world i's up-pairs name each j that some chunk's poset puts
above i, with the lanes whose poset does not. Each chunk reads only its
own lanes, in scan order, and the scan stops at the first failing batch.

A chunk of m worlds in a batch of N is padded with N - m isolated worlds
that step to themselves and make every atom false. Truth at a world
depends only on the submodel it generates (Blackburn, de Rijke and Venema,
*Modal Logic*, CUP 2001, 2.1), so the chunk's worlds keep their truth and
each padding world is the one-world model under the all-false valuation,
which the first batch passed: the top rows need no lane mask.

Batches are kept per process by class, bound, atom count and chunk width,
for formulas of at most PLANNED_ATOMS = 3 atoms. At bound 5 in class e
they take about 6 MB for two atoms and 50 MB for three (tracemalloc);
four would take 125 MB.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import count, islice, permutations, product
from operator import and_
from typing import NamedTuple, Union

from .formula import Atom, Formula, InputError, walk
from .hilbert import LogicSpec, Schema, check, get_logic, instantiate
from .parser import EdgeSpec, ParseError, parse_rational
from .poset import DynamicPoset, Valuation, eval_formula, eval_sliced, lift_misses
from .realline import eval_real

MAX_BOUND = 5

# Widest row of a query, in bits: CHUNK_BITS // V step maps share a row of V valuations.
CHUNK_BITS = 1 << 16

# Batches are kept for formulas of at most this many atoms.
PLANNED_ATOMS = 3

# The batches of a scan by (class, bound, atoms, chunk width), built so far: a prefix,
# since scans go in order, that ends in None once the scan has passed them all.
_PLANS: dict[tuple[str, int, int, int], list[tuple | None]] = {}

_FRESH = ("p", "q", "r", "s")


class BoundTooLarge(InputError):
    """A search bound below 1 or above MAX_BOUND."""


@dataclass(frozen=True)
class SemanticClass:
    """Search space: 'e' = continuous step, 'p' = continuous and open."""

    kind: str
    bound: int

    def __post_init__(self):
        if self.kind not in ("e", "p"):
            raise InputError(f"unknown semantic class {self.kind!r}")
        if self.bound < 1:
            raise BoundTooLarge("bound must be at least 1")
        if self.bound > MAX_BOUND:
            raise BoundTooLarge(f"bound {self.bound} exceeds the configured maximum {MAX_BOUND}")


@dataclass(frozen=True)
class ValidUpTo:
    bound: int


@dataclass(frozen=True)
class Countermodel:
    model: DynamicPoset
    valuation: Valuation
    world: str
    formula: Formula


@dataclass(frozen=True)
class Undetermined:
    reason: str


Verdict = Union[ValidUpTo, Countermodel, Undetermined]


# --------------------------------------------------------------------------
# model tables

@cache
def _relabelings(n: int) -> list[list[int]]:
    """Per relabeling p of n points, in `permutations` order: p[i] * n + p[j] for i < j."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [[p[i] * n + p[j] for i, j in pairs] for p in permutations(range(n))]


def _state_vectors(up_masks: Sequence[int]) -> list[tuple[int, ...]]:
    """The poset's state vector under each relabeling, in `permutations` order."""
    n = len(up_masks)
    state = [up_masks[a] >> b & 1 | (up_masks[b] >> a & 1) << 1 for a in range(n) for b in range(n)]
    return [tuple(map(state.__getitem__, key)) for key in _relabelings(n)]


def _upsets(up_masks: Sequence[int]) -> tuple[int, ...]:
    bits = list(enumerate(up_masks))
    return tuple(m for m in range(1 << len(bits)) if all(m | u == m for i, u in bits if m >> i & 1))


@cache
def _classes(n: int) -> tuple[tuple[int, ...], ...]:
    """One poset of n points per isomorphism class, as up-masks, in scan order: an (n-1)-class
    with a new minimal point below one of its up-sets, relabeled to its least state vector."""
    if n == 0:
        return ((),)
    least = {}
    for up_masks in _classes(n - 1):
        for upset in _upsets(up_masks):
            masks = (*up_masks, upset | 1 << (n - 1))
            vector, p = min(zip(_state_vectors(masks), permutations(range(n))))
            least[vector] = tuple(sum(1 << j for j in range(n) if masks[a] >> p[j] & 1) for a in p)
    return tuple(least[vector] for vector in sorted(least))


class _Carrier(NamedTuple):
    """One poset of a model table: its strict order as index pairs, the
    worlds above each world as lists, its up-set masks in increasing order,
    its step maps in `itertools.product` order, and per world its membership
    mask over the up-sets and its moves: each target j of a step, with the
    mask of the indices of the steps to j."""

    pairs: tuple[tuple[int, int], ...]
    ups: tuple[tuple[int, ...], ...]
    upsets: tuple[int, ...]
    steps: tuple[tuple[int, ...], ...]
    members: tuple[int, ...]
    moves: tuple[tuple[tuple[int, int], ...], ...]


def _carrier(up_masks: Sequence[int], steps: tuple[tuple[int, ...], ...]) -> _Carrier:
    """The table entry of a poset given as up-masks, with these step maps."""
    n = len(up_masks)
    ups = tuple(tuple(j for j in range(n) if m >> j & 1) for m in up_masks)
    pairs = tuple((i, j) for i in range(n) for j in ups[i] if j != i)
    upsets = _upsets(up_masks)
    members = tuple(sum(1 << d for d, up in enumerate(upsets) if up >> i & 1) for i in range(n))
    masks = [[0] * n for _ in range(n)]
    for s, step in enumerate(steps):
        for i, j in enumerate(step):
            masks[i][j] |= 1 << s
    moves = tuple(tuple((j, m) for j, m in enumerate(row) if m) for row in masks)
    return _Carrier(pairs, ups, upsets, steps, members, moves)


def _class_steps(up_masks, kind: str, interned: list) -> tuple[tuple[int, ...], ...]:
    """Monotone step maps of one poset (open ones for class p), in product order.

    Backtracks over worlds 0..n-1, trying for each world only the values
    that fit the steps of the earlier worlds comparable with it, and in
    class p checking each world's lift condition once its up-set has steps.
    Maps are taken from ``interned``, the product list, so carriers share them.
    """
    n = len(up_masks)
    ups = [[j for j in range(n) if up_masks[i] >> j & 1] for i in range(n)]
    down_masks = [sum(1 << j for j in range(n) if (up_masks[j] >> i) & 1) for i in range(n)]
    # World i is constrained by each earlier comparable j: S(i) lies above
    # S(j) when j is below i, and below S(j) when j is above i.
    checks = [
        [(j, up_masks) for j in range(i) if (up_masks[j] >> i) & 1]
        + [(j, down_masks) for j in range(i) if (up_masks[i] >> j) & 1]
        for i in range(n)
    ]
    due = [[w for w in range(n) if kind == "p" and max(ups[w]) == i] for i in range(n)]
    step = [0] * n
    out = []

    def extend(i: int, index: int) -> None:
        if i == n:
            out.append(interned[index])
            return
        allowed = (1 << n) - 1
        for j, masks in checks[i]:
            allowed &= masks[step[j]]
        lifting = due[i]
        while allowed:
            v = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            step[i] = v
            if not lifting or not any(lift_misses(step, up_masks, ups[w], w) for w in lifting):
                extend(i + 1, index * n + v)

    extend(0, 0)
    return tuple(out)


def _orbit_minima(steps, automorphisms) -> tuple[tuple[int, ...], ...]:
    """The steps least in their orbit under conjugation, g[σ i] = σ(s[i]).

    Steps come in product order, which is lexicographic, so a step that no
    earlier kept step's orbit covers is the least of its own orbit.
    """
    kept, covered = [], set()
    for step in steps:
        if step in covered:
            continue
        kept.append(step)
        for sigma in automorphisms:
            image = [0] * len(step)
            for i, target in enumerate(step):
                image[sigma[i]] = sigma[target]
            covered.add(tuple(image))
    return tuple(kept)


@cache
def _table(kind: str, n: int) -> tuple[_Carrier, ...]:
    """The class's models on n worlds, one per isomorphism class, built once per process.

    Each poset of `_classes` keeps the steps `_orbit_minima` keeps under its
    automorphisms, the relabelings that fix its state vector.
    """
    interned = list(product(range(n), repeat=n))
    table = []
    for up_masks in _classes(n):
        vectors = _state_vectors(up_masks)
        automorphisms = [p for p, v in zip(permutations(range(n)), vectors) if v == vectors[0]]
        steps = _orbit_minima(_class_steps(up_masks, kind, interned), automorphisms)
        table.append(_carrier(up_masks, steps))
    return tuple(table)


@cache
def _poset(n: int, pairs: tuple[tuple[int, int], ...]) -> DynamicPoset:
    """Worlds w0..w{n-1} under the order of the index pairs, with the identity step."""
    worlds = tuple(f"w{i}" for i in range(n))
    order = tuple((worlds[i], worlds[j]) for i, j in pairs)
    return DynamicPoset(worlds, order, {w: w for w in worlds})


def _with_step(base: DynamicPoset, step: tuple[int, ...]) -> DynamicPoset:
    return base.replace_step({w: base.worlds[s] for w, s in zip(base.worlds, step)})


# --------------------------------------------------------------------------
# validity search

def _repeat(x: int, period: int, total: int) -> int:
    """x < 2**period repeated up to ``total`` bits, a multiple of period, by doubling; then x
    shifted to the top and its high bits shifted to the bottom, both whole copies, meet."""
    while 2 * period <= total:
        x |= x << period
        period *= 2
    return x << total - period | x >> 2 * period - total if period < total else x


@lru_cache(maxsize=1)
def _atom_rows(members: Sequence[int], m: int, k: int, slots: int) -> tuple[list[list[int]], int]:
    """Rows of k atoms over a carrier's (valuation, step slot) pairs, and the full row.

    Bit v * slots + s of ``rows[t][i]`` says whether world i is in the up-set
    d that valuation v (in `itertools.product` order) gives atom t: digit t
    of v in base m, most significant first. So bit d of world i's membership
    mask fills block d of ``stride`` bits in each period of m blocks. A mask
    times a comb with teeth stride - 1 apart puts bit d at d * stride (no two
    partial products meet); narrow blocks come from a string instead. The
    last rows are kept: a carrier's chunks come in a row, all but its first
    and last with the same slot count.
    """
    total = m**k * slots
    rows = []
    for t in range(k):
        stride = slots * m ** (k - 1 - t)
        if stride > m:
            comb = _repeat(_repeat(1, stride - 1, m * (stride - 1)), m * stride, total)
            ends = _repeat(1, stride, total)
            rows.append([(x << stride) - x for x in [mask * comb & ends for mask in members]])
        else:
            blocks = {48: "0" * stride, 49: "1" * stride}
            spread = [int(format(mask, f"0{m}b").translate(blocks), 2) for mask in members]
            rows.append([_repeat(x, m * stride, total) for x in spread])
    return rows, (1 << total) - 1


def _groups(kind: str, bound: int, k: int, chunk_bits: int) -> Iterator[list[tuple]]:
    """A scan's batches of chunks (size, carrier index, first step, slot count), in scan order:
    the one-world table's alone, then those of sizes 2..bound. A chunk takes as many of its
    carrier's next steps as the batch has room for (one, if alone); a batch ends when it has no
    room for one step of the next carrier. Each table is built when a batch takes a chunk."""
    group, room = [], chunk_bits
    for n in range(1, bound + 1):
        # Each size's first poset is the antichain, 2^n up-sets: a batch without room for one
        # of its steps ends here, before the table is built.
        if group and (n == 2 or 2 ** (n * k) > room):
            yield group
            group, room = [], chunk_bits
        for index, carrier in enumerate(_table(kind, n)):
            valuations, first = len(carrier.upsets) ** k, 0
            while first < len(carrier.steps):
                if group and valuations > room:
                    yield group
                    group, room = [], chunk_bits
                slots = min(len(carrier.steps) - first, max(1, room // valuations))
                group.append((n, index, first, slots))
                first += slots
                room -= valuations * slots
    yield group


def _batch(kind: str, k: int, group: list[tuple[int, int, int, int]]) -> tuple:
    """Moves, up-pairs, atom rows and full row of the chunks stacked along the lanes, and per
    chunk its first lane, width, size, carrier index, first step and slot count. A chunk of
    fewer worlds than the last is padded with isolated worlds that step to themselves."""
    n = group[-1][0]
    parts, chunks, lane = [], [], 0
    for size, index, first, slots in group:
        carrier, padding = _table(kind, size)[index], range(size, n)
        rows, full = _atom_rows(carrier.members, len(carrier.upsets), k, slots)
        # A move mask holds the chunk's slots of its steps once per valuation;
        # where all of them go to one target, it is the full row itself.
        repunit, low = _repeat(1, slots, full.bit_length()), (1 << slots) - 1
        moves = [{j: full if m == low else m * repunit for j, mask in targets
                  if (m := mask >> first & low)} for targets in carrier.moves]
        moves += [{i: full} for i in padding]
        ups = carrier.ups + tuple((i,) for i in padding)
        parts.append(([row + [0] * len(padding) for row in rows], moves, ups, full))
        chunks.append((lane, full.bit_length(), size, index, first, slots))
        lane += full.bit_length()
    rows, moves, ups, fulls = zip(*parts)
    lanes, full, worlds = [lane for lane, *_ in chunks[1:]], (1 << lane) - 1, range(n)

    def join(masks: Sequence[int]) -> int:
        """One mask per chunk, each at its chunk's lanes; a mask of every lane is ``full``."""
        mask = masks[0]
        for part, at in zip(masks[1:], lanes):
            if part:
                mask |= part << at
        return full if mask == full else mask

    moves = [[(j, mask) for j in worlds if (mask := join([m[i].get(j, 0) for m in moves]))]
             for i in worlds]
    # Up-pairs mask the lanes whose poset does not put j above i; j is left out where none does.
    ups = [[(j, off) for j in worlds
            if (off := join([0 if j in up[i] else f for up, f in zip(ups, fulls)])) is not full]
           for i in worlds]
    return moves, ups, [[join(world) for world in zip(*atom)] for atom in zip(*rows)], full, chunks


def validity(phi: Formula, semclass: SemanticClass) -> Verdict:
    """First falsifying model in enumeration order, or validity up to bound.

    The tables are scanned a batch of chunks of steps at a time under all
    valuations (see the module docstring). Only the first countermodel
    becomes a `DynamicPoset`, and `eval_formula` re-checks it on that one
    valuation.
    """
    program = walk(phi)[1]
    names = sorted(a for op, a, _ in program if op is Atom)
    k, kind = len(names), semclass.kind
    key = (kind, semclass.bound, k, CHUNK_BITS)
    plan = _PLANS.setdefault(key, []) if k <= PLANNED_ATOMS else []
    groups = None
    for b in count():
        if b < len(plan):
            batch = plan[b]
        else:
            # Past the kept batches a fresh stream takes over, so no failed build is half kept.
            groups = groups or islice(_groups(kind, semclass.bound, k, CHUNK_BITS), b, None)
            batch = (group := next(groups, None)) and _batch(kind, k, group)
            if k <= PLANNED_ATOMS:
                plan.append(batch)
        if batch is None:
            return ValidUpTo(semclass.bound)
        moves, ups, rows, full, chunks = batch
        top = eval_sliced(moves, ups, program, dict(zip(names, rows)), full)
        missing = full & ~reduce(and_, top)
        for lane, width, n, index, first, slots in chunks if missing else ():
            failing = missing >> lane & (1 << width) - 1
            if not failing:
                continue
            carrier, repunit = _table(kind, n)[index], _repeat(1, slots, width)
            slot = next(s for s in range(slots) if failing >> s & repunit)
            at_slot = failing >> slot & repunit
            bit = (at_slot & -at_slot).bit_length() - 1 + slot
            model = _with_step(_poset(n, carrier.pairs), carrier.steps[first + slot])
            world = next(w for w, row in zip(model.worlds, top) if not (row >> lane + bit) & 1)
            assignment = next(islice(product(carrier.upsets, repeat=k), bit // slots, None))
            valuation = {a: model.worlds_of(up) for a, up in zip(names, assignment)}
            if world in eval_formula(model, valuation, phi):
                raise AssertionError("sliced rows and the one-valuation re-check disagree")
            return Countermodel(model, valuation, world, phi)


def _fresh_instance(schema: Schema) -> Formula:
    """The schema with its metavariables replaced by distinct fresh atoms."""
    return instantiate(schema, {mv: Atom(_FRESH[i]) for i, mv in enumerate(schema.metavars)})


def soundness_sweep(logic: LogicSpec, semclass: SemanticClass) -> dict[str, Verdict]:
    """Check every axiom schema of the logic over the class.

    Schemas are instantiated with distinct fresh atoms as the logic states
    them; on dynamic posets the weak and the strong box denote the same sets.
    """
    results: dict[str, Verdict] = {}
    for name in sorted(logic.axioms):
        results[name] = validity(_fresh_instance(logic.axioms[name]), semclass)
    return results


# --------------------------------------------------------------------------
# separation matrix

# Structures each base logic is sound for.  poset-e: continuous step;
# poset-p: continuous and open; real: any piecewise affine continuous map;
# real-open: invertible such maps.
SOUND_STRUCTURES: dict[str, frozenset[str]] = {
    "ITL": frozenset({"poset-e", "poset-p", "real", "real-open"}),
    "ITL0": frozenset({"poset-e", "poset-p", "real", "real-open"}),
    "ETL": frozenset({"poset-e", "poset-p", "real", "real-open"}),
    "RTL": frozenset({"poset-p", "real", "real-open"}),
    "CDTL": frozenset({"poset-e", "poset-p"}),
    "ITL+": frozenset({"poset-p", "real-open"}),
    "ETL+": frozenset({"poset-p", "real-open"}),
    "CDTL+": frozenset({"poset-p"}),
}

OUT_OF_SCOPE_PREFIX = "out-of-scope:"


@dataclass(frozen=True)
class EdgeReport:
    edge: EdgeSpec
    ok: bool
    detail: str


def _verify_derivation(edge: EdgeSpec, corpus) -> tuple[bool, str]:
    derivation = corpus.load(edge.derivation, "derivation")
    logic = get_logic(edge.logic)
    result = check(derivation, logic)
    if not result.ok:
        return False, f"derivation rejected: {result.reason}"
    if logic.base_name != edge.target or derivation.theorem != edge.formula:
        return False, "derivation does not certify this edge"
    return True, ""


def _verify_witness(edge: EdgeSpec, corpus) -> tuple[bool, str]:
    if edge.witness.startswith(OUT_OF_SCOPE_PREFIX):
        return True, edge.witness[len(OUT_OF_SCOPE_PREFIX):]
    kind = corpus.kind_of(edge.witness)
    sound_for = SOUND_STRUCTURES[get_logic(f"{edge.source}.db").base_name]
    if kind not in ("poset-model", "real-system"):
        return False, f"witness {edge.witness} has unusable kind {kind}"
    witness = corpus.load(edge.witness, kind)
    if kind == "poset-model":
        model, valuation = witness
        tag = "poset-p" if model.is_open else "poset-e"
    else:
        tag = "real-open" if witness.map.is_open() else "real"
    if tag not in sound_for:
        return False, f"witness structure {tag} is not sound for {edge.source}"
    if kind == "poset-model":
        if edge.point not in model.index:
            return False, f"point {edge.point!r} is not a world of {edge.witness}"
        holds = edge.point in eval_formula(model, valuation, edge.formula)
    else:
        value = eval_real(witness, edge.formula).value
        if value is None:
            return False, "witness evaluation is undetermined"
        try:
            holds = value.contains(parse_rational(edge.point))
        except ParseError:
            return False, f"point {edge.point!r} is not a rational number"
    if holds:
        return False, f"formula holds at {edge.point}"
    return True, f"falsified at {edge.point} on {edge.witness} ({tag})"


def _verify_inclusion(edge: EdgeSpec, corpus) -> tuple[bool, str]:
    if edge.style != "solid":
        return True, ""
    src = get_logic(f"{edge.source}.db")
    dst = get_logic(f"{edge.target}.db")
    evidence = dict(edge.inclusion)
    notes = []
    for name in sorted(src.axioms):
        if name in dst.axioms:
            continue
        deriv_id = evidence.get(name)
        if deriv_id is None:
            return False, f"no evidence that {edge.target} derives axiom {name}"
        derivation = corpus.load(deriv_id, "derivation")
        result = check(derivation, dst)
        if not result.ok:
            return False, f"evidence {deriv_id} rejected: {result.reason}"
        if derivation.theorem != _fresh_instance(src.axioms[name]):
            return False, f"evidence {deriv_id} proves the wrong formula"
        notes.append(f"{name} via {deriv_id}")
    return True, "; ".join(notes) if notes else "axioms included"


def build_separation_matrix(corpus) -> list[EdgeReport]:
    """Verify every edge certificate of the bundled inclusion diagram.

    An edge holds when its derivation, its witness and (for a solid edge)
    its inclusion evidence all check; the detail joins their notes in that
    order.
    """
    reports = []
    for edge in corpus.edges():
        verifiers = (_verify_derivation, _verify_witness, _verify_inclusion)
        checks = [verify(edge, corpus) for verify in verifiers]
        detail = "; ".join(note for _, note in checks if note)
        reports.append(EdgeReport(edge, all(ok for ok, _ in checks), detail))
    return reports
