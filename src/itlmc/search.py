"""Bounded countermodel search over finite dynamic posets.

Models are enumerated exhaustively up to a world bound: all partial orders
on labeled carriers, the monotone step maps found by backtracking (open ones
only for class p), and all up-set valuations of the requested atoms. The
model tables depend only on the class and the size: each is built once per
process, when a scan first reaches it, and shared by every later query.
Only a reported countermodel becomes a `DynamicPoset`. The order is
deterministic, so the first countermodel is stable across runs.

Validity does not change under isomorphism, so `validity` scans only a
reduced table per size (isomorph rejection, as in McKay and Brinkmann's
"Posets on up to 16 points", Order 2002):
the first carrier of each isomorphism class in `_orders` order, with the
class steps that are lexicographically least in their orbit under
conjugation by the carrier's automorphisms. Every (carrier, step) pair it
drops is isomorphic to an earlier pair it keeps, so a dropped pair fails
only after a kept one has failed: the reduced scan meets the same first
countermodel as a scan of every labeled model. The labeled tables serve
`enumerate_models`, and the tests as the reference.

`validity` evaluates the step maps of a carrier together: a world's row has
bit v * S + s for valuation v under the chunk's step s, valuation-major and
step-minor, for S = CHUNK_BITS // V steps (at least one) and V valuations,
so no row is wider than CHUNK_BITS = 2^16 bits unless one step's valuations
are. Reading the lowest failing step slot, then the lowest valuation at that
slot, then the lowest world, gives the countermodel a scan of one step at a
time would meet first.

A chunk's plan (its atom rows, full row, repunit and move masks) depends
only on the carrier, the atom count and the chunk width, so the plans are
kept per process for formulas of at most PLANNED_ATOMS = 3 atoms. At five
worlds in class e they take about 5 MB for two atoms and 71 MB for three;
four atoms would take about 1 GB.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, islice, permutations, product
from operator import and_
from typing import Iterator, NamedTuple, Optional, Union

from .formula import Atom, Formula, compile_formula, translate_weak
from .hilbert import LogicSpec, Schema, check, get_logic, instantiate
from .poset import DynamicPoset, Valuation, eval_formula, eval_sliced, lift_misses
from .realline import Status, eval_real

MAX_BOUND = 5

# Widest row of a query, in bits: CHUNK_BITS // V step maps share a row of V valuations.
CHUNK_BITS = 1 << 16

# Chunk plans are kept for formulas of at most this many atoms.
PLANNED_ATOMS = 3

# Kept chunk plans of the reduced tables by (class, size, atoms, chunk width),
# then (carrier index, first step).
_PLANS: dict[tuple[str, int, int, int], dict[tuple[int, int], tuple]] = {}

_FRESH = ("p", "q", "r", "s")


class BoundTooLarge(ValueError):
    """A search bound below 1 or above MAX_BOUND."""


class CorpusMissing(KeyError):
    """A corpus entry referenced by the separation matrix is unavailable."""

    __str__ = Exception.__str__


@dataclass(frozen=True)
class SemanticClass:
    """Search space: 'e' = continuous step, 'p' = continuous and open."""

    kind: str
    bound: int

    def __post_init__(self):
        if self.kind not in ("e", "p"):
            raise ValueError(f"unknown semantic class {self.kind!r}")
        if self.bound < 1:
            raise BoundTooLarge("bound must be at least 1")
        if self.bound > MAX_BOUND:
            raise BoundTooLarge(
                f"bound {self.bound} exceeds the configured maximum {MAX_BOUND}"
            )


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
# enumeration

def _orders(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All partial orders on n labeled points, as strict pair lists.

    Each unordered index pair independently takes one of three states
    (incomparable, i below j, j below i); non-transitive combinations are
    filtered out.
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
    """Number of partial orders on n labeled points (enumeration oracle)."""
    return sum(1 for _ in _orders(n))


class _Carrier(NamedTuple):
    """One labeled poset of a model table: its strict order as index pairs,
    the worlds above each world as lists, its up-set masks in
    increasing order, the class's step maps in `itertools.product` order,
    and per world its membership mask over the up-sets and its moves: each
    target j of a step, with the mask of the indices of the steps to j."""

    pairs: tuple[tuple[int, int], ...]
    ups: tuple[tuple[int, ...], ...]
    upsets: tuple[int, ...]
    steps: tuple[tuple[int, ...], ...]
    members: tuple[int, ...]
    moves: tuple[tuple[tuple[int, int], ...], ...]


def _class_steps(up_masks, ups, kind: str, interned: list) -> tuple[tuple[int, ...], ...]:
    """Monotone step maps of one carrier (open ones for class p), in product order.

    Backtracks over worlds 0..n-1, trying for each world only the values
    that fit the steps of the earlier worlds comparable with it, and in
    class p checking each world's lift condition once its up-set has steps.
    Maps are taken from ``interned``, the product list, so carriers share them.
    """
    n = len(ups)
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
def _table(kind: str, n: int, reduced: bool) -> tuple[_Carrier, ...]:
    """The class's carriers of n worlds in `_orders` order, built once per process.

    The labeled table holds every carrier with all its class steps. The
    reduced one holds the first carrier of each isomorphism class with the
    steps `_orbit_minima` keeps under its automorphisms: one model per
    isomorphism class of (poset, step) pairs.
    """
    interned = list(product(range(n), repeat=n))
    one = [b"0" * j + b"1" + b"0" * (255 - j) for j in range(n)]  # byte j to "1"
    relabelings = list(permutations(range(n))) if reduced else []
    seen = set()  # the relabeled pair lists of the isomorphism classes met so far
    table = []
    for pairs in _orders(n):
        if pairs in seen:
            continue
        base = _poset(n, pairs)
        upsets = tuple(m for m in range(1 << n) if base.is_up_set_mask(m))
        steps = _class_steps(base.up_masks, base.ups, kind, interned)
        if reduced:
            images = [tuple(sorted((s[i], s[j]) for i, j in pairs)) for s in relabelings]
            seen.update(images)
            automorphisms = [s for s, image in zip(relabelings, images) if image == pairs]
            steps = _orbit_minima(steps, automorphisms)
        members = tuple(sum(1 << d for d, up in enumerate(upsets) if up >> i & 1) for i in range(n))
        # Each world's column of targets, last step first, as one binary numeral per target.
        flat = bytes(chain.from_iterable(steps[::-1]))
        columns = [flat[i::n] for i in range(n)]
        moves = tuple(
            tuple((j, int(c.translate(one[j]), 2)) for j in range(n) if j in c) for c in columns
        )
        table.append(_Carrier(pairs, base.ups, upsets, steps, members, moves))
    return tuple(table)


def _poset(n: int, pairs: tuple[tuple[int, int], ...]) -> DynamicPoset:
    """Worlds w0..w{n-1} under the order of the index pairs, with the identity step."""
    worlds = tuple(f"w{i}" for i in range(n))
    order = tuple((worlds[i], worlds[j]) for i, j in pairs)
    return DynamicPoset(worlds, order, {w: w for w in worlds})


def _with_step(base: DynamicPoset, step: tuple[int, ...]) -> DynamicPoset:
    return base.replace_step({w: base.worlds[s] for w, s in zip(base.worlds, step)})


def enumerate_models(
    semclass: SemanticClass, atom_names: tuple[str, ...] = ()
) -> Iterator[tuple[DynamicPoset, Valuation]]:
    """All (model, valuation) pairs of the class, up to the bound.

    Carriers come by size, then in `_orders` order; steps in product order.
    Valuations of a model come in `itertools.product` order over its
    up-sets, the first atom varying slowest.
    """
    for n in range(1, semclass.bound + 1):
        for carrier in _table(semclass.kind, n, False):
            base = _poset(n, carrier.pairs)
            for step in carrier.steps:
                model = _with_step(base, step)
                for assignment in product(carrier.upsets, repeat=len(atom_names)):
                    yield model, {a: model.worlds_of(m) for a, m in zip(atom_names, assignment)}


# --------------------------------------------------------------------------
# validity search

def _repeat(x: int, period: int, total: int) -> int:
    """The low `period` bits of x repeated up to `total` bits, by doubling."""
    while period < total:
        x |= x << period
        period *= 2
    return x & ((1 << total) - 1)


def _atom_rows(members: Sequence[int], m: int, k: int, slots: int) -> tuple[list[list[int]], int]:
    """Rows of k atoms over a carrier's (valuation, step slot) pairs, and the full row.

    Bit v * slots + s of ``rows[t][i]`` says whether world i is in the up-set
    d that valuation v (in `enumerate_models` order) gives atom t: digit t
    of v in base m, most significant first. So bit d of world i's membership
    mask fills block d of ``stride`` bits in each period of m blocks. A mask
    times a comb with teeth stride - 1 apart puts bit d at d * stride (no two
    partial products meet); narrow blocks come from a string instead.
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


def _plan(carrier: _Carrier, k: int, first: int, slots: int) -> tuple:
    """Atom rows, full row, repunit and move masks of the chunk's steps under k atoms."""
    rows, full = _atom_rows(carrier.members, len(carrier.upsets), k, slots)
    # A move mask holds the chunk's slots of its steps once per valuation.
    repunit, low = _repeat(1, slots, full.bit_length()), (1 << slots) - 1
    chunk = [[(j, mask >> first & low) for j, mask in ts] for ts in carrier.moves]
    moves = [[(j, mask * repunit) for j, mask in ts if mask] for ts in chunk]
    return rows, full, repunit, moves


def validity(phi: Formula, semclass: SemanticClass) -> Verdict:
    """First falsifying model in enumeration order, or validity up to bound.

    Each size's reduced table is scanned a chunk of steps at a time under
    all valuations (see the module docstring). Only the first countermodel
    becomes a `DynamicPoset`, and `eval_formula` re-checks it on that one
    valuation.
    """
    program, names = compile_formula(phi)
    k = len(names)
    for n in range(1, semclass.bound + 1):
        plans = _PLANS.setdefault((semclass.kind, n, k, CHUNK_BITS), {})
        for index, carrier in enumerate(_table(semclass.kind, n, True)):
            size = max(1, CHUNK_BITS // len(carrier.upsets) ** k)
            for first in range(0, len(carrier.steps), size):
                slots = min(size, len(carrier.steps) - first)
                plan = plans.get((index, first)) or _plan(carrier, k, first, slots)
                if k <= PLANNED_ATOMS:
                    plans[index, first] = plan
                rows, full, repunit, moves = plan
                top = eval_sliced(moves, carrier.ups, program, rows, full)
                failing = full ^ reduce(and_, top)
                if not failing:
                    continue
                slot = next(s for s in range(slots) if failing >> s & repunit)
                at_slot = failing >> slot & repunit
                bit = (at_slot & -at_slot).bit_length() - 1 + slot
                model = _with_step(_poset(n, carrier.pairs), carrier.steps[first + slot])
                world = next(w for w, row in zip(model.worlds, top) if not (row >> bit) & 1)
                assignment = next(islice(product(carrier.upsets, repeat=k), bit // slots, None))
                valuation = {a: model.worlds_of(up) for a, up in zip(names, assignment)}
                if world in eval_formula(model, valuation, phi):
                    raise AssertionError("sliced rows and the one-valuation re-check disagree")
                return Countermodel(model, valuation, world, phi)
    return ValidUpTo(semclass.bound)


def _fresh_instance(schema: Schema) -> Formula:
    """The schema with its metavariables replaced by distinct fresh atoms."""
    return instantiate(
        schema, {mv: Atom(_FRESH[i]) for i, mv in enumerate(schema.metavars)}
    )


def soundness_sweep(
    logic: LogicSpec, semclass: SemanticClass
) -> dict[str, Verdict]:
    """Check every axiom schema of the logic over the class.

    Schemas are instantiated with distinct fresh atoms; weak-rendered
    logics are swept in their weak-box reading.
    """
    results: dict[str, Verdict] = {}
    for name in sorted(logic.axioms):
        inst = _fresh_instance(logic.axioms[name])
        if logic.weak_rendered:
            inst = translate_weak(inst)
        results[name] = validity(inst, semclass)
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
class EdgeSpec:
    """One arrow of the logic-inclusion diagram.

    Solid edges claim proper inclusion (source strictly below target);
    dashed edges only claim the target is not below the source.  The
    formula belongs to the target and fails somewhere the source is
    sound; `witness` names the falsifying corpus model ("out-of-scope:"
    entries document witnesses outside the mechanized structure classes).
    """

    source: str
    target: str
    style: str
    label: str
    formula: Formula
    witness: str
    point: str
    derivation: str
    logic: str
    inclusion: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class EdgeReport:
    edge: EdgeSpec
    derivation_ok: bool
    witness_status: str  # verified | out-of-scope | failed
    inclusion_ok: Optional[bool]  # None for dashed edges
    detail: str

    @property
    def ok(self) -> bool:
        return (
            self.derivation_ok
            and self.witness_status != "failed"
            and self.inclusion_ok is not False
        )


def _verify_witness(edge: EdgeSpec, corpus) -> tuple[str, str]:
    if edge.witness.startswith(OUT_OF_SCOPE_PREFIX):
        return "out-of-scope", edge.witness[len(OUT_OF_SCOPE_PREFIX):]
    kind = corpus.kind_of(edge.witness)
    sound_for = SOUND_STRUCTURES[edge.source]
    if kind == "poset-model":
        model, valuation = corpus.load(edge.witness)
        tag = "poset-p" if model.is_open else "poset-e"
        if tag not in sound_for:
            return "failed", f"witness structure {tag} is not sound for {edge.source}"
        if edge.point not in model.index:
            return "failed", f"point {edge.point!r} is not a world of {edge.witness}"
        ext = eval_formula(model, valuation, edge.formula)
        if edge.point in ext:
            return "failed", f"formula holds at {edge.point}"
        return "verified", f"falsified at {edge.point} on {edge.witness} ({tag})"
    if kind == "real-system":
        system = corpus.load(edge.witness)
        tag = "real-open" if system.map.is_open() else "real"
        if tag not in sound_for:
            return "failed", f"witness structure {tag} is not sound for {edge.source}"
        outcome = eval_real(system, edge.formula)
        if outcome.status is Status.UNDETERMINED or outcome.value is None:
            return "failed", "witness evaluation is undetermined"
        try:
            point = Fraction(edge.point)
        except (ValueError, ZeroDivisionError):
            return "failed", f"point {edge.point!r} is not a rational number"
        if outcome.value.contains(point):
            return "failed", f"formula holds at {edge.point}"
        return "verified", f"falsified at {edge.point} on {edge.witness} ({tag})"
    return "failed", f"witness {edge.witness} has unusable kind {kind}"


def _verify_inclusion(edge: EdgeSpec, corpus) -> tuple[Optional[bool], str]:
    if edge.style != "solid":
        return None, ""
    src = get_logic(f"{edge.source}.db")
    dst = get_logic(f"{edge.target}.db")
    if not set(src.rules) <= set(dst.rules):
        return False, "rules are not included"
    evidence = dict(edge.inclusion)
    notes = []
    for name in sorted(src.axioms):
        if name in dst.axioms:
            continue
        deriv_id = evidence.get(name)
        if deriv_id is None:
            return False, f"no evidence that {edge.target} derives axiom {name}"
        derivation = corpus.load(deriv_id)
        result = check(derivation, dst)
        if not result.ok:
            return False, f"evidence {deriv_id} rejected: {result.reason}"
        if derivation.theorem != _fresh_instance(src.axioms[name]):
            return False, f"evidence {deriv_id} proves the wrong formula"
        notes.append(f"{name} via {deriv_id}")
    return True, "; ".join(notes) if notes else "axioms included"


def build_separation_matrix(corpus) -> list[EdgeReport]:
    """Verify every edge certificate of the bundled inclusion diagram."""
    try:
        edges = corpus.edges()
    except (KeyError, FileNotFoundError) as err:
        raise CorpusMissing(str(err)) from err
    reports = []
    for edge in edges:
        try:
            derivation = corpus.load(edge.derivation)
        except KeyError as err:
            raise CorpusMissing(str(err)) from err
        logic = get_logic(edge.logic)
        result = check(derivation, logic)
        derivation_ok = (
            result.ok
            and logic.base_name == edge.target
            and derivation.theorem == edge.formula
        )
        details = []
        if not result.ok:
            details.append(f"derivation rejected: {result.reason}")
        elif not derivation_ok:
            details.append("derivation does not certify this edge")
        try:
            witness_status, note = _verify_witness(edge, corpus)
        except KeyError as err:
            raise CorpusMissing(str(err)) from err
        if note:
            details.append(note)
        inclusion_ok, inc_note = _verify_inclusion(edge, corpus)
        if inc_note:
            details.append(inc_note)
        reports.append(
            EdgeReport(
                edge, derivation_ok, witness_status, inclusion_ok, "; ".join(details)
            )
        )
    return reports
