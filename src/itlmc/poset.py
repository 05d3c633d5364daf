"""Finite dynamic posets and model checking over them.

A model is a finite poset carrying a step function. Opens are the up-sets;
the step must be monotone for evaluation to make sense (continuity), and is
additionally open when every step value below a point lifts to a step value
of a point above.

World sets are represented internally as integer bitmasks over the world
tuple, which keeps exhaustive search cheap.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from itertools import zip_longest
from operator import and_, or_

from .formula import (
    And,
    Atom,
    Bottom,
    Eventually,
    Formula,
    Implies,
    InputError,
    Next,
    Or,
    Program,
    walk,
)


class _Violations(InputError):
    """An input that breaks several rules at once; .violations lists every failure."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class MalformedOrder(_Violations):
    """Order relation fails a poset law."""


class MalformedStep(InputError):
    """Step function is not a total map on the declared worlds."""


class ContinuityRequired(InputError):
    """Raised when evaluating over a model whose step is not monotone."""


class DomainNotInvariant(InputError):
    """Raised when a morphism domain is not closed under the source step."""


class MalformedValuation(_Violations):
    """Valuation assigns a non-up-set or mentions unknown worlds."""


class DynamicPoset:
    """Finite poset with a step function, precomputed as bitmasks.

    ``order`` lists pairs (a, b) meaning a is below b. Reflexive pairs may be
    omitted; transitivity must be written out and is validated, never closed
    over. ``step`` maps every world to its successor.
    """

    __slots__ = (
        "worlds",
        "index",
        "n",
        "order_pairs",
        "up_masks",
        "ups",
        "up_lanes",
        "step",
        "step_arr",
        "is_continuous",
        "is_open",
    )

    def __init__(
        self,
        worlds: Iterable[str],
        order: Iterable[tuple[str, str]],
        step: Mapping[str, str],
    ):
        self.worlds = tuple(worlds)
        if len(set(self.worlds)) != len(self.worlds):
            raise MalformedOrder(["duplicate world names"])
        if not self.worlds:
            raise MalformedOrder(["a model needs at least one world"])
        self.index = {w: i for i, w in enumerate(self.worlds)}
        self.n = len(self.worlds)

        violations: list[str] = []
        pairs: set[tuple[str, str]] = {(w, w) for w in self.worlds}
        for a, b in order:
            if a not in self.index or b not in self.index:
                violations.append(f"order pair {a}<={b} mentions unknown world")
                continue
            pairs.add((a, b))
        for a, b in sorted(pairs):
            if a != b and (b, a) in pairs:
                violations.append(f"antisymmetry fails on {a} and {b}")
        for a, b in sorted(pairs):
            for c in self.worlds:
                if (b, c) in pairs and (a, c) not in pairs:
                    violations.append(
                        f"transitivity fails: {a}<={b} and {b}<={c} "
                        f"but {a}<={c} is not declared"
                    )
        if violations:
            raise MalformedOrder(violations)
        self.order_pairs = frozenset(pairs)

        self.up_masks = [0] * self.n
        for a, b in pairs:
            self.up_masks[self.index[a]] |= 1 << self.index[b]
        self.ups = tuple(tuple(j for j in range(self.n) if (up >> j) & 1) for up in self.up_masks)
        self.up_lanes = [[(j, 0) for j in up] for up in self.ups]

        self._set_step(step)

    def _set_step(self, step: Mapping[str, str]) -> None:
        """Install a step map after checking it is total on the worlds."""
        self.step = dict(step)
        self.step_arr = [self.index.get(self.step.get(w)) for w in self.worlds]
        if None in self.step_arr or len(self.step) != self.n:
            missing = [w for w in self.worlds if w not in self.step]
            unknown = sorted(set(self.step) - set(self.worlds))
            bad_targets = sorted(w for w, v in self.step.items() if v not in self.index)
            parts = [f"step {what} {', '.join(ws)}" for what, ws in (
                ("undefined on", missing), ("defined on unknown", unknown),
                ("maps into unknown worlds at", bad_targets)) if ws]
            raise MalformedStep("; ".join(parts))
        self.is_continuous = all(
            (self.up_masks[self.step_arr[i]] >> self.step_arr[j]) & 1
            for i, up in enumerate(self.ups) for j in up
        )
        self.is_open = lifts(self.step_arr, self.up_masks, self.ups)

    def replace_step(self, step: Mapping[str, str]) -> "DynamicPoset":
        """New model on the same poset with a different step function."""
        other = object.__new__(DynamicPoset)
        for name in self.__slots__:
            setattr(other, name, getattr(self, name))
        other._set_step(step)
        return other

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order_pairs

    def mask_of(self, worlds: Iterable[str]) -> int:
        return reduce(or_, (1 << self.index[w] for w in worlds), 0)

    def worlds_of(self, mask: int) -> frozenset[str]:
        return frozenset(w for i, w in enumerate(self.worlds) if (mask >> i) & 1)

    def is_up_set_mask(self, mask: int) -> bool:
        return self.interior_mask(mask) == mask

    def interior_mask(self, mask: int) -> int:
        """The worlds whose up-set lies in the mask: the largest up-set inside it."""
        return sum(1 << i for i, up in enumerate(self.up_masks) if up & ~mask == 0)


def lifts(step: Sequence[int], up_masks: Sequence[int], ups: Sequence[Sequence[int]]) -> bool:
    """Lift condition: everything above S(w) is hit by S on points above w."""
    return not any(lift_misses(step, up_masks, up, i) for i, up in enumerate(ups))


def lift_misses(step: Sequence[int], up_masks: Sequence[int], up: Sequence[int], i: int) -> int:
    """Mask of the points above S(i) that S misses on ``up``, the points above i."""
    hit = 0
    for j in up:
        hit |= 1 << step[j]
    return up_masks[step[i]] & ~hit


Valuation = dict[str, frozenset[str]]


def is_up_set(model: DynamicPoset, worlds: Iterable[str]) -> bool:
    return model.is_up_set_mask(model.mask_of(worlds))


def interior(model: DynamicPoset, worlds: Iterable[str]) -> frozenset[str]:
    return model.worlds_of(model.interior_mask(model.mask_of(worlds)))


def validate_valuation(model: DynamicPoset, valuation: Mapping[str, Iterable[str]]) -> list[str]:
    violations = []
    for atom, ws in valuation.items():
        ws = set(ws)
        unknown = ws - set(model.worlds)
        if unknown:
            violations.append(f"val {atom} mentions unknown worlds {sorted(unknown)}")
            continue
        if not is_up_set(model, ws):
            violations.append(f"val {atom} is not an up-set")
    return violations


def _valuation_masks(model: DynamicPoset, valuation: Mapping[str, Iterable[str]]) -> dict[str, int]:
    violations = validate_valuation(model, valuation)
    if violations:
        raise MalformedValuation(violations)
    return {atom: model.mask_of(ws) for atom, ws in valuation.items()}


def eval_masks(model: DynamicPoset, val_masks: Mapping[str, int], phi: Formula) -> int:
    """Mask of the worlds where phi holds under one valuation of bitmasks.

    The one-bit case of `eval_sliced`: each world's row holds a single
    valuation and steps to one world with mask 1. Atoms missing from the
    valuation denote the empty set. Requires a continuous step.
    """
    if not model.is_continuous:
        raise ContinuityRequired("evaluation requires a continuous (monotone) step")
    program = walk(phi)[1]
    atom_rows = {
        a: [(val_masks.get(a, 0) >> i) & 1 for i in range(model.n)]
        for op, a, _ in program if op is Atom
    }
    top = eval_sliced([((j, 1),) for j in model.step_arr], model.up_lanes, program, atom_rows, 1)
    return sum(row << i for i, row in enumerate(top))


def eval_sliced(
    moves: Sequence[Sequence[tuple[int, int]]], ups: Sequence[Sequence[tuple[int, int]]],
    program: Program, atom_rows: Mapping[str, list[int]], full: int,
) -> list[int]:
    """Evaluate a `walk` program on a family of models and valuations at once.

    The models share their worlds 0..n-1. A world's row has one bit per
    model lane, a (poset, valuation, step) triple, set where the subformula
    holds; ``full`` sets them all and ``atom_rows[name][i]`` is that atom's
    row at world i. Both the order and the step are lane masks: ``ups[i]``
    pairs each world j that some lane's poset puts above world i (itself
    included) with the lanes whose poset does not, 0 where every lane
    agrees; ``moves[i]`` pairs each target j of world i with the lanes whose
    step sends i to j. These move masks are disjoint, and every world has at
    least one target. Steps must be monotone (callers check continuity).
    Returns the formula's rows.
    """
    # Rank r holds each world's r-th target, (0, 0) where it has fewer, so a
    # step is applied one rank at a time across all worlds.
    first, *rest = zip_longest(*moves, fillvalue=(0, 0))

    def after(rows: list[int]) -> list[int]:
        out = [rows[j] & mask for j, mask in first]
        for rank in rest:
            out = [x | rows[j] & mask for x, (j, mask) in zip(out, rank)]
        return out

    table: list[list[int]] = []
    for op, a, b in program:
        if op is Atom:
            rows = atom_rows[a]
        elif op is Bottom:
            rows = [0] * len(ups)
        elif op is And:
            rows = [x & y for x, y in zip(table[a], table[b])]
        elif op is Or:
            rows = [x | y for x, y in zip(table[a], table[b])]
        elif op is Implies:
            holds = [(full ^ x) | y for x, y in zip(table[a], table[b])]
            rows = [reduce(and_, [holds[j] | off for j, off in up]) for up in ups]
        elif op is Next:
            rows = after(table[a])
        else:  # Eventually, StrongBox or WeakBox, the only ops `walk` has left
            # Eventually: increasing chain to the least fixpoint above the
            # child rows; after k rounds a world holds what its first k
            # successors hold. The boxes: decreasing chain to the greatest
            # fixpoint below them, the worlds whose whole forward orbit stays
            # in the child set. On a continuous step the box of an up-set is
            # an up-set, so the weak box needs no interior.
            join = or_ if op is Eventually else and_
            child = rows = table[a]
            while (again := list(map(join, child, after(rows)))) != rows:
                rows = again
        table.append(rows)
    return table[-1]


def eval_formula(
    model: DynamicPoset,
    valuation: Mapping[str, Iterable[str]],
    phi: Formula,
) -> frozenset[str]:
    """Extension of phi: the set of worlds where phi holds."""
    return model.worlds_of(eval_masks(model, _valuation_masks(model, valuation), phi))


def check_morphism(
    src: DynamicPoset,
    dst: DynamicPoset,
    domain: Iterable[str],
    mapping: Mapping[str, str],
) -> list[str]:
    """Violations of the dynamic poset morphism laws; empty means verified.

    The domain must be a step-invariant up-set of the source; the map must be
    monotone, satisfy the lift condition within the domain, and commute with
    the step functions.
    """
    dom = set(domain)
    violations: list[str] = []
    unknown = dom - set(src.worlds)
    if unknown:
        return [f"domain mentions unknown worlds {sorted(unknown)}"]
    for w in sorted(dom):
        if w not in mapping:
            violations.append(f"map undefined on domain world {w}")
        elif mapping[w] not in dst.index:
            violations.append(f"map sends {w} outside the target model")
    if violations:
        return violations
    if not is_up_set(src, dom):
        violations.append("domain is not an up-set")
    bad = [w for w in sorted(dom) if src.step[w] not in dom]
    if bad:
        raise DomainNotInvariant(
            f"domain not closed under the step at {', '.join(bad)}"
        )
    for a in sorted(dom):
        for b in sorted(dom):
            if src.leq(a, b) and not dst.leq(mapping[a], mapping[b]):
                violations.append(f"monotonicity fails on {a}<={b}")
    for w in sorted(dom):
        for v in dst.worlds:
            if dst.leq(mapping[w], v):
                if not any(
                    src.leq(w, u) and u in dom and mapping[u] == v
                    for u in src.worlds
                ):
                    violations.append(
                        f"lift fails at {w}: {v} above its image is never hit"
                    )
    for w in sorted(dom):
        if src.step[w] in dom and mapping[src.step[w]] != dst.step[mapping[w]]:
            violations.append(f"step equivariance fails at {w}")
    return violations


def pull_back_valuation(
    dst_valuation: Mapping[str, Iterable[str]],
    domain: Iterable[str],
    mapping: Mapping[str, str],
) -> Valuation:
    """Valuation on the source induced by a morphism: preimages of the target sets."""
    out: Valuation = {}
    dom = set(domain)
    for atom, ws in dst_valuation.items():
        ws = set(ws)
        out[atom] = frozenset(w for w in dom if mapping[w] in ws)
    return out
