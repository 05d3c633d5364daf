"""One-dimensional systems: rational interval sets and piecewise affine maps.

Everything is exact, and no floating point is used anywhere. Numbers from
outside become Fraction where they enter: `make_interval` (and so `interval`
and `point`), the `PiecewiseAffineMap` constructor, `apply` and
`IntervalSet.contains`. An interval is a tuple of its ends as integer
(numerator, denominator) pairs in lowest terms, with -inf and inf as (-1, 0)
and (1, 0), and their closedness; its ``lo`` and ``hi`` read them back as
Fraction, None at an infinity. The set algebra and membership compare ends by
cross-multiplication, a preimage maps them with integer arithmetic and one
normalisation per end, and the extrapolation fits them. Interval sets are kept
in a canonical form (sorted, pairwise disjoint, never adjacent) by linear
sweeps; only `IntervalSet.of` sorts, so structural equality is set equality.
A map keeps each component's preimage and each chain limit per target and
caps, a system each subformula's outcome, for their lifetimes.

Both henceforth operators run one loop, `_box`: a decreasing preimage chain
with affine extrapolation of its integer ends, each extrapolated limit verified
to be a genuine fixpoint before it is trusted. The weak box is the limit's
interior; the strong box restarts from it unless it is invariant, tested by
pulling back (f(T) lies in T iff T lies in preimage(T)). Results carry a
status, ordered exact < extrapolated < undetermined, and a value takes the
worst status of its operands and its operator.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cmp_to_key, partial
from types import MappingProxyType

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
    StrongBox,
    WeakBox,
    walk,
)


class Interval(namedtuple("_Ends", "lo_end lo_closed hi_end hi_closed")):
    """Nonempty interval: its ends as integer (numerator, denominator) pairs
    in lowest terms, each with its closedness; an infinite end is (-1, 0) or
    (1, 0) and is open. `==` and `hash` are the tuple's, ``lo`` and ``hi``
    read the ends as Fraction or None, and pickles carry those public fields.
    The set algebra reads the fields by position, in the order declared.
    Intervals have no order of their own: `<` is the tuple order of the
    integer ends, so [1/2, 1] sorts before [1/3, 1]. Sort with `_lo_order`."""

    __slots__ = ()

    def __new__(cls, lo, lo_closed, hi, hi_closed):
        lo_end = _NEG_INF if lo is None else (lo.numerator, lo.denominator)
        hi_end = _INF if hi is None else (hi.numerator, hi.denominator)
        iv = tuple.__new__(cls, (lo_end, lo_closed, hi_end, hi_closed))
        if not _obeys_rule(*iv):
            raise ValueError(f"empty or closed at an infinity: {iv}")
        return iv

    @property
    def lo(self) -> Fraction | None:
        p, q = self[0]
        return Fraction(p, q) if q else None

    @property
    def hi(self) -> Fraction | None:
        p, q = self[2]
        return Fraction(p, q) if q else None

    def __reduce__(self):
        return Interval, (self.lo, self.lo_closed, self.hi, self.hi_closed)

    def __repr__(self) -> str:
        return (f"Interval(lo={self.lo!r}, lo_closed={self.lo_closed!r}, "
                f"hi={self.hi!r}, hi_closed={self.hi_closed!r})")

    def contains(self, x: Fraction) -> bool:
        n, d = x.numerator, x.denominator
        (p, q), lo_closed, (r, s), hi_closed = self
        return ((p * d < n * q or p * d == n * q and lo_closed)
                and (n * s < r * d or n * s == r * d and hi_closed))

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return f"{'[' if self.lo_closed else '('}{lo}, {hi}{']' if self.hi_closed else ')'}"


_NEG_INF, _INF = (-1, 0), (1, 0)
# The Interval of ends the caller knows to be in lowest terms and to obey the interval rule.
_make = partial(tuple.__new__, Interval)


def _obeys_rule(lo, lo_closed, hi, hi_closed) -> bool:
    """The interval rule on integer ends: an infinite end is open, and the set is nonempty."""
    (p, q), (r, s) = lo, hi
    if not (q and s):
        return not (lo_closed and not q or hi_closed and not s)
    return p * s < r * q or p * s == r * q and lo_closed and hi_closed


def make_interval(lo, lo_closed, hi, hi_closed) -> Interval | None:
    """Interval or None when the description is empty.

    This is where endpoints from outside become Fraction; an infinite
    endpoint is made open.
    """
    lo = None if lo is None else Fraction(lo)
    hi = None if hi is None else Fraction(hi)
    try:
        return Interval(lo, lo_closed and lo is not None, hi, hi_closed and hi is not None)
    except ValueError:
        return None


def _intersect(a: Interval, b: Interval) -> Interval | None:
    # The later lower end and the earlier upper end, the open one on a tie.
    (p, q), (r, s) = a[0], b[0]
    lo = a if p * s > r * q or p * s == r * q and not a[1] else b
    (p, q), (r, s) = a[2], b[2]
    hi = a if p * s < r * q or p * s == r * q and not a[3] else b
    if lo is hi:
        return lo
    ends = lo[0], lo[1], hi[2], hi[3]
    return _make(ends) if _obeys_rule(*ends) else None


def _lo_order(a: Interval, b: Interval) -> int:
    """Sign of a's lower end against b's: -inf first, and a closed end before an open one."""
    (p, q), (r, s) = a[0], b[0]
    return p * s - r * q or b[1] - a[1]


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """Canonical finite union of intervals.

    Components are sorted, pairwise disjoint and never adjacent, so two sets
    are equal iff their component tuples are equal.
    """

    components: tuple[Interval, ...] = ()

    @staticmethod
    def of(intervals) -> "IntervalSet":
        ivs = (iv for iv in intervals if iv is not None)
        return _coalesce(sorted(ivs, key=cmp_to_key(_lo_order)))

    def is_empty(self) -> bool:
        return not self.components

    def contains(self, x) -> bool:
        x = Fraction(x)
        return any(iv.contains(x) for iv in self.components)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        # Merge by lower end, the closed one first on a tie, then coalesce.
        a, b, merged = self.components, other.components, []
        i = j = 0
        while i < len(a) and j < len(b):
            (p, q), (r, s) = a[i][0], b[j][0]
            first = p * s < r * q or p * s == r * q and a[i][1]
            merged.append(a[i] if first else b[j])
            i, j = i + first, j + (not first)
        return _coalesce(merged + list(a[i:] + b[j:]))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        # Advance the side that ends first, both on a tie. Two pieces lie in
        # different components of one side, so a gap parts them: no merge.
        a, b, out = self.components, other.components, []
        i = j = 0
        while i < len(a) and j < len(b):
            out.append(_intersect(a[i], b[j]))
            (p, q), (r, s) = a[i][2], b[j][2]
            i, j = i + (p * s <= r * q), j + (p * s >= r * q)
        return IntervalSet(tuple(filter(None, out)))

    def complement(self) -> "IntervalSet":
        # Components are apart, so each gap before, between and after them is nonempty.
        gaps, lo = [], (_NEG_INF, False)
        for lo_end, lo_closed, hi_end, hi_closed in self.components:
            if lo_end[1]:
                gaps.append(_make((*lo, lo_end, not lo_closed)))
            if not hi_end[1]:
                return IntervalSet(tuple(gaps))
            lo = (hi_end, not hi_closed)
        return IntervalSet((*gaps, _make((*lo, _INF, False))))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other.complement())

    def is_subset(self, other: "IntervalSet") -> bool:
        return self.difference(other).is_empty()

    def interior(self) -> "IntervalSet":
        # A single point has no interior; the open rest stay apart.
        return IntervalSet(tuple(
            _make((lo, False, hi, False)) for lo, _, hi, _ in self.components if lo != hi
        ))

    def closure(self) -> "IntervalSet":
        return _coalesce(
            _make((lo, lo[1] != 0, hi, hi[1] != 0)) for lo, _, hi, _ in self.components
        )

    def is_open(self) -> bool:
        return not any(lo_closed or hi_closed for _, lo_closed, _, hi_closed in self.components)

    def __str__(self) -> str:
        if not self.components:
            return "{}"
        return " u ".join(str(iv) for iv in self.components)


def _coalesce(comps) -> IntervalSet:
    """Canonical set of intervals given in order of their lower bounds."""
    merged: list[Interval] = []
    for iv in comps:
        if merged:
            last = merged[-1]
            (p, q), (r, s) = iv[0], last[2]
            # iv overlaps or adjoins last: it starts before last's end, or at it, either closed.
            if not (q and s) or p * s < r * q or p * s == r * q and (last[3] or iv[1]):
                p, q = iv[2]
                if p * s > r * q or p * s == r * q and iv[3] and not last[3]:
                    merged[-1] = _make((last[0], last[1], iv[2], iv[3]))
                continue
        merged.append(iv)
    return IntervalSet(tuple(merged))


EMPTY = IntervalSet()
REALS = IntervalSet((Interval(None, False, None, False),))


def interval(lo, hi, lo_closed: bool = False, hi_closed: bool = False) -> IntervalSet:
    """Convenience one-component set; None endpoints are infinite."""
    return IntervalSet.of([make_interval(lo, lo_closed, hi, hi_closed)])


def point(x) -> IntervalSet:
    return interval(x, x, True, True)


class MalformedMap(InputError):
    """Piecewise description is not a continuous total map."""


@dataclass(frozen=True, slots=True)
class PiecewiseAffineMap:
    """Continuous piecewise affine self-map of the line.

    ``breakpoints`` are strictly increasing; ``pieces`` hold one
    (slope, intercept) pair per region, one more than the breakpoints.
    Both become Fraction here. Continuity across every breakpoint is
    validated. Each piece's inverse (slope, intercept), None for a flat
    piece, its direction (rising, flat counted as rising) and its closed
    domain are computed here too.

    ``_memo`` lives as long as the map and maps each component interval
    ever pre-imaged to one entry per piece: its preimage clipped to the
    piece's domain, or None. `preimage` sweeps the pieces in domain order,
    so it merges without a sort. ``_limits`` holds `_chain_limit`'s (limit,
    status) per (target, caps). These fields stay out of eq, hash and repr.
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, Fraction], ...]
    _inverses: tuple[tuple[Fraction, Fraction] | None, ...] = field(
        init=False, repr=False, compare=False
    )
    _rising: tuple[bool, ...] = field(init=False, repr=False, compare=False)
    _domains: tuple[Interval, ...] = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _limits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(map(Fraction, self.breakpoints)))
        pieces = tuple((Fraction(a), Fraction(c)) for a, c in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise MalformedMap("need exactly one piece per region")
        if any(b1 >= b2 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise MalformedMap("breakpoints must be strictly increasing")
        for i, b in enumerate(self.breakpoints):
            a1, c1 = self.pieces[i]
            a2, c2 = self.pieces[i + 1]
            if a1 * b + c1 != a2 * b + c2:
                raise MalformedMap(f"discontinuous at {b}")
        # y = a*x + c inverts to x = y/a - c/a, exact in Fraction.
        inverses = tuple((1 / a, -c / a) if a else None for a, c in pieces)
        object.__setattr__(self, "_inverses", inverses)
        object.__setattr__(self, "_rising", tuple(a >= 0 for a, _ in pieces))
        ends = (None, *self.breakpoints, None)
        object.__setattr__(self, "_domains", tuple(
            Interval(lo, lo is not None, hi, hi is not None) for lo, hi in zip(ends, ends[1:])))

    @staticmethod
    def affine(slope, intercept) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap((), ((slope, intercept),))

    @staticmethod
    def from_pieces(breakpoints, pieces) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap(tuple(breakpoints), tuple(pieces))

    def is_open(self) -> bool:
        """Open iff no flat piece and all slopes share a sign (invertible)."""
        return None not in self._inverses and len(set(self._rising)) == 1

    def apply(self, x) -> Fraction:
        x = Fraction(x)
        a, c = self.pieces[bisect_left(self.breakpoints, x)]
        return a * x + c

    def preimage(self, s: IntervalSet) -> IntervalSet:
        rows = [self._memo.get(comp) or self._pull_back(comp) for comp in s.components]
        # Pieces come in domain order. A rising piece keeps the order of the
        # components, a falling one reverses it, a flat one has one at most.
        return _coalesce(
            row[i] for i, rising in enumerate(self._rising)
            for row in (rows if rising else rows[::-1]) if row[i] is not None
        )

    def _pull_back(self, comp: Interval) -> tuple[Interval | None, ...]:
        row = self._memo[comp] = tuple(
            _intersect(_affine(comp, *inverse), dom) if inverse
            else dom if comp.contains(c) else None
            for (_, c), inverse, dom in zip(self.pieces, self._inverses, self._domains)
        )
        return row


def _affine(iv: Interval, a: Fraction, c: Fraction) -> Interval:
    """Image of iv under x -> a*x + c for a nonzero slope a, on integer ends:
    p/q goes to (m*p + k*q) / (e*q) with a = m/e and c = k/e."""
    (an, ad), (cn, cd) = a.as_integer_ratio(), c.as_integer_ratio()
    m, k, e = an * cd, cn * ad, ad * cd
    (p, q), lo_closed, (r, s), hi_closed = iv
    # An infinite end keeps its sign under a rising map and flips it under a falling one.
    lo = Fraction(m * p + k * q, e * q).as_integer_ratio() if q else (p if an > 0 else -p, 0)
    hi = Fraction(m * r + k * s, e * s).as_integer_ratio() if s else (r if an > 0 else -r, 0)
    return _make((lo, lo_closed, hi, hi_closed) if an > 0 else (hi, hi_closed, lo, lo_closed))


class Status(enum.Enum):
    """Trust in a value, declared best first: exact < extrapolated < undetermined."""

    EXACT = "Exact"
    EXTRAPOLATED = "Extrapolated"
    UNDETERMINED = "Undetermined"


_RANK = {status: rank for rank, status in enumerate(Status)}


def worst_status(*statuses: Status) -> Status:
    return max(statuses, key=_RANK.__getitem__)


@dataclass(frozen=True, slots=True)
class EvalCaps:
    """Budgets for the fixpoint chains; one that runs out gives Undetermined.

    ``components`` bounds how many components an iterate may have beyond its
    operand's own count. The caps count steps and components, not numbers:
    ends stay exact integer pairs, however long their numerators grow.
    """

    iter: int = 64
    restart: int = 8
    orbit: int = 128
    window: int = 8
    components: int = 64

    def __post_init__(self):
        for cap in fields(self):
            value = getattr(self, cap.name)
            if not isinstance(value, int) or value < 0:
                raise InputError(f"cap {cap.name!r} needs a non-negative integer, found {value!r}")


class MalformedSystem(InputError):
    """Real system with a non-open valuation or similar defect."""


@dataclass(frozen=True, slots=True)
class RealSystem:
    """A map with a valuation of atoms by open sets, and the caps of its chains.

    ``valuation`` is a read-only copy of the mapping given, so a value once
    computed stays true. ``_memo`` lives as long as the system and maps each
    formula node `eval_real` has evaluated on it to its outcome, so a fixpoint
    shared by several formulas is computed once. It stays out of eq and repr,
    and a pickle or copy of the system starts with an empty one.
    """

    map: PiecewiseAffineMap
    valuation: Mapping[str, IntervalSet] = field(default_factory=dict)
    caps: EvalCaps = EvalCaps()
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "valuation", MappingProxyType(dict(self.valuation)))
        for atom, s in self.valuation.items():
            if not s.is_open():
                raise MalformedSystem(f"valuation of {atom} is not open")

    def __reduce__(self):
        return RealSystem, (self.map, dict(self.valuation), self.caps)

    def atoms(self) -> list[str]:
        return sorted(self.valuation)


@dataclass(frozen=True, slots=True)
class RealOutcome:
    """A set with a trust status, None exactly when undetermined; the outcome
    of `eval_real` also holds in ``table`` the outcome of every subformula."""

    value: IntervalSet | None
    status: Status
    table: dict[int, RealOutcome] = field(compare=False, hash=False, default_factory=dict)


def _orbit_stays_in(pwmap: PiecewiseAffineMap, x: Fraction, target: IntervalSet, cap: int) -> bool | None:
    """Whether the forward orbit of x remains in target; None when capped."""
    seen: set[Fraction] = set()
    for _ in range(cap + 1):
        if x in seen:
            return True
        if not target.contains(x):
            return False
        seen.add(x)
        x = pwmap.apply(x)
    return None


def _fit_endpoint(ends: list[tuple[int, int]]) -> tuple[int, int] | None:
    """Limit of a window of integer ends obeying e' = alpha*e + beta with
    alpha >= 0, as an end; None when no such recurrence fits."""
    if all(e == ends[0] for e in ends):
        return ends[0]  # a constant window, an infinite end included
    if not all(q for _, q in ends):
        return None
    xs = [Fraction(p, q) for p, q in ends]
    diffs = [b - a for a, b in zip(xs, xs[1:])]
    if diffs[0] == 0:
        return None
    alpha = diffs[1] / diffs[0]
    if alpha < 0 or any(b != alpha * a for a, b in zip(diffs, diffs[1:])):
        return None
    if alpha >= 1:
        return _INF if diffs[0] > 0 else _NEG_INF
    limit = (xs[1] - alpha * xs[0]) / (1 - alpha)
    return limit.numerator, limit.denominator


def _chain(pwmap: PiecewiseAffineMap, child: IntervalSet, caps: EvalCaps, join):
    """The chain V -> join(child, preimage(V)) from child, for at most ``caps.iter`` steps:
    (fixpoint, []) once an iterate repeats, (None, []) once one has more than
    ``caps.components`` components beyond child's, else (None, every iterate)."""
    history, most = [child], len(child.components) + caps.components
    for _ in range(caps.iter):
        v = join(child, pwmap.preimage(history[-1]))
        if v == history[-1]:
            return v, []
        if len(v.components) > most:
            return None, []
        history.append(v)
    return None, history


def _chain_limit(pwmap: PiecewiseAffineMap, target: IntervalSet, caps: EvalCaps):
    """`_greatest_fixpoint`, run once per map, target and caps, so both boxes share it."""
    key = target, caps
    return pwmap._limits.get(key) or pwmap._limits.setdefault(key, _greatest_fixpoint(pwmap, *key))


def _greatest_fixpoint(pwmap: PiecewiseAffineMap, target: IntervalSet, caps: EvalCaps):
    """Greatest fixpoint of V -> target & preimage(V), by chain or extrapolation.

    The decreasing chain either stabilizes (Exact) or its last ``window``
    iterates, at least three, must keep one component count with integer ends
    that recur affinely; the extrapolated limit is then verified to be a true
    fixpoint and reported as Extrapolated. Anything else is Undetermined.
    """
    fixpoint, history = _chain(pwmap, target, caps, IntervalSet.intersection)
    if fixpoint is not None:
        return fixpoint, Status.EXACT
    window = history[max(0, len(history) - caps.window):]
    if len(window) < 3 or len({len(s.components) for s in window}) != 1:
        return None, Status.UNDETERMINED

    out: list[Interval | None] = []
    for comps in zip(*(s.components for s in window)):
        lo = _fit_endpoint([iv[0] for iv in comps])
        hi = _fit_endpoint([iv[2] for iv in comps])
        if lo is None or hi is None:
            return None, Status.UNDETERMINED
        if lo == _INF or hi == _NEG_INF or lo[1] and hi[1] and lo[0] * hi[1] > hi[0] * lo[1]:
            continue  # the component vanishes in the limit
        # A finite end is in the limit iff its orbit stays in target.
        closed = [d != 0 and _orbit_stays_in(pwmap, Fraction(n, d), target, caps.orbit)
                  for n, d in (lo, hi)]
        if None in closed:
            return None, Status.UNDETERMINED
        ends = lo, closed[0], hi, closed[1]
        out.append(_make(ends) if _obeys_rule(*ends) else None)

    limit = IntervalSet.of(out)
    if limit != target.intersection(pwmap.preimage(limit)):
        return None, Status.UNDETERMINED
    return limit, Status.EXTRAPOLATED


def _box(pwmap: PiecewiseAffineMap, child: IntervalSet, caps: EvalCaps, strong: bool):
    """Henceforth of an open child. The weak box is the interior of the chain
    limit, the loop's first round without the invariance test. The strong box
    is the greatest invariant open subset: the chain restarts from an
    extrapolated limit's interior unless that interior is invariant."""
    target, status = child, Status.EXACT
    for _ in range(caps.restart + 1):
        limit, chain = _chain_limit(pwmap, target, caps)
        if chain is not Status.EXTRAPOLATED:
            # An Exact chain limit of an open target is open and invariant
            # already; an Undetermined one ends the search.
            return limit, worst_status(status, chain)
        status, target = Status.EXTRAPOLATED, limit.interior()
        if not strong or target.is_subset(pwmap.preimage(target)):
            return target, status
    return None, Status.UNDETERMINED


def _eventually(pwmap: PiecewiseAffineMap, child: IntervalSet, caps: EvalCaps):
    fixpoint, _ = _chain(pwmap, child, caps, IntervalSet.union)
    return fixpoint, Status.EXACT if fixpoint is not None else Status.UNDETERMINED


# Each operator maps (map, caps, x, y) to (value, status), the value None when
# undetermined; y is the second operand, which unary operators ignore.
_OPS = {
    And: lambda f, caps, x, y: (x.intersection(y), Status.EXACT),
    Or: lambda f, caps, x, y: (x.union(y), Status.EXACT),
    Implies: lambda f, caps, x, y: (x.complement().union(y).interior(), Status.EXACT),
    Next: lambda f, caps, x, y: (f.preimage(x), Status.EXACT),
    Eventually: lambda f, caps, x, y: _eventually(f, x, caps),
    StrongBox: lambda f, caps, x, y: _box(f, x, caps, strong=True),
    WeakBox: lambda f, caps, x, y: _box(f, x, caps, strong=False),
}


def eval_real(system: RealSystem, phi: Formula) -> RealOutcome:
    """Evaluate phi over the system; the table holds the value of every
    subformula, keyed by its position in `walk(phi)`.

    Atoms missing from the valuation denote the empty set. A value takes the
    worst status of its operands and its operator; Undetermined values are
    None. A subformula the system has evaluated before is read from its memo.
    """
    caps, pwmap, memo = system.caps, system.map, system._memo
    table: list[RealOutcome] = []
    for node, (op, a, b) in zip(*walk(phi)):
        rv = memo.get(node)
        if rv is None:
            if op is Atom:
                rv = RealOutcome(system.valuation.get(a, EMPTY), Status.EXACT)
            elif op is Bottom:
                rv = RealOutcome(EMPTY, Status.EXACT)
            else:
                # A unary entry has b = 0: the walk's first node, a leaf, so Exact.
                x, y = table[a], table[b]
                if x.value is None or y.value is None:
                    value, status = None, Status.UNDETERMINED
                else:
                    value, status = _OPS[op](pwmap, caps, x.value, y.value)
                rv = RealOutcome(value, worst_status(x.status, y.status, status))
            memo[node] = rv
        table.append(rv)
    top = table[-1]
    return RealOutcome(top.value, top.status, dict(enumerate(table)))
