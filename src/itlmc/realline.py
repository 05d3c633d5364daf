"""One-dimensional systems: rational interval sets and piecewise affine maps.

Everything is exact: endpoints are fractions.Fraction, infinities are None
endpoints, and no floating point is used anywhere. Interval sets are kept in
a canonical form (sorted, pairwise disjoint, never adjacent), so structural
equality is set equality.

Henceforth operators are computed by a decreasing preimage chain with
branch-stabilized affine extrapolation; every extrapolated limit is verified
to be a genuine fixpoint before it is trusted, and results carry an
Exact / Extrapolated / Undetermined status.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .formula import (
    And,
    Atom,
    Bottom,
    Eventually,
    Formula,
    Implies,
    Next,
    Or,
    StrongBox,
    WeakBox,
    walk,
)


def _frac(x) -> Fraction | None:
    return None if x is None else Fraction(x)


@dataclass(frozen=True, slots=True)
class Interval:
    """Nonempty interval; a None endpoint is an infinity and is never closed."""

    lo: Fraction | None
    lo_closed: bool
    hi: Fraction | None
    hi_closed: bool

    def __post_init__(self):
        if self.lo is None and self.lo_closed:
            raise ValueError("-inf cannot be a closed endpoint")
        if self.hi is None and self.hi_closed:
            raise ValueError("inf cannot be a closed endpoint")
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise ValueError("empty interval")
            if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
                raise ValueError("empty interval")

    def contains(self, x: Fraction) -> bool:
        if self.lo is not None and (x < self.lo or (x == self.lo and not self.lo_closed)):
            return False
        if self.hi is not None and (x > self.hi or (x == self.hi and not self.hi_closed)):
            return False
        return True

    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return (
            ("[" if self.lo_closed else "(")
            + f"{lo}, {hi}"
            + ("]" if self.hi_closed else ")")
        )


def make_interval(lo, lo_closed, hi, hi_closed) -> Interval | None:
    """Interval or None when the description is empty."""
    lo, hi = _frac(lo), _frac(hi)
    if lo is None:
        lo_closed = False
    if hi is None:
        hi_closed = False
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return None
    return Interval(lo, lo_closed, hi, hi_closed)


def _lo_key(iv: Interval):
    if iv.lo is None:
        return (0,)
    return (1, iv.lo, 0 if iv.lo_closed else 1)


def _hi_key(iv: Interval):
    if iv.hi is None:
        return (1,)
    return (0, iv.hi, 1 if iv.hi_closed else 0)


def _touches(a: Interval, b: Interval) -> bool:
    """Whether a and b (with a's lower bound first) overlap or are adjacent."""
    if a.hi is None or b.lo is None:
        return True
    if b.lo < a.hi:
        return True
    return b.lo == a.hi and (a.hi_closed or b.lo_closed)


def _intersect(a: Interval, b: Interval) -> Interval | None:
    lo, lo_closed = (a.lo, a.lo_closed) if _lo_key(a) >= _lo_key(b) else (b.lo, b.lo_closed)
    hi, hi_closed = (a.hi, a.hi_closed) if _hi_key(a) <= _hi_key(b) else (b.hi, b.hi_closed)
    return make_interval(lo, lo_closed, hi, hi_closed)


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """Canonical finite union of intervals.

    Components are sorted, pairwise disjoint and never adjacent, so two sets
    are equal iff their component tuples are equal.
    """

    components: tuple[Interval, ...] = ()

    @staticmethod
    def of(intervals) -> "IntervalSet":
        comps = sorted((iv for iv in intervals if iv is not None), key=_lo_key)
        merged: list[Interval] = []
        for iv in comps:
            if merged and _touches(merged[-1], iv):
                last = merged[-1]
                if _hi_key(iv) > _hi_key(last):
                    merged[-1] = Interval(last.lo, last.lo_closed, iv.hi, iv.hi_closed)
            else:
                merged.append(iv)
        return IntervalSet(tuple(merged))

    def is_empty(self) -> bool:
        return not self.components

    def contains(self, x) -> bool:
        x = Fraction(x)
        return any(iv.contains(x) for iv in self.components)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.of(self.components + other.components)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a in self.components:
            for b in other.components:
                out.append(_intersect(a, b))
        return IntervalSet.of(out)

    def complement(self) -> "IntervalSet":
        gaps = []
        cur_lo: Fraction | None = None
        cur_lo_closed = False
        open_ended = True
        for iv in self.components:
            if iv.lo is not None:
                gaps.append(
                    make_interval(cur_lo, cur_lo_closed, iv.lo, not iv.lo_closed)
                )
            if iv.hi is None:
                open_ended = False
                break
            cur_lo, cur_lo_closed = iv.hi, not iv.hi_closed
        if open_ended:
            gaps.append(make_interval(cur_lo, cur_lo_closed, None, False))
        return IntervalSet.of(gaps)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other.complement())

    def is_subset(self, other: "IntervalSet") -> bool:
        return self.difference(other).is_empty()

    def interior(self) -> "IntervalSet":
        out = []
        for iv in self.components:
            if iv.is_singleton():
                continue
            out.append(Interval(iv.lo, False, iv.hi, False))
        return IntervalSet.of(out)

    def closure(self) -> "IntervalSet":
        out = []
        for iv in self.components:
            out.append(
                Interval(
                    iv.lo,
                    iv.lo is not None,
                    iv.hi,
                    iv.hi is not None,
                )
            )
        return IntervalSet.of(out)

    def is_open(self) -> bool:
        return all(
            not iv.lo_closed and not iv.hi_closed for iv in self.components
        )

    def __str__(self) -> str:
        if not self.components:
            return "{}"
        return " u ".join(str(iv) for iv in self.components)


EMPTY = IntervalSet()
REALS = IntervalSet((Interval(None, False, None, False),))


def interval(lo, hi, lo_closed: bool = False, hi_closed: bool = False) -> IntervalSet:
    """Convenience one-component set; None endpoints are infinite."""
    iv = make_interval(lo, lo_closed, hi, hi_closed)
    return IntervalSet.of([iv])


def point(x) -> IntervalSet:
    return interval(x, x, True, True)


class MalformedMap(ValueError):
    """Piecewise description is not a continuous total map."""


@dataclass(frozen=True, slots=True)
class PiecewiseAffineMap:
    """Continuous piecewise affine self-map of the line.

    ``breakpoints`` are strictly increasing; ``pieces`` hold one
    (slope, intercept) pair per region, one more than the breakpoints.
    Continuity across every breakpoint is validated.
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise MalformedMap("need exactly one piece per region")
        if any(b1 >= b2 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise MalformedMap("breakpoints must be strictly increasing")
        for i, b in enumerate(self.breakpoints):
            a1, c1 = self.pieces[i]
            a2, c2 = self.pieces[i + 1]
            if a1 * b + c1 != a2 * b + c2:
                raise MalformedMap(f"discontinuous at {b}")

    @staticmethod
    def affine(slope, intercept) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap((), ((Fraction(slope), Fraction(intercept)),))

    @staticmethod
    def from_pieces(breakpoints, pieces) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap(
            tuple(Fraction(b) for b in breakpoints),
            tuple((Fraction(a), Fraction(c)) for a, c in pieces),
        )

    def is_open(self) -> bool:
        """Open iff no flat piece and all slopes share a sign (invertible)."""
        slopes = [a for a, _ in self.pieces]
        if any(a == 0 for a in slopes):
            return False
        return all(a > 0 for a in slopes) or all(a < 0 for a in slopes)

    def apply(self, x) -> Fraction:
        x = Fraction(x)
        a, c = self.pieces[bisect_left(self.breakpoints, x)]
        return a * x + c

    def _domain(self, i: int) -> Interval:
        lo = self.breakpoints[i - 1] if i > 0 else None
        hi = self.breakpoints[i] if i < len(self.breakpoints) else None
        return Interval(lo, lo is not None, hi, hi is not None)

    def image(self, s: IntervalSet) -> IntervalSet:
        out = []
        for i, (a, c) in enumerate(self.pieces):
            dom = self._domain(i)
            for comp in s.components:
                clip = _intersect(comp, dom)
                if clip is None:
                    continue
                if a == 0:
                    out.append(make_interval(c, True, c, True))
                elif a > 0:
                    out.append(
                        make_interval(
                            None if clip.lo is None else a * clip.lo + c,
                            clip.lo_closed,
                            None if clip.hi is None else a * clip.hi + c,
                            clip.hi_closed,
                        )
                    )
                else:
                    out.append(
                        make_interval(
                            None if clip.hi is None else a * clip.hi + c,
                            clip.hi_closed,
                            None if clip.lo is None else a * clip.lo + c,
                            clip.lo_closed,
                        )
                    )
        return IntervalSet.of(out)

    def preimage(self, s: IntervalSet) -> IntervalSet:
        out = []
        for i, (a, c) in enumerate(self.pieces):
            dom = self._domain(i)
            if a == 0:
                if s.contains(c):
                    out.append(dom)
                continue
            for comp in s.components:
                if a > 0:
                    pre = make_interval(
                        None if comp.lo is None else (comp.lo - c) / a,
                        comp.lo_closed,
                        None if comp.hi is None else (comp.hi - c) / a,
                        comp.hi_closed,
                    )
                else:
                    pre = make_interval(
                        None if comp.hi is None else (comp.hi - c) / a,
                        comp.hi_closed,
                        None if comp.lo is None else (comp.lo - c) / a,
                        comp.lo_closed,
                    )
                if pre is not None:
                    out.append(_intersect(pre, dom))
        return IntervalSet.of(out)


class Status(enum.Enum):
    EXACT = "Exact"
    EXTRAPOLATED = "Extrapolated"
    UNDETERMINED = "Undetermined"


_STATUS_RANK = {Status.EXACT: 0, Status.EXTRAPOLATED: 1, Status.UNDETERMINED: 2}


def worst_status(*statuses: Status) -> Status:
    return max(statuses, key=_STATUS_RANK.__getitem__)


@dataclass(frozen=True, slots=True)
class EvalCaps:
    """Iteration budgets for the fixpoint chains."""

    iter: int = 64
    restart: int = 8
    orbit: int = 128
    window: int = 8


class MalformedSystem(ValueError):
    """Real system with a non-open valuation or similar defect."""


class UndeterminedExtension(ValueError):
    """Raised when a pointwise query lands on an undetermined extension."""


@dataclass(frozen=True, slots=True)
class RealSystem:
    map: PiecewiseAffineMap
    valuation: dict[str, IntervalSet] = field(default_factory=dict)
    caps: EvalCaps = EvalCaps()

    def __post_init__(self):
        for atom, s in self.valuation.items():
            if not s.is_open():
                raise MalformedSystem(f"valuation of {atom} is not open")

    def atoms(self) -> list[str]:
        return sorted(self.valuation)


@dataclass(frozen=True, slots=True)
class RealValue:
    """Evaluation result: a set with a trust status; None when undetermined."""

    value: IntervalSet | None
    status: Status


@dataclass(frozen=True, slots=True)
class RealOutcome:
    value: IntervalSet | None
    status: Status
    table: dict[int, RealValue] = field(compare=False, hash=False, default_factory=dict)


_UNDET = RealValue(None, Status.UNDETERMINED)


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


def _fit_endpoint(seq: list[Fraction | None]):
    """Extrapolate an endpoint sequence obeying an affine recurrence.

    Returns ("inf",) / ("-inf",) / ("finite", limit) / ("none",) for a stably
    infinite endpoint, or None when no consistent recurrence fits.
    """
    if all(e is None for e in seq):
        return ("none",)
    if any(e is None for e in seq):
        return None
    diffs = [b - a for a, b in zip(seq, seq[1:])]
    if all(d == 0 for d in diffs):
        return ("finite", seq[0])
    if diffs[0] == 0:
        return None
    alpha = diffs[1] / diffs[0]
    if alpha < 0:
        return None
    for k in range(len(diffs) - 1):
        if diffs[k + 1] != alpha * diffs[k]:
            return None
    if alpha >= 1:
        return ("inf",) if diffs[0] > 0 else ("-inf",)
    beta = seq[1] - alpha * seq[0]
    return ("finite", beta / (1 - alpha))


def _chain_limit(
    pwmap: PiecewiseAffineMap, target: IntervalSet, caps: EvalCaps
) -> tuple[IntervalSet | None, Status]:
    """Greatest fixpoint of V -> target & preimage(V), by chain or extrapolation.

    The decreasing chain either stabilizes (Exact) or its last ``window``
    iterates must show a fixed component count with affinely recurring
    endpoints; the extrapolated limit is then verified to be a true fixpoint
    and reported as Extrapolated. Anything else is Undetermined.
    """
    history = [target]
    v = target
    for _ in range(caps.iter):
        nv = target.intersection(pwmap.preimage(v))
        if nv == v:
            return v, Status.EXACT
        history.append(nv)
        v = nv

    window = history[max(0, len(history) - caps.window):]
    if len(window) < 3:
        return None, Status.UNDETERMINED
    counts = {len(s.components) for s in window}
    if len(counts) != 1:
        return None, Status.UNDETERMINED

    ncomp = counts.pop()
    out: list[Interval | None] = []
    for j in range(ncomp):
        lo_fit = _fit_endpoint([s.components[j].lo for s in window])
        hi_fit = _fit_endpoint([s.components[j].hi for s in window])
        if lo_fit is None or hi_fit is None:
            return None, Status.UNDETERMINED
        if lo_fit[0] == "inf" or hi_fit[0] == "-inf":
            continue  # component vanishes in the limit
        lo = None if lo_fit[0] in ("none", "-inf") else lo_fit[1]
        hi = None if hi_fit[0] in ("none", "inf") else hi_fit[1]
        if lo is not None and hi is not None and lo > hi:
            continue
        lo_closed = hi_closed = False
        if lo is not None:
            inside = _orbit_stays_in(pwmap, lo, target, caps.orbit)
            if inside is None:
                return None, Status.UNDETERMINED
            lo_closed = inside
        if hi is not None:
            inside = _orbit_stays_in(pwmap, hi, target, caps.orbit)
            if inside is None:
                return None, Status.UNDETERMINED
            hi_closed = inside
        out.append(make_interval(lo, lo_closed, hi, hi_closed))

    limit = IntervalSet.of(out)
    if limit != target.intersection(pwmap.preimage(limit)):
        return None, Status.UNDETERMINED
    return limit, Status.EXTRAPOLATED


def _weak_box(pwmap: PiecewiseAffineMap, child: IntervalSet, caps: EvalCaps) -> RealValue:
    limit, status = _chain_limit(pwmap, child, caps)
    if limit is None:
        return _UNDET
    return RealValue(limit.interior(), status)


def _strong_box(pwmap: PiecewiseAffineMap, child: IntervalSet, caps: EvalCaps) -> RealValue:
    """Greatest invariant open subset of child, chain plus interior restarts."""
    target = child
    first = True
    for _ in range(caps.restart + 1):
        limit, status = _chain_limit(pwmap, target, caps)
        if limit is None:
            return _UNDET
        if status is Status.EXACT:
            # A stabilized chain limit is open and invariant already.
            return RealValue(limit, Status.EXACT if first else Status.EXTRAPOLATED)
        first = False
        c = limit.interior()
        if pwmap.image(c).is_subset(c):
            return RealValue(c, Status.EXTRAPOLATED)
        target = c
    return _UNDET


def _eventually(pwmap: PiecewiseAffineMap, child: IntervalSet, caps: EvalCaps) -> RealValue:
    v = child
    for _ in range(caps.iter):
        nv = v.union(pwmap.preimage(v))
        if nv == v:
            return RealValue(v, Status.EXACT)
        v = nv
    return _UNDET


_FIXPOINTS = {Eventually: _eventually, StrongBox: _strong_box, WeakBox: _weak_box}


def eval_real(system: RealSystem, phi: Formula) -> RealOutcome:
    """Evaluate phi over the system; the table holds the value of every
    subformula, keyed by its position in `walk(phi)`.

    Atoms missing from the valuation denote the empty set. Undetermined
    results propagate upward with value None.
    """
    caps, pwmap = system.caps, system.map
    program = walk(phi)[1]
    table: list[RealValue] = []
    for op, a, b in program:
        if op is Atom:
            rv = RealValue(system.valuation.get(a, EMPTY), Status.EXACT)
        elif op is Bottom:
            rv = RealValue(EMPTY, Status.EXACT)
        elif op is And or op is Or or op is Implies:
            lv, rvv = table[a], table[b]
            st = worst_status(lv.status, rvv.status)
            if st is Status.UNDETERMINED:
                rv = _UNDET
            elif op is And:
                rv = RealValue(lv.value.intersection(rvv.value), st)
            elif op is Or:
                rv = RealValue(lv.value.union(rvv.value), st)
            else:
                rv = RealValue(
                    lv.value.complement().union(rvv.value).interior(), st
                )
        else:
            cv = table[a]
            if cv.status is Status.UNDETERMINED:
                rv = _UNDET
            elif op is Next:
                rv = RealValue(pwmap.preimage(cv.value), cv.status)
            else:
                inner = _FIXPOINTS[op](pwmap, cv.value, caps)
                rv = (
                    _UNDET
                    if inner.status is Status.UNDETERMINED
                    else RealValue(inner.value, worst_status(inner.status, cv.status))
                )
        table.append(rv)
    top = table[-1]
    return RealOutcome(top.value, top.status, dict(enumerate(table)))


def check_pointwise(system: RealSystem, phi: Formula, points) -> list[tuple[Fraction, bool]]:
    """Membership of each sample point in the extension of phi."""
    outcome = eval_real(system, phi)
    if outcome.value is None:
        raise UndeterminedExtension(
            "extension is undetermined; pointwise membership unavailable"
        )
    return [(Fraction(x), outcome.value.contains(x)) for x in points]
