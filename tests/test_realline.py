import copy
import pickle
import random
import time
from fractions import Fraction
from heapq import merge
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from itlmc import (
    EMPTY,
    Corpus,
    EvalCaps,
    Interval,
    IntervalSet,
    MalformedMap,
    MalformedSystem,
    PiecewiseAffineMap,
    REALS,
    RealOutcome,
    RealSystem,
    Status,
    eval_real,
    interval,
    make_interval,
    parse_formula,
    parse_real_system,
    point,
)
from itlmc import realline
from itlmc.formula import walk
from itlmc.realline import _INF, _NEG_INF, _fit_endpoint, _intersect
from conftest import MAP_SLOPES, formulas, random_interval_set, random_map, random_point

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def interval_sets(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(rationals)
        b = draw(rationals)
        lo, hi = min(a, b), max(a, b)
        if draw(st.booleans()) and draw(st.integers(0, 4)) == 0:
            lo = None
        if draw(st.booleans()) and draw(st.integers(0, 4)) == 0:
            hi = None
        pieces.append(
            make_interval(
                lo,
                lo is not None and draw(st.booleans()),
                hi,
                hi is not None and draw(st.booleans()),
            )
        )
    return IntervalSet.of(p for p in pieces if p is not None)


# -- set algebra --------------------------------------------------------------

def test_canonicalization_merges_touching_pieces():
    a = IntervalSet.of(
        [
            Interval(Fraction(0), False, Fraction(1), True),
            Interval(Fraction(1), False, Fraction(2), False),
            make_interval(Fraction(5), False, Fraction(4), False),
        ]
    )
    assert a == interval(0, 2)
    # open pieces that only share an endpoint do not merge
    b = interval(0, 1).union(interval(1, 2))
    assert len(b.components) == 2
    assert not b.contains(1)


def test_string_forms():
    assert str(EMPTY) == "{}"
    assert str(interval(None, 0).union(interval(1, 2, True, True))) in (
        "(-inf, 0) u [1, 2]",
    )


@given(interval_sets(), interval_sets())
def test_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().intersection(b.complement())
    assert a.intersection(b).complement() == a.complement().union(b.complement())


@given(interval_sets())
def test_interior_closure_duality(a):
    assert a.interior() == a.complement().closure().complement()
    assert a.closure() == a.complement().interior().complement()
    assert a.interior().is_open()
    assert a.interior().is_subset(a)
    assert a.is_subset(a.closure())


@given(interval_sets(), interval_sets())
def test_difference_and_subset(a, b):
    assert a.difference(b) == a.intersection(b.complement())
    assert a.intersection(b).is_subset(a)
    assert a.is_subset(a.union(b))


def _endpoints(s: IntervalSet) -> set[Fraction]:
    return {e for iv in s.components for e in (iv.lo, iv.hi) if e is not None}


@given(interval_sets(), interval_sets(), rationals)
def test_membership_coherence(a, b, x):
    # closedness decides membership only at endpoints, so test each of them
    for y in {x} | _endpoints(a) | _endpoints(b):
        assert a.union(b).contains(y) == (a.contains(y) or b.contains(y))
        assert a.intersection(b).contains(y) == (a.contains(y) and b.contains(y))
        assert a.complement().contains(y) == (not a.contains(y))


# References for the sweeps: intersect every pair of components, or pull
# every component back under every piece, then sort and merge.
def _pairwise_intersection(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return IntervalSet.of(_intersect(x, y) for x in a.components for y in b.components)


def _sorted_union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return IntervalSet.of(a.components + b.components)


def _domains(f: PiecewiseAffineMap) -> list[Interval]:
    ends = [None, *f.breakpoints, None]
    return [Interval(lo, lo is not None, hi, hi is not None) for lo, hi in zip(ends, ends[1:])]


def _reference_affine(iv: Interval, a: Fraction, c: Fraction) -> Interval:
    """Image of iv under x -> a*x + c for a nonzero slope a, in Fraction
    arithmetic on the public ends: the ends swap under a negative slope."""
    lo = None if iv.lo is None else a * iv.lo + c
    hi = None if iv.hi is None else a * iv.hi + c
    if a > 0:
        return Interval(lo, iv.lo_closed, hi, iv.hi_closed)
    return Interval(hi, iv.hi_closed, lo, iv.lo_closed)


def _unsorted_preimage(f: PiecewiseAffineMap, s: IntervalSet) -> IntervalSet:
    out = []
    for (a, c), dom in zip(f.pieces, _domains(f)):
        if a == 0:
            out += [dom] if s.contains(c) else []
        else:
            out += [
                _reference_intersect(_reference_affine(comp, 1 / a, -c / a), dom)
                for comp in s.components
            ]
    return _reference_of(out)


def _reference_image(f: PiecewiseAffineMap, s: IntervalSet) -> IntervalSet:
    """The forward image, each component clipped to each piece's domain."""
    out = []
    for (a, c), dom in zip(f.pieces, _domains(f)):
        for comp in s.components:
            clip = _reference_intersect(comp, dom)
            if clip is not None:
                out.append(_reference_affine(clip, a, c) if a else Interval(c, True, c, True))
    return _reference_of(out)


# The set algebra before integer ends: Fraction endpoints compared through
# tuple keys, the oracle for the cross-multiplied comparisons of the module.
def _reference_interval(lo, lo_closed, hi, hi_closed):
    if lo is None or hi is None:
        ok = not (lo is None and lo_closed) and not (hi is None and hi_closed)
    else:
        ok = lo < hi or (lo == hi and lo_closed and hi_closed)
    return Interval(lo, lo_closed, hi, hi_closed) if ok else None


def _reference_lo_key(iv):
    if iv.lo is None:
        return (0,)
    return (1, iv.lo, 0 if iv.lo_closed else 1)


def _reference_hi_key(iv):
    if iv.hi is None:
        return (1,)
    return (0, iv.hi, 1 if iv.hi_closed else 0)


def _reference_intersect(a, b):
    lo, lo_closed = (
        (a.lo, a.lo_closed) if _reference_lo_key(a) >= _reference_lo_key(b) else (b.lo, b.lo_closed)
    )
    hi, hi_closed = (
        (a.hi, a.hi_closed) if _reference_hi_key(a) <= _reference_hi_key(b) else (b.hi, b.hi_closed)
    )
    return _reference_interval(lo, lo_closed, hi, hi_closed)


def _reference_coalesce(comps) -> IntervalSet:
    merged = []
    for iv in comps:
        last = merged[-1] if merged else None
        if last is not None and (
            last.hi is None or iv.lo is None or iv.lo < last.hi
            or iv.lo == last.hi and (last.hi_closed or iv.lo_closed)
        ):
            if _reference_hi_key(iv) > _reference_hi_key(last):
                merged[-1] = Interval(last.lo, last.lo_closed, iv.hi, iv.hi_closed)
        else:
            merged.append(iv)
    return IntervalSet(tuple(merged))


def _reference_of(intervals) -> IntervalSet:
    return _reference_coalesce(
        sorted((iv for iv in intervals if iv is not None), key=_reference_lo_key)
    )


def _reference_union(a, b) -> IntervalSet:
    return _reference_coalesce(merge(a.components, b.components, key=_reference_lo_key))


def _reference_intersection(a, b) -> IntervalSet:
    a, b, out = a.components, b.components, []
    i = j = 0
    while i < len(a) and j < len(b):
        out.append(_reference_intersect(a[i], b[j]))
        key_a, key_b = _reference_hi_key(a[i]), _reference_hi_key(b[j])
        i, j = i + (key_a <= key_b), j + (key_b <= key_a)
    return IntervalSet(tuple(filter(None, out)))


def _reference_complement(a) -> IntervalSet:
    gaps, lo, lo_closed = [], None, False
    for iv in a.components:
        if iv.lo is not None:
            gaps.append(_reference_interval(lo, lo_closed, iv.lo, not iv.lo_closed))
        if iv.hi is None:
            return _reference_of(gaps)
        lo, lo_closed = iv.hi, not iv.hi_closed
    return _reference_of(gaps + [_reference_interval(lo, lo_closed, None, False)])


def _reference_interior(a) -> IntervalSet:
    return _reference_of(_reference_interval(iv.lo, False, iv.hi, False) for iv in a.components)


def _reference_closure(a) -> IntervalSet:
    return _reference_of(
        Interval(iv.lo, iv.lo is not None, iv.hi, iv.hi is not None) for iv in a.components
    )


def _assert_same_set(got: IntervalSet, want: IntervalSet):
    """Same components, ==, hash and text; each component's integer ends
    are those of its Fraction ends."""
    assert got.components == want.components and got == want
    assert hash(got) == hash(want) and str(got) == str(want)
    for iv, ref in zip(got.components, want.components):
        assert iv == ref and hash(iv) == hash(ref)
        for end, pair in ((iv.lo, iv.lo_end), (iv.hi, iv.hi_end)):
            assert end is None or pair == (Fraction(end).numerator, Fraction(end).denominator)


@st.composite
def wide_interval_sets(draw, extra_ends=()):
    """Up to about 40 components with ends on the half-integers in [-32, 32),
    plus some of `extra_ends`.

    Two such sets share many ends, with equal or opposite closedness, so the
    sweeps meet equal hi keys and touching components; either end of the
    line may be infinite.
    """
    ends = [Fraction(draw(st.integers(-64, 63)), 2) for _ in range(draw(st.integers(0, 100)))]
    ends = sorted(ends + [e for e in extra_ends if draw(st.booleans())])
    bits = draw(st.integers(0, 2 ** len(ends) - 1))
    closed = [bits >> k & 1 == 1 for k in range(len(ends))]
    pieces = [[ends[k], closed[k], ends[k + 1], closed[k + 1]] for k in range(0, len(ends) - 1, 2)]
    if pieces and draw(st.booleans()):
        pieces[0][0] = None
    if pieces and draw(st.booleans()):
        pieces[-1][2] = None
    return IntervalSet.of(make_interval(*piece) for piece in pieces)


@st.composite
def int_ended(draw, sets):
    """Sets of `sets` with some whole-number ends given as int, not Fraction."""
    s = draw(sets)
    as_int = lambda x: int(x) if x is not None and x.denominator == 1 and draw(st.booleans()) else x
    return IntervalSet(tuple(
        Interval(as_int(iv.lo), iv.lo_closed, as_int(iv.hi), iv.hi_closed) for iv in s.components
    ))


def test_interval_public_face():
    # repr, str, the types of lo and hi, and pickle and copy round trips
    # of intervals made by make_interval, whatever their inner layout.
    cases = [
        (make_interval(Fraction(-3, 4), True, Fraction(5, 2), False),
         "Interval(lo=Fraction(-3, 4), lo_closed=True, hi=Fraction(5, 2), hi_closed=False)",
         "[-3/4, 5/2)"),
        (make_interval(None, True, 2, True),
         "Interval(lo=None, lo_closed=False, hi=Fraction(2, 1), hi_closed=True)", "(-inf, 2]"),
        (make_interval(0, False, None, True),
         "Interval(lo=Fraction(0, 1), lo_closed=False, hi=None, hi_closed=False)", "(0, inf)"),
        (make_interval(None, False, None, False),
         "Interval(lo=None, lo_closed=False, hi=None, hi_closed=False)", "(-inf, inf)"),
        (make_interval(Fraction(-7, 3), True, Fraction(-14, 6), True),
         "Interval(lo=Fraction(-7, 3), lo_closed=True, hi=Fraction(-7, 3), hi_closed=True)",
         "[-7/3, -7/3]"),
    ]
    for iv, text, shown in cases:
        assert type(iv) is Interval and repr(iv) == text and str(iv) == shown
        assert {type(iv.lo), type(iv.hi)} <= {Fraction, type(None)}
        assert (iv.lo is None, iv.hi is None) == ("lo=None" in text, "hi=None" in text)
        clones = [pickle.loads(pickle.dumps(iv, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in (*clones, copy.copy(iv), copy.deepcopy(iv)):
            assert type(clone) is Interval and clone == iv and hash(clone) == hash(iv)
            assert repr(clone) == text and str(clone) == shown
            assert (clone.lo, clone.lo_closed, clone.hi, clone.hi_closed) == (
                iv.lo, iv.lo_closed, iv.hi, iv.hi_closed)


def test_int_and_fraction_ends_are_one_interval():
    for lo, hi in ((1, 2), (None, -3), (0, None), (None, None)):
        ints = Interval(lo, lo is not None, hi, False)
        fracs = make_interval(lo, lo is not None, hi, False)
        assert ints == fracs and hash(ints) == hash(fracs) and str(ints) == str(fracs)
    assert Interval(1, True, 2, False) != Interval(1, False, 2, False)
    assert Interval(1, True, 2, False) != Interval(Fraction(2, 2), True, Fraction(5, 2), False)
    assert Interval(None, False, 0, False) != Interval(0, False, None, False)
    # Ends given as int read back as Fraction, as the ends of a set's components do.
    assert type(Interval(1, True, 2, False).lo) is Fraction
    assert type(Interval(None, False, 2, True).hi) is Fraction
    for iv in (Interval(Fraction(-3, 4), True, None, False), Interval(None, False, 2, True)):
        for clone in (pickle.loads(pickle.dumps(iv)), copy.copy(iv), copy.deepcopy(iv)):
            assert clone == iv and hash(clone) == hash(iv) and repr(clone) == repr(iv)
            assert (clone.lo_end, clone.hi_end) == (iv.lo_end, iv.hi_end)


def test_of_gives_one_set_for_every_order_of_its_intervals():
    # Overlapping, nested and adjacent pieces, and two open ones that only
    # share an end. The tuple order puts [1/2, 1] before [1/3, 1], which
    # the lower-end order does not, so `of` must not sort by it.
    third, half = make_interval(Fraction(1, 3), True, 1, True), make_interval(Fraction(1, 2), True, 1, True)
    assert sorted([third, half]) == [half, third]
    pieces = [make_interval(0, True, Fraction(1, 3), False), third, half, make_interval(1, False, 2, False),
              make_interval(3, False, 4, True), make_interval(5, False, 6, False), make_interval(6, False, None, False)]
    expected = (make_interval(0, True, 2, False), make_interval(3, False, 4, True),
                make_interval(5, False, 6, False), make_interval(6, False, None, False))
    for order in permutations(pieces):
        assert IntervalSet.of(order).components == expected


@settings(max_examples=200)
@given(int_ended(wide_interval_sets()), int_ended(wide_interval_sets()))
def test_integer_algebra_matches_the_fraction_reference(a, b):
    # Complements and closures share every end with their set, with the
    # opposite or the same closedness, and the ends are half-integers, so
    # the sweeps meet equal ends of either closedness and infinite ends.
    for x, y in ((a, b), (a, b.complement()), (a, a), (a, a.closure()), (b.interior(), b)):
        _assert_same_set(x.union(y), _reference_union(x, y))
        _assert_same_set(x.intersection(y), _reference_intersection(x, y))
        _assert_same_set(x.complement(), _reference_complement(x))
        _assert_same_set(x.interior(), _reference_interior(x))
        _assert_same_set(x.closure(), _reference_closure(x))


@settings(max_examples=200)
@given(wide_interval_sets(), wide_interval_sets())
def test_sweeps_match_the_sorting_references(a, b):
    # A complement shares every end with its set, with the opposite closedness.
    for x, y in ((a, b), (a, b.complement()), (a, a), (a, a.closure())):
        assert x.intersection(y).components == _pairwise_intersection(x, y).components
        assert x.union(y).components == _sorted_union(x, y).components


def test_point_and_interval_helpers():
    assert point(3).contains(3)
    assert not point(3).interior().contains(3)
    assert point(3).interior() == EMPTY
    assert interval(0, 1, True, True).closure() == interval(0, 1, True, True)


def test_numbers_from_outside_become_exact_endpoints():
    for iv in (interval(0.5, 1).components[0], make_interval(0.5, True, 1, False)):
        assert type(iv.lo) is Fraction and iv.lo == Fraction(1, 2)
        assert type(iv.hi) is Fraction and iv.hi == 1
    # a map built from ints holds Fractions, so its preimages stay exact
    direct = PiecewiseAffineMap((0,), ((0, 0), (2, 0)))
    assert direct == PiecewiseAffineMap.from_pieces([0], [(0, 0), (2, 0)])
    pre = direct.preimage(interval(1, 3)).components[0]
    assert (type(pre.lo), type(pre.hi)) == (Fraction, Fraction) and pre.lo == Fraction(1, 2)
    # make_interval opens an infinite endpoint and gives None for an empty one
    assert make_interval(None, True, 1, False) == Interval(None, False, Fraction(1), False)
    assert make_interval(1, True, 1, False) is None
    assert make_interval(2, True, 1, True) is None
    for args in (
        (Fraction(1), False, Fraction(1), True),
        (Fraction(2), True, Fraction(1), True),
        (None, True, Fraction(1), False),
        (Fraction(0), False, None, True),
    ):
        with pytest.raises(ValueError):
            Interval(*args)


# -- piecewise affine maps ----------------------------------------------------

def test_map_validation():
    with pytest.raises(MalformedMap, match="discontinuous"):
        PiecewiseAffineMap.from_pieces([0], [(0, 0), (1, 5)])
    with pytest.raises(MalformedMap):
        PiecewiseAffineMap.from_pieces([1, 0], [(1, 0), (1, 0), (1, 0)])
    with pytest.raises(MalformedMap):
        PiecewiseAffineMap.from_pieces([0], [(1, 0)])


def test_openness_flag():
    assert PiecewiseAffineMap.affine(2, 0).is_open()
    assert PiecewiseAffineMap.affine(1, 1).is_open()
    assert not PiecewiseAffineMap.affine(0, 0).is_open()
    kinked = PiecewiseAffineMap.from_pieces([0], [(0, 0), (2, 0)])
    assert not kinked.is_open()
    vee = PiecewiseAffineMap.from_pieces([0], [(-1, 0), (1, 0)])
    assert not vee.is_open()  # folds, hence not interior


def test_preimage_under_doubling_and_a_flat_map():
    double = PiecewiseAffineMap.affine(2, 0)
    assert double.preimage(interval(0, 2)) == interval(0, 1)
    flat = PiecewiseAffineMap.affine(0, 3)
    assert flat.preimage(interval(2, 4)) == REALS
    assert flat.preimage(interval(5, 6)) == EMPTY


_SLOPES = st.sampled_from(MAP_SLOPES)


@st.composite
def piecewise_maps(draw):
    """Continuous maps with up to two breakpoints, flat pieces and negative slopes."""
    breakpoints = sorted(set(draw(st.lists(rationals, max_size=2))))
    pieces = [(draw(_SLOPES), draw(rationals))]
    for b in breakpoints:
        a, c = pieces[-1]
        slope = draw(_SLOPES)
        pieces.append((slope, a * b + c - slope * b))
    return PiecewiseAffineMap.from_pieces(breakpoints, pieces)


@settings(max_examples=100)
@given(piecewise_maps(), st.data())
def test_preimage_matches_the_unsorted_reference_cold_and_warm(f, data):
    # Ends at the values of breakpoints and flat pieces pull back exactly
    # onto a breakpoint or a whole domain.
    ends = {f.apply(b) for b in f.breakpoints} | {c for a, c in f.pieces if a == 0}
    sets = [data.draw(int_ended(wide_interval_sets(tuple(sorted(ends))))) for _ in range(2)]
    # The first pass misses and partly hits the memo, the second only hits.
    for _ in range(2):
        for s in sets:
            want = _unsorted_preimage(f, s)
            _assert_same_set(f.preimage(s), want)
            assert all(comp in f._memo for comp in s.components)
            _assert_same_set(PiecewiseAffineMap(f.breakpoints, f.pieces).preimage(s), want)


def _assert_canonical(s: IntervalSet):
    # Tuple == and hash are set equality only on ends in lowest terms.
    for iv in s.components:
        for n, d in (iv.lo_end, iv.hi_end):
            assert type(n) is int and type(d) is int
            if d == 0:
                assert (n, d) in (_NEG_INF, _INF)
            else:
                assert d > 0 and Fraction(n, d).denominator == d


@settings(max_examples=100)
@given(st.randoms(use_true_random=False))
def test_preimages_and_chain_iterates_have_canonical_ends(rng):
    f, s = random_map(rng), random_interval_set(rng)
    # The iterates V -> join(s, preimage(V)) of both fixpoint chains, and
    # the values of the boxes, extrapolated limits included.
    for join in (IntervalSet.intersection, IntervalSet.union):
        v = s
        for _ in range(12):
            pre = f.preimage(v)
            v = join(s, pre)
            _assert_canonical(pre)
            _assert_canonical(v)
    out = eval_real(_system(f, p=s.interior()), parse_formula("[]p | [*]p | <>p"))
    for value in out.table.values():
        if value.value is not None:
            _assert_canonical(value.value)


def test_preimage_memo_is_invisible():
    pieces = [(-1, 0), (0, 0), (2, -4)]
    f = PiecewiseAffineMap.from_pieces([0, 2], pieces)
    system = _system(f, p=interval(-1, 3), q=interval(1, None))
    before = (hash(f), repr(f), repr(system))
    assert eval_real(system, parse_formula("[]p | <>q")).status is Status.EXACT
    assert f._memo and f._limits
    cold = PiecewiseAffineMap.from_pieces([0, 2], pieces)
    assert not cold._memo and not cold._limits
    assert (hash(f), repr(f), repr(system)) == before
    assert f == cold and hash(f) == hash(cold) and repr(f) == repr(cold)
    assert system == _system(cold, p=interval(-1, 3), q=interval(1, None))
    # A RealSystem holds a mapping, so it has no hash to compare.
    for clone in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert clone == f and hash(clone) == hash(f) and repr(clone) == repr(f)
        assert clone.preimage(interval(-1, 3)) == cold.preimage(interval(-1, 3))
        box = parse_formula("[]p")
        assert (eval_real(_system(clone, p=interval(-1, 3)), box)
                == eval_real(_system(cold, p=interval(-1, 3)), box))
    for clone in (pickle.loads(pickle.dumps(system)), copy.copy(system), copy.deepcopy(system)):
        assert clone == system and repr(clone) == repr(system) and not clone._memo
        assert eval_real(clone, parse_formula("[]p")) == eval_real(system, parse_formula("[]p"))


def _points_in(s: IntervalSet) -> list[Fraction]:
    """Three points inside each component, and its closed endpoints."""
    out = []
    for iv in s.components:
        lo, hi = iv.lo, iv.hi
        if lo is None:
            lo = (Fraction(0) if hi is None else hi) - 1
        if hi is None:
            hi = lo + 2
        out += [lo + (hi - lo) / 7, (lo + hi) / 2, hi - (hi - lo) / 7]
        out += [e for e, closed in ((iv.lo, iv.lo_closed), (iv.hi, iv.hi_closed)) if closed]
    return out


@given(piecewise_maps(), interval_sets(), interval_sets())
def test_image_and_preimage_are_adjoint(f, a, b):
    assert a.is_subset(f.preimage(_reference_image(f, a)))
    assert _reference_image(f, f.preimage(b)).is_subset(b)


@given(piecewise_maps(), interval_sets())
def test_invariance_by_pulling_back_matches_the_forward_image(f, a):
    # The strong box tests f(T) <= T as T <= preimage(T). Its own value is
    # invariant, so the property meets invariant sets besides random ones.
    box = eval_real(_system(f, p=a.interior()), parse_formula("[]p")).value
    assert box is None or box.is_subset(f.preimage(box))
    for t in (a, a.interior()) + ((box,) if box is not None else ()):
        image = _reference_image(f, t)
        for x in _points_in(t):
            assert t.contains(x) and image.contains(f.apply(x))
        assert t.is_subset(f.preimage(t)) == image.is_subset(t)


def test_preimage_vs_point_sampling_bulk():
    rng = random.Random(13)
    maps = [
        PiecewiseAffineMap.affine(2, 0),
        PiecewiseAffineMap.affine(0, 0),
        PiecewiseAffineMap.affine(1, 1),
        PiecewiseAffineMap.affine(-1, 2),
        PiecewiseAffineMap.from_pieces([0], [(0, 0), (2, 0)]),
        PiecewiseAffineMap.from_pieces([-1, 1], [(1, 1), (0, 0), (3, -3)]),
    ]
    for _ in range(2000):
        f = rng.choice(maps)
        a = random_interval_set(rng)
        x = random_point(rng)
        assert f.preimage(a).contains(x) == a.contains(f.apply(x))


# -- formula evaluation -------------------------------------------------------

def _system(pwmap, **valuation):
    return RealSystem(pwmap, {k: v for k, v in valuation.items()})


def test_valuations_must_be_open():
    with pytest.raises(MalformedSystem):
        RealSystem(PiecewiseAffineMap.affine(1, 0), {"p": point(0)})


def test_box_exact_on_invariant_ray():
    # doubling keeps (1, inf) invariant, so the chain closes in one step
    system = _system(PiecewiseAffineMap.affine(2, 0), p=interval(1, None))
    out = eval_real(system, parse_formula("[]p"))
    assert out.value == interval(1, None)
    assert out.status is Status.EXACT
    weak = eval_real(system, parse_formula("[*]p"))
    assert weak.value == interval(1, None)


def test_box_extrapolates_shrinking_chain():
    system = _system(PiecewiseAffineMap.affine(2, 0), p=interval(None, 1))
    out = eval_real(system, parse_formula("[]p"))
    assert out.value == interval(None, 0)
    assert out.status is Status.EXTRAPOLATED


def test_eventually_least_fixpoint():
    system = _system(PiecewiseAffineMap.affine(2, 0), q=interval(0, None))
    out = eval_real(system, parse_formula("<>q"))
    assert out.value == interval(0, None)
    assert out.status is Status.EXACT


def test_next_is_preimage():
    system = _system(
        PiecewiseAffineMap.from_pieces([0], [(0, 0), (2, 0)]),
        p=interval(None, 1),
    )
    out = eval_real(system, parse_formula("O p"))
    assert out.value == interval(None, Fraction(1, 2))
    assert out.status is Status.EXACT


def test_strict_caps_give_undetermined():
    system = RealSystem(
        PiecewiseAffineMap.affine(2, 0),
        {"p": interval(None, 1)},
        EvalCaps(iter=2, restart=1, window=2),
    )
    out = eval_real(system, parse_formula("[]p"))
    assert out.status is Status.UNDETERMINED
    assert out.value is None


def test_zero_window_gives_undetermined():
    # an empty window has no iterates to fit, so it must not read as the
    # whole chain history
    system = _system(PiecewiseAffineMap.affine(2, 0), p=interval(None, 1))
    for window, status in ((0, Status.UNDETERMINED), (3, Status.EXTRAPOLATED)):
        caps = EvalCaps(window=window)
        out = eval_real(RealSystem(system.map, system.valuation, caps), parse_formula("[*]p"))
        assert out.status is status, window


_KINKED_FOLD = "map: piecewise x<=-2 : -2*x - 2 ; -2<x<=1/2 : 2*x + 6 ; x>1/2 : -x + 15/2\n"


def _bundled(name: str) -> str:
    return (Path(__file__).parent.parent / "src/itlmc/corpus/real" / f"{name}.rds").read_text()


# One row per way out of the box chain that no other test takes: system text,
# formula, status, value.
@pytest.mark.parametrize("text, formula, status, value", [
    # The extrapolated limit is not a fixpoint of the chain's map.
    ("map: piecewise x<=-3 : -x - 1 ; -3<x<=0 : -x/2 + 1/2 ; x>0 : x + 1/2\n"
     "val p: (1/2, 3/2) u (3/2, 5)\ncaps: iter=5 window=3\n", "[]p", "Undetermined", "None"),
    # The ends cross in the limit, so the one component vanishes.
    ("map: -2*x + 2\nval q: (-1, 5/2)\ncaps: iter=5 window=3\n", "[]q", "Extrapolated", "{}"),
    # An end's orbit outlasts the orbit cap, even the default one.
    (_KINKED_FOLD + "val p: (-3/2, 11/2)\ncaps: iter=4 window=3\n", "[]~p", "Undetermined", "None"),
    (_bundled("r-double") + "caps: orbit=0\n", "[]p", "Undetermined", "None"),
    (_bundled("r-double"), "[]p", "Extrapolated", "(-inf, 0)"),
    # The strong box runs out of restarts; the weak box needs none.
    (_bundled("r-kinked") + "caps: restart=0\n", "[]p", "Undetermined", "None"),
    (_bundled("r-kinked") + "caps: restart=0\n", "[*]p", "Extrapolated", "(-inf, 0)"),
])
def test_each_box_chain_exit(text, formula, status, value):
    out = eval_real(parse_real_system(text), parse_formula(formula))
    assert (out.status.value, str(out.value)) == (status, value)


def test_fit_endpoint_reads_integer_ends():
    assert _fit_endpoint([_NEG_INF] * 3) == _NEG_INF
    assert _fit_endpoint([(1, 1), (1, 2), (1, 4)]) == (0, 1)
    assert _fit_endpoint([(1, 1), (2, 1), (4, 1)]) == _INF
    assert _fit_endpoint([(-1, 1), (-2, 1), (-3, 1)]) == _NEG_INF
    # No input reaches a window mixing an infinite end with finite ones; it fits nothing.
    assert _fit_endpoint([_NEG_INF, (0, 1), (1, 1)]) is None
    assert _fit_endpoint([(1, 1), (1, 1), _INF]) is None


def test_status_propagates_worst():
    system = _system(PiecewiseAffineMap.affine(2, 0), p=interval(None, 1))
    out = eval_real(system, parse_formula("[]p | p"))
    assert out.status is Status.EXTRAPOLATED


@settings(max_examples=100)
@given(piecewise_maps(), interval_sets(), interval_sets(), formulas(("p", "q"), allow_weak=True))
def test_every_subformula_value_is_open(f, p, q, phi):
    # So the weak box may take an Exact chain limit as it is, without its interior.
    out = eval_real(_system(f, p=p.interior(), q=q.interior()), phi)
    assert all(v.value is None or v.value.is_open() for v in out.table.values())


_FROZEN_BATTERY = (
    "[]p", "[*]p", "<>q", "O p", "[][*]p", "[*][]p", "[](p | q)", "[*](p | q)",
    "[](p -> O p)", "[]<>q", "<>[]p", "[]p -> [*]p", "[*]O p -> O [*]p",
    "[](p -> q) -> ([]p -> []q)", "(<>p -> []q) -> [](p -> q)", "[]~p",
)


def _frozen_queries() -> list[tuple[str, RealSystem, str]]:
    """(system name, system, formula text) of each line of `real_outcomes.txt`:
    the battery on the four bundled systems and 40 seeded random ones, each
    system built afresh and shared by its formulas."""
    corpus = Corpus()
    systems = [(name, corpus.load(name, "real-system"))
               for name in ("r-double", "r-kinked", "r-const", "r-shift")]
    rng = random.Random(2207)
    for i in range(40):
        valuation = {atom: random_interval_set(rng).interior() for atom in "pq"}
        systems.append((f"random-{i}", RealSystem(random_map(rng), valuation)))
    return [(name, system, text) for name, system in systems for text in _FROZEN_BATTERY]


def _outcome_lines(queries, order=None, fresh=False) -> list[str]:
    """Status and value of each query, one line each in query order, evaluated
    in the given order; fresh evaluates each on a new system and map."""
    lines = [""] * len(queries)
    for i in range(len(queries)) if order is None else order:
        name, system, text = queries[i]
        if fresh:
            pwmap = PiecewiseAffineMap(system.map.breakpoints, system.map.pieces)
            system = RealSystem(pwmap, system.valuation, system.caps)
        out = eval_real(system, parse_formula(text))
        lines[i] = f"{name} {text}: {out.status.value} {out.value}"
    return lines


def test_real_line_outcomes_are_frozen():
    frozen = (Path(__file__).parent / "real_outcomes.txt").read_text()
    lines = _outcome_lines(_frozen_queries())
    got = "\n".join(lines) + "\n"
    assert len(lines) == 44 * len(_FROZEN_BATTERY)
    # Two of the five Extrapolated strong boxes of p are on random maps.
    assert sum(" []p: Extrapolated" in line for line in lines) == 5
    assert got == frozen


def test_subformula_memo_gives_the_frozen_outcomes_in_any_order():
    frozen = (Path(__file__).parent / "real_outcomes.txt").read_text().splitlines()
    shuffled = list(range(len(frozen)))
    random.Random(2411).shuffle(shuffled)
    asked = {node for text in _FROZEN_BATTERY for node in walk(parse_formula(text))[0]}
    for order in (range(len(frozen))[::-1], shuffled):
        queries = _frozen_queries()
        assert _outcome_lines(queries, order) == frozen
        # One entry per distinct subformula of the battery, on every system.
        for _, system, _ in queries[::len(_FROZEN_BATTERY)]:
            assert set(system._memo) == asked
    # The independent oracle: nothing shared between queries, map included.
    assert _outcome_lines(_frozen_queries(), fresh=True) == frozen


def test_subformula_memo_is_kept_per_system():
    system = Corpus().load("r-double", "real-system")
    twin = Corpus().load("r-double", "real-system")
    before = repr(system)
    phi = parse_formula("[*]p")
    out = eval_real(system, phi)
    assert out.status is Status.EXTRAPOLATED
    assert system._memo and not twin._memo
    assert repr(system) == before and system == twin
    # Systems sharing the map but not the caps or the valuation share no value.
    capped = RealSystem(system.map, system.valuation, EvalCaps(iter=0))
    assert eval_real(capped, phi).status is Status.UNDETERMINED
    whole = RealSystem(system.map, {"p": REALS})
    assert eval_real(whole, phi) == RealOutcome(REALS, Status.EXACT)
    assert eval_real(system, phi) == out


def test_both_boxes_of_one_operand_share_their_first_chain(monkeypatch):
    runs = []
    chain = realline._chain

    def counted(pwmap, child, caps, join):
        runs.append((child, join))
        return chain(pwmap, child, caps, join)

    monkeypatch.setattr(realline, "_chain", counted)
    double = Corpus().load("r-double", "real-system")
    p = double.valuation["p"]

    def fresh() -> RealSystem:
        return RealSystem(PiecewiseAffineMap(double.map.breakpoints, double.map.pieces),
                          double.valuation)

    boxes = [parse_formula("[*]p"), parse_formula("[]p")]
    for order in (boxes, boxes[::-1]):
        system = fresh()
        runs.clear()
        outcomes = [eval_real(system, phi) for phi in order]
        # The first box runs p's chain, the second reads its limit from the map.
        assert runs.count((p, IntervalSet.intersection)) == 1
        assert outcomes == [eval_real(fresh(), phi) for phi in order]
        assert all(out.status is Status.EXTRAPOLATED for out in outcomes)


def test_valuation_is_a_read_only_copy():
    given = {"p": interval(None, 1)}
    system = RealSystem(PiecewiseAffineMap.affine(2, 0), given)
    phi = parse_formula("[*]p")
    given["p"] = REALS
    out = eval_real(system, phi)
    assert out == eval_real(_system(system.map, p=interval(None, 1)), phi)
    given["p"] = interval(None, 2)
    assert eval_real(system, phi) == out
    with pytest.raises(TypeError):
        system.valuation["p"] = REALS
    assert system.valuation == {"p": interval(None, 1)}


# -- the component cap --------------------------------------------------------

# A folding expanding map on which the box chain of q doubles its component
# count at every step; without the cap it ran for more than 20 s.
def _blow_up() -> PiecewiseAffineMap:
    return PiecewiseAffineMap.from_pieces([2], [(-2, 3), (2, -5)])


def test_component_cap_ends_a_doubling_chain():
    f = _blow_up()
    start = time.perf_counter()
    out = eval_real(_system(f, q=interval(-18, Fraction(17, 2))), parse_formula("[]q"))
    assert time.perf_counter() - start < 1
    assert out.status is Status.UNDETERMINED and out.value is None
    # The cap bounds the preimage memo with the chain.
    assert len(f._memo) < 1000


def _mirrored(*pieces):
    """Each open interval (lo, hi) together with (-hi, -lo)."""
    return IntervalSet.of(
        make_interval(lo, False, hi, False) for a, b in pieces for lo, hi in ((a, b), (-b, -a))
    )


MIRROR = PiecewiseAffineMap.affine(-1, 0)


def test_component_cap_counts_beyond_the_operand():
    # Under x -> -x, <>q is q with its mirror image: one component beyond q.
    q = interval(1, 2)
    for cap, status in ((0, Status.UNDETERMINED), (1, Status.EXACT), (64, Status.EXACT)):
        out = eval_real(RealSystem(MIRROR, {"q": q}, EvalCaps(components=cap)), parse_formula("<>q"))
        assert out.status is status, cap
    assert out.value == _mirrored((1, 2))


def test_many_components_stay_exact_under_the_default_cap():
    halves = [(k, k + Fraction(1, 2)) for k in range(1, 41)]
    # p has 70 components and is its own mirror image: each chain stops at once.
    p = _mirrored(*halves[:35])
    q = IntervalSet.of(make_interval(lo, False, hi, False) for lo, hi in halves)
    system = _system(MIRROR, p=p, q=q)
    for text in ("[]p", "[*]p", "<>p"):
        out = eval_real(system, parse_formula(text))
        assert out.status is Status.EXACT and out.value == p, text
    # <>q has 80 components, 40 beyond its operand.
    out = eval_real(system, parse_formula("<>q"))
    assert out.status is Status.EXACT and out.value == _mirrored(*halves)
    assert len(p.components) == 70 and len(out.value.components) == 80
