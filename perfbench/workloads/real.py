"""real: piecewise affine maps of the line through `realline.eval_real`.

Systems are the four bundled `.rds` systems and random continuous maps
with 0-2 breakpoints and slopes from {-2, -1, -1/2, 0, 1/2, 1, 2, 3}, with
open random valuations of p and q. Folding expanding maps stay in: on some
of them a fixpoint chain doubles its component count on every iteration
and never returns (see NOTES.md); such a query hits the time limit, well
above the slowest query that returns (under 0.9 s), and counts as
undecided and in `realline.timeouts`. A query is one system with one formula of the battery
below. The deck is drawn once, from DECK_SEED: query times spread over
four orders of magnitude, and decks of the size one pass holds, drawn from
different seeds, differ in total cost by 25-50%. The run's seed orders
each pass. Results with status Exact are checked at sampled rational
points by the benchmark's orbit sampler.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .. import formulas, oracles
from ..harness import Check
from . import Query, Workload, digest, golden_check, pass_atoms

BATTERY = (
    "[]p",
    "[*]p",
    "<>q",
    "O p -> p",
    "[](p -> O p)",
    "[]q -> [*]q",
    "<>[]p",
    "[]<>q",
    "[](p | q) -> []p | <>q",
    "(<>p -> []q) -> [](p -> q)",
    "[*]O p -> O [*]p",
    "[](p -> q) -> ([]p -> []q)",
)
SLOPES = tuple(Fraction(s) for s in ("-2", "-1", "-1/2", "0", "1/2", "1", "2", "3"))
BUNDLED = ("r-double", "r-kinked", "r-const", "r-shift")
DECK_SEED = 1
RANDOM_SYSTEMS = 24
LIMIT_S = 2.0
SAMPLE_POINTS = 4


def _rational(rng, span: int) -> Fraction:
    return Fraction(rng.randint(-2 * span, 2 * span), 2)


def random_system(rng) -> tuple[list, list, dict]:
    """(breakpoints, pieces, valuation) of one continuous random system."""
    breakpoints = sorted({_rational(rng, 3) for _ in range(rng.randint(0, 2))})
    slope = rng.choice(SLOPES)
    pieces = [(slope, Fraction(rng.randint(-3, 3)))]
    for b in breakpoints:
        a, c = pieces[-1]
        slope = rng.choice(SLOPES)
        pieces.append((slope, a * b + c - slope * b))
    valuation = {}
    for atom in ("p", "q"):
        intervals = []
        for _ in range(rng.randint(1, 2)):
            lo, hi = sorted((_rational(rng, 6), _rational(rng, 6)))
            if lo == hi:
                hi += 1
            intervals.append((None if rng.random() < 0.15 else lo, None if rng.random() < 0.15 else hi))
        valuation[atom] = intervals
    return breakpoints, pieces, valuation


def _program_system(realline, breakpoints, pieces, valuation):
    sets = {
        atom: realline.IntervalSet.of(
            [realline.make_interval(lo, False, hi, False) for lo, hi in ivs]
        )
        for atom, ivs in valuation.items()
    }
    return realline.RealSystem(realline.PiecewiseAffineMap.from_pieces(breakpoints, pieces), sets)


def systems(itlmc, seed: int = DECK_SEED) -> list[tuple[str, dict, list, list]]:
    """(name, valuation, breakpoints, pieces) of every system of the deck."""
    rng = random.Random(seed)
    out = []
    for i in range(RANDOM_SYSTEMS):
        breakpoints, pieces, valuation = random_system(rng)
        out.append((f"random-{i}", valuation, breakpoints, pieces))
    corpus = itlmc.corpus.Corpus()
    for entry in BUNDLED:
        system = corpus.load(entry)
        valuation = {
            atom: [(iv.lo, iv.hi) for iv in s.components] for atom, s in system.valuation.items()
        }
        out.insert(
            rng.randrange(len(out) + 1),
            (entry, valuation, list(system.map.breakpoints), list(system.map.pieces)),
        )
    return out


def prepare(itlmc, seed: int, golden) -> Workload:
    realline = itlmc.realline
    pool = systems(itlmc)
    references = [oracles.AffineSystem(b, pcs, val) for _, val, b, pcs in pool]
    battery = [formulas.parse(t) for t in BATTERY]
    size = len(battery)

    def pass_inputs(pass_no: int):
        p, q, _ = pass_atoms(pass_no)
        names = {"p": p, "q": q}
        programs = [
            _program_system(realline, b, pcs, {names[a]: ivs for a, ivs in val.items()})
            for _, val, b, pcs in pool
        ]
        phis = [
            itlmc.parser.parse_formula(formulas.render(formulas.rename(f, names)))
            for f in battery
        ]
        return programs, phis

    def make_query(key: int, pass_no: int, programs, phis) -> Query:
        system, phi = programs[key // size], phis[key % size]
        reference, ref_phi = references[key // size], battery[key % size]

        def run():
            return realline.eval_real(system, phi)

        def fingerprint(outcome):
            return [outcome.status.value, digest(str(outcome.value))]

        def check(outcome):
            if pass_no == 0:
                problem = golden_check(golden, key, fingerprint(outcome))
                if problem:
                    return Check(False, note=problem)
            decided = outcome.status is not realline.Status.UNDETERMINED
            if outcome.status is realline.Status.EXACT:
                rng = random.Random(seed * 7919 + key)
                for _ in range(SAMPLE_POINTS):
                    x = Fraction(rng.randint(-48, 48), rng.randint(1, 6))
                    want = oracles.orbit_truth(reference, ref_phi, x)
                    if want is not None and want != outcome.value.contains(x):
                        return Check(False, note=f"orbit sampler disagrees at {x}")
            return Check(True, decided=decided)

        label = f"{pool[key // size][0]}: {BATTERY[key % size]}"
        return Query(key, label, run, check, fingerprint)

    def pass_queries(pass_no: int) -> list[Query]:
        programs, phis = pass_inputs(pass_no)
        order = list(range(len(pool) * size))
        random.Random(seed * 1_000_003 + pass_no).shuffle(order)
        return [make_query(key, pass_no, programs, phis) for key in order]

    programs, phis = pass_inputs(0)
    bundled = [i for i, entry in enumerate(pool) if entry[0] == BUNDLED[0]][0]
    realline.eval_real(programs[bundled], phis[0])
    golden_queries = [make_query(key, 0, programs, phis) for key in range(len(pool) * size)]
    return Workload("real", len(pool) * size, pass_queries, golden_queries, limit=LIMIT_S)
