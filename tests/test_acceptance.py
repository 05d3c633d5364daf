"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each criterion re-derives its expected values through the public API
against the bundled corpus; numeric expectations are exact.
"""

import random
import re
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from itlmc import (
    Atom,
    Corpus,
    EMPTY,
    LOGICS,
    REALS,
    RealSystem,
    SemanticClass,
    Status,
    StrongBox,
    ValidUpTo,
    WeakBox,
    bi,
    cd,
    cem,
    check,
    eval_formula,
    eval_real,
    fs_dia,
    fs_next,
    get_logic,
    interval,
    parse_derivation,
    parse_formula,
    soundness_sweep,
    translate_weak,
    validity,
)
from itlmc.cli import main as cli_main
from conftest import (
    enumerate_models, eval_box_by_orbit, random_interval_set, random_model, random_point,
)

P, Q = Atom("p"), Atom("q")
CORPUS = Corpus()


@contextmanager
def criterion(num: int, title: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nFAIL criterion {num:2d}: {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nPASS criterion {num:2d}: {title} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s"


def test_criterion_01_shift_schemas_falsified_at_the_root():
    with criterion(1, "bundled shift-schema model falsifies both schemas at w", 1.0):
        model, valuation = CORPUS.load("fig4-fs")
        for phi in (fs_dia(P, Q), fs_next(P, Q)):
            ext = eval_formula(model, valuation, phi)
            assert ext == frozenset({"v", "u"})
            assert [w for w in model.worlds if w not in ext] == ["w"]
        assert model.is_continuous and not model.is_open


def test_criterion_02_next_excluded_middle_falsified_at_w0():
    with criterion(2, "next-excluded-middle fails exactly at w0 on the bundled model", 1.0):
        model, valuation = CORPUS.load("fig5-cem")
        ext = eval_formula(model, valuation, cem(P, Q))
        assert ext == frozenset({"w1", "v0", "v1", "v2"})
        assert [w for w in model.worlds if w not in ext] == ["w0"]


def test_criterion_03_weak_henceforth_on_the_kinked_system():
    with criterion(3, "kinked system: weak henceforth values match exactly", 1.0):
        system = CORPUS.load("r-kinked")
        expected = {
            "[*]p": interval(None, 0),
            "O [*]p": EMPTY,
            "[*][*]p": EMPTY,
            "[*]p -> O [*]p": interval(0, None),
            "[*]O p -> O [*]p": interval(0, None),
            "[*]p -> [*][*]p": interval(0, None),
        }
        for text, want in expected.items():
            out = eval_real(system, parse_formula(text))
            assert out.status is not Status.UNDETERMINED, text
            assert out.value == want, (text, str(out.value))


def test_criterion_04_distribution_gap_on_the_doubling_system():
    with criterion(4, "doubling system: distribution and induction fail at 0", 1.0):
        system = CORPUS.load("r-double")
        zero = Fraction(0)
        for phi in (cd(P, Q), bi(P, Q)):
            out = eval_real(system, phi)
            assert out.status is not Status.UNDETERMINED
            assert not out.value.contains(zero)
        box_p = eval_real(system, StrongBox(P))
        assert box_p.value == interval(None, 0)
        dia_q = eval_real(system, parse_formula("<>q"))
        assert dia_q.value == interval(0, None)
        assert dia_q.status is Status.EXACT


def test_criterion_05_shift_schema_fails_on_the_constant_system():
    with criterion(5, "constant system: -1 falsifies the eventually-shift schema", 1.0):
        system = CORPUS.load("r-const")
        minus_one = Fraction(-1)
        strong = eval_real(system, fs_dia(P, Q))
        assert strong.status is not Status.UNDETERMINED
        assert not strong.value.contains(minus_one)
        weak = eval_real(system, translate_weak(fs_dia(P, Q)))
        assert weak.status is not Status.UNDETERMINED
        assert not weak.value.contains(minus_one)


def test_criterion_06_soundness_sweeps():
    sweeps = [
        ("ITL.db", "e", 3),
        ("ITL.dw", "e", 3),
        ("CDTL.db", "e", 3),
        ("CDTL.b", "e", 3),
        ("CDTL+.db", "p", 3),
    ]
    with criterion(6, "axiom soundness sweeps over bounded posets are clean"):
        checked = 0
        for name, kind, bound in sweeps:
            results = soundness_sweep(LOGICS[name], SemanticClass(kind, bound))
            bad = {k: v for k, v in results.items() if not isinstance(v, ValidUpTo)}
            assert not bad, (name, sorted(bad))
            checked += len(results)
        assert checked >= 5 * 12


BATTERY = [
    "false", "p", "q", "~p", "~~p", "p & q", "p | q", "p -> q", "p | ~p",
    "O p", "O O p", "O(p -> q)", "p -> O p", "O p -> p", "~O p", "O~~p",
    "<>p", "<><>p", "<>(p & q)", "<>p -> p", "[]p", "[][]p", "[*]p",
    "[]p -> p", "<>[]p", "[]<>p", "[](p -> O p)",
    "[](p | q) -> []p | <>q",
    "[](p | q) & [](O q -> q) -> []p | q",
    "~O p & O~~p -> O q | ~O q",
]


def test_criterion_07_box_flavors_match_the_orbit_oracle():
    with criterion(7, "both box flavors equal the orbit oracle on 1000 random models"):
        battery = [parse_formula(t) for t in BATTERY]
        assert len(battery) == 30
        rng = random.Random(20260813)
        for _ in range(1000):
            model, valuation = random_model(rng, max_worlds=8)
            for phi in battery:
                oracle = eval_box_by_orbit(model, valuation, phi)
                assert eval_formula(model, valuation, StrongBox(phi)) == oracle
                assert eval_formula(model, valuation, WeakBox(phi)) == oracle


def test_criterion_08_strong_box_below_weak_box():
    with criterion(8, "strong henceforth is contained in weak henceforth"):
        for model, valuation in enumerate_models(SemanticClass("e", 3), ("p",)):
            strong = eval_formula(model, valuation, StrongBox(P))
            weak = eval_formula(model, valuation, WeakBox(P))
            assert strong == weak  # posets: the flavors coincide
        for entry_id in ("r-double", "r-kinked", "r-const", "r-shift"):
            system = CORPUS.load(entry_id)
            for atom in system.atoms():
                strong = eval_real(system, StrongBox(Atom(atom)))
                weak = eval_real(system, WeakBox(Atom(atom)))
                assert strong.status is not Status.UNDETERMINED
                assert weak.status is not Status.UNDETERMINED
                assert strong.value.is_subset(weak.value), entry_id
                if system.map.is_open():
                    assert strong.value == weak.value, entry_id


def test_criterion_09_double_negation_box_swap_bounds():
    phi = parse_formula("[]~~p -> ~~[]p")
    with criterion(9, "box/negation swap: valid to bound 4 in class p; class-e outcome recorded"):
        assert validity(phi, SemanticClass("p", 4)) == ValidUpTo(4)
        recorded = validity(phi, SemanticClass("e", 4))
        # either outcome is legitimate here; it is recorded, not asserted
        print(f"\n      class-e outcome: {type(recorded).__name__}", end="")


_AXIOM_SWAP = {
    "viii": "ix", "ix": "viii", "x": "xi", "xi": "x", "xii": "xiii",
    "xiii": "xii", "v": "vi", "vi": "v", "iii": "iv", "iv": "iii",
    "vii": "iv", "cd": "vii", "cd-minus": "viii", "fs-next": "v",
    "cem": "iii", "wh": "ix", "bi": "cd",
}


def _mutations(text: str):
    """Deterministic single-line corruptions of a derivation file."""
    lines = text.splitlines()
    for idx, raw in enumerate(lines):
        stripped = raw.strip()
        match = re.match(r"(\d+)\.", stripped)
        if not match or ";" not in raw:
            continue
        number = int(match.group(1))
        formula_part, _, just = raw.partition(";")

        def emit(new_line):
            patched = lines[:idx] + [new_line] + lines[idx + 1:]
            return number, "\n".join(patched) + "\n"

        if " -> " in formula_part:
            yield emit(formula_part.replace(" -> ", " & ", 1) + ";" + just)
        if "[]" in formula_part:
            yield emit(formula_part.replace("[]", "[*]", 1) + ";" + just)
        mp = re.search(r"mp (\d+) (\d+)", just)
        if mp:
            a, b = mp.group(1), mp.group(2)
            if a != b:
                yield emit(formula_part + ";" + just.replace(f"mp {a} {b}", f"mp {b} {a}"))
            yield emit(formula_part + ";" + just.replace(f"mp {a} {b}", f"mp {a} {a}"))
        if "nec-box" in just:
            yield emit(formula_part + ";" + just.replace("nec-box", "nec-next"))
        elif "nec-next" in just:
            yield emit(formula_part + ";" + just.replace("nec-next", "nec-box"))
        ax = re.search(r"axiom (\S+)", just)
        if ax and ax.group(1) in _AXIOM_SWAP:
            yield emit(
                formula_part + ";"
                + just.replace(f"axiom {ax.group(1)}", f"axiom {_AXIOM_SWAP[ax.group(1)]}", 1)
            )
        sub = re.search(r"phi:=([^,}]*)", just)
        if sub:
            value = sub.group(1).strip()
            yield emit(
                formula_part + ";"
                + just.replace(f"phi:={sub.group(1)}", f"phi:=({value} & false)", 1)
            )


def test_criterion_10_derivations_accepted_and_mutations_rejected():
    targets = [
        ("d-wh", "ITL.db"), ("d-fs", "ITL.db"), ("d-cd-bi", "CDTL.db"),
        ("d-bi-cd", "ITL.db"), ("d-yuse-1", "ITL.db"), ("d-yuse-2", "ITL.db"),
    ]
    with criterion(10, "bundled derivations check; line mutations are caught in place", 5.0):
        for entry_id, logic_name in targets:
            logic = get_logic(logic_name)
            text = CORPUS.text_of(entry_id)
            assert check(parse_derivation(text), logic).ok, entry_id
            killed = 0
            for mutated_line, mutated_text in _mutations(text):
                result = check(parse_derivation(mutated_text), logic)
                if not result.ok and result.failed_line == mutated_line:
                    killed += 1
            assert killed >= 10, (entry_id, killed)


def test_criterion_11_separation_matrix_verifies():
    with criterion(11, "all separation edge certificates verify and `separate` exits 0", 120.0):
        from itlmc import build_separation_matrix

        reports = build_separation_matrix(CORPUS)
        assert len(reports) == 18
        assert all(r.ok for r in reports)
        assert sum(1 for r in reports if r.edge.style == "solid") == 8
        assert cli_main(["separate"]) == 0


def test_criterion_12_next_excluded_middle_valid_on_the_line():
    with criterion(12, "next-excluded-middle is the full line on bundled and random valuations"):
        rng = random.Random(6157)
        for entry_id in ("r-double", "r-kinked"):
            system = CORPUS.load(entry_id)
            out = eval_real(system, cem(P, Q))
            assert out.value == REALS and out.status is Status.EXACT
            for _ in range(20):
                valuation = {
                    "p": random_interval_set(rng).interior(),
                    "q": random_interval_set(rng).interior(),
                }
                randomized = RealSystem(system.map, valuation, system.caps)
                out = eval_real(randomized, cem(P, Q))
                assert out.value == REALS and out.status is Status.EXACT


def test_criterion_13_interval_algebra_bulk_properties():
    with criterion(13, "10^4 randomized interval-algebra checks hold", 30.0):
        from itlmc import PiecewiseAffineMap

        rng = random.Random(97)
        maps = [
            PiecewiseAffineMap.affine(2, 0),
            PiecewiseAffineMap.affine(0, 0),
            PiecewiseAffineMap.affine(-1, 3),
            PiecewiseAffineMap.from_pieces([0], [(0, 0), (2, 0)]),
            PiecewiseAffineMap.from_pieces([-2, 2], [(1, 2), (0, 0), (2, -4)]),
        ]
        for i in range(10_000):
            a = random_interval_set(rng)
            b = random_interval_set(rng)
            x = random_point(rng)
            case = i % 4
            if case == 0:
                shuffled = list(a.components)
                rng.shuffle(shuffled)
                from itlmc import IntervalSet

                assert IntervalSet.of(shuffled) == a
                assert a.union(a) == a and a.intersection(a) == a
            elif case == 1:
                assert a.union(b).complement() == a.complement().intersection(b.complement())
                assert a.union(b).contains(x) == (a.contains(x) or b.contains(x))
            elif case == 2:
                assert a.interior() == a.complement().closure().complement()
                assert a.interior().is_open() and a.interior().is_subset(a)
            else:
                f = rng.choice(maps)
                assert f.preimage(a).contains(x) == a.contains(f.apply(x))
