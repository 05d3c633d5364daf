"""Tests of the benchmark's own code: oracles, span arithmetic, generators.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import formulas, harness, oracles, tracing
from perfbench.workloads import corpus, real, sweep, validate

MODELS = Path(__file__).resolve().parents[2] / "src" / "itlmc" / "corpus" / "poset"


def bundled(name):
    return oracles.parse_model_text((MODELS / f"{name}.dpm").read_text())


@pytest.mark.parametrize(
    "name, text, extension",
    [
        ("fig4-fs", "(<>p -> []q) -> [](p -> q)", {"v", "u"}),
        ("fig4-fs", "(O p -> O q) -> O(p -> q)", {"v", "u"}),
        ("fig5-cem", "~O p & O~~p -> O q | ~O q", {"w1", "v0", "v1", "v2"}),
        (
            "fs-gap",
            "((O <>p -> O []q) -> O(<>p -> []q)) -> ((<>p -> []q) -> [](p -> q))",
            {"a", "b", "u"},
        ),
        ("fs-gap", "[](<>p -> []q) -> [](p -> q)", {"x", "a", "b", "u"}),
    ],
)
def test_kripke_oracle_matches_hand_written_extensions(name, text, extension):
    model = bundled(name)
    assert model.extension(formulas.parse(text)) == extension


def test_fig4_fails_exactly_at_w():
    model = bundled("fig4-fs")
    ext = model.extension(formulas.parse("(<>p -> []q) -> [](p -> q)"))
    assert [w for w in model.worlds if w not in ext] == ["w"]
    assert model.structure_errors("e", 3) == []
    assert model.structure_errors("p", 3) != []  # continuous, not open


def test_structure_errors_catch_a_non_monotone_step():
    model = oracles.KripkeModel(["a", "b"], [("a", "b")], {"a": "b", "b": "a"}, {})
    assert any("monotone" in e for e in model.structure_errors("e", 2))


def test_small_models_count_one_world_models():
    # One world, identity step, two up-sets per atom.
    assert len(oracles.small_models("e", 1)) == 4


def test_orbit_sampler_on_the_doubling_map():
    system = oracles.AffineSystem([], [(2, 0)], {"p": [(None, 1)], "q": [(0, None)]})
    box_p = formulas.parse("[]p")
    assert oracles.orbit_truth(system, box_p, Fraction(1, 2)) is False
    assert oracles.orbit_truth(system, box_p, Fraction(-1)) is None
    assert oracles.orbit_truth(system, formulas.parse("<>q"), Fraction(0)) is False
    assert oracles.orbit_truth(system, formulas.parse("<>q"), Fraction(1, 8)) is True
    assert oracles.orbit_truth(system, formulas.parse("O p -> p"), Fraction(1, 4)) is True


def test_parse_and_render_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        phi = formulas.random_formula(rng, 4)
        assert formulas.parse(formulas.render(phi)) == phi


def test_self_time_of_a_nested_trace():
    rec = tracing.Recorder(["a", "b", "c", "d"])
    root = rec.add(0, 0.0, 10.0, -1)
    b = rec.add(1, 1.0, 4.0, root)
    rec.add(2, 2.0, 3.0, b)
    rec.add(3, 5.0, 9.0, root)
    rec.add(3, 11.0, 12.5, -1)
    times = tracing.span_times(rec)
    assert times["a"] == {"calls": 1, "total": 10.0, "self": 3.0}
    assert times["b"] == {"calls": 1, "total": 3.0, "self": 2.0}
    assert times["c"] == {"calls": 1, "total": 1.0, "self": 1.0}
    assert times["d"] == {"calls": 2, "total": 5.5, "self": 5.5}


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == (50, 50)
    assert harness.percentile(values, 95) == (95, 5)
    assert harness.percentile([7], 99) == (7, 0)


@pytest.mark.parametrize("size", [11, 42, 72, 336, 392])
def test_tail_leaves_ten_deck_queries_beyond(size):
    assert harness.percentile(range(size), harness.tail_percentile(size))[1] == 10


def test_validate_deck_is_deterministic_per_seed():
    deck = validate.deck(5)
    assert deck == validate.deck(5)
    assert deck != validate.deck(6)
    assert len(deck) == validate.SCANNED * (1 + validate.REFUTED_PER_SCANNED)


def test_real_generator_is_deterministic_per_seed():
    def draw(seed):
        rng = random.Random(seed)
        return [real.random_system(rng) for _ in range(20)]

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_corpus_mutants_are_deterministic_per_seed():
    text = (MODELS.parent / "deriv" / "d-wh.drv").read_text()
    names = ["v", "vi", "viii", "ix", "xii"]

    def draw(seed):
        return corpus.mutants(text, names, random.Random(seed), 30)

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)
    assert all(mutant != text for _, mutant in draw(5))


@pytest.fixture(scope="module")
def itlmc():
    from perfbench.run import import_itlmc

    return import_itlmc()


def test_pass_order_is_deterministic_per_seed(itlmc):
    def keys(seed, pass_no):
        return [q.key for q in sweep.prepare(itlmc, seed, None).pass_queries(pass_no)]

    assert keys(5, 0) == keys(5, 0)
    assert keys(5, 0) != keys(6, 0)
    assert keys(5, 0) != keys(5, 1)
    assert sorted(keys(5, 0)) == sorted(keys(6, 1))


def test_passes_rename_atoms_but_keep_the_deck(itlmc):
    workload = validate.prepare(itlmc, 5, None)
    first = {q.key: q.label for q in workload.pass_queries(0)}
    second = {q.key: q.label for q in workload.pass_queries(1)}
    assert first.keys() == second.keys() == set(range(workload.deck_size))
    key = next(k for k in first if "p" in first[k])
    assert first[key] != second[key]
    assert second[key].replace("p1", "p").replace("q1", "q") == first[key]


def test_tracing_records_spans_and_restores(itlmc):
    original = itlmc.search.validity
    rec, restore = tracing.install()
    try:
        phi = itlmc.parser.parse_formula("[]p -> p")
        verdict = itlmc.search.validity(phi, itlmc.search.SemanticClass("e", 2))
    finally:
        restore()
    assert type(verdict).__name__ == "ValidUpTo"
    assert itlmc.search.validity is original
    metrics = tracing.layer_metrics(rec, 0.1, 0)
    assert metrics["search.queries"]["value"] == 1
    assert metrics["parser.calls"]["value"] == 1
    assert metrics["poset.models_evaluated"]["value"] > 0
    assert 0 < metrics["search.step_keep_ratio"]["value"] <= 1
    assert metrics["search.self_s"]["value"] > 0


def test_metric_names_match_benchmark_json(itlmc):
    import json

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    rec, restore = tracing.install()
    restore()
    layer = tracing.layer_metrics(rec, 0.0, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]]["unit"] for m in spec["per_layer"])
    reference = harness.REFERENCE_PROBE_S
    measurement = harness.Measurement(
        times={0: [(0, 0.5), (1, 0.25)]},
        decided={0: True},
        probes=[reference, reference, 3 * reference],
        passes=2,
    )
    e2e, details = harness.end_to_end(measurement, 0.1, 1)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(e2e)
    assert all(m["unit"] == e2e[m["name"]]["unit"] for m in spec["end_to_end"])
    # Segment 1 ran at half the reference speed: 0.25 s there is 0.125 s.
    assert e2e["queries_per_s"]["value"] == pytest.approx(1 / 0.3125)
    assert details["unscaled"]["queries_per_s"] == pytest.approx(1 / 0.375)


def test_times_are_scaled_by_the_probes_around_them():
    reference = harness.REFERENCE_PROBE_S
    m = harness.Measurement(probes=[reference, 2 * reference, 3 * reference])
    assert harness.speed(reference, 3 * reference) == 0.5
    assert m.scaled([(0, 0.3)]) == pytest.approx(0.2)
    assert m.scaled([(0, 0.3), (1, 0.5), (1, 0.1)]) == pytest.approx(0.2)


class SteadyProbe:
    def measure(self):
        time.sleep(0.001)
        return harness.REFERENCE_PROBE_S


def test_time_limit_hits_are_counted_once_and_not_rerun():
    from perfbench.workloads import Query

    def spin():
        while True:
            pass

    def ok(result):
        return harness.Check(True)

    queries = [Query(0, "fast", lambda: 1, ok, repr), Query(1, "spin", spin, ok, repr)]
    m = harness.measure(lambda pass_no: list(queries), 0.2, 0.05, SteadyProbe())
    assert m.passes >= 2
    assert list(m.timed_out) == [1]
    assert m.attempted == m.passes + 1
    assert m.timeouts == 1
    assert m.failed == 0  # a time-limit hit is undecided, not failed
    assert m.decided == {0: True, 1: False}
    assert len(m.times[0]) == m.passes
