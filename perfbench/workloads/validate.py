"""validate: random formulas through the `itlmc validate` command.

Formulas over p and q (depth at most 4, with O, <> and []) are drawn and
sorted into two strata by the benchmark's own Kripke evaluator: formulas
false on some one-world model (refuted after a few models) and formulas
over both atoms that hold on every model of at most two worlds (almost
always a full bound-3 scan). The deck holds five of the first per one of
the second, the mix of random formulas, at bound 3 in a class drawn per
formula (alternating e and p for the scanned stratum). The deck is drawn
once, from DECK_SEED: full scans cost 0.1-0.7 s each, and decks drawn from
different seeds differ in total cost by more than the benchmark's bounds.
The run's seed orders each pass.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout

from .. import formulas, oracles
from ..harness import Check
from . import Query, Workload, digest, golden_check, pass_atoms

BOUND = 3
DEPTH = 4
DECK_SEED = 1
SCANNED = 12
REFUTED_PER_SCANNED = 5
SCANNED_SIZE = (7, 12)  # distinct subterms of a scanned-stratum formula
SAMPLED_MODELS = 6


def _one_world_tautology(phi) -> bool:
    return all(
        formulas.classical(phi, {"p": a, "q": b}) for a in (False, True) for b in (False, True)
    )


def deck(seed: int = DECK_SEED) -> list[tuple]:
    """(formula, class) pairs: the scanned stratum, then the refuted one."""
    rng = random.Random(seed)
    small = {kind: oracles.small_models(kind, 2) for kind in ("e", "p")}
    refuted, scanned = [], []
    while len(scanned) < SCANNED or len(refuted) < SCANNED * REFUTED_PER_SCANNED:
        phi = formulas.random_formula(rng, DEPTH)
        if not _one_world_tautology(phi):
            refuted.append((phi, rng.choice("ep")))
            continue
        kind = "ep"[len(scanned) % 2]
        size = formulas.distinct_subterms(phi)
        if (
            formulas.atoms(phi) == {"p", "q"}
            and SCANNED_SIZE[0] <= size <= SCANNED_SIZE[1]
            and oracles.valid_on(small[kind], phi)
        ):
            scanned.append((phi, kind))
    return scanned[:SCANNED] + refuted[:SCANNED * REFUTED_PER_SCANNED]


def _normalize(output: str) -> str:
    # The order line lists a set of pairs; its order follows string hashing,
    # which varies between processes unless PYTHONHASHSEED is fixed.
    lines = output.split("\n")
    return "\n".join(
        "order: " + " ".join(sorted(line.split()[1:])) if line.startswith("order:") else line
        for line in lines
    )


def prepare(itlmc, seed: int, golden) -> Workload:
    cli = itlmc.cli
    entries = deck()

    def make_query(key: int, pass_no: int) -> Query:
        phi, kind = entries[key]
        p, q, _ = pass_atoms(pass_no)
        phi = formulas.rename(phi, {"p": p, "q": q})
        text = formulas.render(phi)
        argv = ["validate", "--class", kind, "--bound", str(BOUND), text]

        def run():
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def fingerprint(result):
            code, output = result
            return [code, digest(_normalize(output))]

        def check(result):
            if pass_no == 0:
                problem = golden_check(golden, key, fingerprint(result))
                if problem:
                    return Check(False, note=problem)
            rng = random.Random(seed * 7919 + key)
            return check_output(result, phi, kind, rng)

        return Query(key, " ".join(argv), run, check, fingerprint)

    def pass_queries(pass_no: int) -> list[Query]:
        order = list(range(len(entries)))
        random.Random(seed * 1_000_003 + pass_no).shuffle(order)
        return [make_query(key, pass_no) for key in order]

    with redirect_stdout(io.StringIO()):
        cli.main(["validate", "--class", "e", "--bound", "2", "p -> p"])
    golden_queries = [make_query(key, 0) for key in range(len(entries))]
    return Workload("validate", len(entries), pass_queries, golden_queries, limit=60.0)


def check_output(result, phi, kind: str, rng) -> Check:
    """Judge the printed verdict with the Kripke evaluator."""
    code, output = result
    if code == 0:
        if output != f"valid in class {kind} up to {BOUND} worlds\n":
            return Check(False, note=f"unexpected output {output!r}")
        names = tuple(sorted(formulas.atoms(phi))) or ("p",)
        for _ in range(SAMPLED_MODELS):
            model = oracles.random_model(rng, kind, BOUND, names)
            if len(model.extension(phi)) != len(model.worlds):
                return Check(False, note="oracle found a countermodel")
        return Check(True)
    if code == 1:
        head, _, rest = output.partition("\n")
        body, marker, world = rest.rpartition("falsified at: ")
        if head != "countermodel:" or not marker:
            return Check(False, note=f"unexpected output {output!r}")
        model = oracles.parse_model_text(body)
        errors = model.structure_errors(kind, BOUND)
        if errors:
            return Check(False, note="countermodel outside the class: " + "; ".join(errors))
        if world.strip() in model.extension(phi):
            return Check(False, note=f"oracle: formula holds at {world.strip()}")
        return Check(True)
    return Check(code == 2, decided=False, note=f"exit code {code}")
