"""sweep: axiom soundness sweeps over bounded posets (the search hot path).

The deck holds every schema with at most two metavariables of the bound-3
sweeps ITL.db/class e, CDTL+.db/class p and RTL.db/class e; a schema that
an earlier sweep of the deck already checks in the same class is not
repeated. RTL.db/e keeps cd-minus and cem, whose known countermodel
exercises the countermodel path. The six three-metavariable propositional
schemas (ipc-s, ipc-or-elim; 2-3 s each, about 60% of a full sweep) are
left out so that whole passes fit one run. A query is one schema, checked
with `search.validity` on the instance `soundness_sweep` builds. The deck
does not depend on the seed; the seed orders each pass.
"""

from __future__ import annotations

import random

from .. import formulas, oracles
from ..harness import Check
from . import Query, Workload, golden_check, pass_atoms

SWEEPS = (("ITL.db", "e"), ("CDTL+.db", "p"), ("RTL.db", "e"))
BOUND = 3
MAX_METAVARS = 2
SAMPLED_MODELS = 6


def deck(itlmc) -> list[tuple[str, str, str]]:
    """(logic, class, schema) triples in a fixed order."""
    out, seen = [], set()
    for logic_name, kind in SWEEPS:
        logic = itlmc.hilbert.LOGICS[logic_name]
        for name in sorted(logic.axioms):
            schema = logic.axioms[name]
            key = (kind, schema.template, logic.weak_rendered)
            if len(schema.metavars) > MAX_METAVARS or key in seen:
                continue
            seen.add(key)
            out.append((logic_name, kind, name))
    return out


def _instance(itlmc, logic_name, schema_name, names):
    logic = itlmc.hilbert.LOGICS[logic_name]
    schema = logic.axioms[schema_name]
    subst = {mv: itlmc.formula.Atom(names[i]) for i, mv in enumerate(schema.metavars)}
    phi = itlmc.hilbert.instantiate(schema, subst)
    return itlmc.formula.translate_weak(phi) if logic.weak_rendered else phi


def prepare(itlmc, seed: int, golden) -> Workload:
    entries = deck(itlmc)
    semclass = {kind: itlmc.search.SemanticClass(kind, BOUND) for _, kind in SWEEPS}
    search = itlmc.search

    def make_query(key: int, pass_no: int) -> Query:
        logic_name, kind, schema_name = entries[key]
        phi = _instance(itlmc, logic_name, schema_name, pass_atoms(pass_no))
        reference = formulas.from_itlmc(phi)

        def run():
            return search.validity(phi, semclass[kind])

        def fingerprint(verdict):
            return type(verdict).__name__

        def check(verdict):
            problem = golden_check(golden, key, fingerprint(verdict))
            if problem:
                return Check(False, note=problem)
            rng = random.Random(seed * 7919 + key)
            return check_verdict(verdict, reference, kind, rng)

        return Query(key, f"{logic_name}/{kind}/{schema_name}", run, check, fingerprint)

    def pass_queries(pass_no: int) -> list[Query]:
        order = list(range(len(entries)))
        random.Random(seed * 1_000_003 + pass_no).shuffle(order)
        return [make_query(key, pass_no) for key in order]

    # Warm-up: one small search through the same code path.
    search.validity(_instance(itlmc, "ITL.db", "viii", ("p",)), itlmc.search.SemanticClass("e", 2))
    golden_queries = [make_query(key, 0) for key in range(len(entries))]
    return Workload("sweep", len(entries), pass_queries, golden_queries, limit=60.0)


def check_verdict(verdict, reference, kind: str, rng) -> Check:
    """Re-check a validity verdict with the pointwise Kripke evaluator."""
    name = type(verdict).__name__
    if name == "Countermodel":
        model = oracles.model_from_itlmc(verdict.model, verdict.valuation)
        errors = model.structure_errors(kind, BOUND)
        if errors:
            return Check(False, note="countermodel outside the class: " + "; ".join(errors))
        if formulas.from_itlmc(verdict.formula) != reference:
            return Check(False, note="countermodel is for another formula")
        if verdict.world in model.extension(reference):
            return Check(False, note=f"oracle: formula holds at {verdict.world}")
        return Check(True)
    if name == "ValidUpTo":
        if verdict.bound != BOUND:
            return Check(False, note=f"valid up to {verdict.bound}, asked {BOUND}")
        names = tuple(sorted(formulas.atoms(reference)))
        for _ in range(SAMPLED_MODELS):
            model = oracles.random_model(rng, kind, BOUND, names)
            if len(model.extension(reference)) != len(model.worlds):
                return Check(False, note="oracle found a countermodel")
        return Check(True)
    return Check(True, decided=False)
