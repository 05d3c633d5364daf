"""corpus: the bundled corpus re-verified, plus derivation line mutants.

One pass is one round: a fresh `Corpus()` with `paper_suite` on it, then
`build_separation_matrix` on the same corpus, then `check` of the six
derivations of acceptance criterion 10 and of their seeded single-line
mutants, in a seeded order. A query is one of these calls. Mutants are
judged by where they may fail: a derivation whose lines before the mutated
one are unchanged cannot be rejected earlier, and a mutant that is
accepted must prove a theorem the Kripke evaluator finds valid on sampled
class-e models (ITL and CDTL are sound for them). The mutants are drawn
once, from DECK_SEED, as the other workloads' decks are: decks drawn from
different seeds differ in cost, and that would read as noise between runs.
The run's seed orders each pass and draws the sampled models.
"""

from __future__ import annotations

import random
import re

from .. import formulas, oracles
from ..harness import Check
from . import Query, Workload, golden_check

DECK_SEED = 1
TARGETS = (
    ("d-wh", "ITL.db"), ("d-fs", "ITL.db"), ("d-cd-bi", "CDTL.db"),
    ("d-bi-cd", "ITL.db"), ("d-yuse-1", "ITL.db"), ("d-yuse-2", "ITL.db"),
)
MUTANTS_PER_DERIVATION = 64
EDGES = 18
SAMPLED_MODELS = 6

_LINE_RE = re.compile(r"\s*(\d+)\.")


def _replace_nth(text: str, old: str, new: str, n: int) -> str:
    starts = [m.start() for m in re.finditer(re.escape(old), text)]
    i = starts[n]
    return text[:i] + new + text[i + len(old):]


def _line_mutations(formula: str, just: str, axiom_names):
    """Candidate (formula, justification) rewrites of one derivation line."""
    out = []
    for old, new in ((" -> ", " & "), ("[]", "[*]"), ("O ", "")):
        for n in range(formula.count(old)):
            out.append((_replace_nth(formula, old, new, n), just))
    for m in re.finditer(r"\b[pq]\b", formula):
        swapped = "q" if m.group(0) == "p" else "p"
        out.append((formula[:m.start()] + swapped + formula[m.end():], just))
    mp = re.search(r"mp (\d+) (\d+)", just)
    if mp:
        a, b = mp.groups()
        out.append((formula, just.replace(mp.group(0), f"mp {b} {a}")))
        out.append((formula, just.replace(mp.group(0), f"mp {a} {a}")))
    for old, new in (("nec-box", "nec-next"), ("nec-next", "nec-box")):
        if old in just:
            out.append((formula, just.replace(old, new)))
    ax = re.search(r"axiom (\S+)", just)
    if ax:
        for name in axiom_names:
            if name != ax.group(1):
                out.append((formula, just.replace(ax.group(0), f"axiom {name}", 1)))
    for sub in re.finditer(r"(phi|psi):=([^,}]*)", just):
        value = sub.group(2).strip()
        out.append((formula, just.replace(sub.group(0), f"{sub.group(1)}:=({value} & false)", 1)))
    return [(f, j) for f, j in out if (f, j) != (formula, just)]


def mutants(text: str, axiom_names, rng, count: int) -> list[tuple[int, str]]:
    """`count` seeded single-line mutants as (mutated line number, text)."""
    lines = text.splitlines()
    numbered = [
        i for i, raw in enumerate(lines)
        if _LINE_RE.match(raw) and ";" in raw and not raw.lstrip().startswith("#")
    ]
    out = []
    while len(out) < count:
        i = rng.choice(numbered)
        raw = lines[i]
        head = _LINE_RE.match(raw)
        formula, _, just = raw[head.end():].partition(";")
        options = _line_mutations(formula, just, axiom_names)
        if not options:
            continue
        new_formula, new_just = rng.choice(options)
        patched = lines[:i] + [raw[:head.end()] + new_formula + ";" + new_just] + lines[i + 1:]
        out.append((int(head.group(1)), "\n".join(patched) + "\n"))
    return out


def theorem_text(text: str) -> str:
    last = [raw for raw in text.splitlines() if _LINE_RE.match(raw) and ";" in raw][-1]
    return last[_LINE_RE.match(last).end():].partition(";")[0]


def prepare(itlmc, seed: int, golden) -> Workload:
    hilbert, parser, search, corpus_mod = itlmc.hilbert, itlmc.parser, itlmc.search, itlmc.corpus
    rng = random.Random(DECK_SEED)
    source = corpus_mod.Corpus()
    derivations = []  # (entry, logic name, mutated line or None, text)
    for entry, logic_name in TARGETS:
        text = source.text_of(entry)
        names = sorted(hilbert.LOGICS[logic_name].axioms)
        derivations.append((entry, logic_name, None, text))
        for line, mutant in mutants(text, names, rng, MUTANTS_PER_DERIVATION):
            derivations.append((entry, logic_name, line, mutant))
    facts = len(corpus_mod.FACTS)
    round_state = {}

    def paper_query(pass_no: int) -> Query:
        def run():
            corpus = corpus_mod.Corpus()
            round_state["corpus"] = corpus
            return corpus_mod.paper_suite(corpus)

        def fingerprint(results):
            return sorted(fact.id for fact, result in results if result.ok)

        def check(results):
            problem = pass_no == 0 and golden_check(golden, 0, fingerprint(results))
            if problem:
                return Check(False, note=problem)
            bad = [fact.id for fact, result in results if not result.ok]
            if bad or len(results) != facts:
                return Check(False, note=f"facts failing: {bad}")
            return Check(True)

        return Query(0, "paper_suite", run, check, fingerprint)

    def separation_query(pass_no: int) -> Query:
        def run():
            return search.build_separation_matrix(round_state["corpus"])

        def fingerprint(reports):
            return [sum(1 for r in reports if r.ok), len(reports)]

        def check(reports):
            problem = pass_no == 0 and golden_check(golden, 1, fingerprint(reports))
            if problem:
                return Check(False, note=problem)
            ok, total = fingerprint(reports)
            if ok != EDGES or total != EDGES:
                return Check(False, note=f"{ok}/{total} edges verify")
            return Check(True)

        return Query(1, "build_separation_matrix", run, check, fingerprint)

    def derivation_query(index: int, pass_no: int) -> Query:
        entry, logic_name, line, text = derivations[index]
        logic = hilbert.LOGICS[logic_name]

        def run():
            try:
                derivation = parser.parse_derivation(text)
            except parser.ParseError as err:
                return err
            return hilbert.check(derivation, logic)

        def fingerprint(result):
            if isinstance(result, parser.ParseError):
                return "parse-error"
            return [result.ok, result.failed_line]

        def check(result):
            problem = pass_no == 0 and golden_check(golden, index + 2, fingerprint(result))
            if problem:
                return Check(False, note=problem)
            if isinstance(result, parser.ParseError):
                return Check(line is not None, note="the bundled derivation does not parse")
            if line is None:
                return Check(result.ok, note=f"rejected at {result.failed_line}: {result.reason}")
            if not result.ok:
                earliest = result.failed_line is not None and result.failed_line >= line
                return Check(earliest, note=f"rejected at {result.failed_line}, mutated line {line}")
            return check_theorem(theorem_text(text), random.Random(seed * 7919 + index))

        label = f"{entry} line {line}" if line else entry
        return Query(index + 2, label, run, check, fingerprint)

    def pass_queries(pass_no: int) -> list[Query]:
        order = list(range(len(derivations)))
        random.Random(seed * 1_000_003 + pass_no).shuffle(order)
        return [paper_query(pass_no), separation_query(pass_no)] + [
            derivation_query(i, pass_no) for i in order
        ]

    corpus_mod.paper_suite(corpus_mod.Corpus(), "d-wh")
    golden_queries = [paper_query(0), separation_query(0)] + [
        derivation_query(i, 0) for i in range(len(derivations))
    ]
    return Workload("corpus", len(golden_queries), pass_queries, golden_queries, limit=60.0)


def check_theorem(text: str, rng) -> Check:
    try:
        phi = formulas.parse(text)
    except formulas.FormulaSyntaxError as err:
        return Check(False, note=f"accepted theorem does not parse: {err}")
    names = tuple(sorted(formulas.atoms(phi))) or ("p",)
    for _ in range(SAMPLED_MODELS):
        model = oracles.random_model(rng, "e", 3, names)
        if len(model.extension(phi)) != len(model.worlds):
            return Check(False, note="accepted mutant proves a formula with a countermodel")
    return Check(True)
