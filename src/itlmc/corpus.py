"""Bundled example corpus: models, derivations, and edge certificates.

The package ships a small corpus under ``corpus/`` with a JSON index.
Each entry has a stable id, a kind, and an anchor sentence recording
the behavior the entry is meant to exhibit.  `paper_suite` re-checks
every anchored fact against the engines, so the corpus doubles as a
regression suite for the numbers quoted in the README.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .formula import Atom, InputError
from .hilbert import LOGICS, check, get_logic, instantiate
from .parser import (
    EdgeSpec,
    parse_derivation,
    parse_edges,
    parse_formula,
    parse_poset_model,
    parse_real_system,
    print_extension,
    read_input,
)
from .poset import eval_formula
from .realline import EMPTY, REALS, Status, eval_real, interval
from .search import build_separation_matrix


class UnknownEntry(InputError, KeyError):
    """No corpus entry, or no corpus index, by the name given."""


class MalformedCorpus(InputError):
    """A corpus index that is not a JSON list of well-formed entries."""


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    kind: str  # poset-model | real-system | derivation | edge
    path: str
    anchor: str
    logic: Optional[str] = None


_FIELDS = ("id", "kind", "path", "anchor")


def _read_index(path: Path) -> dict[str, CorpusEntry]:
    """The entries of an index file: a JSON list of objects of strings."""
    try:
        raw = json.loads(read_input(path))
    except FileNotFoundError:
        raise UnknownEntry(f"no corpus index at {path}") from None
    except json.JSONDecodeError as err:
        raise MalformedCorpus(f"corpus index {path} is not JSON: {err}") from None
    if not isinstance(raw, list):
        raise MalformedCorpus(f"corpus index {path} is not a list of entries")
    entries = {}
    for n, item in enumerate(raw, 1):
        where = f"entry {n} of corpus index {path}"
        if not isinstance(item, dict) or not all(isinstance(v, str) for v in item.values()):
            raise MalformedCorpus(f"{where} is not an object of strings")
        missing = [name for name in _FIELDS if name not in item]
        if missing:
            raise MalformedCorpus(f"{where} lacks {', '.join(missing)}")
        unknown = sorted(set(item) - {*_FIELDS, "logic"})
        if unknown:
            raise MalformedCorpus(f"{where} has unknown field(s) {', '.join(unknown)}")
        entries[item["id"]] = CorpusEntry(**item)
    return entries


class Corpus:
    """Loader for the bundled (or an externally supplied) corpus tree."""

    def __init__(self, root: Optional[os.PathLike | str] = None):
        if root is None:
            root = os.environ.get("ITL_CORPUS") or Path(__file__).parent / "corpus"
        self.root = Path(root)
        self._entries = _read_index(self.root / "index.json")
        self._cache: dict[str, object] = {}

    def entries(self) -> list[CorpusEntry]:
        return list(self._entries.values())

    def get(self, entry_id: str) -> CorpusEntry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise UnknownEntry(f"no corpus entry named {entry_id!r}") from None

    def kind_of(self, entry_id: str) -> str:
        return self.get(entry_id).kind

    def text_of(self, entry_id: str) -> str:
        return read_input(self.root / self.get(entry_id).path)

    def load(self, entry_id: str, kind: Optional[str] = None):
        """The parsed entry; a reference that wants some ``kind`` names it."""
        entry = self.get(entry_id)
        if kind is not None and entry.kind != kind:
            raise MalformedCorpus(f"corpus entry {entry_id!r} is a {entry.kind}, not a {kind}")
        if entry_id in self._cache:
            return self._cache[entry_id]
        text = self.text_of(entry_id)
        # Built per call from the module's names, so that a rebinding of
        # those names (by instrumentation, say) reaches these calls too.
        parse = {
            "poset-model": parse_poset_model,
            "real-system": parse_real_system,
            "derivation": parse_derivation,
            "edge": parse_edges,
        }.get(entry.kind)
        if parse is None:
            raise UnknownEntry(f"entry {entry_id!r} has unknown kind {entry.kind!r}")
        value = self._cache[entry_id] = parse(text)
        return value

    def edges(self) -> list[EdgeSpec]:
        return self.load("fig6-edges", "edge")


@dataclass(frozen=True)
class FactResult:
    ok: bool
    detail: str


@dataclass(frozen=True)
class Fact:
    id: str
    run: Callable[[Corpus], FactResult]


def _extension_fact(fact_id: str, checks, summary: str, also: Optional[Callable] = None) -> Fact:
    # A fact on the entry its id names before the "/". Each check is
    # (formula, extension, status or None for any status). On a poset model
    # the extension is its worlds in model order, as "{v, u}", and has no
    # status. `also(corpus, structure)` checks the rest of the fact, after
    # the extensions: a failure note, or None.
    entry_id = fact_id.partition("/")[0]

    def run(corpus: Corpus) -> FactResult:
        # `load` refuses any other kind as not a real-system.
        kind = "poset-model" if corpus.kind_of(entry_id) == "poset-model" else "real-system"
        structure = corpus.load(entry_id, kind)
        for text, want, want_status in checks:
            phi = parse_formula(text)
            if kind == "real-system":
                outcome = eval_real(structure, phi)
                got, status = outcome.value, outcome.status
            else:
                model, valuation = structure
                got, status = print_extension(model, eval_formula(model, valuation, phi)), None
            if got != want:
                return FactResult(False, f"{text}: expected {want}, got {got}")
            if want_status is not None and status is not want_status:
                return FactResult(
                    False, f"{text}: expected status {want_status.name}, got {status.name}"
                )
        note = also(corpus, structure) if also else None
        return FactResult(note is None, note or summary)

    return Fact(fact_id, run)


def _non_open_step(corpus: Corpus, structure) -> Optional[str]:
    model, _ = structure
    ok = model.is_continuous and not model.is_open
    return None if ok else "expected a continuous, non-open step"


def _boxed_repair(corpus: Corpus, structure) -> Optional[str]:
    model, valuation = structure
    boxed = eval_formula(model, valuation, corpus.load("d-fs", "derivation").theorem)
    if boxed != frozenset(model.worlds):
        return f"boxed repair: got {print_extension(model, boxed)}"
    return None


def _derivation_fact(entry_id: str) -> Fact:
    def run(corpus: Corpus) -> FactResult:
        entry = corpus.get(entry_id)
        derivation = corpus.load(entry_id, "derivation")
        result = check(derivation, get_logic(entry.logic))
        if not result.ok:
            return FactResult(False, f"rejected at line {result.failed_line}: {result.reason}")
        return FactResult(True, f"accepted ({result.line_count} lines)")

    return Fact(f"{entry_id}/accepted", run)


def _fact_edges(corpus: Corpus) -> FactResult:
    reports = build_separation_matrix(corpus)
    bad = [r for r in reports if not r.ok]
    if bad:
        first = bad[0]
        return FactResult(
            False,
            f"{len(bad)} edge(s) failed, first {first.edge.source}->{first.edge.target}: {first.detail}",
        )
    solid = sum(1 for r in reports if r.edge.style == "solid")
    return FactResult(
        True, f"all {len(reports)} edges verified ({solid} solid, {len(reports) - solid} dashed)"
    )


def _axiom_spot_fact(entry_id: str) -> Fact:
    # Soundness spot check: random axiom instances of the core system
    # must be valid (and determinable) on each bundled real system.
    def run(corpus: Corpus) -> FactResult:
        system = corpus.load(entry_id, "real-system")
        names = sorted(system.atoms()) or ["p"]
        logic = LOGICS["ITL.db"]
        rng = random.Random(20260813)
        schemas = sorted(logic.axioms.values(), key=lambda s: s.name)
        for i in range(20):
            schema = rng.choice(schemas)
            subst = {mv: Atom(rng.choice(names)) for mv in schema.metavars}
            phi = instantiate(schema, subst)
            outcome = eval_real(system, phi)
            if outcome.value != REALS:
                return FactResult(
                    False,
                    f"draw {i}: axiom {schema.name} gave {outcome.value} "
                    f"[{outcome.status.name.lower()}]",
                )
        return FactResult(True, "20 random core-axiom instances all valid")

    return Fact(f"{entry_id}/axiom-spot-check", run)


_NEG, _POS = interval(None, 0), interval(0, None)


def _build_facts() -> list[Fact]:
    facts = [
        _extension_fact(
            "fig4-fs/shift-schemas",
            [
                ("(<>p -> []q) -> [](p -> q)", "{v, u}", None),
                ("(O p -> O q) -> O(p -> q)", "{v, u}", None),
            ],
            "both shift schemas hold exactly on {v, u}",
            _non_open_step,
        ),
        _extension_fact(
            "fig5-cem/failure-at-root",
            [("~O p & O~~p -> O q | ~O q", "{w1, v0, v1, v2}", None)],
            "next-excluded-middle fails exactly at w0",
        ),
        _extension_fact(
            "fs-gap/boxed-repair",
            [
                ("((O <>p -> O []q) -> O(<>p -> []q)) -> ((<>p -> []q) -> [](p -> q))",
                 "{a, b, u}", None),
            ],
            "unboxed shift implication fails at x; boxed repair is valid",
            _boxed_repair,
        ),
        _extension_fact(
            "r-double/distribution-gap",
            [
                ("[]p", _NEG, Status.EXTRAPOLATED),
                ("[*]p", _NEG, Status.EXTRAPOLATED),
                ("<>q", _POS, Status.EXACT),
                ("[](p | q) -> []p | <>q", _NEG.union(_POS), None),
                ("[](p | q) & [](O q -> q) -> []p | q", _NEG.union(_POS), None),
                ("~O p & O~~p -> O q | ~O q", REALS, None),
            ],
            "distribution fails only at 0; henceforth extrapolates to (-inf, 0)",
        ),
        _extension_fact(
            "r-kinked/weak-box-split",
            [
                ("[*]p", _NEG, Status.EXTRAPOLATED),
                ("[]p", EMPTY, None),
                ("O [*]p", EMPTY, None),
                ("[*]O p", _NEG, None),
                ("[*][*]p", EMPTY, Status.EXTRAPOLATED),
                ("[*]p -> O [*]p", _POS, None),
                ("[*]O p -> O [*]p", _POS, None),
                ("[*]p -> [*][*]p", _POS, None),
                ("~O p & O~~p -> O q | ~O q", REALS, Status.EXACT),
                ("[](p -> O p) -> (p -> []p)", REALS, None),
            ],
            "weak and strong henceforth split; the weak flavor is not forward-stable",
        ),
        _extension_fact(
            "r-const/shift-failure",
            [
                ("(<>p -> []q) -> [](p -> q)", _POS, Status.EXACT),
                ("(O p -> O q) -> O(p -> q)", EMPTY, Status.EXACT),
            ],
            "next-shift fails everywhere, eventually-shift only on the closed left ray",
        ),
        _extension_fact(
            "r-shift/endpoint-drift",
            [
                ("<>p", _NEG, Status.EXACT),
                ("[]p", EMPTY, Status.EXTRAPOLATED),
                ("[*]p", EMPTY, Status.EXTRAPOLATED),
                ("[](p -> O p) -> (p -> []p)", REALS, None),
            ],
            "translation drains the left ray: henceforth is empty by endpoint drift",
        ),
        Fact("fig6-edges/all-verified", _fact_edges),
    ]
    deriv_ids = [
        "d-wh", "d-fs", "d-fs-plus", "d-cd-bi", "d-bi-cd", "d-yuse-1",
        "d-yuse-2", "d-cem-itl+", "d-cdm-from-cd", "d-ax-fs", "d-ax-cd",
        "d-ax-cdm", "d-ax-cem",
    ]
    facts += [_derivation_fact(e) for e in deriv_ids]
    facts += [_axiom_spot_fact(e) for e in ("r-double", "r-kinked", "r-const", "r-shift")]
    return facts


FACTS: list[Fact] = _build_facts()


def paper_suite(
    corpus: Optional[Corpus] = None, filter: Optional[str] = None
) -> list[tuple[Fact, FactResult]]:
    """Run every anchored corpus fact; optionally filter by id substring.

    A fact that cannot run, say on a corpus file that does not parse,
    raises instead of reporting a failure.
    """
    if corpus is None:
        corpus = Corpus()
    return [
        (fact, fact.run(corpus))
        for fact in FACTS
        if not filter or filter in fact.id
    ]
