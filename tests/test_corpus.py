import shutil

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from itlmc import (
    SOUND_STRUCTURES,
    Corpus,
    Countermodel,
    Derivation,
    DynamicPoset,
    EdgeSpec,
    RealSystem,
    SemanticClass,
    UnknownEntry,
    paper_suite,
    validity,
)
from itlmc.cli import INPUT_ERRORS
from itlmc.search import OUT_OF_SCOPE_PREFIX
from conftest import kripke_extension


@pytest.fixture(scope="module")
def corpus():
    return Corpus()


def test_every_entry_loads(corpus):
    kinds = {
        "poset-model": lambda v: isinstance(v[0], DynamicPoset),
        "real-system": lambda v: isinstance(v, RealSystem),
        "derivation": lambda v: isinstance(v, Derivation),
        "edge": lambda v: all(isinstance(e, EdgeSpec) for e in v),
    }
    entries = corpus.entries()
    assert len(entries) == 21
    for entry in entries:
        value = corpus.load(entry.id)
        assert kinds[entry.kind](value), entry.id
        assert corpus.kind_of(entry.id) == entry.kind
        assert corpus.text_of(entry.id)
        assert entry.anchor


def test_unknown_entry(corpus):
    with pytest.raises(UnknownEntry):
        corpus.get("no-such-entry")
    with pytest.raises(UnknownEntry):
        corpus.load("no-such-entry")


def test_edges_shape(corpus):
    edges = corpus.edges()
    assert len(edges) == 18
    assert sum(1 for e in edges if e.style == "solid") == 8
    assert {e.style for e in edges} == {"solid", "dashed"}
    labels = {e.label for e in edges}
    assert labels == {"fs-next", "cd", "cd-minus", "cem"}


def test_search_refutes_each_edge_that_has_a_poset_witness(corpus):
    # The witness's class is sound for the edge's source, so the formula
    # has a countermodel there, and the bounded search must find one.
    edges = [e for e in corpus.edges() if not e.witness.startswith(OUT_OF_SCOPE_PREFIX)
             and corpus.kind_of(e.witness) == "poset-model"]
    assert len(edges) == 7
    for edge in edges:
        model, _ = corpus.load(edge.witness, "poset-model")
        kind = "p" if model.is_open else "e"
        assert f"poset-{kind}" in SOUND_STRUCTURES[edge.source]
        verdict = validity(edge.formula, SemanticClass(kind, 5))
        assert isinstance(verdict, Countermodel), edge
        assert verdict.model.is_continuous and (kind == "e" or verdict.model.is_open)
        assert verdict.world not in kripke_extension(verdict.model, verdict.valuation, edge.formula)


def test_derivation_entries_declare_their_logic(corpus):
    for entry in corpus.entries():
        if entry.kind == "derivation":
            assert entry.logic and entry.logic.endswith(".db")
        else:
            assert entry.logic is None


def test_env_override_and_explicit_root(tmp_path, monkeypatch, corpus):
    copy = tmp_path / "corpus"
    shutil.copytree(corpus.root, copy)
    monkeypatch.setenv("ITL_CORPUS", str(copy))
    assert Corpus().root == copy
    monkeypatch.delenv("ITL_CORPUS")
    explicit = Corpus(copy)
    assert explicit.load("fig4-fs")[0].worlds == ("w", "v", "u")
    with pytest.raises(UnknownEntry, match="index"):
        Corpus(tmp_path / "missing")


def test_paper_suite_filter(corpus):
    results = paper_suite(corpus, filter="fig4-fs")
    assert results and all("fig4" in fact.id for fact, _ in results)
    everything = paper_suite(corpus)
    assert len(everything) == 25
    assert all(result.ok for _, result in everything)


# One-character edits of a bundled file: (operation, position, character).
_EDIT = st.tuples(
    st.sampled_from(("insert", "delete", "replace")),
    st.integers(0, 4000),
    st.sampled_from("0123456789/#:;=,x*-< \n"),
)
_ENTRIES = sorted(entry.id for entry in Corpus().entries())
_SHIFT_MAP = Corpus().text_of("r-shift").index("x + 1")
_FIRST_EDGE_FIELD = Corpus().text_of("fig6-edges").index("; to=")


def _edited(text: str, edits) -> str:
    for op, at, char in edits:
        at %= len(text) + 1
        text = text[:at] + ("" if op == "delete" else char) + text[at + (op != "insert"):]
    return text


@settings(max_examples=400, deadline=None)
@example("r-shift", [("replace", _SHIFT_MAP + 2, "/"), ("replace", _SHIFT_MAP + 4, "0")])
@example("fig6-edges", [("delete", _FIRST_EDGE_FIELD, " ")])
@given(st.sampled_from(_ENTRIES), st.lists(_EDIT, min_size=1, max_size=3))
def test_edited_corpus_files_raise_only_input_errors(entry_id, edits):
    corpus = Corpus()
    text = _edited(corpus.text_of(entry_id), edits)
    corpus.text_of = lambda _: text
    try:
        corpus.load(entry_id)
    except INPUT_ERRORS:
        pass


def test_fig4_fact_asks_for_a_continuous_non_open_step(corpus):
    # The Fischer Servi schemas hold everywhere on an open model, so an open
    # model whose worlds are just v and u passes the extension checks and
    # fails here (a whole-file row of test_paper_suite_fails_each_broken_fact).
    from itlmc.corpus import _non_open_step

    fig4 = corpus.load("fig4-fs")
    assert _non_open_step(corpus, fig4) is None
    model, valuation = fig4
    opened = model.replace_step({"w": "u", "v": "v", "u": "u"})
    assert opened.is_continuous and opened.is_open
    assert _non_open_step(corpus, (opened, valuation)) == "expected a continuous, non-open step"
