"""Span recording around the program's layers, for the traced run only.

`install` wraps public functions and methods of each itlmc layer: it
rebinds every name under which an itlmc module holds the function (so
`from .poset import eval_masks` in `search` is covered) and patches the
methods on their classes. No file of the program changes. Each call
becomes a span (name, start, end, parent) kept in flat arrays; counters are
taken at the same boundaries. Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute) for functions; (span name, module, class,
# method) for methods.
FUNCTIONS = (
    ("search.validity", "itlmc.search", "validity"),
    ("search.soundness_sweep", "itlmc.search", "soundness_sweep"),
    ("search.build_separation_matrix", "itlmc.search", "build_separation_matrix"),
    ("poset.eval_masks", "itlmc.poset", "eval_masks"),
    ("poset.eval_formula", "itlmc.poset", "eval_formula"),
    ("formula.subformulas", "itlmc.formula", "subformulas"),
    ("formula.atoms", "itlmc.formula", "atoms"),
    ("formula.translate_weak", "itlmc.formula", "translate_weak"),
    ("parser.parse_formula", "itlmc.parser", "parse_formula"),
    ("parser.parse_derivation", "itlmc.parser", "parse_derivation"),
    ("parser.parse_poset_model", "itlmc.parser", "parse_poset_model"),
    ("parser.parse_real_system", "itlmc.parser", "parse_real_system"),
    ("realline.eval_real", "itlmc.realline", "eval_real"),
    ("hilbert.check", "itlmc.hilbert", "check"),
    ("hilbert.is_ipc_tautology", "itlmc.hilbert", "is_ipc_tautology"),
    ("corpus.paper_suite", "itlmc.corpus", "paper_suite"),
    ("cli.main", "itlmc.cli", "main"),
)
METHODS = (
    ("formula.allows", "itlmc.formula", "LanguageFragment", "allows"),
    ("realline.preimage", "itlmc.realline", "PiecewiseAffineMap", "preimage"),
    ("realline.union", "itlmc.realline", "IntervalSet", "union"),
    ("realline.intersection", "itlmc.realline", "IntervalSet", "intersection"),
    ("realline.complement", "itlmc.realline", "IntervalSet", "complement"),
    ("realline.interior", "itlmc.realline", "IntervalSet", "interior"),
    ("corpus.init", "itlmc.corpus", "Corpus", "__init__"),
    ("corpus.load", "itlmc.corpus", "Corpus", "load"),
)
SETOPS = ("realline.union", "realline.intersection", "realline.complement", "realline.interior")
DUMP_LIMIT = 50_000


class Recorder:
    """Spans in flat arrays, an open-span stack and named counters."""

    def __init__(self, names):
        self.names = list(names)
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.semclass_kind = "e"

    def add(self, name_id: int, start: float, end: float, parent: int) -> int:
        """Append a closed span; `wrap` inlines the same appends."""
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self.names.index(name)
        name_id, parent, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack,
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def in_layer(self, prefix: str) -> bool:
        return bool(self.stack) and self.names[self.name_id[self.stack[-1]]].startswith(prefix)

    def dump(self, path: Path, limit: int = DUMP_LIMIT):
        n = len(self.start)
        spans = [
            [self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]]
            for i in range(min(n, limit))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "spans": spans,
            "spans_total": n,
            "spans_omitted": max(0, n - limit),
            "counters": dict(self.counters),
        }))


def span_times(rec: Recorder) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    n = len(rec.start)
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += rec.end[i] - rec.start[i]
    out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in rec.names}
    for i in range(n):
        entry = out[rec.names[rec.name_id[i]]]
        duration = rec.end[i] - rec.start[i]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - child[i]
    return out


def install() -> tuple[Recorder, callable]:
    """Wrap every layer boundary; returns the recorder and an undo function."""
    names = [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]
    rec = Recorder(names)
    counters = rec.counters
    undo = []

    def count_components(result):
        size = len(result.components)
        if size > counters["realline.max_components"]:
            counters["realline.max_components"] = size

    def count_statuses(outcome):
        for value in outcome.table.values():
            counters["realline.subformula_" + value.status.value.lower()] += 1

    def count_chars(args):
        if not rec.in_layer("parser."):
            counters["parser.chars"] += len(args[0])

    def count_lines(args):
        counters["hilbert.lines_checked"] += len(args[0].lines)

    def count_load(args):
        if args[1] not in args[0]._cache:
            counters["corpus.loads"] += 1

    def note_class(args):
        rec.semclass_kind = args[1].kind

    hooks = {
        "search.validity": (note_class, None),
        "realline.eval_real": (None, count_statuses),
        "realline.preimage": (None, count_components),
        "hilbert.check": (count_lines, None),
        "corpus.load": (count_load, None),
    }
    for name in SETOPS:
        hooks[name] = (None, count_components)
    for name in ("parser.parse_formula", "parser.parse_derivation",
                 "parser.parse_poset_model", "parser.parse_real_system"):
        hooks[name] = (count_chars, None)

    modules = [m for key, m in sys.modules.items() if key == "itlmc" or key.startswith("itlmc.")]
    for name, module, attr in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        wrapper = rec.wrap(name, original, *hooks.get(name, (None, None)))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    for name, module, cls_name, method in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, rec.wrap(name, original, *hooks.get(name, (None, None))))
        undo.append((cls, method, original))

    poset_cls = sys.modules["itlmc.poset"].DynamicPoset
    replace_step = poset_cls.__dict__["replace_step"]

    def counted_replace_step(self, step):
        model = replace_step(self, step)
        counters["search.steps_built"] += 1
        if model.is_continuous and (rec.semclass_kind != "p" or model.is_open):
            counters["search.steps_kept"] += 1
        return model

    poset_cls.replace_step = counted_replace_step
    undo.append((poset_cls, "replace_step", replace_step))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return rec, restore


def layer_metrics(rec: Recorder, overhead_share: float, timeouts: int) -> dict:
    """Every per-layer metric, from the recorded spans and counters."""
    times = span_times(rec)
    c = rec.counters

    def layer(prefix, field):
        return sum(v[field] for k, v in times.items() if k.startswith(prefix))

    def children_of(child_name, parent_name):
        cid, pid = rec.names.index(child_name), rec.names.index(parent_name)
        total, calls = 0.0, 0
        for i in range(len(rec.start)):
            p = rec.parent[i]
            if rec.name_id[i] == cid and p >= 0 and rec.name_id[p] == pid:
                calls += 1
                total += rec.end[i] - rec.start[i]
        return calls, total

    def top_level_parser_time():
        total = 0.0
        for i in range(len(rec.start)):
            if rec.names[rec.name_id[i]].startswith("parser."):
                p = rec.parent[i]
                if p < 0 or not rec.names[rec.name_id[p]].startswith("parser."):
                    total += rec.end[i] - rec.start[i]
        return total

    def ratio(a, b):
        return a / b if b else 0.0

    queries = times["search.validity"]["calls"]
    masks = times["poset.eval_masks"]
    models_in_search, _ = children_of("poset.eval_masks", "search.validity")
    confirms, _ = children_of("poset.eval_formula", "search.validity")
    setop_calls = sum(times[n]["calls"] for n in SETOPS)
    setop_s = sum(times[n]["self"] for n in SETOPS)
    values = {
        "search.queries": (queries, "count"),
        "search.self_s": (layer("search.", "self"), "s"),
        "search.steps_built": (c["search.steps_built"], "count"),
        "search.step_keep_ratio": (ratio(c["search.steps_kept"], c["search.steps_built"]), "ratio"),
        "search.models_per_query": (ratio(models_in_search, queries), "count"),
        "poset.models_evaluated": (masks["calls"], "count"),
        "poset.self_s": (layer("poset.", "self"), "s"),
        "poset.us_per_model": (ratio(masks["total"], masks["calls"]) * 1e6, "us"),
        "poset.confirm_calls": (confirms, "count"),
        "formula.calls": (layer("formula.", "calls"), "count"),
        "formula.self_s": (layer("formula.", "self"), "s"),
        "parser.calls": (layer("parser.", "calls"), "count"),
        "parser.self_s": (layer("parser.", "self"), "s"),
        "parser.chars_per_s": (ratio(c["parser.chars"], top_level_parser_time()), "1/s"),
        "realline.queries": (times["realline.eval_real"]["calls"], "count"),
        "realline.self_s": (layer("realline.", "self"), "s"),
        "realline.preimage_calls": (times["realline.preimage"]["calls"], "count"),
        "realline.preimage_s": (times["realline.preimage"]["self"], "s"),
        "realline.setop_calls": (setop_calls, "count"),
        "realline.setop_s": (setop_s, "s"),
        "realline.max_components": (c["realline.max_components"], "count"),
        "realline.timeouts": (timeouts, "count"),
        "realline.subformula_exact": (c["realline.subformula_exact"], "count"),
        "realline.subformula_extrapolated": (c["realline.subformula_extrapolated"], "count"),
        "realline.subformula_undetermined": (c["realline.subformula_undetermined"], "count"),
        "hilbert.checks": (times["hilbert.check"]["calls"], "count"),
        "hilbert.lines_checked": (c["hilbert.lines_checked"], "count"),
        "hilbert.self_s": (layer("hilbert.", "self"), "s"),
        "hilbert.ipc_calls": (times["hilbert.is_ipc_tautology"]["calls"], "count"),
        "hilbert.ipc_s": (times["hilbert.is_ipc_tautology"]["total"], "s"),
        "corpus.loads": (c["corpus.loads"], "count"),
        "corpus.self_s": (layer("corpus.", "self"), "s"),
        "cli.calls": (times["cli.main"]["calls"], "count"),
        "cli.self_s": (layer("cli.", "self"), "s"),
        "trace.overhead_share": (overhead_share, "share"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
