"""Command line front end.

Exit codes: 0 for a positive verdict, 1 when a formula or an axiom
schema is falsified or a derivation rejected, 2 when the evaluator cannot
determine an answer within its caps, 3 for malformed input (an
`InputError`, an OS error reading an input path, or a usage error), 4 for
an internal error, and 141 when the reader of stdout goes away before the
output is written (128 + SIGPIPE, what a shell reports for a writer killed
by SIGPIPE). `main` maps exceptions to these codes in one place.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .corpus import Corpus, paper_suite
from .formula import FRAGMENTS, InputError
from .hilbert import check, get_logic
from .parser import (
    SourceSpan,
    parse_caps,
    parse_derivation,
    parse_formula,
    parse_poset_model,
    parse_real_system,
    print_extension,
    print_formula,
    print_poset_model,
    read_input,
)
from .poset import eval_formula
from .realline import REALS, eval_real
from .search import (
    SOUND_STRUCTURES,
    Countermodel,
    SemanticClass,
    Undetermined,
    ValidUpTo,
    build_separation_matrix,
    soundness_sweep,
    validity,
)

# Malformed input, and an input path that cannot be read, exit 3.
INPUT_ERRORS = (InputError, OSError)

SWEEP_LOGICS = ("ITL.db", "ITL.dw", "CDTL.db", "CDTL.b", "CDTL+.db")


def _resolve(path: str) -> Path:
    p = Path(path)
    if not p.exists() and not p.is_absolute() and path.startswith("corpus/"):
        bundled = Path(__file__).parent / path
        if bundled.exists():
            return bundled
    return p


def _emit(args, plain: str, records: list[tuple[str, str]]):
    if args.format == "records":
        for key, value in records:
            print(f"{key}={value}")
    else:
        print(plain)


def _cmd_parse(args) -> int:
    phi = parse_formula(args.formula)
    text = print_formula(phi)
    member = [code for code, frag in FRAGMENTS.items() if frag.allows(phi)]
    _emit(args, f"{text}\nfragments: {' '.join(member) or '-'}",
          [("formula", text), ("fragments", " ".join(member))])
    return 0


def _cmd_check(args) -> int:
    model, valuation = parse_poset_model(read_input(_resolve(args.model)))
    phi = parse_formula(args.formula)
    extension = eval_formula(model, valuation, phi)
    listed = print_extension(model, extension)
    failing = [w for w in model.worlds if w not in extension]
    if failing:
        _emit(
            args,
            f"extension: {listed}\nfalsified at: {failing[0]}",
            [("extension", listed), ("verdict", "falsified"), ("world", failing[0])],
        )
        return 1
    _emit(args, f"extension: {listed}\nvalid", [("extension", listed), ("verdict", "valid")])
    return 0


def _cmd_real_check(args) -> int:
    system = parse_real_system(read_input(_resolve(args.system)))
    if args.caps:
        caps = parse_caps(args.caps, SourceSpan(0, len(args.caps)), system.caps)
        system = replace(system, caps=caps)
    phi = parse_formula(args.formula)
    outcome = eval_real(system, phi)
    status = outcome.status.name.lower()
    if outcome.value is None:
        _emit(
            args,
            f"status: {status}\nundetermined",
            [("status", status), ("verdict", "undetermined")],
        )
        return 2
    verdict = "valid" if outcome.value == REALS else "not valid"
    _emit(
        args,
        f"extension: {outcome.value}\nstatus: {status}\n{verdict}",
        [("extension", str(outcome.value)), ("status", status), ("verdict", verdict)],
    )
    return 0 if verdict == "valid" else 1


def _cmd_validate(args) -> int:
    phi = parse_formula(args.formula)
    verdict = validity(phi, SemanticClass(args.semclass, args.bound))
    if isinstance(verdict, ValidUpTo):
        _emit(args, f"valid in class {args.semclass} up to {verdict.bound} worlds",
              [("verdict", "valid"), ("bound", str(verdict.bound))])
        return 0
    if isinstance(verdict, Countermodel):
        rendered = print_poset_model(verdict.model, verdict.valuation)
        _emit(args, f"countermodel:\n{rendered}\nfalsified at: {verdict.world}",
              [("verdict", "falsified"), ("world", verdict.world), ("model", repr(rendered))])
        return 1
    assert isinstance(verdict, Undetermined)
    _emit(args, f"undetermined: {verdict.reason}", [("verdict", "undetermined")])
    return 2


def _cmd_prove(args) -> int:
    logic = get_logic(args.logic)
    derivation = parse_derivation(read_input(_resolve(args.path)))
    result = check(derivation, logic)
    if result.ok:
        theorem = print_formula(derivation.theorem)
        _emit(args, f"accepted ({result.line_count} lines)\ntheorem: {theorem}",
              [("verdict", "accepted"), ("lines", str(result.line_count)), ("theorem", theorem)])
        return 0
    _emit(args, f"rejected at line {result.failed_line}: {result.reason}",
          [("verdict", "rejected"), ("line", str(result.failed_line)), ("reason", result.reason)])
    return 1


def _write_rows(args, rows, noun: str) -> int:
    """Print (ok, plain line, records) rows, then a plain summary; 1 if any is not ok."""
    passed = total = 0
    for ok, plain, records in rows:
        passed, total = passed + ok, total + 1
        print("; ".join(f"{k}={v}" for k, v in records) if args.format == "records" else plain)
    if args.format != "records":
        print(f"{passed}/{total} {noun}")
    return 0 if passed == total else 1


def _cmd_paper_suite(args) -> int:
    corpus = Corpus(args.corpus)
    results = paper_suite(corpus, args.filter)
    if not results:
        print(f"no facts match {args.filter!r}", file=sys.stderr)
        return 3
    return _write_rows(args, (
        (r.ok, f"{'PASS' if r.ok else 'FAIL'} {fact.id}: {r.detail}",
         [("fact", fact.id), ("ok", str(r.ok).lower()), ("detail", r.detail)])
        for fact, r in results
    ), "facts hold")


def _cmd_separate(args) -> int:
    reports = build_separation_matrix(Corpus(args.corpus))
    return _write_rows(args, (
        (r.ok, f"{'OK' if r.ok else 'FAIL'} {e.source} -> {e.target} [{e.style}, {e.label}]: "
               f"{r.detail}",
         [("from", e.source), ("to", e.target), ("style", e.style), ("label", e.label),
          ("ok", str(r.ok).lower()), ("detail", r.detail)])
        for r in reports for e in (r.edge,)
    ), "edges verified")


def _cmd_sweep(args) -> int:
    logics = [(name, get_logic(name)) for name in args.logics or SWEEP_LOGICS]
    classes = {kind: SemanticClass(kind, args.bound) for kind in "ep"}
    failures = 0
    for name, logic in logics:
        kind = args.semclass or ("e" if "poset-e" in SOUND_STRUCTURES[logic.base_name] else "p")
        start = time.perf_counter()
        results = soundness_sweep(logic, classes[kind])
        elapsed = time.perf_counter() - start
        bad = sorted(k for k, v in results.items() if isinstance(v, Countermodel))
        failures += len(bad)
        if args.format == "records":
            print(
                f"logic={name}; class={kind}; bound={args.bound}; schemas={len(results)}; "
                f"falsified={len(bad)}; seconds={elapsed:.3f}"
            )
        else:
            verdict = f"{len(bad)} FAILING: {', '.join(bad)}" if bad else "clean"
            print(f"{name:10s} class {kind} bound {args.bound}: "
                  f"{len(results)} schemas, {verdict} ({elapsed:.1f}s)")
        for schema in bad:
            cm = results[schema]
            rendered = print_poset_model(cm.model, cm.valuation)
            if args.format == "records":
                print(f"schema={schema}; world={cm.world}; model={rendered!r}")
            else:
                print(f"-- {schema} falsified at {cm.world}:\n{rendered}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itlmc",
        description="Model checking and derivation checking for intuitionistic temporal logics.",
    )
    parser.add_argument(
        "--format", choices=("plain", "records"), default="plain",
        help="output style: human-readable or key=value records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="normalize a formula and show its fragments")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("check", help="evaluate a formula on a dynamic poset model")
    p.add_argument("--model", required=True)
    p.add_argument("formula")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("real-check", help="evaluate a formula on a real-line system")
    p.add_argument("--system", required=True)
    p.add_argument("--caps", help="override budgets, e.g. iter=32,restart=4")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_real_check)

    p = sub.add_parser("validate", help="search bounded posets for a countermodel")
    p.add_argument(
        "--class", dest="semclass", choices=("e", "p"), required=True,
        help="e: continuous steps; p: continuous open steps",
    )
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("formula")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("prove", help="check a Hilbert-style derivation file")
    p.add_argument("--logic", required=True)
    p.add_argument("path")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("paper-suite", help="re-verify the anchored corpus facts")
    p.add_argument("--filter", help="only run facts whose id mentions this string")
    p.add_argument("--corpus", help="corpus directory (default: bundled)")
    p.set_defaults(func=_cmd_paper_suite)

    p = sub.add_parser("separate", help="verify the logic-separation edge certificates")
    p.add_argument("--corpus", help="corpus directory (default: bundled)")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("sweep", help="check every axiom schema of logics over bounded posets")
    p.add_argument(
        "--class", dest="semclass", choices=("e", "p"),
        help="force one class; default: e where the base logic is sound for it, else p",
    )
    p.add_argument("--bound", type=int, default=3)
    p.add_argument(
        "logics", nargs="*", metavar="LOGIC", help=f"default: {' '.join(SWEEP_LOGICS)}"
    )
    p.set_defaults(func=_cmd_sweep)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a usage error, and 2 reads as "undetermined".
        return 3 if stop.code == 2 else stop.code
    try:
        code = args.func(args)
        sys.stdout.flush()  # meet a closed stdout here, not at exit
        return code
    except BrokenPipeError:
        # What is still buffered goes to the null device, so that the flush
        # at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        # A crash must not exit 1, which reads as "falsified".
        detail = " ".join(str(err).split())
        print(f"internal error: {type(err).__name__}: {detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
