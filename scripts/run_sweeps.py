#!/usr/bin/env python3
"""Soundness sweeps: every axiom schema of chosen logics over bounded posets.

The default configuration mirrors the acceptance run (bound 3).  Pass
--bound 4 or 5 for the heavier sweeps: the five default logics take about
0.2 s in all at bound 4 and 0.8-1.4 s at bound 5 (peak RSS 115 MiB),
process start included, on a shared 2-core Intel Xeon under Python 3.11.7.
The model tables are built once per process and shared by every schema of
every logic.

Exit status: 0 when every sweep is clean, 1 when a schema is falsified, 3
for a usage error (such as --logics with no names), an unknown logic or a
bound out of range.
"""

import argparse
import sys
import time

from itlmc import (
    BoundTooLarge, Countermodel, SOUND_STRUCTURES, SemanticClass, UnknownLogic, get_logic,
    print_poset_model, soundness_sweep,
)

DEFAULT = ["ITL.db", "ITL.dw", "CDTL.db", "CDTL.b", "CDTL+.db"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--logics", nargs="*", default=DEFAULT, metavar="NAME")
    parser.add_argument("--bound", type=int, default=3)
    parser.add_argument(
        "--semclass", choices=("e", "p"), default=None,
        help="force one class; default: e where the base logic is sound for it, else p",
    )
    parser.add_argument("--show-countermodels", action="store_true")
    try:
        args = parser.parse_args()
    except SystemExit as stop:
        # argparse exits 2 on a usage error, and 2 reads as "undetermined".
        return 3 if stop.code == 2 else stop.code
    if not args.logics:
        print("error: --logics needs at least one logic name", file=sys.stderr)
        return 3

    try:
        logics = [(name, get_logic(name)) for name in args.logics]
        classes = {kind: SemanticClass(kind, args.bound) for kind in "ep"}
    except (UnknownLogic, BoundTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    failures = 0
    for name, logic in logics:
        kind = args.semclass or ("e" if "poset-e" in SOUND_STRUCTURES[logic.base_name] else "p")
        start = time.perf_counter()
        results = soundness_sweep(logic, classes[kind])
        elapsed = time.perf_counter() - start
        bad = {k: v for k, v in results.items() if isinstance(v, Countermodel)}
        verdict = "clean" if not bad else f"{len(bad)} FAILING: {', '.join(sorted(bad))}"
        print(f"{name:10s} class {kind} bound {args.bound}: "
              f"{len(results)} schemas, {verdict} ({elapsed:.1f}s)")
        failures += len(bad)
        if bad and args.show_countermodels:
            for schema, cm in sorted(bad.items()):
                print(f"-- {schema} falsified at {cm.world}:")
                print(print_poset_model(cm.model, cm.valuation))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
