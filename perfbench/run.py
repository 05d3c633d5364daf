#!/usr/bin/env python3
"""Benchmark of the itlmc package: one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced replay (see tracing.py), and the spans go to
`.perfbench-out/trace-<workload>-seed<n>.json`. The line before it is a
record with provenance and sample counts. `--record-golden` rewrites the
golden verdict file of the workload for the default seed. Exit status 0
means a result was printed; 2 means the checkout has no itlmc sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 11
MODULES = ("formula", "parser", "poset", "realline", "hilbert", "search", "corpus", "cli")


def import_itlmc() -> SimpleNamespace:
    """Import the package afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "itlmc" or n.startswith("itlmc.")]:
        del sys.modules[name]
    package = importlib.import_module("itlmc")
    if Path(package.__file__).resolve().parent != SRC / "itlmc":
        raise ImportError(f"itlmc imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        package=package, **{m: importlib.import_module(f"itlmc.{m}") for m in MODULES}
    )


def set_up(module, name: str, seed: int, probe):
    """Import, build the tables and inputs, warm up; repeated SETUPS times.

    Each set-up's time is scaled to the reference speed by the probes taken
    before and after it, as query times are (see harness.py).
    """
    from perfbench.harness import speed
    from perfbench.workloads import load_golden

    golden = load_golden(name)
    durations, probes = [], [probe.measure()]
    for _ in range(SETUPS):
        start = time.perf_counter()
        itlmc = import_itlmc()
        workload = module.prepare(itlmc, seed, golden)
        durations.append(time.perf_counter() - start)
        probes.append(probe.measure())
    scaled = [t * speed(probes[i], probes[i + 1]) for i, t in enumerate(durations)]
    return itlmc, workload, durations, statistics.median(scaled)


def record_golden(itlmc_workload) -> Path:
    from perfbench.harness import QueryTimeout, time_limit
    from perfbench.workloads import GOLDEN_DIR

    entries = []
    for query in itlmc_workload.golden_queries:
        try:
            with time_limit(itlmc_workload.limit):
                result = query.run()
        except QueryTimeout:
            entries.append("timeout")
            continue
        entries.append(query.fingerprint(result))
    path = GOLDEN_DIR / f"{itlmc_workload.name}.json"
    path.write_text(json.dumps(entries, separators=(",", ":")) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "validate", "real", "corpus"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "itlmc" / "__init__.py").is_file():
        print(f"perfbench: no itlmc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench import harness, tracing
    from perfbench.probe import Probe
    from perfbench.workloads import DEFAULT_SEED

    module = importlib.import_module(f"perfbench.workloads.{args.workload}")
    if args.record_golden:
        itlmc = import_itlmc()
        workload = module.prepare(itlmc, DEFAULT_SEED, None)
        print(f"wrote {record_golden(workload)}")
        return 0

    probe = Probe()
    itlmc, workload, setups, setup_s = set_up(module, args.workload, args.seed, probe)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "setup_runs_s": setups,
        **harness.provenance(ROOT, args.seed),
    }
    if args.trace:
        # Untraced passes over half the time, then one more pass with spans
        # on; the overhead compares each query's time in the two.
        m = harness.measure(workload.pass_queries, args.seconds / 2, workload.limit, probe)
        rec, restore = tracing.install()
        traced = harness.Measurement(timed_out=dict(m.timed_out), probes=[probe.measure()])
        try:
            traced.run_pass(workload.pass_queries(m.passes), workload.limit, probe)
        finally:
            restore()
        keys = traced.times.keys()
        overhead = sum(traced.scaled(traced.times[k]) for k in keys) / sum(
            m.scaled(m.times[k]) for k in keys
        ) - 1
        metrics = tracing.layer_metrics(rec, overhead, m.timeouts)
        out = Path.cwd() / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json"
        rec.dump(out)
        m.attempted += traced.attempted
        m.mismatches += traced.mismatches
        m.raised += traced.raised
        m.notes += traced.notes
        record.update({
            "metrics_from": "one traced pass after untraced passes of the same deck",
            "probe_s": m.probes,
            "traced_probe_s": traced.probes,
            "traced_pass_busy_s": traced.pass_busy[0],
            "spans": len(rec.start),
            "span_file": str(out.relative_to(Path.cwd())),
        })
    else:
        m = harness.measure(workload.pass_queries, args.seconds, workload.limit, probe)
        metrics, details = harness.end_to_end(m, setup_s, workload.deck_size)
        record.update({"metrics_from": "untraced passes", **details})
    record.update({
        "attempted": m.attempted,
        "failed": m.failed,
        "mismatches": m.mismatches,
        "raised": m.raised,
        "timeouts": m.timeouts,
        "time_limit_s": workload.limit,
        "measured_wall_s": m.wall,
        "pass_busy_s": m.pass_busy,
        "peak_rss_mb": harness.peak_rss_mb(),
        "notes": m.notes[:8],
    })
    print("perfbench record: " + json.dumps(record))
    result = {
        "correct": m.mismatches == 0 and m.raised == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
