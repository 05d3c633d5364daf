"""Timing loop, per-query time limits, statistics and the result record.

A workload is a seeded deck of queries. A run goes over the deck in whole
passes, each pass in a fresh seeded order, until the next pass would end
after the deadline (the first pass always runs). A query that hits its
time limit is not run again in later passes, and the time it took does not
count against the run's clock.

The box is shared, and its speed drifts with its neighbours' load: the
probe (probe.py) takes from 7 to 15 ms, staying fast or slow for seconds to
minutes. The probe is timed before the first query, after each
PROBE_EVERY_S of query time and at the end of each pass; the queries
between two probes form a segment. Each time is scaled to the box's
reference speed: multiplied by REFERENCE_PROBE_S over the mean of the two
probes around its segment. Over 1.5 s windows the workloads' own slowdown
follows the probe's in proportion (1.1-1.2 times their fastest runs at a
7.5 ms probe, 2.0-2.2 times at 14 ms), so the scaled time does not depend
on how a run's time fell between fast and slow stretches. A query's time
is the median of its scaled times over the run's passes. The record keeps
the figures taken from raw times, and the probe times.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

TAIL_BEYOND = 10
TIMEOUT_ALLOWANCE_S = 60.0
REFERENCE_PROBE_S = 0.0076  # the probe's time when the 2-vCPU box runs fast
PROBE_EVERY_S = 0.25


class QueryTimeout(BaseException):
    """Raised inside a query when its time limit passes.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it.
    """


def _alarm(signum, frame):
    raise QueryTimeout()


@contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def speed(probe_before: float, probe_after: float) -> float:
    """Factor that scales a time between two probes to the reference speed."""
    return 2 * REFERENCE_PROBE_S / (probe_before + probe_after)


@dataclass
class Check:
    """A verdict judged against the reference: `ok` false is a mismatch."""

    ok: bool
    decided: bool = True
    note: str = ""


@dataclass
class Measurement:
    times: dict = field(default_factory=dict)  # deck key -> [(segment, seconds)]
    decided: dict = field(default_factory=dict)  # deck key -> determinate verdict
    timed_out: dict = field(default_factory=dict)  # deck key -> (segment, seconds)
    probes: list = field(default_factory=list)  # segment i lies between probes i, i+1
    attempted: int = 0
    mismatches: int = 0
    raised: int = 0
    passes: int = 0
    pass_busy: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    wall: float = 0.0

    def scaled(self, samples) -> float:
        """A query's time from its (segment, seconds) samples; see above."""
        probes = self.probes
        return median(
            seconds * speed(probes[segment], probes[segment + 1]) for segment, seconds in samples
        )

    @property
    def timeouts(self) -> int:
        return len(self.timed_out)

    @property
    def failed(self) -> int:
        """Verdicts that differ from the reference, and queries that raised.

        A time-limit hit is an undecided verdict, not a failure: the query
        did not answer, as an Undetermined one does not.
        """
        return self.mismatches + self.raised

    def note(self, text: str):
        if len(self.notes) < 8:
            self.notes.append(text)

    def run_pass(self, queries, limit: float, probe) -> float:
        """Run one pass; returns the seconds spent in time-limit hits."""
        busy = lost = since_probe = 0.0
        for query in queries:
            if query.key in self.timed_out:
                continue
            if since_probe >= PROBE_EVERY_S:
                self.probes.append(probe.measure())
                since_probe = 0.0
            segment = len(self.probes) - 1
            self.attempted += 1
            start = time.perf_counter()
            try:
                with time_limit(limit):
                    result = query.run()
            except QueryTimeout:
                elapsed = time.perf_counter() - start
                self.timed_out[query.key] = (segment, elapsed)
                self.decided[query.key] = False
                lost += elapsed
                self.note(f"time limit: {query.label}")
                continue
            except Exception as err:  # a crash is a failed query, not a stop
                elapsed = time.perf_counter() - start
                self.raised += 1
                self.decided[query.key] = False
                self.note(f"raised {type(err).__name__}: {err} ({query.label})")
            else:
                elapsed = time.perf_counter() - start
                check = query.check(result)
                self.decided[query.key] = check.decided
                if not check.ok:
                    self.mismatches += 1
                    self.note(f"mismatch: {query.label}: {check.note}")
            self.times.setdefault(query.key, []).append((segment, elapsed))
            busy += elapsed
            since_probe += elapsed
        self.probes.append(probe.measure())
        self.passes += 1
        self.pass_busy.append(busy)
        return lost


def measure(pass_queries, seconds: float, limit: float, probe) -> Measurement:
    """Whole passes for `seconds` of clock, not counting time-limit hits."""
    m = Measurement(probes=[probe.measure()])
    start = time.perf_counter()
    deadline = start + seconds
    allowance = TIMEOUT_ALLOWANCE_S
    while True:
        now = time.perf_counter()
        if m.passes and now + (now - start) / m.passes > deadline:
            break
        lost = m.run_pass(pass_queries(m.passes), limit, probe)
        extension = min(lost, allowance)
        allowance -= extension
        deadline += extension
    m.wall = time.perf_counter() - start
    return m


def percentile(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(deck_size: int) -> float:
    """The highest percentile with TAIL_BEYOND deck queries beyond it."""
    return 100 * max(deck_size - TAIL_BEYOND, 1) / deck_size


def end_to_end(m: Measurement, setup_s: float, deck_size: int) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and the record's details.

    `setup_s` comes scaled to the reference speed. The second set of
    figures, for the record, takes raw times.
    """
    tail_pct = tail_percentile(deck_size)
    figures = {}
    for scale in (True, False):
        if scale:
            best = {key: m.scaled(samples) for key, samples in m.times.items()}
            hits = [m.scaled([sample]) for sample in m.timed_out.values()]
        else:
            best = {key: median(t for _, t in samples) for key, samples in m.times.items()}
            hits = [t for _, t in m.timed_out.values()]
        per_key = list(best.values()) + hits
        p50, beyond_p50 = percentile(per_key, 50)
        tail, beyond_tail = percentile(per_key, tail_pct)
        figures[scale] = {
            "queries_per_s": (len(best) / sum(best.values()), "1/s"),
            "latency_p50_ms": (p50 * 1e3, "ms"),
            "latency_tail_ms": (tail * 1e3, "ms"),
        }
    metrics = {
        "setup_s": (setup_s, "s"),
        **figures[True],
        "decided_share": (sum(m.decided.values()) / len(m.decided), "share"),
    }
    details = {
        "unscaled": {k: v for k, (v, _) in figures[False].items()},
        "probe_s": m.probes,
        "deck_queries": len(per_key),
        "passes": m.passes,
        "executions": m.attempted,
        "p50_beyond": beyond_p50,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond_tail,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(root),
    }
