"""The benchmark's workloads and what they share.

Each workload module has `prepare(itlmc, seed, golden)` returning a
`Workload`: a seeded deck of queries, and `pass_queries(n)`, which gives
the deck for pass n in that pass's seeded order. The harness times each
`Query.run()` and then calls `Query.check()` outside the timed region.
`fingerprint()` condenses a result for the golden files recorded at the
default seed (`python3 perfbench/run.py --record-golden`); results are
compared with them in pass 0. Every deck is drawn at a fixed seed, so the
golden files hold for every run's seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

DEFAULT_SEED = 1
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


@dataclass
class Query:
    key: int  # position in the deck
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    fingerprint: Callable[[Any], Any]


@dataclass
class Workload:
    name: str
    deck_size: int
    pass_queries: Callable[[int], list]
    golden_queries: list  # the queries whose fingerprints the golden file holds
    limit: float  # per-query time limit, seconds


def pass_atoms(pass_no: int) -> tuple[str, str, str]:
    """Atom names of a pass: p, q, r first, then p<n>, q<n>, r<n>.

    Renaming keeps the sorted order of the atoms, and so the work, the
    same, while no pass repeats the formulas of an earlier one.
    """
    if pass_no == 0:
        return ("p", "q", "r")
    return tuple(f"{a}{pass_no}" for a in "pqr")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(name: str) -> Any:
    """Golden fingerprints of the workload's deck."""
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def golden_check(golden, index: int, got) -> Optional[str]:
    """Mismatch description against golden entry `index`, or None."""
    if golden is None or index >= len(golden):
        return None
    want = golden[index]
    if want == "timeout" or json.loads(json.dumps(got)) == want:
        return None
    return f"golden {want!r}, got {got!r}"
