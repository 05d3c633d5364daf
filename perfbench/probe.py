"""A fixed reference computation that tracks the speed of the shared box.

The probe evaluates a fixed batch of formulas with the benchmark's own
Kripke evaluator on every class-e model of at most two worlds: pure Python
work of the program's kind (tuples, frozensets, dicts, recursion) that no
change to itlmc can alter. Timed between passes, it shows how fast the
box ran at that moment.
"""

from __future__ import annotations

import random
import time

from . import formulas, oracles

REPEATS = 2


class Probe:
    def __init__(self):
        rng = random.Random(0)
        self.formulas = [formulas.random_formula(rng, 4) for _ in range(12)]
        self.models = oracles.small_models("e", 2)

    def run_once(self) -> float:
        start = time.perf_counter()
        for model in self.models:
            memo = {}
            for phi in self.formulas:
                model.extension(phi, memo)
        return time.perf_counter() - start

    def measure(self) -> float:
        """Fastest of REPEATS runs, in seconds."""
        return min(self.run_once() for _ in range(REPEATS))
