"""Mutation checks: each fast path's oracle must catch a wrong answer.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
    python tests/mutants.py --list

Each mutant names a file of the repository, an exact text that occurs in it
once, the text that replaces it, and the tests that must catch the change.
The script copies ``src/`` and ``tests/`` to a temporary directory, checks
that the named tests pass there, then applies one mutant at a time to a
fresh copy and runs its tests with ``pytest -x``. A mutant whose tests all
pass has survived. It prints one line per mutant and exits 1 if any mutant
survived or could not be applied. Pytest does not collect this file: its
name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


LONGEST_ORBITS = "tests/test_poset.py::test_chains_close_within_n_minus_1_rounds_on_the_longest_orbits"
MIXED_LANES = "tests/test_search.py::test_mixed_lane_batch_rows_match_each_chunk_alone_and_kripke_extension"

MUTANTS = (
    Mutant(
        "chains capped at n - 2 rounds", "src/itlmc/poset.py",
        "for _ in range(len(moves) - 1):", "for _ in range(len(moves) - 2):",
        (LONGEST_ORBITS,),
    ),
    Mutant(
        "-> skips the masked up-pairs", "src/itlmc/poset.py",
        "for j, off in masked:", "for j, off in ():",
        (LONGEST_ORBITS, MIXED_LANES),
    ),
    Mutant(
        # The frame keeps each world's moves together; every move of a world
        # here takes the lanes of its first move, as a wrong rank would.
        "a move's lanes taken from another move", "src/itlmc/poset.py",
        "x |= rows[j] & mask", "x |= rows[j] & targets[0][1]",
        ("tests/test_search.py::test_sliced_rows_match_kripke_extension", MIXED_LANES),
    ),
    Mutant(
        "an order without masked pairs read as discrete", "src/itlmc/poset.py",
        "discrete = all(up == (i,) for i, up in enumerate(plain)) and not any(masked)",
        "discrete = not any(masked)",
        ("tests/test_poset.py::test_connectives_on_fig4", LONGEST_ORBITS),
    ),
    Mutant(
        "the walk pushes children in the wrong order", "src/itlmc/formula.py",
        "todo += ((f, True), (f.right, False), (f.left, False))",
        "todo += ((f, True), (f.left, False), (f.right, False))",
        ("tests/test_formula.py::test_compiled_program_follows_subformulas",),
    ),
    Mutant(
        "text pieces pushed unreversed", "src/itlmc/formula.py",
        "todo += reversed(parts(part))", "todo += parts(part)",
        ("tests/test_formula.py::test_repr_matches_the_recursive_reference",
         "tests/test_parser.py::test_printing_holds_memory_in_proportion_to_the_text"),
    ),
    Mutant(
        "a schema line of the table changed", "src/itlmc/hilbert.py",
        "cd             [](phi | psi) -> []phi | <>psi",
        "cd             [](phi | psi) -> []phi | <>phi",
        ("tests/test_soundness.py::test_derived_theorems_hold_where_the_logic_is_sound[CDTL.db]",
         "tests/test_hilbert.py::test_registry_is_the_one_recorded"),
    ),
    Mutant(
        "chain limits kept without their caps", "src/itlmc/realline.py",
        "return pwmap._limits.get(key) or pwmap._limits.setdefault(key,",
        "return pwmap._limits.get(target) or pwmap._limits.setdefault(target,",
        ("tests/test_realline.py::test_subformula_memo_is_kept_per_system",
         "tests/test_realline.py::test_zero_window_gives_undetermined"),
    ),
    Mutant(
        # Only the test that runs the command under a memory limit is named:
        # without the cap, a scan in this process would build 2^30-lane rows.
        "the lane cap off", "src/itlmc/search.py",
        "MAX_LANE_BITS = 24", "MAX_LANE_BITS = 99",
        ("tests/test_cli.py::test_validate_past_the_lane_cap_exits_2_with_the_reason",),
    ),
    Mutant(
        "sweep verdicts keyed without the class", "src/itlmc/search.py",
        "key = phi, semclass", "key = phi",
        ("tests/test_search.py::test_a_shared_verdict_dict_keeps_each_class_apart",),
    ),
)


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for folder in ("src", "tests"):
        shutil.copytree(ROOT / folder, into / folder, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into)


def _run(copy: Path, tests) -> int:
    """Pytest's exit code for the tests on the copy: 0 all passed, 1 some failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def check(mutant: Mutant) -> str:
    """'killed', 'SURVIVED', or why the mutant could not be run."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy(copy)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"STALE: the old text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        code = _run(copy, mutant.tests)
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR: pytest exited {code}")


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.name}: {mutant.path}")
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        tests = sorted({t for m in chosen for t in m.tests})
        if _run(Path(tmp), tests):
            print("the named tests do not all pass on the unmutated code", file=sys.stderr)
            return 1
    results = [(mutant, check(mutant)) for mutant in chosen]
    for mutant, result in results:
        print(f"{result}: {mutant.name} ({mutant.path})")
    killed = sum(result == "killed" for _, result in results)
    print(f"{killed}/{len(results)} mutants killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
