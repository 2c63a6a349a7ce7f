"""Mutation checks for ``src/txsched/schedulers.py``, kept and re-run.

    python tests/mutants.py [--timeout SECONDS] [NAME ...]

Each entry of ``MUTANTS`` names a file under ``src/``, the exact text a
mutant replaces (it must occur once in that file, which
``tests/test_mutants.py`` checks in tier-1), its replacement, and the ids
of the tests expected to fail on it. The script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, runs every
listed test there once unmutated (they must pass), then applies each
mutant in turn and runs only its tests. A mutant is killed when its tests
fail or when they are still running after the timeout (a mutant that
makes a draw loop forever hangs rather than fails). The script exits 1 if
any mutant survives or a baseline test fails. It uses the standard
library and pytest only; run it from anywhere in the checkout.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
FAST = "tests/test_fast_reference.py::"
SCHED = "tests/test_schedulers.py::"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]


def _schedulers(name: str, old: str, new: str, *tests: str) -> Mutant:
    return Mutant(name, "txsched/schedulers.py", old, new, tests)


MUTANTS = (
    # the sorted coverage and its merge walk
    _schedulers(
        "coverage-offsets-misaligned",
        "offsets = list(accumulate(self.moments, initial=0))",
        "offsets = list(accumulate(self.moments))",
        FAST + "test_tsgs_equals_reference",
    ),
    _schedulers(
        "walk-never-bisects",
        "                i = bisect_right(points, e, i + 1)\n        score = ",
        "                i += 1\n        score = ",
        FAST + "test_tsgs_large_grids_equal_reference",
    ),
    _schedulers(
        "candidates-no-upper-neighbour",
        "candidates = {0, last, *below, *[x + step for x in below]}",
        "candidates = {0, last, *below}",
        FAST + "test_tsgs_large_grids_equal_reference",
    ),
    _schedulers(
        "candidates-rises-swapped",
        "x if change < 0 else x - duration",
        "x if change > 0 else x - duration",
        FAST + "test_tsgs_large_grids_equal_reference",
    ),
    _schedulers(
        "tsgs-coverage-built-empty",
        "coverage = _Coverage(placed)",
        "coverage = _Coverage()",
        FAST + "test_tsgs_equals_reference",
    ),
    _schedulers(
        "exhaustive-coverage-kept-on-backtrack",
        "                    coverage.remove(*spans[-1])\n",
        "                    pass\n",
        FAST + "test_deep_exhaustive_equals_reference",
    ),
    _schedulers(
        "exhaustive-per-choice-misses-level-above",
        "if level < pen - 1 or pair is None:  # else tables score what is left",
        "if level < pen - 1:  # else tables score what is left",
        FAST + "test_exhaustive_switch_point_equals_reference[3-per choice]",
    ),
    # the bound on a penultimate choice
    _schedulers(
        "bound-keeps-ties",
        "if floor + score + low >= best_cost:",
        "if floor + score + low > best_cost:",
        FAST + "test_saturated_bound_cuts_last_level_scans",
    ),
    _schedulers(
        "bound-reads-one-end",
        "min(pair[offset], pair[offset + width])",
        "pair[offset + width]",
        FAST + "test_exhaustive_equals_reference",
        FAST + "test_saturated_exhaustive_equals_reference",
    ),
    # the offset tables of the last two levels
    _schedulers(
        "trapezoid-rises-early",
        "rise = clip(-other_duration // step + 1)",
        "rise = clip(-other_duration // step)",
        FAST + "test_trapezoid_equals_the_overlap_at_every_offset",
    ),
    _schedulers(
        "trapezoid-plateau-short",
        "table += repeat(plateau, fall - flat)",
        "table += repeat(plateau, fall - flat - 1)",
        FAST + "test_trapezoid_equals_the_overlap_at_every_offset",
    ),
    _schedulers(
        "pushed-slice-offset",
        "offset = len(grids[level]) - 1 - k",
        "offset = len(grids[level]) - k",
        FAST + "test_deep_exhaustive_equals_reference",
    ),
    _schedulers(
        "pen-rows-kept-on-backtrack",
        "                pen_rows.pop()\n",
        "",
        FAST + "test_deep_exhaustive_equals_reference",
    ),
    _schedulers(
        "last-rows-kept-on-backtrack",
        "                    last_rows.pop()\n",
        "                    pass\n",
        FAST + "test_deep_exhaustive_equals_reference",
    ),
    # the random baseline's draw from the word stream
    _schedulers(
        "draw-shift-one-more",
        "r = words[j] >> (32 * m - k)",
        "r = words[j] >> (32 * m - k + 1)",
        SCHED + "TestRandomDrawMemo::test_shared_memo_draws_what_a_fresh_generator_draws",
    ),
    _schedulers(
        "draw-accepts-n",
        "            if r < n:\n",
        "            if r <= n:\n",
        SCHED + "TestRandomDrawMemo::test_shared_memo_draws_what_a_fresh_generator_draws",
    ),
    _schedulers(
        "draw-rereads-rejected-words",
        "            i += m\n            if r < n:\n                break\n",
        "            if r < n:\n                i += m\n                break\n",
        SCHED + "TestRandomDrawMemo::test_shared_memo_draws_what_a_fresh_generator_draws",
    ),
    _schedulers(
        "draw-words-most-significant-first",
        "r = r << 32 | words[j]",
        "r = r << 32 | words[2 * i + m - 1 - j]",
        SCHED + "TestRandomDrawMemo::test_shared_memo_draws_what_a_fresh_generator_draws",
    ),
)


def _pytest(workdir: Path, tests, timeout: float) -> str:
    """Run the tests in workdir: "passed", "failed" or "timed out"."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    try:
        done = subprocess.run(
            command, cwd=workdir, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    if done.returncode not in (0, 1):  # 1: tests failed; else usage or collection
        raise SystemExit(f"pytest exited {done.returncode} for {' '.join(tests)}")
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds before a mutant's tests count as hung")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory(prefix="txsched-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        found = subprocess.run(
            [sys.executable, "-c", "import txsched; print(txsched.__file__)"],
            cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(found).is_relative_to(work):
            raise SystemExit(f"the copy imports txsched from {found}")
        baseline = sorted({test for m in chosen for test in m.tests})
        if _pytest(work, baseline, args.timeout) != "passed":
            print("baseline: the listed tests do not pass unmutated")
            return 1
        survivors = []
        for mutant in chosen:
            path = work / "src" / mutant.file
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: its text does not occur once")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            started = time.perf_counter()
            try:
                outcome = _pytest(work, mutant.tests, args.timeout)
            finally:
                path.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - started
            killed = outcome != "passed"
            print(f"{'killed' if killed else 'SURVIVED':8} {mutant.name} "
                  f"({outcome}, {seconds:.1f} s)", flush=True)
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
