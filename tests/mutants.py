"""Recorded mutants of the kernel, kept as a check that the tests still kill them.

Run it as ``python tests/mutants.py``; it finds the tree from its own path.
Each entry names a mutant, the file it changes, the exact old text (found
there exactly once), the new text, and the test ids that must fail on it. For
each entry the script copies ``src``, ``tests`` and ``pyproject.toml`` to a
temporary directory, makes the one replacement and runs the named tests there
with pytest. It first runs every named test on an unchanged copy, where all
must pass. It exits non-zero if an old text is not found exactly once, if a
named test fails on the unchanged copy or is not collected, or if a mutant
survives one of its tests. A named test that is parametrized, or a Hypothesis
property, counts as failed when any of its cases fails.

pytest does not collect this file: its name does not start with ``test_``.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = "src/bivar/kernel.py"

A_SMALL_GRID = "tests/test_kernel.py::TestAgainstLiteralEvaluation::test_a_small_grid"
A_WIDE = "tests/test_kernel.py::TestAgainstLiteralEvaluation::test_a_wide_digits"
A_NEGATIVE = "tests/test_kernel.py::test_type_a_negative_coordinates_shift"
BCD_GRID = "tests/test_kernel.py::TestAgainstLiteralEvaluation::test_bcd_small_grid"
BCD_FOLD = "tests/test_kernel.py::test_fold_matches_brute_force_cold_and_warm"
ENTRY_POINTS = "tests/test_kernel.py::test_entry_points_match_level_count_sums"
SLOTS = "tests/test_kernel.py::test_product_slots_match_overlap_buckets"
DIGEST = "tests/test_multiplicity.py::test_entry_point_digest"
VIRTUAL_RING = "tests/test_multiplicity.py::TestBivariate::test_virtual_ring_identity"
HIGH_RANK = "tests/test_multiplicity.py::test_single_weight_matches_diagram_at_high_rank"
WALK = "tests/test_weight_tables.py::TestBuildTable::test_walk_matches_candidate_evaluation"
WALK_DIGEST = "tests/test_weight_tables.py::test_dominant_rows_digest"

# (name, file, old text, new text, test ids that must fail)
MUTANTS = [
    ("A's virtual root left at 1", KERNEL,
     "    roots = (1, (1 - (1 << bits)) & mask)\n",
     "    roots = (1, 1)\n",
     [A_SMALL_GRID, A_WIDE, A_NEGATIVE, ENTRY_POINTS, DIGEST, WALK_DIGEST]),
    ("A's virtual root set to 1 + y", KERNEL,
     "    roots = (1, (1 - (1 << bits)) & mask)\n",
     "    roots = (1, (1 + (1 << bits)) & mask)\n",
     [A_SMALL_GRID, A_WIDE, A_NEGATIVE, ENTRY_POINTS, DIGEST, WALK_DIGEST]),
    ("A's reader at digit l - 1", KERNEL,
     "        return (packed >> l * bits,)\n",
     "        return (packed >> max(l - 1, 0) * bits & (1 << bits) - 1,)\n",
     [A_SMALL_GRID, A_WIDE, A_NEGATIVE, DIGEST, WALK_DIGEST]),
    ("the B/C/D virtual sum read from the tensor root", KERNEL,
     "    for c in reads[r2 & 1](_product(roots[virtual], mask, ratios, l, levels)):\n",
     "    for c in reads[r2 & 1](_product(roots[False], mask, ratios, l, levels)):\n",
     [BCD_FOLD, ENTRY_POINTS, DIGEST, VIRTUAL_RING, WALK]),
    ("_product's level-l rest counted over every coordinate, zeros included", KERNEL,
     "    rest = len(parts)\n",
     "    rest = len(levels)\n",
     [A_NEGATIVE, ENTRY_POINTS, SLOTS, DIGEST, HIGH_RANK]),
    ("_product's level a counted as the parts >= a", KERNEL,
     "        count = parts.count(a) if a < l else rest\n",
     "        count = sum(part >= a for part in parts) if a < l else rest\n",
     [A_SMALL_GRID, A_NEGATIVE, BCD_GRID, BCD_FOLD, SLOTS, DIGEST]),
]


def copy_tree(into):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", into)


def failed_tests(into, test_ids):
    """The ids in ``test_ids`` that fail when pytest runs them in ``into``;
    raises if pytest reports no result for one of them."""
    env = dict(os.environ, PYTHONPATH=str(into / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          *test_ids], cwd=into, env=env, capture_output=True, text=True)
    outcomes = re.findall(r"^(PASSED|FAILED|ERROR) (\S+)", run.stdout, re.M)
    failed = []
    for test_id in test_ids:
        seen = [outcome for outcome, got in outcomes
                if got == test_id or got.startswith(test_id + "[")]
        if not seen:
            raise SystemExit(f"no result for {test_id}:\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
        if any(outcome != "PASSED" for outcome in seen):
            failed.append(test_id)
    return failed


def main():
    survived = []
    all_ids = sorted({test_id for *_, test_ids in MUTANTS for test_id in test_ids})
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        copy_tree(clean)
        if failing := failed_tests(clean, all_ids):
            raise SystemExit(f"fail on the unchanged tree: {failing}")
        for index, (name, file, old, new, test_ids) in enumerate(MUTANTS):
            into = Path(scratch) / f"mutant{index}"
            copy_tree(into)
            text = (into / file).read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: old text found {text.count(old)} times in {file}")
            (into / file).write_text(text.replace(old, new))
            failed = failed_tests(into, test_ids)
            alive = [test_id for test_id in test_ids if test_id not in failed]
            print(f"{name}: {len(failed)} of {len(test_ids)} named tests fail"
                  + (f"; survives {alive}" if alive else ""), flush=True)
            survived += [(name, test_id) for test_id in alive]
    if survived:
        raise SystemExit(f"{len(survived)} (mutant, test) pairs survive")
    print(f"all {len(MUTANTS)} mutants killed")


if __name__ == "__main__":
    main()
