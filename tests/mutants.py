"""Recorded mutants of bivar, kept as a check that the tests still kill them.

Run it as ``python tests/mutants.py``; it finds the tree from its own path.
Each entry names a mutant, the file it changes, the exact old text (found
there exactly once), the new text, and the test ids that must fail on it. For
each entry the script copies ``src``, ``tests``, ``pyproject.toml`` and
``README.md`` (which a test reads) to a temporary directory, makes the one
replacement and runs the named tests there with pytest. It first runs every
named test on an unchanged copy, where all must pass. It exits non-zero if an
old text is not found exactly once, if a named test fails on the unchanged copy
or is not collected, or if a mutant survives one of its tests. A named test
that is parametrized, or a Hypothesis property, counts as failed when any of
its cases fails; a name may also pick one case, as ``test_id[case]``.

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
TABLES = "src/bivar/weight_tables.py"
CLI = "src/bivar/cli.py"

A_SMALL_GRID = "tests/test_kernel.py::TestAgainstLiteralEvaluation::test_a_small_grid"
A_WIDE = "tests/test_kernel.py::TestAgainstLiteralEvaluation::test_a_wide_digits"
A_NEGATIVE = "tests/test_kernel.py::test_type_a_negative_coordinates_shift"
BCD_GRID = "tests/test_kernel.py::TestAgainstLiteralEvaluation::test_bcd_small_grid"
BCD_FOLD = "tests/test_kernel.py::test_fold_matches_brute_force_cold_and_warm"
ENTRY_POINTS = "tests/test_kernel.py::test_entry_points_match_level_count_sums"
SLOTS = "tests/test_kernel.py::test_product_slots_match_overlap_buckets"
PACKING = "tests/test_kernel.py::test_packing_roots_and_ratios"
THREADS = "tests/test_kernel.py::test_roots_grown_by_threads_at_once"
DIGEST = "tests/test_multiplicity.py::test_entry_point_digest"
VIRTUAL_RING = "tests/test_multiplicity.py::TestBivariate::test_virtual_ring_identity"
HIGH_RANK = "tests/test_multiplicity.py::test_single_weight_matches_diagram_at_high_rank"
WALK = "tests/test_weight_tables.py::TestBuildTable::test_walk_matches_candidate_evaluation"
WALK_DIGEST = "tests/test_weight_tables.py::test_dominant_rows_digest"
WALK_COUNTERS = "tests/test_weight_tables.py::TestBuildTable::test_walk_counters"
DOMINANT_PINNED = "tests/test_cli.py::TestTable::test_dominant_table_bytes_pinned"
FREUDENTHAL = "tests/test_weight_tables.py::TestFreudenthalEngine::test_agrees_with_bivariate_engine"
FREUDENTHAL_A = [f"{FREUDENTHAL}[AlgebraSpec(family='A', rank={n})-{k}-{l}]"
                 for n, k, l in ((2, 3, 1), (3, 4, 2), (4, 3, 3))]
BAD_ROWS = "tests/test_root_systems.py::TestOrbit::test_full_table_text_rejects_bad_rows"
DEFAULT_GRID = "tests/test_cli.py::TestVerify::test_default_grid_passes"
SMALL_GRID = "tests/test_cli.py::TestVerify::test_small_grid_all_oracles"
FAULT = "tests/test_cli.py::TestVerify::test_fault_injection_reports_mismatch"
HAND_BUILT = "tests/test_cli.py::TestTable::test_writers_match_reference_bytes_hand_built"
JSON_WRITERS = [
    "tests/test_cli.py::TestTable::test_json_dimension",
    "tests/test_cli.py::TestTable::test_writers_match_reference_bytes",
    HAND_BUILT,
    "tests/test_cli.py::TestTable::test_full_table_bytes_match_reference",
    DOMINANT_PINNED,
    "tests/test_cli.py::TestTable::test_many_piece_table_same_on_every_sink",
    "tests/test_cli.py::TestTable::test_full_text_memory_is_a_small_share_of_the_text",
    "tests/test_cli.py::test_readme_cli_lines_run_and_its_json_example_is_the_real_output",
    "tests/test_root_systems.py::test_full_table_text_matches_brute_force",
]


def bad_rows(*cases):
    """The named cases of ``test_json_rejects_bad_rows``."""
    return [f"tests/test_cli.py::TestTable::test_json_rejects_bad_rows[{case}]" for case in cases]


# (name, file, old text, new text, test ids that must fail)
MUTANTS = [
    ("A's virtual root left at 1", KERNEL,
     "_products(1, 1 - (1 << bits) & mask, times, divide)",
     "_products(1, 1, times, divide)",
     [A_SMALL_GRID, A_WIDE, A_NEGATIVE, ENTRY_POINTS, DIGEST, WALK_DIGEST]),
    ("A's virtual root set to 1 + y", KERNEL,
     "_products(1, 1 - (1 << bits) & mask, times, divide)",
     "_products(1, 1 + (1 << bits) & mask, times, divide)",
     [A_SMALL_GRID, A_WIDE, A_NEGATIVE, ENTRY_POINTS, DIGEST, WALK_DIGEST]),
    ("A's reader at digit l - 1", KERNEL,
     "        return (packed >> l * bits,)\n",
     "        return (packed >> max(l - 1, 0) * bits & (1 << bits) - 1,)\n",
     [A_SMALL_GRID, A_WIDE, A_NEGATIVE, DIGEST, WALK_DIGEST]),
    ("the B/C/D virtual sum read from the tensor root", KERNEL,
     "    for c in read(product(virtual, levels), r2 & 1):\n",
     "    for c in read(product(False, levels), r2 & 1):\n",
     [BCD_FOLD, ENTRY_POINTS, DIGEST, VIRTUAL_RING, WALK]),
    ("a weight's product over N_0^s with s counted over every coordinate, zeros included", KERNEL,
     "        roots, s = kept[virtual], len(parts)\n",
     "        roots, s = kept[virtual], len(levels)\n",
     [A_NEGATIVE, ENTRY_POINTS, SLOTS, PACKING, DIGEST, HIGH_RANK]),
    ("a weight's product taking N_a once per level, not once per part", KERNEL,
     "        return times(roots[s], parts)\n",
     "        return times(roots[s], set(parts))\n",
     [A_SMALL_GRID, A_NEGATIVE, BCD_GRID, BCD_FOLD, SLOTS, PACKING, DIGEST]),
    # the coefficients of f_0^f by their recurrence
    ("the root's recurrence with b for b - 1", KERNEL,
     "(b - 1) * previous",
     "b * previous",
     [PACKING, DIGEST, WALK_DIGEST]),
    ("the root's recurrence divided by b + 2", KERNEL,
     "previous) // (b + 1)",
     "previous) // (b + 2)",
     [PACKING, DIGEST, WALK_DIGEST]),
    ("B/C/D's N_a without its (1 - x) term", KERNEL,
     "                packed = packed - (packed << xy2) + (packed << shifts[a]) * one_minus_x & mask\n",
     "                packed = packed - (packed << xy2) + (packed << shifts[a]) & mask\n",
     [BCD_GRID, BCD_FOLD, SLOTS, PACKING, DIGEST, WALK_DIGEST]),
    ("the division by N_0 without its (1 - x y) half", KERNEL,
     "                 + [xy << j for j in range(l.bit_length())])\n",
     ")\n",
     [PACKING, WALK_DIGEST, DOMINANT_PINNED]),
    ("A's factor N_a written as 1 - y^a", KERNEL,
     "                packed = packed - (packed << (a + 1) * bits) & mask\n",
     "                packed = packed - (packed << a * bits) & mask\n",
     [A_SMALL_GRID, A_WIDE, A_NEGATIVE, PACKING, DIGEST, WALK_DIGEST]),
    ("the kept roots grown by check-then-append, not by s", KERNEL,
     "            for i in range(len(roots), s + 1):\n"
     "                roots.setdefault(i, divide(roots[i - 1]))\n",
     "            while len(roots) <= s:\n"
     "                roots[len(roots)] = divide(roots[len(roots) - 1])\n",
     [THREADS]),
    ("the walk's big parts starting at l - 1", KERNEL,
     "    low, top = max(l, 1), ",
     "    low, top = max(l - 1, 1), ",
     [WALK_COUNTERS, WALK_DIGEST, DOMINANT_PINNED]),
    ("the walk's C cached per level class without its parity", KERNEL,
     "cs[r2 & 1] = read(packed, r2 & 1)\n",
     "cs[0] = cs[1] = read(packed, r2 & 1)\n",
     [WALK, WALK_COUNTERS, WALK_DIGEST, DOMINANT_PINNED]),
    ("freudenthal_table with rho for 2 rho", TABLES,
     "    rho2 = rho_twice(spec)\n",
     "    rho2 = [r // 2 for r in rho_twice(spec)]\n",
     [FREUDENTHAL]),
    ("freudenthal_table with rho reversed", TABLES,
     "    rho2 = rho_twice(spec)\n",
     "    rho2 = rho_twice(spec)[::-1]\n",
     [FREUDENTHAL]),
    ("freudenthal_table pairing with |c| for c", TABLES,
     "sum(c * nu[i] for i, c in support)",
     "sum(abs(c) * nu[i] for i, c in support)",
     [FREUDENTHAL]),
    ("freudenthal_table pairing negated", TABLES,
     "sum(c * nu[i] for i, c in support)",
     "-sum(c * nu[i] for i, c in support)",
     [FREUDENTHAL]),
    ("freudenthal_table step without its factor 2", TABLES,
     "mult[mu] = 2 * acc // denom",
     "mult[mu] = acc // denom",
     [FREUDENTHAL]),
    ("freudenthal_table root strings stopped after one step", TABLES,
     "                while m := mult.get(nu):\n",
     "                if m := mult.get(nu):\n",
     [FREUDENTHAL]),
    ("freudenthal_table writing type A rows as min-0 representatives", TABLES,
     "    rows = sorted(mult.items())\n",
     '    rows = sorted((tuple(a - min(w) for a in w) if spec.family == "A" else w, m)\n'
     "                  for w, m in mult.items())\n",
     FREUDENTHAL_A),
    ("freudenthal_table without the last positive root", TABLES,
     "    positive = positive_roots(spec)\n",
     "    positive = positive_roots(spec)[:-1]\n",
     [FREUDENTHAL]),
    ("freudenthal_table norm without its a^2 term", TABLES,
     "return sum(a * (a + r) for a, r in zip(mu, rho2))",
     "return sum(a * r for a, r in zip(mu, rho2))",
     [FREUDENTHAL]),
    ("freudenthal_table simple roots taken with any for all", TABLES,
     "simple = [a for a in positive if all(",
     "simple = [a for a in positive if any(",
     [FREUDENTHAL]),
    ("the full-table text drops negative last coordinates in every family", CLI,
     'if spec.family != "D" or mu[-1] >= 0]',
     "if mu[-1] >= 0]",
     [BAD_ROWS]),
    ("verify's convolution entry without its tensor check", CLI,
     '(("convolution", "irreducible", convolution_mult),\n'
     '                             ("tensor", "tensor", tensor_conv_mult))),',
     '(("convolution", "irreducible", convolution_mult),)),',
     [SMALL_GRID, FAULT]),
    ("verify's kostka entry covering every family", CLI,
     '"kostka": ("A", ',
     '"kostka": ("ABCD", ',
     [DEFAULT_GRID, SMALL_GRID]),
    ("the JSON row writes the multiplicity as a number", CLI,
     "'],\"mult\":\"%s\"}'",
     "'],\"mult\":%s}'",
     JSON_WRITERS),
    ("table_text states the rows' total", CLI,
     "dimension = weyl_dimension(spec, table.k, table.l)",
     "dimension = dimension_audit(table)[0]",
     [HAND_BUILT]),
    # table_from_json without each of its checks
    ("table_from_json takes a multiplicity that is not positive", CLI,
     "        if mult <= 0:\n"
     '            raise ValueError(f"row {mu}: multiplicity must be positive, got {mult}")\n',
     "",
     bad_rows("negative-mult")),
    ("table_from_json takes a type A weight that is not the representative", CLI,
     '        if spec.family == "A" and (min(mu) < 0 or sum(mu) != k + l):\n',
     "        if False:\n",
     bad_rows("a-wrong-sum", "a-negative-coordinate", "a-shifted-row")),
    ("table_from_json takes a weight outside the support", CLI,
     "        if _checked_support(spec.family, k, l, mu) is None:\n",
     "        if False:\n",
     bad_rows("norm-above-k-plus-l", "wrong-parity", "above-k", "a-above-k")),
    ("table_from_json takes a weight that is not dominant in a dominant-only table", CLI,
     "        if dominant_only and not _dominant(spec.family, mu):\n",
     "        if False:\n",
     bad_rows("not-dominant")),
    ("table_from_json takes a repeated weight", CLI,
     "        if mu == nu:\n",
     "        if False:\n",
     bad_rows("duplicate-weight")),
    ("table_from_json takes any stated dimension", CLI,
     "    if not stated == total == weyl:\n",
     "    if False:\n",
     bad_rows("dimension-wrong", "row-dropped", "row-dropped-dimension-lowered",
              "full-row-dropped-dimension-lowered")),
]


def copy_tree(into):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, into)


def failed_tests(into, test_ids):
    """The ids in ``test_ids`` that fail when pytest runs them in ``into``;
    raises if pytest reports no result for one of them."""
    env = dict(os.environ, PYTHONPATH=str(into / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          *test_ids], cwd=into, env=env, capture_output=True, text=True)
    # a case id may hold spaces; a failure's line ends in " - " and its message
    outcomes = re.findall(r"^(PASSED|FAILED|ERROR) (.+?)(?: - .*)?$", run.stdout, re.M)
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
