"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything asserts exact integer equality except the two timing
gates in criterion 8.
"""

import time
from itertools import product
from statistics import median

import pytest

from bivar import cli
from bivar.multiplicity import (
    bivariate_mult,
    l1_mult,
    l2_mult_a,
    l2_mult_d,
    tensor_mult,
    zero_weight_mult,
)
from bivar.oracles import convolution_mult, freudenthal_diagram, kostka_count, tensor_conv_mult
from bivar.partitions import count_one_norm_sphere
from bivar.root_systems import (
    algebra,
    canonical_weight,
    highest_weight,
    one_norm,
    weight_stats,
)
from bivar.weight_tables import (
    build_table,
    candidate_dominants,
    dimension_audit,
    freudenthal_table,
)

GRID_SPECS = [algebra(f, n) for f, n in
              [("B", 2), ("B", 3), ("B", 4),
               ("C", 2), ("C", 3), ("C", 4),
               ("D", 3), ("D", 4),
               ("A", 2), ("A", 3), ("A", 4)]]


def kl_pairs(max_total):
    for total in range(max_total + 1):
        for l in range(total // 2 + 1):
            yield total - l, l


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    compared = 0
    for spec in GRID_SPECS:
        for k, l in kl_pairs(6):
            diagram = freudenthal_diagram(spec, highest_weight(spec, k, l))
            table = build_table(spec, k, l, dominant_only=True)
            got = {canonical_weight(spec, mu): m for mu, m in table.rows}
            assert got == diagram.entries, (spec, k, l)
            compared += len(diagram.entries)
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    print(f"PASS criterion 1: formula == Freudenthal on {compared} dominant "
          f"weights across {len(GRID_SPECS)} algebras, k+l <= 6 "
          f"({elapsed:.1f}s)")


def test_criterion_01b_oracle_equivalence_large_l():
    # criterion 1's k + l <= 6 never reaches l = 4, the first l whose blocks
    # see a coordinate at a level t with 2 <= t <= N - 2
    specs = [algebra(f, n) for f, ranks in
             [("B", (2, 3, 4)), ("C", (2, 3, 4)), ("D", (3, 4, 5))] for n in ranks]
    compared = 0
    for spec in specs:
        max_total = {4: 10, 5: 8}.get(spec.rank)
        for l in range(4, 8):
            for k in range(l, l + 3):
                if max_total is not None and k + l > max_total:
                    continue
                diagram = freudenthal_diagram(spec, highest_weight(spec, k, l))
                table = build_table(spec, k, l, dominant_only=True)
                got = {canonical_weight(spec, mu): m for mu, m in table.rows}
                assert got == diagram.entries, (spec, k, l)
                compared += len(diagram.entries)
    print(f"PASS criterion 1b: formula == Freudenthal on {compared} dominant "
          f"weights of B2-B4, C2-C4, D3-D5, l 4-7, k l..l+2")


def test_criterion_02_convolution_equivalence():
    specs = [s for s in GRID_SPECS if s.rank <= 3]
    compared = 0
    for spec in specs:
        for k, l in kl_pairs(6):
            for mu in candidate_dominants(spec, k, l):
                assert bivariate_mult(spec, k, l, mu) == \
                    convolution_mult(spec, k, l, mu), (spec, k, l, mu)
                assert tensor_mult(spec, k, l, mu) == \
                    tensor_conv_mult(spec, k, l, mu), (spec, k, l, mu)
                compared += 2
    print(f"PASS criterion 2: convolution oracle agreed on {compared} values "
          f"(ranks <= 3, k+l <= 6)")


def test_criterion_03_kostka_equivalence():
    compared = 0
    for n in (2, 3):
        spec = algebra("A", n)
        for k, l in kl_pairs(5):
            shape = (k, l) if l else ((k,) if k else ())
            for mu in candidate_dominants(spec, k, l):
                assert kostka_count(shape, mu) == \
                    bivariate_mult(spec, k, l, mu), (n, k, l, mu)
                compared += 1
    print(f"PASS criterion 3: Kostka counts agreed on {compared} type-A values "
          f"(n <= 3, k+l <= 5)")


def test_criterion_04_dimension_audit():
    audited = 0
    for spec in GRID_SPECS:
        for k, l in kl_pairs(6):
            table = build_table(spec, k, l, dominant_only=True)
            computed, expected, ok = dimension_audit(table)
            assert ok, (spec, k, l, computed, expected)
            audited += 1
    print(f"PASS criterion 4: orbit-weighted totals match the Weyl dimension "
          f"on {audited} tables")


@pytest.mark.parametrize("family,rank,k,l", [("D", 4, 5, 3), ("B", 3, 4, 2)])
def test_criterion_05_signature_invariance(family, rank, k, l):
    spec = algebra(family, rank)
    classes = {}
    for mu in product(range(-(k + l), k + l + 1), repeat=rank):
        if one_norm(mu) > k + l:
            continue
        signature = weight_stats(spec, mu, l)
        value = bivariate_mult(spec, k, l, mu)
        if signature in classes:
            assert classes[signature] == value, (mu, signature)
        else:
            classes[signature] = value
    assert sum(1 for v in classes.values() if v > 0) > 1
    print(f"PASS criterion 5: multiplicity constant on all "
          f"{len(classes)} signature classes for {family}{rank}, (k,l)=({k},{l})")


def test_criterion_06_closed_form_fast_paths():
    checked = 0
    # zero weight, including the odd-parity vanishing for C and D
    for fam, lo in (("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 7):
            spec = algebra(fam, n)
            zero = (0,) * n
            for k, l in kl_pairs(12):
                value = zero_weight_mult(spec, k, l)
                assert value == bivariate_mult(spec, k, l, zero), (fam, n, k, l)
                if fam in ("C", "D") and (k + l) % 2:
                    assert value == 0
                checked += 1
    # l = 1
    for fam, lo in (("A", 2), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 7):
            spec = algebra(fam, n)
            for k in range(1, 12):
                for mu in candidate_dominants(spec, k, 1):
                    assert l1_mult(spec, k, mu) == \
                        bivariate_mult(spec, k, 1, mu), (fam, n, k, mu)
                    checked += 1
    # l = 2 closed forms
    for n in range(3, 7):
        spec = algebra("D", n)
        for k in range(2, 11):
            for mu in candidate_dominants(spec, k, 2):
                assert l2_mult_d(n, k, mu) == bivariate_mult(spec, k, 2, mu)
                checked += 1
    for n in range(2, 7):
        spec = algebra("A", n)
        for k in range(2, 11):
            for mu in candidate_dominants(spec, k, 2):
                assert l2_mult_a(n, k, mu) == bivariate_mult(spec, k, 2, mu)
                checked += 1
    print(f"PASS criterion 6: fast paths matched the general formula on "
          f"{checked} evaluations (ranks <= 6, k+l <= 12)")


def test_criterion_07_lattice_count():
    checked = 0
    for n in range(1, 5):
        for total in range(9):
            brute = sum(
                1 for v in product(range(-total, total + 1), repeat=n)
                if sum(abs(a) for a in v) == total
            )
            assert count_one_norm_sphere(n, total) == brute
            checked += 1
    print(f"PASS criterion 7: one-norm sphere counts match brute force on "
          f"{checked} (n, N) pairs")


def test_criterion_08a_single_weight_latency():
    spec = algebra("D", 5)
    timings = []
    for mu in [(0, 0, 0, 0, 0), (2, 2, 1, 1, 0), (5, 3, 2, 1, 1)]:
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            bivariate_mult(spec, 20, 6, mu)
            runs.append(time.perf_counter() - start)
        timings.append(median(runs))
    worst = max(timings)
    assert worst < 0.100, f"single-weight median {worst:.3f}s exceeds 100ms"
    print(f"PASS criterion 8a: single-weight query at (D,5,k=20,l=6) "
          f"median {worst * 1000:.1f} ms < 100 ms")


def test_criterion_08b_table_speed_ratio():
    spec = algebra("D", 7)
    start = time.perf_counter()
    fast = build_table(spec, 5, 3)
    t_bivariate = time.perf_counter() - start
    start = time.perf_counter()
    slow = freudenthal_table(spec, 5, 3)
    t_freudenthal = time.perf_counter() - start
    assert fast.rows == slow.rows
    ratio = t_freudenthal / t_bivariate
    assert ratio >= 10, f"ratio {ratio:.1f}x below 10x"
    print(f"PASS criterion 8b: full table (D,7,k=5,l=3) bivariate "
          f"{t_bivariate:.2f}s vs Freudenthal {t_freudenthal:.2f}s "
          f"({ratio:.0f}x, identical {len(fast.rows)} rows)")


def test_criterion_09_deterministic_bytes(capsys):
    outputs = {}
    for _run in range(2):
        for fmt in ("json", "csv"):
            code = cli.main(["table", "--family", "C", "--rank", "3",
                             "--k", "4", "--l", "2", "--format", fmt])
            assert code == 0
            outputs.setdefault(fmt, []).append(capsys.readouterr().out)
    assert outputs["json"][0] == outputs["json"][1]
    assert outputs["csv"][0] == outputs["csv"][1]
    with capsys.disabled():
        print("PASS criterion 9: (C,3,k=4,l=2) table bytes identical over "
              "two consecutive in-process runs (json and csv)")


def test_criterion_10_quasi_polynomial_zero_weight():
    spec = algebra("D", 3)
    for l in (0, 1, 2):
        ks = range(l, l + 21)
        matching = [zero_weight_mult(spec, k, l) for k in ks if (k + l) % 2 == 0]
        off_parity = [zero_weight_mult(spec, k, l) for k in ks if (k + l) % 2]
        assert all(v == 0 for v in off_parity)
        first = [b - a for a, b in zip(matching, matching[1:])]
        second = [b - a for a, b in zip(first, first[1:])]
        assert all(d == 0 for d in second), (l, matching)
        assert any(d != 0 for d in first), (l, matching)
    print("PASS criterion 10: zero-weight multiplicity for D3, l in {0,1,2} "
          "is an exact degree-1 polynomial in k on each parity class")
