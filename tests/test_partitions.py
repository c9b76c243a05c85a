"""Partition enumeration, binomial convention, lattice counts."""

from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivar.partitions import binom, count_one_norm_sphere, partitions_le_length


def naive_partition_count(total, max_parts, largest=None):
    # independent recursive counter
    if total == 0:
        return 1
    if max_parts == 0:
        return 0
    if largest is None:
        largest = total
    return sum(
        naive_partition_count(total - p, max_parts - 1, p)
        for p in range(1, min(largest, total) + 1)
    )


class TestPartitionsStream:
    def test_examples(self):
        assert list(partitions_le_length(3, 2)) == [(3, 0), (2, 1)]
        assert list(partitions_le_length(0, 5)) == [(0, 0, 0, 0, 0)]
        assert list(partitions_le_length(4, 3)) == [
            (4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)]

    def test_negative_total_yields_nothing(self):
        assert list(partitions_le_length(-1, 4)) == []
        assert list(partitions_le_length(-2, 1)) == []

    @pytest.mark.parametrize("total", range(13))
    @pytest.mark.parametrize("max_parts", range(1, 9))
    def test_count_matches_naive_counter(self, total, max_parts):
        got = list(partitions_le_length(total, max_parts))
        assert len(got) == naive_partition_count(total, max_parts)
        assert len(set(got)) == len(got)

    def test_each_is_weakly_decreasing_with_right_sum(self):
        for q in partitions_le_length(9, 5):
            assert sum(q) == 9
            assert all(q[i] >= q[i + 1] for i in range(len(q) - 1))
            assert q[-1] >= 0

    def test_reverse_lex_order(self):
        got = list(partitions_le_length(7, 4))
        assert got == sorted(got, reverse=True)


class TestBinom:
    def test_examples(self):
        assert binom(5, 2) == 10
        assert binom(-1, 0) == 0
        assert binom(3, -1) == 0

    def test_zero_convention_region(self):
        for b in range(-4, 5):
            for a in range(-4, 5):
                if a < 0 or b < a:
                    assert binom(b, a) == 0

    @given(st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=200)
    def test_matches_factorials(self, b, a):
        if a <= b:
            assert binom(b, a) == factorial(b) // (factorial(a) * factorial(b - a))
        else:
            assert binom(b, a) == 0


class TestOneNormSphere:
    def test_examples(self):
        assert count_one_norm_sphere(2, 1) == 4
        assert count_one_norm_sphere(2, 2) == 8
        for n in range(1, 6):
            assert count_one_norm_sphere(n, 0) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        for total in range(9):
            brute = sum(
                1
                for v in product(range(-total, total + 1), repeat=n)
                if sum(abs(a) for a in v) == total
            )
            assert count_one_norm_sphere(n, total) == brute
