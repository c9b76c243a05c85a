"""The test-side index sets: part-count profiles, beta and alpha arrays."""

from math import comb

from hypothesis import given
from hypothesis import strategies as st

from bivar.partitions import partitions_le_length
from index_sets import alpha_indices, beta_indices, part_counts


class TestPartCounts:
    def test_examples(self):
        assert part_counts((2, 1, 1, 0)) == (2, 1, 0, 0)
        assert part_counts((0, 0, 0)) == ()
        s = part_counts((3, 3, 1))
        assert (s[0], s[1], s[2]) == (1, 0, 2)
        assert sum((j + 1) * c for j, c in enumerate(s)) == 7

    @given(st.lists(st.integers(0, 6), min_size=0, max_size=7))
    def test_weighted_sum_recovers_total(self, parts):
        q = tuple(sorted(parts, reverse=True))
        s = part_counts(q)
        assert sum((j + 1) * c for j, c in enumerate(s)) == sum(q)
        assert sum(s) <= len(q)


class TestBetaAlpha:
    def test_beta_examples(self):
        assert len(list(beta_indices((1, 0)))) == 2
        assert len(list(beta_indices((2, 0)))) == 3
        assert len(list(beta_indices((1, 1)))) == 3

    def test_beta_count_formula(self):
        # rows are independent; row j has C(s_j + j, j) choices
        for total in range(6):
            for q in partitions_le_length(total, 4):
                s = part_counts(q)
                expected = 1
                for j in range(1, total + 1):
                    expected *= comb(s[j - 1] + j, j)
                assert len(list(beta_indices(q))) == expected

    def test_beta_invariants(self):
        for q in partitions_le_length(5, 3):
            s = part_counts(q)
            seen = set()
            for beta in beta_indices(q):
                assert beta not in seen
                seen.add(beta)
                assert len(beta) == sum(q)
                for j, row in enumerate(beta, start=1):
                    assert len(row) == j
                    assert all(b >= 0 for b in row)
                    assert sum(row) <= s[j - 1]
                    if s[j - 1] == 0:
                        assert all(b == 0 for b in row)

    def test_alpha_examples(self):
        zero_beta = ((0,), (0, 0))
        assert list(alpha_indices(zero_beta)) == [zero_beta]
        assert len(list(alpha_indices(((2,),)))) == 3
        assert len(list(alpha_indices(((0,), (1, 1))))) == 4

    def test_alpha_box_product(self):
        for q in partitions_le_length(4, 3):
            for beta in beta_indices(q):
                expected = 1
                for row in beta:
                    for b in row:
                        expected *= b + 1
                alphas = list(alpha_indices(beta))
                assert len(alphas) == expected
                for alpha in alphas:
                    for arow, brow in zip(alpha, beta):
                        assert all(0 <= a <= b for a, b in zip(arow, brow))
