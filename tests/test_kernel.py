"""The kernel against a literal re-evaluation built on the index streams.

The reference evaluator below walks the partitions of bivar.partitions
and the beta / alpha arrays of the test-side index_sets module, and
multiplies the displayed binomial expression term by term. The kernel
instead sums the alpha arrays into one polynomial per block, caches it,
and builds it row by row from the top beta row down, dropping every
completion below a zero factor. Both share the partition and beta-row
enumerators, so agreement here pins down the regrouping, the pruning and
the cache key; independence of the enumerators comes from the
Freudenthal, convolution and Kostka oracles, which re-derive the
multiplicities without them.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from bivar import kernel
from bivar.partitions import binom, partitions_le_length
from index_sets import alpha_indices, beta_indices, part_counts


def literal_tensor_sum_bcd(n, d, l, r2, ell, step):
    if l < 0:
        return 0
    total = 0
    start = l % 2 if step == 2 else 0
    for big_n in range(start, l + 1, step):
        t1 = binom((l - big_n) // 2 + d, d)
        for q in partitions_le_length(big_n, n):
            s = part_counts(q)
            for beta in beta_indices(q):
                for alpha in alpha_indices(beta):
                    asum = sum(
                        (j + 1 - i) * alpha[j - 1][i - 1]
                        for j in range(1, big_n + 1)
                        for i in range(1, j + 1)
                    )
                    term = t1 * binom((r2 - l - big_n) // 2 + asum + d, d)
                    for j in range(1, big_n + 1):
                        row = beta[j - 1]
                        rowsum = sum(row)
                        first_blocks = sum(
                            sum(beta[h - 1][: h - j + 1])
                            for h in range(j + 1, big_n + 1)
                        )
                        spilled = sum(
                            s[h - 1] - sum(beta[h - 1])
                            for h in range(j + 1, big_n + 1)
                        )
                        term *= 2 ** (s[j - 1] - rowsum)
                        term *= binom(row[0], alpha[j - 1][0])
                        term *= binom(n - sum(ell[:j]) - first_blocks, row[0])
                        term *= binom(ell[0] - spilled, s[j - 1] - rowsum)
                        for i in range(2, j + 1):
                            col = sum(beta[h - 1][i] for h in range(j + 1, big_n + 1))
                            term *= binom(ell[j - i + 1] - col, row[i - 1])
                            term *= binom(row[i - 1], alpha[j - 1][i - 1])
                    total += term
    return total


def literal_tensor_sum_a(n, l, ell):
    if l < 0:
        return 0
    total = 0
    for q in partitions_le_length(l, n + 1):
        s = part_counts(q)
        term = 1
        for j in range(1, l + 1):
            later = sum(s[i - 1] for i in range(j + 1, l + 1))
            term *= binom(n + 1 - sum(ell[:j]) - later, s[j - 1])
        total += term
    return total


class TestAgainstLiteralEvaluation:
    def test_bcd_small_grid(self):
        for n in (2, 3):
            for d in {n - 1, max(n - 2, 1)}:
                for l in range(4):
                    for r2 in range(-2, 8):
                        for ell in product(range(n + 1), repeat=max(l, 1)):
                            if sum(ell) > n:
                                continue
                            for step in (1, 2):
                                expected = literal_tensor_sum_bcd(n, d, l, r2, ell, step)
                                got = kernel.tensor_sum_bcd(n, d, l, r2, ell, step)
                                assert got == expected, (n, d, l, r2, ell, step)

    def test_bcd_bigger_spot_checks(self):
        cases = [
            (4, 3, 5, 9, (1, 1, 0, 2, 0), 1),
            (4, 2, 6, 12, (0, 2, 1, 0, 1, 0), 2),
            (5, 4, 4, 20, (2, 1, 1, 0), 2),
            (3, 2, 5, 7, (1, 0, 1, 0, 1), 1),
        ]
        for n, d, l, r2, ell, step in cases:
            assert kernel.tensor_sum_bcd(n, d, l, r2, ell, step) == \
                literal_tensor_sum_bcd(n, d, l, r2, ell, step)

    def test_a_small_grid(self):
        for n in (2, 3):
            for l in range(5):
                for ell in product(range(n + 2), repeat=max(l, 1)):
                    if sum(ell) > n + 1:
                        continue
                    assert kernel.tensor_sum_a(n, l, ell) == \
                        literal_tensor_sum_a(n, l, ell), (n, l, ell)

    def test_negative_l_is_zero(self):
        assert kernel.tensor_sum_bcd(3, 2, -1, 4, (), 2) == 0
        assert kernel.tensor_sum_bcd(3, 2, -2, 4, (), 1) == 0
        assert kernel.tensor_sum_a(3, -1, ()) == 0

    def test_l_zero_reduces_to_single_binomial(self):
        # with no partitions in play the sum collapses to the depth binomial
        for n, d in [(2, 1), (3, 2), (4, 3)]:
            for r2 in range(0, 10):
                assert kernel.tensor_sum_bcd(n, d, 0, r2, (), 1) == \
                    binom(r2 // 2 + d, d)
        assert kernel.tensor_sum_a(3, 0, ()) == 1

    def test_big_values_stay_exact(self):
        # far beyond 64-bit: the sums are exact big integers
        value = kernel.tensor_sum_bcd(6, 5, 2, 10 ** 7, (1, 1), 2)
        assert value > 2 ** 64
        assert value == literal_tensor_sum_bcd(6, 5, 2, 10 ** 7, (1, 1), 2)


@st.composite
def bcd_calls(draw):
    n = draw(st.integers(2, 5))
    d = draw(st.sampled_from([n - 1, n - 2] if n >= 3 else [n - 1]))
    l = draw(st.integers(0, 6))
    r2 = draw(st.integers(-2, 16))
    ell, left = [], n
    for _ in range(max(l, 1)):
        ell.append(draw(st.integers(0, left)))
        left -= ell[-1]
    return n, d, l, r2, tuple(draw(st.permutations(ell))), draw(st.sampled_from([1, 2]))


@given(bcd_calls())
@settings(max_examples=150, deadline=None)
def test_bcd_matches_literal_cold_and_warm(call):
    n, d, l, r2, ell, step = call
    expected = literal_tensor_sum_bcd(n, d, l, r2, ell, step)
    kernel.block_poly.cache_clear()
    assert kernel.tensor_sum_bcd(*call) == expected
    # refill every block of the call from other calls, largest l first and
    # at another degree and depth, which the cache key leaves out
    kernel.block_poly.cache_clear()
    for other in range(l, -1, -1):
        kernel.tensor_sum_bcd(n, 2 * n - 3 - d, other, r2 + 3, ell, 1)
    misses = kernel.block_poly.cache_info().misses
    assert kernel.tensor_sum_bcd(*call) == expected
    assert kernel.block_poly.cache_info().misses == misses
