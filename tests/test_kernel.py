"""The kernel against independent re-evaluations of its sums.

The B/C/D blocks are checked against a brute-force count: build a weight
mu from the level counts, walk every nu on each one-norm sphere, bucket
them by their overlap with mu, and apply the same outer binomials as
:func:`bivar.kernel.tensor_sum_bcd`. This holds for every l. Slot N of
the packed product that ``bivar.kernel._packing`` lays out is checked
against that count and against the same generating-function product
multiplied out one coefficient at a time (``stepped_block_poly``), on a
full grid of small keys and on keys whose coefficients need more than 64
bits. The fold of :func:`bivar.kernel.bivariate_sum_bcd`, one more
packed multiply, is checked against the four-term combination of
brute-force sums with the cached packing cold and warm, and on the wide
keys against the same combination taken one block coefficient at a time.
The packing's cache key is checked by interleaving families that share
all but one of (f, d, l, step).

The literal evaluator below walks the partitions of bivar.partitions and
the beta / alpha arrays of the test-side index_sets module, and
multiplies the displayed binomial expression term by term. Its blocks
equal the brute-force ones for N <= 3 and differ on some blocks with
N >= 4, where a coordinate sits at a level t with 2 <= t <= N - 2
(n = 2, N = 4, ell = (0, 0, 1, 0) gives (4, 2, 3, 2, 3) against the
count's (5, 2, 4, 2, 3)); the transcription fault is not yet found. So
it is compared with the kernel only at l <= 3.

For type A the reference is the partition-indexed sum, one slot-choice
binomial per part size (``literal_tensor_sum_a``); the kernel's truncated
product, and the difference of its y^l and y^(l-1) digits that
:func:`bivar.kernel.bivariate_sum_a` reads, are compared with it on every
key with rank 2-5 and l <= 6, and on keys whose values need more than 64
bits.
"""

from functools import lru_cache
from itertools import product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivar import kernel
from bivar.multiplicity import bivariate_mult, tensor_mult
from bivar.partitions import binom, count_one_norm_sphere, partitions_le_length
from bivar.root_systems import algebra
from bivar.weight_tables import candidate_dominants
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


@lru_cache(maxsize=None)
def one_norm_sphere(n, total):
    """Every nu in Z^n with one-norm ``total``, as a tuple."""
    if n == 0:
        return ((),) if total == 0 else ()
    return tuple((a,) + rest
                 for a in range(-total, total + 1)
                 for rest in one_norm_sphere(n - 1, total - abs(a)))


def overlap(mu, nu):
    return sum(min(abs(a), abs(b)) for a, b in zip(mu, nu) if a * b > 0)


def brute_block(mu, big_n):
    """Counts of the nu on the one-norm-N sphere by their overlap with mu."""
    counts = [0] * (big_n + 1)
    for nu in one_norm_sphere(len(mu), big_n):
        counts[overlap(mu, nu)] += 1
    return tuple(counts)


def stepped_block_poly(n, big_n, ell):
    """y^N coefficient of the product of the f_a, one factor at a time."""
    levels = [a for a, count in enumerate(ell) for _ in range(count)]
    levels += [big_n] * (n - len(levels))
    # rows[s][m]: ways for the coordinates so far to reach one-norm s with
    # overlap m; the overlap never exceeds the one-norm
    rows = [[1] + [0] * big_n] + [[0] * (big_n + 1) for _ in range(big_n)]
    for a in levels:
        nxt = [row[:] for row in rows]
        for s in range(1, big_n + 1):
            out = nxt[s]
            for b in range(1, s + 1):
                shift = min(a, b)
                for m, c in enumerate(rows[s - b]):
                    if c:
                        out[m] += c
                        out[m + shift] += c
        rows = nxt
    return tuple(rows[big_n])


def level_counts(n, big_n):
    """Every ell of length ``big_n`` with entries summing to at most n."""
    if big_n == 0:
        yield ()
        return
    for first in range(n + 1):
        for rest in level_counts(n - first, big_n - 1):
            yield (first,) + rest


def weight_from_levels(n, ell, top):
    """A weight with ell[t] coordinates at level t and the rest at ``top``."""
    mu = [t for t, count in enumerate(ell) for _ in range(count)]
    return tuple(mu + [top] * (n - len(mu)))


def brute_tensor_sum_bcd(n, d, l, r2, ell, step):
    if l < 0:
        return 0
    # against a nu of one-norm N <= l, a coordinate at level l counts like
    # one at level N: it covers any |nu_i| on its side in full
    mu = weight_from_levels(n, ell[:l], l)
    total = 0
    start = l % 2 if step == 2 else 0
    for big_n in range(start, l + 1, step):
        t1 = binom((l - big_n) // 2 + d, d)
        base = (r2 - l - big_n) // 2
        total += t1 * sum(c * binom(base + m + d, d)
                          for m, c in enumerate(brute_block(mu, big_n)))
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
        # l 4-6, beyond the reach of the literal evaluator
        cases = [
            (4, 3, 5, 9, (1, 1, 0, 2, 0), 1),
            (4, 2, 6, 12, (0, 2, 1, 0, 1, 0), 2),
            (5, 4, 4, 20, (2, 1, 1, 0), 2),
            (3, 2, 5, 7, (1, 0, 1, 0, 1), 1),
        ]
        for n, d, l, r2, ell, step in cases:
            assert kernel.tensor_sum_bcd(n, d, l, r2, ell, step) == \
                brute_tensor_sum_bcd(n, d, l, r2, ell, step)

    def test_a_small_grid(self):
        for n in range(2, 6):
            for l in range(7):
                for ell in product(range(n + 2), repeat=max(l, 1)):
                    if sum(ell) > n + 1:
                        continue
                    expected = literal_tensor_sum_a(n, l, ell)
                    assert kernel.tensor_sum_a(n, l, ell) == expected, (n, l, ell)
                    assert kernel.bivariate_sum_a(n, l, ell) == \
                        expected - literal_tensor_sum_a(n, l - 1, ell), (n, l, ell)

    @pytest.mark.parametrize("n, l, ell", [
        (80, 20, (0,) * 20),
        (80, 20, (3, 0, 1, 0, 2) + (0,) * 10 + (1, 0, 4, 0, 1)),
        (60, 24, (1,) * 24),
        (100, 18, (10, 0, 0, 5) + (2,) * 14),
    ])
    def test_a_wide_digits(self, n, l, ell):
        # C(l + n, n), the value at ell = 0, bounds every digit and needs over 64 bits
        assert binom(l + n, n) > 2 ** 64
        expected = literal_tensor_sum_a(n, l, ell)
        assert kernel.tensor_sum_a(n, l, ell) == expected
        assert kernel.bivariate_sum_a(n, l, ell) == \
            expected - literal_tensor_sum_a(n, l - 1, ell)

    def test_negative_l_is_zero(self):
        assert kernel.tensor_sum_bcd(3, 2, -1, 4, (), 2) == 0
        assert kernel.tensor_sum_bcd(3, 2, -2, 4, (), 1) == 0
        assert kernel.tensor_sum_a(3, -1, ()) == 0
        assert kernel.bivariate_sum_a(3, -1, ()) == 0
        # all four tensor sums of the combination sit at negative l
        assert kernel.bivariate_sum_bcd(3, 2, -1, 0, (), 1) == 0
        assert kernel.bivariate_sum_bcd(3, 2, -2, 4, (), 2) == 0

    def test_l_zero_reduces_to_single_binomial(self):
        # only block N = 0 is left, so the sum collapses to the depth binomial
        for n, d in [(2, 1), (3, 2), (4, 3)]:
            for r2 in range(0, 10):
                assert kernel.tensor_sum_bcd(n, d, 0, r2, (), 1) == \
                    binom(r2 // 2 + d, d)
        assert kernel.tensor_sum_a(3, 0, ()) == 1
        assert kernel.bivariate_sum_a(3, 0, ()) == 1

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


def brute_bivariate_sum_bcd(n, d, l, r2, ell, step):
    """The virtual-ring combination of four brute-force tensor sums."""
    return (brute_tensor_sum_bcd(n, d, l, r2, ell, step)
            - brute_tensor_sum_bcd(n, d, l - 1, r2, ell, step)
            - brute_tensor_sum_bcd(n, d, l - 1, r2 - 2, ell, step)
            + brute_tensor_sum_bcd(n, d, l - 2, r2 - 2, ell, step))


@given(bcd_calls())
@settings(max_examples=150, deadline=None)
def test_fold_matches_brute_force_cold_and_warm(call):
    n, d, l, r2, ell, step = call
    for depth in (r2, r2 + 1):
        expected = brute_bivariate_sum_bcd(n, d, l, depth, ell, step)
        kernel._packing.cache_clear()
        assert kernel.bivariate_sum_bcd(n, d, l, depth, ell, step) == expected
        # refill the packing from another depth of the same parity and from
        # the other parity; the warm call then builds no new packing
        kernel._packing.cache_clear()
        kernel.bivariate_sum_bcd(n, d, l, depth + 4, ell, step)
        kernel.bivariate_sum_bcd(n, d, l, depth + 1, ell, step)
        misses = kernel._packing.cache_info().misses
        assert kernel.bivariate_sum_bcd(n, d, l, depth, ell, step) == expected
        assert kernel._packing.cache_info().misses == misses


@pytest.mark.parametrize("n", [3, 4, 5])
def test_packing_key_separates_families(n):
    # B_n and D_n share (f, l) but not d, B_n and C_n share (f, d, l) but not
    # step, C_n and D_(n+1) share (d, l, step) but not f: interleaved in one
    # process, each value must be the one a cleared packing cache gives
    specs = [algebra("B", n), algebra("C", n), algebra("D", n), algebra("D", n + 1)]
    calls = []
    for l in range(7):
        weights = [list(candidate_dominants(spec, l + 2, l))[::3] for spec in specs]
        for row in zip_longest(*weights):
            calls += [(mult, spec, l, mu) for spec, mu in zip(specs, row) if mu
                      for mult in (bivariate_mult, tensor_mult)]
    warm = [mult(spec, l + 2, l, mu) for mult, spec, l, mu in calls]
    assert any(warm)
    for (mult, spec, l, mu), value in zip(calls, warm):
        kernel._packing.cache_clear()
        assert mult(spec, l + 2, l, mu) == value, (mult.__name__, spec, l, mu)


@pytest.mark.parametrize("n, l, ell", [
    (1, 2, (3, 3)),
    (3, 4, (2, 1, 2, 1)),
    (2, 6, (0, 5, 0, 0, 4, 0)),
])
def test_packing_key_holds_f(n, l, ell):
    # sum(ell) > n: f = sum(ell) sets the digit width, so the packing built
    # for the same (n, d, l, step) at f = n must not serve this call
    for d, step, parity in product((1, 2), (1, 2), (0, 1)):
        kernel._packing.cache_clear()
        cold = kernel.fold_bcd(n, d, l, ell, step, parity)
        kernel._packing.cache_clear()
        kernel.fold_bcd(n, d, l, (0,) * l, step, parity)
        assert kernel.fold_bcd(n, d, l, ell, step, parity) == cold, (d, step, parity)


cached_brute_block = lru_cache(maxsize=None)(brute_block)
cached_stepped_block_poly = lru_cache(maxsize=None)(stepped_block_poly)


def product_slots(n, l, ell):
    """The blocks N <= l of the packed product F, unpacked: the ``bits``-bit
    digit N (l + 1) + m of F counts the nu of one-norm N with overlap m."""
    bits, mask, factors, _ = kernel._packing(max(n, sum(ell[:l]), 1), 0, l, 1)
    packed = kernel._product(mask, factors, n, l, ell)
    digit = (1 << bits) - 1
    return [tuple(packed >> (big_n * (l + 1) + m) * bits & digit for m in range(big_n + 1))
            for big_n in range(l + 1)]


def assert_slots_are_blocks(n, l, ell, block):
    """Slot N of the product is ``block(n, N, ell[:N])`` for every N <= l.

    With sum(ell) > n the weight has sum(ell) coordinates, so the blocks
    are taken at that rank.
    """
    slots = product_slots(n, l, ell)
    rank = max(n, sum(ell))
    for big_n, slot in enumerate(slots):
        assert slot == block(rank, big_n, tuple(ell[:big_n])), (n, l, ell, big_n)
    return len(slots)


def test_product_slots_match_overlap_buckets():
    checked = 0
    for n in range(1, 6):
        for l in range(7):
            for ell in level_counts(n, l):
                checked += assert_slots_are_blocks(
                    n, l, ell, lambda n, big_n, head: cached_brute_block(
                        weight_from_levels(n, head, big_n), big_n))
    assert checked == 10268


def test_product_slots_match_stepped_product():
    checked = 0
    for n in range(8):
        for l in range(8):
            for ell in level_counts(n, l):
                checked += assert_slots_are_blocks(n, l, ell, cached_stepped_block_poly)
    assert checked == 91520


@pytest.mark.parametrize("n, l, ell", [
    (40, 20, (0,) * 20),
    (40, 20, (1, 0, 2, 0, 1) + (0,) * 10 + (3, 0, 0, 1, 0)),
    (50, 17, (0,) * 17),
    (50, 17, (0, 4) + (1,) * 15),
    (60, 16, (0,) * 16),
    (60, 16, (5, 0, 0, 7) + (2,) * 12),
])
def test_product_wide_slots(n, l, ell):
    # the sphere count, which bounds every coefficient, needs over 64 bits
    assert count_one_norm_sphere(max(n, sum(ell)), l) > 2 ** 64
    assert_slots_are_blocks(n, l, ell, stepped_block_poly)
    # the packed fold against the same combination taken one block
    # coefficient at a time
    slots = product_slots(n, l, ell)
    for d, step, parity in product((n - 1, n - 2), (1, 2), (0, 1)):
        expected = [0] * (l + 1)
        for big_l, shift, sign in ((l, 0, 1), (l - 1, 0, -1), (l - 1, -1, -1), (l - 2, -1, 1)):
            for big_n in range(big_l % 2 if step == 2 else 0, big_l + 1, step):
                outer = sign * binom((big_l - big_n) // 2 + d, d)
                base = (parity - big_l - big_n) // 2 + shift + l
                for m, c in enumerate(slots[big_n]):
                    expected[base + m] += outer * c
        assert kernel.fold_bcd(n, d, l, ell, step, parity) == tuple(expected)


@pytest.mark.parametrize("n, l, ell", [
    (1, 2, (3, 3)),
    (3, 4, (2, 1, 2, 1)),
    (2, 6, (0, 5, 0, 0, 4, 0)),
])
def test_product_more_levels_than_rank(n, l, ell):
    # sum(ell) > n: every level in ell is still one factor, so the slots
    # must be wide enough for sum(ell) coordinates, not n
    assert sum(ell) > n
    assert_slots_are_blocks(n, l, ell, stepped_block_poly)
