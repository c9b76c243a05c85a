"""The kernel against independent re-evaluations of its sums.

The B/C/D blocks are checked against a brute-force count: build a weight
mu from the level counts, walk every nu on each one-norm sphere, bucket
them by their overlap with mu, and apply the same outer binomials as
:func:`bivar.kernel.tensor_sum_bcd`. This holds for every l. Slot N of
the packed product that ``bivar.kernel._packing`` lays out is checked
against that count and against the same generating-function product
multiplied out one coefficient at a time (``stepped_block_poly``), on a
full grid of small keys and on keys whose coefficients need more than 64
bits. The B/C/D irreducible of :func:`bivar.kernel.weight_sum`, read from
the product started at the virtual root K0 V f_0^f instead of 1, is checked
against the four-term combination of brute-force sums with the cached
packing cold and warm; on the wide keys its C, read through ``_packing`` and
``_product``, is checked against the same combination taken one block
coefficient at a time.
The packing's cache key is checked by interleaving families that share
all but one of (f, d, l, step). Its roots K0 f_0^f and K0 V f_0^f and its
ratios r_a = f_a (1 - y) / (1 + y), built by shifts and adds, are checked
against pow and multiply over the factor layout f_a (``reference_packing``)
for f up to 10,000 and l up to 14.

The literal evaluator below walks the partitions of bivar.partitions and
the beta / alpha arrays of the test-side index_sets module, and
multiplies the displayed binomial expression term by term. Its blocks
equal the brute-force ones for N <= 3 and differ on some blocks with
N >= 4, where a coordinate sits at a level t with 2 <= t <= N - 2
(n = 2, N = 4, ell = (0, 0, 1, 0) gives (4, 2, 3, 2, 3) against the
count's (5, 2, 4, 2, 3)); the transcription fault is not yet found. So
it is compared with the kernel only at l <= 3.

For type A the reference is the partition-indexed sum, one slot-choice
binomial per part size (``literal_tensor_sum_a``). The kernel's truncated
product is compared with it on every key with rank 2-5 and l <= 6, and on
keys whose values need more than 64 bits; on the same keys, wherever the
level counts fit a weight summing to k + l with k >= l (``a_weight``), so is
the irreducible of :func:`bivar.kernel.weight_sum`, digit l of the product
started at 1 - y, against the difference of the reference at l and l - 1.

:func:`bivar.multiplicity.tensor_mult` and
:func:`~bivar.multiplicity.bivariate_mult` hand the kernel a weight's |mu_i|
(for A, its shifted representative), which it counts over the nonzero parts.
On sparse signed weights at ranks up to 10,000 with parts above l,
tensor_mult is checked against the tensor sum fed the l-tuple of level
counts, and bivariate_mult against the virtual-ring combination of
tensor_mult values. For type A with negative coordinates both are checked
against Kostka numbers and the direct convolution too.
"""

from functools import lru_cache
from itertools import product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivar import kernel
from bivar.multiplicity import bivariate_mult, tensor_mult
from bivar.oracles import kostka_count, tensor_conv_mult
from bivar.partitions import binom, count_one_norm_sphere, partitions_le_length
from bivar.root_systems import algebra, weight_length
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


def a_weight(n, l, ell):
    """A type A weight of rank n with ell[t] coordinates at level t < l,
    summing to k + l with k >= l: the rest sit at l, and one of them is raised
    until the sum reaches 2 l. None when no coordinate is left to raise."""
    levels = list(weight_from_levels(n + 1, ell[:l], l))
    if sum(levels) < 2 * l:
        if sum(ell[:l]) >= n + 1:
            return None
        levels[-1] += 2 * l - sum(levels)
    return levels


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
                    if (levels := a_weight(n, l, ell)) is not None:
                        assert kernel.weight_sum("A", n, l, 0, levels) == \
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
        assert kernel.weight_sum("A", n, l, 0, a_weight(n, l, ell)) == \
            expected - literal_tensor_sum_a(n, l - 1, ell)

    def test_negative_l_is_zero(self):
        assert kernel.tensor_sum_bcd(3, 2, -1, 4, (), 2) == 0
        assert kernel.tensor_sum_bcd(3, 2, -2, 4, (), 1) == 0
        assert kernel.tensor_sum_a(3, -1, ()) == 0

    def test_l_zero_reduces_to_single_binomial(self):
        # only block N = 0 is left, so the sum collapses to the depth binomial
        for n, d in [(2, 1), (3, 2), (4, 3)]:
            for r2 in range(0, 10):
                assert kernel.tensor_sum_bcd(n, d, 0, r2, (), 1) == \
                    binom(r2 // 2 + d, d)
        assert kernel.tensor_sum_a(3, 0, ()) == 1
        assert kernel.weight_sum("A", 3, 0, 0, [2, 1, 0, 0]) == 1

    def test_big_values_stay_exact(self):
        # far beyond 64-bit: the sums are exact big integers
        value = kernel.tensor_sum_bcd(6, 5, 2, 10 ** 7, (1, 1), 2)
        assert value > 2 ** 64
        assert value == literal_tensor_sum_bcd(6, 5, 2, 10 ** 7, (1, 1), 2)


@st.composite
def bcd_calls(draw):
    family = draw(st.sampled_from("BCD"))
    n = draw(st.integers(3 if family == "D" else 2, 5))
    l = draw(st.integers(0, 6))
    r2 = draw(st.integers(-2, 16))
    ell, left = [], n
    for _ in range(max(l, 1)):
        ell.append(draw(st.integers(0, left)))
        left -= ell[-1]
    return family, n, l, r2, tuple(draw(st.permutations(ell)))


def brute_bivariate_sum_bcd(n, d, l, r2, ell, step):
    """The virtual-ring combination of four brute-force tensor sums."""
    return (brute_tensor_sum_bcd(n, d, l, r2, ell, step)
            - brute_tensor_sum_bcd(n, d, l - 1, r2, ell, step)
            - brute_tensor_sum_bcd(n, d, l - 1, r2 - 2, ell, step)
            + brute_tensor_sum_bcd(n, d, l - 2, r2 - 2, ell, step))


@given(bcd_calls())
@settings(max_examples=150, deadline=None)
def test_fold_matches_brute_force_cold_and_warm(call):
    family, n, l, r2, ell = call
    d, step = kernel._degree(family, n), 1 if family == "B" else 2
    levels = weight_from_levels(n, ell[:l], l)
    for depth in (r2, r2 + 1):
        expected = brute_bivariate_sum_bcd(n, d, l, depth, ell, step)
        kernel._packing.cache_clear()
        assert kernel.weight_sum(family, n, l, depth, levels) == expected
        # refill the packing from another depth of the same parity and from
        # the other parity; the warm call then builds no new packing
        kernel._packing.cache_clear()
        kernel.weight_sum(family, n, l, depth + 4, levels)
        kernel.weight_sum(family, n, l, depth + 1, levels)
        misses = kernel._packing.cache_info().misses
        assert kernel.weight_sum(family, n, l, depth, levels) == expected
        assert kernel._packing.cache_info().misses == misses


@pytest.mark.parametrize("n", [3, 4, 5])
def test_packing_key_separates_families(n):
    # B_n and D_n share (f, l) but not d, B_n and C_n share (f, d, l) but not
    # step, C_n and D_(n+1) share (d, l, step) but not f: interleaved in one
    # process, each value must be the one a cleared packing cache gives
    specs = [algebra("B", n), algebra("C", n), algebra("D", n), algebra("D", n + 1)]
    calls = []
    for l in range(7):
        # k + l is even: the C/D weights of odd one-norm are 0 before any sum
        weights = [[mu for mu in candidate_dominants(spec, l + 2, l)
                    if spec.family == "B" or sum(mu) % 2 == 0][::3] for spec in specs]
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
    # for the same (n, d, l, step) at f = n must not serve this call; the
    # depths reach every coefficient C_i of both parities
    depths = range(-6, 2 * l + 6)
    for d, step in product((1, 2), (1, 2)):
        kernel._packing.cache_clear()
        cold = [kernel.tensor_sum_bcd(n, d, l, r2, ell, step) for r2 in depths]
        kernel._packing.cache_clear()
        kernel.tensor_sum_bcd(n, d, l, 0, (0,) * l, step)
        warm = [kernel.tensor_sum_bcd(n, d, l, r2, ell, step) for r2 in depths]
        assert warm == cold, (d, step)


def reference_packing(f, d, l, bits):
    """Roots and ratios by pow and multiply, from the factor layout f_a of
    ``_packing``: K0 (V) f_0^f and f_a (1 - y) / (1 + y), masked."""
    width = (l + 1) * bits
    mask = (1 << (l + 1) * width) - 1
    # f_a = sum_{b <= l} y^b + sum_{1 <= b <= a} (x y)^b + x^a sum_{a < b <= l} y^b
    ys = mask // ((1 << width) - 1)
    diagonal = ((1 << (l + 1) * (width + bits)) - 1) // ((1 << width + bits) - 1) - 1
    factors = [ys + (diagonal & (2 << a * (width + bits)) - 1)
               + (ys >> (a + 1) * width << (a + 1) * width + a * bits) for a in range(l + 1)]
    k0 = sum(binom(h + d, d) << h * (2 * width + bits) for h in range(l // 2 + 1))
    v = 1 - (1 << width) - (1 << width + bits) + (1 << 2 * width + bits)  # (1 - y)(1 - x y)
    power = pow(factors[0], f, mask + 1)
    # (1 - y) / (1 + y) = 1 + 2 sum_{b >= 1} (-y)^b
    quotient = 1 + 2 * sum((-1) ** b << b * width for b in range(1, l + 1))
    return (k0 * power & mask, k0 * v * power & mask), [a * quotient & mask for a in factors]


def test_packing_roots_and_ratios():
    # the shift-and-add roots and ratios against pow and multiply on every
    # key of the grid, f up to 10,000 and l up to 14
    checked = 0
    for f in (*range(1, 13), 100, 1_000, 10_000):
        for d in {f - 1, max(f - 2, 0)}:
            for l in range(15):
                for step in (1, 2):
                    bits, mask, roots, ratios, _ = kernel._packing(f, d, l, step)
                    want_roots, want_ratios = reference_packing(f, d, l, bits)
                    assert roots == want_roots, (f, d, l, step)
                    assert ratios == want_ratios, (f, d, l, step)
                    checked += 1
    assert checked == 870


cached_brute_block = lru_cache(maxsize=None)(brute_block)
cached_stepped_block_poly = lru_cache(maxsize=None)(stepped_block_poly)


def product_slots(n, l, ell):
    """The blocks N <= l of the packed product F, unpacked: the ``bits``-bit
    digit N (l + 1) + m of F counts the nu of one-norm N with overlap m.

    The product starts from the root K0 f_0^f; at d = 0, K0 = 1 / (1 - x y^2),
    so F is that product times 1 - x y^2.
    """
    f = max(n, sum(ell[:l]))
    bits, mask, roots, ratios, _ = kernel._packing(f, 0, l, 1)
    started = kernel._product(roots[False], mask, ratios, l, weight_from_levels(f, ell[:l], l))
    packed = started - (started << (2 * l + 3) * bits) & mask
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
    # C of the virtual root against the same combination taken one block
    # coefficient at a time
    slots = product_slots(n, l, ell)
    levels = weight_from_levels(n, ell, l)
    for d, step, parity in product((n - 1, n - 2), (1, 2), (0, 1)):
        expected = [0] * (l + 1)
        for big_l, shift, sign in ((l, 0, 1), (l - 1, 0, -1), (l - 1, -1, -1), (l - 2, -1, 1)):
            for big_n in range(big_l % 2 if step == 2 else 0, big_l + 1, step):
                outer = sign * binom((big_l - big_n) // 2 + d, d)
                base = (parity - big_l - big_n) // 2 + shift + l
                for m, c in enumerate(slots[big_n]):
                    expected[base + m] += outer * c
        _, mask, roots, ratios, reads = kernel._packing(n, d, l, step)
        assert reads[parity](kernel._product(roots[True], mask, ratios, l, levels)) == expected


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


@st.composite
def signed_sparse_weights(draw):
    """(spec, k, l, mu): a weight of A-D at rank 3-12 or 1,000-10,000, l <= 14
    and k <= l + 20, with a few nonzero parts of any size up to k + l, so
    that parts above l, and for the irreducible above k, occur. For B/C/D
    the parts take random signs and, for C and D, leave k + l - |mu| even;
    for A they are the representative summing to k + l, and mu is that
    representative shifted by a random integer, often to negative coordinates.
    """
    family = draw(st.sampled_from("ABCD"))
    spec = algebra(family, draw(st.one_of(st.integers(3, 12), st.integers(1000, 10000))))
    l = draw(st.integers(0, 14))
    k = draw(st.integers(l, l + 20))
    size, budget, parts = weight_length(spec), k + l, []
    while budget and len(parts) < min(size - 1, 10) and draw(st.booleans()):
        parts.append(draw(st.integers(1, budget)))
        budget -= parts[-1]
    if family == "A" and budget:
        parts.append(budget)
    elif family in "CD" and budget % 2:
        parts.append(1)
    slots = draw(st.lists(st.integers(0, size - 1), min_size=len(parts),
                          max_size=len(parts), unique=True))
    mu = [0] * size
    for slot, part in zip(slots, parts):
        mu[slot] = part if family == "A" or draw(st.booleans()) else -part
    if family == "A":
        shift = draw(st.integers(-k - l - 3, 3))
        mu = [a + shift for a in mu]
    return spec, k, l, tuple(mu)


def level_count_tensor_sum(spec, k, l, mu):
    """The levels the kernel reads (|mu_i|, or for A the representative
    summing to k + l) and its tensor sum fed their level counts
    (l_0, ..., l_{l-1})."""
    n, family = spec.rank, spec.family
    if family == "A":
        shift = (k + l - sum(mu)) // (n + 1)
        levels = [a + shift for a in mu]
    else:
        levels = [abs(a) for a in mu]
    ell = tuple(map(levels.count, range(l)))
    if family == "A":
        return levels, kernel.tensor_sum_a(n, l, ell)
    d, step, r2 = kernel._degree(family, n), 1 if family == "B" else 2, k + l - sum(levels)
    return levels, kernel.tensor_sum_bcd(n, d, l, r2, ell, step)


def virtual_combination(spec, k, l, mu):
    """The irreducible as tensor_mult values in the virtual ring:
    T(k, l) - T(k + 1, l - 1), and for B/C/D also - T(k - 1, l - 1) + T(k, l - 2);
    a term with a negative second index counts as 0."""
    terms = [(k, l, 1), (k + 1, l - 1, -1)]
    if spec.family != "A":
        terms += [(k - 1, l - 1, -1), (k, l - 2, 1)]
    return sum(sign * tensor_mult(spec, a, b, mu) for a, b, sign in terms if b >= 0)


@given(signed_sparse_weights())
@settings(max_examples=120, deadline=None)
def test_entry_points_match_level_count_sums(case):
    # tensor_mult hands the kernel the weight's |mu_i|, which it counts over the
    # nonzero parts; the l-tuple of level counts must give the same sum. The
    # irreducible, whose virtual factor sits in the kernel's root, must be the
    # virtual-ring combination of tensor products, which is 0 once a part passes k
    spec, k, l, mu = case
    _, tensor = level_count_tensor_sum(spec, k, l, mu)
    assert tensor_mult(spec, k, l, mu) == tensor
    assert bivariate_mult(spec, k, l, mu) == virtual_combination(spec, k, l, mu)


@pytest.mark.parametrize("n, k, l, mu, mult, tensor", [
    (3, 3, 2, (1, 1, 0, -1), 2, 5),
    (3, 2, 2, (-5, -5, -5, -5), 2, 6),
    (4, 5, 3, (1, 0, 0, -1, -2), 5, 14),
    (5, 6, 4, (1, 0, -1, -2, -3, -3), 5, 20),
    (3, 6, 2, (3, -3, -4, -4), 0, 2),
    (6, 4, 4, (2, 2, 0, 0, -1, -1, -1), 2, 14),
    (4, 8, 6, (-2, -3, -4, -5, -7), 8, 49),
])
def test_type_a_negative_coordinates_shift(n, k, l, mu, mult, tensor):
    # type A reads the representative summing to k + l: the kernel's levels are
    # the shifted coordinates, not |mu_i|, and Kostka numbers and the direct
    # convolution agree on both sums
    spec = algebra("A", n)
    levels, tensor_sum = level_count_tensor_sum(spec, k, l, mu)
    assert min(mu) < 0 <= min(levels) and sum(levels) == k + l
    assert bivariate_mult(spec, k, l, mu) == virtual_combination(spec, k, l, mu) == \
        kostka_count((k, l), levels) == mult
    assert tensor_mult(spec, k, l, mu) == tensor_sum == tensor_conv_mult(spec, k, l, mu) == tensor
