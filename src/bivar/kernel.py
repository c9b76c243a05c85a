"""Evaluation of the tensor weight sums.

The two tensor sums here carry the hot inner loop of every
multiplicity. Everything is exact: loop bookkeeping is small ints,
accumulated values are arbitrary precision.

For B/C/D the sum splits into blocks N <= l. The degree d and the depth
enter a block only through one binomial per power of x in the block's
overlap polynomial: coefficient m counts the nu in Z^n with one-norm N
whose overlap with the weight is m. That polynomial depends on
(n, N, ell[:N]) alone and is the y^N coefficient of a product with one
factor per coordinate (:func:`block_poly`). The product is packed into
one big integer, with slots wide enough that no coefficient carries, so
each factor costs one integer multiply. It is computed once per key and
kept in an LRU cache of at most ``BLOCK_CACHE_SIZE`` (8192) entries, so
the four virtual-ring terms of one weight, and weights sharing a
level-count prefix, reuse it.

For A the sum is the y^l coefficient of a product with one factor per
coordinate, 1 + y + ... + y^min(a, l) for a coordinate at level a. Below
y^(l+1) it equals prod_{t<l} (1 - y^(t+1))^ell[t] * (1 - y)^-(n+1), so
l + 1 coefficients and one binomial for each of them suffice.

The half-integral depth parameter ``r`` is passed as its doubled value
``r2`` so floors are plain integer division; no floats appear anywhere.
"""

from functools import lru_cache

from .partitions import binom, count_one_norm_sphere

# Recorded in MultiplicityTable.meta and in the benchmark's provenance
# (perfbench/run.py), which refuses to compare runs of different kernels.
BACKEND = "pure"

# Bound on the number of cached block polynomials. The benchmark's whole
# query stream (ranks 3-7, l <= 8) fills 2,611 keys, about 0.5 MB, and
# its largest dominant table 846.
BLOCK_CACHE_SIZE = 8192


def tensor_sum_bcd(n, d, l, r2, ell, step):
    """Tensor weight sum for families B/C/D.

    n: rank; d: binomial degree (n-1 for B and C, n-2 for D); l: degree
    of the smaller tensor factor; r2: twice the depth r; ell: level
    counts (l_0, ..., l_{l-1}) -- entries beyond index l-1 are ignored;
    step: 1 sums over every N <= l, 2 restricts to N == l (mod 2).
    Returns 0 for negative l.
    """
    if l < 0:
        return 0
    total = 0
    start = l % 2 if step == 2 else 0
    for upper in range(start, l + 1, step):
        t1 = binom((l - upper) // 2 + d, d)
        base = (r2 - l - upper) // 2
        block = 0
        for m, c in enumerate(block_poly(n, upper, tuple(ell[:upper]))):
            if c:
                block += c * binom(base + m + d, d)
        total += t1 * block
    return total


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def block_poly(n, big_n, ell):
    """Overlap polynomial of block ``big_n`` of :func:`tensor_sum_bcd`.

    Let mu in Z^n have ``ell[t]`` coordinates of absolute value t for
    each level t < N = ``big_n``, and its other coordinates at level N or
    above. Coefficient m counts the nu in Z^n with one-norm N whose
    overlap with mu is m, where the overlap sums min(|mu_i|, |nu_i|) over
    the coordinates on which mu_i and nu_i have the same sign; the tuple
    has N + 1 entries. Neither the degree d nor the depth enters, so one
    value serves every call that shares (n, N, ell[:N]).

    The block is the y^N coefficient of a product with one factor per
    coordinate, f_a(x, y) = 1 + sum_{b >= 1} y^b (1 + x^min(a, b)) for a
    coordinate at level a (levels of N and above all act as a = N): a
    coordinate with |nu_i| = b > 0 takes either sign, and on the side of
    mu_i it adds min(a, b) to the overlap.

    The product is packed into one integer (Kronecker substitution):
    x = 2**bits and y = 2**width with width = (N + 1) * bits, so each
    factor is one big-integer multiply, truncated to y-degree <= N by a
    mask. No slot carries: a coefficient of the truncated product counts
    some of the points of one-norm s <= N in Z^f, f the number of factors
    multiplied so far, so it is at most the one-norm-N sphere count over
    all the factors, which is below 2**bits; and a term of y-degree s has
    x-degree <= s <= N, inside its own slot. Whatever spills past y^N
    only adds to the bits that the mask drops.
    """
    placed = sum(ell)
    # (level a, number of factors f_a): the coordinates not in ell sit at N
    groups = [*enumerate(ell), (big_n, n - placed)]
    bits = count_one_norm_sphere(max(n, placed), big_n).bit_length()
    width = (big_n + 1) * bits
    mask = (1 << (big_n + 1) * width) - 1
    packed = 1
    for a, count in groups:
        if count <= 0:
            continue
        factor = 1
        for b in range(1, big_n + 1):
            factor += (1 + (1 << min(a, b) * bits)) << b * width
        for _ in range(count):
            packed = packed * factor & mask
    top = packed >> big_n * width
    digit = (1 << bits) - 1
    return tuple(top >> m * bits & digit for m in range(big_n + 1))


def tensor_sum_a(n, l, ell):
    """Tensor weight sum for family A (rank n, so n + 1 coordinates).

    ell: level counts (l_0, ..., l_{l-1}) as for :func:`tensor_sum_bcd`.
    Returns 0 for negative l and 1 at l = 0.
    """
    if l < 0:
        return 0
    # prod_t (1 - y^(t+1))^ell[t] to y-degree l; (1 - y)^-(n+1) has y^s
    # coefficient C(s + n, n)
    c = [1] + [0] * l
    for t, count in enumerate(ell[:l]):
        for _ in range(count):
            for j in range(l, t, -1):
                c[j] -= c[j - t - 1]
    return sum(cj * binom(l - j + n, n) for j, cj in enumerate(c) if cj)
