"""Evaluation of the partition-indexed tensor weight sums.

The two tensor sums here carry the hot inner loop of every
multiplicity: a sum over partitions, their triangular beta arrays and
the alpha polynomial. The partitions, beta rows and binomials come from
:mod:`bivar.partitions`, the same streams the literal reference
evaluator in the tests walks. Everything is exact: loop bookkeeping is
small ints, accumulated values are arbitrary precision.

For B/C/D the sum splits into blocks N <= l. The degree d and the depth
enter a block only through one binomial per power of the alpha
polynomial; the rest, the block's summed alpha polynomial, depends on
(n, N, ell[:N]) alone. :func:`block_poly` computes it once per key and
keeps it in an LRU cache of at most ``BLOCK_CACHE_SIZE`` (8192) entries,
so the four virtual-ring terms of one weight, and weights sharing a
level-count prefix, reuse it. The candidate beta rows with their alpha
factors sit in a second LRU cache of at most ``ROW_CACHE_SIZE`` (256)
entries, keyed by (row length, row sum bound).

The half-integral depth parameter ``r`` is passed as its doubled value
``r2`` so floors are plain integer division; no floats appear anywhere.
"""

from functools import lru_cache
from math import comb

from .partitions import binom, partitions_le_length, rows_bounded

# Recorded in MultiplicityTable.meta and in the benchmark's provenance
# (perfbench/run.py), which refuses to compare runs of different kernels.
BACKEND = "pure"

# Bound on the number of cached block polynomials. The benchmark's whole
# query stream (ranks 3-7, l <= 8) fills 2,611 keys, about 0.5 MB, and
# its largest dominant table 846.
BLOCK_CACHE_SIZE = 8192
# Bound on the number of cached beta-row tables. A row j holds at most
# N // j units, so few keys occur: the same query stream fills 27.
ROW_CACHE_SIZE = 256


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
    """Summed alpha polynomial of block ``big_n`` of :func:`tensor_sum_bcd`.

    Coefficient m sums, over the partitions q of N = ``big_n`` into at
    most n parts and the beta arrays of q, the beta binomial product
    times the number of alpha arrays of weighted sum m; the tuple has
    N + 1 entries. ``ell`` is the tuple of the first N level counts.
    Neither the degree d nor the depth enters, so one value serves every
    call that shares (n, N, ell[:N]).

    The beta rows are chosen from row N down to row 1. Every factor of
    row j reads only the rows above it, through three sums over them:
    the entries on each weight diagonal (cell (h, c), with 0-based column
    c, has alpha weight h - c), the entries in each column, and the
    spill, the part counts left out of their rows. So each row's factor
    is taken once per choice of the rows above, and a zero factor drops
    every completion below it.
    """
    pre_ell = [0] * (big_n + 1)
    for j in range(1, big_n + 1):
        pre_ell[j] = pre_ell[j - 1] + ell[j - 1]
    acc = [0] * (big_n + 1)
    diag = [0] * (big_n + 1)
    col = [0] * (big_n + 1)

    def descend(s, j, spill, poly):
        if j == 0:
            for m, c in enumerate(poly):
                acc[m] += c
            return
        # the bounds of row j's binomials; a negative one zeroes them all,
        # and from here on every binomial has non-negative arguments
        first = n - pre_ell[j] - sum(diag[j:])
        spilled = ell[0] - spill
        caps = [ell[j - c] - col[c + 1] for c in range(1, j)]
        if first < 0 or spilled < 0 or min(caps, default=0) < 0:
            return
        for row, free, terms in _row_options(j, s[j]):
            if row[0] > first:
                break
            f = comb(first, row[0]) * comb(spilled, free) << free
            for c in range(1, j):
                if not f:
                    break
                f *= comb(caps[c - 1], row[c])
            if not f:
                continue
            nxt = [0] * (big_n + 1)
            for m, p in enumerate(poly):
                if p:
                    p *= f
                    for e, k in terms:
                        nxt[m + e] += p * k
            for c, b in enumerate(row):
                diag[j - c] += b
                col[c] += b
            descend(s, j - 1, spill + free, nxt)
            for c, b in enumerate(row):
                diag[j - c] -= b
                col[c] -= b

    unit = (1,) + (0,) * big_n
    for q in partitions_le_length(big_n, n):
        # s[j] = number of parts of q equal to j; the zero padding of q
        # lands in s[0], which nothing reads
        s = [0] * (big_n + 1)
        for part in q:
            s[part] += 1
        descend(s, big_n, 0, unit)
    return tuple(acc)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _row_options(j, cap):
    # every candidate beta row j with entries summing to at most cap, in
    # the order of rows_bounded (first entry ascending), as (row, units
    # left out of the row, alpha factor): the alpha factor is the product
    # of (1 + x^(j-c))^row[c], given as (exponent, coefficient) pairs
    found = []
    for row in rows_bounded(j, cap):
        terms = {0: 1}
        for c, b in enumerate(row):
            w = j - c
            nxt = {}
            for e, k in terms.items():
                for a in range(b + 1):
                    nxt[e + w * a] = nxt.get(e + w * a, 0) + k * comb(b, a)
            terms = nxt
        found.append((row, cap - sum(row), tuple(terms.items())))
    return tuple(found)


def tensor_sum_a(n, l, ell):
    """Tensor weight sum for family A (rank n, so n + 1 coordinates).

    Sums over partitions of l into at most n + 1 parts the product of
    slot-choice binomials; iterates nothing for negative l and returns 1
    at l = 0 (empty product).
    """
    if l < 0:
        return 0
    m = n + 1
    pre_ell = [0] * (l + 1)
    for j in range(1, l + 1):
        pre_ell[j] = pre_ell[j - 1] + ell[j - 1]
    total = 0
    for q in partitions_le_length(l, m):
        s = [0] * (l + 1)
        for part in q:
            s[part] += 1
        suffix = 0
        prod = 1
        for j in range(l, 0, -1):
            prod *= binom(m - pre_ell[j] - suffix, s[j])
            if prod == 0:
                break
            suffix += s[j]
        total += prod
    return total
