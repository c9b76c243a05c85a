"""Evaluation of the partition-indexed tensor weight sums.

The two functions here carry the hot inner loop of every multiplicity:
a sum over partitions, their triangular beta arrays and the alpha
polynomial. The partitions, beta rows and binomials come from
:mod:`bivar.partitions`, the same streams the literal reference
evaluator in the tests walks. Everything is exact: loop bookkeeping is
small ints, accumulated values are arbitrary precision.

The half-integral depth parameter ``r`` is passed as its doubled value
``r2`` so floors are plain integer division; no floats appear anywhere.
"""

from math import comb

from .partitions import binom, partitions_le_length, rows_bounded

# Recorded in MultiplicityTable.meta and the ``bivar bench`` CSV so that
# timings name the kernel that produced them.
BACKEND = "pure"


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
        for q in partitions_le_length(upper, n):
            block += _partition_block(n, d, upper, q, ell, base)
        total += t1 * block
    return total


def _partition_block(n, d, big_n, q, ell, base):
    # s[j] = number of parts of q equal to j, 1 <= j <= big_n; the zero
    # padding of q lands in s[0], which nothing reads
    s = [0] * (big_n + 1)
    for part in q:
        s[part] += 1
    pre_ell = [0] * (big_n + 1)
    for j in range(1, big_n + 1):
        pre_ell[j] = pre_ell[j - 1] + ell[j - 1]

    options = [None] + [tuple(rows_bounded(j, s[j])) for j in range(1, big_n + 1)]
    rows = [None] * (big_n + 1)
    acc = 0

    def fill(j):
        nonlocal acc
        if j > big_n:
            acc += _beta_term(n, d, big_n, s, pre_ell, ell, base, rows)
            return
        for row in options[j]:
            rows[j] = row
            fill(j + 1)

    fill(1)
    return acc


def _beta_term(n, d, big_n, s, pre_ell, ell, base, rows):
    prod = 1
    for j in range(1, big_n + 1):
        row = rows[j]
        rowsum = sum(row)
        # entries of higher rows occupying the first blocks seen from row j
        off_first = 0
        off_last = 0
        for h in range(j + 1, big_n + 1):
            upper = rows[h]
            width = h - j + 1
            off_first += sum(upper[:width])
            off_last += s[h] - sum(upper)
        prod *= binom(n - pre_ell[j] - off_first, row[0])
        if prod == 0:
            return 0
        prod *= binom(ell[0] - off_last, s[j] - rowsum)
        if prod == 0:
            return 0
        prod <<= s[j] - rowsum
        for i in range(2, j + 1):
            col = sum(rows[h][i] for h in range(j + 1, big_n + 1))
            prod *= binom(ell[j - i + 1] - col, row[i - 1])
            if prod == 0:
                return 0

    # distribute the alpha box-product by its weighted sum: the cell (j, i)
    # contributes weight (j + 1 - i) per unit of alpha
    poly = [1]
    for j in range(1, big_n + 1):
        row = rows[j]
        for i in range(1, j + 1):
            b = row[i - 1]
            if b == 0:
                continue
            w = j + 1 - i
            nxt = [0] * (len(poly) + w * b)
            for m, c in enumerate(poly):
                if c == 0:
                    continue
                for a in range(b + 1):
                    nxt[m + w * a] += c * comb(b, a)
            poly = nxt

    tail = 0
    for m, c in enumerate(poly):
        if c:
            tail += c * binom(base + m + d, d)
    return prod * tail


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
