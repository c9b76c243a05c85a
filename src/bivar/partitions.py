"""Integer partitions and the nested index sets of the multiplicity sums.

All enumeration here is exact big-integer combinatorics: partitions of N
into at most n parts, their part-count profiles, the triangular (beta,
alpha) index arrays that the tensor sums run over, the zero-padded
binomial convention, and the count of lattice points on a one-norm
sphere.

Streams are lazy generators; the full beta x alpha product is never
materialized.
"""

from itertools import product
from math import comb
from typing import Iterator, Sequence, Tuple

Triangular = Tuple[Tuple[int, ...], ...]


def binom(b: int, a: int) -> int:
    """Binomial coefficient with C(b, a) = 0 whenever a < 0 or b < a.

    Total on all integer pairs; exact big-integer result.
    """
    if a < 0 or b < a:
        return 0
    return comb(b, a)


def partitions_le_length(total: int, max_parts: int) -> Iterator[Tuple[int, ...]]:
    """Yield the partitions of ``total`` with at most ``max_parts`` parts.

    Tuples are zero-padded to length ``max_parts`` and come out in
    reverse-lexicographic order. A negative ``total`` yields nothing
    (callers pass l-1, l-2 blindly); ``total == 0`` yields the single
    all-zero partition.
    """
    if total < 0:
        return
    if max_parts < 1:
        if total == 0:
            yield ()
        return
    parts = [total] + [0] * (max_parts - 1)
    while True:
        yield tuple(parts)
        # lower the rightmost part that can give up one unit while the
        # parts after it still fit below its new value
        tail = parts[-1]
        i = max_parts - 2
        while i >= 0 and tail >= (parts[i] - 1) * (max_parts - 1 - i):
            tail += parts[i]
            i -= 1
        if i < 0:
            return
        cap = parts[i] - 1
        parts[i] = cap
        # refill the tail greedily: the lexicographically largest one
        tail += 1
        for j in range(i + 1, max_parts):
            v = cap if tail > cap else tail
            parts[j] = v
            tail -= v


def part_counts(q: Sequence[int]) -> Tuple[int, ...]:
    """Profile vector (s_1, ..., s_N) with s_j = #{i : q_i = j}, N = sum(q)."""
    total = sum(q)
    s = [0] * total
    for part in q:
        if part > 0:
            s[part - 1] += 1
    return tuple(s)


def rows_bounded(length: int, cap: int) -> Iterator[Tuple[int, ...]]:
    """Yield every non-negative integer tuple of ``length`` with sum <= ``cap``.

    These are the candidate beta rows: row j of a beta array has j entries
    summing to at most s_j. Tuples come out lexicographically ascending;
    ``length == 0`` yields the single empty tuple.
    """
    if length == 0:
        yield ()
        return
    for first in range(cap + 1):
        for rest in rows_bounded(length - 1, cap - first):
            yield (first,) + rest


def beta_indices(q: Sequence[int]) -> Iterator[Triangular]:
    """Yield the triangular beta arrays attached to partition ``q``.

    Row j (1 <= j <= N, N = sum(q)) holds j non-negative entries whose sum
    is bounded by the number of parts of ``q`` equal to j; rows for values
    that do not occur in ``q`` are therefore all-zero but still present,
    so the triangle shape depends only on N. Odometer order: later rows
    spin fastest, entries within a row ascend lexicographically.
    """
    counts = part_counts(q)
    total = len(counts)
    row_options = [tuple(rows_bounded(j, counts[j - 1])) for j in range(1, total + 1)]
    yield from product(*row_options)


def alpha_indices(beta: Triangular) -> Iterator[Triangular]:
    """Yield every alpha with 0 <= alpha_t^j <= beta_t^j cell by cell.

    The all-zero beta (of any shape, including the empty one) yields
    exactly one alpha.
    """
    shape = [len(row) for row in beta]
    ranges = [range(b + 1) for row in beta for b in row]
    for flat in product(*ranges):
        out = []
        pos = 0
        for ln in shape:
            out.append(tuple(flat[pos:pos + ln]))
            pos += ln
        yield tuple(out)


def count_one_norm_sphere(n: int, total: int) -> int:
    """Number of integer vectors in Z^n with one-norm exactly ``total``."""
    return sum(binom(n, t) * binom(total - t + n - 1, n - 1) for t in range(n + 1))
