"""Integer partitions and the enumerators of the multiplicity sums.

All enumeration here is exact big-integer combinatorics: partitions of N
into at most n parts, the bounded rows that make up the triangular beta
arrays of the tensor sums, the zero-padded binomial convention, and the
count of lattice points on a one-norm sphere.

Streams are lazy generators.
"""

from math import comb
from typing import Iterator, Tuple


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


def count_one_norm_sphere(n: int, total: int) -> int:
    """Number of integer vectors in Z^n with one-norm exactly ``total``."""
    return sum(binom(n, t) * binom(total - t + n - 1, n - 1) for t in range(n + 1))
