"""Integer partitions, the zero-padded binomial and one-norm sphere counts.

All enumeration here is exact big-integer combinatorics: partitions of N
into at most n parts, the zero-padded binomial convention, and the count
of lattice points on a one-norm sphere.

Streams are lazy generators.
"""

from collections.abc import Iterator
from math import comb


def binom(b: int, a: int) -> int:
    """Binomial coefficient with C(b, a) = 0 whenever a < 0 or b < a.

    Total on all integer pairs; exact big-integer result.
    """
    if a < 0 or b < a:
        return 0
    return comb(b, a)


def partitions_le_length(total: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of ``total`` with at most ``max_parts`` parts.

    Tuples are zero-padded to length ``max_parts`` and come out in
    reverse-lexicographic order. By convention a negative ``total`` has
    no partitions and yields nothing; ``total == 0`` yields the single
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


def count_one_norm_sphere(n: int, total: int) -> int:
    """Number of integer vectors in Z^n with one-norm exactly ``total``."""
    if n == 0:
        # the empty vector; the sum below reads C(total - 1, -1) = 0
        return int(total == 0)
    return sum(binom(n, t) * binom(total - t + n - 1, n - 1) for t in range(n + 1))
