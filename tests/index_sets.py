"""The nested index sets of the displayed tensor sum, for the reference evaluator.

The literal evaluator in ``test_kernel.py`` walks, for each partition q,
the part-count profile of q, its triangular beta arrays and, for each
beta, its alpha arrays, exactly as the displayed formula indexes them.
The kernel does not use these sets, so they live with the tests,
together with the bounded rows the beta arrays are made of.
"""

from collections.abc import Iterator, Sequence
from itertools import product

Triangular = tuple[tuple[int, ...], ...]


def rows_bounded(length: int, cap: int) -> Iterator[tuple[int, ...]]:
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


def part_counts(q: Sequence[int]) -> tuple[int, ...]:
    """Profile vector (s_1, ..., s_N) with s_j = #{i : q_i = j}, N = sum(q)."""
    total = sum(q)
    s = [0] * total
    for part in q:
        if part > 0:
            s[part - 1] += 1
    return tuple(s)


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
