"""Full weight tables for the representations k*e1 + l*e2.

:func:`build_table` follows the candidate-enumeration algorithm: it checks k
and l once (its spec was checked when built) and takes the dominant rows of
every family from one kernel walk, :func:`bivar.kernel.dominant_rows`. It does
not call :func:`candidate_dominants`, the wider candidate list that ``bivar
verify`` and the tests read. A full table then expands the orbits of the kept
rows in lexicographic order, through :func:`bivar.root_systems._expand_orbits`;
a dominant-only table for family D emits the extra mirror weight
(a_1, ..., -a_n) alongside (a_1, ..., a_n) and sorts. :func:`dimension_audit`
checks a table's rows against Weyl's dimension.

:func:`freudenthal_table` is the classical alternative engine: it walks
the whole weight system level by level, computing every multiplicity
through Freudenthal's recursion with no Weyl-group reduction. It is the
baseline of performance gate 8b in the acceptance tests (:func:`build_table`
at least 10x faster) and a reference that tests compare tables against.
The recursion over dominant weights alone, summed by root classes so
that it reaches any rank, is :func:`bivar.oracles.freudenthal_diagram`.
"""

import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import itemgetter

from . import __version__, kernel
from .partitions import partitions_le_length
from .root_systems import (
    AlgebraSpec,
    _expand_orbits,
    _orbit_size,
    _fuse_tuples,
    check_highest_weight,
    highest_weight,
    is_dominant,
    positive_roots,
    rho_twice,
    weyl_dimension,
)

Weight = tuple[int, ...]
Row = tuple[Weight, int]

ENGINE_VERSION = f"bivar {__version__}"


@dataclass(frozen=True)
class MultiplicityTable:
    """Weights of one representation with exact multiplicities.

    Rows are lexicographically sorted (weight, multiplicity) pairs with
    every multiplicity positive. ``meta`` carries provenance (engine
    version, kernel backend, elapsed seconds, creation timestamp) and,
    for :func:`build_table`, the walk's four counts: dominant candidates
    evaluated (``candidates``), rows kept (``kept``), masked multiplies
    (``products``) and coefficient vectors read (``reads``). It never takes
    part in comparisons or serialization.
    """

    spec: AlgebraSpec
    k: int
    l: int
    dominant_only: bool
    rows: tuple[Row, ...]
    meta: dict = field(default_factory=dict, compare=False, repr=False)


def candidate_dominants(spec: AlgebraSpec, k: int, l: int) -> Iterator[Weight]:
    """Candidate dominant weights for the representation k*e1 + l*e2.

    B/C/D: weakly decreasing non-negative vectors of one-norm <= k + l
    (the formula returns 0 on those with mu_1 > k and, for C and D, on
    those with k + l - |mu|_1 odd). A: weakly decreasing non-negative
    vectors of length n + 1 summing to k + l.
    """
    k, l = check_highest_weight(k, l)
    if spec.family == "A":
        yield from partitions_le_length(k + l, spec.rank + 1)
        return
    for norm in range(k + l + 1):
        yield from partitions_le_length(norm, spec.rank)


def build_table(spec: AlgebraSpec, k: int, l: int,
                dominant_only: bool = False) -> MultiplicityTable:
    """Evaluate the formula over the candidates in one kernel walk and assemble rows.

    Rows come out sorted by weight, so the table depends only on its
    arguments; weights in a table are unique, so this is the order of
    the (weight, multiplicity) pairs too. A full table gets its rows in
    that order straight from the orbit walk of :mod:`bivar.root_systems`,
    with no sort. A dominant-only table is sorted: the kernel walk emits
    its rows by level class, not by weight, and D adds its mirror rows.
    """
    k, l = check_highest_weight(k, l)
    started = time.perf_counter()
    dominant, counts = kernel.dominant_rows(spec.family, spec.rank, k, l)
    if dominant_only:
        mirrors = [(mu[:-1] + (-mu[-1],), m) for mu, m in dominant
                   if spec.family == "D" and mu[-1] > 0]
        rows = sorted(dominant + mirrors, key=itemgetter(0))
    else:
        # each weight carries its multiplicity as a last entry through the walk
        root = _expand_orbits(spec, dominant, lambda m: [(m,)], _fuse_tuples)
        rows = [((v,) + w[:-1], w[-1]) for v, tails in root for w in tails]
    meta = {
        "engine": ENGINE_VERSION,
        "backend": kernel.BACKEND,
        "elapsed_s": time.perf_counter() - started,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **counts,
    }
    return MultiplicityTable(spec, k, l, dominant_only, tuple(rows), meta)


def dimension_audit(table: MultiplicityTable) -> tuple[int, int, bool]:
    """Compare the orbit-weighted multiplicity total with the Weyl dimension.

    Returns (total, ``weyl_dimension``, whether they agree). In a dominant
    table each multiplicity is weighted by its orbit size, taken from the row
    tuple with no per-row weight check by ``root_systems._orbit_size``: a sort
    of the row and arithmetic over its nonzero parts only, so a row at rank
    5,000 costs little more than its sort. ``bivar table`` does not call it, as it writes
    Weyl's dimension.
    """
    if table.dominant_only:
        # orbit sizes straight from the row tuples, with no per-row weight check
        computed = sum(_orbit_size(table.spec.family, mu, True) * m for mu, m in table.rows)
    else:
        computed = sum([m for _, m in table.rows])
    expected = weyl_dimension(table.spec, table.k, table.l)
    return computed, expected, computed == expected


# ---------------------------------------------------------------------------
# classical full-lattice Freudenthal engine


def freudenthal_table(spec: AlgebraSpec, k: int, l: int,
                      dominant_only: bool = False) -> MultiplicityTable:
    """Weight table computed by the textbook Freudenthal algorithm.

    Starting from the highest weight lam, each level is generated by
    subtracting simple roots, the positive roots a (:func:`positive_roots`)
    that are not the sum of two, i.e. for which no positive b leaves a
    positive a - b. Every candidate's multiplicity is evaluated by the
    recursion directly, one weight at a time, over the whole weight system
    (no orbit reduction). Deliberately the classical formulation: this is
    the baseline engine of performance gate 8b.

    Every quantity is an exact integer: the norm |mu+rho|^2 - |rho|^2 is
    sum a (a + 2 rho_i) with 2 rho from :func:`rho_twice`, the pairing of
    a weight with a positive root is its sum over the root's support, and
    m(mu) = 2 sum_{a>0} sum_{t>=1} m(mu+ta) (mu+ta, a) / (norm(lam) - norm(mu)),
    each root's run over t stopping at the first weight not yet found.
    A non-weight's sum is 0, so it is dropped. Type A needs no special
    case: its simple roots sum to 0, so every candidate stays in the
    hyperplane of (k, l, 0, ..., 0), where these norms differ from the
    projected ones by one constant and pairings with e_i - e_j do not
    change, and the weights come out as the representatives summing to
    k + l.
    """
    k, l = check_highest_weight(k, l)
    started = time.perf_counter()
    lam = highest_weight(spec, k, l)
    rho2 = rho_twice(spec)
    positive = positive_roots(spec)
    roots = [(root, [(i, c) for i, c in enumerate(root) if c]) for root in positive]
    found = set(positive)
    simple = [a for a in positive if all(tuple(x - y for x, y in zip(a, b)) not in found
                                         for b in positive)]

    def norm(mu: Weight) -> int:  # |mu+rho|^2 - |rho|^2
        return sum(a * (a + r) for a, r in zip(mu, rho2))

    lam_norm = norm(lam)
    mult = {lam: 1}
    frontier = [lam]
    while frontier:
        # one level down: every weight in it lies one simple root below the level above
        candidates = {tuple(a - c for a, c in zip(w, root)) for w in frontier for root in simple}
        frontier = []
        for mu in candidates:
            acc = 0
            for root, support in roots:
                nu = tuple(a + c for a, c in zip(mu, root))
                while m := mult.get(nu):
                    acc += m * sum(c * nu[i] for i, c in support)
                    nu = tuple(a + c for a, c in zip(nu, root))
            if acc == 0:
                continue
            denom = lam_norm - norm(mu)
            if denom <= 0 or (2 * acc) % denom:
                raise AssertionError("inconsistent Freudenthal step")
            mult[mu] = 2 * acc // denom
            frontier.append(mu)

    rows = sorted(mult.items())
    if dominant_only:
        rows = [(w, m) for w, m in rows if is_dominant(spec, w)]
    meta = {
        "engine": ENGINE_VERSION + " (freudenthal)",
        "backend": "recursion",
        "elapsed_s": time.perf_counter() - started,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    return MultiplicityTable(spec, k, l, dominant_only, tuple(rows), meta)
