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
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from operator import itemgetter

from . import __version__, kernel
from .partitions import partitions_le_length
from .root_systems import (
    AlgebraSpec,
    _expand_orbits,
    _orbit_size,
    _fuse_tuples,
    _shift_to_sum,
    canonical_weight,
    check_highest_weight,
    highest_weight,
    is_dominant,
    positive_roots,
    rho_twice,
    simple_roots,
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
    for :func:`build_table`, how many dominant candidates were evaluated
    and kept and how many masked multiplies the walk made (``candidates``,
    ``kept``, ``products``). It never takes part in comparisons or
    serialization.
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
    with no sort.
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


class _Geometry:
    """Exact inner-product data for one algebra.

    Weights are scaled by 2 (families B/C/D) or by 2(n+1) with the mean
    subtracted (family A, where weights are shift classes) so that every
    quantity in Freudenthal's recursion is an integer.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.roots = positive_roots(spec)
        self.supports = [
            tuple((i, c) for i, c in enumerate(root) if c) for root in self.roots
        ]
        n = spec.rank
        if spec.family == "A":
            rho = tuple(n - i for i in range(n + 1))
            self._srho = self.scaled(rho)
        else:
            self._srho = rho_twice(spec)

    def scaled(self, coords: Weight) -> Weight:
        if self.spec.family == "A":
            m = len(coords)
            total = sum(coords)
            return tuple(2 * m * a - 2 * total for a in coords)
        return tuple(2 * a for a in coords)

    def norm_shifted(self, coords: Weight) -> int:
        """Squared norm of (scaled weight) + (scaled rho)."""
        return sum((a + b) ** 2 for a, b in zip(self.scaled(coords), self._srho))

    def pairing(self, coords: Weight, root_index: int) -> int:
        """Scaled inner product of a raw weight with a positive root."""
        value = sum(c * coords[i] for i, c in self.supports[root_index])
        if self.spec.family == "A":
            return 4 * (self.spec.rank + 1) ** 2 * value
        return 4 * value

    def freudenthal_sum(self, mu: Weight, lookup: Callable[[Weight], int | None]) -> int:
        """sum_{a>0} sum_{t>=1} m(mu+ta) <mu+ta, a>, scaled like :meth:`pairing`.

        m is ``lookup``; each root's run over t stops at the first weight
        where it gives 0 or None.
        """
        acc = 0
        for idx, root in enumerate(self.roots):
            t = 1
            while True:
                nu = tuple(a + t * c for a, c in zip(mu, root))
                m_up = lookup(nu)
                if not m_up:
                    break
                acc += m_up * self.pairing(nu, idx)
                t += 1
        return acc


def freudenthal_table(spec: AlgebraSpec, k: int, l: int,
                      dominant_only: bool = False) -> MultiplicityTable:
    """Weight table computed by the textbook Freudenthal algorithm.

    Starting from the highest weight, each level is generated by
    subtracting simple roots and every candidate's multiplicity is
    evaluated by the recursion directly, one weight at a time, over the
    whole weight system (no orbit reduction). Deliberately the classical
    formulation: this is the baseline engine of performance gate 8b.
    """
    k, l = check_highest_weight(k, l)
    started = time.perf_counter()
    lam = highest_weight(spec, k, l)
    geo = _Geometry(spec)
    lam_norm = geo.norm_shifted(lam)
    simple = simple_roots(spec)
    canon = (lambda w: canonical_weight(spec, w)) if spec.family == "A" else (lambda w: w)

    mult: dict[Weight, int] = {canon(lam): 1}
    lookup = (lambda w: mult.get(canon(w))) if spec.family == "A" else mult.get
    frontier = [canon(lam)]
    while frontier:
        candidates = sorted(
            {canon(tuple(a - c for a, c in zip(w, root)))
             for w in frontier for root in simple}
        )
        kept = []
        for cand in candidates:
            if cand in mult:
                continue
            acc = geo.freudenthal_sum(cand, lookup)
            if acc == 0:
                continue
            denom = lam_norm - geo.norm_shifted(cand)
            if denom <= 0 or (2 * acc) % denom:
                raise AssertionError("inconsistent Freudenthal step")
            mult[cand] = (2 * acc) // denom
            kept.append(cand)
        frontier = kept

    if spec.family == "A":
        # present each weight by its representative summing to k + l
        rows = [(_shift_to_sum(key, k + l), m) for key, m in mult.items()]
    else:
        rows = list(mult.items())
    if dominant_only:
        rows = [(w, m) for w, m in rows if is_dominant(spec, w)]
    rows.sort()
    meta = {
        "engine": ENGINE_VERSION + " (freudenthal)",
        "backend": "recursion",
        "elapsed_s": time.perf_counter() - started,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    return MultiplicityTable(spec, k, l, dominant_only, tuple(rows), meta)
