"""Full weight tables for the representations k*e1 + l*e2.

:func:`build_table` follows the candidate-enumeration algorithm: list
every weakly decreasing non-negative vector of one-norm at most k + l
(the candidate set over-approximates the weight support and relies on
the formula returning 0 to prune), evaluate each candidate, then expand
orbits or, in dominant-only mode for family D, emit the extra mirror
weight (a_1, ..., -a_n) alongside (a_1, ..., a_n).

:func:`freudenthal_table` is the classical alternative engine: it walks
the whole weight system level by level, computing every multiplicity
through Freudenthal's recursion with no Weyl-group reduction. It exists
for benchmarking against :func:`build_table` and as an end-to-end
cross-check; the per-dominant-weight recursion lives in
:mod:`bivar.oracles`.
"""

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from . import __version__, kernel
from .multiplicity import bivariate_mult
from .oracles import _Geometry
from .partitions import partitions_le_length
from .root_systems import (
    AlgebraSpec,
    canonical_weight,
    check_highest_weight,
    highest_weight,
    is_dominant,
    normalize_a_to_sum,
    orbit,
    simple_roots,
    validate,
    weyl_dimension,
    weyl_orbit_size,
)

Weight = Tuple[int, ...]
Row = Tuple[Weight, int]

ENGINE_VERSION = f"bivar {__version__}"


@dataclass(frozen=True)
class MultiplicityTable:
    """Weights of one representation with exact multiplicities.

    Rows are lexicographically sorted (weight, multiplicity) pairs with
    every multiplicity positive. ``meta`` carries provenance (engine
    version, kernel backend, elapsed seconds, creation timestamp) and
    never takes part in comparisons or serialization.
    """

    spec: AlgebraSpec
    k: int
    l: int
    dominant_only: bool
    rows: Tuple[Row, ...]
    meta: dict = field(default_factory=dict, compare=False, repr=False)


def candidate_dominants(spec: AlgebraSpec, k: int, l: int,
                        parity_filter: bool = True) -> Iterator[Weight]:
    """Candidate dominant weights for the representation k*e1 + l*e2.

    B/C/D: weakly decreasing non-negative vectors of one-norm <= k + l;
    for C and D the one-norm must also match k + l mod 2 unless
    ``parity_filter`` is switched off (the formula returns 0 on the
    skipped candidates either way). A: weakly decreasing non-negative
    vectors of length n + 1 summing to k + l.
    """
    validate(spec)
    k, l = check_highest_weight(k, l)
    fam = spec.family
    if fam == "A":
        yield from partitions_le_length(k + l, spec.rank + 1)
        return
    step = 2 if parity_filter and fam in ("C", "D") else 1
    start = (k + l) % 2 if step == 2 else 0
    for norm in range(start, k + l + 1, step):
        yield from partitions_le_length(norm, spec.rank)


def build_table(spec: AlgebraSpec, k: int, l: int,
                dominant_only: bool = False) -> MultiplicityTable:
    """Evaluate the bivariate formula over all candidates and assemble rows.

    Rows come out sorted, so the table depends only on its arguments.
    """
    validate(spec)
    k, l = check_highest_weight(k, l)
    started = time.perf_counter()
    rows: List[Row] = []
    for mu in candidate_dominants(spec, k, l):
        m = bivariate_mult(spec, k, l, mu)
        if m == 0:
            continue
        if dominant_only:
            rows.append((mu, m))
            if spec.family == "D" and mu[-1] > 0:
                rows.append((mu[:-1] + (-mu[-1],), m))
        else:
            rows.extend((w, m) for w in orbit(spec, mu))
    rows.sort()
    meta = {
        "engine": ENGINE_VERSION,
        "backend": kernel.BACKEND,
        "elapsed_s": time.perf_counter() - started,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    return MultiplicityTable(spec, k, l, dominant_only, tuple(rows), meta)


def dimension_audit(table: MultiplicityTable) -> Tuple[int, int, bool]:
    """Compare the orbit-weighted multiplicity total with the Weyl dimension."""
    if table.dominant_only:
        computed = sum(weyl_orbit_size(table.spec, mu) * m for mu, m in table.rows)
    else:
        computed = sum(m for _, m in table.rows)
    expected = weyl_dimension(table.spec, table.k, table.l)
    return computed, expected, computed == expected


# ---------------------------------------------------------------------------
# classical full-lattice Freudenthal engine


def freudenthal_table(spec: AlgebraSpec, k: int, l: int,
                      dominant_only: bool = False) -> MultiplicityTable:
    """Weight table computed by the textbook Freudenthal algorithm.

    Starting from the highest weight, each level is generated by
    subtracting simple roots and every candidate's multiplicity is
    evaluated by the recursion directly, one weight at a time, over the
    whole weight system (no orbit reduction). Deliberately the classical
    formulation: this is the baseline engine the benchmark compares
    against.
    """
    validate(spec)
    k, l = check_highest_weight(k, l)
    started = time.perf_counter()
    lam = highest_weight(spec, k, l)
    geo = _Geometry(spec)
    lam_norm = geo.norm_shifted(lam)
    simple = simple_roots(spec)
    canon = (lambda w: canonical_weight(spec, w)) if spec.family == "A" else (lambda w: w)

    mult: Dict[Weight, int] = {canon(lam): 1}
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
            acc = 0
            for idx, root in enumerate(geo.roots):
                t = 1
                while True:
                    nu = tuple(a + t * c for a, c in zip(cand, root))
                    m_up = mult.get(canon(nu), 0)
                    if m_up == 0:
                        break
                    acc += m_up * geo.pairing(nu, idx)
                    t += 1
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
        rows = []
        for key, m in mult.items():
            rep = normalize_a_to_sum(key, k + l)
            rows.append((rep, m))
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
