"""Independent ground-truth oracles for weight multiplicities.

Three routes that share no code with the formula evaluation in
:mod:`bivar.multiplicity`:

* :func:`freudenthal_diagram` -- the classical recursion over dominant
  weights, for an arbitrary dominant highest weight;
* :func:`convolution_mult` -- brute-force convolution of single-row
  weight counts (themselves obtained by dynamic programming over
  symmetric powers of the defining representation, not by the closed
  binomial forms), combined through the virtual-ring identity;
* :func:`kostka_count` -- a semistandard-tableau backtracking counter
  for family A.

All arithmetic is exact; the recursion works on integer-scaled weights
so no rationals appear in the inner loops.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Dict, Optional, Tuple

from .errors import NotDominant, ShapeContentMismatch
from .partitions import partitions_le_length
from .root_systems import (
    AlgebraSpec,
    _shift_to_sum,
    as_integers,
    canonical_weight,
    check_highest_weight,
    check_weight,
    is_dominant,
    one_norm,
    positive_roots,
    rho_twice,
    weyl_canonical,
)

Weight = Tuple[int, ...]


# ---------------------------------------------------------------------------
# integer-scaled inner products


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

    def freudenthal_sum(self, mu: Weight, lookup: Callable[[Weight], Optional[int]]) -> int:
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


# ---------------------------------------------------------------------------
# Freudenthal recursion over dominant weights


@dataclass
class WeightDiagram:
    """Dominant weights of one irreducible with their multiplicities."""

    spec: AlgebraSpec
    highest: Weight
    entries: Dict[Weight, int] = field(default_factory=dict)

    def multiplicity(self, mu) -> int:
        return self.entries.get(weyl_canonical(self.spec, mu), 0)


def _dominance_level(spec: AlgebraSpec, lam: Weight, mu: Weight):
    """Height of lam - mu when it is a non-negative root combination, else None."""
    fam = spec.family
    n = spec.rank
    delta = [a - b for a, b in zip(lam, mu)]
    partial = []
    run = 0
    for d in delta:
        run += d
        partial.append(run)
    if fam == "A":
        # equal-sum representatives required by the caller
        if partial[-1] != 0 or any(p < 0 for p in partial[:-1]):
            return None
        return sum(partial[:-1])
    if any(p < 0 for p in partial[: n - 1]):
        return None
    if fam == "B":
        if partial[-1] < 0:
            return None
        return sum(partial)
    if fam == "C":
        if partial[-1] < 0 or partial[-1] % 2:
            return None
        return sum(partial[:-1]) + partial[-1] // 2
    # D: the last two simple-root coefficients come from the +- combination
    # of e_{n-1} -+ e_n; both must be non-negative integers
    if partial[-1] % 2:
        return None
    c_last = partial[-1] // 2
    c_prev = (partial[-2] - delta[-1]) // 2
    if c_last < 0 or c_prev < 0:
        return None
    return sum(partial[: n - 2]) + c_prev + c_last


def _dominant_candidates(spec: AlgebraSpec, lam: Weight):
    """All dominant weights below ``lam``, sorted by level (highest first)."""
    fam = spec.family
    n = spec.rank
    found = []
    if fam == "A":
        # candidates share the coordinate sum of lam and stay within [0, lam_1]
        for q in partitions_le_length(sum(lam), n + 1):
            if q and q[0] > lam[0]:
                continue
            lvl = _dominance_level(spec, lam, q)
            if lvl is not None:
                found.append((lvl, q))
    else:
        norm = one_norm(lam)
        for m in range(norm + 1):
            for q in partitions_le_length(m, n):
                cands = [q]
                if fam == "D" and q[-1] > 0:
                    cands.append(q[:-1] + (-q[-1],))
                for cand in cands:
                    lvl = _dominance_level(spec, lam, cand)
                    if lvl is not None:
                        found.append((lvl, cand))
    found.sort()
    return found


def freudenthal_diagram(spec: AlgebraSpec, lam) -> WeightDiagram:
    """Dominant weight diagram of the irreducible with highest weight ``lam``.

    Every multiplicity comes out of the recursion
    (|lam+rho|^2 - |mu+rho|^2) m(mu) = 2 sum_{a>0} sum_{t>=1} m(mu+ta) <mu+ta, a>,
    processed from the highest weight downwards; lookups of non-dominant
    arguments go through the Weyl canonical form.
    """
    lam = check_weight(spec, lam)
    if not is_dominant(spec, lam):
        raise NotDominant(f"{lam} is not dominant for family {spec.family}")
    lam = canonical_weight(spec, lam)
    geo = _Geometry(spec)
    lam_norm = geo.norm_shifted(lam)
    entries: Dict[Weight, int] = {}
    for level, mu in _dominant_candidates(spec, lam):
        if level == 0:
            entries[canonical_weight(spec, mu)] = 1
            continue
        acc = geo.freudenthal_sum(mu, lambda nu: entries.get(weyl_canonical(spec, nu)))
        denom = lam_norm - geo.norm_shifted(mu)
        if denom <= 0:
            raise AssertionError("non-positive Freudenthal denominator: ordering bug")
        num = 2 * acc
        if num % denom:
            raise AssertionError("non-integral Freudenthal step")
        value = num // denom
        if value < 0:
            raise AssertionError("negative multiplicity from recursion")
        if value:
            entries[canonical_weight(spec, mu)] = value
    return WeightDiagram(spec=spec, highest=lam, entries=entries)


# ---------------------------------------------------------------------------
# convolution oracle


@lru_cache(maxsize=None)
def _compositions_table(n: int, cap: int) -> Tuple[int, ...]:
    """ways[m] = compositions of m into n non-negative ordered parts, m <= cap.

    Built by repeated prefix sums (one per coordinate), so it never
    touches a binomial formula.
    """
    ways = [1] + [0] * cap
    for _ in range(n):
        run = 0
        nxt = []
        for m in range(cap + 1):
            run += ways[m]
            nxt.append(run)
        ways = nxt
    return tuple(ways)


def _sym_power_count(spec: AlgebraSpec, k: int, mu: Weight) -> int:
    """Weight count of mu inside Sym^k of the defining representation.

    B: letters +-e_i and one zero letter; C/D: letters +-e_i only. The
    count is a plain composition count done by dynamic programming.
    """
    rem = k - one_norm(mu)
    if rem < 0:
        return 0
    n = spec.rank
    ways = _compositions_table(n, max(rem // 2, 0))
    if spec.family == "B":
        return sum(ways[: rem // 2 + 1])
    if rem % 2:
        return 0
    return ways[rem // 2]


def _single_row_count(spec: AlgebraSpec, k: int, mu: Weight) -> int:
    """Oracle-side multiplicity of mu in pi_{k e1} for B/C/D (no closed binomial forms)."""
    if k < 0:
        return 0
    if spec.family == "C":
        return _sym_power_count(spec, k, mu)
    # B and D: symmetric power minus the trace part two degrees down
    return _sym_power_count(spec, k, mu) - _sym_power_count(spec, k - 2, mu)


def _tensor_conv(spec: AlgebraSpec, k: int, l: int, mu: Weight) -> int:
    """Direct convolution for the tensor product pi_{k e1} (x) pi_{l e1}."""
    if l < 0 or k < 0:
        return 0
    n = spec.rank
    if spec.family == "A":
        rep = _shift_to_sum(mu, k + l)
        if rep is None:
            return 0
        count = 0
        for eta in product(*(range(min(l, b) + 1) for b in rep)):
            if sum(eta) == l:
                count += 1
        return count
    total = 0
    for eta in product(range(-l, l + 1), repeat=n):
        if one_norm(eta) > l:
            continue
        inner = _single_row_count(spec, l, eta)
        if inner == 0:
            continue
        shifted = tuple(a - b for a, b in zip(mu, eta))
        total += inner * _single_row_count(spec, k, shifted)
    return total


def convolution_mult(spec: AlgebraSpec, k: int, l: int, mu) -> int:
    """Bivariate multiplicity via single-row convolution plus the virtual ring.

    Feasible for moderate l and rank only; this is the brute-force
    cross-check for :func:`bivar.multiplicity.bivariate_mult`.
    """
    k, l = check_highest_weight(k, l)
    mu = check_weight(spec, mu)
    if spec.family == "A":
        return _tensor_conv(spec, k, l, mu) - _tensor_conv(spec, k + 1, l - 1, mu)
    return (
        _tensor_conv(spec, k, l, mu)
        - _tensor_conv(spec, k + 1, l - 1, mu)
        - _tensor_conv(spec, k - 1, l - 1, mu)
        + _tensor_conv(spec, k, l - 2, mu)
    )


def tensor_conv_mult(spec: AlgebraSpec, k: int, l: int, mu) -> int:
    """Direct convolution value for the tensor product (oracle side)."""
    k, l = check_highest_weight(k, l)
    return _tensor_conv(spec, k, l, check_weight(spec, mu))


# ---------------------------------------------------------------------------
# semistandard tableau counting (family A)


def kostka_count(shape, content) -> int:
    """Number of semistandard tableaux of the given shape and content.

    Rows weakly increase, columns strictly increase; entry i appears
    content[i-1] times. Raises ShapeContentMismatch unless the shape is a
    partition (zero rows may trail) and the content fills it exactly.
    """
    shape = as_integers(shape, "shape rows")
    content = as_integers(content, "content entries")
    if any(c < 0 for c in content):
        raise ShapeContentMismatch("content entries must be non-negative")
    if min(shape, default=0) < 0 or any(a < b for a, b in zip(shape, shape[1:])):
        raise ShapeContentMismatch("shape rows must be non-negative and weakly decreasing")
    shape = tuple(a for a in shape if a > 0)  # drop the trailing zero rows
    if sum(content) != sum(shape):
        raise ShapeContentMismatch(
            f"content sums to {sum(content)} but the shape holds {sum(shape)} boxes"
        )
    if not shape:
        return 1

    # backtracking over the cells in reading order, with no recursion (one level
    # per cell would outgrow the recursion limit): the filled cells are the stack
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]
    grid = [[0] * row_len for row_len in shape]
    remaining = list(content)
    values = len(content)
    found = 0
    pos = 0
    while pos >= 0:
        r, c = cells[pos]
        v = grid[r][c]
        if v:  # back at a filled cell: take its value out and try the next one
            remaining[v - 1] += 1
            v += 1
        else:
            v = max(grid[r][c - 1] if c else 1, grid[r - 1][c] + 1 if r else 1)
        while v <= values and not remaining[v - 1]:
            v += 1
        if v > values:
            grid[r][c] = 0
            pos -= 1
        else:
            grid[r][c] = v
            remaining[v - 1] -= 1
            if pos + 1 < len(cells):
                pos += 1
            else:
                found += 1
    return found
