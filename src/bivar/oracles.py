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

All arithmetic is exact integer arithmetic: the recursion's |mu+rho|^2 -
|rho|^2 and root pairings are integers for every family, rho half-integral or not.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

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
    rho_twice,
    weyl_canonical,
)

Weight = tuple[int, ...]


# ---------------------------------------------------------------------------
# Freudenthal recursion over dominant weights


@dataclass
class WeightDiagram:
    """Dominant weights of one irreducible with their multiplicities."""

    spec: AlgebraSpec
    highest: Weight
    entries: dict[Weight, int] = field(default_factory=dict)

    def multiplicity(self, mu) -> int:
        return self.entries.get(weyl_canonical(self.spec, mu), 0)


def freudenthal_diagram(spec: AlgebraSpec, lam) -> WeightDiagram:
    """Dominant weight diagram of the irreducible with highest weight ``lam``.

    Every multiplicity comes out of Freudenthal's recursion in the form of
    R. V. Moody and J. Patera (Bull. AMS 7, 1982): for dominant mu,
    (|lam+rho|^2 - |mu+rho|^2) m(mu) = sum_a w(a) sum_{t>=1} m(mu+ta) (mu+ta, a)
    over all roots a, where w(a) is 2, 1 or 0 as (mu, a) is positive, zero
    or negative. A weight is kept as its nonzero parts, and the roots are
    summed by class: e_i - e_j (A) and +-e_i +-e_j (B/C/D) by the values of
    mu at i and j and the signs, +-e_i (B) and +-2e_i (C) by the value at i
    and the sign. So the cost of a weight does not grow with the rank.

    The candidates are the dominant weights of one-norm at most |lam|_1 in
    the root-lattice class of lam (A: the partitions of its sum), taken by
    |mu+rho|^2, highest first. One that is not a weight has nothing above
    it along a root with w(a) > 0, so its sum is 0 and it is dropped.
    Entries are keyed by the full-length Weyl canonical form
    (:func:`bivar.root_systems.weyl_canonical`), D mirrors included.
    """
    lam = check_weight(spec, lam)
    if not is_dominant(spec, lam):
        raise NotDominant(f"{lam} is not dominant for family {spec.family}")
    lam = canonical_weight(spec, lam)
    fam, size, top = spec.family, len(lam), one_norm(lam)
    rho2 = rho_twice(spec)
    # the roots: e_i - e_j (A) or +-e_i +-e_j by their signs at (i, j), then +-e_i (B), +-2e_i (C)
    signs = ((1, -1), (-1, 1)) if fam == "A" else ((1, 1), (1, -1), (-1, 1), (-1, -1))
    lone = {"B": (1, -1), "C": (2, -2)}.get(fam, ())

    def norm(parts):  # |mu+rho|^2 - |rho|^2 of the weight whose leading coordinates are parts
        return sum(a * (a + r) for a, r in zip(parts, rho2))

    def lookup(parts):  # m of the weight whose coordinates are parts and zeros
        body = sorted(filter(None, parts if fam == "A" else map(abs, parts)), reverse=True)
        if fam == "D" and len(body) == size and sum(a < 0 for a in parts) % 2:
            body[-1] = -body[-1]  # the rule of weyl_canonical
        # A keys are partitions of |lam|_1: a weight with a negative part is none, and reads 0
        return mult.get(tuple(body), 0)

    def string(parts, moved):
        # w(a) sum_{t>=1} m(mu+ta) (mu+ta, a) for a root a that has coefficient c
        # on a coordinate where mu holds v, for each (v, c) of moved, and 0 elsewhere
        height = sum(v * c for v, c in moved)  # (mu, a)
        if height < 0:
            return 0
        length = sum(c * c for _, c in moved)  # (a, a)
        rest = list(parts)
        for v, _ in moved:
            if v:
                rest.remove(v)
        acc, t = 0, 1
        while m := lookup(rest + [v + t * c for v, c in moved]):
            acc += m * (height + t * length)
            t += 1
        return 2 * acc if height else acc

    def root_sum(parts):
        counts = Counter(parts)
        counts[0] = size - len(parts)
        total = 0
        for a, b in product(counts, repeat=2):
            pairs = counts[a] * (counts[b] - (a == b))
            if pairs:
                total += pairs * sum(string(parts, ((a, sa), (b, sb))) for sa, sb in signs)
        total //= 2  # ordered pairs of coordinates meet each of these roots twice
        return total + sum(c * string(parts, ((a, s),)) for a, c in counts.items() if c for s in lone)

    step = 2 if fam in "CD" else 1  # the roots of C and D have even coordinate sums
    candidates = []
    for m in (top,) if fam == "A" else range(top % step, top + 1, step):
        for q in partitions_le_length(m, min(size, top)):
            parts = tuple(filter(None, q))
            candidates.append(parts)
            if fam == "D" and len(parts) == size:
                candidates.append(parts[:-1] + (-parts[-1],))
    candidates.sort(key=norm, reverse=True)

    lam_parts = tuple(filter(None, lam))
    lam_norm = norm(lam_parts)
    mult = {lam_parts: 1}
    for parts in candidates:
        acc = root_sum(parts)
        if not acc:
            continue  # not a weight, or lam itself
        denom = lam_norm - norm(parts)
        if denom <= 0:
            raise AssertionError("non-positive Freudenthal denominator: ordering bug")
        if acc % denom:
            raise AssertionError("non-integral Freudenthal step")
        value = acc // denom
        if value < 0:
            raise AssertionError("negative multiplicity from recursion")
        mult[parts] = value
    entries = {canonical_weight(spec, parts + (0,) * (size - len(parts))): m
               for parts, m in mult.items()}
    return WeightDiagram(spec=spec, highest=lam, entries=entries)


# ---------------------------------------------------------------------------
# convolution oracle


@lru_cache(maxsize=None)
def _compositions_table(n: int, cap: int) -> tuple[int, ...]:
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
