"""Root-system and Weyl-group facts for the classical families A, B, C, D.

Weights are plain integer tuples in the epsilon-coordinate basis: length
``n`` for families B, C and D, length ``n + 1`` for family A. Two type-A
tuples describe the same weight exactly when they differ by a constant
shift; the canonical representative subtracts the minimum coordinate so
that it can serve as a dictionary key.

Orbit generation for B/C/D uses the full hyperoctahedral group
W_n = Sym(n) x {+-1}^n (signed permutations). For family D this strictly
contains the Weyl group, which only allows an even number of sign flips;
that is deliberate and multiplicity-safe for the highest weights handled
by this package (k*e1 + l*e2 with n >= 3), where the mirror weight
(a_1, ..., -a_n) always carries the same multiplicity as
(a_1, ..., a_n). True Weyl-group canonical forms, needed by exact
recursions, are available separately as :func:`weyl_canonical`.
"""

import operator
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from math import perm

from .errors import (
    InvalidHighestWeight,
    LengthMismatch,
    NotAnInteger,
    NotDominant,
    RankOutOfRange,
)

Weight = tuple[int, ...]

_MIN_RANK = {"A": 2, "B": 2, "C": 2, "D": 3}
_INT = {int}  # the one coordinate type as_integers takes as it is


def as_integers(values: Iterable, what: str) -> tuple[int, ...]:
    """Tuple of ``values`` as exact ints, taken with ``operator.index``.

    Floats, strings, bools and other non-integral values raise
    :class:`NotAnInteger` instead of being truncated, parsed or read as 1 and 0.
    """
    try:
        coords = tuple(values)
        kinds = set(map(type, coords))
        if kinds <= _INT:
            return coords
        if bool in kinds:
            raise TypeError
        return tuple(map(operator.index, coords))
    except TypeError:
        raise NotAnInteger(f"{what} must be integers, got {values!r}") from None


def check_highest_weight(k: int, l: int) -> tuple[int, int]:
    """Return (k, l) as ints, raising unless k >= l >= 0."""
    k, l = as_integers((k, l), "k and l")
    if not (k >= l >= 0):
        raise InvalidHighestWeight(f"need k >= l >= 0, got k = {k}, l = {l}")
    return k, l


@dataclass(frozen=True)
class AlgebraSpec:
    """A classical family label (A/B/C/D) together with the rank n, checked once when built.

    The rank must be an integer (else :class:`NotAnInteger`) and is stored
    as an int; the family must be A, B, C or D and the rank at least 2
    (A/B/C) or 3 (D) (else :class:`RankOutOfRange`). So every spec is
    valid and no function that takes one checks it again.
    """

    family: str
    rank: int

    def __post_init__(self):
        (rank,) = as_integers((self.rank,), "rank")
        object.__setattr__(self, "rank", rank)
        if self.family not in _MIN_RANK:
            raise RankOutOfRange(f"unknown family {self.family!r}; expected one of A, B, C, D")
        low = _MIN_RANK[self.family]
        if rank < low:
            raise RankOutOfRange(
                f"rank out of range: family {self.family} requires n >= {low}, got n = {rank}"
            )


def algebra(family: str, rank: int) -> AlgebraSpec:
    """The :class:`AlgebraSpec` of ``family`` (any case) and ``rank``."""
    return AlgebraSpec(str(family).upper(), rank)


def weight_length(spec: AlgebraSpec) -> int:
    return spec.rank + 1 if spec.family == "A" else spec.rank


def check_weight(spec: AlgebraSpec, mu: Sequence[int]) -> Weight:
    """Coerce ``mu`` to an integer tuple of the correct length."""
    coords = as_integers(mu, "weight coordinates")
    expect = weight_length(spec)
    if len(coords) != expect:
        raise LengthMismatch(
            f"length mismatch: family {spec.family} rank {spec.rank} weights "
            f"have {expect} coordinates, got {len(coords)}"
        )
    return coords


def canonical_weight(spec: AlgebraSpec, mu: Sequence[int]) -> Weight:
    """Canonical tuple usable as a dict key (type A: minimum coordinate 0)."""
    coords = check_weight(spec, mu)
    if spec.family == "A":
        low = min(coords)
        if low:
            coords = tuple(a - low for a in coords)
    return coords


def highest_weight(spec: AlgebraSpec, k: int, l: int) -> Weight:
    """Coordinates of k*e1 + l*e2 (k >= l >= 0)."""
    k, l = check_highest_weight(k, l)
    return (k, l) + (0,) * (weight_length(spec) - 2)


def one_norm(mu: Sequence[int]) -> int:
    return sum(abs(a) for a in mu)


def weight_stats(spec: AlgebraSpec, mu: Sequence[int], l: int) -> tuple[int, tuple[int, ...]]:
    """One-norm of ``mu`` and the level counts (l_0, ..., l_{l-1}).

    l_t counts coordinates of absolute value t; for family A absolute
    values are taken after normalizing the minimum coordinate to 0, so
    they are plain values.
    """
    (l,) = as_integers((l,), "l")
    levels = [abs(a) for a in canonical_weight(spec, mu)]
    return sum(levels), tuple(map(levels.count, range(l)))


def dominant_representative(spec: AlgebraSpec, mu: Sequence[int]) -> Weight:
    """W_n-canonical form: absolute values sorted weakly decreasing.

    For family A the coordinates themselves (shift-normalized) are
    sorted. For family D this is the canonical form under the full
    hyperoctahedral group, which identifies a weight with its mirror.
    """
    coords = canonical_weight(spec, mu)
    if spec.family == "A":
        return tuple(sorted(coords, reverse=True))
    return tuple(sorted((abs(a) for a in coords), reverse=True))


def weyl_canonical(spec: AlgebraSpec, mu: Sequence[int]) -> Weight:
    """Canonical form under the actual Weyl group of the family.

    Identical to :func:`dominant_representative` except for family D,
    where only an even number of sign flips is allowed: with no zero
    coordinate available to absorb parity, an odd number of negative
    entries leaves a minus sign on the smallest coordinate.
    """
    if spec.family != "D":
        return dominant_representative(spec, mu)
    coords = check_weight(spec, mu)  # a tuple: the sign count reads it a second time
    body = dominant_representative(spec, coords)
    if body[-1] and sum(a < 0 for a in coords) % 2:
        return body[:-1] + (-body[-1],)
    return body


def is_dominant(spec: AlgebraSpec, mu: Sequence[int]) -> bool:
    """Dominance: weakly decreasing coordinates, then B/C ``a_n >= 0``, D ``a_{n-1} >= |a_n|``."""
    return _dominant(spec.family, check_weight(spec, mu))


def _dominant(family: str, coords: Weight) -> bool:  # coords: as check_weight returns them
    if not all(map(operator.ge, coords, coords[1:])):
        return False
    if family == "D":
        return coords[-2] >= abs(coords[-1])
    return family == "A" or coords[-1] >= 0


def _expand_orbits(spec: AlgebraSpec, rows: Iterable[tuple[Sequence[int], object]],
                   leaf: Callable[[object], object], fuse: Callable[[list], object]) -> list:
    """Every orbit of the dominant ``rows`` in lexicographic order.

    ``rows`` holds (mu, m) pairs, each mu dominant (:func:`is_dominant`)
    with, for B/C/D, ``a_n >= 0``, and no two alike; all are checked before
    this returns (else :class:`NotDominant` or ``ValueError``).

    Below a prefix w_1..w_j what may follow depends only on the multiset
    of |w_1|..|w_j| (family A: of the values themselves), so it is built
    once per multiset: from the rows' own multisets, which hold
    ``leaf(m)``, down to the empty one. A multiset holds ``fuse(order)``,
    ``order`` being its (v, child) pairs for v from -max up to max (B/C/D)
    or upward (A), child being what the multiset with one |v| more holds;
    ``fuse`` joins them or keeps the pairs as a node. The empty
    multiset's pairs are returned as they are.

    It is the one orbit walk: :func:`orbit` reads one orbit from it as
    tuples, ``weight_tables.build_table`` a full table's rows and
    ``cli.table_text`` a full table's text. This module handles no bytes.
    """
    signed = spec.family != "A"
    level = {}  # multiset, as an ascending tuple -> what may follow it
    for mu, m in rows:
        coords = check_weight(spec, mu)
        if not _dominant(spec.family, coords) or (signed and coords[-1] < 0):
            raise NotDominant(f"weight {coords} is not a sorted non-negative representative")
        key = coords[::-1]
        if key in level:
            raise ValueError(f"weight {coords} appears twice")
        level[key] = leaf(m)
    for _ in range(weight_length(spec)):
        children = {}
        for key, value in level.items():
            for i, a in enumerate(key):
                if i == 0 or key[i - 1] != a:
                    children.setdefault(key[:i] + key[i + 1:], {})[a] = value
        level = {}
        for key, kids in children.items():
            order = sorted(kids.items())
            if signed:
                order = [(-a, value) for a, value in reversed(order) if a] + order
            level[key] = fuse(order) if key else order
    return level.get((), [])  # no rows: no multiset ever reaches ()


def _fuse_tuples(order: list) -> list:
    return [(v,) + w for v, tails in order for w in tails]


def orbit(spec: AlgebraSpec, mu: Sequence[int]) -> tuple[Weight, ...]:
    """Full orbit of a dominant weight, sorted lexicographically.

    B/C/D: all signed permutations of the coordinates (group W_n);
    A: all permutations of the coordinates as given, all with the same
    sum (pass :func:`canonical_weight` of mu for min-0 members).
    Duplicates from zero or repeated coordinates are never produced twice.
    """
    return tuple(_fuse_tuples(_expand_orbits(spec, [(mu, None)], lambda m: [()], _fuse_tuples)))


def orbit_size(spec: AlgebraSpec, mu: Sequence[int]) -> int:
    """Size of the orbit produced by :func:`orbit`, computed without enumeration."""
    return _orbit_size(spec.family, canonical_weight(spec, mu), False)


def weyl_orbit_size(spec: AlgebraSpec, mu: Sequence[int]) -> int:
    """Orbit size under the actual Weyl group.

    Differs from :func:`orbit_size` only for family D weights with no
    zero coordinate, whose hyperoctahedral orbit splits into the orbit of
    the weight and the orbit of its mirror.
    """
    return _orbit_size(spec.family, canonical_weight(spec, mu), True)


def _orbit_size(family: str, coords: Weight, weyl: bool) -> int:
    # orbit_size (weyl_orbit_size if ``weyl``) of coordinates already checked: the
    # placements of the nonzero parts, over the orderings within each run of equal
    # parts, times a sign per nonzero part for B/C/D. The cost is a sort, with the
    # arithmetic in the nonzero parts alone.
    values = sorted(coords) if family == "A" else sorted(map(abs, coords))
    start = bisect_left(values, 0)
    parts = values[:start] + values[bisect_right(values, 0, start):]
    size, run = perm(len(values), len(parts)), 1
    for before, a in zip(parts, parts[1:]):
        run = run + 1 if a == before else 1
        size //= run  # exact: a run of r divides by 2, ..., r in turn
    if family == "A":
        return size
    size <<= len(parts)
    return size // 2 if weyl and family == "D" and len(parts) == len(values) else size


def positive_roots(spec: AlgebraSpec) -> tuple[Weight, ...]:
    """Positive roots as coordinate tuples (length n, or n+1 for A).

    The list serves ``weight_tables.freudenthal_table``; :func:`weyl_dimension`
    builds none.
    """
    n = spec.rank
    fam = spec.family
    roots = []
    if fam == "A":
        m = n + 1
        for i in range(m):
            for j in range(i + 1, m):
                root = [0] * m
                root[i], root[j] = 1, -1
                roots.append(tuple(root))
        return tuple(roots)
    for i in range(n):
        for j in range(i + 1, n):
            minus = [0] * n
            minus[i], minus[j] = 1, -1
            roots.append(tuple(minus))
            plus = [0] * n
            plus[i], plus[j] = 1, 1
            roots.append(tuple(plus))
    if fam == "B":
        for i in range(n):
            short = [0] * n
            short[i] = 1
            roots.append(tuple(short))
    elif fam == "C":
        for i in range(n):
            lng = [0] * n
            lng[i] = 2
            roots.append(tuple(lng))
    return tuple(roots)


def simple_roots(spec: AlgebraSpec) -> tuple[Weight, ...]:
    """Simple roots in the standard ordering for each family."""
    n = spec.rank
    fam = spec.family
    out = []
    length = weight_length(spec)
    for i in range(n - 1):
        root = [0] * length
        root[i], root[i + 1] = 1, -1
        out.append(tuple(root))
    last = [0] * length
    if fam == "A":
        last[n - 1], last[n] = 1, -1
    elif fam == "B":
        last[n - 1] = 1
    elif fam == "C":
        last[n - 1] = 2
    else:  # D
        last[n - 2], last[n - 1] = 1, 1
    out.append(tuple(last))
    return tuple(out)


def rho_twice(spec: AlgebraSpec) -> Weight:
    """Twice the half-sum of positive roots, as an integer tuple.

    For family A this is a representative of the shift class (2n, 2n-2,
    ..., 0); the half-sum itself is half-integral for B.
    """
    n = spec.rank
    fam = spec.family
    if fam == "A":
        return tuple(2 * (n - i) for i in range(n + 1))
    if fam == "B":
        return tuple(2 * (n - i) - 1 for i in range(n))
    if fam == "C":
        return tuple(2 * (n - i) for i in range(n))
    return tuple(2 * (n - i - 1) for i in range(n))


def _shift_to_sum(coords: Weight, target: int) -> Weight | None:
    # checked type-A coordinates shifted to sum to ``target``; None when no shift
    # does (the defect is only defined modulo the length) or one leaves a negative
    shift, rest = divmod(target - sum(coords), len(coords))
    shifted = tuple(map(shift.__add__, coords)) if shift else coords
    return None if rest or min(shifted) < 0 else shifted


def weyl_dimension(spec: AlgebraSpec, k: int, l: int) -> int:
    """Dimension of the irreducible with highest weight k*e1 + l*e2.

    Weyl's product over positive roots, prod <lambda + rho, alpha> / <rho,
    alpha>, evaluated in exact integer arithmetic with every coordinate
    doubled (which clears the half-integral half-sum of B). A root that
    touches neither of the first two coordinates gives a factor of 1. Over
    the roots e_1 -+ e_j (e_2 -+ e_j), j > 2, the values 2 rho_j form a run
    of step 2, so their factors telescope to k (l) terms for each sign: the
    cost is O(k + l) small factors and an O(n) rho, with no list of roots.
    """
    k, l = check_highest_weight(k, l)
    rho2 = rho_twice(spec)
    r0, r1 = rho2[0], rho2[1]
    t0, t1 = r0 + 2 * k, r1 + 2 * l
    # 2 rho_j over j > 2 is lo, lo + 2, ..., hi (empty, hi = lo - 2, at B2 and C2)
    lo, hi = rho2[-1], r1 - 2
    num, den = t0 - t1, r0 - r1  # e_1 - e_2
    runs = [(-hi, -lo)] if spec.family == "A" else [(-hi, -lo), (lo, hi)]
    for start, shift in ((r0, 2 * k), (r1, 2 * l)):
        # prod over s in the run of (start + shift + s) / (start + s): all
        # cancels but the shift / 2 terms past the run's top over the shift / 2
        # from its foot
        for low, high in runs:
            for j in range(0, shift, 2):
                num *= start + high + 2 + j
                den *= start + low + j
    if spec.family != "A":
        num *= t0 + t1  # e_1 + e_2
        den *= r0 + r1
    if spec.family in "BC":
        num *= t0 * t1  # e_1 and e_2, or 2 e_1 and 2 e_2
        den *= r0 * r1
    if num % den:
        raise AssertionError("Weyl dimension did not come out integral")
    return num // den
