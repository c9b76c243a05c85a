"""Weight multiplicity formulas for highest weights k*e1 + l*e2.

The general entry point is :func:`bivariate_mult`. For families B, C, D
it combines four tensor sums (evaluated by :mod:`bivar.kernel`); for
family A it combines two, read from one product. Closed-form fast paths
cover the single-row case, l = 0/1/2 and the zero weight.

Depth arguments are carried as doubled integers (``r2``), never floats:
the depth (k + l - |mu|)/2 is genuinely half-integral for family B.
"""

from fractions import Fraction

from . import kernel
from .errors import UnsupportedFamily
from .partitions import binom, count_one_norm_sphere
from .root_systems import (
    AlgebraSpec,
    _level_stats,
    algebra,
    check_highest_weight,
    check_weight,
    normalize_a_to_sum,
    one_norm,
    validate,
)


def _bcd_args(spec: AlgebraSpec, k: int, l: int, mu):
    """Arguments (n, d, r2, ell, step) of the B/C/D tensor sums for a checked ``mu``.

    None when every term is 0: the doubled depth r2 is negative, or odd
    for C and D.
    """
    norm, ell = _level_stats(mu, l)
    r2 = k + l - norm
    if r2 < 0 or (spec.family != "B" and r2 % 2):
        return None
    n = spec.rank
    return n, kernel._degree(spec.family, n), r2, ell, 1 if spec.family == "B" else 2


def single_row_mult(spec: AlgebraSpec, k: int, mu) -> int:
    """Multiplicity of ``mu`` in the representation with highest weight k*e1.

    Closed forms per family; zero whenever the depth (k - |mu|)/2 is
    negative, or fails to be an integer for C and D.
    """
    validate(spec)
    k, _ = check_highest_weight(k, 0)
    mu = check_weight(spec, mu)
    n = spec.rank
    fam = spec.family
    if fam == "A":
        return 1 if normalize_a_to_sum(mu, k) is not None else 0
    r2 = k - one_norm(mu)
    if fam != "B" and (r2 < 0 or r2 % 2):
        return 0
    d = kernel._degree(fam, n)
    return binom(r2 // 2 + d, d)


def tensor_mult(spec: AlgebraSpec, k: int, l: int, mu) -> int:
    """Multiplicity of ``mu`` in the tensor product pi_{k e1} (x) pi_{l e1}."""
    validate(spec)
    k, l = check_highest_weight(k, l)
    mu = check_weight(spec, mu)
    n = spec.rank
    fam = spec.family
    if fam == "A":
        rep = normalize_a_to_sum(mu, k + l)
        if rep is None:
            return 0
        return kernel.tensor_sum_a(n, l, _level_stats(rep, l)[1])
    args = _bcd_args(spec, k, l, mu)
    if args is None:
        return 0
    n, d, r2, ell, step = args
    return kernel.tensor_sum_bcd(n, d, l, r2, ell, step)


def bivariate_mult(spec: AlgebraSpec, k: int, l: int, mu) -> int:
    """Multiplicity of ``mu`` in the irreducible with highest weight k*e1 + l*e2."""
    validate(spec)
    k, l = check_highest_weight(k, l)
    mu = check_weight(spec, mu)
    n = spec.rank
    fam = spec.family
    if fam == "A":
        rep = normalize_a_to_sum(mu, k + l)
        if rep is None or max(rep) > k:
            return 0
        # counted on the representative whose sum is k + l, as the formula wants
        return kernel.bivariate_sum_a(n, l, _level_stats(rep, l)[1])

    args = _bcd_args(spec, k, l, mu)
    if args is None:
        return 0
    n, d, r2, ell, step = args
    # virtual-ring combination: the four tensor factors at depths r, r, r-1, r-1
    return kernel.bivariate_sum_bcd(n, d, l, r2, ell, step)


def zero_weight_mult(spec: AlgebraSpec, k: int, l: int) -> int:
    """Zero-weight multiplicity via the closed single-sum expressions (B/C/D)."""
    validate(spec)
    k, l = check_highest_weight(k, l)
    n = spec.rank
    fam = spec.family
    if fam == "A":
        raise UnsupportedFamily("the zero-weight closed form covers families B, C, D only")
    if fam != "B" and (k + l) % 2:
        return 0
    total = Fraction(0)
    for upper in range(l + 1):
        sign = -1 if (upper + l) % 2 else 1
        sphere = count_one_norm_sphere(n, upper)
        if fam == "B":
            half_l = (l - upper) // 2
            half_k = (k + 1 - upper) // 2
            if (k + l) % 2 == 0:
                factor = 1 - Fraction(half_l * half_k,
                                      (half_l + n - 1) * (half_k + n - 1))
            else:
                factor = (Fraction(half_k, half_k + n - 1)
                          - Fraction(half_l, half_l + n - 1))
            total += sign * factor * binom(half_l + n - 1, n - 1) \
                * binom(half_k + n - 1, n - 1) * sphere
        else:
            # C uses the D-style correction at rank n+1 and degree n-1
            m = n + 1 if fam == "C" else n
            d = kernel._degree(fam, n)
            if (upper + l) % 2 == 0:
                factor = Fraction(l - upper + m - 2, l - upper + 2 * m - 4)
            else:
                factor = Fraction(k + 1 - upper + m - 2, k + 1 - upper + 2 * m - 4)
            total += 2 * sign * factor * binom((l - upper) // 2 + d, d) \
                * binom((k - upper + 1) // 2 + d, d) * sphere
    if total.denominator != 1:
        raise AssertionError("zero-weight sum did not come out integral")
    return int(total)


def l1_mult(spec: AlgebraSpec, k: int, mu) -> int:
    """Fast path for l = 1, agreeing with :func:`bivariate_mult` on all families."""
    validate(spec)
    k, _ = check_highest_weight(k, 1)
    mu = check_weight(spec, mu)
    n = spec.rank
    fam = spec.family
    if fam == "A":
        rep = normalize_a_to_sum(mu, k + 1)
        if rep is None or max(rep) > k:
            return 0
        zeros = sum(1 for b in rep if b == 0)
        return n - zeros
    norm, (ell0,) = _level_stats(mu, 1)
    r2 = k + 1 - norm
    if r2 < 0:
        return 0
    d = kernel._degree(fam, n)
    if fam == "B":
        return (
            binom((r2 - 1) // 2 + d, d)
            + (n + ell0) * binom((r2 - 2) // 2 + d, d)
            + (n - ell0) * binom((r2 - 2) // 2 + 1 + d, d)
            - binom(r2 // 2 + d, d)
            - binom((r2 - 2) // 2 + d, d)
        )
    if r2 % 2:
        return 0
    r = r2 // 2
    return (n + ell0 - 1) * binom(r - 1 + d, d) + (n - ell0 - 1) * binom(r + d, d)


def l2_mult_d(n: int, k: int, mu) -> int:
    """Closed form for family D with l = 2 (three binomials in r, l_0, l_1)."""
    spec = algebra("D", n)
    k, _ = check_highest_weight(k, 2)
    mu = check_weight(spec, mu)
    r2 = k + 2 - one_norm(mu)
    if r2 < 0 or r2 % 2:
        return 0
    r = r2 // 2
    _, (ell0, ell1) = _level_stats(mu, 2)
    open_pairs = binom(n - ell0, 2)
    return (
        binom(r + n - 4, n - 2) * (2 * ell0 * (n - 1) + open_pairs)
        + binom(r + n - 3, n - 2)
        * (2 * ell0 * (n - ell0) + ell1 - n + 2 * open_pairs)
        + binom(r + n - 2, n - 2) * (open_pairs - ell1)
    )


def l2_mult_a(n: int, k: int, mu) -> int:
    """Closed form for family A with l = 2: C(n+1-l_0, 2) - l_1."""
    spec = algebra("A", n)
    k, _ = check_highest_weight(k, 2)
    mu = check_weight(spec, mu)
    rep = normalize_a_to_sum(mu, k + 2)
    if rep is None or max(rep) > k:
        return 0
    ell0 = sum(1 for b in rep if b == 0)
    ell1 = sum(1 for b in rep if b == 1)
    return binom(n + 1 - ell0, 2) - ell1
