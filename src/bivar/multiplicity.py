"""Weight multiplicity formulas for highest weights k*e1 + l*e2.

The general entry point is :func:`bivariate_mult`. For families B, C, D
it combines four tensor sums; for family A it combines two. :mod:`bivar.kernel`
reads either from one product. :func:`tensor_mult` gives the tensor-product
multiplicity, and closed-form fast paths cover the single-row case,
l = 0/1/2 and the zero weight. Every entry point here checks its inputs and
decides whether a weight can occur, and at what depth, by one rule,
:func:`_support`, which hands on the weight's |mu_i|. So a query is two calls:
the support pass and :func:`bivar.kernel.weight_sum`, which takes the family,
picks its packing and counts the levels over the weight's nonzero parts as it
multiplies. The closed forms count l_0 and l_1 from the |mu_i| themselves.
``cli.table_from_json``, which has checked each row already, applies the same
rule through :func:`_checked_support`.

Depth arguments are carried as doubled integers (``r2``), never floats:
the depth (k + l - |mu|)/2 is genuinely half-integral for family B.
"""

from . import kernel
from .errors import UnsupportedFamily
from .partitions import binom, count_one_norm_sphere
from .root_systems import (
    AlgebraSpec,
    _shift_to_sum,
    algebra,
    check_highest_weight,
    check_weight,
)


def _support(spec: AlgebraSpec, k: int, l: int, mu, tensor: bool = False):
    """(l, r2, levels) of ``mu`` in the sums for k*e1 + l*e2; None when every term is 0.

    The input checks and the one support rule of every single-weight entry point.
    k and l are checked before ``mu`` (k >= l >= 0, then ints of the length of
    ``spec``'s weights). r2 = k + l - |mu|_1 is the doubled depth and
    ``levels`` the list of |mu_i|, from which the kernel and the closed forms
    count the level counts l_a they need. Type A reads the representative
    summing to k + l, so r2 = 0 and ``levels`` is that representative. None
    when r2 < 0, when r2 is odd for C and D, when some |mu_i| exceeds the cap
    (k for the irreducible and the closed forms, k + l for the ``tensor``
    product) or, for A, when no non-negative representative sums to k + l.
    """
    k, l = check_highest_weight(k, l)
    return _checked_support(spec.family, k, l, check_weight(spec, mu), tensor)


def _checked_support(family: str, k: int, l: int, mu, tensor: bool = False):
    """:func:`_support` of k, l and ``mu`` as its checks return them, checking nothing."""
    if family == "A":
        mu = _shift_to_sum(mu, k + l)
        if mu is None:
            return None
    levels = list(map(abs, mu))
    norm = sum(levels)
    r2 = k + l - norm
    if r2 < 0 or (r2 % 2 and family in ("C", "D")):
        return None
    cap = k + l if tensor else k
    # |mu_i| <= |mu|_1: only a one-norm past the cap can put a coordinate past it
    if norm > cap and max(levels) > cap:
        return None
    return l, r2, levels


def single_row_mult(spec: AlgebraSpec, k: int, mu) -> int:
    """Multiplicity of ``mu`` in the representation with highest weight k*e1.

    1 for family A, binom(r2 // 2 + d, d) for B/C/D; 0 off the support.
    """
    support = _support(spec, k, 0, mu)
    if support is None:
        return 0
    _, r2, _ = support
    if spec.family == "A":
        return 1
    d = kernel._degree(spec.family, spec.rank)
    return binom(r2 // 2 + d, d)


def tensor_mult(spec: AlgebraSpec, k: int, l: int, mu) -> int:
    """Multiplicity of ``mu`` in the tensor product pi_{k e1} (x) pi_{l e1}."""
    support = _support(spec, k, l, mu, tensor=True)
    if support is None:
        return 0
    l, r2, levels = support
    return kernel.weight_sum(spec.family, spec.rank, l, r2, levels, virtual=False)


def bivariate_mult(spec: AlgebraSpec, k: int, l: int, mu) -> int:
    """Multiplicity of ``mu`` in the irreducible with highest weight k*e1 + l*e2."""
    support = _support(spec, k, l, mu)
    if support is None:
        return 0
    l, r2, levels = support
    # the virtual-ring combination, of four tensor sums (B/C/D) or two (A), sits in the
    # root of the kernel's one product
    return kernel.weight_sum(spec.family, spec.rank, l, r2, levels)


def zero_weight_mult(spec: AlgebraSpec, k: int, l: int) -> int:
    """Zero-weight multiplicity via the closed single-sum expressions (B/C/D)."""
    k, l = check_highest_weight(k, l)
    n = spec.rank
    fam = spec.family
    if fam == "A":
        raise UnsupportedFamily("the zero-weight closed form covers families B, C, D only")
    if _support(spec, k, l, (0,) * n) is None:
        return 0
    d = kernel._degree(fam, n)
    total = 0
    for upper in range(l + 1):
        # the closed form's factors h / (h + d) go into its binomials by
        # C(h + d, d) h / (h + d) = C(h + d - 1, d), so every term is an integer
        hl, hk = (l - upper) // 2, (k + 1 - upper) // 2
        l_up, l_down = binom(hl + d, d), binom(hl + d - 1, d)
        k_up, k_down = binom(hk + d, d), binom(hk + d - 1, d)
        if fam == "B":
            if (k + l) % 2 == 0:
                term = l_up * k_up - l_down * k_down
            else:
                term = k_down * l_up - l_down * k_up
        elif (upper + l) % 2 == 0:
            # C uses the D-style correction at rank n+1; its factor 2 is absorbed
            term = (l_up + l_down) * k_up
        else:
            term = (k_up + k_down) * l_up
        sign = -1 if (upper + l) % 2 else 1
        total += sign * term * count_one_norm_sphere(n, upper)
    return total


def l1_mult(spec: AlgebraSpec, k: int, mu) -> int:
    """Fast path for l = 1, agreeing with :func:`bivariate_mult` on all families."""
    support = _support(spec, k, 1, mu)
    if support is None:
        return 0
    _, r2, levels = support
    ell0 = levels.count(0)
    n = spec.rank
    fam = spec.family
    if fam == "A":
        return n - ell0
    d = kernel._degree(fam, n)
    if fam == "B":
        return (
            binom((r2 - 1) // 2 + d, d)
            + (n + ell0) * binom((r2 - 2) // 2 + d, d)
            + (n - ell0) * binom((r2 - 2) // 2 + 1 + d, d)
            - binom(r2 // 2 + d, d)
            - binom((r2 - 2) // 2 + d, d)
        )
    r = r2 // 2
    return (n + ell0 - 1) * binom(r - 1 + d, d) + (n - ell0 - 1) * binom(r + d, d)


def l2_mult_d(n: int, k: int, mu) -> int:
    """Closed form for family D with l = 2 (three binomials in r, l_0, l_1)."""
    spec = algebra("D", n)
    support = _support(spec, k, 2, mu)
    if support is None:
        return 0
    _, r2, levels = support
    ell0, ell1 = levels.count(0), levels.count(1)
    r = r2 // 2
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
    support = _support(spec, k, 2, mu)
    if support is None:
        return 0
    _, _, levels = support
    ell0, ell1 = levels.count(0), levels.count(1)
    return binom(n + 1 - ell0, 2) - ell1
