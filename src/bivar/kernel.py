"""Evaluation of the tensor weight sums.

The two tensor sums here carry the hot inner loop of every
multiplicity. Everything is exact: loop bookkeeping is small ints,
accumulated values are arbitrary precision.

Each sum reads one packed product per weight, one factor per coordinate
chosen by its level. Apart from that product a sum sees the weight only
through its coordinate count f, so the digit width, the factors and the
fold maps are built once per key, cached, and read by every sum. For B/C/D
the product holds the blocks N <= l of the sum (:func:`_packing`); one
more multiply folds the four tensor sums of the virtual-ring combination
into one vector C, mult = sum_j C_j binom(r2 // 2 + j - l + d, d), which
depends on the depth only through the parity of r2. For A the sum is the
y^l coefficient of the product of g_a = 1 + y + ... + y^min(a, l), and the
combination subtracts its y^(l-1) one (:func:`_packing_a`). A dominant
table is one walk (:func:`dominant_rows`) that carries the product from
coordinate to coordinate and folds each distinct one once.

The half-integral depth parameter ``r`` is passed as its doubled value
``r2`` so floors are plain integer division; no floats appear anywhere.
"""

from functools import lru_cache
from math import comb
from operator import mul

# Recorded in MultiplicityTable.meta and in the benchmark's provenance
# (perfbench/run.py), which refuses to compare runs of different kernels.
BACKEND = "pure"


def _degree(family, n):
    # binomial degree of the single-row counts: n - 1 for B and C, n - 2 for D
    return n - 2 if family == "D" else n - 1


def tensor_sum_bcd(n, d, l, r2, ell, step):
    """Tensor weight sum for families B/C/D.

    n: rank; d: binomial degree (n-1 for B and C, n-2 for D); l: degree
    of the smaller tensor factor; r2: twice the depth r; ell: level
    counts (l_0, ..., l_{l-1}) -- entries beyond index l-1 are ignored;
    step: 1 sums over every N <= l, 2 restricts to N == l (mod 2).
    Returns 0 for negative l.
    """
    return _evaluate(fold_bcd(n, d, l, ell, step, r2 % 2, False), d, l, r2)


def bivariate_sum_bcd(n, d, l, r2, ell, step):
    """tensor_sum_bcd at (l, r2) - (l - 1, r2) - (l - 1, r2 - 2) + (l - 2, r2 - 2)."""
    return _evaluate(fold_bcd(n, d, l, ell, step, r2 % 2), d, l, r2)


def fold_bcd(n, d, l, ell, step, parity, virtual=True):
    """C of :func:`bivariate_sum_bcd` (:func:`tensor_sum_bcd` if not ``virtual``)
    for r2 of this parity: C_i multiplies binom(r2 // 2 + i - l + d, d)."""
    if l < 0:
        return ()
    _, mask, factors, maps = _packing(max(n, sum(ell[:l]), 1), d, l, step)
    return maps[virtual][parity](_product(mask, factors, n, l, ell))


@lru_cache(maxsize=None)
def _packing(f, d, l, step):
    # What a B/C/D sum over f coordinates needs besides the weight: digit width,
    # mask to y-degree <= l, factors f_0..f_l and fold maps [virtual][r2 % 2].
    # The product F of f_a = 1 + sum_{b >= 1} y^b (1 + x^min(a, b)), one per
    # coordinate at level a (levels l and up act as l), packed at x = 2**bits,
    # y = 2**((l + 1) bits) and masked to y^l: digit N (l + 1) + m counts the nu
    # in Z^f of one-norm N whose overlap with mu, the sum of min(|mu_i|, |nu_i|)
    # where mu_i and nu_i share a sign, is m. Block N needs ell[:N] alone, as f_a
    # and f_N agree up to y^N for a >= N. No digit carries: they hold a sign and
    # every coefficient to y^l, at most sum_N 4 binom((l - N) // 2 + d, d) E_N,
    # where E_N = 2^min(f, N) C(f + N - 1, N) bounds the points of one-norm N
    bits = (8 * sum(comb((l - big_n) // 2 + d, d) * comb(f + big_n - 1, big_n) << min(f, big_n)
                    for big_n in range(l + 1))).bit_length()
    width = (l + 1) * bits
    mask = (1 << (l + 1) * width) - 1
    # f_a = sum_{b <= l} y^b + sum_{1 <= b <= a} (x y)^b + x^a sum_{a < b <= l} y^b
    ys = mask // ((1 << width) - 1)
    diagonal = ((1 << (l + 1) * (width + bits)) - 1) // ((1 << width + bits) - 1) - 1
    factors = [ys + (diagonal & (2 << a * (width + bits)) - 1)
               + (ys >> (a + 1) * width << (a + 1) * width + a * bits) for a in range(l + 1)]
    return bits, mask, factors, [[_folder(d, l, bits, step, parity, virtual)
                                  for parity in (0, 1)] for virtual in (False, True)]


def _folder(d, l, bits, step, parity, virtual):
    # Coefficient m of block N enters the sum at (L, r2) times binom((r2 - L -
    # N) // 2 + m + d, d) C((L - N) // 2 + d, d). Over j = L - N, the outer
    # binomials times x^((parity + j) // 2) are the y^j coefficients of K =
    # (1 + y, or 1 + x y for odd r2, at step 1) (1 - x y^2)^-(d + 1); so C_i is
    # the y^l x^i coefficient of F K, or of F K (1 - y)(1 - x y) for the four
    # virtual-ring terms. Returns the map from packed F to C.
    width = (l + 1) * bits
    k = sum(comb(h + d, d) << h * (2 * width + bits) for h in range(l // 2 + 1))
    if step == 1:
        k += k << width + parity * bits
    if virtual:  # times 1 - y - x y + x y^2
        k -= (k << width) + (k << width + bits) - (k << 2 * width + bits)
    half = ((1 << (l + 1) * width) - 1) // ((1 << bits) - 1) << bits - 1  # no borrows

    def fold(packed):
        top = (packed * k + half >> l * width) & (1 << width) - 1
        return tuple((top >> i * bits & (1 << bits) - 1) - (1 << bits - 1)
                     for i in range(l + 1))
    return fold


def _evaluate(coeffs, d, l, r2):
    start = r2 // 2 - l + d
    return sum(c * comb(t, d) for t, c in enumerate(coeffs, start) if c and t >= 0)


@lru_cache(maxsize=None)
def _packing_a(f, l):
    # What an A sum over f coordinates needs besides the weight: digit width, mask
    # to y-degree <= l, factors g_0..g_l at y = 2**bits, the map to (c_l - c_(l-1),).
    # Digit j, the ways to spread j over f coordinates, is <= C(l + f - 1, f - 1): no carry
    bits = comb(l + f - 1, f - 1).bit_length()
    mask = (1 << (l + 1) * bits) - 1
    ones = mask // ((1 << bits) - 1)  # g_l = 1 + y + ... + y^l

    def fold(packed):
        pair = packed >> (l - 1) * bits if l else packed << bits  # digits l, l - 1
        return ((pair >> bits) - (pair & (1 << bits) - 1),)
    return bits, mask, [ones & (1 << (a + 1) * bits) - 1 for a in range(l + 1)], fold


def tensor_sum_a(n, l, ell):
    """Tensor weight sum for family A (rank n, so n + 1 coordinates).

    ell: level counts (l_0, ..., l_{l-1}) as for :func:`tensor_sum_bcd`.
    Returns 0 for negative l and 1 at l = 0.
    """
    if l < 0:
        return 0
    bits, mask, factors, _ = _packing_a(max(n + 1, sum(ell[:l])), l)
    return _product(mask, factors, n + 1, l, ell) >> l * bits


def bivariate_sum_a(n, l, ell):
    """tensor_sum_a at l minus at l - 1, read from one product."""
    if l < 0:
        return 0
    _, mask, factors, fold = _packing_a(max(n + 1, sum(ell[:l])), l)
    return fold(_product(mask, factors, n + 1, l, ell))[0]


def _product(mask, factors, f, l, ell):
    packed = 1
    # (level a, number of factors): the f - sum(ell[:l]) coordinates not in ell sit at l
    for a, count in [*enumerate(ell[:l]), (l, f - sum(ell[:l]))]:
        factor = factors[a]
        while count > 0:
            if count & 1:
                packed = packed * factor & mask
            count >>= 1
            if count:
                factor = factor * factor & mask
    return packed


def dominant_rows(family, n, k, l):
    """Rows (mu, m), m > 0, of the dominant weights of k e1 + l e2 in family
    A-D of rank n, unsorted, and the counts of candidates, kept rows and folds.

    k >= l >= 0 unchecked. Walks weakly decreasing mu >= 0, mu_1 <= k (larger
    mu_1 gives 0), depth first: n coordinates of one-norm <= k + l (even r2
    for C and D), or for A n + 1 summing to k + l, each child at least
    ceil(r2 / slots left). It carries the family's product, one masked
    multiply per coordinate by its level's factor and one by f_0^z for z
    trailing zeros (g_0 = 1 for A), and folds each distinct (product, r2 mod
    2) once, in a dict: to C for B/C/D, to (c_l - c_(l-1),) for A.
    """
    if family == "A":
        coords, step, slack = n + 1, 1, 0  # slack: how far the one-norm may fall short
        _, mask, factors, fold = _packing_a(coords, l)
        folders, binoms = (fold, fold), [1]  # r2 = 0 at every A candidate
    else:
        d, step = _degree(family, n), 1 if family == "B" else 2
        coords, slack = n, k + l
        _, mask, factors, maps = _packing(n, d, l, step)  # sum(ell) <= n: fold_bcd's packing
        folders = maps[True]
        # C_i meets binom(r2 // 2 - l + d + i, d) = binoms[r2 // 2 + i]
        binoms = [comb(t, d) if t >= 0 else 0 for t in range(d - l, (k + l) // 2 + d + 1)]
    zeros = [1]  # f_0^z of z trailing zeros
    for _ in range(coords):
        zeros.append(zeros[-1] * factors[0] & mask)
    folds, rows, candidates = {}, [], 0
    stack = [((), 1, k, k + l)]  # prefix, its product, cap on what follows, r2
    while stack:
        prefix, packed, cap, r2 = stack.pop()
        zero_count = coords - len(prefix)
        if r2 <= slack and r2 % step == 0:
            candidates += 1
            key = (packed * zeros[zero_count] & mask, r2 & 1)
            if (coeffs := folds.get(key)) is None:
                coeffs = folds[key] = folders[r2 & 1](key[0])
            if m := sum(map(mul, coeffs, binoms[r2 // 2:])):
                rows.append((prefix + (0,) * zero_count, m))
        if zero_count:
            low = max(1, (r2 - slack - 1) // zero_count + 1)  # ceil((r2 - slack) / zero_count)
            stack += [(prefix + (a,), packed * factors[min(a, l)] & mask, a, r2 - a)
                      for a in range(min(cap, r2), low - 1, -1)]
    return rows, {"candidates": candidates, "kept": len(rows), "folds": len(folds)}
