"""Evaluation of the tensor weight sums.

The two tensor sums here carry the hot inner loop of every
multiplicity. Everything is exact: loop bookkeeping is small ints,
accumulated values are arbitrary precision.

For B/C/D the sum splits into blocks N <= l, the slots of one packed
product per weight (:func:`overlap_product`). One more multiply folds the
four tensor sums of the virtual-ring combination into one vector C, mult =
sum_j C_j binom(r2 // 2 + j - l + d, d). C depends on the depth only through
the parity of r2. The digit width, the factors of F and the fold maps see
the weight only through f = max(n, sum(ell[:l])): they are built once per
(f, d, l, step), cached, and read by every B/C/D sum. A dominant table is
one walk (:func:`dominant_rows_bcd`) that carries the product from
coordinate to coordinate and folds each distinct one once.

For A the sum is the y^l coefficient of a product with one factor per
coordinate, 1 + y + ... + y^min(a, l) for a coordinate at level a. Below
y^(l+1) it equals prod_{t<l} (1 - y^(t+1))^ell[t] * (1 - y)^-(n+1), so
l + 1 coefficients and one binomial for each of them suffice.

The half-integral depth parameter ``r`` is passed as its doubled value
``r2`` so floors are plain integer division; no floats appear anywhere.
"""

from functools import lru_cache
from math import comb
from operator import mul

from .partitions import binom

# Recorded in MultiplicityTable.meta and in the benchmark's provenance
# (perfbench/run.py), which refuses to compare runs of different kernels.
BACKEND = "pure"


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
    # Digits hold a sign and every coefficient to y^l, at most sum_N 4 binom((l
    # - N) // 2 + d, d) E_N, where E_N = 2^min(f, N) C(f + N - 1, N) bounds block N
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


def dominant_rows_bcd(n, d, k, l, step):
    """Rows (mu, m), m > 0, of the dominant weights of k e1 + l e2 for B/C/D,
    unsorted, and the counts of candidates, kept rows and folds.

    n, d, l, step as for :func:`tensor_sum_bcd`; k >= l >= 0 unchecked. Walks
    weakly decreasing mu >= 0, mu_1 <= k (larger mu_1 gives 0), one-norm <= k
    + l (even r2 at step 2) depth first, carrying F of :func:`overlap_product`:
    one masked multiply per coordinate, by f_a at level a, and one by f_0^z for
    z trailing zeros. C is folded once per distinct (F, r2 mod 2), in a dict.
    """
    _, mask, factors, maps = _packing(n, d, l, step)  # sum(ell) <= n: fold_bcd's packing
    zeros = [1]  # f_0^z of z trailing zeros
    for _ in range(n):
        zeros.append(zeros[-1] * factors[0] & mask)
    # C_i meets binom(r2 // 2 - l + d + i, d) = binoms[r2 // 2 + i]
    binoms = [comb(t, d) if t >= 0 else 0 for t in range(d - l, (k + l) // 2 + d + 1)]
    folds, rows, candidates = {}, [], 0
    stack = [((), 1, k, k + l)]  # prefix, its product, cap on what follows, r2
    while stack:
        prefix, packed, cap, r2 = stack.pop()
        zero_count = n - len(prefix)
        if step == 1 or r2 % 2 == 0:
            candidates += 1
            key = (packed * zeros[zero_count] & mask, r2 & 1)
            if (coeffs := folds.get(key)) is None:
                coeffs = folds[key] = maps[True][r2 & 1](key[0])
            if m := sum(map(mul, coeffs, binoms[r2 // 2:])):
                rows.append((prefix + (0,) * zero_count, m))
        if zero_count:
            stack += [(prefix + (a,), packed * factors[min(a, l)] & mask, a, r2 - a)
                      for a in range(min(cap, r2), 0, -1)]
    return rows, {"candidates": candidates, "kept": len(rows), "folds": len(folds)}


def overlap_product(n, l, ell):
    """Overlap polynomials of the blocks N <= l of :func:`tensor_sum_bcd`.

    Let mu have ``ell[t]`` coordinates at level (absolute value) t < l and
    the others at level l or above, f = max(n, sum(ell[:l]), 1) in all. The
    result is (packed, bits), and the ``bits``-bit digit N (l + 1) + m of
    ``packed`` counts the nu in Z^f of one-norm N whose overlap with mu,
    the sum of min(|mu_i|, |nu_i|) where mu_i and nu_i share a sign, is m.

    That is the y^N x^m coefficient of the product F of one factor per
    coordinate, f_a = 1 + sum_{b >= 1} y^b (1 + x^min(a, b)) at level a
    (levels of l and above act as a = l), truncated at y^l; block N needs
    ell[:N] alone, as f_a and f_N agree up to y^N for a >= N. F is one
    integer, x = 2**bits and y = 2**((l + 1) bits), each multiply masked to
    y-degree <= l, each factor raised to its count by squaring. No digit
    carries: one counts points of one-norm s <= l in Z^f, fewer than E_s =
    2^min(f, s) C(f + s - 1, s), at x-degree <= s, and ``bits``, the one
    width of every B/C/D sum, is the bit length of 8 sum_{N <= l} C((l - N)
    // 2 + d, d) E_N, here at d = 0; what spills past y^l is masked off.
    """
    bits, mask, factors, _ = _packing(max(n, sum(ell[:l]), 1), 0, l, 1)
    return _product(mask, factors, n, l, ell), bits


def _product(mask, factors, n, l, ell):
    packed = 1
    # (level a, number of factors f_a): the coordinates not in ell sit at l
    for a, count in [*enumerate(ell[:l]), (l, n - sum(ell[:l]))]:
        factor = factors[a]
        while count > 0:
            if count & 1:
                packed = packed * factor & mask
            count >>= 1
            if count:
                factor = factor * factor & mask
    return packed


def tensor_sum_a(n, l, ell):
    """Tensor weight sum for family A (rank n, so n + 1 coordinates).

    ell: level counts (l_0, ..., l_{l-1}) as for :func:`tensor_sum_bcd`.
    Returns 0 for negative l and 1 at l = 0.
    """
    if l < 0:
        return 0
    # prod_t (1 - y^(t+1))^ell[t] to y-degree l; (1 - y)^-(n+1) has y^s
    # coefficient C(s + n, n)
    c = [1] + [0] * l
    for t, count in enumerate(ell[:l]):
        for _ in range(count):
            for j in range(l, t, -1):
                c[j] -= c[j - t - 1]
    return sum(cj * binom(l - j + n, n) for j, cj in enumerate(c) if cj)
