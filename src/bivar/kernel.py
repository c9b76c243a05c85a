"""The tensor weight sums behind every multiplicity, in pure Python with exact integers.

:func:`tensor_sum_bcd` and :func:`tensor_sum_a` give one tensor sum;
:func:`bivariate_sum_bcd` and :func:`bivariate_sum_a` give the combination of
them that :func:`bivar.multiplicity.bivariate_mult` needs, from one product.
:func:`fold_bcd` gives the coefficient vector the B/C/D sums reduce to, and
:func:`dominant_rows` the dominant rows of a whole table, in one walk.

Each sum reads one packed product per weight. All else it needs depends on
the algebra and l, not on the weight, so it is built once per key, by shifts
and adds, and cached. How the product is packed, and why it is exact, is
written once: in the comment of :func:`_packing`, and of :func:`_packing_a`
for type A.

The half-integral depth r is passed as its doubled value ``r2``, so floors
are plain integer division; no floats appear anywhere.
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
    _, mask, roots, ratios, reads = _packing(max(n, sum(ell[:l])), d, l, step)
    return tuple(reads[parity](_product(roots[virtual], mask, ratios, n, l, ell)))


@lru_cache(maxsize=None)
def _packing(f, d, l, step):
    # What a B/C/D sum over f coordinates needs besides the weight: digit width,
    # mask to y-degree <= l, roots [virtual], ratios r_0..r_l and readers [r2 % 2].
    # f = max(n, sum(ell[:l])) is n for every weight of rank n, so a process builds
    # one packing per (family, rank, l) it asks for, and tensor_mult, bivariate_mult
    # and the dominant_rows walk all read it. C is not cached: a weight costs its
    # started product (_product) and one read.
    # Block N of the sum counts the nu in Z^f of one-norm N by their overlap with
    # mu, the sum of min(|mu_i|, |nu_i|) where mu_i and nu_i share a sign: it is the
    # y^N coefficient of the product of f_a = 1 + sum_{b >= 1} y^b (1 + x^min(a, b)),
    # one per coordinate at level a. Block N needs ell[:N] alone, as f_a and f_N
    # agree up to y^N for a >= N; so levels l and up act as l, and one product F,
    # truncated at y^l, holds every block N <= l. F is packed by Kronecker
    # substitution, x = 2**bits and y = 2**((l + 1) bits), and masked to y^l, so a
    # multiply is one big-int multiply and a mask, and digit N (l + 1) + m counts
    # the nu of one-norm N with overlap m.
    # Coefficient m of block N enters the sum at (L, r2) times binom((r2 - L -
    # N) // 2 + m + d, d) C((L - N) // 2 + d, d). Over j = L - N, the outer
    # binomials times x^((parity + j) // 2) are the y^j coefficients of K =
    # (1 + y, or 1 + x y for odd r2, at step 1) K0, K0 = (1 - x y^2)^-(d + 1);
    # so C_i is the y^l x^i digit of F K for one tensor sum, and of F K V,
    # V = (1 - y)(1 - x y), for the four virtual-ring terms of bivariate_mult (at
    # l, l - 1, l - 1 and l - 2), whose signs V folds in at no multiply of its own.
    # Then mult = sum_i C_i binom(r2 // 2 + i - l + d, d) (_evaluate): l + 1
    # binomials, and C depends on r2 only through its parity.
    # As f_0 = (1 + y) / (1 - y), F = f_0^f times r_a = f_a / f_0 = f_a (1 - y) / (1 + y)
    # per coordinate at level a >= 1. So f_0^f, which holds the only count that
    # grows with the rank, comes in closed form in a root, K0 f_0^f or K0 V f_0^f;
    # _product multiplies in each level's ratio, raised to its count by squaring;
    # and a reader takes on the step-1 factor by one shift-add and reads the l + 1
    # digits of y^l. Shifts and adds build the packing (below), with no pow and no
    # product of two packed ints.
    # The packing is a ring map Z[x, y]/(y^(l + 1)) -> Z/2^((l + 1)^2 bits) (x
    # never outruns y in a root or ratio), so a masked product with negative digits
    # is still exact; only the polynomial read must fit its digits. They hold a
    # sign and every coefficient to y^l of F K V, at most
    # sum_N 4 binom((l - N) // 2 + d, d) E_N, where E_N = 2^min(f, N) C(f + N - 1, N)
    # bounds the points of one-norm N (|f + N - 1| keeps it exact at f = 0: 1 at N = 0, else 0)
    bits = (8 * sum(comb((l - big_n) // 2 + d, d) * comb(abs(f + big_n - 1), big_n) << min(f, big_n)
                    for big_n in range(l + 1))).bit_length()
    width = (l + 1) * bits
    mask = (1 << (l + 1) * width) - 1
    # f_0^f has no x, and its y^b coefficients p_b follow from P' = 2f P / (1 - y^2):
    # (b + 1) p_(b+1) = 2f p_b + (b - 1) p_(b-1)
    f0_power, previous, p = 1, 1, 2 * f
    for b in range(1, l + 1):
        f0_power += p << b * width
        previous, p = p, (2 * f * p + (b - 1) * previous) // (b + 1)
    # K0 f_0^f: each binomial of K0 scales a shifted copy of f_0^f
    root = sum(comb(h + d, d) * f0_power << h * (2 * width + bits) for h in range(l // 2 + 1)) & mask
    roots = (root, root - (root << width) - (root << width + bits) + (root << 2 * width + bits) & mask)
    # r_a = r_(a-1) + x^(a-1) y^a rise, rise = (x - 1) / (1 + y) = (x - 1)(1 - y) / (1 - y^2),
    # and 1 / (1 - y^2) truncated is evens = 1 + y^2 + ... + y^(2 (l // 2))
    evens = ((1 << 2 * width * (l // 2 + 1)) - 1) // ((1 << 2 * width) - 1)
    rise = (evens << bits) - evens - (evens << width + bits) + (evens << width)
    ratios = [1]
    for a in range(1, l + 1):
        ratios.append(ratios[-1] + (rise << a * width + (a - 1) * bits) & mask)
    # The map from a packed product G to its C: times 1 + 2**shift (1 + y or 1 + x y)
    # unless shift is None, then the digits of y^l, each biased by half its range so
    # that none borrows from the next
    half = mask // ((1 << bits) - 1) << bits - 1
    block, digit, bias = (1 << width) - 1, (1 << bits) - 1, 1 << bits - 1
    offsets = range(0, width, bits)

    def reader(shift):
        def read(packed):
            if shift is not None:
                packed += packed << shift
            top = (packed + half >> l * width) & block
            return [(top >> i & digit) - bias for i in offsets]
        return read
    reads = [reader(width + parity * bits if step == 1 else None) for parity in (0, 1)]
    return bits, mask, roots, ratios, reads


def _evaluate(coeffs, d, l, r2):
    start = r2 // 2 - l + d
    return sum(c * comb(t, d) for t, c in enumerate(coeffs, start) if c and t >= 0)


@lru_cache(maxsize=None)
def _packing_a(f, l):
    # What an A sum over f = max(n + 1, sum(ell[:l])) coordinates needs besides the
    # weight, in the fields of _packing: digit width, mask to y-degree <= l, roots
    # (1, 1), ratios g_0..g_l at y = 2**bits and the map to (c_l - c_(l-1),) for
    # either parity. The sum is c_l, the y^l coefficient of the product of
    # g_a = 1 + y + ... + y^min(a, l), one per coordinate at level a; g_0 = 1, so
    # the ratios are the factors. tensor_sum_a reads digit l and bivariate_sum_a
    # digit l minus digit l - 1 of the same product: one kernel call per weight.
    # Digit j, the ways to spread j over f coordinates, is <= C(l + f - 1, f - 1): no carry
    bits = comb(l + f - 1, f - 1).bit_length()
    mask = (1 << (l + 1) * bits) - 1
    ones = mask // ((1 << bits) - 1)  # g_l = 1 + y + ... + y^l

    def fold(packed):
        pair = packed >> (l - 1) * bits if l else packed << bits  # digits l, l - 1
        return ((pair >> bits) - (pair & (1 << bits) - 1),)
    return bits, mask, (1, 1), [ones & (1 << (a + 1) * bits) - 1 for a in range(l + 1)], (fold, fold)


def tensor_sum_a(n, l, ell):
    """Tensor weight sum for family A (rank n, so n + 1 coordinates).

    ell: level counts (l_0, ..., l_{l-1}) as for :func:`tensor_sum_bcd`.
    Returns 0 for negative l and 1 at l = 0.
    """
    if l < 0:
        return 0
    bits, mask, roots, ratios, _ = _packing_a(max(n + 1, sum(ell[:l])), l)
    return _product(roots[False], mask, ratios, n + 1, l, ell) >> l * bits


def bivariate_sum_a(n, l, ell):
    """tensor_sum_a at l minus at l - 1, read from one product."""
    if l < 0:
        return 0
    _, mask, roots, ratios, reads = _packing_a(max(n + 1, sum(ell[:l])), l)
    return reads[0](_product(roots[True], mask, ratios, n + 1, l, ell))[0]


def _product(packed, mask, ratios, f, l, ell):
    # packed times the ratio of each coordinate at a level a >= 1 (r_0 = 1), each
    # level's by binary powers (level a, number of coordinates): the
    # f - sum(ell[:l]) coordinates not in ell, if any, sit at l, which at l = 0 is level 0
    for a, count in [*enumerate(ell[1:l], 1), (l, f - sum(ell[:l]))][:l]:
        factor = ratios[a]
        while count > 0:
            if count & 1:
                packed = packed * factor & mask
            count >>= 1
            if count:
                factor = factor * factor & mask
    return packed


def dominant_rows(family, n, k, l):
    """Rows (mu, m), m > 0, of the dominant weights of k e1 + l e2 in family
    A-D of rank n, unsorted, and the counts of candidates, kept rows and
    products (the walk's masked multiplies, one per child).

    k >= l >= 0 unchecked. Walks weakly decreasing mu >= 0, mu_1 <= k (larger
    mu_1 gives 0), depth first: n coordinates of one-norm <= k + l (even r2
    for C and D: a last coordinate that leaves r2 odd is no candidate and no
    parent, so it is not pushed), or for A n + 1 summing to k + l, each child
    at least ceil(r2 / slots left). Each node carries the started product of
    :func:`fold_bcd` for its prefix followed by zeros, from the packing at
    f = n (n + 1 for A): the root is the packing's virtual root, and a child at
    level a multiplies its parent by the packing's ratio r_a (g_a for A). So a
    candidate costs only its reader, C for B/C/D and (c_l - c_(l-1),) for A,
    and a sum against binomials computed once per walk.
    """
    if family == "A":
        coords, step, slack = n + 1, 1, 0  # slack: how far the one-norm may fall short
        packing, binoms = _packing_a(coords, l), [1]  # r2 = 0 at every A candidate
    else:
        d, step = _degree(family, n), 1 if family == "B" else 2
        coords, slack = n, k + l
        packing = _packing(n, d, l, step)  # sum(ell) <= n: fold_bcd's packing
        # C_i meets binom(r2 // 2 - l + d + i, d) = binoms[r2 // 2 + i]
        binoms = [comb(t, d) if t >= 0 else 0 for t in range(d - l, (k + l) // 2 + d + 1)]
    _, mask, roots, ratios, reads = packing
    rows, candidates, products = [], 0, 0
    stack = [((), roots[True], k, k + l)]  # prefix, its product, cap on what follows, r2
    while stack:
        prefix, packed, cap, r2 = stack.pop()
        zero_count = coords - len(prefix)
        if r2 <= slack and r2 % step == 0:
            candidates += 1
            if m := sum(map(mul, reads[r2 & 1](packed), binoms[r2 // 2:])):
                rows.append((prefix + (0,) * zero_count, m))
        if zero_count:
            low = max(1, (r2 - slack - 1) // zero_count + 1)  # ceil((r2 - slack) / zero_count)
            high = min(cap, r2)
            # for C and D a last coordinate that leaves r2 odd is no candidate
            stride = step if zero_count == 1 else 1
            children = range(high - (r2 - high) % stride, low - 1, -stride)
            products += len(children)
            stack += [(prefix + (a,), packed * ratios[min(a, l)] & mask, a, r2 - a)
                      for a in children]
    return rows, {"candidates": candidates, "kept": len(rows), "products": products}
