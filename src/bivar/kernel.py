"""The tensor weight sums behind every multiplicity, in pure Python with exact integers.

One call, :func:`weight_sum`, gives the sum that
:func:`bivar.multiplicity.bivariate_mult` needs at one weight of any family (that
:func:`~bivar.multiplicity.tensor_mult` needs, if not ``virtual``), from the
weight's |mu_i|; which packing a family takes is settled here alone.
:func:`tensor_sum_bcd` and :func:`tensor_sum_a` give the tensor sums from level
counts ell, spelled as a weight's nonzero parts, for the tests and the
benchmark's tracer. :func:`dominant_rows` gives the dominant rows of a whole
table, in one walk.

Each sum reads one packed product per weight. All else it needs depends on
the algebra and l, not on the weight, so it is built once per key, by shifts
and adds, and cached. The product depends on the weight only through its
level counts, which :func:`_product` counts over the weight's nonzero parts as
it multiplies, so a single weight costs the same at any rank but for passes
over its coordinates at C speed; and :func:`dominant_rows` makes one product
and one read per level class and parity of r2, and spreads the read over the
class's weights.
How the product is packed, and why it is exact, is written once: in the
comment of :func:`_packing`, and of :func:`_packing_a` for type A.

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


def weight_sum(family, n, l, r2, levels, virtual=True):
    """The sum of :func:`bivar.multiplicity.bivariate_mult` (of
    :func:`~bivar.multiplicity.tensor_mult` if not ``virtual``) at a weight of
    family A-D and rank n: r2 twice the depth and ``levels`` the |mu_i|, for A
    the representative summing to k + l (r2 unused). l >= 0 unchecked.
    """
    if family == "A":
        _, mask, roots, ratios, reads = _packing_a(n + 1, l)
        return reads[0](_product(roots[virtual], mask, ratios, l, levels))[0]
    return _sum_bcd(n, _degree(family, n), l, r2, levels, 1 if family == "B" else 2, virtual)


def _sum_bcd(f, d, l, r2, levels, step, virtual):
    # the B/C/D sum over f coordinates at binomial degree d and step (1 for B, 2 for C and D)
    _, mask, roots, ratios, reads = _packing(f, d, l, step)
    # C_i multiplies binom(t, d), t = r2 // 2 + i - l + d; a plain loop, as a
    # generator's set-up costs more than its l + 1 terms
    total, t = 0, r2 // 2 - l + d
    for c in reads[r2 & 1](_product(roots[virtual], mask, ratios, l, levels)):
        if c and t >= 0:
            total += c * comb(t, d)
        t += 1
    return total


def _parts(f, l, ell):
    # ell spelled as the nonzero parts of a weight of f coordinates: ell[a] at
    # each level a in [1, l - 1] (entries from l on ignored), and the
    # f - sum(ell[:l]) coordinates not in ell at l (at l = 0, level 0)
    parts = [a for a, count in enumerate(ell[1:l], 1) for _ in range(count)]
    return parts + [l] * (f - sum(ell[:l]))


def tensor_sum_bcd(n, d, l, r2, ell, step):
    """Tensor weight sum for families B/C/D.

    n: rank; d: binomial degree (n-1 for B and C, n-2 for D); l: degree
    of the smaller tensor factor; r2: twice the depth r; ell: level
    counts (l_0, ..., l_{l-1}) -- entries beyond index l-1 are ignored;
    step: 1 sums over every N <= l, 2 restricts to N == l (mod 2).
    Returns 0 for negative l.
    """
    if l < 0:
        return 0
    f = max(n, sum(ell[:l]))
    return _sum_bcd(f, d, l, r2, _parts(f, l, ell), step, False)


@lru_cache(maxsize=None)
def _packing(f, d, l, step):
    # What a B/C/D sum over f coordinates needs besides the weight: digit width,
    # mask to y-degree <= l, roots [virtual], ratios r_0..r_l and readers [r2 % 2].
    # f is n for every weight of rank n (only level counts ell with sum(ell[:l]) > n
    # ask for more), so a process builds one packing per (family, rank, l) it asks
    # for, and tensor_mult, bivariate_mult and the dominant_rows walk all read it.
    # C is not cached: a weight costs one product over its nonzero parts
    # (_product) and one read, and in the dominant_rows walk a level class does,
    # shared by all its weights of one parity of r2.
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
    # Then mult = sum_i C_i binom(r2 // 2 + i - l + d, d) (weight_sum): l + 1
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


@lru_cache(maxsize=None)
def _packing_a(f, l):
    # What an A sum over f coordinates (n + 1 for a weight of rank n) needs besides the
    # weight, in the fields of _packing: digit width, mask to y-degree <= l, roots,
    # ratios g_0..g_l at y = 2**bits and, for either parity, the map to (digit l,).
    # The tensor sum is c_l, the y^l coefficient of the product G of
    # g_a = 1 + y + ... + y^min(a, l), one per coordinate at level a; g_0 = 1, so the
    # ratios are the factors. The irreducible is h_k h_l - h_(k+1) h_(l-1) in the
    # virtual ring, c_l - c_(l-1): digit l of (1 - y) G. So the roots are 1 and 1 - y,
    # and the one reader serves both, as V in the root serves B/C/D.
    # Digit j of G, the ways to spread j over f coordinates, is <= C(l + f - 1, f - 1)
    # < 2**bits. Digit j <= l of (1 - y) G, c_j - c_(j-1), needs no sign bias: for a
    # weight summing to k + l, k >= l, it is the Kostka number K_((k + l - j, j), mu),
    # as j <= (k + l) / 2, so 0 <= c_j - c_(j-1) <= c_j and no digit borrows. That
    # holds for the levels of a real weight only; three coordinates at level 1 with
    # l = 3 give c_3 - c_2 = 1 - 3 = -2.
    bits = comb(l + f - 1, f - 1).bit_length()
    mask = (1 << (l + 1) * bits) - 1
    ones = mask // ((1 << bits) - 1)  # g_l = 1 + y + ... + y^l

    def read(packed):
        return (packed >> l * bits,)
    roots = (1, (1 - (1 << bits)) & mask)
    return bits, mask, roots, [ones & (1 << (a + 1) * bits) - 1 for a in range(l + 1)], (read, read)


def tensor_sum_a(n, l, ell):
    """Tensor weight sum for family A (rank n, so n + 1 coordinates).

    ell: level counts (l_0, ..., l_{l-1}) as for :func:`tensor_sum_bcd`.
    Returns 0 for negative l and 1 at l = 0.
    """
    if l < 0:
        return 0
    f = max(n + 1, sum(ell[:l]))
    return weight_sum("A", f - 1, l, 0, _parts(f, l, ell), False)


def _product(packed, mask, ratios, l, levels):
    # packed times the ratio of each coordinate at a level a >= 1 (r_0 = 1), each
    # level's by binary powers. Levels from l on act as l, and at l = 0 every
    # coordinate is at level 0. The zeros are dropped at C speed, so the counts
    # run over the at most k + l nonzero parts: those in [1, l - 1] one level at
    # a time, and the rest at l.
    parts = list(filter(None, levels))
    rest = len(parts)
    for a in range(1, l + 1):
        count = parts.count(a) if a < l else rest
        rest -= count
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
    A-D of rank n, unsorted, and the counts of candidates, kept rows,
    products (the walk's masked multiplies) and reads (C vectors read).

    k >= l >= 0 unchecked. The candidates are the weakly decreasing mu >= 0
    with mu_1 <= k (larger mu_1 gives 0): n coordinates of one-norm <= k + l
    (even r2 for C and D), or for A n + 1 summing to k + l. A weight's
    product is the one :func:`weight_sum` takes (the packing at f = n,
    n + 1 for A; its virtual root times the ratio r_a, g_a for A, of each
    coordinate at level a), so it depends on mu only through its level class:
    c, the number of coordinates at level l, and the small parts, those in
    [1, l - 1]. The walk steps c up from 0, one multiply by r_l each, and below
    each c walks the weakly decreasing small parts depth first, one multiply
    by r_a per child, pushing only children that some candidate completes.
    A class reads C once per parity of r2 and spreads it over its weights:
    the big parts, c values in [max(l, 1), k] weakly decreasing, listed once
    per c and grouped by their sum S, which sets r2 and so the binomials the
    class's C meets, computed once per walk.
    """
    if family == "A":
        coords, step, slack = n + 1, 1, 0  # slack: how far the one-norm may fall short
        packing, binoms = _packing_a(coords, l), [1]  # r2 = 0 at every A candidate
    else:
        d, step = _degree(family, n), 1 if family == "B" else 2
        coords, slack = n, k + l
        packing = _packing(n, d, l, step)  # weight_sum's packing
        # C_i meets binom(r2 // 2 - l + d + i, d) = binoms[r2 // 2 + i]
        binoms = [comb(t, d) if t >= 0 else 0 for t in range(d - l, (k + l) // 2 + d + 1)]
    _, mask, roots, ratios, reads = packing
    low, top = max(l, 1), max(l - 1, 0)  # big parts lie in [low, k], small parts in [1, top]

    def sums(c, total, more):
        # the one-norms E of c big parts plus small parts summing to at most `more`
        # that leave a candidate's r2 = total - E: 0 <= r2 <= slack, r2 % step == 0
        high = min(total, c * k + more)
        return range(high - (total - high) % step, max(c * low, total - slack) - 1, -step)

    # the counts c of big parts that some candidate has
    big_counts = [c for c in range(min(coords, (k + l) // low) + 1)
              if sums(c, k + l, top * (coords - c))]
    cmax = big_counts[-1]
    # the least sum the big parts must reach at cmax, where small parts fill the rest
    need = k + l - slack - top * (coords - cmax)
    rows, candidates, products, read_count = [], 0, 0, 0
    bigs, packed = {0: [()]}, roots[True]  # the c-tuples of big parts by sum; root times r_l^c
    for c in range(cmax + 1):
        if c:
            packed = packed * ratios[l] & mask
            products += 1
            grown = {}
            for norm, parts in bigs.items():
                for part in parts:
                    # each part added up to cmax is at most a: keep the sums that reach need
                    for a in range(max(low, (need - norm - 1) // (cmax - c + 1) + 1),
                                   min(part[-1] if part else k, k + l - norm) + 1):
                        grown.setdefault(norm + a, []).append(part + (a,))
            bigs = grown
        spans = [sums(c, total, 0) for total in range(k + l + 1)]  # a class's big sums by total
        stack = [((), packed, k + l, top)] if c in big_counts else []
        while stack:  # class: small parts, product, k + l minus their sum, largest next part
            small, product, total, last = stack.pop()
            room = coords - c - len(small)
            if spans[total]:
                tail, read = small + (0,) * room, [None, None]
                for norm in spans[total]:
                    r2 = total - norm
                    if read[r2 & 1] is None:
                        read[r2 & 1] = reads[r2 & 1](product)
                        read_count += 1
                    candidates += len(bigs[norm])
                    if m := sum(map(mul, read[r2 & 1], binoms[r2 // 2:])):
                        rows += [(part + tail, m) for part in bigs[norm]]
            if room:
                # a child a leaves a class that some candidate completes when
                # a <= total - c low (what the big parts need at least), a room >=
                # total - slack - c k (A: the rest must reach k + l), and, for C and
                # D, r2 stays even if a fills the last slot beside a fixed big sum
                stride = step if room == 1 and c * (k - low) == 0 else 1
                high = min(last, total - c * low)
                children = range(high - (total - c * k - high) % stride,
                                 max(0, (total - slack - c * k - 1) // room), -stride)
                products += len(children)
                stack += [(small + (a,), product * ratios[a] & mask, total - a, a)
                          for a in children]
    return rows, {"candidates": candidates, "kept": len(rows), "products": products,
                  "reads": read_count}
