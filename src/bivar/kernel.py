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
nonzero parts: the packing's ``product`` starts from its root divided by N_0^s,
s the number of parts, and multiplies in the sparse numerator N_a of each part's
level a by shifts and adds, so a single weight costs the same at any rank but
for passes over its coordinates at C speed; and :func:`dominant_rows` makes one
product and one read per level class and parity of r2, and spreads the read
over the class's weights, dividing each parent by N_0 once and making each
child with one N_a.
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
        _, product, _, _, read = _packing_a(n + 1, l)
        return read(product(virtual, levels), 0)[0]
    return _sum_bcd(n, _degree(family, n), l, r2, levels, 1 if family == "B" else 2, virtual)


def _sum_bcd(f, d, l, r2, levels, step, virtual):
    # the B/C/D sum over f coordinates at binomial degree d and step (1 for B, 2 for C and D)
    _, product, _, _, read = _packing(f, d, l, step)
    # C_i multiplies binom(t, d), t = r2 // 2 + i - l + d; a plain loop, as a
    # generator's set-up costs more than its l + 1 terms
    total, t = 0, r2 // 2 - l + d
    for c in read(product(virtual, levels), r2 & 1):
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
    # What a B/C/D sum over f coordinates needs besides the weight: digit width, a
    # weight's packed product G (product), the maps G -> G N_a (times, one a per part)
    # and G -> G / N_0 (divide), masked to y-degree <= l, and G -> C (read, by r2 % 2).
    # f is n for every weight of rank n (only level counts ell with sum(ell[:l]) > n
    # ask for more), so a process builds one packing per (family, rank, l) it asks
    # for, and tensor_mult, bivariate_mult and the dominant_rows walk all read it.
    # C is not cached: a weight costs one product over its nonzero parts
    # (product) and one read, and in the dominant_rows walk a level class does,
    # shared by all its weights of one parity of r2.
    # Block N of the sum counts the nu in Z^f of one-norm N by their overlap with
    # mu, the sum of min(|mu_i|, |nu_i|) where mu_i and nu_i share a sign: it is the
    # y^N coefficient of the product of f_a = 1 + sum_{b >= 1} y^b (1 + x^min(a, b)),
    # one per coordinate at level a. Block N needs ell[:N] alone, as f_a and f_N
    # agree up to y^N for a >= N; so levels l and up act as l, and one product F,
    # truncated at y^l, holds every block N <= l. F is packed by Kronecker
    # substitution, x = 2**bits and y = 2**W, W = (l + 1) bits, and masked to y^l,
    # so digit N (l + 1) + m counts the nu of one-norm N with overlap m.
    # Coefficient m of block N enters the sum at (L, r2) times binom((r2 - L -
    # N) // 2 + m + d, d) C((L - N) // 2 + d, d). Over j = L - N, the outer
    # binomials times x^((parity + j) // 2) are the y^j coefficients of K =
    # (1 + y, or 1 + x y for odd r2, at step 1) K0, K0 = (1 - x y^2)^-(d + 1);
    # so C_i is the y^l x^i digit of F K for one tensor sum, and of F K V,
    # V = (1 - y)(1 - x y), for the four virtual-ring terms of bivariate_mult (at
    # l, l - 1, l - 1 and l - 2), whose signs V folds in at no multiply of its own.
    # Then mult = sum_i C_i binom(r2 // 2 + i - l + d, d) (weight_sum): l + 1
    # binomials, and C depends on r2 only through its parity.
    # Summed as geometric series, f_a = N_a / ((1 - y)(1 - x y)) with the sparse
    # N_a = 1 - x y^2 + (1 - x) x^a y^(a + 1) for 1 <= a < l, N_a = 1 - x y^2 for
    # a >= l (its last term passes y^l), and N_0 = (1 + y)(1 - x y). So a weight
    # with s nonzero parts has F = f_0^f N_0^-s prod N_a, one N_a per part:
    # - f_0^f N_0^-s = (1 + y)^(f - s) (1 - y)^-f (1 - x y)^-s, which holds the
    #   only counts that grow with the rank, times K0 (and V) is the root over
    #   N_0^s, built at s = 0 from the coefficients of f_0^f and kept per packing
    #   and virtual flag, each s one division of the root at s - 1 (_products);
    # - G N_a is two shift-adds and a small multiple, G - (G << 2W + bits) +
    #   (G << (a + 1) W + a bits)(1 - 2**bits) (times);
    # - G / N_0 is G (1 - y)(1 + y^2)(1 + y^4)... (1 + x y)(1 + x^2 y^2)..., up to
    #   degree l: 2 ceil(log2(l + 1)) shift-adds (divide), which the walk takes
    #   once per parent, as a child is its parent times N_a / N_0;
    # and read takes on the step-1 factor by one shift-add and reads the l + 1
    # digits of y^l. Shifts, adds and small multiples build all of it, with no pow
    # and no product of two packed ints.
    # The packing is a ring map Z[x, y]/(y^(l + 1)) -> Z/2^((l + 1)^2 bits), so a
    # masked residue stays the image of its polynomial however large or negative
    # the coefficients on the way (root / N_0^s outruns every digit); F K V is one
    # element of that ring however it is factored, so its residue, and every digit
    # read from it, does not depend on the route. Only the polynomial read must fit
    # its digits: x never outruns y in it, and they hold a sign and every
    # coefficient to y^l of F K V, at most
    # sum_N 4 binom((l - N) // 2 + d, d) E_N, where E_N = 2^min(f, N) C(f + N - 1, N)
    # bounds the points of one-norm N (|f + N - 1| keeps it exact at f = 0: 1 at N = 0, else 0)
    bits = (8 * sum(comb((l - big_n) // 2 + d, d) * comb(abs(f + big_n - 1), big_n) << min(f, big_n)
                    for big_n in range(l + 1))).bit_length()
    width = (l + 1) * bits
    mask = (1 << (l + 1) * width) - 1
    xy, xy2 = width + bits, 2 * width + bits  # the shifts of x y and x y^2

    # the root at s = 0: (1 + y)^f (1 - y)^-f = f_0^f has no x, and its y^b
    # coefficients p_b follow from P' (1 - y^2) = 2f P: (b + 1) p_(b+1) = 2f p_b + (b - 1) p_(b-1)
    power, previous, p = 1, 1, 2 * f
    for b in range(1, l + 1):
        power += p << b * width
        previous, p = p, (2 * f * p + (b - 1) * previous) // (b + 1)
    # times K0, each binomial scaling a shifted copy, and the virtual root times V = 1 - y - x y + x y^2
    tensor = sum(comb(h + d, d) * power << h * xy2 for h in range(l // 2 + 1)) & mask
    virtual = tensor - (tensor << width) - (tensor << xy) + (tensor << xy2) & mask

    # the shifts of x^a y^(a + 1) for a < l, and 1 - x as a small multiplier
    shifts, one_minus_x = [a * xy + width for a in range(l)], 1 - (1 << bits)

    def times(packed, parts):
        for a in parts:
            if a < l:
                packed = packed - (packed << xy2) + (packed << shifts[a]) * one_minus_x & mask
            else:
                packed = packed - (packed << xy2) & mask
        return packed
    # the shifts of y^2, y^4, ... and x y, x^2 y^2, ... up to degree l
    doublings = ([width << j for j in range(1, l.bit_length())]
                 + [xy << j for j in range(l.bit_length())])

    def divide(packed):
        packed = packed - (packed << width) & mask
        for shift in doublings:
            packed = packed + (packed << shift) & mask
        return packed
    # The map from a packed product G to its C: at step 1 times 1 + y, or 1 + x y for
    # odd r2, then the digits of y^l, each biased by half its range so that none
    # borrows from the next
    half = mask // ((1 << bits) - 1) << bits - 1
    block, digit, bias = (1 << width) - 1, (1 << bits) - 1, 1 << bits - 1
    offsets = range(0, width, bits)

    def read(packed, parity):
        if step == 1:
            packed += packed << width + parity * bits
        top = (packed + half >> l * width) & block
        return [(top >> i & digit) - bias for i in offsets]
    return bits, _products(tensor, virtual, times, divide), times, divide, read


@lru_cache(maxsize=None)
def _packing_a(f, l):
    # What an A sum over f coordinates (n + 1 for a weight of rank n) needs besides the
    # weight, in the fields of _packing, at y = 2**bits: digit width, product, times,
    # divide and read, the map to (digit l,) for either parity.
    # The tensor sum is c_l, the y^l coefficient of the product G of
    # g_a = 1 + y + ... + y^min(a, l), one per coordinate at level a. The irreducible
    # is h_k h_l - h_(k+1) h_(l-1) in the virtual ring, c_l - c_(l-1): digit l of
    # (1 - y) G. So the virtual root takes 1 - y, and the one read serves both, as V
    # in the root serves B/C/D.
    # Summed, g_a = N_a / N_0 with N_0 = 1 - y, N_a = 1 - y^(a + 1) for a < l and
    # N_a = 1 for a >= l (y^(a + 1) passes y^l), so g_0 = 1 and, as for B/C/D, a
    # weight with s nonzero parts starts from (1 - y)^-s, 1 divided s times by N_0
    # (times 1 - y at the virtual root); each part's N_a is one shift-add, and
    # G / N_0 is G (1 + y)(1 + y^2)(1 + y^4)..., up to degree l.
    # Exact by the ring map of _packing, at Z[y]/(y^(l + 1)) -> Z/2^((l + 1) bits).
    # Digit j of G, the ways to spread j over f coordinates, is <= C(l + f - 1, f - 1)
    # < 2**bits. Digit j <= l of (1 - y) G, c_j - c_(j-1), needs no sign bias: for a
    # weight summing to k + l, k >= l, it is the Kostka number K_((k + l - j, j), mu),
    # as j <= (k + l) / 2, so 0 <= c_j - c_(j-1) <= c_j and no digit borrows. That
    # holds for the levels of a real weight only; three coordinates at level 1 with
    # l = 3 give c_3 - c_2 = 1 - 3 = -2.
    bits = comb(l + f - 1, f - 1).bit_length()
    mask = (1 << (l + 1) * bits) - 1

    def times(packed, parts):
        for a in parts:
            if a < l:
                packed = packed - (packed << (a + 1) * bits) & mask
        return packed
    doublings = [bits << j for j in range(l.bit_length())]

    def divide(packed):
        for shift in doublings:
            packed = packed + (packed << shift) & mask
        return packed

    def read(packed, parity):
        return (packed >> l * bits,)
    return bits, _products(1, 1 - (1 << bits) & mask, times, divide), times, divide, read


def tensor_sum_a(n, l, ell):
    """Tensor weight sum for family A (rank n, so n + 1 coordinates).

    ell: level counts (l_0, ..., l_{l-1}) as for :func:`tensor_sum_bcd`.
    Returns 0 for negative l and 1 at l = 0.
    """
    if l < 0:
        return 0
    f = max(n + 1, sum(ell[:l]))
    return weight_sum("A", f - 1, l, 0, _parts(f, l, ell), False)


def _products(tensor, virtual, times, divide):
    # product(virtual, levels), a weight's packed product: its root over N_0^s, s its
    # nonzero parts, times each part's N_a. The zeros are dropped at C speed, so the
    # loop runs over the at most k + l nonzero parts, and levels from l on act as l
    # (at l = 0 every N_a is 1). Per virtual flag the roots at s = 0, 1, 2, ... are
    # kept by s, each the one before divided by N_0 once, so a weight with s parts
    # pays at most s divisions on a new packing and none after. An entry depends on
    # its s alone, so threads that grow the same roots at once store equal values
    # (setdefault keeps the first).
    kept = ({0: tensor}, {0: virtual})

    def product(virtual, levels):
        parts = list(filter(None, levels))
        roots, s = kept[virtual], len(parts)
        if s not in roots:
            for i in range(len(roots), s + 1):
                roots.setdefault(i, divide(roots[i - 1]))
        return times(roots[s], parts)
    return product


def dominant_rows(family, n, k, l):
    """Rows (mu, m), m > 0, of the dominant weights of k e1 + l e2 in family
    A-D of rank n, unsorted, and the counts of candidates, kept rows,
    products (the walk's products by a ratio r_a: one per child and per count
    of big parts) and reads (C vectors read).

    k >= l >= 0 unchecked. The candidates are the weakly decreasing mu >= 0
    with mu_1 <= k (larger mu_1 gives 0): n coordinates of one-norm <= k + l
    (even r2 for C and D), or for A n + 1 summing to k + l. A weight's
    product is the one :func:`weight_sum` takes (the packing at f = n,
    n + 1 for A; its virtual root times the ratio r_a = N_a / N_0 of each
    coordinate at level a), so it depends on mu only through its level class:
    c, the number of coordinates at level l, and the small parts, those in
    [1, l - 1]. The walk steps c up from 0, one product by r_l each, and below
    each c walks the weakly decreasing small parts depth first, pushing only
    children that some candidate completes: a parent with children is divided
    by N_0 once, by shift-adds, and each child is that times its N_a, a few
    shift-adds more, so a product costs time linear in its width.
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
    _, product, times, divide, read = packing
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
    bigs, root = {0: [()]}, product(True, ())  # the c-tuples of big parts by sum; root times r_l^c
    for c in range(cmax + 1):
        if c:
            root = times(divide(root), (l,))
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
        stack = [((), root, k + l, top)] if c in big_counts else []
        while stack:  # class: small parts, product, k + l minus their sum, largest next part
            small, packed, total, last = stack.pop()
            room = coords - c - len(small)
            if spans[total]:
                tail, cs = small + (0,) * room, [None, None]  # C by parity of r2
                for norm in spans[total]:
                    r2 = total - norm
                    if cs[r2 & 1] is None:
                        cs[r2 & 1] = read(packed, r2 & 1)
                        read_count += 1
                    candidates += len(bigs[norm])
                    if m := sum(map(mul, cs[r2 & 1], binoms[r2 // 2:])):
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
                if children:
                    products += len(children)
                    divided = divide(packed)
                    stack += [(small + (a,), times(divided, (a,)), total - a, a)
                              for a in children]
    return rows, {"candidates": candidates, "kept": len(rows), "products": products,
                  "reads": read_count}
