"""Formula layer: single rows, tensor products, the four-term combination,
fast paths, and the structural identities that tie them together."""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivar import BivarError, NotAnInteger
from bivar.errors import InvalidHighestWeight, LengthMismatch, RankOutOfRange
from bivar.multiplicity import (
    bivariate_mult,
    l1_mult,
    l2_mult_a,
    l2_mult_d,
    single_row_mult,
    tensor_mult,
    zero_weight_mult,
)
from bivar.root_systems import (
    AlgebraSpec,
    algebra,
    dominant_representative,
    highest_weight,
    one_norm,
    orbit,
    weight_length,
    weight_stats,
)
from bivar.oracles import convolution_mult, freudenthal_diagram, kostka_count, tensor_conv_mult
from bivar.partitions import partitions_le_length
from bivar.weight_tables import candidate_dominants

B2, B3 = algebra("B", 2), algebra("B", 3)
C2, C3 = algebra("C", 2), algebra("C", 3)
D3, D4 = algebra("D", 3), algebra("D", 4)
A2, A3 = algebra("A", 2), algebra("A", 3)


class TestSingleRow:
    def test_examples(self):
        assert single_row_mult(B2, 1, (0, 0)) == 1
        assert single_row_mult(C2, 2, (0, 0)) == 2
        assert single_row_mult(D3, 2, (1, 1, 1)) == 0

    def test_parity_and_negativity(self):
        assert single_row_mult(C3, 3, (0, 0, 0)) == 0
        assert single_row_mult(D3, 1, (1, 1, 0)) == 0
        assert single_row_mult(B3, 1, (2, 0, 0)) == 0

    def test_type_a_all_weights_multiplicity_one(self):
        assert single_row_mult(A2, 3, (2, 1, 0)) == 1
        assert single_row_mult(A2, 2, (3, 1, 1)) == 1  # shifts to (2,0,0)
        assert single_row_mult(A2, 3, (3, 1, 1)) == 0  # no shift reaches sum 3
        assert single_row_mult(A2, 3, (2, 2, 0)) == 0  # sum defect not divisible

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            single_row_mult(B2, 2, (1, 0, 0))


class TestTensorMult:
    def test_hand_expanded_example(self):
        assert tensor_mult(C2, 1, 1, (0, 0)) == 4

    def test_l_zero_is_single_row(self):
        for spec in (B2, B3, C2, D3, A2):
            for k in range(4):
                for mu in candidate_dominants(spec, k, 0):
                    assert tensor_mult(spec, k, 0, mu) == single_row_mult(spec, k, mu)

    def test_one_norm_bound(self):
        assert tensor_mult(D3, 2, 2, (3, 3, 0)) == 0

    def test_matches_convolution_at_l4(self):
        # convolution gives 552 for the tensor product and 98 for the
        # irreducible representation
        assert tensor_mult(B3, 6, 4, (2, 0, 0)) == tensor_conv_mult(B3, 6, 4, (2, 0, 0))
        assert bivariate_mult(B3, 6, 4, (2, 0, 0)) == convolution_mult(B3, 6, 4, (2, 0, 0))

    def test_convolution_identity_with_single_rows(self):
        # m_tensor(k, l) must equal the convolution of single-row values
        from itertools import product

        for spec in (B2, C2, D3):
            n = spec.rank
            for k, l in [(2, 1), (3, 2), (2, 2)]:
                for mu in candidate_dominants(spec, k, l):
                    direct = tensor_mult(spec, k, l, mu)
                    conv = 0
                    for eta in product(range(-l, l + 1), repeat=n):
                        if one_norm(eta) > l:
                            continue
                        inner = single_row_mult(spec, l, eta)
                        if inner:
                            shifted = tuple(a - b for a, b in zip(mu, eta))
                            conv += inner * single_row_mult(spec, k, shifted)
                    assert direct == conv, (spec, k, l, mu)


class TestBivariate:
    def test_highest_weight_has_multiplicity_one(self):
        for spec in (B2, B3, C2, C3, D3, D4, A2, A3):
            for k, l in [(1, 0), (2, 1), (3, 3), (4, 2)]:
                hw = highest_weight(spec, k, l)
                assert bivariate_mult(spec, k, l, hw) == 1

    def test_four_term_example(self):
        assert bivariate_mult(C2, 1, 1, (0, 0)) == 1

    def test_type_a_tableau_example(self):
        assert bivariate_mult(A2, 2, 2, (2, 1, 1)) == 1

    def test_parity_precondition(self):
        assert bivariate_mult(C3, 2, 1, (0, 0, 0)) == 0

    def test_virtual_ring_identity(self):
        def combo(spec, k, l, mu):
            total = tensor_mult(spec, k, l, mu)
            if l >= 1:
                total -= tensor_mult(spec, k + 1, l - 1, mu)
                total -= tensor_mult(spec, k - 1, l - 1, mu) if k >= 1 else 0
            if l >= 2:
                total += tensor_mult(spec, k, l - 2, mu)
            return total

        for spec in (B2, C2, D3):
            for k, l in [(1, 1), (2, 1), (2, 2), (3, 2)]:
                for mu in candidate_dominants(spec, k, l):
                    assert bivariate_mult(spec, k, l, mu) == combo(spec, k, l, mu)

    def test_weyl_invariance(self):
        for spec in (B2, C2, D3, A2):
            for k, l in [(2, 1), (2, 2)]:
                for mu in candidate_dominants(spec, k, l):
                    reference = bivariate_mult(spec, k, l, mu)
                    for w in orbit(spec, dominant_representative(spec, mu)):
                        assert bivariate_mult(spec, k, l, w) == reference

    def test_vanishing_outside_ball_and_parity(self):
        assert bivariate_mult(B2, 2, 1, (4, 0)) == 0
        assert bivariate_mult(C2, 2, 2, (3, 0)) == 0
        assert bivariate_mult(D3, 3, 1, (1, 1, 1)) == 0

    def test_signature_dependence_only(self):
        # same one-norm and level profile, different weights
        spec = D4
        k, l = 5, 3
        pairs = [((5, 3, 0, 0), (4, 4, 0, 0)), ((6, 1, 1, 0), (4, 3, 1, 0))]
        for mu, nu in pairs:
            if weight_stats(spec, mu, l) == weight_stats(spec, nu, l):
                assert bivariate_mult(spec, k, l, mu) == bivariate_mult(spec, k, l, nu)

    def test_invalid_highest_weight(self):
        with pytest.raises(InvalidHighestWeight):
            bivariate_mult(B2, 1, 2, (0, 0))
        with pytest.raises(InvalidHighestWeight):
            tensor_mult(C2, -1, 0, (0, 0))

    @given(st.sampled_from([algebra(f, 4) for f in "ABCD"]), st.integers(0, 6),
           st.integers(0, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_convolution_random(self, spec, l, excess, data):
        k = l + excess
        # a weight of the one-norm ball of radius k + l + 2 moved by a random signed
        # permutation (A: a permutation and a shift), so every branch of the
        # support rule is met: negative or odd r2, mu_i above k, no A representative
        width = weight_length(spec)
        dominant = data.draw(st.sampled_from(
            [mu for norm in range(k + l + 3) for mu in partitions_le_length(norm, width)]))
        mu = data.draw(st.permutations(dominant))
        if spec.family == "A":
            shift = data.draw(st.integers(-2, 2))
            mu = [a + shift for a in mu]
        else:
            signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=width,
                                       max_size=width))
            mu = [a * s for a, s in zip(mu, signs)]
        assert bivariate_mult(spec, k, l, mu) == convolution_mult(spec, k, l, mu)
        assert tensor_mult(spec, k, l, mu) == tensor_conv_mult(spec, k, l, mu)

    @pytest.mark.parametrize("call", [
        lambda: bivariate_mult(B3, 3, 1, (1.5, 0, 0)),
        lambda: bivariate_mult(B3, 3, 1, ("1", 0, 0)),
        lambda: algebra("B", 2.7),
        lambda: bivariate_mult(B3, 2.5, 1, (1, 0, 0)),
        lambda: kostka_count((2.7, 1), (2, 1)),
        lambda: AlgebraSpec("B", 3.0),
        lambda: bivariate_mult(B3, 3, 1, (True, 0, 0)),
        lambda: bivariate_mult(B3, True, 0, (1, 0, 0)),
        lambda: algebra("B", True),
        lambda: kostka_count((2, True), (2, 1)),
        lambda: tensor_mult(B3, 3, 1, (1.0, 0, 0)),
        lambda: single_row_mult(C3, True, (1, 0, 0)),
        lambda: l1_mult(D3, 2.0, (1, 0, 0)),
        lambda: l2_mult_a(2, 2, (2, True, 0)),
        lambda: l2_mult_d(3, 2, (1.0, 1, 0)),
        lambda: zero_weight_mult(B3, 2, 1.0),
    ], ids=["float-coordinate", "string-coordinate", "float-rank", "float-k",
            "float-shape", "float-spec-rank", "bool-coordinate", "bool-k", "bool-rank",
            "bool-shape", "tensor-float-coordinate", "single-row-bool-k", "l1-float-k",
            "l2-a-bool-coordinate", "l2-d-float-coordinate", "zero-weight-float-l"])
    def test_non_integer_input_rejected(self, call):
        # neither truncated to an int, parsed from a string nor read from a bool as 1 or 0
        with pytest.raises(NotAnInteger):
            call()


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_single_weight_matches_diagram_at_high_rank(data):
    # bivariate_mult itself, one weight at a time, at l 3-6 and ranks 50-10,000,
    # where the closed forms (l <= 2) do not reach and the walk is not used
    spec = algebra(data.draw(st.sampled_from("BCD")), data.draw(st.integers(50, 10_000)))
    l = data.draw(st.integers(3, 6))
    k = data.draw(st.integers(l, l + 3))
    # seeded: drawing 10,000 positions from hypothesis is too large an input
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    diagram = freudenthal_diagram(spec, highest_weight(spec, k, l))
    for mu, m in diagram.entries.items():
        # the rank exceeds k + l >= |mu|_1, so mu has a zero coordinate and every
        # signed shuffle of it is a Weyl image, in D too
        assert 0 in mu
        # a signed shuffle: the nonzero parts, each of either sign, at distinct
        # uniform positions
        parts = [rng.choice((a, -a)) for a in mu if a]
        nu = [0] * len(mu)
        for i, a in zip(rng.sample(range(len(mu)), len(parts)), parts):
            nu[i] = a
        assert bivariate_mult(spec, k, l, nu) == m == diagram.multiplicity(nu), (spec, k, l, mu)


def test_many_parts_single_weight_pinned():
    # 400 nonzero parts: the root over N_0^400 is 400 divisions of the root at
    # s = 0, then one N_a per part; the value recorded when each level's ratio
    # was raised to its count by squaring, a route that shares no step with this one
    mu = (1,) * 400 + (0,) * 600
    assert bivariate_mult(algebra("B", 1000), 400, 8, mu) == 707546771671375556982342750


class TestZeroWeight:
    def test_examples(self):
        assert zero_weight_mult(D3, 2, 1) == 0
        assert zero_weight_mult(C2, 1, 1) == 1
        assert zero_weight_mult(B2, 1, 0) == 1

    def test_adjoint_zero_multiplicity_is_rank(self):
        assert zero_weight_mult(D3, 1, 1) == 3
        assert zero_weight_mult(B2, 1, 1) == 2
        assert zero_weight_mult(C3, 2, 0) == 3  # adjoint of sp(3)

    def test_matches_bivariate_small_grid(self):
        for spec in (B2, B3, C2, C3, D3):
            zero = (0,) * spec.rank
            for total in range(7):
                for l in range(total // 2 + 1):
                    k = total - l
                    assert zero_weight_mult(spec, k, l) == \
                        bivariate_mult(spec, k, l, zero), (spec, k, l)

    @pytest.mark.parametrize("family", "BCD")
    @pytest.mark.parametrize("n", [1000, 10000])
    @pytest.mark.parametrize("k,l", [(20, 14), (11, 7), (8, 8)])
    def test_high_rank_matches_bivariate_in_milliseconds(self, family, n, k, l):
        # each sphere count sums over at most l + 1 numbers of nonzero
        # coordinates, not n + 1: about 3 ms a call at rank 10,000
        spec = algebra(family, n)
        runs = []
        for _ in range(3):
            started = time.perf_counter()
            value = zero_weight_mult(spec, k, l)
            runs.append(time.perf_counter() - started)
        assert value == bivariate_mult(spec, k, l, (0,) * n), (spec, k, l)
        assert min(runs) < 0.05, f"{spec} k{k} l{l}: {min(runs) * 1000:.0f} ms"

    def test_family_a_rejected(self):
        with pytest.raises(ValueError) as caught:
            zero_weight_mult(A2, 2, 0)
        assert isinstance(caught.value, BivarError)


class TestFastPaths:
    def test_l1_examples(self):
        assert l1_mult(A2, 1, (1, 1, 0)) == 1
        assert l1_mult(D3, 1, (1, 1, 1)) == 0
        for spec in (B2, B3, C2, C3, D3, A2):
            mu = highest_weight(spec, 3, 1)
            assert l1_mult(spec, 3, mu) == 1

    def test_l1_matches_bivariate(self):
        for spec in (B2, B3, C3, D3, A2, A3):
            for k in range(1, 6):
                for mu in candidate_dominants(spec, k, 1):
                    assert l1_mult(spec, k, mu) == bivariate_mult(spec, k, 1, mu)

    def test_l2_d_examples(self):
        # 6 is the value of all three independent routes (recursion,
        # general formula, convolution); frozen here after that cross-check
        assert l2_mult_d(3, 3, (1, 1, 1)) == 6
        assert l2_mult_d(3, 3, (1, 1, 1)) == bivariate_mult(D3, 3, 2, (1, 1, 1))
        assert l2_mult_d(4, 4, highest_weight(D4, 4, 2)) == 1
        assert l2_mult_d(3, 2, (3, 2, 0)) == 0  # one-norm beyond k + 2

    def test_l2_a_examples(self):
        assert l2_mult_a(2, 2, (2, 1, 1)) == 1
        assert l2_mult_a(2, 2, (2, 2, 0)) == 1
        assert l2_mult_a(2, 2, (4, 0, 0)) == 0  # coordinate above k

    def test_l2_matches_bivariate(self):
        for n in (3, 4):
            spec = algebra("D", n)
            for k in range(2, 6):
                for mu in candidate_dominants(spec, k, 2):
                    assert l2_mult_d(n, k, mu) == bivariate_mult(spec, k, 2, mu)
        for n in (2, 3):
            spec = algebra("A", n)
            for k in range(2, 6):
                for mu in candidate_dominants(spec, k, 2):
                    assert l2_mult_a(n, k, mu) == bivariate_mult(spec, k, 2, mu)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_match_bivariate_random(self, data):
        path = data.draw(st.sampled_from(["l1", "l2_a", "l2_d", "zero"]))
        family = {"l2_a": "A", "l2_d": "D"}.get(path) or \
            data.draw(st.sampled_from("BCD" if path == "zero" else "ABCD"))
        n = data.draw(st.integers(3 if family == "D" else 2, 7))
        spec = algebra(family, n)
        l = {"l1": 1, "l2_a": 2, "l2_d": 2}.get(path) or data.draw(st.integers(0, 8))
        k = data.draw(st.integers(l, l + 10))
        if path == "zero":
            assert zero_weight_mult(spec, k, l) == \
                bivariate_mult(spec, k, l, (0,) * n), (spec, k, l)
            return
        dominant = data.draw(st.sampled_from(
            list(candidate_dominants(spec, k, l))))
        mu = list(data.draw(st.permutations(dominant)))
        if family == "A":
            shift = data.draw(st.integers(-2, 2))
            mu = [a + shift for a in mu]
        else:
            mu = [a * data.draw(st.sampled_from([1, -1])) for a in mu]
        # a unit step off the candidate reaches weights outside the support
        # and of the other parity
        mu[data.draw(st.integers(0, len(mu) - 1))] += data.draw(st.integers(-1, 1))
        if path == "l1":
            fast = l1_mult(spec, k, mu)
        elif path == "l2_a":
            fast = l2_mult_a(n, k, mu)
        else:
            fast = l2_mult_d(n, k, mu)
        assert fast == bivariate_mult(spec, k, l, mu), (path, spec, k, mu)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_match_bivariate_high_rank(self, data):
        # the closed forms cost a few binomials at any rank, so they check
        # the kernel at ranks 20-200 weight by weight, beside the whole
        # Freudenthal diagrams of tests/test_oracles.py
        path = data.draw(st.sampled_from(["zero", "l1", "l2_d"]))
        family = "D" if path == "l2_d" else data.draw(st.sampled_from("BCD"))
        n = data.draw(st.integers(20, 200))
        spec = algebra(family, n)
        l = {"l1": 1, "l2_d": 2}.get(path) or data.draw(st.integers(0, 10))
        k = data.draw(st.integers(max(l, 1), l + 30))
        if path == "zero":
            assert zero_weight_mult(spec, k, l) == \
                bivariate_mult(spec, k, l, (0,) * n), (spec, k, l)
            return
        # a sparse signed weight: a few small coordinates in random places
        mu = [0] * n
        places = data.draw(st.lists(st.integers(0, n - 1), max_size=8, unique=True))
        for i in places:
            mu[i] = data.draw(st.integers(1, 5)) * data.draw(st.sampled_from([1, -1]))
        fast = l1_mult(spec, k, mu) if path == "l1" else l2_mult_d(n, k, mu)
        assert fast == bivariate_mult(spec, k, l, mu), (path, spec, k, mu)

    def test_preconditions(self):
        with pytest.raises(RankOutOfRange):
            l2_mult_d(2, 4, (1, 1))
        with pytest.raises(InvalidHighestWeight):
            l2_mult_d(3, 1, (1, 0, 0))
        with pytest.raises(InvalidHighestWeight):
            l1_mult(B2, 0, (0, 0))


def _digest_calls():
    # (entry point, args) over a fixed grid: every dominant weight of one-norm
    # <= k + l + 2 and one random signed (B/C/D) or shifted (A) permutation of it
    rng = random.Random(0)
    for family, ranks in (("A", range(2, 6)), ("B", range(2, 6)),
                          ("C", range(2, 6)), ("D", range(3, 6))):
        for n in ranks:
            spec = algebra(family, n)
            width = weight_length(spec)
            for l in range(6):
                for k in (l, l + 2):
                    if family != "A":
                        yield zero_weight_mult, (spec, k, l)
                    for total in range(k + l + 3):
                        for dominant in partitions_le_length(total, width):
                            copy = list(dominant)
                            rng.shuffle(copy)
                            if family == "A":
                                copy = [a + rng.randint(-1, 1) for a in copy]
                            else:
                                copy = [a * rng.choice((1, -1)) for a in copy]
                            for mu in (dominant, tuple(copy)):
                                yield bivariate_mult, (spec, k, l, mu)
                                yield tensor_mult, (spec, k, l, mu)
                                if l == 0:
                                    yield single_row_mult, (spec, k, mu)
                                elif l == 1:
                                    yield l1_mult, (spec, k, mu)
                                elif l == 2 and family == "A":
                                    yield l2_mult_a, (n, k, mu)
                                elif l == 2 and family == "D":
                                    yield l2_mult_d, (n, k, mu)
    for spec in (A2, B3, C3, D3):
        n = spec.rank
        good = (1,) + (0,) * (weight_length(spec) - 1)
        for k, l, mu in [(2.0, 1, good), (True, 0, good), (2, 1, ("1",) + good[1:]),
                         (2, 1, good + (0,)), (1, 2, good), (2, -1, good),
                         (1, 2, ("x",) + good[1:]), (2.0, 1, good + (0,))]:
            yield bivariate_mult, (spec, k, l, mu)
            yield tensor_mult, (spec, k, l, mu)
            yield single_row_mult, (spec, k, mu)
            yield l1_mult, (spec, k, mu)
            yield l2_mult_a, (n, k, mu)
            yield l2_mult_d, (n, k, mu)
            yield zero_weight_mult, (spec, k, l)
    yield zero_weight_mult, (A2, 2, 1)
    yield zero_weight_mult, (A2, 1, 2)
    yield l2_mult_d, (2, 4, (1, 1))


def test_entry_point_digest():
    # every value and every error of the single-weight entry points on a fixed
    # grid, pinned as one SHA-256: a change to the support rule or to the input
    # checks changes it
    digest = hashlib.sha256()
    calls = 0
    for fn, args in _digest_calls():
        try:
            outcome = repr(fn(*args))
        except BivarError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        digest.update(f"{fn.__name__}{args!r} = {outcome}\n".encode())
        calls += 1
    assert (calls, digest.hexdigest()) == (
        54427, "7d947af3711850537b67cf3e9ba22865147470ce5670978a568acd56cc427a64")
