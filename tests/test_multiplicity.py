"""Formula layer: single rows, tensor products, the four-term combination,
fast paths, and the structural identities that tie them together."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivar import NotAnInteger
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
    weight_stats,
)
from bivar.oracles import convolution_mult, kostka_count, tensor_conv_mult
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
                for mu in candidate_dominants(spec, k, 0, parity_filter=False):
                    assert tensor_mult(spec, k, 0, mu) == single_row_mult(spec, k, mu)

    def test_one_norm_bound(self):
        assert tensor_mult(D3, 2, 2, (3, 3, 0)) == 0

    @pytest.mark.xfail(strict=True, reason="the B/C/D tensor sum is wrong from l = 4 on "
                       "(ROADMAP open item); it agrees with convolution for l <= 3")
    def test_matches_convolution_at_l4(self):
        # tensor_mult gives 545 where convolution gives 552, and so
        # bivariate_mult gives 91 where convolution_mult gives 98
        assert tensor_mult(B3, 6, 4, (2, 0, 0)) == tensor_conv_mult(B3, 6, 4, (2, 0, 0))

    def test_convolution_identity_with_single_rows(self):
        # m_tensor(k, l) must equal the convolution of single-row values
        from itertools import product

        for spec in (B2, C2, D3):
            n = spec.rank
            for k, l in [(2, 1), (3, 2), (2, 2)]:
                for mu in candidate_dominants(spec, k, l, parity_filter=False):
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
                for mu in candidate_dominants(spec, k, l, parity_filter=False):
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

    # l <= 3 only: from l = 4 on the B/C/D sum is known to be wrong
    # (test_matches_convolution_at_l4 pins it), so a larger l would fail here
    # on that one defect rather than test anything new
    @given(st.sampled_from([algebra(f, 4) for f in "ABCD"]), st.integers(0, 3),
           st.integers(0, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_convolution_random(self, spec, l, excess, data):
        k = l + excess
        mu = data.draw(st.sampled_from(
            list(candidate_dominants(spec, k, l, parity_filter=False))))
        assert bivariate_mult(spec, k, l, mu) == convolution_mult(spec, k, l, mu)

    @pytest.mark.parametrize("call", [
        lambda: bivariate_mult(B3, 3, 1, (1.5, 0, 0)),
        lambda: bivariate_mult(B3, 3, 1, ("1", 0, 0)),
        lambda: algebra("B", 2.7),
        lambda: bivariate_mult(B3, 2.5, 1, (1, 0, 0)),
        lambda: kostka_count((2.7, 1), (2, 1)),
        lambda: bivariate_mult(AlgebraSpec("B", 3.0), 3, 1, (1, 0, 0)),
    ], ids=["float-coordinate", "string-coordinate", "float-rank", "float-k",
            "float-shape", "float-spec-rank"])
    def test_non_integer_input_rejected(self, call):
        # neither truncated to an int nor parsed from a string
        with pytest.raises(NotAnInteger):
            call()


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

    def test_family_a_rejected(self):
        with pytest.raises(ValueError):
            zero_weight_mult(A2, 2, 0)


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
                for mu in candidate_dominants(spec, k, 1, parity_filter=False):
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

    def test_preconditions(self):
        with pytest.raises(RankOutOfRange):
            l2_mult_d(2, 4, (1, 1))
        with pytest.raises(InvalidHighestWeight):
            l2_mult_d(3, 1, (1, 0, 0))
        with pytest.raises(InvalidHighestWeight):
            l1_mult(B2, 0, (0, 0))
