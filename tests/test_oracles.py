"""Freudenthal recursion, convolution route, and tableau counting."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivar.errors import BivarError, NotDominant, ShapeContentMismatch
from bivar.multiplicity import bivariate_mult, single_row_mult, tensor_mult
from bivar.oracles import (
    convolution_mult,
    freudenthal_diagram,
    kostka_count,
    tensor_conv_mult,
)
from bivar.root_systems import (
    algebra,
    canonical_weight,
    highest_weight,
    one_norm,
    weight_length,
    weyl_dimension,
    weyl_orbit_size,
)
from bivar.weight_tables import build_table, candidate_dominants

B2, C2, D3, A2 = algebra("B", 2), algebra("C", 2), algebra("D", 3), algebra("A", 2)


def diagram_dimension(diagram):
    return sum(weyl_orbit_size(diagram.spec, mu) * m
               for mu, m in diagram.entries.items())


class TestFreudenthal:
    def test_vector_rep_so5(self):
        diagram = freudenthal_diagram(B2, (1, 0))
        assert diagram.entries == {(1, 0): 1, (0, 0): 1}
        assert diagram_dimension(diagram) == 5

    def test_five_dim_rep_sp2(self):
        diagram = freudenthal_diagram(C2, (1, 1))
        assert diagram.entries == {(1, 1): 1, (0, 0): 1}
        assert diagram_dimension(diagram) == 5

    def test_sym_square_sl3(self):
        diagram = freudenthal_diagram(A2, (2, 0, 0))
        assert all(m == 1 for m in diagram.entries.values())
        assert diagram_dimension(diagram) == 6

    def test_adjoint_zero_weight_is_rank(self):
        assert freudenthal_diagram(D3, (1, 1, 0)).entries[(0, 0, 0)] == 3
        assert freudenthal_diagram(B2, (1, 1)).entries[(0, 0)] == 2

    def test_rejects_non_dominant(self):
        with pytest.raises(NotDominant):
            freudenthal_diagram(B2, (0, 1))

    def test_d_negative_last_coordinate_highest_weight(self):
        # the recursion accepts any dominant weight, including spin-style
        # mirrors with a_n < 0 outside the bivariate family
        plus = freudenthal_diagram(D3, (1, 1, 1))
        minus = freudenthal_diagram(D3, (1, 1, -1))
        assert diagram_dimension(plus) == diagram_dimension(minus)
        assert plus.entries != minus.entries

    @pytest.mark.parametrize("spec", [B2, C2, D3, A2], ids=str)
    def test_dimension_matches_weyl_formula(self, spec):
        for total in range(5):
            for l in range(total // 2 + 1):
                k = total - l
                diagram = freudenthal_diagram(spec, highest_weight(spec, k, l))
                assert diagram_dimension(diagram) == weyl_dimension(spec, k, l)

    def test_multiplicity_lookup_routes_through_canonical_form(self):
        diagram = freudenthal_diagram(C2, (2, 1))
        assert diagram.multiplicity((-1, 2)) == diagram.multiplicity((2, 1))


def _diagram_digest_inputs():
    # (spec, highest weight): every k e1 + l e2 with k + l <= 8 on A2-A5, B2-B5,
    # C2-C5 and D3-D5, 200 seeded random dominant weights of one-norm <= 8 (A
    # shifted off its canonical form, D with a negative last coordinate among
    # them) and a few inputs that must raise
    for family, ranks in (("A", range(2, 6)), ("B", range(2, 6)),
                          ("C", range(2, 6)), ("D", range(3, 6))):
        for n in ranks:
            spec = algebra(family, n)
            for total in range(9):
                for l in range(total // 2 + 1):
                    yield spec, highest_weight(spec, total - l, l)
    rng = random.Random(26)
    drawn = 0
    while drawn < 200:
        family = rng.choice("ABCD")
        spec = algebra(family, rng.randint(3 if family == "D" else 2, 6))
        low = -3 if family == "A" else 0
        lam = sorted((rng.randint(low, 4) for _ in range(weight_length(spec))),
                     reverse=True)
        if family == "D" and rng.random() < 0.5:
            lam[-1] = -lam[-1]
        if one_norm(lam) <= 8:
            drawn += 1
            yield spec, tuple(lam)
    yield B2, (0, 1)
    yield C2, (1, -1)
    yield D3, (1, 0, -1)
    yield algebra("D", 4), (1, 2, 0, 0)
    yield A2, (0, 1, 0)
    yield B2, (1, 0, 0)
    yield C2, (1.5, 0)


def test_freudenthal_diagram_digest():
    # every diagram and every error of freudenthal_diagram on a fixed grid,
    # pinned as one SHA-256: the recursion's entries, keys and input checks
    # cannot change without changing it
    digest = hashlib.sha256()
    inputs = 0
    for spec, lam in _diagram_digest_inputs():
        try:
            outcome = repr(sorted(freudenthal_diagram(spec, lam).entries.items()))
        except BivarError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        digest.update(f"{spec.family}{spec.rank} {lam!r} = {outcome}\n".encode())
        inputs += 1
    assert (inputs, digest.hexdigest()) == (
        582, "275b17058fd0084acedae1925a7e7cfdbe4cc150147e9b333ee49be361a95ab8")


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_diagram_equals_dominant_table_at_high_rank(data):
    # the recursion's cost per weight does not grow with the rank, so it
    # checks whole dominant tables of the kernel walk far past rank 6
    family = data.draw(st.sampled_from("ABCD"))
    spec = algebra(family, data.draw(st.integers(8, 10_000)))
    l = data.draw(st.integers(3, 6))
    k = data.draw(st.integers(l, l + 3))
    table = build_table(spec, k, l, dominant_only=True)
    want = {canonical_weight(spec, mu): m for mu, m in table.rows}
    assert freudenthal_diagram(spec, highest_weight(spec, k, l)).entries == want


@given(st.sampled_from([algebra(f, n) for f in "ABCD" for n in range(3 if f == "D" else 2, 8)]),
       st.integers(7, 10), st.integers(0, 6))
@example(algebra("B", 7), 9, 6)
@example(algebra("C", 6), 7, 0)
@example(algebra("D", 7), 10, 3)
@settings(max_examples=12, deadline=None)
def test_diagram_equals_dominant_table_at_large_l(spec, l, excess):
    # l 7-10, k l..l+6: odd l, where (1 - y)/(1 + y) in the walk's child ratio
    # ends in -2 y^l, and in type B both parities of r2 in one table. The
    # diagram grows with the rank up to rank k + l, so the rank stays at most 7
    # (about 2 s for the largest table)
    k = l + excess
    table = build_table(spec, k, l, dominant_only=True)
    want = {canonical_weight(spec, mu): m for mu, m in table.rows}
    assert freudenthal_diagram(spec, highest_weight(spec, k, l)).entries == want


class TestConvolution:
    def test_hand_example(self):
        assert convolution_mult(C2, 1, 1, (0, 0)) == 1

    def test_l_zero_equals_single_row(self):
        for spec in (B2, C2, D3, A2):
            for k in range(4):
                for mu in candidate_dominants(spec, k, 0):
                    assert convolution_mult(spec, k, 0, mu) == \
                        single_row_mult(spec, k, mu)

    def test_matches_bivariate(self):
        for spec in (B2, C2, D3, A2):
            for k, l in [(1, 1), (2, 1), (2, 2), (3, 1)]:
                for mu in candidate_dominants(spec, k, l):
                    assert convolution_mult(spec, k, l, mu) == \
                        bivariate_mult(spec, k, l, mu), (spec, k, l, mu)

    def test_tensor_side_matches_formula(self):
        for spec in (B2, C2, D3, A2):
            for k, l in [(2, 1), (2, 2)]:
                for mu in candidate_dominants(spec, k, l):
                    assert tensor_conv_mult(spec, k, l, mu) == \
                        tensor_mult(spec, k, l, mu)


class TestKostka:
    def test_examples(self):
        assert kostka_count((2, 2), (2, 1, 1)) == 1
        assert kostka_count((1, 1), (1, 1, 0)) == 1
        for content in [(3,), (2, 1), (1, 1, 1)]:
            assert kostka_count((3,), content) == 1

    def test_known_values(self):
        # shape (2,1) with content (1,1,1) has the two standard tableaux
        assert kostka_count((2, 1), (1, 1, 1)) == 2
        assert kostka_count((2, 1), (2, 1)) == 1
        assert kostka_count((2, 1), (1, 2)) == 1
        assert kostka_count((2, 2), (1, 1, 1, 1)) == 2

    def test_column_strictness_blocks_fat_content(self):
        assert kostka_count((1, 1), (2,)) == 0

    def test_more_cells_than_the_recursion_limit(self):
        # one cell after another, with no call stack that grows per cell
        assert kostka_count((1000,), (1000,)) == 1
        assert kostka_count((600, 400), (500, 500)) == 1

    def test_shape_content_mismatch(self):
        with pytest.raises(ShapeContentMismatch):
            kostka_count((2, 1), (1, 1, 1, 1))
        with pytest.raises(ShapeContentMismatch):
            kostka_count((2, 1), (-1, 4))
        # the shape is checked as given, before its zero rows are dropped
        with pytest.raises(ShapeContentMismatch):
            kostka_count((2, -1), (1, 1))
        with pytest.raises(ShapeContentMismatch):
            kostka_count((2, 0, -3), (2,))
        with pytest.raises(ShapeContentMismatch):
            kostka_count((1, 0, 1), (1, 1))
        assert kostka_count((2, 1, 0, 0), (1, 1, 1)) == 2

    def test_matches_bivariate_for_type_a(self):
        for n in (2, 3):
            spec = algebra("A", n)
            for total in range(5):
                for l in range(total // 2 + 1):
                    k = total - l
                    shape = (k, l) if l else ((k,) if k else ())
                    for mu in candidate_dominants(spec, k, l):
                        assert kostka_count(shape, mu) == \
                            bivariate_mult(spec, k, l, mu), (n, k, l, mu)
