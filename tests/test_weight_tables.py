"""Table assembly: candidates, orbit expansion, mirrors, audits, engines."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_root_systems import brute_orbit

from bivar import kernel
from bivar.errors import InvalidHighestWeight
from bivar.multiplicity import bivariate_mult
from bivar.oracles import convolution_mult, freudenthal_diagram
from bivar.root_systems import (
    algebra,
    canonical_weight,
    highest_weight,
    one_norm,
    weyl_dimension,
)
from bivar.weight_tables import (
    build_table,
    candidate_dominants,
    dimension_audit,
    freudenthal_table,
)

B2, C2, C3, D3, A2 = (algebra("B", 2), algebra("C", 2), algebra("C", 3),
                      algebra("D", 3), algebra("A", 2))


class TestCandidates:
    def test_c2_parity_filter(self):
        # one set: the whole one-norm ball, (1, 0) of odd k + l - |mu|_1 included
        assert set(candidate_dominants(C2, 1, 1)) == {(0, 0), (1, 0), (2, 0), (1, 1)}

    def test_a2_candidates(self):
        assert set(candidate_dominants(A2, 1, 1)) == {(2, 0, 0), (1, 1, 0)}

    def test_b_has_no_parity_filter(self):
        assert set(candidate_dominants(B2, 1, 0)) == {(0, 0), (1, 0)}

    def test_invalid(self):
        with pytest.raises(InvalidHighestWeight):
            list(candidate_dominants(B2, 1, 2))


class TestBuildTable:
    def test_c2_adjoint_like_example(self):
        table = build_table(C2, 1, 1)
        assert len(table.rows) == 5
        weights = dict(table.rows)
        assert weights[(0, 0)] == 1
        for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            assert weights[signs] == 1

    def test_b2_vector_rep(self):
        table = build_table(B2, 1, 0)
        assert len(table.rows) == 5
        assert all(m == 1 for _, m in table.rows)

    def test_highest_weight_row_present(self):
        for spec, k, l in [(B2, 3, 1), (C3, 2, 2), (D3, 4, 1), (A2, 2, 1)]:
            table = build_table(spec, k, l)
            assert dict(table.rows)[highest_weight(spec, k, l)] == 1

    def test_rows_sorted_unique_positive(self):
        table = build_table(D3, 2, 2)
        mus = [mu for mu, _ in table.rows]
        assert mus == sorted(mus)
        assert len(set(mus)) == len(mus)
        assert all(m > 0 for _, m in table.rows)

    @given(st.sampled_from([algebra(f, n) for f in "ABCD"
                            for n in range(3 if f == "D" else 2, 5)]),
           st.integers(0, 4), st.integers(0, 4))
    @example(B2, 1, 1)
    @example(C2, 2, 0)
    @example(D3, 1, 1)
    @example(A2, 1, 2)
    @settings(max_examples=60, deadline=None)
    def test_full_is_union_of_dominant_orbits(self, spec, l, excess):
        k = l + excess
        dom = build_table(spec, k, l, dominant_only=True)
        # mirror rows (D, mu_n < 0) lie in the orbit of their partner
        want = sorted((w, m) for mu, m in dom.rows if mu[-1] >= 0
                      for w in brute_orbit(spec, mu))
        assert build_table(spec, k, l).rows == tuple(want)

    def test_d_mirror_rows(self):
        table = build_table(D3, 2, 2, dominant_only=True)
        weights = dict(table.rows)
        assert (2, 1, 1) in weights and (2, 1, -1) in weights
        assert weights[(2, 1, 1)] == weights[(2, 1, -1)]
        # mirrors listed exactly for rows with a positive last coordinate
        for mu, m in table.rows:
            if mu[-1] > 0:
                assert weights[mu[:-1] + (-mu[-1],)] == m

    def test_parity_of_emitted_weights(self):
        for spec, k, l in [(C2, 3, 1), (D3, 2, 2)]:
            for mu, _ in build_table(spec, k, l).rows:
                assert one_norm(mu) % 2 == (k + l) % 2

    def test_matches_freudenthal_diagram(self):
        for spec, k, l in [(B2, 2, 2), (C3, 2, 1), (D3, 3, 2), (A2, 3, 2)]:
            table = build_table(spec, k, l, dominant_only=True)
            got = {canonical_weight(spec, mu): m for mu, m in table.rows}
            diagram = freudenthal_diagram(spec, highest_weight(spec, k, l))
            assert got == diagram.entries

    @pytest.mark.parametrize("spec,k,l", [(B2, 3, 3), (C3, 4, 3), (D3, 4, 2),
                                          (algebra("D", 4), 5, 3), (A2, 3, 3),
                                          (algebra("A", 4), 6, 4), (C3, 20, 8),
                                          (algebra("B", 4), 12, 1), (algebra("D", 5), 9, 0),
                                          (algebra("C", 6), 9, 9)], ids=str)
    def test_walk_counters(self, spec, k, l):
        first = build_table(spec, k, l, dominant_only=True)
        second = build_table(spec, k, l, dominant_only=True)
        assert second == first
        names = ("candidates", "kept", "products", "reads")
        counts = [first.meta[c] for c in names]
        assert counts == [second.meta[c] for c in names]
        candidates, kept, products, reads = counts
        # the walk returns these four counts and nothing else
        assert kernel.dominant_rows(spec.family, spec.rank, k, l)[1] == dict(zip(names, counts))
        # the walk skips the candidates with mu_1 > k, or odd r2 for C and D,
        # whose multiplicity is 0
        walked = [mu for mu in candidate_dominants(spec, k, l) if mu[0] <= k
                  and (spec.family in "AB" or (k + l - sum(mu)) % 2 == 0)]
        assert candidates == len(walked)
        # a product depends on mu only through the levels min(a, l) of its nonzero
        # parts, largest first: one masked multiply per level prefix, and each
        # prefix is cut from some walked candidate, so no multiply leads nowhere
        levels = [tuple(min(a, l) for a in mu if a) for mu in walked]
        assert products == len({seq[:j] for seq in levels for j in range(1, len(seq) + 1)})
        # so never more than one per prefix of the nonzero values themselves
        assert products <= len({tuple(a for a in mu if a)[:j]
                                for mu in walked for j in range(1, len(mu) + 1)})
        # one C per level class and parity of r2 that some walked candidate has
        assert reads == len({(seq, (k + l - sum(mu)) % 2) for seq, mu in zip(levels, walked)})
        # kept rows are the dominant weights; the D mirrors are added after
        assert kept == sum(1 for mu, _ in first.rows if mu[-1] >= 0)

    @given(st.sampled_from([algebra(f, n) for f in "ABCD"
                            for n in range(3 if f == "D" else 2, 8)]),
           st.integers(0, 8), st.integers(0, 9))
    @example(B2, 0, 0)
    @example(algebra("C", 2), 1, 0)
    @example(D3, 0, 1)
    @example(A2, 0, 0)
    @example(A2, 1, 0)
    @example(algebra("A", 7), 8, 9)
    # k far above l, where one level class holds many weights: big parts up
    # to k, both parities of r2 in one class for B, D mirror rows
    @example(C3, 8, 40)
    @example(algebra("B", 4), 1, 29)
    @example(algebra("A", 3), 2, 23)
    @example(algebra("D", 4), 0, 20)
    @example(algebra("D", 5), 4, 36)
    @settings(max_examples=80, deadline=None)
    def test_walk_matches_candidate_evaluation(self, spec, l, excess):
        k = l + excess
        kernel._packing.cache_clear()
        kernel._packing_a.cache_clear()
        want = [(mu, m) for mu in candidate_dominants(spec, k, l)
                if (m := bivariate_mult(spec, k, l, mu))]
        want += [(mu[:-1] + (-mu[-1],), m) for mu, m in want
                 if spec.family == "D" and mu[-1] > 0]
        assert build_table(spec, k, l, dominant_only=True).rows == tuple(sorted(want))

    @pytest.mark.parametrize("spec,k,l", [(B2, 3, 2), (algebra("B", 4), 5, 4), (C3, 4, 3),
                                          (D3, 4, 2), (algebra("D", 5), 3, 3),
                                          (algebra("A", 3), 4, 3)], ids=str)
    def test_candidates_beyond_k_are_zero(self, spec, k, l):
        beyond = [mu for mu in candidate_dominants(spec, k, l) if mu[0] > k]
        assert beyond
        for mu in beyond:
            # bivariate_mult answers 0 here before any sum; the oracle must agree
            assert bivariate_mult(spec, k, l, mu) == 0 == convolution_mult(spec, k, l, mu), mu
            levels = [abs(a) for a in mu]
            r2 = k + l - sum(levels)
            if spec.family in "AB" or r2 % 2 == 0:
                # and the kernel's own sum, which the walk skips there too
                assert kernel.weight_sum(spec.family, spec.rank, l, r2, levels) == 0, mu


# the 750 (family, rank, k, l) of the walk's digest
WALK_GRID = [(family, n, k, l)
             for family, ranks in (("A", range(2, 7)), ("B", range(2, 9)), ("C", range(2, 9)),
                                   ("D", range(3, 9)))
             for n in ranks for l in range(10) for k in (l, l + 1, l + 4)]


def test_dominant_rows_digest():
    # the walk's rows, hashed over 750 tables (119,608 rows): any change to
    # how the walk carries or reads its products must leave every row as it is
    digest, count = hashlib.sha256(), 0
    for family, n, k, l in WALK_GRID:
        rows, _ = kernel.dominant_rows(family, n, k, l)
        digest.update(f"{family}{n} {k} {l} {sorted(rows)}\n".encode())
        count += len(rows)
    assert (count, digest.hexdigest()) == (
        119608, "f2bd803535469116d9bcbadce1dede9319851737aa8c29e4e34efad6c09ee799")


def assert_walk_dimension(spec, k, l):
    # the orbit-weighted total the audit sums from the walk's rows (D mirror rows
    # included) is Weyl's product, which bivar table writes as the dimension
    table = build_table(spec, k, l, dominant_only=True)
    assert dimension_audit(table)[0] == weyl_dimension(spec, k, l), (spec, k, l)


def test_walk_dimension_grid():
    for family, n, k, l in WALK_GRID:
        assert_walk_dimension(algebra(family, n), k, l)


@given(st.sampled_from("ABCD"), st.integers(2, 1000), st.integers(0, 5), st.integers(0, 5))
@example("D", 1000, 2, 6)
@example("B", 1000, 0, 5)
@settings(max_examples=30, deadline=None)
def test_walk_dimension_at_high_rank(family, n, excess, l):
    assert_walk_dimension(algebra(family, max(n, 3)), l + excess, l)


class TestDimensionAudit:
    def test_examples(self):
        computed, expected, ok = dimension_audit(build_table(C2, 1, 1))
        assert (computed, expected, ok) == (5, 5, True)
        computed, expected, ok = dimension_audit(build_table(A2, 1, 0))
        assert (computed, expected, ok) == (3, 3, True)

    @pytest.mark.parametrize("spec", [B2, C2, C3, D3, A2], ids=str)
    def test_grid(self, spec):
        for total in range(5):
            for l in range(total // 2 + 1):
                k = total - l
                for dominant in (False, True):
                    table = build_table(spec, k, l, dominant_only=dominant)
                    computed, expected, ok = dimension_audit(table)
                    assert ok, (spec, k, l, dominant, computed, expected)

    @given(st.sampled_from([algebra(f, n) for f in "ABCD"
                            for n in range(3 if f == "D" else 2, 8)]),
           st.integers(0, 6), st.integers(0, 9))
    @settings(max_examples=100, deadline=None)
    def test_random_dominant_tables(self, spec, l, excess):
        table = build_table(spec, l + excess, l, dominant_only=True)
        computed, expected, ok = dimension_audit(table)
        assert ok, (spec, l + excess, l, computed, expected)


class TestFreudenthalEngine:
    @pytest.mark.parametrize(
        "spec,k,l", [(B2, 2, 1), (C2, 2, 2), (C3, 3, 1), (D3, 2, 2), (A2, 3, 1),
                     # the two A points have weights with every coordinate positive
                     (algebra("A", 3), 4, 2), (algebra("A", 4), 3, 3),
                     (algebra("B", 3), 3, 2), (C3, 3, 3), (algebra("D", 4), 3, 2)],
        ids=lambda v: str(v))
    def test_agrees_with_bivariate_engine(self, spec, k, l):
        for dominant in (False, True):
            assert freudenthal_table(spec, k, l, dominant_only=dominant).rows == \
                build_table(spec, k, l, dominant_only=dominant).rows

    def test_row_count_is_dimension(self):
        table = freudenthal_table(D3, 2, 1)
        computed, expected, ok = dimension_audit(table)
        assert ok and computed == sum(m for _, m in table.rows)
