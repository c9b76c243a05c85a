"""Algebra specs, weight statistics, orbits, dimension formula."""

import dataclasses
import json
import time
from itertools import permutations, product
from math import factorial, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivar import cli
from bivar.errors import (
    InvalidHighestWeight,
    LengthMismatch,
    NotAnInteger,
    NotDominant,
    RankOutOfRange,
)
from bivar.root_systems import (
    AlgebraSpec,
    algebra,
    canonical_weight,
    dominant_representative,
    is_dominant,
    orbit,
    orbit_size,
    positive_roots,
    rho_twice,
    weight_stats,
    weyl_canonical,
    weyl_dimension,
    weyl_orbit_size,
)
from bivar.weight_tables import MultiplicityTable, build_table, dimension_audit

SMALL_SPECS = [algebra(f, n) for f, n in
               [("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("A", 2), ("A", 3)]]


class TestAlgebraSpec:
    def test_boundaries(self):
        assert algebra("D", 3).rank == 3
        assert algebra("B", 2).family == "B"
        assert algebra("C", 2).rank == 2
        assert algebra("A", 2).rank == 2

    @pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("C", 0), ("A", 1)])
    def test_below_bound(self, family, rank):
        with pytest.raises(RankOutOfRange):
            algebra(family, rank)

    def test_unknown_family(self):
        with pytest.raises(RankOutOfRange):
            algebra("E", 8)

    @pytest.mark.parametrize("family,rank,error,message", [
        ("Q", 3, RankOutOfRange, "unknown family 'Q'; expected one of A, B, C, D"),
        ("D", 2, RankOutOfRange, "rank out of range: family D requires n >= 3, got n = 2"),
        ("B", 3.0, NotAnInteger, "rank must be integers, got (3.0,)"),
    ], ids=["unknown-family", "rank-too-low", "float-rank"])
    def test_invalid_spec_cannot_be_built(self, family, rank, error, message):
        with pytest.raises(error) as raised:
            AlgebraSpec(family, rank)
        assert str(raised.value) == message

    def test_spec_is_a_value(self):
        spec = AlgebraSpec("B", 3)
        assert spec == algebra("b", 3)
        assert hash(spec) == hash(algebra("b", 3))
        assert repr(spec) == "AlgebraSpec(family='B', rank=3)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.rank = 1
        with pytest.raises(RankOutOfRange):
            dataclasses.replace(spec, rank=1)

    def test_rank_is_stored_as_an_int(self):
        class Four:
            def __index__(self):
                return 4

        spec = AlgebraSpec("C", Four())
        assert type(spec.rank) is int and spec == algebra("C", 4)


class TestWeightStats:
    def test_examples(self):
        assert weight_stats(algebra("B", 3), (2, 1, 0), 2) == (3, (1, 1))
        assert weight_stats(algebra("D", 4), (0, 0, 0, 0), 1) == (0, (4,))
        assert weight_stats(algebra("C", 3), (-2, 1, -1), 2) == (4, (0, 2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weight_stats(algebra("C", 3), (1, 2), 1)

    def test_level_must_be_an_integer(self):
        with pytest.raises(NotAnInteger):
            weight_stats(algebra("B", 3), (1, 0, 0), 2.0)

    def test_bounds(self):
        norm, ell = weight_stats(algebra("B", 4), (3, -2, 2, 0), 3)
        assert norm == 7
        assert all(0 <= c <= 4 for c in ell)
        assert sum(ell) <= 4


def small_weights(spec, bound=3):
    from itertools import product

    length = spec.rank + 1 if spec.family == "A" else spec.rank
    return product(range(-bound, bound + 1), repeat=length)


class TestDominantRepresentative:
    def test_examples(self):
        assert dominant_representative(algebra("C", 3), (-1, 3, 0)) == (3, 1, 0)
        assert dominant_representative(algebra("D", 3), (1, 1, -2)) == (2, 1, 1)
        assert dominant_representative(algebra("A", 2), (0, 2, 1)) == (2, 1, 0)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_idempotent_and_orbit_constant(self, spec):
        for mu in small_weights(spec, 2):
            rep = dominant_representative(spec, mu)
            assert dominant_representative(spec, rep) == rep
            assert weight_stats(spec, mu, 3) == weight_stats(spec, rep, 3)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_orbit_contains_every_weight(self, spec):
        seen = 0
        for mu in small_weights(spec, 2):
            rep = dominant_representative(spec, mu)
            if spec.family == "A":
                mu = canonical_weight(spec, mu)
            if mu in orbit(spec, rep):
                seen += 1
            else:
                raise AssertionError(f"{mu} missing from orbit of {rep}")
        assert seen > 0


def reference_is_dominant(spec, coords):
    # is_dominant as it read with its own decreasing pass per family branch
    fam = spec.family
    if fam == "A":
        return all(coords[i] >= coords[i + 1] for i in range(len(coords) - 1))
    if any(coords[i] < coords[i + 1] for i in range(len(coords) - 1)):
        return False
    if fam == "D":
        return len(coords) < 2 or coords[-2] >= abs(coords[-1])
    return coords[-1] >= 0


def reference_orbit_accepts(spec, coords):
    # the orbit walk's row check as it read when written apart from is_dominant
    decreasing = all(coords[i] >= coords[i + 1] for i in range(len(coords) - 1))
    return decreasing and (spec.family == "A" or coords[-1] >= 0)


@pytest.mark.parametrize("spec", [algebra(f, n) for f, n in [
    ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)]], ids=str)
def test_dominance_and_orbit_rows_match_the_separate_predicates(spec):
    # every weight with coordinates in [-3, 3]: is_dominant and orbit accept
    # and reject exactly what the two hand-written predicates did
    accepted = 0
    for mu in small_weights(spec, 3):
        assert is_dominant(spec, mu) == reference_is_dominant(spec, mu), mu
        if reference_orbit_accepts(spec, mu):
            assert mu in orbit(spec, mu)
            accepted += 1
        else:
            with pytest.raises(NotDominant, match=r"^weight \(.*\) is not a sorted non-negative"):
                orbit(spec, mu)
    assert accepted > 0


class TestOrbit:
    def test_examples(self):
        assert set(orbit(algebra("B", 2), (1, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert orbit(algebra("D", 3), (0, 0, 0)) == ((0, 0, 0),)
        c2 = orbit(algebra("C", 2), (1, 1))
        assert len(c2) == 4
        assert set(c2) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_not_dominant(self):
        with pytest.raises(NotDominant):
            orbit(algebra("B", 2), (0, 1))
        with pytest.raises(NotDominant):
            orbit(algebra("C", 2), (1, -1))

    def test_sorted_output(self):
        got = orbit(algebra("D", 3), (2, 1, 0))
        assert got == tuple(sorted(got))

    def test_type_a_permutes_coordinates_as_given(self):
        # no shift to minimum 0: full A tables rely on the members keeping
        # the representative's sum k + l
        a2 = algebra("A", 2)
        assert orbit(a2, (3, 2, 1)) == (
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
        assert orbit(a2, (1, 0, -1)) == (
            (-1, 0, 1), (-1, 1, 0), (0, -1, 1), (0, 1, -1), (1, -1, 0), (1, 0, -1))

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
    def test_size_matches_and_divides_group_order(self, spec):
        from math import factorial

        n = spec.rank
        group = factorial(n + 1) if spec.family == "A" else factorial(n) * 2 ** n
        for mu in [(0,) * (n + 1 if spec.family == "A" else n)] + [
            dominant_representative(spec, w) for w in small_weights(spec, 2)
        ][:40]:
            rep = dominant_representative(spec, mu)
            members = orbit(spec, rep)
            assert len(members) == orbit_size(spec, rep)
            assert group % len(members) == 0

    def test_full_table_text_rejects_bad_rows(self):
        def text(rows, spec=algebra("D", 3)):
            return b"".join(cli.table_text(MultiplicityTable(spec, 0, 0, True, rows), "csv",
                                           full=True))

        with pytest.raises(NotDominant):
            text([((1, 2, 0), 1)])
        with pytest.raises(ValueError):
            text([((2, 1, 0), 1), ((2, 1, 0), 2)])
        assert text([]) == b"mu_1,mu_2,mu_3,mult\n"
        # a negative last coordinate is a D mirror row, dropped before the walk
        assert text([((2, 1, -1), 1)]) == b"mu_1,mu_2,mu_3,mult\n"
        # in B and C it is no dominant row, and is refused rather than dropped
        with pytest.raises(NotDominant):
            text([((1, 0), 1), ((1, -1), 5)], algebra("B", 2))
        with pytest.raises(NotDominant):
            text([((1, -1), 1)], algebra("C", 2))
        # an A row is written as its orbit, the permutations of the coordinates as given
        rows = [",".join(map(str, w)) + ",1\n" for w in sorted(set(permutations((2, 1, -1))))]
        assert text([((2, 1, -1), 1)], algebra("A", 2)).decode() == \
            "mu_1,mu_2,mu_3,mult\n" + "".join(rows)

    def test_weyl_orbit_size_d_mirror_split(self):
        spec = algebra("D", 3)
        assert orbit_size(spec, (2, 1, 1)) == 2 * weyl_orbit_size(spec, (2, 1, 1))
        assert orbit_size(spec, (2, 1, 0)) == weyl_orbit_size(spec, (2, 1, 0))
        assert weyl_orbit_size(spec, (2, 1, 1)) == weyl_orbit_size(spec, (2, 1, -1))


def factorial_orbit_size(spec, mu, weyl):
    # the reference: (number of coordinates)! over the factorial of each value's
    # count, times 2 per nonzero coordinate for B/C/D, halved for a D Weyl orbit
    # of a weight with no zero
    coords = canonical_weight(spec, mu)
    body = coords if spec.family == "A" else [abs(a) for a in coords]
    size = factorial(len(body))
    for value in set(body):
        size //= factorial(body.count(value))
    if spec.family == "A":
        return size
    nonzero = sum(1 for a in body if a)
    size <<= nonzero
    return size // 2 if weyl and spec.family == "D" and nonzero == len(body) else size


def sparse_weights(spec):
    # a few nonzero parts, some repeated, some negative, anywhere among the
    # coordinates; for D also weights with no zero, where the Weyl orbit halves
    length = spec.rank + 1 if spec.family == "A" else spec.rank
    out = []
    for parts in [(), (3,), (2, 2, 1), (1, 1, 1, 1), (-1, 2, 2, -2, 5), (4, -4, 4, 1, -1, 1, 1)]:
        for place in (0, length // 3, length - len(parts)):
            mu = [0] * length
            mu[place:place + len(parts)] = parts
            out.append(tuple(mu))
    out += [(1,) * length, (3,) + (1,) * (length - 2) + (-1,), (2, 2) + (1,) * (length - 2)]
    return out


class TestOrbitSize:
    @pytest.mark.parametrize("spec", [algebra(f, n) for f in "ABCD"
                                      for n in range(3 if f == "D" else 2, 7)], ids=str)
    def test_small_weights_match_the_factorial_formula(self, spec):
        for mu in small_weights(spec, 2 if spec.rank < 5 else 1):
            assert orbit_size(spec, mu) == factorial_orbit_size(spec, mu, False), mu
            assert weyl_orbit_size(spec, mu) == factorial_orbit_size(spec, mu, True), mu

    @pytest.mark.parametrize("family", "ABCD")
    @pytest.mark.parametrize("n", [100, 1000, 5000])
    def test_sparse_weights_at_high_rank_match_the_factorial_formula(self, family, n):
        spec = algebra(family, n)
        for mu in sparse_weights(spec):
            assert orbit_size(spec, mu) == factorial_orbit_size(spec, mu, False), mu
            assert weyl_orbit_size(spec, mu) == factorial_orbit_size(spec, mu, True), mu

    def test_audit_at_high_rank_is_fast(self):
        # the audit's cost per row grows with the rank only through a sort
        table = build_table(algebra("C", 5000), 8, 6, dominant_only=True)
        started = time.perf_counter()
        computed, expected, ok = dimension_audit(table)
        assert time.perf_counter() - started < 0.25
        assert ok, (computed, expected)


class TestWeylCanonical:
    def test_d_parity(self):
        spec = algebra("D", 3)
        assert weyl_canonical(spec, (-2, 1, 1)) == (2, 1, -1)
        assert weyl_canonical(spec, (-2, 1, 0)) == (2, 1, 0)
        assert weyl_canonical(spec, (2, -1, -1)) == (2, 1, 1)

    def test_matches_hyperoctahedral_for_bc(self):
        for spec in (algebra("B", 2), algebra("C", 3)):
            for mu in small_weights(spec, 2):
                assert weyl_canonical(spec, mu) == dominant_representative(spec, mu)

    def test_is_dominant(self):
        assert is_dominant(algebra("D", 3), (2, 1, -1))
        assert not is_dominant(algebra("D", 3), (1, 1, -2))
        assert is_dominant(algebra("B", 2), (2, 0))
        assert not is_dominant(algebra("B", 2), (2, -1))
        assert is_dominant(algebra("A", 2), (3, 1, 0))


class TestWeylDimension:
    def test_examples(self):
        assert weyl_dimension(algebra("C", 2), 1, 1) == 5
        assert weyl_dimension(algebra("B", 2), 1, 0) == 5
        assert weyl_dimension(algebra("A", 2), 1, 1) == 3

    def test_known_small_dimensions(self):
        # defining representations and adjoints
        assert weyl_dimension(algebra("A", 2), 1, 0) == 3
        assert weyl_dimension(algebra("A", 2), 2, 0) == 6
        assert weyl_dimension(algebra("D", 3), 1, 0) == 6
        assert weyl_dimension(algebra("D", 3), 1, 1) == 15
        assert weyl_dimension(algebra("B", 2), 1, 1) == 10
        assert weyl_dimension(algebra("C", 3), 1, 1) == 14

    def test_invalid_highest_weight(self):
        with pytest.raises(InvalidHighestWeight):
            weyl_dimension(algebra("B", 2), 1, 2)

    def test_trivial(self):
        for spec in SMALL_SPECS:
            assert weyl_dimension(spec, 0, 0) == 1

    def test_equals_product_over_all_positive_roots(self):
        # the telescoped product against Weyl's over every root, as the doubled
        # pairings <2 lambda + 2 rho, alpha> / <2 rho, alpha>
        for family in "ABCD":
            for n in range(3 if family == "D" else 2, 31):
                spec = algebra(family, n)
                rho2 = rho_twice(spec)
                # each root's pairing with 2 rho and its coefficients on e_1 and e_2
                pairings = [(sum(map(mul, root, rho2)), root[0], root[1])
                            for root in positive_roots(spec)]
                den = prod(p for p, _, _ in pairings)
                for l in range(7):
                    for k in range(l, l + 7):
                        num = prod(p + 2 * (a * k + b * l) for p, a, b in pairings)
                        assert num % den == 0 and weyl_dimension(spec, k, l) == num // den, \
                            (spec, k, l)

    def test_high_rank_is_fast(self):
        # no list of the 10^8 positive roots of B10000
        started = time.perf_counter()
        weyl_dimension(algebra("B", 10000), 10, 8)
        assert time.perf_counter() - started < 0.1


@given(st.sampled_from(SMALL_SPECS), st.data())
@settings(max_examples=80, deadline=None)
def test_stats_invariant_under_signed_permutation(spec, data):
    length = spec.rank + 1 if spec.family == "A" else spec.rank
    mu = tuple(
        data.draw(st.integers(-4, 4), label=f"mu[{i}]") for i in range(length)
    )
    rep = dominant_representative(spec, mu)
    assert weight_stats(spec, mu, 4) == weight_stats(spec, rep, 4)


def brute_orbit(spec, mu):
    """The orbit as a set: every permutation, with every sign choice for B/C/D."""
    if spec.family == "A":
        return set(permutations(mu))
    return {signed for perm in permutations(mu)
            for signed in product(*[(a, -a) for a in perm])}


@st.composite
def dominant_rows(draw, max_rows):
    """A spec and 1..max_rows distinct sorted non-negative weights for it."""
    family = draw(st.sampled_from("ABCD"))
    spec = algebra(family, draw(st.integers(3 if family == "D" else 2, 5)))
    length = spec.rank + 1 if family == "A" else spec.rank
    weight = st.lists(st.integers(0, 4), min_size=length, max_size=length).map(
        lambda entries: tuple(sorted(entries, reverse=True)))
    return spec, draw(st.lists(weight, min_size=1, max_size=max_rows, unique=True))


@given(dominant_rows(max_rows=1))
@settings(max_examples=150, deadline=None)
def test_orbit_matches_brute_force(case):
    spec, (mu,) = case
    got = orbit(spec, mu)
    assert got == tuple(sorted(brute_orbit(spec, mu)))
    assert len(got) == orbit_size(spec, mu)


@given(dominant_rows(max_rows=4), st.data())
@settings(max_examples=150, deadline=None)
def test_full_table_text_matches_brute_force(case, data):
    spec, mus = case
    rows = [(mu, data.draw(st.integers(1, 10**30), label=f"m{i}")) for i, mu in enumerate(mus)]
    table = MultiplicityTable(spec, 0, 0, True, rows)
    # a small piece size splits even these texts into many pieces
    piece = data.draw(st.sampled_from([1, 40, cli.PIECE]), label="piece")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "PIECE", piece)
        lines = b"".join(cli.table_text(table, "csv", full=True)).split(b"\n")[1:-1]
        text = b"".join(cli.table_text(table, "json", full=True))
    # the orbits are disjoint: every weight once, all orbits merged in lexicographic order
    want = sorted((w, m) for mu, m in rows for w in brute_orbit(spec, mu))
    assert lines == [(",".join(map(str, w)) + f",{m}").encode() for w, m in want]
    objects = [{"mu": list(w), "mult": str(m)} for w, m in want]
    json_rows = text[text.index(b"["):text.rindex(b"]") + 1]
    assert json_rows == json.dumps(objects, separators=(",", ":")).encode()
