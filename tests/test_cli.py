"""Command-line surface: flags, exit codes, serialization, verification."""

import dataclasses
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bivar
from bivar import cli, root_systems
from bivar.errors import InvalidHighestWeight, LengthMismatch, NotAnInteger
from bivar.partitions import count_one_norm_sphere
from bivar.root_systems import algebra, weight_length, weyl_dimension
from bivar.weight_tables import MultiplicityTable, build_table, dimension_audit


MISSING = object()  # a header value that deletes the field
B2_K1_L0 = [{"mu": [0, 0], "mult": "1"}, {"mu": [1, 0], "mult": "1"}]  # its dominant rows


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_json(table):
    """The JSON writer as it was: one dict per row through json.dumps."""
    computed, _expected, _ok = dimension_audit(table)
    obj = {
        "family": table.spec.family,
        "rank": table.spec.rank,
        "k": table.k,
        "l": table.l,
        "dominant_only": table.dominant_only,
        "rows": [{"mu": list(mu), "mult": str(m)} for mu, m in table.rows],
        "dimension": str(computed),
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


def reference_csv(table):
    """The CSV writer as it was: str() of each coordinate, one line per row."""
    header = ",".join(f"mu_{i + 1}" for i in range(weight_length(table.spec))) + ",mult"
    lines = [header]
    for mu, m in table.rows:
        lines.append(",".join(str(a) for a in mu) + "," + str(m))
    return "\n".join(lines) + "\n"


def digest(text):
    """SHA-256 of ``text``: a failed comparison of megabyte texts shows two
    short strings instead of a diff that takes minutes to compute."""
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of ``bivar table --dominant-only --format json`` at the benchmark's
# dominant_tables points (family, rank, k, l) and at two type A points
DOMINANT_DIGESTS = {
    ("B", 5, 10, 6): "c93c6cd90d96e31bd9046d12bf9641d5790747a01534da5e7d524094c9b65095",
    ("B", 6, 9, 6): "4cc38782d4ea13ee57cfa0b9ac469f9f72062842124974903391afe392adb836",
    ("C", 3, 20, 8): "f1a7b77d306a6cf1905b017d3bbda5fc76002be08b4fd7ed229d751f2558a6a6",
    ("C", 4, 10, 8): "6f4188a1c55c89c8fef7d41ff31d5cbf0bf6aeb8bee5a75bdc4c51d487557288",
    ("D", 5, 16, 6): "abd9b87a50038aaa47f34a5156a080dd6c6c042d170febb05a3b3d94a4b40446",
    ("D", 6, 12, 6): "7968ef0b585e34a365e35e0acd629ad72e7f602d4522167a1f7a90cf8cfe72f8",
    ("A", 8, 20, 12): "1dfbc1920e8096ec43d9395635907d412e6527b9eafbd03455a0f5b5886bb619",
    ("A", 6, 30, 14): "cc17c3be4920081de671b383d82a35ac30a401c9420e123f6cabba47e2b6d383",
}


def support_size(family, rank, total):
    """How many lattice points can be weights of a table with k + l = total:
    the one-norm ball of that radius (B/C/D), or the compositions of total
    into rank + 1 parts (A)."""
    if family == "A":
        return comb(total + rank, rank)
    return sum(count_one_norm_sphere(rank, t) for t in range(total + 1))


@st.composite
def full_table_points(draw, max_weights=25000):
    """(family, rank, k, l, format, dominant_only) with l <= 6 and k <= l + 4,
    k + l capped so that the support holds at most ``max_weights`` points."""
    family = draw(st.sampled_from("ABCD"))
    rank = draw(st.integers(3 if family == "D" else 2, 6))
    cap = max(t for t in range(17) if support_size(family, rank, t) <= max_weights)
    l = draw(st.integers(0, min(6, cap // 2)))
    k = draw(st.integers(l, min(l + 4, cap - l)))
    return family, rank, k, l, draw(st.sampled_from(["json", "csv"])), draw(st.booleans())


class TestMult:
    def test_example(self, capsys):
        code, out, _ = run(capsys, ["mult", "--family", "C", "--rank", "2",
                                    "--k", "1", "--l", "1", "--mu", "0,0"])
        assert code == 0
        assert out.strip() == "1"

    def test_highest_weight(self, capsys):
        code, out, _ = run(capsys, ["mult", "--family", "B", "--rank", "2",
                                    "--k", "3", "--l", "1", "--mu", "3,1"])
        assert code == 0
        assert out.strip() == "1"

    def test_rank_out_of_range(self, capsys):
        code, _, err = run(capsys, ["mult", "--family", "D", "--rank", "2",
                                    "--k", "1", "--l", "0", "--mu", "1,0"])
        assert code == 2
        assert "rank out of range" in err

    def test_bad_vector_length(self, capsys):
        code, _, err = run(capsys, ["mult", "--family", "C", "--rank", "3",
                                    "--k", "1", "--l", "0", "--mu", "1,0"])
        assert code == 2
        assert "length mismatch" in err

    def test_k_less_than_l(self, capsys):
        code, _, err = run(capsys, ["mult", "--family", "C", "--rank", "2",
                                    "--k", "1", "--l", "2", "--mu", "0,0"])
        assert code == 2
        assert "k >= l" in err

    @pytest.mark.parametrize("flags", [
        ["--k", "1", "--l", "0", "--mu=1_0,0"],
        ["--k", "1_0", "--l", "0", "--mu=0,0"],
        ["--k", "1", "--l", " 0", "--mu=0,0"],
        ["--k", "\u0661", "--l", "0", "--mu=0,0"],
    ], ids=["underscore-mu", "underscore-k", "space-l", "non-ascii-k"])
    def test_integer_text_is_strict(self, capsys, flags):
        # int() would accept each of these; C2 k1 l0 at (10, 0) has multiplicity 0
        code, out, err = run(capsys, ["mult", "--family", "C", "--rank", "2", *flags])
        assert code == 2
        assert out == ""
        assert err


class TestTable:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, ["table", "--family", "C", "--rank", "2",
                                    "--k", "1", "--l", "1", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu_1,mu_2,mult"
        assert len(lines) == 1 + 5

    def test_json_dimension(self, capsys):
        code, out, _ = run(capsys, ["table", "--family", "B", "--rank", "2",
                                    "--k", "1", "--l", "0", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["dimension"] == "5"
        assert all(isinstance(r["mult"], str) for r in obj["rows"])

    def test_dominant_vs_full_row_counts(self, capsys):
        from bivar.root_systems import weyl_orbit_size

        spec = algebra("D", 3)
        dom = build_table(spec, 2, 2, dominant_only=True)
        full = build_table(spec, 2, 2)
        assert len(full.rows) == sum(weyl_orbit_size(spec, mu) for mu, _ in dom.rows)

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, ["table", "--family", "D", "--rank", "3",
                                    "--k", "2", "--l", "1", "--format", "json"])
        assert code == 0
        parsed = cli.table_from_json(out)
        assert cli.table_to_json(parsed) == out

    # each case breaks one rule, and the match is that rule's own message, so
    # the case fails if its check goes; the base header states B2 k1 l0's
    # dimension 5, so a row that passes every row check loads
    @pytest.mark.parametrize("rows, header, error, match", [
        ([{"mu": [0, 0, 7], "mult": "1"}], {}, LengthMismatch, "length mismatch"),
        ([{"mu": [0, 0], "mult": "-3"}], {}, ValueError, "multiplicity must be positive"),
        ([{"mu": [0, 0], "mult": "1"}], {"k": "1"}, NotAnInteger, "k and l"),
        ([{"mu": [0, 0], "mult": "1"}], {"k": 0, "l": 1}, InvalidHighestWeight, "k >= l"),
        ([{"mu": [0, 0], "mult": "1"}], {"dominant_only": "yes"}, ValueError,
         "dominant_only must be"),
        ([{"mu": [0, 0], "mult": 1.5}], {}, NotAnInteger, "multiplicity"),
        ([{"mu": [5, 5], "mult": "5"}], {"dominant_only": False}, ValueError, "not a weight of"),
        ([{"mu": [0, 1], "mult": "1"}], {}, ValueError, "not dominant in"),
        ([{"mu": [2, 0, 0], "mult": "1"}], {"family": "A", "dominant_only": False}, ValueError,
         "type A weights"),
        ([{"mu": [2, 0, -1], "mult": "1"}], {"family": "A", "dominant_only": False}, ValueError,
         "type A weights"),
        # one-norm within k + l, yet not weights of the table the header names
        ([{"mu": [1, 0], "mult": "1"}], {"family": "C", "k": 1, "l": 1}, ValueError,
         "not a weight of"),
        ([{"mu": [3, 0, 0], "mult": "1"}], {"rank": 3, "k": 2, "l": 1}, ValueError,
         "not a weight of"),
        ([{"mu": [3, 0, 0], "mult": "1"}], {"family": "A", "k": 2, "l": 1}, ValueError,
         "not a weight of"),
        # a full B2 k1 l0 table with (1, 0) twice and (0, -1) missing: its
        # multiplicities still add up to the dimension 5
        ([{"mu": mu, "mult": "1"} for mu in ([1, 0], [1, 0], [0, 0], [-1, 0], [0, 1])],
         {"dominant_only": False}, ValueError, "more than once"),
        ([{"mu": [0, 0], "mult": "1"}], {"rank": MISSING}, ValueError, "'rank'"),
        ([{"mu": [0, 0]}], {}, ValueError, "'mult'"),
        # int() would read these as 1
        ([{"mu": [0, 0], "mult": "0_1"}], {}, ValueError, "expected an integer"),
        ([{"mu": [0, 0], "mult": " 1"}], {}, ValueError, "expected an integer"),
        ([{"mu": [0, 0], "mult": "+1"}], {}, ValueError, "expected an integer"),
        ([{"mu": [0, 0], "mult": "\u0661"}], {}, ValueError, "expected an integer"),
        # rows that are not a JSON array
        (5, {}, ValueError, "rows must be a JSON array"),
        (None, {}, ValueError, "rows must be a JSON array"),
        ({"a": 1}, {}, ValueError, "rows must be a JSON array"),
        ("ab", {}, ValueError, "rows must be a JSON array"),
        # JSON true/false are not integers, though Python's bool is an int
        ([{"mu": [0, 0], "mult": "1"}], {"rank": True}, NotAnInteger, "rank"),
        ([{"mu": [0, 0], "mult": "1"}], {"k": True}, NotAnInteger, "k and l"),
        ([{"mu": [0, 0], "mult": "1"}], {"l": False}, NotAnInteger, "k and l"),
        ([{"mu": [True, False], "mult": "1"}], {}, NotAnInteger, "weight coordinates"),
        ([{"mu": [0, 0], "mult": True}], {}, NotAnInteger, "multiplicity"),
        # rows that pass every row check, so the dimension check, made last, raises:
        # the stated dimension must be their orbit-weighted total, and that Weyl's 5
        (B2_K1_L0, {"dimension": MISSING}, ValueError, "'dimension'"),
        (B2_K1_L0, {"dimension": "6"}, ValueError, "the rows add up to"),
        (B2_K1_L0, {"dimension": True}, NotAnInteger, "dimension"),
        (B2_K1_L0[1:], {}, ValueError, "the rows add up to"),
        (B2_K1_L0[1:], {"dimension": "4"}, ValueError, "the rows add up to"),
        ([{"mu": mu, "mult": "1"} for mu in ([0, -1], [0, 0], [0, 1], [1, 0])],
         {"dominant_only": False, "dimension": "4"}, ValueError, "the rows add up to"),
    ], ids=["wrong-length", "negative-mult", "string-k", "k-below-l",
            "non-bool-dominant", "float-mult", "norm-above-k-plus-l", "not-dominant",
            "a-wrong-sum", "a-negative-coordinate", "wrong-parity", "above-k",
            "a-above-k", "duplicate-weight",
            "missing-header-field", "missing-row-field", "underscore-mult",
            "space-mult", "plus-mult", "non-ascii-mult", "rows-number", "rows-null",
            "rows-object", "rows-string", "bool-rank", "bool-k", "bool-l", "bool-mu",
            "bool-mult", "dimension-missing", "dimension-wrong", "dimension-bool",
            "row-dropped", "row-dropped-dimension-lowered",
            "full-row-dropped-dimension-lowered"])
    def test_json_rejects_bad_rows(self, rows, header, error, match):
        obj = {"family": "B", "rank": 2, "k": 1, "l": 0, "dominant_only": True,
               "dimension": "5", "rows": rows}
        obj.update(header)
        obj = {key: value for key, value in obj.items() if value is not MISSING}
        with pytest.raises(error, match=match):
            cli.table_from_json(json.dumps(obj))

    def test_json_base_table_loads(self):
        # the header test_json_rejects_bad_rows starts from, with B2 k1 l0's dominant rows
        obj = {"family": "B", "rank": 2, "k": 1, "l": 0, "dominant_only": True,
               "dimension": "5", "rows": B2_K1_L0}
        assert cli.table_from_json(json.dumps(obj)) == build_table(
            algebra("B", 2), 1, 0, dominant_only=True)

    def test_json_missing_field_is_named(self):
        obj = {"family": "B", "k": 1, "l": 0, "dominant_only": True,
               "rows": [{"mu": [0, 0], "mult": "1"}]}
        with pytest.raises(ValueError, match="'rank'"):
            cli.table_from_json(json.dumps(obj))
        obj.update(rank=2, rows=[{"mu": [0, 0]}])
        with pytest.raises(ValueError, match="'mult'"):
            cli.table_from_json(json.dumps(obj))

    @pytest.mark.parametrize("dominant_only", [False, True], ids=["full", "dominant"])
    def test_json_reordered_rows_round_trip(self, dominant_only):
        table = build_table(algebra("D", 3), 2, 1, dominant_only=dominant_only)
        obj = json.loads(cli.table_to_json(table))
        obj["rows"].reverse()
        assert cli.table_from_json(json.dumps(obj)) == table
        # the dimension, like a multiplicity, may be a JSON integer
        obj["dimension"] = int(obj["dimension"])
        assert cli.table_from_json(json.dumps(obj)) == table

    @pytest.mark.parametrize("dominant_only", [False, True], ids=["full", "dominant"])
    @pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
    def test_writers_match_reference_bytes(self, family, rank, dominant_only):
        table = build_table(algebra(family, rank), 3, 2, dominant_only=dominant_only)
        assert digest(cli.table_to_json(table)) == digest(reference_json(table))
        assert digest(cli.table_to_csv(table)) == digest(reference_csv(table))
        assert cli.table_from_json(cli.table_to_json(table)) == table

    @pytest.mark.parametrize("rows", [
        (((-2, 1), 10**30), ((0, -1), 1), ((3, 0), 7)),
        (),
        (((1, 0), 1.5),),
    ], ids=["big-mult-negative-coords", "no-rows", "float-mult-not-truncated"])
    def test_writers_match_reference_bytes_hand_built(self, rows):
        table = MultiplicityTable(algebra("B", 2), 1, 0, False, rows)
        assert cli.table_to_json(table) == reference_json(table)
        assert cli.table_to_csv(table) == reference_csv(table)

    @given(full_table_points())
    @example(("B", 3, 0, 0, "json", False))
    @example(("D", 3, 0, 0, "csv", False))
    @example(("D", 3, 2, 1, "csv", True))
    @settings(max_examples=100, deadline=None)
    def test_full_table_bytes_match_reference(self, point):
        family, rank, k, l, fmt, dominant_only = point
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["table", "--family", family, "--rank", str(rank), "--k", str(k),
                             "--l", str(l), "--format", fmt] + ["--dominant-only"] * dominant_only)
        assert code == 0
        table = build_table(algebra(family, rank), k, l, dominant_only=dominant_only)
        want = reference_json(table) if fmt == "json" else reference_csv(table)
        assert digest(out.getvalue()) == digest(want)

    @pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_passed_dimension_and_audit_write_the_same_bytes(self, family, rank, fmt):
        # cmd_table passes Weyl's dimension; given none, as for a table read back
        # or built by hand, the writer sums the rows instead
        spec = algebra(family, rank)
        dominant = build_table(spec, 4, 2, dominant_only=True)
        full = build_table(spec, 4, 2)
        for table, as_full in ((dominant, False), (dominant, True), (full, False)):
            passed = b"".join(cli.table_text(table, fmt, as_full, weyl_dimension(spec, 4, 2)))
            assert passed == b"".join(cli.table_text(table, fmt, as_full))
            if fmt == "json":
                read_back = cli.table_from_json(passed.decode())
                assert not read_back.meta
                assert b"".join(cli.table_text(read_back, fmt)) == passed

    @pytest.mark.parametrize("point", sorted(DOMINANT_DIGESTS),
                             ids=lambda p: "%s%d_k%d_l%d" % p)
    def test_dominant_table_bytes_pinned(self, capsys, point):
        family, rank, k, l = point
        code, out, _ = run(capsys, ["table", "--family", family, "--rank", str(rank),
                                    "--k", str(k), "--l", str(l), "--dominant-only",
                                    "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DOMINANT_DIGESTS[point]

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, ["table", "--family", "C", "--rank", "2",
                                    "--k", "2", "--l", "1", "--format", "csv"])
        assert code == 0
        rows = cli.csv_rows(out)
        rebuilt = MultiplicityTable(algebra("C", 2), 2, 1, False, rows)
        assert cli.table_to_csv(rebuilt) == out
        # int() would read the first four; the last two leave a field empty
        for line in ("1_0,0,1", " 1,0,1", "+1,0,1", "\u0661,0,1", "1,,1", "1,0,1,"):
            with pytest.raises(ValueError):
                cli.csv_rows(f"mu_1,mu_2,mult\n0,0,1\n{line}\n")

    def test_high_rank_dominant_table_reads_back(self):
        # D300 k6 l4: 74 rows of 300 coordinates, JSON and CSV read back
        table = build_table(algebra("D", 300), 6, 4, dominant_only=True)
        text = cli.table_to_json(table)
        assert cli.table_to_json(cli.table_from_json(text)) == text
        assert cli.csv_rows(cli.table_to_csv(table)) == table.rows

    def test_out_file_and_io_error(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, _, _ = run(capsys, ["table", "--family", "C", "--rank", "2",
                                  "--k", "1", "--l", "1", "--format", "csv",
                                  "--out", str(target)])
        assert code == 0
        assert target.read_text().startswith("mu_1")
        code, _, err = run(capsys, ["table", "--family", "C", "--rank", "2",
                                    "--k", "1", "--l", "1",
                                    "--out", str(tmp_path / "nope" / "t.csv")])
        assert code == 3
        assert "cannot write" in err

    def test_only_dash_is_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["table", "--family", "C", "--rank", "2", "--k", "1", "--l", "1", "--out"]
        code, out, _ = run(capsys, argv + ["stdout"])
        assert (code, out) == (0, "")
        assert (tmp_path / "stdout").read_text().startswith('{"family":"C"')
        code, out, err = run(capsys, argv + [""])
        assert (code, out) == (3, "")
        assert "cannot write" in err

    def test_bad_request_creates_no_file(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        code, _, err = run(capsys, ["table", "--family", "B", "--rank", "3",
                                    "--k", "1", "--l", "2", "--out", str(target)])
        assert code == 2
        assert err.startswith("error: ")
        assert not target.exists()

    @pytest.mark.parametrize("point", [("B", 6, 5, 3, "json"), ("A", 8, 5, 3, "csv")],
                             ids=lambda p: "%s%d_k%d_l%d_%s" % p)
    def test_many_piece_table_same_on_every_sink(self, tmp_path, point):
        # 1.35 MB of JSON and 0.25 MB of CSV: many pieces of the orbit walk, written
        # to a file, to a stdout with a binary buffer and to one without
        family, rank, k, l, fmt = point
        argv = ["table", "--family", family, "--rank", str(rank), "--k", str(k),
                "--l", str(l), "--format", fmt]
        text = io.StringIO()
        with redirect_stdout(text):
            assert cli.main(argv) == 0
        binary = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        with redirect_stdout(binary):
            assert cli.main(argv) == 0
        target = tmp_path / "t.out"
        assert cli.main(argv + ["--out", str(target)]) == 0
        full = build_table(algebra(family, rank), k, l)
        want = reference_json(full) if fmt == "json" else reference_csv(full)
        assert digest(text.getvalue()) == digest(want)
        assert hashlib.sha256(binary.buffer.getvalue()).hexdigest() == digest(want)
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest(want)

    def test_text_printed_before_the_table_comes_out_ahead_of_it(self):
        # print() leaves "first" in the wrapper's own buffer until stdout is flushed
        table = build_table(algebra("C", 2), 1, 1, dominant_only=True)
        sink = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        with redirect_stdout(sink):
            print("first")
            cli._write_out(cli.table_text(table, "csv"), "-")
            print("last")
        sink.flush()
        assert sink.buffer.getvalue() == b"first\n" + cli.table_to_csv(table).encode() + b"last\n"

    def test_full_text_through_a_chain_deeper_than_the_recursion_limit(self):
        # B1200 k1 l0: below a prefix of zeros only the last ~90 coordinates' texts
        # fit in a piece, so the orbit walk goes down a chain of ~1,100 nodes
        n = 1200
        table = build_table(algebra("B", n), 1, 0, dominant_only=True)
        tree = root_systems._expand_orbits(table.spec, table.rows, b"\n,%d".__mod__,
                                           cli._fuse_text)
        depth = 0
        while any(type(child) is list for _, child in tree):
            tree = next(child for _, child in tree if type(child) is list)
            depth += 1
        assert depth > sys.getrecursionlimit()
        # the zero weight and the 2n signed unit vectors, each of multiplicity 1
        weights = [(0,) * n] + [(0,) * i + (s,) + (0,) * (n - i - 1)
                                for i in range(n) for s in (1, -1)]
        want = ",".join(f"mu_{i + 1}" for i in range(n)) + ",mult\n"
        want += "".join(",".join(map(str, w)) + ",1\n" for w in sorted(weights))
        assert b"".join(cli.table_text(table, "csv", full=True)) == want.encode()

    def test_full_text_memory_is_a_small_share_of_the_text(self):
        # 10 MB of JSON: the orbit walk holds pieces, never the table's text
        table = build_table(algebra("B", 8), 5, 3, dominant_only=True)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            size = sum(map(len, cli.table_text(table, "json", full=True)))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert size > 10 * 10**6
        assert peak < size / 5


class TestVerify:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        assert "no mismatches" in out

    def test_small_grid_all_oracles(self, capsys):
        code, out, _ = run(capsys, ["verify", "--grid",
                                    "families=B,C,A;ranks=2;maxsum=3"])
        assert code == 0
        assert out.splitlines() == ["ok: 171 comparisons, no mismatches"]

    def test_kostka_needs_family_a(self, capsys):
        code, _, err = run(capsys, ["verify", "--oracle", "kostka",
                                    "--grid", "families=C;ranks=2;maxsum=2"])
        assert code == 2
        assert "family A" in err

    def test_kostka_on_family_a(self, capsys):
        code, out, _ = run(capsys, ["verify", "--oracle", "kostka",
                                    "--grid", "families=A;ranks=2,3;maxsum=4"])
        assert code == 0

    @pytest.mark.parametrize("grid", [
        "depth=3",
        "families=D;ranks=2",
        "families=B,C;ranks=1;maxsum=3",
        "families=A;ranks=\u0663;maxsum=1",
    ], ids=["unknown-key", "no-valid-rank-D", "no-valid-rank-BC", "non-ascii-rank"])
    def test_bad_grid(self, capsys, grid):
        code, out, err = run(capsys, ["verify", "--grid", grid])
        assert code == 2
        assert err.startswith("error: ")
        assert "ok:" not in out

    @pytest.mark.parametrize("label, engine, oracle, family", [
        ("convolution", "bivariate_mult", "convolution", "C"),
        ("tensor", "tensor_mult", "convolution", "C"),
        ("kostka", "bivariate_mult", "kostka", "A"),
        ("freudenthal", "build_table", "freudenthal", "C"),
    ], ids=["convolution", "tensor", "kostka", "freudenthal"])
    def test_fault_injection_reports_mismatch(self, capsys, monkeypatch, label, engine,
                                              oracle, family):
        # one engine side off by one at k = 2, l = 1: only its own check may report it
        real = getattr(cli, engine)

        def corrupted(spec, k, l, *rest, **options):
            value = real(spec, k, l, *rest, **options)
            if (k, l) != (2, 1):
                return value
            if engine == "build_table":
                return dataclasses.replace(value, rows=tuple((mu, m + 1) for mu, m in value.rows))
            return value + 1

        monkeypatch.setattr(cli, engine, corrupted)
        code, out, _ = run(capsys, ["verify", "--oracle", oracle,
                                    "--grid", f"families={family};ranks=2;maxsum=3"])
        assert code == 1
        lines = out.splitlines()
        assert lines[-1].startswith(f"FAIL: {len(lines) - 1} mismatches out of ")
        assert {line.split()[0] for line in lines[:-1]} == {f"mismatch[{label}]"}

    def test_skips_invalid_rank_family_pairs(self, capsys):
        # D_2 is skipped rather than failing the whole grid
        code, out, _ = run(capsys, ["verify", "--oracle", "freudenthal",
                                    "--grid", "families=D;ranks=2,3;maxsum=2"])
        assert code == 0


@pytest.mark.parametrize("argv", [["frobnicate"], ["bench"]], ids=["frobnicate", "bench"])
def test_unknown_subcommand_is_usage_error(capsys, argv):
    assert cli.main(argv) == 2


def test_consecutive_calls_share_one_parser(capsys):
    # the parser is built once per process; each call still gets its own
    # arguments, output and exit code
    assert cli._build_parser() is cli._build_parser()
    argv = ["table", "--family", "C", "--rank", "2", "--k", "2", "--l", "1", "--format"]
    results = [run(capsys, argv + ["csv", "--dominant-only"]), run(capsys, argv + ["csv"]),
               run(capsys, argv + ["xml"])]
    table = build_table(algebra("C", 2), 2, 1, dominant_only=True)
    assert [code for code, _, _ in results] == [0, 0, 2]
    assert results[0][1] == b"".join(cli.table_text(table, "csv")).decode()
    assert results[1][1] == b"".join(cli.table_text(table, "csv", True)).decode()
    assert results[0][1] != results[1][1]
    assert not results[2][1] and "invalid choice: 'xml'" in results[2][2]


def test_mult_equals_table_rows(capsys):
    # negative coordinates need the --mu=... spelling so argparse does not
    # read the value as a flag
    spec = algebra("D", 3)
    table = build_table(spec, 2, 2)
    for mu, m in table.rows[:10]:
        code, out, _ = run(capsys, ["mult", "--family", "D", "--rank", "3",
                                    "--k", "2", "--l", "2",
                                    "--mu=" + ",".join(str(a) for a in mu)])
        assert code == 0
        assert int(out.strip()) == m


def module_env():
    """The environment with ``src`` on the path, for ``python -m bivar`` in a child process."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_module(argv):
    """``python -m bivar`` in a child process, with ``src`` on its path."""
    return subprocess.run([sys.executable, "-m", "bivar", *argv], env=module_env(),
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point(capsys):
    argv = ["table", "--family", "D", "--rank", "4", "--k", "3", "--l", "2",
            "--format", "csv"]
    child = run_module(argv)
    code, out, _ = run(capsys, argv)
    assert (child.returncode, code) == (0, 0)
    assert child.stdout == out
    usage = run_module(["table", "--family", "B"])
    assert usage.returncode == 2
    assert "required" in usage.stderr


def test_reader_closing_stdout_early_exits_quietly():
    # 1.35 MB of JSON, far past a pipe's buffer: the write is still going
    # when the reader closes its end after 20 bytes
    with subprocess.Popen([sys.executable, "-m", "bivar", "table", "--family", "B",
                           "--rank", "6", "--k", "5", "--l", "3"], env=module_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.read(20) == b'{"family":"B","rank"'
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=120) == 0
    assert err == ""  # no message, and no "Exception ignored" traceback from the exit flush


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(language, after):
    """The lines of README's first ``language`` fenced block after the first line
    that starts with ``after``."""
    lines = README.read_text().splitlines()
    heading = next(i for i, line in enumerate(lines) if line.startswith(after))
    start = lines.index(f"```{language}", heading)
    return lines[start + 1:lines.index("```", start)]


def test_readme_cli_lines_run_and_its_json_example_is_the_real_output(capsys, tmp_path):
    output = {}  # README line -> the bytes it wrote
    for line in readme_block("sh", "## CLI"):
        if not line.startswith("bivar "):
            continue
        argv = shlex.split(line)[1:]
        out = tmp_path / f"{len(output)}.out"
        if argv[0] == "table":  # to a file in tmp_path, whether or not the line names one
            if "--out" in argv:
                argv[argv.index("--out") + 1] = str(out)
            else:
                argv += ["--out", str(out)]
        assert cli.main(argv) == 0, line
        output[line] = out.read_bytes() if argv[0] == "table" else capsys.readouterr().out.encode()
    example = "\n".join(readme_block("json", "JSON table schema")) + "\n"
    assert example.encode() == output["bivar table --family B --rank 2 --k 1 --l 0 --format json"]


@pytest.mark.parametrize(
    "owner, name",
    [(bivar, name) for name in sorted(bivar.__all__)]
    + [(cli, name) for name in ("table_text", "table_to_json", "table_to_csv", "table_from_json", "csv_rows")],
    ids=lambda v: getattr(v, "__name__", v))
def test_public_names_have_docstrings_of_their_own(owner, name):
    # a class does not inherit __doc__ (it is None when the class has none), but
    # dataclass writes the signature there when there is none
    doc = getattr(owner, name).__doc__
    assert doc and doc.strip() and not doc.startswith(f"{name}(")
