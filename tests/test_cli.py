"""Command-line surface: flags, exit codes, serialization, verification."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivar import cli
from bivar.errors import InvalidHighestWeight, LengthMismatch, NotAnInteger
from bivar.partitions import count_one_norm_sphere
from bivar.root_systems import algebra, weight_length
from bivar.weight_tables import MultiplicityTable, build_table, dimension_audit


MISSING = object()  # a header value that deletes the field


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

    @pytest.mark.parametrize("rows, header, error", [
        ([{"mu": [0, 0, 7], "mult": "1"}], {}, LengthMismatch),
        ([{"mu": [0, 0], "mult": "-3"}], {}, ValueError),
        ([{"mu": [0, 0], "mult": "1"}], {"k": "1"}, NotAnInteger),
        ([{"mu": [0, 0], "mult": "1"}], {"k": 0, "l": 1}, InvalidHighestWeight),
        ([{"mu": [0, 0], "mult": "1"}], {"dominant_only": "yes"}, ValueError),
        ([{"mu": [0, 0], "mult": 1.5}], {}, NotAnInteger),
        ([{"mu": [5, 5], "mult": "5"}], {"dominant_only": False}, ValueError),
        ([{"mu": [0, 1], "mult": "1"}], {}, ValueError),
        ([{"mu": [2, 0, 0], "mult": "1"}], {"family": "A", "dominant_only": False}, ValueError),
        ([{"mu": [2, 0, -1], "mult": "1"}], {"family": "A", "dominant_only": False}, ValueError),
        # a full B2 k1 l0 table with (1, 0) twice and (0, -1) missing: its
        # multiplicities still add up to the dimension 5
        ([{"mu": mu, "mult": "1"} for mu in ([1, 0], [1, 0], [0, 0], [-1, 0], [0, 1])],
         {"dominant_only": False}, ValueError),
        ([{"mu": [0, 0], "mult": "1"}], {"rank": MISSING}, ValueError),
        ([{"mu": [0, 0]}], {}, ValueError),
        # int() would read these as 1
        ([{"mu": [0, 0], "mult": "0_1"}], {}, ValueError),
        ([{"mu": [0, 0], "mult": " 1"}], {}, ValueError),
        ([{"mu": [0, 0], "mult": "+1"}], {}, ValueError),
        ([{"mu": [0, 0], "mult": "\u0661"}], {}, ValueError),
        # rows that are not a JSON array
        (5, {}, ValueError),
        (None, {}, ValueError),
        ({"a": 1}, {}, ValueError),
        ("ab", {}, ValueError),
    ], ids=["wrong-length", "negative-mult", "string-k", "k-below-l",
            "non-bool-dominant", "float-mult", "norm-above-k-plus-l", "not-dominant",
            "a-wrong-sum", "a-negative-coordinate", "duplicate-weight",
            "missing-header-field", "missing-row-field", "underscore-mult",
            "space-mult", "plus-mult", "non-ascii-mult", "rows-number", "rows-null",
            "rows-object", "rows-string"])
    def test_json_rejects_bad_rows(self, rows, header, error):
        obj = {"family": "B", "rank": 2, "k": 1, "l": 0, "dominant_only": True,
               "rows": rows}
        obj.update(header)
        obj = {key: value for key, value in obj.items() if value is not MISSING}
        with pytest.raises(error):
            cli.table_from_json(json.dumps(obj))

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
        with pytest.raises(ValueError):
            cli.csv_rows("mu_1,mu_2,mult\n1_0,0,1\n")

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
    def test_many_piece_table_same_on_both_sinks(self, tmp_path, point):
        # 1.35 MB of JSON and 0.25 MB of CSV: many pieces of the orbit walk
        family, rank, k, l, fmt = point
        argv = ["table", "--family", family, "--rank", str(rank), "--k", str(k),
                "--l", str(l), "--format", fmt]
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        target = tmp_path / "t.out"
        assert cli.main(argv + ["--out", str(target)]) == 0
        full = build_table(algebra(family, rank), k, l)
        want = reference_json(full) if fmt == "json" else reference_csv(full)
        assert digest(out.getvalue()) == digest(want)
        assert digest(target.read_text()) == digest(want)


class TestVerify:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        assert "no mismatches" in out

    def test_small_grid_all_oracles(self, capsys):
        code, out, _ = run(capsys, ["verify", "--grid",
                                    "families=B,C,A;ranks=2;maxsum=3"])
        assert code == 0
        assert "no mismatches" in out

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

    def test_fault_injection_reports_mismatch(self, capsys, monkeypatch):
        real = cli.bivariate_mult

        def corrupted(spec, k, l, mu):
            value = real(spec, k, l, mu)
            if (k, l) == (2, 1) and sum(abs(a) for a in mu) == 1:
                return value + 1
            return value

        monkeypatch.setattr(cli, "bivariate_mult", corrupted)
        code, out, _ = run(capsys, ["verify", "--oracle", "convolution",
                                    "--grid", "families=C;ranks=2;maxsum=3"])
        assert code == 1
        assert "mismatch[convolution]" in out

    def test_skips_invalid_rank_family_pairs(self, capsys):
        # D_2 is skipped rather than failing the whole grid
        code, out, _ = run(capsys, ["verify", "--oracle", "freudenthal",
                                    "--grid", "families=D;ranks=2,3;maxsum=2"])
        assert code == 0


@pytest.mark.parametrize("argv", [["frobnicate"], ["bench"]], ids=["frobnicate", "bench"])
def test_unknown_subcommand_is_usage_error(capsys, argv):
    assert cli.main(argv) == 2


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
