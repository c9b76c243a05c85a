"""Command-line surface: flags, exit codes, serialization, verification."""

import json

import pytest

from bivar import cli
from bivar.errors import InvalidHighestWeight, LengthMismatch, NotAnInteger
from bivar.root_systems import algebra
from bivar.weight_tables import MultiplicityTable, build_table


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("row, header, error", [
        ({"mu": [0, 0, 7], "mult": "1"}, {}, LengthMismatch),
        ({"mu": [0, 0], "mult": "-3"}, {}, ValueError),
        ({"mu": [0, 0], "mult": "1"}, {"k": "1"}, NotAnInteger),
        ({"mu": [0, 0], "mult": "1"}, {"k": 0, "l": 1}, InvalidHighestWeight),
        ({"mu": [0, 0], "mult": "1"}, {"dominant_only": "yes"}, ValueError),
    ], ids=["wrong-length", "negative-mult", "string-k", "k-below-l",
            "non-bool-dominant"])
    def test_json_rejects_bad_rows(self, row, header, error):
        obj = {"family": "B", "rank": 2, "k": 1, "l": 0, "dominant_only": True,
               "rows": [row]}
        obj.update(header)
        with pytest.raises(error):
            cli.table_from_json(json.dumps(obj))

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, ["table", "--family", "C", "--rank", "2",
                                    "--k", "2", "--l", "1", "--format", "csv"])
        assert code == 0
        rows = cli.csv_rows(out)
        rebuilt = MultiplicityTable(algebra("C", 2), 2, 1, False, rows)
        assert cli.table_to_csv(rebuilt) == out

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
    ], ids=["unknown-key", "no-valid-rank-D", "no-valid-rank-BC"])
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
