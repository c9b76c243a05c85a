"""Command-line front end.

Subcommands: ``mult`` (one weight), ``table`` (full or dominant-only
weight table as JSON or CSV) and ``verify`` (re-derive multiplicities
through the independent oracles over a grid and compare exactly).
Timings come from the benchmark in ``perfbench/``, not from this
command.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 I/O
failure. Multiplicities serialize as decimal strings so consumers never
need native big integers.
"""

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .errors import BivarError
from .multiplicity import bivariate_mult, tensor_mult
from .oracles import convolution_mult, freudenthal_diagram, kostka_count, tensor_conv_mult
from .root_systems import (
    algebra,
    canonical_weight,
    check_highest_weight,
    check_weight,
    highest_weight,
    weight_length,
)
from .weight_tables import MultiplicityTable, build_table, candidate_dominants, dimension_audit


# ---------------------------------------------------------------------------
# serialization


def table_to_json(table: MultiplicityTable) -> str:
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


def table_from_json(text: str) -> MultiplicityTable:
    obj = json.loads(text)
    spec = algebra(obj["family"], obj["rank"])
    k, l = check_highest_weight(obj["k"], obj["l"])
    dominant_only = obj["dominant_only"]
    if not isinstance(dominant_only, bool):
        raise ValueError(f"dominant_only must be true or false, got {dominant_only!r}")
    rows = []
    for r in obj["rows"]:
        mult = int(r["mult"])
        if mult <= 0:
            raise ValueError(f"row {r['mu']!r}: multiplicity must be positive, got {mult}")
        rows.append((check_weight(spec, r["mu"]), mult))
    return MultiplicityTable(spec, k, l, dominant_only, tuple(rows))


def table_to_csv(table: MultiplicityTable) -> str:
    header = ",".join(f"mu_{i + 1}" for i in range(weight_length(table.spec))) + ",mult"
    lines = [header]
    for mu, m in table.rows:
        lines.append(",".join(str(a) for a in mu) + "," + str(m))
    return "\n".join(lines) + "\n"


def csv_rows(text: str) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    lines = [ln for ln in text.splitlines() if ln]
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append((tuple(int(p) for p in parts[:-1]), int(parts[-1])))
    return tuple(rows)


def _write_out(text: str, path: str) -> None:
    if path in ("-", "stdout", ""):
        sys.stdout.write(text)
        return
    with open(path, "w") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# verification


def _parse_grid(raw: str):
    families = ["A", "B", "C", "D"]
    ranks = [2, 3]
    maxsum = 4
    if raw:
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(f"bad grid clause {chunk!r}")
            key, value = chunk.split("=", 1)
            key = key.strip().lower()
            if key == "families":
                families = [f.strip().upper() for f in value.split(",") if f.strip()]
                if any(f not in "ABCD" or len(f) != 1 for f in families):
                    raise ValueError(f"bad families list {value!r}")
            elif key == "ranks":
                ranks = [int(v) for v in value.split(",")]
            elif key == "maxsum":
                maxsum = int(value)
            else:
                raise ValueError(f"unknown grid key {key!r}")
    if maxsum < 0 or not ranks or not families:
        raise ValueError("empty verification grid")
    return families, ranks, maxsum


def _grid_specs(families, ranks):
    out = []
    for fam in families:
        for n in ranks:
            try:
                out.append(algebra(fam, n))
            except BivarError:
                continue  # skip rank/family combos below the validity bound
    if not out:
        raise ValueError(
            f"empty verification grid: no valid algebra among families "
            f"{','.join(families)} at ranks {','.join(map(str, ranks))}")
    return out


def run_verification(families, ranks, maxsum, oracle) -> Tuple[int, List[str]]:
    """Compare the formula engine against the selected oracles on a grid.

    Returns (number of comparisons, list of mismatch descriptions).
    """
    specs = _grid_specs(families, ranks)
    mismatches: List[str] = []
    checked = 0

    def record(spec, k, l, mu, lhs, rhs, which):
        mismatches.append(
            f"mismatch[{which}] family={spec.family} rank={spec.rank} "
            f"k={k} l={l} mu={mu}: {lhs} != {rhs}"
        )

    for spec in specs:
        for total in range(maxsum + 1):
            for l in range(total // 2 + 1):
                k = total - l
                if oracle in ("freudenthal", "all"):
                    diagram = freudenthal_diagram(spec, highest_weight(spec, k, l))
                    table = build_table(spec, k, l, dominant_only=True)
                    got = {canonical_weight(spec, mu): m for mu, m in table.rows}
                    for key in set(diagram.entries) | set(got):
                        lhs = got.get(key, 0)
                        rhs = diagram.entries.get(key, 0)
                        checked += 1
                        if lhs != rhs:
                            record(spec, k, l, key, lhs, rhs, "freudenthal")
                if oracle in ("convolution", "all"):
                    for mu in candidate_dominants(spec, k, l, parity_filter=False):
                        lhs = bivariate_mult(spec, k, l, mu)
                        rhs = convolution_mult(spec, k, l, mu)
                        checked += 1
                        if lhs != rhs:
                            record(spec, k, l, mu, lhs, rhs, "convolution")
                        lhs_t = tensor_mult(spec, k, l, mu)
                        rhs_t = tensor_conv_mult(spec, k, l, mu)
                        checked += 1
                        if lhs_t != rhs_t:
                            record(spec, k, l, mu, lhs_t, rhs_t, "tensor")
                if oracle in ("kostka", "all") and spec.family == "A":
                    shape = (k, l) if l else (k,)
                    for mu in candidate_dominants(spec, k, l):
                        lhs = bivariate_mult(spec, k, l, mu)
                        rhs = kostka_count(shape, mu)
                        checked += 1
                        if lhs != rhs:
                            record(spec, k, l, mu, lhs, rhs, "kostka")
    return checked, mismatches


# ---------------------------------------------------------------------------
# argument handling


def _parse_mu(raw: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise BivarError(f"bad weight vector {raw!r}; expected comma-separated integers")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bivar",
        description="Exact weight multiplicities for representations k*e1 + l*e2 "
                    "of the classical families A, B, C, D.",
    )
    parser.add_argument("--version", action="version", version=f"bivar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", required=True, choices=["A", "B", "C", "D"])
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--k", required=True, type=int)
        p.add_argument("--l", required=True, type=int)

    p_mult = sub.add_parser("mult", help="multiplicity of a single weight")
    common(p_mult)
    p_mult.add_argument("--mu", required=True,
                        help="comma-separated integer coordinates "
                             "(n entries; n+1 for family A); use --mu=-1,0,... "
                             "when the first coordinate is negative")

    p_table = sub.add_parser("table", help="full weight table")
    common(p_table)
    p_table.add_argument("--dominant-only", action="store_true")
    p_table.add_argument("--format", choices=["json", "csv"], default="json")
    p_table.add_argument("--out", default="-", help="output path or '-' for stdout")

    p_verify = sub.add_parser("verify", help="cross-check the engine against oracles")
    p_verify.add_argument("--grid", default="",
                          help='e.g. "families=B,C;ranks=2,3;maxsum=4"')
    p_verify.add_argument("--oracle", default="all",
                          choices=["freudenthal", "convolution", "kostka", "all"])

    return parser


def cmd_mult(args) -> int:
    spec = algebra(args.family, args.rank)
    value = bivariate_mult(spec, args.k, args.l, _parse_mu(args.mu))
    print(value)
    return 0


def cmd_table(args) -> int:
    spec = algebra(args.family, args.rank)
    table = build_table(spec, args.k, args.l, dominant_only=args.dominant_only)
    text = table_to_json(table) if args.format == "json" else table_to_csv(table)
    try:
        _write_out(text, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    families, ranks, maxsum = _parse_grid(args.grid)
    if args.oracle == "kostka" and any(f != "A" for f in families):
        print("error: the kostka oracle is defined for family A only", file=sys.stderr)
        return 2
    checked, mismatches = run_verification(families, ranks, maxsum, args.oracle)
    for line in mismatches:
        print(line)
    if mismatches:
        print(f"FAIL: {len(mismatches)} mismatches out of {checked} comparisons")
        return 1
    print(f"ok: {checked} comparisons, no mismatches")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 0 if exc.code in (0, None) else 2
    handlers = {
        "mult": cmd_mult,
        "table": cmd_table,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (BivarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
