"""Command-line front end.

Subcommands: ``mult`` (one weight), ``table`` (full or dominant-only
weight table as JSON or CSV, all written by ``table_text``, the one
table writer) and ``verify`` (re-derive multiplicities over a grid through
Freudenthal's table and the per-weight ``ORACLES``, and compare exactly).
Timings come from the benchmark in ``perfbench/``, not from this command.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 I/O
failure. Multiplicities serialize as decimal strings so consumers never
need native big integers.
"""

import argparse
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from . import __version__
from .errors import BivarError
from .multiplicity import _checked_support, bivariate_mult, tensor_mult
from .oracles import convolution_mult, freudenthal_diagram, kostka_count, tensor_conv_mult
from .root_systems import (
    _dominant,
    _expand_orbits,
    algebra,
    as_integers,
    canonical_weight,
    check_highest_weight,
    check_weight,
    highest_weight,
    weight_length,
    weyl_dimension,
)
from .weight_tables import MultiplicityTable, build_table, candidate_dominants, dimension_audit


# ---------------------------------------------------------------------------
# serialization


# Each format's row text, spelled only here: head, "w_1,...,w_n", then tail % m.
ROW_TEXT = {"json": (',{"mu":[', '],"mult":"%s"}'), "csv": ("\n", ",%s")}
# The one integer syntax of the command line and the readers, and a CSV row of it.
INTEGER = re.compile("-?[0-9]+")
CSV_LINE = re.compile(f"(?:{INTEGER.pattern},)*{INTEGER.pattern}")

PIECE = 1 << 15  # bytes: the largest multiset text that is joined and kept


def _fuse_text(order: list):
    # the multiset's text as one bytes object while it fits in PIECE bytes, else the node
    size = 0
    for _, child in order:
        if type(child) is not bytes:
            return order
        size += len(child)
    if size > PIECE:
        return order
    text = b"".join([child.replace(b"\n", b"\n,%d" % v) for v, child in order])
    return text if len(text) <= PIECE else order


def _walk_text(root: list, head: bytes) -> Iterator[bytes]:
    stack = [(iter(root), head)]
    while stack:
        pairs, prefix = stack[-1]
        for v, child in pairs:
            if type(child) is bytes:
                yield child.replace(b"\n", b"%s%d" % (prefix, v))
            else:
                stack.append((iter(child), b"%s%d," % (prefix, v)))
                break
        else:
            stack.pop()


def table_text(table: MultiplicityTable, fmt: str, full: bool = False) -> Iterable[bytes]:
    """The JSON or CSV text of ``table`` as ASCII bytes pieces; the first row drops its head's first byte.

    JSON ends with ``"dimension"``, Weyl's ``weyl_dimension(spec, k, l)``, which
    ``table_from_json`` checks against the rows' orbit-weighted total.

    Without ``full``, the rows' text is one piece. With
    ``full``, the text of the full table ``build_table(spec, k, l)``, written
    from the orbits of the dominant-only ``table`` by the same lexicographic
    walk, ``root_systems._expand_orbits``: no full row is built, formatted or
    sorted. Its rows are all checked, and the first piece made, before this
    returns, so ``cmd_table`` opens no output file for a bad request. The rows
    come in lexicographic order of w over all the orbits together, the order
    of the ``orbit`` outputs merged and sorted.

    What follows a multiset of coordinates is a tree: a multiset whose text
    fits in ``PIECE`` bytes holds it fused, one bytes object with a newline and
    a comma before each row's rest; a larger one is a node, its (v, child)
    pairs. An explicit stack walks the nodes from the root (a chain of nodes
    can outgrow the recursion limit) and carries the prefix
    ``head + "v_1,...,v_j,"``; each fused child under it is one piece, one
    ``bytes.replace`` of its newlines by that prefix and v. Each leaf's tail is
    formatted and encoded once, so no line is encoded on its own. So every
    output byte is made once, a piece holds at most ``PIECE`` bytes of fused
    text plus one prefix per row, and no longer multiset text, nor any level
    of the table's text, is kept: memory stays flat in the table's size.
    """
    spec = table.spec
    head, tail = ROW_TEXT[fmt]
    if full:
        # D's mirror rows (mu_n < 0) lie in the W_n orbits of their partners; others are checked
        rows = [(mu, m) for mu, m in table.rows if spec.family != "D" or mu[-1] >= 0]
        # each leaf's tail is formatted and encoded once; %s never truncates (below)
        root = _expand_orbits(spec, rows, lambda m: b"\n" + (tail % m).encode(), _fuse_text)
        pieces = _walk_text(root, head.encode())
        lines = chain((next(pieces, b"")[1:],), pieces)
    else:
        rows = table.rows
        # %s, not %d, so a non-int value is written as str() writes it, never truncated
        row = head + ",".join(["%s"] * weight_length(spec)) + tail
        lines = ("".join([row % (*mu, m) for mu, m in rows])[1:].encode(),)
    if fmt == "csv":
        header = ",".join(f"mu_{i + 1}" for i in range(weight_length(spec))) + ",mult\n"
        return chain((header.encode(),), lines, (b"\n",)) if rows else (header.encode(),)
    header = json.dumps({"family": spec.family, "rank": spec.rank, "k": table.k, "l": table.l,
                         "dominant_only": table.dominant_only and not full}, separators=(",", ":"))
    dimension = weyl_dimension(spec, table.k, table.l)
    return chain(((header[:-1] + ',"rows":[').encode(),), lines,
                 (f'],"dimension":{json.dumps(str(dimension))}}}\n'.encode(),))


def table_to_json(table: MultiplicityTable) -> str:
    """The JSON text of ``table``: the pieces of :func:`table_text` joined and decoded once."""
    return b"".join(table_text(table, "json")).decode()


def table_to_csv(table: MultiplicityTable) -> str:
    """The CSV text of ``table``: the pieces of :func:`table_text` joined and decoded once."""
    return b"".join(table_text(table, "csv")).decode()


def integer(text: str) -> int:
    """An optional '-' and ASCII digits as an int; ValueError on any other text,
    such as the '_', '+', spaces or non-ASCII digits that ``int()`` takes."""
    if INTEGER.fullmatch(text) is None:
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def _count(value, what: str) -> int:
    # a decimal string, as table_to_json writes it, or else a JSON integer
    return integer(value) if isinstance(value, str) else as_integers((value,), what)[0]


def _field(obj, name: str, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    try:
        return obj[name]
    except KeyError:
        raise ValueError(f"{where} has no {name!r} field") from None


def table_from_json(text: str) -> MultiplicityTable:
    """The :class:`MultiplicityTable` of a JSON table, checked row by row.

    It raises on a row that cannot belong to the table its header names:
    a multiplicity that is not a positive integer (a decimal string or a JSON
    integer; a float is refused, not truncated); a weight of the wrong
    length; a weight outside the support of k*e1 + l*e2, by the rule every
    single-weight entry point applies, ``multiplicity._support``, on the
    weight as checked once (A: a negative coordinate or a sum other than
    k + l; every family: a coordinate whose absolute value exceeds k; B/C/D:
    one-norm above k + l; C/D: k + l minus the one-norm odd); in a
    dominant-only table, a weight that is not dominant; or a weight that
    appears twice. Then the ``"dimension"``, read like a multiplicity, must
    equal the rows' orbit-weighted total, and that ``weyl_dimension``. JSON
    ``true`` or ``false`` as a multiplicity, the dimension, a weight
    coordinate, the rank, ``k`` or ``l`` raises :class:`NotAnInteger`, never
    read as 1 or 0. A missing field raises ``ValueError`` naming it. Rows are
    sorted by weight on load, so a file with its rows reordered loads as the
    table ``build_table`` gives.
    """
    obj = json.loads(text)
    spec = algebra(_field(obj, "family", "table"), _field(obj, "rank", "table"))
    k, l = check_highest_weight(_field(obj, "k", "table"), _field(obj, "l", "table"))
    dominant_only = _field(obj, "dominant_only", "table")
    if not isinstance(dominant_only, bool):
        raise ValueError(f"dominant_only must be true or false, got {dominant_only!r}")
    raw_rows = _field(obj, "rows", "table")
    if not isinstance(raw_rows, list):
        raise ValueError(f"rows must be a JSON array, got {raw_rows!r}")
    rows = []
    for r in raw_rows:
        mult = _count(_field(r, "mult", "row"), "multiplicity")
        mu = check_weight(spec, _field(r, "mu", "row"))
        if mult <= 0:
            raise ValueError(f"row {mu}: multiplicity must be positive, got {mult}")
        if spec.family == "A" and (min(mu) < 0 or sum(mu) != k + l):
            raise ValueError(f"row {mu}: type A weights of k*e1 + l*e2 are "
                             f"non-negative and sum to k + l = {k + l}")
        if _checked_support(spec.family, k, l, mu) is None:
            raise ValueError(f"row {mu}: not a weight of k*e1 + l*e2 with k = {k}, l = {l}")
        if dominant_only and not _dominant(spec.family, mu):
            raise ValueError(f"row {mu}: not dominant in a dominant-only table")
        rows.append((mu, mult))
    # the order build_table gives, so a reordered file loads as the same table
    rows.sort(key=itemgetter(0))
    for (mu, _), (nu, _) in zip(rows, rows[1:]):
        if mu == nu:
            raise ValueError(f"row {mu}: weight appears more than once")
    table = MultiplicityTable(spec, k, l, dominant_only, tuple(rows))
    stated = _count(_field(obj, "dimension", "table"), "dimension")
    total, weyl, _ = dimension_audit(table)
    if not stated == total == weyl:
        raise ValueError(f"dimension {stated}: the rows add up to {total}, Weyl's is {weyl}")
    return table


def csv_rows(text: str) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The (weight, multiplicity) rows of a CSV table as ints, in file order.

    The header line and empty lines are skipped; a line that is not ``CSV_LINE``
    raises ``ValueError``. No other check is made: a CSV table names
    no algebra or highest weight to check the rows against.
    """
    rows = []
    for ln in [ln for ln in text.splitlines() if ln][1:]:
        if CSV_LINE.fullmatch(ln) is None:
            raise ValueError(f"expected integers, got {ln!r}")
        fields = ln.split(",")
        rows.append((tuple(map(int, fields[:-1])), int(fields[-1])))
    return tuple(rows)


BLOCK = 1 << 18  # bytes: the buffer of the file _write_out writes


def _write_out(pieces: Iterable[bytes], path: str) -> None:
    """Write the bytes ``pieces`` to the file ``path``, through a ``BLOCK`` buffer, or to stdout for "-".

    The pieces go to one ``writelines``, on the file opened ``"wb"`` or on
    stdout's binary ``buffer``; stdout is flushed first, so text printed before
    comes out ahead of the table, and a stdout with no ``buffer`` gets them
    decoded. A reader that closes stdout early ends the write quietly.
    """
    if path != "-":
        with open(path, "wb", buffering=BLOCK) as handle:
            handle.writelines(pieces)
        return
    try:
        sys.stdout.flush()
        sink = getattr(sys.stdout, "buffer", None)
        if sink is None:
            sys.stdout.writelines(map(bytes.decode, pieces))
            sys.stdout.flush()
        else:
            sink.writelines(pieces)
            sink.flush()
    except BrokenPipeError:
        # the reader closed the pipe: end quietly, sending what is buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
                ranks = [integer(v.strip()) for v in value.split(",")]
            elif key == "maxsum":
                maxsum = integer(value.strip())
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


# The per-weight oracles of ``bivar verify``: for each ``--oracle`` name, the families it
# covers and its checks (label, engine side: irreducible or tensor, oracle function).
ORACLES = {
    "convolution": ("ABCD", (("convolution", "irreducible", convolution_mult),
                             ("tensor", "tensor", tensor_conv_mult))),
    "kostka": ("A", (("kostka", "irreducible",
                      lambda spec, k, l, mu: kostka_count((k, l) if l else (k,), mu)),)),
}


def run_verification(families, ranks, maxsum, oracle) -> tuple[int, list[str]]:
    """Compare the formula engine against the selected oracles on a grid.

    Per (algebra, k, l): the walk's dominant table against Freudenthal's
    diagram, then one pass over ``candidate_dominants`` for each selected
    ``ORACLES`` entry that covers the family. Returns (number of
    comparisons, list of mismatch descriptions).
    """
    engine = {"irreducible": bivariate_mult, "tensor": tensor_mult}  # read at each call
    checked = 0
    mismatches: list[str] = []
    for spec in _grid_specs(families, ranks):
        passes = [checks for name, (covers, checks) in ORACLES.items()
                  if oracle in (name, "all") and spec.family in covers]
        for total in range(maxsum + 1):
            for l in range(total // 2 + 1):
                k = total - l
                compared = []  # (label, weight, engine value, oracle value)
                if oracle in ("freudenthal", "all"):
                    diagram = freudenthal_diagram(spec, highest_weight(spec, k, l)).entries
                    table = build_table(spec, k, l, dominant_only=True)
                    got = {canonical_weight(spec, mu): m for mu, m in table.rows}
                    compared += [("freudenthal", key, got.get(key, 0), diagram.get(key, 0))
                                 for key in set(diagram) | set(got)]
                for checks in passes:
                    compared += [(label, mu, engine[side](spec, k, l, mu), check(spec, k, l, mu))
                                 for mu in candidate_dominants(spec, k, l)
                                 for label, side, check in checks]
                checked += len(compared)
                mismatches += [f"mismatch[{label}] family={spec.family} rank={spec.rank} "
                               f"k={k} l={l} mu={mu}: {lhs} != {rhs}"
                               for label, mu, lhs, rhs in compared if lhs != rhs]
    return checked, mismatches


# ---------------------------------------------------------------------------
# argument handling


def _parse_mu(raw: str) -> tuple[int, ...]:
    try:
        return tuple(integer(part) for part in raw.split(","))
    except ValueError:
        raise BivarError(f"bad weight vector {raw!r}; expected comma-separated integers")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="bivar",
        description="Exact weight multiplicities for representations k*e1 + l*e2 "
                    "of the classical families A, B, C, D.",
    )
    parser.add_argument("--version", action="version", version=f"bivar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", required=True, choices=["A", "B", "C", "D"])
        p.add_argument("--rank", required=True, type=integer)
        p.add_argument("--k", required=True, type=integer)
        p.add_argument("--l", required=True, type=integer)

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
                          choices=["freudenthal", *ORACLES, "all"])

    return parser


def cmd_mult(args) -> int:
    spec = algebra(args.family, args.rank)
    value = bivariate_mult(spec, args.k, args.l, _parse_mu(args.mu))
    print(value)
    return 0


def cmd_table(args) -> int:
    table = build_table(algebra(args.family, args.rank), args.k, args.l, dominant_only=True)
    try:
        _write_out(table_text(table, args.format, not args.dominant_only), args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    families, ranks, maxsum = _parse_grid(args.grid)
    covers = ORACLES[args.oracle][0] if args.oracle in ORACLES else "ABCD"
    if any(f not in covers for f in families):
        print(f"error: the {args.oracle} oracle is defined for family "
              f"{', '.join(covers)} only", file=sys.stderr)
        return 2
    checked, mismatches = run_verification(families, ranks, maxsum, args.oracle)
    for line in mismatches:
        print(line)
    if mismatches:
        print(f"FAIL: {len(mismatches)} mismatches out of {checked} comparisons")
        return 1
    print(f"ok: {checked} comparisons, no mismatches")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    # Python converts int and decimal text only up to 4,300 digits; a command
    # reads and prints integers of any length, and a library caller gets its
    # own limit back
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return {"mult": cmd_mult, "table": cmd_table, "verify": cmd_verify}[args.command](args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 0 if exc.code in (0, None) else 2
    except (BivarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
