#!/usr/bin/env python3
"""Record the expected table bytes and the known wrong outputs.

Run from the repository root: ``python3 perfbench/record_expected.py``.
Re-run only when an output is meant to change, for example after a fix
of the engine. It writes two files next to this script:

- ``digests.json``: the SHA-256 of every full_tables output that passes
  the dimension audit. An output the engine gets wrong is never recorded
  here as the expected bytes.
- ``known_wrong.json``: the outputs that are wrong today, exactly as
  they are. ``tables`` maps each table that fails its dimension audit to
  the SHA-256 of its bytes; ``queries`` maps each query_mix
  representation the oracle checks to the dominant weights whose answer
  differs from Freudenthal, with the wrong answer. A run counts these
  outputs as failed, but only an output that differs from both the
  right answer and the recorded wrong one makes it incorrect.
"""

import hashlib
import json
import shutil
import sys

import run


def candidate_dominants(family, n, k, l):
    """Every dominant weight the query stream can ask about for one representation."""
    total = k + l
    if family == "A":
        norms, width = [total], n + 1
    else:
        step = 2 if family in "CD" else 1
        norms, width = range(total % step, total + 1, step), n

    def partitions(m, parts, cap):
        if m == 0:
            yield (0,) * parts
            return
        if parts == 0:
            return
        for first in range(min(m, cap), 0, -1):
            for rest in partitions(m - first, parts - 1, first):
                yield (first,) + rest

    for m in norms:
        yield from partitions(m, width, m)


def record_tables(bivar, cli, digests, wrong):
    out_dir = run.OUT / "record-expected"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in ("full_tables", "dominant_tables"):
            ops = run.run_tables(cli, workload, 0, out_dir, None)
            for op in ops:
                key = run.point_key(op.args)
                if op.error is not None:
                    raise SystemExit(f"error: {key}: {op.error}")
                digest = hashlib.sha256(op.value.read_bytes()).hexdigest()
                if run.audit_table(bivar, op):
                    if workload == "full_tables":
                        digests[key] = digest
                else:
                    wrong[key] = digest
                    print(f"known wrong: {key} ({op.note})", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def record_queries(bivar, wrong):
    for family, n, k, l in run.query_grid():
        if run.oracle_cost(family, n, k, l) > run.ORACLE_BUDGET:
            continue
        spec = bivar.algebra(family, n)
        width = n + 1 if family == "A" else n
        diagram = bivar.freudenthal_diagram(spec, (k, l) + (0,) * (width - 2))
        found = {}
        for mu in candidate_dominants(family, n, k, l):
            value = bivar.bivariate_mult(spec, k, l, mu)
            if value != diagram.multiplicity(mu):
                found[run.weight_key(bivar, spec, mu)] = value
        if found:
            wrong[run.rep_key(family, n, k, l)] = found
            print(f"known wrong: {run.rep_key(family, n, k, l)} "
                  f"{len(found)} weights", file=sys.stderr)


def main():
    bivar, cli = run.load_bivar()
    digests, tables, queries = {}, {}, {}
    record_tables(bivar, cli, digests, tables)
    record_queries(bivar, queries)
    run.DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n")
    run.KNOWN_WRONG.write_text(json.dumps(
        {"tables": dict(sorted(tables.items())), "queries": dict(sorted(queries.items()))},
        indent=1) + "\n")
    print(f"recorded {len(digests)} digests, {len(tables)} known wrong tables, "
          f"{sum(map(len, queries.values()))} known wrong answers "
          f"in {len(queries)} representations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
