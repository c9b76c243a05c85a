#!/usr/bin/env python3
"""Summarize or compare benchmark records from results.jsonl files.

    python3 perfbench/compare.py RESULTS.jsonl             # spread of each metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl      # NEW against BASE

Records are grouped by workload and by traced or untraced run. For each
metric it prints the median, the quartiles and the spread (quartile
distance over median, as the acceptance check computes it); with two
files it also prints NEW's median over BASE's.

It refuses (exit 2) to compare records made on different kernel
backends, because their timings differ by an order of magnitude.
"""

import json
import statistics
import sys
from collections import defaultdict


def records(path):
    """Every record in a results.jsonl file; none if the file does not exist."""
    try:
        with open(path) as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except FileNotFoundError:
        return []


def load(path):
    groups = defaultdict(list)
    for record in records(path):
        prov = record["provenance"]
        groups[(prov["workload"], prov["trace"])].append(record)
    return groups


def summary(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = summary(values)
    return (q3 - q1) / q2 if q2 else 0.0


def backends(groups):
    return {r["provenance"]["backend"] for records in groups.values() for r in records}


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    found = set().union(*(backends(g) for g in sets))
    if len(found) > 1:
        print(f"refusing to compare runs on different backends: {sorted(found)}",
              file=sys.stderr)
        return 2
    print(f"backend {found.pop() if found else 'none'}")
    base = sets[0]
    new = sets[-1]
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        for label, groups in (("base", base), ("new", new))[: len(sets)]:
            records = groups.get(key, [])
            if not records:
                continue
            failed = [r["failed"] for r in records]
            attempted = [r["attempted"] for r in records]
            print(f"\n{workload} trace={trace} {label}: {len(records)} runs, "
                  f"failed {min(failed)}..{max(failed)} of {min(attempted)}..{max(attempted)}, "
                  f"correct {all(r['correct'] for r in records)}")
            section = "per_layer" if trace else "end_to_end"
            names = records[0][section]
            for name in names:
                values = [r[section][name] for r in records if name in r[section]]
                q1, q2, q3 = summary(values)
                line = (f"  {name:34s} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                        f"spread {spread(values):.3f}")
                if len(sets) == 2 and label == "new" and key in base:
                    old = [r[section][name] for r in base[key] if name in r[section]]
                    old_median = statistics.median(old) if old else 0
                    if old_median:
                        line += f" new/base {q2 / old_median:.3f}"
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
