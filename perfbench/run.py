#!/usr/bin/env python3
"""bivar benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload dominant_tables --seed 1 --seconds 30 --trace 1

The program under test is the ``bivar`` package in ``src/`` next to this
directory, driven through its public API only: ``bivar.bivariate_mult``
for queries and the in-process ``bivar.cli.main(["table", ...])`` for
tables. Every output is checked after the timed phase; an operation that
raises, exits non-zero or fails a check counts in ``failed``. Times are
scaled to a steady host speed by the probe in speed.py; the raw wall
time is printed and recorded next to them.

Human-readable lines (provenance, every metric with its unit, check
counts) come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Every run
also appends a full record to ``.perfbench_out/results.jsonl``, and a
traced run writes its spans to ``.perfbench_out/``. See README.md.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import compare
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
KNOWN_WRONG = HERE / "known_wrong.json"

WORKLOADS = ("query_mix", "dominant_tables", "full_tables")

# Kernel-heavy dominant-only tables (l >= 6): the kernel does nearly all
# of the work, orbit expansion is skipped and the output is small. Six
# points of 4-7 s each on the reference machine, so the per-invocation
# percentiles are not one outlier's time. No two points share the
# kernel's (n, d) arguments (d = n-1 for B and C, n-2 for D), so a
# kernel cache kept across calls cannot carry work from one point into
# the next, as it could not for a CLI user running one table per process.
DOMINANT_POINTS = [
    ("B", 5, 10, 6), ("B", 6, 9, 6),
    ("C", 3, 20, 8), ("C", 4, 10, 8),
    ("D", 5, 16, 6), ("D", 6, 12, 6),
]

# Orbit-heavy full tables (l <= 3): the kernel is trivial; orbit
# expansion, the global sort and writing the output take the time. Each
# point is built once per run in one format, twelve points per family,
# half of them per format, each costing 0.3-0.9 s on the reference
# machine, about 22 s in all.
FULL_POINTS = [
    ("A", 10, 6, 3, "json"), ("A", 11, 5, 3, "json"), ("A", 8, 9, 2, "json"),
    ("A", 9, 8, 2, "json"), ("A", 10, 7, 2, "json"), ("A", 12, 5, 2, "json"),
    ("A", 12, 5, 3, "csv"), ("A", 11, 6, 3, "csv"), ("A", 8, 8, 3, "csv"),
    ("A", 9, 7, 3, "csv"), ("A", 8, 9, 3, "csv"), ("A", 11, 7, 2, "csv"),
    ("B", 7, 5, 3, "json"), ("B", 8, 4, 3, "json"), ("B", 9, 3, 3, "json"),
    ("B", 6, 7, 2, "json"), ("B", 12, 3, 2, "json"), ("B", 8, 5, 2, "json"),
    ("B", 6, 7, 3, "csv"), ("B", 7, 6, 2, "csv"), ("B", 9, 4, 2, "csv"),
    ("B", 5, 9, 3, "csv"), ("B", 6, 6, 3, "csv"), ("B", 6, 8, 2, "csv"),
    ("C", 6, 7, 3, "json"), ("C", 8, 5, 2, "json"), ("C", 6, 7, 2, "json"),
    ("C", 12, 3, 2, "json"), ("C", 9, 3, 3, "json"), ("C", 7, 6, 2, "json"),
    ("C", 7, 6, 3, "csv"), ("C", 8, 5, 3, "csv"), ("C", 6, 6, 3, "csv"),
    ("C", 5, 9, 3, "csv"), ("C", 9, 4, 2, "csv"), ("C", 6, 8, 2, "csv"),
    ("D", 7, 5, 3, "json"), ("D", 8, 5, 2, "json"), ("D", 9, 3, 3, "json"),
    ("D", 6, 7, 3, "json"), ("D", 10, 3, 3, "json"), ("D", 12, 3, 2, "json"),
    ("D", 7, 6, 3, "csv"), ("D", 8, 5, 3, "csv"), ("D", 9, 4, 2, "csv"),
    ("D", 7, 6, 2, "csv"), ("D", 8, 4, 3, "csv"), ("D", 6, 9, 2, "csv"),
]

# query_mix grid: every (family, rank, l) cell with k at the bottom, the
# middle and the top of l..l+14. The grid, and the dominant weights asked
# of each representation, do not depend on the seed; the seed sets only
# the order of the queries and which signed permutation of each dominant
# weight is asked, which leaves every answer the same. So every seed does
# the same work and gets the same answers.
QUERY_FAMILIES = "ABCD"
QUERY_RANKS = range(3, 8)
QUERY_LEVELS = range(0, 9)
QUERY_K_OFFSETS = (0, 7, 14)
# queries per second on the reference machine: --seconds times this is
# the length of the query stream, rounded to whole rounds of the grid
QUERY_RATE = 180

# A query is checked against the Freudenthal oracle when the estimated
# oracle cost of its representation (dominant weights times n^2) is at
# most this; the cut-off depends on the representation only, never on
# whether the check passes.
ORACLE_BUDGET = 12000


# fresh interpreters per set-up batch; one batch runs before and one
# after the timed phase
SETUP_PROBES = 6
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import bivar, bivar.cli\n"
    "print(repr(time.monotonic()))\n"
)


# ---------------------------------------------------------------------------
# provenance


def pin_to_one_cpu():
    """Pin this process, and the probes it starts, to its highest-numbered CPU.

    The scheduler otherwise moves the single busy thread between CPUs,
    and the CPUs of a shared virtual machine can differ in speed by a
    third, which makes a run's timings depend on where it landed.
    Returns (nproc before pinning, the CPU chosen).
    """
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def provenance(bivar, workload, seed, trace, nproc, cpu):
    backend = "unknown"
    for name in ("bivar.kernel", "bivar._kernel_py"):
        try:
            module = __import__(name, fromlist=["BACKEND"])
        except ImportError:
            continue
        backend = str(getattr(module, "BACKEND", "unknown"))
        break
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "backend": backend,
        "bivar_version": getattr(bivar, "__version__", "unknown"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(SRC / "bivar"),
        "bench_sha256": source_digest(HERE),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# set-up


def measure_setup():
    """Seconds from interpreter launch until bivar and bivar.cli are imported, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return times


# ---------------------------------------------------------------------------
# inputs


def _composition(rng, total, parts):
    # uniform composition of `total` into `parts` non-negative parts
    cuts = sorted(rng.sample(range(total + parts - 1), parts - 1))
    bounds = [-1] + cuts + [total + parts - 1]
    return [bounds[i + 1] - bounds[i] - 1 for i in range(parts)]


def random_dominant(rng, family, n, k, l):
    """Random candidate dominant weight of the representation (k, l)."""
    total = k + l
    if family == "A":
        return tuple(sorted(_composition(rng, total, n + 1), reverse=True))
    norms = range(total % 2, total + 1, 2) if family in "CD" else range(total + 1)
    return tuple(sorted(_composition(rng, rng.choice(norms), n), reverse=True))


def signed_permutation(rng, family, weight):
    """Random permutation of the weight, with random signs outside family A.

    The highest weight k*e1 + l*e2 is fixed by every sign change (for D
    too, by the diagram automorphism), so the multiplicity is the same.
    """
    weight = rng.sample(weight, len(weight))
    if family == "A":
        return tuple(weight)
    return tuple(a if rng.random() < 0.5 else -a for a in weight)


def query_grid():
    """Every (family, rank, k, l) representation the query stream visits."""
    return [(f, n, l + dk, l) for f in QUERY_FAMILIES for n in QUERY_RANKS
            for l in QUERY_LEVELS for dk in QUERY_K_OFFSETS]


def query_set(seed, seconds):
    """The seeded list of (family, rank, k, l, mu) queries of one run.

    Each grid representation is asked the same dominant weights on every
    seed, drawn from a generator seeded by the representation's name;
    there are as many rounds of the grid as fill --seconds at
    QUERY_RATE. The seed shuffles the queries and permutes each weight.
    """
    grid = query_grid()
    rounds = max(1, round(seconds * QUERY_RATE / len(grid)))
    queries = []
    for rep in grid:
        chooser = random.Random(rep_key(*rep))
        queries.extend(rep + (random_dominant(chooser, *rep),) for _ in range(rounds))
    rng = random.Random(seed)
    rng.shuffle(queries)
    return [(f, n, k, l, signed_permutation(rng, f, mu)) for f, n, k, l, mu in queries]


def table_points(workload, seed):
    if workload == "dominant_tables":
        points = [(f, n, k, l, "json", True) for f, n, k, l in DOMINANT_POINTS]
    else:
        points = [(f, n, k, l, fmt, False) for f, n, k, l, fmt in FULL_POINTS]
    random.Random(seed).shuffle(points)
    return points


def point_key(point):
    family, n, k, l, fmt, dominant = point
    return f"{family}{n}_k{k}_l{l}{'_dominant' if dominant else ''}.{fmt}"


def rep_key(family, n, k, l):
    return f"{family}{n}_k{k}_l{l}"


def weight_key(bivar, spec, mu):
    return ",".join(map(str, bivar.dominant_representative(spec, mu)))


# ---------------------------------------------------------------------------
# timed phases


class Op:
    """One timed operation: its input, latency, what came back and how it checked.

    ``start`` and ``end`` are perf_counter readings around the call;
    ``latency`` is its time at the reference speed and ``raw`` its time
    as measured, both without the speed probe's own time (speed.py).
    ``known`` marks a failed check whose wrong output is exactly the one
    recorded in known_wrong.json.
    """

    __slots__ = ("args", "start", "end", "latency", "raw", "value", "error", "rows",
                 "ok", "known", "note")

    def __init__(self, args):
        self.args = args
        self.start = self.end = 0.0
        self.latency = self.raw = 0.0
        self.value = None
        self.error = None
        self.rows = 1
        self.ok = None
        self.known = False
        self.note = ""


def run_queries(bivar, queries, tracer):
    specs = {}
    ops = []
    for family, n, k, l, mu in queries:
        spec = specs.get((family, n))
        if spec is None:
            spec = specs[(family, n)] = bivar.algebra(family, n)
        op = Op((family, n, k, l, mu))
        if tracer:
            tracer.request = len(ops)
        op.start = time.perf_counter()
        try:
            op.value = bivar.bivariate_mult(spec, k, l, mu)
        except Exception as exc:  # counted as a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
            op.rows = 0
        op.end = time.perf_counter()
        ops.append(op)
    return ops


def run_tables(cli, workload, seed, out_dir, tracer):
    ops = []
    for request, point in enumerate(table_points(workload, seed)):
        family, n, k, l, fmt, dominant = point
        path = out_dir / point_key(point)
        argv = ["table", "--family", family, "--rank", str(n), "--k", str(k),
                "--l", str(l), "--format", fmt, "--out", str(path)]
        if dominant:
            argv.append("--dominant-only")
        op = Op(point)
        if tracer:
            tracer.request = request
        op.start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            code = None
            op.error = f"{type(exc).__name__}: {exc}"
        op.end = time.perf_counter()
        if code not in (0, None):
            op.error = f"exit code {code}"
        op.value = path
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# checks (untimed)


@lru_cache(maxsize=None)
def _partition_count(total, parts, cap):
    # partitions of `total` into at most `parts` parts, each at most `cap`
    if total == 0:
        return 1
    if parts == 0:
        return 0
    return sum(_partition_count(total - a, parts - 1, a) for a in range(1, min(cap, total) + 1))


def oracle_cost(family, n, k, l):
    """Estimated Freudenthal cost: dominant weights below k*e1 + l*e2 times n^2."""
    if family == "A":
        dominant = _partition_count(k + l, n + 1, k + l)
    else:
        dominant = sum(_partition_count(m, n, m) for m in range(k + l + 1))
    return dominant * n * n


def check_queries(bivar, ops, known_wrong):
    """Check answers against Freudenthal diagrams, cached per representation.

    A wrong answer is known when known_wrong.json records that very value
    for the query's representation and dominant weight.
    """
    diagrams = {}
    specs = {}
    checked = 0
    for op in ops:
        family, n, k, l, mu = op.args
        if op.error is not None:
            op.ok = False
            continue
        if oracle_cost(family, n, k, l) > ORACLE_BUDGET:
            continue
        key = (family, n, k, l)
        try:
            spec = specs.get((family, n))
            if spec is None:
                spec = specs[(family, n)] = bivar.algebra(family, n)
            if key not in diagrams:
                width = n + 1 if family == "A" else n
                diagrams[key] = bivar.freudenthal_diagram(spec, (k, l) + (0,) * (width - 2))
            expected = diagrams[key].multiplicity(mu)
            op.ok = expected == op.value
            if not op.ok:
                recorded = known_wrong.get(rep_key(*key), {})
                op.known = recorded.get(weight_key(bivar, spec, mu)) == op.value
            op.note = f"mu={mu} got {op.value}, Freudenthal {expected}"
        except Exception as exc:  # an answer the oracle cannot confirm fails
            op.ok = False
            op.error = f"oracle: {type(exc).__name__}: {exc}"
        checked += 1
    return checked


def _read_rows(path, fmt, with_weights):
    """(weights or None, multiplicities, stated dimension or None) of a written table."""
    text = path.read_text()
    if fmt == "json":
        obj = json.loads(text)
        rows = obj["rows"]
        weights = [r["mu"] for r in rows] if with_weights else None
        return weights, [int(r["mult"]) for r in rows], int(obj["dimension"])
    rows = [line.rpartition(",") for line in text.splitlines()[1:]]
    weights = None
    if with_weights:
        weights = [[int(c) for c in coords.split(",")] for coords, _, _ in rows]
    return weights, [int(mult) for _, _, mult in rows], None


def audit_table(bivar, op):
    """Dimension audit of one written table; sets ``op.rows``.

    The multiplicity total (orbit-weighted for dominant-only tables) must
    equal the Weyl dimension, and a JSON table's stated dimension must
    equal that total.
    """
    family, n, k, l, fmt, dominant = op.args
    path = op.value
    if op.error is not None or not path.is_file():
        op.rows = 0
        return False
    try:
        weights, mults, stated = _read_rows(path, fmt, dominant)
    except (ValueError, KeyError, TypeError) as exc:
        op.rows = 0
        op.error = f"unreadable {fmt}: {type(exc).__name__}: {exc}"
        return False
    op.rows = len(mults)
    spec = bivar.algebra(family, n)
    if dominant:
        total = sum(bivar.weyl_orbit_size(spec, mu) * m for mu, m in zip(weights, mults))
    else:
        total = sum(mults)
    expected = bivar.weyl_dimension(spec, k, l)
    op.note = f"dimension {total}, Weyl {expected}"
    return total == expected and stated in (None, total)


def check_tables(bivar, ops, digests, known_wrong):
    """Dimension audit on every table; SHA-256 against digests.json on full tables.

    A table that fails its audit is known when its SHA-256 is the one
    recorded for it in known_wrong.json.
    """
    for op in ops:
        op.ok = audit_table(bivar, op)
        if op.rows == 0:
            continue
        key = point_key(op.args)
        digest = hashlib.sha256(op.value.read_bytes()).hexdigest()
        if not op.ok:
            op.known = known_wrong.get(key) == digest
        elif not op.args[5]:
            op.ok = digests.get(key) == digest
            op.note = f"sha256 {digest[:16]}... against digests.json"
    return len(ops)


# ---------------------------------------------------------------------------
# metrics


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    index = max(0, min(len(sorted_values) - 1, -(-q * len(sorted_values) // 100) - 1))
    return sorted_values[int(index)]


def end_to_end(ops, setup_s, peak_rss_mb):
    latencies = sorted(op.latency for op in ops)
    wall = sum(latencies)
    rows = sum(op.rows for op in ops)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "rows_per_s": (rows / wall, "1/s"),
        "query_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "query_p99_ms": (1000 * percentile(latencies, 99), "ms"),
        "queries_per_s": (len(ops) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# main


def overhead_line(prov, traced_per_s):
    """Tracing overhead of this run against the untraced runs recorded for its source."""
    plain = [r for r in compare.records(OUT / "results.jsonl")
             if r["provenance"]["trace"] == 0
             and all(r["provenance"].get(k) == prov[k]
                     for k in ("workload", "backend", "source_sha256", "bench_sha256"))]
    if not plain:
        return "tracing overhead absent: no untraced run of this workload and source recorded"
    per_s = [r["end_to_end"]["queries_per_s"] for r in plain]
    return (f"tracing overhead {statistics.median(per_s) / traced_per_s:.4g} (time per "
            f"operation traced over the median of {len(plain)} untraced runs, whose own "
            f"spread is {compare.spread(per_s):.3f})")


def load_bivar():
    if not (SRC / "bivar" / "__init__.py").is_file():
        raise SystemExit(f"error: no bivar sources at {SRC / 'bivar'}")
    # byte-compile once so every set-up probe reads the same cached code
    compileall.compile_dir(str(SRC / "bivar"), quiet=1)
    sys.path.insert(0, str(SRC))
    import bivar
    import bivar.cli
    return bivar, bivar.cli


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the length of the query_mix stream (at the reference "
                             "machine's rate); table workloads build their fixed point "
                             "set once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bivar, cli = load_bivar()
    nproc, cpu = pin_to_one_cpu()
    # set-up is probed before and after the timed phase, so its median is
    # not one moment's machine speed
    setup_times = measure_setup()
    prov = provenance(bivar, args.workload, args.seed, args.trace, nproc, cpu)
    digests = json.loads(DIGESTS.read_text()) if args.workload == "full_tables" else {}
    known_wrong = json.loads(KNOWN_WRONG.read_text())

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    out_dir = OUT / f"tables-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    queries = query_set(args.seed, args.seconds) if args.workload == "query_mix" else None
    try:
        with speed.SpeedProbe() as probe:
            if queries:
                ops = run_queries(bivar, queries, tracer)
            else:
                ops = run_tables(cli, args.workload, args.seed, out_dir, tracer)
        for op in ops:
            op.raw, op.latency = probe.times(op.start, op.end)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += measure_setup()
        bytes_out = sum(op.value.stat().st_size for op in ops
                        if isinstance(op.value, Path) and op.value.is_file())
        if tracer:
            tracer.enabled = False
        t0 = time.perf_counter()
        if args.workload == "query_mix":
            checked = check_queries(bivar, ops, known_wrong["queries"])
        else:
            checked = check_tables(bivar, ops, digests, known_wrong["tables"])
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed_ops = [op for op in ops if op.error is not None or op.ok is False]
    unexpected = [op for op in failed_ops if op.error is not None or not op.known]
    e2e = end_to_end(ops, statistics.median(setup_times), peak_rss_mb)
    raw_wall = sum(op.raw for op in ops)
    layers, absent = {}, []
    if tracer:
        # span times include the speed probe's samples, so shares are
        # taken over the operations' whole time, probe included
        layers, absent = tracing.layer_metrics(tracer, sum(op.end - op.start for op in ops), {
            "bytes_out": bytes_out, "oracle_checked": checked, "oracle_check_s": check_s,
        })

    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"operations attempted={len(ops)} failed={len(failed_ops)} "
          f"known_wrong={len(failed_ops) - len(unexpected)} unexpected={len(unexpected)} "
          f"checked={checked} check_s={check_s:.3f}")
    label = "traced " if tracer else ""
    for name, (value, unit) in e2e.items():
        print(f"{label}metric {name} {value:.6g} {unit}")
    print(f"{label}metric failed_frac {len(failed_ops) / len(ops):.6g} fraction "
          f"({len(failed_ops)} of {len(ops)})")
    print(f"samples latency n={len(ops)}")
    print(f"host speed: raw wall {raw_wall:.6g} s, scaled to the reference speed "
          f"{e2e['wall_s'][0]:.6g} s, from {len(probe.samples)} probe samples")
    for name, (value, unit) in layers.items():
        print(f"layer {name} {value:.6g} {unit}")
    for name in absent:
        print(f"layer {name} absent")
    if tracer:
        print(overhead_line(prov, e2e["queries_per_s"][0]))
    for op in failed_ops[:10]:
        print(f"failed {op.args[:4]} {op.error or op.note}")

    record = {
        "provenance": prov,
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "checked": checked,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "raw_wall_s": raw_wall,
        "per_layer": {k: v[0] for k, v in layers.items()},
        "absent": absent,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    if tracer:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as handle:
            json.dump({"provenance": prov, "fields": tracing.SPAN_FIELDS,
                       "missing": tracer.missing, "spans": tracer.spans}, handle)

    chosen = layers if tracer else e2e
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
