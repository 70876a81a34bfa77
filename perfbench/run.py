#!/usr/bin/env python3
"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload curate-snb --seed 1 --seconds 20 --trace 0

Builds the library, the CLI and perfbench_driver from source into
.bench_build/ (Release), generates the workload's dataset snapshot from
--seed with `rdfparams_cli save`, runs the driver, and turns its raw record
into metrics. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from a separate traced run; the record with its spans is kept under
.bench_build/results/). The exit code is non-zero when any op's output
differs from its reference or a workload-validity assertion fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
DRIVER = os.path.join(CMAKE_DIR, "perfbench_driver")
CLI = os.path.join(CMAKE_DIR, "rdfparams", "rdfparams_cli")

# Datasets per workload: how many, and the `rdfparams_cli save` arguments
# besides --seed. Dataset i of a run is generated with seed*16 + i.
DATASETS = {
    "curate-snb": (1, ["--workload=snb", "--persons=8000"]),
    "run-bsbm": (8, ["--workload=bsbm", "--products=1000"]),
    "serve-snb": (1, ["--workload=snb", "--persons=8000"]),
}

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("storage.open_ms", "ms"),
    ("storage.checksum_ms", "ms"),
    ("storage.dict_ms", "ms"),
    ("storage.runs_ms", "ms"),
    ("storage.bytes_per_triple", "B/triple"),
    ("server.workbench_ms", "ms"),
    ("server.domains_ms", "ms"),
    ("core.classify_ms", "ms"),
    ("core.classify_nproc_ms", "ms"),
    ("core.sample_us", "us"),
    ("core.write_bindings_us", "us"),
    ("core.read_bindings_us", "us"),
    ("core.candidates", "count"),
    ("core.distinct_signatures", "count"),
    ("core.dp_runs", "count"),
    ("core.dp_runs_saved", "count"),
    ("core.dedup_ratio", "ratio"),
    ("core.batched_counts", "count"),
    ("core.unbatched_patterns", "count"),
    ("optimizer.optimize_us", "us"),
    ("optimizer.cache_hit_rate", "ratio"),
    ("optimizer.cache_lookups", "count"),
    ("sparql.bind_us", "us"),
    ("engine.execute_ms.p50", "ms"),
    ("engine.execute_ms.p90", "ms"),
    ("engine.rows_per_s", "1/s"),
    ("engine.intermediate_rows", "count"),
    ("engine.scan_rows", "count"),
    ("engine.result_rows", "count"),
    ("server.service_ms.classify", "ms"),
    ("server.service_ms.run", "ms"),
    ("server.service_ms.explain", "ms"),
    ("server.queue_wait_ms.p50", "ms"),
    ("server.queue_wait_ms.p90", "ms"),
    ("server.ping_rtt_us", "us"),
    ("server.served_requests", "count"),
    ("server.rejected", "count"),
    ("loadgen.lag_ms.p90", "ms"),
    ("loadgen.offered_rps", "1/s"),
    ("trace.overhead_frac", "ratio"),
]

# A p90 needs at least this many samples above it to mean anything.
MIN_SAMPLES_BEYOND_P90 = 10


# ---------------------------------------------------------------------------
# Statistics (unit-tested in test_run.py)
# ---------------------------------------------------------------------------

def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, threshold):
    """How many samples lie strictly above `threshold`."""
    return sum(1 for v in values if v > threshold)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its children. `spans` are [name, start, end, parent, op]
    rows, parent being an index into `spans` or -1."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        kids = sorted((spans[c][1], spans[c][2]) for c in children.get(i, []))
        for lo, hi in kids:
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# Metrics from a driver record
# ---------------------------------------------------------------------------

def end_to_end_metrics(rec):
    ops_ms = [s * 1e3 for s in rec["op_s"]]
    return {
        "setup_s": quantile(rec["setup_s"], 0.5),
        "op_ms.p50": quantile(ops_ms, 0.5),
        "op_ms.p90": quantile(ops_ms, 0.9),
        "ops_per_s": rec["good"] / rec["timed_s"] if rec["timed_s"] else 0.0,
        "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
    }


def per_layer_metrics(rec):
    spans = rec["spans"]
    selfs = self_times(spans)
    by_name = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s[0], []).append(own * 1e-9)  # seconds
    c = rec["counters"]
    samples = rec["samples"]

    def span_mean(name, scale):
        return mean(by_name.get(name, [])) * scale

    def span_median(name, scale):
        return quantile(by_name.get(name, []), 0.5) * scale

    def sample_q(name, q):
        return quantile(samples.get(name, []), q)

    execute = by_name.get("engine.execute", [])
    rows = samples.get("engine.rows", [])
    lookups = sum(samples.get("optimizer.cache_lookups", []))
    hits = sum(samples.get("optimizer.cache_hits", []))
    calls = len(samples.get("optimizer.cache_lookups", []))
    traced_p50 = quantile(rec["op_s"], 0.5)
    untraced_p50 = quantile(rec["untraced_op_s"], 0.5)
    m = {
        "storage.open_ms": span_median("storage.open", 1e3),
        "storage.checksum_ms": sample_q("storage.checksum_ms", 0.5),
        "storage.dict_ms": sample_q("storage.dict_ms", 0.5),
        "storage.runs_ms": sample_q("storage.runs_ms", 0.5),
        "storage.bytes_per_triple": c.get("storage.bytes_per_triple", 0.0),
        "server.workbench_ms": span_median("server.workbench", 1e3),
        "server.domains_ms": span_median("server.domains", 1e3),
        "core.classify_ms": span_mean("core.classify", 1e3),
        "core.classify_nproc_ms": mean(samples.get("core.classify_nproc_ms",
                                                   [])),
        "core.sample_us": span_mean("core.sample", 1e6),
        "core.write_bindings_us": span_mean("core.write_bindings", 1e6),
        "core.read_bindings_us": span_mean("core.read_bindings", 1e6),
        "optimizer.optimize_us": span_mean("optimizer.optimize", 1e6),
        "optimizer.cache_hit_rate": hits / lookups if lookups else 0.0,
        "optimizer.cache_lookups": lookups / calls if calls else 0.0,
        "sparql.bind_us": span_mean("sparql.bind", 1e6),
        "engine.execute_ms.p50": quantile(execute, 0.5) * 1e3,
        "engine.execute_ms.p90": quantile(execute, 0.9) * 1e3,
        "engine.rows_per_s": sum(rows) / sum(execute) if sum(execute) else 0.0,
        "server.service_ms.classify": span_mean("server.service.classify", 1e3),
        "server.service_ms.run": span_mean("server.service.run", 1e3),
        "server.service_ms.explain": span_mean("server.service.explain", 1e3),
        "server.queue_wait_ms.p50": sample_q("server.queue_wait_ms", 0.5),
        "server.queue_wait_ms.p90": sample_q("server.queue_wait_ms", 0.9),
        "server.ping_rtt_us": sample_q("server.ping_rtt_us", 0.5),
        "loadgen.lag_ms.p90": sample_q("loadgen.lag_ms", 0.9),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1
                                if untraced_p50 else 0.0),
    }
    for name in ("core.candidates", "core.distinct_signatures", "core.dp_runs",
                 "core.dp_runs_saved", "core.batched_counts",
                 "core.unbatched_patterns", "engine.intermediate_rows",
                 "engine.scan_rows", "engine.result_rows",
                 "server.served_requests", "server.rejected",
                 "loadgen.offered_rps"):
        m[name] = c.get(name, 0.0)
    m["core.dedup_ratio"] = (m["core.dp_runs_saved"] / m["core.candidates"]
                             if m["core.candidates"] else 0.0)
    return m


def validity_errors(workload, rec, trace, metrics):
    """Assertions that keep each workload doing what it exists for."""
    errors = []
    if not trace:
        ops = rec["op_s"]
        p90 = quantile(ops, 0.9)
        if beyond(ops, p90) < MIN_SAMPLES_BEYOND_P90:
            errors.append("only %d samples beyond p90 (%d ops)"
                          % (beyond(ops, p90), len(ops)))
    if workload == "serve-snb" and trace:
        op_p50_ms = quantile(rec["op_s"], 0.5) * 1e3
        if not metrics["loadgen.lag_ms.p90"] < 0.25 * op_p50_ms:
            errors.append("generator lag p90 %.3f ms is not well below op p50"
                          % metrics["loadgen.lag_ms.p90"])
        if not metrics["server.queue_wait_ms.p90"] > 0:
            errors.append("no request queued (queue_wait p90 = 0)")
    return errors


# ---------------------------------------------------------------------------
# Build, data, run
# ---------------------------------------------------------------------------

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_log, "w") as out:
        for cmd in (["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", CMAKE_DIR, "-j", jobs,
                     "--target", "perfbench_driver", "rdfparams_cli"]):
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               timeout=850) != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                raise SystemExit("build failed: " + " ".join(cmd))


def source_identity():
    """git rev when the checkout is a repository, else 'unknown'; plus a
    digest of src/ and tools/ that identifies the build either way."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DATASETS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    trace = args.trace == 1

    build()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    data_dir = os.path.join(BUILD, "data")
    results = os.path.join(BUILD, "results")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    count, save_args = DATASETS[args.workload]
    snapshots = [os.path.join(data_dir, "%s-%d-%d.snap" % (tag, os.getpid(), i))
                 for i in range(count)]
    record_path = os.path.join(results, tag + ".record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    try:
        for i, snapshot in enumerate(snapshots):
            subprocess.run([CLI, "save", "--seed=%d" % (args.seed * 16 + i),
                            "--out=" + snapshot] + save_args,
                           check=True, stdout=subprocess.DEVNULL, timeout=120)
        started = time.time()
        rc = subprocess.call([DRIVER, "--workload=" + args.workload,
                              "--snapshot=" + ",".join(snapshots),
                              "--cli=" + CLI,
                              "--seed=%d" % args.seed,
                              "--seconds=%s" % args.seconds,
                              "--trace=%d" % args.trace,
                              "--out=" + record_path], timeout=170)
        log("driver finished in %.1f s (exit %d)" % (time.time() - started, rc))
    finally:
        for snapshot in snapshots:
            if os.path.exists(snapshot):
                os.remove(snapshot)
    if not os.path.exists(record_path):
        raise SystemExit("driver wrote no record (exit %d)" % rc)
    with open(record_path) as f:
        rec = json.load(f)

    metrics = per_layer_metrics(rec) if trace else end_to_end_metrics(rec)
    errors = rec["errors"] + validity_errors(args.workload, rec, trace, metrics)
    correct = rc == 0 and not errors and rec["failed"] == 0
    units = dict(PER_LAYER if trace else END_TO_END)
    rev, digest = source_identity()
    meta = dict(rec["info"])
    meta.update({"git_rev": rev, "source_digest": digest,
                 "ops": len(rec["op_s"]),
                 "failed_frac": rec["failed"] / max(1, rec["attempted"]),
                 "record": os.path.relpath(record_path, ROOT)})
    for e in errors:
        log("error: " + e)
    if trace:
        for name, unit in PER_LAYER:
            print("%-28s %16.6g %s" % (name, metrics[name], unit))
    print("perfbench: " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": max(1, rec["attempted"]),
        "failed": rec["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({"meta": meta, "result": result, "errors": errors}, f,
                  indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
