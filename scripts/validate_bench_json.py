#!/usr/bin/env python3
"""Validates the BENCH_*.json baselines the benches emit.

CI runs this after the bench-smoke job: a baseline that parses but carries
NaN/inf (a zero-division that slipped through a guard), a missing key, or
an empty run list would poison every later perf comparison silently.

Usage: validate_bench_json.py FILE [FILE...]
"""

import json
import math
import sys

REQUIRED = {
    "shard_scaling": {
        "keys": ["bench", "trajectories", "threads_available",
                 "query_equivalence_checked", "query_equivalence_mismatches",
                 "runs"],
        "list_keys": {"runs": ["shards", "threads", "seconds",
                               "speedup_vs_1shard", "total_bits"]},
    },
    "query_serving": {
        "keys": ["bench", "trajectories", "threads_available",
                 "threads_effective_batch", "equivalence_mismatches",
                 "cold_qps", "warm_qps", "warm_over_cold", "warm_hit_rate",
                 "cold_bracketed_qps", "decode_bytes_partial",
                 "decode_bytes_full_cold", "sync_seeks",
                 "p50_latency_us", "p99_latency_us", "batch_runs",
                 "budget_runs"],
        "list_keys": {
            "batch_runs": ["batch_size", "seconds", "qps", "hit_rate"],
            "budget_runs": ["budget_bytes", "qps", "hit_rate",
                            "resident_bytes"],
        },
    },
    "ingest": {
        "keys": ["bench", "raw_streams", "points", "matched_trajectories",
                 "threads_available", "equivalence_mismatches",
                 "ingest_seconds", "points_per_sec", "seal_p50_ms",
                 "seal_p99_ms", "flush_seconds", "sealed_over_live",
                 "query_runs"],
        "list_keys": {
            "query_runs": ["mode", "seconds", "qps", "queries"],
        },
    },
    "serve_net": {
        "keys": ["bench", "trajectories", "queries_per_run",
                 "equivalence_mismatches", "connections_accepted",
                 "frames_handled", "closed_loop_qps", "closed_loop_p50_us",
                 "closed_loop_p99_us", "pipelined_qps",
                 "pipelined_over_closed", "connection_runs",
                 "open_loop_runs"],
        "list_keys": {
            "connection_runs": ["connections", "total_qps"],
            "open_loop_runs": ["offered_qps", "achieved_qps", "p50_us",
                               "p99_us", "p999_us"],
        },
    },
}


def check_metrics(doc, errors):
    """Every baseline embeds its obs::MetricRegistry snapshot: counters,
    gauges and reduced histograms. Counters are non-negative by type and
    histogram percentiles must be ordered — a violation means the snapshot
    or the reduction code regressed, not the workload."""
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("metrics: missing or not an object")
        return
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            errors.append(f"metrics.{section}: missing or not an object")
            return
    for name, value in metrics["counters"].items():
        if not isinstance(value, int) or value < 0:
            errors.append(f"metrics.counters.{name} = {value!r}"
                          " (expected non-negative integer)")
    for name, value in metrics["gauges"].items():
        if not isinstance(value, int):
            errors.append(f"metrics.gauges.{name} = {value!r}"
                          " (expected integer)")
    for name, hist in metrics["histograms"].items():
        if not isinstance(hist, dict):
            errors.append(f"metrics.histograms.{name}: not an object")
            continue
        for key in ("count", "sum", "p50", "p90", "p99", "p999"):
            if key not in hist:
                errors.append(f"metrics.histograms.{name}: missing {key}")
        count = hist.get("count", 0)
        if not isinstance(count, int) or count < 0:
            errors.append(f"metrics.histograms.{name}.count = {count!r}"
                          " (expected non-negative integer)")
        quantiles = [hist.get(k, 0) for k in ("p50", "p90", "p99", "p999")]
        if any(not isinstance(q, (int, float)) for q in quantiles):
            errors.append(f"metrics.histograms.{name}: non-numeric quantile")
        elif sorted(quantiles) != quantiles:
            errors.append(f"metrics.histograms.{name}: percentiles not"
                          f" ordered {quantiles}")
        if count == 0 and any(q != 0 for q in quantiles):
            errors.append(f"metrics.histograms.{name}: zero count with"
                          " nonzero percentiles")


def check_numbers(path, node, errors):
    """Every numeric leaf must be finite — NaN/inf means a guard failed."""
    if isinstance(node, dict):
        for key, value in node.items():
            check_numbers(f"{path}.{key}", value, errors)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            check_numbers(f"{path}[{i}]", value, errors)
    elif isinstance(node, float) and not math.isfinite(node):
        errors.append(f"{path}: non-finite number {node!r}")


def validate(filename):
    errors = []
    try:
        with open(filename) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"cannot parse: {e}"]

    bench = doc.get("bench")
    spec = REQUIRED.get(bench)
    if spec is None:
        return [f"unknown or missing bench name: {bench!r}"]

    for key in spec["keys"]:
        if key not in doc:
            errors.append(f"missing key: {key}")
    for list_key, entry_keys in spec["list_keys"].items():
        entries = doc.get(list_key)
        if not isinstance(entries, list) or not entries:
            errors.append(f"{list_key}: missing or empty")
            continue
        for i, entry in enumerate(entries):
            for key in entry_keys:
                if key not in entry:
                    errors.append(f"{list_key}[{i}]: missing key {key}")

    check_numbers(bench, doc, errors)
    check_metrics(doc, errors)

    # Semantic floors: equivalence must hold and throughputs must be real
    # measurements, not zero-division fallbacks.
    for key in ("query_equivalence_mismatches", "equivalence_mismatches"):
        if doc.get(key, 0) != 0:
            errors.append(f"{key} = {doc[key]} (expected 0)")
    if bench == "query_serving":
        for key in ("cold_qps", "warm_qps", "cold_bracketed_qps"):
            if not doc.get(key, 0) > 0:
                errors.append(f"{key} = {doc.get(key)} (expected > 0)")
        # The v3 partial-decode gate, re-checked on the recorded baseline:
        # the bracketed path must have engaged the seek tables and consumed
        # strictly less compressed stream than the full cold decodes.
        if not doc.get("sync_seeks", 0) > 0:
            errors.append(f"sync_seeks = {doc.get('sync_seeks')}"
                          " (expected > 0)")
        partial = doc.get("decode_bytes_partial", 0)
        full = doc.get("decode_bytes_full_cold", 0)
        if not 0 < partial < full:
            errors.append(f"decode_bytes_partial = {partial} (expected in"
                          f" (0, decode_bytes_full_cold = {full}))")
    if bench == "shard_scaling":
        for i, run in enumerate(doc.get("runs", [])):
            if not run.get("seconds", 0) > 0:
                errors.append(f"runs[{i}].seconds = {run.get('seconds')}"
                              " (expected > 0)")
    if bench == "ingest":
        if not doc.get("points_per_sec", 0) > 0:
            errors.append(f"points_per_sec = {doc.get('points_per_sec')}"
                          " (expected > 0)")
        if not doc.get("seal_p99_ms", 0) >= doc.get("seal_p50_ms", 0):
            errors.append("seal_p99_ms < seal_p50_ms")
        for i, run in enumerate(doc.get("query_runs", [])):
            if not run.get("qps", 0) > 0:
                errors.append(f"query_runs[{i}].qps = {run.get('qps')}"
                              " (expected > 0)")
    if bench == "serve_net":
        for key in ("closed_loop_qps", "pipelined_qps"):
            if not doc.get(key, 0) > 0:
                errors.append(f"{key} = {doc.get(key)} (expected > 0)")
        # Latency percentiles must be ordered within every open-loop run,
        # and an open-loop run never achieves more than it was offered
        # (small timer slack allowed).
        for i, run in enumerate(doc.get("open_loop_runs", [])):
            p50 = run.get("p50_us", 0)
            p99 = run.get("p99_us", 0)
            p999 = run.get("p999_us", 0)
            if not (p50 <= p99 <= p999):
                errors.append(f"open_loop_runs[{i}]: percentiles not"
                              f" ordered ({p50}, {p99}, {p999})")
            if run.get("achieved_qps", 0) > 1.10 * run.get("offered_qps", 0):
                errors.append(f"open_loop_runs[{i}]: achieved_qps exceeds"
                              " offered_qps by more than 10%")
        for i, run in enumerate(doc.get("connection_runs", [])):
            if not run.get("total_qps", 0) > 0:
                errors.append(f"connection_runs[{i}].total_qps ="
                              f" {run.get('total_qps')} (expected > 0)")
    return errors


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for filename in sys.argv[1:]:
        errors = validate(filename)
        if errors:
            failed = True
            print(f"FAIL {filename}")
            for error in errors:
                print(f"  {error}")
        else:
            print(f"OK   {filename}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
