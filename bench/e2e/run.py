#!/usr/bin/env python3
"""End-to-end benchmark of utcq: builds utcq_bench and runs its workloads.

Run from anywhere; utcq_bench is built into bench/e2e/build/ from the
library sources two directories up. Each workload runs in its own process.

  python3 bench/e2e/run.py                     every workload, seed 1
  python3 bench/e2e/run.py --seed 2 --trace 1  traced: per-layer metrics,
                                               build/trace/<workload>/
                                               trace.json and layers.json
  python3 bench/e2e/run.py --workload serve_point --seed 3 --seconds 10 --trace 0
  python3 bench/e2e/run.py --smoke             every workload for 1 s at
                                               reduced scale, output checked
                                               against BENCHMARK.json
  python3 bench/e2e/run.py --seeds 1-5         every workload on each seed,
                                               then median and quartiles

Every metric prints as `workload name value unit (n=samples)`. With
--workload the last line is one JSON object {"correct", "attempted",
"failed", "metrics"} holding BENCHMARK.json's end_to_end metrics (--trace 0)
or its per_layer metrics (--trace 1). The exit status is non-zero when an
answer gate fails or the output does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "utcq_bench")
WORKLOADS = ["build", "serve_point", "serve_range"]
# Time budget of one --workload invocation once utcq_bench is built: a run
# must end within 180 s.
RUN_BUDGET_S = 170.0


def die(message):
    """Exits without printing a result line."""
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def build_bench():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"library sources not found in {ROOT} (need CMakeLists.txt and src/)")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "utcq_bench",
                  "-j", str(os.cpu_count() or 1)])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                die(f"build failed: {' '.join(step)}\n{tail}")


def trace_dir(workload):
    return os.path.join(BUILD, "trace", workload)


def run_bench(workload, seed, seconds, smoke, deadline, reference=None):
    """One utcq_bench process; returns its JSON record (or None) and stderr."""
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds!r}",
           f"--work-dir={os.path.join(BUILD, 'work', workload)}"]
    if smoke:
        cmd.append("--smoke")
    if reference is not None:
        cmd += ["--trace", f"--trace-dir={trace_dir(workload)}",
                f"--ref-mean-us={reference['op_mean_us']!r}",
                f"--ref-ops-per-s={reference['ops_per_s']!r}"]
    timeout = None
    if math.isfinite(deadline):
        timeout = max(1.0, deadline - time.monotonic())
    try:
        # run() kills and reaps utcq_bench if it overruns.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{workload}: utcq_bench timed out"
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"{workload}: utcq_bench exited {proc.returncode} without a " \
                     f"result\n{proc.stderr[-2000:]}"
    record["exit"] = proc.returncode
    return record, proc.stderr


def run_workload(workload, seed, seconds, smoke, trace, deadline):
    """Untraced: one utcq_bench run. Traced: an untraced reference run
    first, so the traced run can report its overhead and close its
    blocking path against the untraced mean."""
    if not trace:
        return run_bench(workload, seed, seconds, smoke, deadline)
    ref, err = run_bench(workload, seed, seconds, smoke, deadline)
    if ref is None:
        return None, err
    if ref["exit"] != 0:
        return ref, err
    return run_bench(workload, seed, seconds, smoke, deadline,
                     reference=ref["reference"])


def is_p99(name):
    return ".p99" in name or "_p99" in name


# op_p99_us is never left out: when too few operations complete for a p99
# it reports their maximum, an upper bound (harness.h, AddHeadline).
BOUNDED_P99 = {"op_p99_us"}


def check(record, spec, trace, smoke):
    """Problems of a record against BENCHMARK.json, and the metrics the
    result line carries (declared per-layer metrics the workload does not
    run are reported as 0)."""
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = []
    for name, m in record["metrics"].items():
        value = m["value"]
        if name not in declared:
            problems.append(f"{name}: not declared in BENCHMARK.json")
        elif m["unit"] != declared[name]:
            problems.append(f"{name}: unit {m['unit']} but BENCHMARK.json says "
                            f"{declared[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value} is not a finite number")
        if is_p99(name) and name not in BOUNDED_P99 and m["samples"] < 1000:
            problems.append(f"{name}: p99 from {m['samples']} < 1000 samples")
    out = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is not None:
            out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        elif trace:
            out[m["name"]] = {"value": 0, "unit": m["unit"], "off_path": True}
        elif not (smoke and is_p99(m["name"])):
            problems.append(f"{m['name']}: missing")
    return problems, out


def report(workload, record, problems, metrics):
    fp = " ".join(f"{k}={v:g}" for k, v in record["fingerprint"].items())
    print(f"{workload} fingerprint {fp}")
    for name, m in metrics.items():
        if m.get("off_path"):
            print(f"{workload} {name} 0 {m['unit']} (not on this workload's path)")
            continue
        samples = record["metrics"][name]["samples"]
        suffix = f" (n={samples})" if samples else ""
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}{suffix}")
    print(f"{workload} attempted {record['attempted']} failed {record['failed']}")
    for why in record["failures"]:
        print(f"{workload} GATE FAILED: {why}")
    for why in problems:
        print(f"{workload} OUTPUT PROBLEM: {why}")


def one(workload, seed, seconds, smoke, trace, spec, deadline):
    """Runs and reports one workload; returns (ok, result line or None)."""
    record, err = run_workload(workload, seed, seconds, smoke, trace, deadline)
    if record is None:
        print(err, file=sys.stderr)
        return False, None
    problems, metrics = check(record, spec, trace, smoke)
    report(workload, record, problems, metrics)
    ok = record["correct"] and record["exit"] == 0 and not problems
    if not ok and err:
        print(err[-2000:], file=sys.stderr)
    line = {"correct": ok, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in metrics.items()}}
    return ok, line


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def seed_sweep(workloads, seeds, seconds, spec):
    """Each seed runs every workload (interleaved, so drift hits all alike);
    prints median, quartiles and quartile spread per metric."""
    values = {w: {} for w in workloads}
    ok = True
    for seed in seeds:
        for w in workloads:
            record, err = run_workload(w, seed, seconds, False, False, math.inf)
            if record is None or not record["correct"] or record["exit"] != 0:
                print(err, file=sys.stderr)
                ok = False
                continue
            for m in spec["end_to_end"]:
                got = record["metrics"].get(m["name"])
                if got is not None:
                    values[w].setdefault(m["name"], []).append(got["value"])
    print("workload metric unit median q1 q3 spread runs")
    for w in workloads:
        for m in spec["end_to_end"]:
            v = values[w].get(m["name"], [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"{w} {m['name']} {m['unit']} {med:.6g} {q1:.6g} {q3:.6g} "
                  f"{(q3 - q1) / med:.4f} {len(v)}")
    with open(os.path.join(BUILD, "seeds.json"), "w") as f:
        json.dump({"seeds": seeds, "values": values}, f, indent=1)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seeds", type=parse_seeds)
    args = parser.parse_args()

    spec = load_spec()
    build_bench()
    workloads = [args.workload] if args.workload else WORKLOADS
    seconds = args.seconds or float(spec["run_seconds"])

    if args.seeds:
        sys.exit(0 if seed_sweep(workloads, args.seeds, seconds, spec) else 1)
    if args.smoke:
        ok = True
        for w in workloads:
            for trace in (False, True):
                good, _ = one(w, args.seed, 1.0, True, trace, spec, math.inf)
                ok = ok and good
        print("smoke: ok" if ok else "smoke: FAILED")
        sys.exit(0 if ok else 1)
    if args.workload:
        deadline = time.monotonic() + RUN_BUDGET_S
        ok, line = one(args.workload, args.seed, seconds, False,
                       bool(args.trace), spec, deadline)
        if line is None:
            sys.exit(1)
        print(json.dumps(line))
        sys.exit(0 if ok else 1)
    ok = True
    for w in workloads:
        good, _ = one(w, args.seed, seconds, False, bool(args.trace), spec,
                      math.inf)
        ok = ok and good
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
