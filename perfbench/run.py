#!/usr/bin/env python3
"""End-to-end benchmark of psj: builds psj_bench from source, runs its
workloads, and compares result sets against the bounds in BENCHMARK.json.

One run (the last line of stdout is the JSON result):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the result carries every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric. The traced run also
writes its spans, in Chrome's format, to
.bench_build/perfbench/traces/WORKLOAD.json.

A smoke test: every workload, traced, on 2% maps for 0.3 s, checking that
every metric of BENCHMARK.json is emitted and every output is correct (the
perfbench build registers it as the ctest bench_smoke, label bench):

    python3 perfbench/run.py smoke [--exe PATH_TO_PSJ_BENCH]

A result set: N sets of every workload, set i on seed i, each run untraced
and then traced for BENCHMARK.json's run_seconds, with the host recorded:

    python3 perfbench/run.py sets --sets N --out FILE

Two result sets, one row per end-to-end metric and workload:

    python3 perfbench/run.py compare A.json B.json

Run from the root of a checkout; everything is built and written under
.bench_build/ there.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC_FILE = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_FILE) as f:
        return json.load(f)


def build():
    """Configures (once) and builds psj_bench; returns its path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = (BUILD / "CMakeCache.txt").exists() and (
            (BUILD / "build.ninja").exists() or (BUILD / "Makefile").exists())
        steps = []
        if not configured:
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", str(BUILD), "--target", "psj_bench",
                      "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                raise BenchError("build step failed: " + " ".join(step))
    return BUILD / "psj_bench"


def run_psj_bench(exe, workload, seed, seconds, trace, extra=()):
    """One psj_bench process; returns its full result document."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    out = BUILD / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--out={out}", *extra]
    if trace:
        # Only the latest traced run of each workload is kept: one serving
        # trace runs to tens of MB.
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={traces / (workload + '.json')}")
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        raise BenchError(f"psj_bench timed out after {RUN_TIMEOUT_S} s")
    if code != 0:
        raise BenchError(f"psj_bench exited with code {code}")
    with open(out) as f:
        result = json.load(f)
    out.unlink()
    return result


def declared_metrics(wanted, emitted):
    """The BENCHMARK.json metrics `wanted` from one section of a psj_bench
    result; every one must be emitted, finite and in the declared unit."""
    metrics = {}
    for metric in wanted:
        got = emitted.get(metric["name"])
        if got is None:
            raise BenchError(f"metric {metric['name']} was not emitted")
        value = got["value"]
        if got["unit"] != metric["unit"]:
            raise BenchError(f"metric {metric['name']} has unit {got['unit']}, "
                             f"BENCHMARK.json says {metric['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {metric['name']} is {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    exe = build()
    trace = args.trace == 1
    result = run_psj_bench(exe, args.workload, args.seed, args.seconds, trace)
    for error in result["errors"]:
        log("FAILED:", error)
    section = "per_layer" if trace else "end_to_end"
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": declared_metrics(spec[section], result[section])}))


def cmd_smoke(args):
    spec = load_spec()
    exe = Path(args.exe) if args.exe else build()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        result = run_psj_bench(exe, workload, 1, 0.3, True, ["--scale=0.02"])
        problems += [f"{workload}: {error}" for error in result["errors"]]
        for section in ("end_to_end", "per_layer"):
            try:
                declared_metrics(spec[section], result[section])
            except BenchError as error:
                problems.append(f"{workload}: {error}")
    for problem in problems:
        log("bench_smoke:", problem)
    print("bench_smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def commit_id():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cmd_sets(args):
    spec = load_spec()
    exe = build()
    seconds = spec["run_seconds"]
    doc = {"schema": "psj-perfbench-1", "seconds": seconds, "host": None,
           "sets": []}
    for seed in range(1, args.sets + 1):
        runs = {}
        for workload in (w["name"] for w in spec["workloads"]):
            log(f"set {seed}/{args.sets}: {workload} seed {seed}")
            plain = run_psj_bench(exe, workload, seed, seconds, False)
            traced = run_psj_bench(exe, workload, seed, seconds, True)
            doc["host"] = doc["host"] or dict(
                plain["host"], commit=commit_id(), machine=platform.machine(),
                kernel=platform.release())
            p50 = "latency_p50_ms"
            runs[workload] = {
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "errors": plain["errors"] + traced["errors"],
                "end_to_end": {k: v["value"]
                               for k, v in plain["end_to_end"].items()},
                "per_layer": {k: v["value"]
                              for k, v in traced["per_layer"].items()},
                "trace_overhead_pct": 100.0 * (
                    traced["end_to_end"][p50]["value"] /
                    plain["end_to_end"][p50]["value"] - 1.0),
            }
        doc["sets"].append({"seed": seed, "runs": runs})
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    failed = sum(r["failed"] for s in doc["sets"] for r in s["runs"].values())
    log(f"wrote {args.out}; failed operations: {failed}")
    return 0 if failed == 0 else 1


def spread(values):
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def cmd_compare(args):
    spec = load_spec()
    docs = []
    for path in (args.a, args.b):
        with open(path) as f:
            docs.append(json.load(f))
    print(f"A = {args.a} (commit {docs[0]['host']['commit'][:12]}, "
          f"{len(docs[0]['sets'])} sets)")
    print(f"B = {args.b} (commit {docs[1]['host']['commit'][:12]}, "
          f"{len(docs[1]['sets'])} sets)")
    print(f"{'workload':<15} {'metric':<16} {'median A':>11} {'median B':>11} "
          f"{'worse':>8} {'spread':>7} {'bound':>6}  verdict")
    counts = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = ([s["runs"][workload]["end_to_end"][name]
                     for s in doc["sets"]] for doc in docs)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (statistics.median(b) / statistics.median(a) - 1.0)
            noise = max(spread(a), spread(b))
            b_wins = all(sign * (y - x) < 0 for x in a for y in b)
            if noise > metric["bound"] and not b_wins:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "unchanged"
            counts[verdict] = counts.get(verdict, 0) + 1
            print(f"{workload:<15} {name:<16} {statistics.median(a):>11.5g} "
                  f"{statistics.median(b):>11.5g} {100 * worse:>+7.1f}% "
                  f"{100 * noise:>6.1f}% {100 * metric['bound']:>5.0f}%  "
                  f"{verdict}")
    failed = [sum(r["failed"] for s in d["sets"] for r in s["runs"].values())
              for d in docs]
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(
        counts.items())) + f"; failed operations: A {failed[0]}, "
          f"B {failed[1]}")
    return 0 if counts.get("regressed", 0) == 0 and not any(failed) else 1


def main(argv):
    if argv and argv[0] in ("sets", "compare", "smoke"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "smoke":
            parser.add_argument("--exe")
            return cmd_smoke(parser.parse_args(argv[1:]))
        if argv[0] == "sets":
            parser.add_argument("--sets", type=int, required=True)
            parser.add_argument("--out", required=True)
            return cmd_sets(parser.parse_args(argv[1:]))
        parser.add_argument("a")
        parser.add_argument("b")
        return cmd_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")
    return cmd_run(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, KeyError, ValueError) as error:
        log("run.py:", error)
        sys.exit(1)
