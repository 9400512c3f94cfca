#!/usr/bin/env python3
"""xorec end-to-end and per-layer benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload object_encode --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1          # every workload, one table
  python3 perfbench/run.py --check-counts --seed 1          # slp/ec counts repeat exactly

The first run builds the library and xorec_perfbench (CMake) into
$CARGO_TARGET_DIR, else .bench_build. Each workload runs in fresh
processes: set-up is measured in SETUP_RUNS extra processes that exit after
set-up, and setup_s / setup_rss_MB are the medians over those and the
measuring process. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["object_encode", "object_degraded_read", "wire_packet"]
SETUP_RUNS = 4        # extra fresh processes that only set up
DEADLINE_S = 170      # a run must end within 180 s of its build
# Exact static counts that must repeat across two runs of one seed.
REPEATABLE = ["slp.encode_xor_ops", "slp.encode_mem_accesses", "slp.decode_xor_ops_mean",
              "slp.decode_mem_accesses_mean", "slp.ccap_max", "ec.plan_misses_setup"]


class BenchError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build xorec_perfbench; returns the binary's path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", build_dir, "--target", "xorec_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "xorec_perfbench")


def invoke(binary, args, timeout):
    """Run xorec_perfbench once; returns its JSON report."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(timeout, 1))
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode == 3:
        raise BenchError("refused to report (backend override set)", 3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"xorec_perfbench {' '.join(args)} exited {proc.returncode}")
    report = json.loads(lines[-1])
    if proc.returncode == 1:
        report["correct"] = False
    return report


def run_workload(binary, build_dir, workload, seed, seconds, trace, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS):
            r = invoke(binary, common + ["--setup-only"], deadline - time.monotonic())
            setups.append((r["setup_s"], r["setup_rss_MB"]))
    args = common + ["--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out", os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    report = invoke(binary, args, deadline - time.monotonic())
    if not trace:
        setups.append((report["setup_s"], report["setup_rss_MB"]))
        e2e = report["e2e"]
        e2e["setup_s"]["value"] = statistics.median(s for s, _ in setups)
        e2e["setup_rss_MB"]["value"] = statistics.median(m for _, m in setups)
        report["setup_samples"] = len(setups)
    return report


def declared_metrics(trace):
    """(name, unit) pairs the run must report, from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def describe(report, trace):
    h = report["host"]
    lines = [f"# {report['workload']} seed={report['seed']} trace={int(trace)}: "
             f"nproc={h['nproc']} L2={h['l2_bytes']}B L3={h['l3_bytes']}B "
             f"{h['compiler']} {h['build_type']}; pool {report['pool_exec']}; "
             f"reference {report['reference']}"]
    n = report["latency_samples"]
    if trace:
        for name, m in report["layer"].items():
            mark = "  (off path)" if name in report["off_path"] else ""
            lines.append(f"#   {name:32s} {m['value']:14.6g} {m['unit']}{mark}")
        for name, s in report.get("spans", {}).items():
            lines.append(f"#   span {name:27s} n={s['count']:<7d} dur_p50={s['dur_us_p50']:.4g}us "
                         f"self_p50={s['self_us_p50']:.4g}us")
    else:
        chunks = f"median of {report['tail_chunks']} chunks" if report["tail_chunks"] else "whole window"
        notes = {"latency_p50_ms": f"n={n}",
                 "latency_p90_ms": f"{chunks}, n={n}",
                 "latency_p99_ms": f"p{100 * report['tail_quantile']:.4g}, {chunks}, n={n}",
                 "setup_s": f"median of {report['setup_samples']} set-ups",
                 "setup_rss_MB": f"median of {report['setup_samples']} set-ups",
                 "fail_ratio": f"{report['failed']}/{report['attempted']}"}
        for name, m in report["e2e"].items():
            lines.append(f"#   {name:16s} {m['value']:12.6g} {m['unit']:5s} {notes.get(name, '')}")
    return "\n".join(lines)


def select(report, declared, trace):
    source = report["layer" if trace else "e2e"]
    missing = [name for name, _ in declared if name not in source]
    if missing:
        raise BenchError("xorec_perfbench did not report: " + ", ".join(missing))
    return {name: {"value": source[name]["value"], "unit": unit} for name, unit in declared}


def check_counts(binary, build_dir, workloads, seed, deadline):
    ok = True
    for w in workloads:
        reports = [run_workload(binary, build_dir, w, seed, 1, True, deadline) for _ in range(2)]
        ok &= all(r["correct"] for r in reports)
        runs = [r["layer"] for r in reports]
        for name in REPEATABLE:
            a, b = runs[0][name]["value"], runs[1][name]["value"]
            same = a == b
            ok &= same
            print(f"# {w:22s} {name:30s} {a!r:>10} {b!r:>10} {'same' if same else 'DIFFERENT'}")
    print(json.dumps({"counts_repeat": ok}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check-counts", action="store_true",
                    help="check that slp.* and ec.plan_misses_setup repeat across two runs")
    args = ap.parse_args()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        binary = build(build_dir)
        # Counted from here: a first run's build has its own, longer allowance.
        deadline = time.monotonic() + DEADLINE_S
        if args.check_counts:
            return check_counts(binary, build_dir, workloads, args.seed, deadline)
        trace = bool(args.trace)
        declared = declared_metrics(trace)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for w in workloads:
            report = run_workload(binary, build_dir, w, args.seed, args.seconds, trace, deadline)
            print(describe(report, trace), flush=True)
            correct &= bool(report["correct"])
            attempted += report["attempted"]
            failed += report["failed"]
            picked = select(report, declared, trace)
            if len(workloads) > 1:
                picked = {f"{w}.{k}": v for k, v in picked.items()}
            metrics.update(picked)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return getattr(e, "code", 2)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
