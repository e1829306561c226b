#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs it.

One run of one workload (what BENCHMARK.json's "command" runs):

    python3 perfbench/run.py --workload build --seed 1 --seconds 40 --trace 0

prints the binary's report and, as its last line, one JSON object with
"correct", "attempted", "failed" and "metrics" (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1).

Other modes:

    --workload all      every workload, untraced then traced; prints each
                        end-to-end metric under its path-specific name with
                        its unit and sample count, and writes report.json
                        (per-layer metrics from the traced runs) to the
                        build directory.
    --self-check        --workload all at a tiny scale for one second each;
                        fails on a missing metric or a nonzero error rate.
    --repeat N          N untraced runs per workload on seeds seed..seed+N-1;
                        prints each end-to-end metric's median and its
                        quartile spread against the bound in BENCHMARK.json.

The first run configures and compiles into $CARGO_TARGET_DIR (default
.bench_build at the repository root); later runs only check the build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["build", "write-mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def ensure_built():
    """Configures (once) and builds the perfbench binary; returns its path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(bdir, "perfbench")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, scale=None):
    """Runs one workload; returns (stdout lines, result, report) or exits."""
    bdir = build_dir()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", bdir]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    if trace:
        cmd += ["--trace-out", os.path.join(bdir, f"trace-{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
    return lines, json.loads(lines[-1]), json.loads(lines[-2])


def check_metrics(result, trace, spec):
    """Problems with a result against BENCHMARK.json (empty when fine)."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    problems = []
    got = result.get("metrics", {})
    for m in wanted:
        if m["name"] not in got:
            problems.append(f"missing metric {m['name']}")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{m['name']} has unit {got[m['name']]['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    problems += [f"unexpected metric {name}" for name in sorted(extra)]
    return problems


def run_one(args):
    binary = ensure_built()
    lines, result, _ = run_binary(binary, args.workload, args.seed,
                                  args.seconds, args.trace, args.scale)
    problems = check_metrics(result, args.trace, manifest())
    if problems:
        print("\n".join(lines[:-1]))
        sys.exit("perfbench: " + "; ".join(problems))
    print("\n".join(lines))


def run_all(args, scale, seconds):
    """Every workload untraced and traced; returns the list of problems."""
    binary = ensure_built()
    spec = manifest()
    problems = []
    report = {}
    for workload in WORKLOADS:
        entry = report.setdefault(workload, {})
        for trace in (0, 1):
            lines, result, extra = run_binary(binary, workload, args.seed,
                                              seconds, trace, scale)
            print("\n".join(lines[:-2]))
            found = check_metrics(result, trace, spec)
            named = extra["named"]
            if named.get("error_rate", {}).get("value", 1) != 0:
                found.append("nonzero error_rate")
            if not result["correct"] or result["failed"]:
                found.append(f"{result['failed']} failed operations")
            problems += [f"{workload} trace {trace}: {p}" for p in found]
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                entry["named"] = named
                entry["envelope"] = extra["envelope"]
    path = os.path.join(build_dir(), "report.json")
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "scale": scale, "seconds": seconds,
                   "workloads": report}, f, indent=1)
    log(f"perfbench: report written to {path}")
    return problems


def run_repeat(args):
    binary = ensure_built()
    spec = manifest()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.seed, args.seed + args.repeat):
            _, result, _ = run_binary(binary, workload, seed, args.seconds,
                                      0, args.scale)
            ok = ok and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.repeat} seeds from {args.seed}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            if name == "setup_s":
                flag = ""
            print(f"  {name:22s} median {med:14.4f}  spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}{flag}")
            log(f"  {name}: " + " ".join(f"{v:.6g}" for v in vals))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--repeat", type=int, default=0)
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = manifest()["run_seconds"]

    if args.self_check:
        problems = run_all(args, scale=0.1, seconds=1)
        for problem in problems:
            log(f"self-check: {problem}")
        log("self-check: " + ("FAILED" if problems else "ok"))
        sys.exit(1 if problems else 0)
    if args.repeat:
        sys.exit(0 if run_repeat(args) else 1)
    if args.workload == "all":
        problems = run_all(args, args.scale, args.seconds)
        for problem in problems:
            log(f"perfbench: {problem}")
        sys.exit(1 if problems else 0)
    run_one(args)


if __name__ == "__main__":
    main()
