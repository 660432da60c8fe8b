#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --spread NAME [--seconds S]

Run from the root of a checkout. The first call configures and builds
the compiler sources (src/) and the two benchmark binaries into
.bench_build/perfbench; later calls rebuild incrementally. The binary's
stdout is passed through, so its last line is the JSON result; build
output goes to stderr. Traced runs write a Chrome trace and a per-layer
table to .bench_build/results. README.md describes the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ["compile_cold", "explore_sweep", "serve_warm"]
RUN_TIMEOUT_S = 170
# The spread report runs a workload on seeds 1..SPREAD_RUNS.
SPREAD_RUNS = 10


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no compiler sources at src/ (run from a full checkout)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def commit_id():
    """The git commit, or a digest of the sources outside a repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own repository, not an enclosing one.
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-" + digest.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, capture=False):
    """Run one workload; returns (exit code, stdout or None)."""
    exe = os.path.join(BUILD_DIR,
                       "perfbench_traced" if trace else "perfbench")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", RESULTS_DIR, "--commit", commit_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def prefixed(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def selfcheck():
    """Check the harness itself; exit 0 only when every check holds."""
    problems = []
    corrupt = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench"), "--selfcheck-corruption"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    print(corrupt.stdout, end="")
    if corrupt.returncode != 0:
        problems.append("corrupted results were not all rejected")

    spec = declared()
    names = {False: [m["name"] for m in spec["end_to_end"]],
             True: [m["name"] for m in spec["per_layer"]]}
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json names other workloads than run.py")
    for workload in WORKLOADS:
        runs = []
        for seed, trace in ((7, False), (7, False), (8, False), (7, True)):
            code, out = run_binary(workload, seed, 1, trace, capture=True)
            if code != 0:
                problems.append(f"{workload} seed {seed} exited {code}:\n"
                                f"{out}")
                continue
            metrics = result_of(out).get("metrics", {})
            if list(metrics) != names[trace]:
                problems.append(f"{workload} trace={int(trace)} reports "
                                f"{list(metrics)}, BENCHMARK.json names "
                                f"{names[trace]}")
            if trace:
                attributed = metrics["trace.attributed_frac"]["value"]
                overhead = metrics["trace.overhead_frac"]["value"]
                print(f"selfcheck: {workload}: the traced run attributes "
                      f"{100 * attributed:.1f}% of its wall time to layers, "
                      f"tracing overhead {100 * overhead:+.1f}%")
                if attributed < 0.9:
                    problems.append(f"{workload}: the traced run attributes "
                                    "under 90% of its wall time")
            else:
                runs.append(json.loads(prefixed(out, "deterministic: ")
                                       or "{}"))
        same = len(runs) == 3 and runs[0] == runs[1] and bool(runs[0])
        print(f"selfcheck: {workload}: one seed, identical counts, quality "
              f"and digests: {'ok' if same else 'FAILED'}")
        if not same:
            problems.append(f"{workload}: deterministic values differ for "
                            f"one seed: {runs}")
            continue
        key = "order" if workload == "compile_cold" else "sequence"
        if key in runs[0]:
            moved = runs[0][key] != runs[2][key]
            rest = ({k: v for k, v in runs[0].items() if k != key} ==
                    {k: v for k, v in runs[2].items() if k != key})
            print(f"selfcheck: {workload}: another seed, another {key}, "
                  f"same results: {'ok' if moved and rest else 'FAILED'}")
            if not (moved and rest):
                problems.append(f"{workload}: seeds 7 and 8 give the same "
                                f"{key} or different results")
    for p in problems:
        print(f"selfcheck failed: {p}")
    print(f"selfcheck: {'ok' if not problems else 'FAILED'}")
    return 0 if not problems else 1


def spread(workload, seconds):
    """Run a workload on SPREAD_RUNS seeds and print each end-to-end
    metric's median and quartile distance over its median, against its
    bound, and each run's wall-clock turnaround and host speed."""
    spec = declared()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(1, SPREAD_RUNS + 1):
        code, out = run_binary(workload, seed, seconds, False, capture=True)
        result = result_of(out) if code == 0 else {}
        if not result.get("correct"):
            print(out)
            fail(f"{workload} seed {seed} failed (exit {code})")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        printed = " ".join(
            f"{name}={(prefixed(out, name + ' ') or '?').split()[0]}"
            for name in ("turnaround_p50_wall_ms", "host_speed_ref_ms"))
        print(f"spread: {workload} seed {seed}: " +
              " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()) +
              f" {printed}", flush=True)
    print(f"{'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    worst = 0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        if share == 0:
            verdict = "exact"
        elif share <= m["bound"] / 3:
            verdict = "steady (under a third of its bound)"
        else:
            verdict = "NOT steady (over a third of its bound)"
            worst = 1
        print(f"{m['name']:<24} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{100 * share:>7.2f}% {m['bound']:>6}  {verdict}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the harness instead of measuring")
    parser.add_argument("--spread", choices=WORKLOADS,
                        help="report run-to-run spread of a workload")
    args = parser.parse_args()
    measuring = not args.selfcheck and args.spread is None
    if measuring and None in (args.workload, args.seed, args.seconds,
                              args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    build()
    if args.selfcheck:
        return selfcheck()
    if args.spread is not None:
        seconds = args.seconds or declared()["run_seconds"]
        return spread(args.spread, seconds)
    return run_binary(args.workload, args.seed, args.seconds,
                      bool(args.trace))[0]


if __name__ == "__main__":
    sys.exit(main())
