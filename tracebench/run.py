#!/usr/bin/env python3
"""Repository benchmark: traces diagnosed per second by eval::run_one.

Run from the repository root:

  python3 tracebench/run.py --workload paper-k4 --seed 1 --seconds 30 --trace 0
  python3 tracebench/run.py --self-test

The script builds tracebench/ (which builds the repository's libraries)
into .bench_build/, derives the workload's seed list from --seed, and runs
the tracebench binary as a closed loop with a single caller. --trace 0
prints the end-to-end metrics; --trace 1 replays every run's stages and
prints the per-layer metrics. The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the
line before it stamps the environment. Exit code 0 only when every output
check passed. Workloads, metrics and the checks are described in
tracebench/README.md.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "tracebench"
BINARY = BUILD_DIR / "tracebench"
GOLDEN_DIR = ROOT / "tests" / "golden"

# Workload -> golden fixture of its fabric size.
WORKLOADS = {"paper-k4": "run_results.txt", "faults-k4": "run_results.txt",
             "scale-k8": "run_results_k8.txt"}
# scale-k8's device shards. It runs them on one CPU like every workload, so
# it measures the sharded simulator's own work (calendars, barrier merge,
# mailbox flush), not a parallel speed-up.
SHARDS = 2
# Set-up is timed in this many fresh processes (the measuring one included).
SETUP_SAMPLES = 7
# A run must end well inside 180 s after the build; the binary is killed
# past this.
DEADLINE_S = 170.0


def fail(msg, code=2):
    print(f"tracebench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


# scale-k8 runs microburst seeds 1, 3 and 7 (the cells of the k=8 golden
# fixture) plus one drawn from the seeds whose k=8 verdict is correct and
# whose event counts lie within 5 % of each other (6.56-7.18 M) at the
# commit that defined the benchmark, so that --seed moves runs_per_s little.
K8_SEEDS = (2, 5, 6, 9, 13, 16)


def workload_inputs(workload, seed):
    """(scenario seeds, faults-k4 polling-loss seed) for one --seed.

    Most of each workload is fixed, so the spread across --seed stays far
    below the metric bounds; --seed adds one paper-k4 seed, the polling-loss
    stream of faults-k4, and one scale-k8 seed. paper-k4 and scale-k8
    include 1, 3 and 7, so every golden cell is checked. A pass takes about
    10 s on a 4-CPU host.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "paper-k4":
        return list(range(1, 7)) + [rng.randrange(7, 100000)], 1
    if workload == "faults-k4":
        return [1], rng.randrange(1, 100000)
    return [1, 3, 7, rng.choice(K8_SEEDS)], 1


def git_commit():
    """HEAD's commit, read from .git without running git ("unknown" when
    the checkout is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Configure (once, as RelWithDebInfo) and build the binary; the build
    log goes to stderr only when the build fails."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "tracebench",
                  "-j", str(min(4, nproc()))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build failed: {' '.join(cmd)}")


def run_binary(args, deadline):
    """Run the tracebench binary; return (seconds until it printed "ready", its last
    stdout line parsed as JSON or None, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    ready_s, last = None, None
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "ready":
                ready_s = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    try:
        result = json.loads(last) if last else None
    except json.JSONDecodeError:
        result = None
    return ready_s, result, code


def bench(opts):
    if opts.workload not in WORKLOADS:
        fail(f"unknown workload {opts.workload!r}; one of {', '.join(WORKLOADS)}")
    golden = GOLDEN_DIR / WORKLOADS[opts.workload]
    if not golden.is_file():
        fail(f"missing golden fixture {golden.relative_to(ROOT)}")
    load_start = os.getloadavg()
    host_cpus = nproc()
    build()
    deadline = time.monotonic() + DEADLINE_S
    # Everything measured runs on one CPU. On a shared host the wall time of
    # a run whose threads meet at barriers swings with the time stolen from
    # any of their CPUs (scale-k8 at 2 shards across 4 CPUs: 0.31-0.48 runs/s
    # over four repeats; on one CPU: 0.34-0.37).
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    seeds, fault_seed = workload_inputs(opts.workload, opts.seed)
    if opts.seeds:
        seeds = [int(s) for s in opts.seeds.split(",")]
    base = ["--workload", opts.workload, "--seeds", ",".join(map(str, seeds)),
            "--fault-seed", str(fault_seed), "--golden", str(golden),
            "--shards", str(SHARDS)]
    setup = []
    if not opts.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready_s, _, code = run_binary(["--mode", "setup"] + base, deadline)
            if code != 0 or ready_s is None:
                fail("set-up run failed")
            setup.append(ready_s)
    mode = ["--mode", "trace" if opts.trace else "measure",
            "--seconds", str(opts.seconds)]
    if opts.perturb:
        mode += ["--perturb", opts.perturb]
    ready_s, res, code = run_binary(mode + base, deadline)
    if res is None or "metrics" not in res:
        fail(f"tracebench exited with {code} and no result")
    if ready_s is not None:
        setup.append(ready_s)
    if res["build_type"] != "RelWithDebInfo" and not opts.allow_build_type:
        fail(f"refusing a {res['build_type']} build (pass --allow-build-type)")

    metrics = res["metrics"]
    if not opts.trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   **metrics}
    env = {
        "workload": opts.workload, "seed": opts.seed, "seeds": seeds,
        "fault_seed": fault_seed,
        "trace": opts.trace, "seconds": opts.seconds, "nproc": host_cpus,
        "cpu": cpu,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "build_type": res["build_type"], "compiler": res["compiler"],
        "git_commit": git_commit(), "configs": res["configs"],
        "passes": res["passes"], "golden_checked": res["golden_checked"],
        "repeats_checked": res["repeats_checked"], "setup_samples_s": setup,
        "failures": res["failures"],
    }
    print(json.dumps({"env": env}))
    correct = code == 0 and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def self_test():
    """Shortest benchmark on every workload, traced and untraced: the result
    parses, names every metric of BENCHMARK.json with its unit, and passes
    the output checks. Then each of the golden, repeat and lossless checks
    must fail when its expected value is perturbed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def invoke(workload, trace, seeds, perturb=None):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", "1", "--seconds", "0", "--trace",
               str(trace), "--seeds", seeds]
        if perturb:
            cmd += ["--perturb", perturb]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        try:
            return proc.returncode, json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return proc.returncode, None

    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            code, res = invoke(workload, trace, "1")
            if res is None:
                problems.append(f"{tag}: last line is not JSON")
                continue
            if code != 0 or not res["correct"] or res["failed"]:
                problems.append(f"{tag}: output checks failed")
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            for name, unit in want[trace].items():
                if got.get(name) != unit:
                    problems.append(f"{tag}: metric {name} [{unit}] missing")
            print(f"self-test {tag}: attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr)
    for check in ("golden", "repeat", "lossless"):
        code, res = invoke("paper-k4", 0, "1", perturb=check)
        if res is None or code == 0 or res["correct"] or res["failed"] == 0:
            problems.append(f"perturbed {check} check did not fail")
        else:
            print(f"self-test perturbed {check}: failed={res['failed']} "
                  f"exit={code}", file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seeds", help="explicit comma-separated scenario seeds "
                   "(default: derived from --seed)")
    p.add_argument("--allow-build-type", action="store_true",
                   help="accept a build type other than RelWithDebInfo")
    p.add_argument("--perturb", choices=("golden", "repeat", "lossless"),
                   help="perturb one output check's expected value")
    p.add_argument("--self-test", action="store_true")
    opts = p.parse_args()
    if opts.self_test:
        build()
        return self_test()
    if not opts.workload:
        p.error("--workload is required")
    return bench(opts)


if __name__ == "__main__":
    sys.exit(main())
