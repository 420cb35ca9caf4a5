#!/usr/bin/env python3
"""spoofscope benchmark: build, generate a seeded world, run one workload.

    python3 perfbench/run.py --workload batch-classify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 10]

Run from the repository root (any directory works; paths are resolved
from this file). The first run configures and builds a Release tree
under .bench_build/ (or $CARGO_TARGET_DIR); later runs rebuild only what
changed. See perfbench/README.md for the workloads and metrics.

With --workload, the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of BENCHMARK.json.
The line before it carries the machine context. The exit code is 0 only
when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-classify", "batch-report", "serve-churn")
# Worlds per run. Worlds of different seeds differ in size (the route
# server's MRT ranges over ~2x), which moves peak RSS, set-up time and
# per-flow cost with the seed; the batch workloads pool three worlds.
# serve-churn's phases are fixed flow counts (~25 s per world with its
# oracle), so it measures one world to keep runs short.
WORLDS = {"batch-classify": 3, "batch-report": 3, "serve-churn": 1}
SEEDS_PER_RUN = max(WORLDS.values())
# Input generators running at once (each peaks at ~0.8 GB).
GEN_PARALLEL = 2
SOURCES = ("CMakeLists.txt", "src/CMakeLists.txt", "tools/CMakeLists.txt",
           "tools/spoofscope_cli.cpp")


class BenchError(Exception):
    """The benchmark could not run (no result is printed)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the driver and the CLI in Release."""
    missing = [p for p in SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("spoofscope sources not found: " + ", ".join(missing))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_driver", "spoofscope_cli"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "tools", "spoofscope"))


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError("no output")
    return json.loads(lines[-1])


def world_seeds(seed, count):
    """The run seed's worlds: disjoint for distinct run seeds."""
    return [seed * SEEDS_PER_RUN + i for i in range(count)]


def generate_worlds(driver, seed, count, out_dir, timeout=170):
    """Writes `count` worlds of `seed` under out_dir; returns their dirs
    and digests. Runs GEN_PARALLEL generators at a time, waits for all."""
    jobs = [(s, os.path.join(out_dir, "world-%d" % s))
            for s in world_seeds(seed, count)]
    digests = {}
    for start in range(0, len(jobs), GEN_PARALLEL):
        batch = jobs[start:start + GEN_PARALLEL]
        procs = [subprocess.Popen([driver, "gen", "--seed", str(s), "--out", d],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for s, d in batch]
        failed = False
        for (s, _), proc in zip(batch, procs):
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
            if proc.returncode != 0:
                log(err[-4000:])
                failed = True
            else:
                digests[s] = last_json(out)["digests"]
        if failed:
            raise BenchError("input generation failed")
    return [d for _, d in jobs], digests


def source_rev():
    """git rev of the checkout, or a digest of its sources outside git."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def table1(text):
    """The four Table-1 class rows of a classify/report printout."""
    rows = {}
    for line in text.splitlines():
        for name in ("Bogon", "Unrouted", "Invalid", "Valid"):
            if line.startswith("  " + name + " ") and name not in rows:
                rows[name] = line
    return [rows.get(n) for n in ("Bogon", "Unrouted", "Invalid", "Valid")]


def cli_cross_check(cli, inputs, expected, deadline):
    """Runs `spoofscope classify` and `report` on the generated files.

    Returns ({metric: seconds}, failures)."""
    files = ["--mrt", os.path.join(inputs, "route-server.mrt"),
             "--trace", os.path.join(inputs, "ixp.trace"),
             "--rpsl", os.path.join(inputs, "registry.rpsl"),
             "--engine", "flat"]
    seconds, failures = {}, []
    for command in ("classify", "report"):
        t0 = time.monotonic()
        done = subprocess.run([cli, command] + files, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining(deadline))
        seconds["cli.%s_s" % command] = time.monotonic() - t0
        if done.returncode != 0:
            failures.append("spoofscope %s exited %d: %s" %
                            (command, done.returncode, done.stderr.strip()[-300:]))
        elif table1(done.stdout) != expected:
            failures.append("spoofscope %s Table-1 totals differ from the "
                            "driver's aggregate" % command)
    return seconds, failures


def remaining(deadline):
    """Seconds left before `deadline` (time.monotonic()); at least 1."""
    return max(1.0, deadline - time.monotonic())


def run_workload(workload, seed, seconds, trace, expect_digest=None):
    """One benchmark run. Returns (context, result)."""
    if workload not in WORKLOADS:
        raise BenchError("unknown workload: " + workload)
    driver, cli = build()
    # A run, build aside, must end within 180 s: leave 10 s of slack.
    deadline = time.monotonic() + 170
    bench = spec()
    scratch = os.path.join(os.path.dirname(build_dir()), "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    work = os.path.join(scratch, "work")
    os.makedirs(work)
    try:
        inputs, digests = generate_worlds(driver, seed, WORLDS[workload],
                                          scratch, remaining(deadline))
        cmd = [driver, "run", "--workload", workload, "--inputs",
               ",".join(inputs), "--work", work, "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
        if trace:
            traces = os.path.join(os.path.dirname(build_dir()), "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, "%s-seed%d" % (workload, seed))]
        if expect_digest is not None:
            cmd += ["--expect-digest", expect_digest]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining(deadline))
        if done.returncode == 3:
            log(done.stderr)
            raise BenchError("refusing to report from an unoptimised build")
        if done.returncode not in (0, 1):
            log(done.stderr[-4000:])
            raise BenchError("driver exited %d" % done.returncode)
        run = last_json(done.stdout)
        cli_seconds, cli_failures = cli_cross_check(cli, inputs[0],
                                                    run["table1"], deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = run["failures"] + cli_failures
    attempted = run["attempted"] + 2
    failed = run["failed"] + len(cli_failures)
    measured = dict(run["metrics"])
    measured.update(cli_seconds)
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in bench[kind]:
        # A per-layer metric of a layer this workload does not call reads 0.
        metrics[m["name"]] = {"value": float(measured.get(m["name"], 0.0)),
                              "unit": m["unit"]}
    context = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "nproc": os.cpu_count(),
        "effective_parallelism": run["effective_parallelism"],
        "build_type": run["build_type"], "simd": run["simd"],
        "git_rev": source_rev(), "worlds": digests,
        "latency_samples": measured.get("latency_samples"),
        "failed_frac": failed / attempted, "failures": failures,
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return context, result


def run_all(seed, seconds):
    """Every workload, untraced then traced, printed as one table."""
    bench = spec()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            context, result = run_workload(workload, seed, seconds, trace)
            ok = ok and result["correct"]
            print("%s (%s, seed %d): correct=%s failed_frac=%.6g "
                  "[%d of %d operations failed] effective_parallelism=%.2f "
                  "nproc=%s rev=%s" % (
                      workload, "traced" if trace else "untraced", seed,
                      result["correct"], context["failed_frac"],
                      result["failed"], result["attempted"],
                      context["effective_parallelism"], context["nproc"],
                      context["git_rev"]))
            for failure in context["failures"]:
                print("  FAILED: " + failure)
            for name, m in result["metrics"].items():
                print("  %-40s %16.6g %s" % (name, m["value"], units[name]))
            if trace and context["latency_samples"] is not None:
                print("  %-40s %16d batches" % ("(latency samples)",
                                               context["latency_samples"]))
            sys.stdout.flush()
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expect-digest", default=None,
                   help="replace the oracle digest (hex), for self-tests")
    args = p.parse_args()
    try:
        seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
        if args.all:
            return run_all(args.seed, seconds)
        if args.workload is None:
            p.error("--workload or --all is required")
        context, result = run_workload(args.workload, args.seed, seconds,
                                       bool(args.trace), args.expect_digest)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        log("perfbench: error: %s" % e)
        return 2
    for failure in context["failures"]:
        log("perfbench: FAILED: " + failure)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
