#!/usr/bin/env python3
"""Runs one workload of the dpmm benchmark and prints its result line.

    python3 perfbench/run.py --workload design|release|serve|adhoc \
        --seed N --seconds S --trace 0|1 [--results DIR]

Builds the library and perfbench_driver from this checkout's sources (CMake,
into .bench_build/perfbench; incremental after the first run), runs the
driver once in a fresh work directory, writes a results record with its
provenance to perfbench/results/ (or --results DIR), and prints as the last
line of stdout one JSON object with the keys correct, attempted, failed and
metrics. The metrics are BENCHMARK.json's end-to-end metrics with --trace 0
and its per-layer metrics with --trace 1; a traced run also writes its spans
next to the record as a Chrome trace_event file.

Exit codes: 0 all checks passed, 1 a check or request failed (the result
line is still printed), 2 the build or the driver failed (no result line).
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("design", "release", "serve", "adhoc")
DRIVER_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step; its output goes to stderr only if it fails."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        die("%s: %s" % (" ".join(cmd), err))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("%s exited %d" % (" ".join(cmd), proc.returncode))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no library sources beside perfbench/ (CMakeLists.txt, src/)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], 600)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_logged(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                "-j", jobs], 800)


def first_line(cmd):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.splitlines()[0].strip() if out.strip() else None


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "results")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def library_flags():
    """Compile flags of the library as the build used them."""
    try:
        with open(os.path.join(BUILD, "compile_commands.json")) as f:
            commands = json.load(f)
    except (OSError, ValueError):
        return None
    for entry in commands:
        if os.sep + "src" + os.sep in entry["file"]:
            return [tok for tok in entry["command"].split()
                    if tok.startswith(("-O", "-march", "-ffp-contract", "-W",
                                       "-DNDEBUG", "-std", "-g"))]
    return None


def provenance(args, report):
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                cache[key.split(":")[0]] = value
    except OSError:
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git_sha = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    compiler = cache.get("CMAKE_CXX_COMPILER")
    return {
        "git_sha": git_sha,
        "source_sha256": source_digest(),
        "compiler": compiler,
        "compiler_version": first_line([compiler, "--version"])
        if compiler else None,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "library_flags": library_flags(),
        "threads": report["info"].get("threads"),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--results", default=os.path.join(HERE, "results"))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        die("cannot read BENCHMARK.json: %s" % err)
    build()

    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(ROOT, ".bench_build", "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(args.results, exist_ok=True)
    spans = os.path.join(args.results, tag + ".spans.json")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--spans", spans]
    env = dict(os.environ,
               DPMM_THREADS=str(min(4, len(os.sched_getaffinity(0)))))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=DRIVER_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        die("driver: %s" % err)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        die("driver exited %d without a report" % proc.returncode)

    section = "per_layer" if args.trace else "end_to_end"
    values = dict(report["layer"], **report["counters"]) if args.trace \
        else report["e2e"]
    metrics, missing = {}, []
    for m in spec[section]:
        value = values.get(m["name"])
        if value is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for name in missing:
        print("perfbench: metric %s not measured" % name, file=sys.stderr)
    for failure in report["failures"]:
        print("perfbench: " + failure, file=sys.stderr)

    correct = proc.returncode == 0 and report["failed"] == 0 and not missing
    record = {
        "provenance": provenance(args, report),
        "wall_s": time.monotonic() - started,
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "failures": report["failures"],
        "e2e": report["e2e"],
        "layer": report["layer"],
        "counters": report["counters"],
        "info": report["info"],
        "spans": os.path.basename(spans) if args.trace else None,
    }
    with open(os.path.join(args.results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"] + len(missing),
                      "failed": report["failed"] + len(missing),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
