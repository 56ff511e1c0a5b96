#!/usr/bin/env python3
"""Host-performance benchmark of the FlexSFP simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload nat64_seq --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call builds the simulator libraries and the benchmark from source
into .bench_build/perfbench (CMake, RelWithDebInfo + LTO like the top-level
build); later calls only rebuild what changed. Build output goes to
.bench_build/perfbench/build.log, so standard output carries only the
benchmark's report, whose last line is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 prints the end-to-end metrics (tracing off); --trace 1 prints the
per-layer metrics of a traced run and writes its spans as Chrome trace-event
JSON to .bench_build/perfbench/traces/, which Perfetto opens. Every result is
also stored with its run record (nproc, compiler, build type, sanitizers) in
.bench_build/perfbench/records/. METRICS.md lists the workloads and metrics.

The modeled outputs of every repetition are digested; for the seeds listed
in expected_digests.json the digest must equal the recorded value, so a
change to the model fails the run instead of reading as a speed-up. The
exit status is non-zero when any check fails or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["nat64_seq", "softwire_churn", "imix_shards_w4", "fabric_ring_w1"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns the binary dir."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    # Compiler and LTO temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as out:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out,
                              env=env).returncode != 0:
                # Configure again next time instead of building a broken tree.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None, log_path
        jobs = str(min(os.cpu_count() or 1, 4))
        cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=out,
                          env=env).returncode != 0:
            return None, log_path
    return BUILD_DIR, log_path


def expected_digest(workload, seed, scale):
    with open(os.path.join(BENCH_DIR, "expected_digests.json")) as f:
        table = json.load(f)
    if scale != table["scale"]:
        return None
    return table["digests"].get(workload, {}).get(str(seed))


def run_bench(bin_dir, workload, seed, seconds, trace, scale=1.0, extra=()):
    """Run one benchmark process; returns (exit code, stdout lines)."""
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    os.makedirs(os.path.join(BUILD_DIR, "records"), exist_ok=True)
    tag = f"{workload}-seed{seed}"
    cmd = [os.path.join(bin_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", str(scale),
           "--record", os.path.join(BUILD_DIR, "records",
                                    f"{tag}-trace{trace}.json")]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD_DIR, "traces",
                                            f"{tag}.trace.json")]
    digest = expected_digest(workload, seed, scale)
    if digest is not None and "--expect-digest" not in extra:
        cmd += ["--expect-digest", digest]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def selftest(bin_dir):
    """The benchmark's own checks; exit status 0 when all hold."""
    failures = []

    def check(name, ok):
        print(f"  {'ok  ' if ok else 'FAIL'} {name}", flush=True)
        if not ok:
            failures.append(name)

    print("unit checks (span self-time arithmetic, decorator forwarding):")
    proc = subprocess.run([os.path.join(bin_dir, "perfbench_selftest")],
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    print("\n".join("    " + line for line in proc.stdout.splitlines()))
    check("perfbench_selftest", proc.returncode == 0)

    short = 0.02
    print("decorator transparency: traced digest == untraced digest:")
    for workload in WORKLOADS:
        code, lines = run_bench(bin_dir, workload, 1, 0, 1, scale=short)
        result = result_of(lines)
        check(workload, code == 0 and result is not None and result["correct"])

    print("the check fails when it should:")
    for workload in WORKLOADS:
        code, lines = run_bench(bin_dir, workload, 1, 0, 0, scale=short,
                                extra=["--unbalance-one"])
        result = result_of(lines)
        share = result and result["metrics"]["accounted_share"]["value"]
        check(f"{workload}: one packet swallowed or mirrored",
              code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0 and share < 1.0)
    for workload in WORKLOADS:
        code, lines = run_bench(bin_dir, workload, 1, 0, 0, scale=short,
                                extra=["--expect-digest", "0" * 16])
        result = result_of(lines)
        check(f"{workload}: wrong expected digest",
              code != 0 and result is not None and not result["correct"]
              and result["failed"] == result["attempted"]
              and result["metrics"]["accounted_share"]["value"] == 0.0)
    print("selftest: " + ("all passed" if not failures
                          else f"{len(failures)} FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    bin_dir, log_path = build()
    if bin_dir is None:
        with open(log_path) as f:
            log("".join(f.readlines()[-20:]))
        log(f"perfbench: build failed; see {log_path}")
        return 1
    if args.selftest:
        return selftest(bin_dir)

    code, lines = run_bench(bin_dir, args.workload, args.seed, args.seconds,
                            args.trace)
    for line in lines:
        print(line)
    if result_of(lines) is None:
        log(f"perfbench: no result (exit status {code})")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
