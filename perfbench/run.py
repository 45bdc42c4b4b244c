#!/usr/bin/env python3
"""End-to-end benchmark of hpd: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload narrow --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of an hpd checkout. The first run configures and builds
perfbench/ (a CMake project over ../src) in Release under $CARGO_TARGET_DIR
(default .bench_build); later runs rebuild incrementally. The last line of
standard output is one JSON object: correct, attempted, failed and metrics,
where metrics holds every end-to-end metric of BENCHMARK.json (--trace 0) or
every per-layer metric (--trace 1). Build logs and diagnostics go to
standard error.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def binary_path():
    return os.path.join(build_dir(), "perfbench", "hpd_perfbench")


def build():
    """Configure (once) and build hpd_perfbench; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no hpd sources under {ROOT}/src; run from an hpd checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = os.path.join(build_dir(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(min(os.cpu_count() or 1, 4))
        cmd = ["cmake", "--build", bdir, "--target", "hpd_perfbench",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def run_binary(extra):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    out_dir = os.path.relpath(os.path.join(build_dir(), "out"), ROOT)
    cmd = [binary_path(), "--out", out_dir] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    return proc.returncode, proc.stdout.splitlines()


def measure(workload, seed, seconds, trace):
    """One run; returns the binary's full result (every metric it took)."""
    code, lines = run_binary(["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds),
                              "--trace", "1" if trace else "0"])
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if code != 0 or not lines:
        fail(f"benchmark binary exited with {code}", 3)
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="show every correctness check failing on a "
                         "corrupted input, then exit")
    args = ap.parse_args()

    spec = load_spec()
    if not args.selftest and args.workload not in {
            w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build()
    if args.selftest:
        code, lines = run_binary(["--selftest"])
        print("\n".join(lines))
        sys.exit(code)

    seconds = args.seconds if args.seconds else spec["run_seconds"]
    result = measure(args.workload, args.seed, seconds, args.trace == 1)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    bad = [m["name"] for m in wanted
           if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    if bad:
        fail("run did not measure (in the declared unit): " + ", ".join(bad),
             3)
    metrics = {m["name"]: got[m["name"]] for m in wanted}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
