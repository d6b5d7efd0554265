#!/usr/bin/env python3
"""End-to-end benchmark of LGen: builds the benchmark, runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold-full|cold-base \
        --seed N --seconds S --trace 0|1

The first run builds `perfbench/` (the LGen library from `src/` plus the
`lgen-perfbench` program) with CMake into `.bench_build/perfbench`; later
runs reuse the build. Build output goes to stderr. The program's last
stdout line, passed through, is one JSON object: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics for --trace 0 and the
per-layer metrics for --trace 1.
Traced runs also write their spans to `.bench_build/traces/`.

Everything the benchmark writes (build tree, generated C, shared objects,
compiler temporaries, traces) stays under `.bench_build/` in the checkout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold-full", "cold-base")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_checked(cmd, cwd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        sys.exit("perfbench: build step failed: %s" % e)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no LGen sources (src/) next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, root, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_checked(["cmake", "--build", build_dir, "-j", jobs], root,
                BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "lgen-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    work = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(work, "perfbench"))

    # Runtime artifacts (generated C, shared objects, cc temporaries) go to
    # a per-run directory inside the checkout. LGEN_* knobs from the
    # caller's environment would change what is measured, so none pass.
    tmp = os.path.join(work, "tmp", "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("LGEN_")}
    env["TMPDIR"] = tmp
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(work, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    # Own process group, so a timeout also ends the compilers it spawned.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: %s timed out after %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
