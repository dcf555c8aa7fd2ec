#!/usr/bin/env python3
"""Run one workload of the job-level benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark with dune (inside the checkout, shared dune cache off),
sets the workload up in one process and measures it in a fresh one, which
repeats the set-up between its passes, then prints the benchmark's report.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. With --trace 1 the spans are also
written as Chrome trace JSON and validated with the repository's
trace_check binary. Exits non-zero when the build fails, a phase fails or
times out, or any correctness check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["serve-cold", "serve-warm", "instrument-large"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
TRACE_CHECK = os.path.join("_build", "default", "bin", "trace_check.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None, capture=False):
    """Run cmd to completion in its own process group (measure starts
    set-up children). The group is killed and reaped if cmd times out or
    this script is interrupted or terminated first."""
    p = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    return subprocess.CompletedProcess(cmd, p.returncode, out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/trace_check.exe"],
        timeout=850,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")

    work = os.path.join("_build", "perfbench", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        common = ["--workload", a.workload, "--seed", str(a.seed), "--dir", work]
        setup = run([BENCH, "setup"] + common, timeout=150, capture=True)
        sys.stdout.write(setup.stdout)
        if setup.returncode != 0:
            fail("setup failed")
        measure = run(
            [BENCH, "measure", "--seconds", str(a.seconds), "--trace", str(a.trace)] + common,
            timeout=150,
            capture=True,
        )
        lines = measure.stdout.splitlines()
        if measure.returncode != 0 or not lines:
            sys.stdout.write(measure.stdout)
            fail("measure failed")
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        if a.trace:
            trace = os.path.join(work, "trace.json")
            if run([TRACE_CHECK, trace], timeout=60, capture=True).returncode != 0:
                print("trace_check rejected " + trace)
                result["correct"] = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
