#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

Usage, from the root of the repository:

    python3 e2e_bench/run.py --workload attack|defend|serve --seed N \
        --seconds S --trace 0|1

Builds the `bbgnn-serve` release binary and the benchmark package from
source into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
workload in a process of its own. Kernel threads come from BBGNN_THREADS,
defaulting to the number of cores; a count above it is refused. The last
line of stdout is the JSON result; the exit code is non-zero on a failed
build, a refused configuration, or any incorrect result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    # Build chatter goes to stderr: stdout ends with the result line.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in ((os.path.join(ROOT, "Cargo.toml"), ["-p", "bbgnn-serve"]),
                            (os.path.join(HERE, "Cargo.toml"), [])):
        code = build(env, manifest, *extra)
        if code != 0:
            print(f"error: cargo build of {manifest} failed", file=sys.stderr)
            return code or 1

    nproc = len(os.sched_getaffinity(0))
    threads = env.setdefault("BBGNN_THREADS", str(nproc))
    if not threads.isdigit() or not 1 <= int(threads) <= nproc:
        print(f"error: BBGNN_THREADS={threads} must be 1..{nproc} on this host",
              file=sys.stderr)
        return 2
    env["E2E_COMMIT"] = commit()

    workload = "run"
    if "--workload" in sys.argv[1:-1]:
        workload = sys.argv[sys.argv.index("--workload") + 1]
    work = os.path.join(ROOT, ".bench_run", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    release = os.path.join(target, "release")
    try:
        return subprocess.run(
            [os.path.join(release, "e2e_bench"), *sys.argv[1:],
             "--server", os.path.join(release, "bbgnn-serve"), "--work-dir", work],
            cwd=ROOT, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
