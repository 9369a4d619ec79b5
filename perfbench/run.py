#!/usr/bin/env python3
"""Build and run the repository benchmark, one workload per invocation.

    python3 perfbench/run.py --workload batch-flat --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It builds perfbench/mae_bench.exe and
bin/mae_cli.exe from source with dune (build directory .bench_build),
then runs the workload.  The last line of standard output is the
result object; everything else (build output, progress) goes to
standard error.  The run record lands in perfbench/results/.  See
perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("batch-flat", "serve-replay", "serve-fresh")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, and a digest of the sources."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(x for x in dirs if x != "results")
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".c")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    commit = "none"
    if os.path.isdir(".git") and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return "git:%s src:%s" % (commit, h.hexdigest()[:16])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for f in ("dune-project", "bin/mae_cli.ml", "lib/engine/mae_engine.ml", "perfbench/dune"):
        if not os.path.isfile(f):
            fail("%s is missing: run from the root of a full checkout" % f)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "perfbench/mae_bench.exe", "bin/mae_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "mae_bench.exe")
    mae = os.path.join(BUILD_DIR, "default", "bin", "mae_cli.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--mae", mae, "--out", os.path.join("perfbench", "results"),
           "--commit", source_id()]
    sys.stdout.flush()
    # own process group, so a timeout or a signal also stops the daemon
    # it forked
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(reason):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        fail(reason)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, lambda signum, _frame: stop("stopped by signal %d" % signum))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop("the run exceeded %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("mae_bench exited with %d" % code)


if __name__ == "__main__":
    main()
