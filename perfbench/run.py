#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
the library and the benchmark (Release) into .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The exit code
is the benchmark's; a failed build or a run past its time bound exits
nonzero without a result.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# The benchmark's own watchdog ends a stalled run sooner; this bound
# only catches a process that cannot even report.
RUN_TIMEOUT_S = 178


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_id():
    """Commit of a git checkout, else a digest of the sources built."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not build():
        return 2

    # The engine and serving policy are fixed by the benchmark, not by
    # whatever TRINITY_* knobs the caller's shell carries.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TRINITY_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id(),
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s; killed")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
