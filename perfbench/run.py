#!/usr/bin/env python3
"""Entry point of the ACD engine benchmark.

Builds perfbench/acd_bench (CMake, Release) from the checkout's own
sources into .bench_build/ on first use, then runs one workload under a
wall-clock limit and relays its output. The last line of stdout is the
JSON result:

  python3 perfbench/run.py --workload table1_nfi --seed 1 --seconds 15 --trace 0

Extra options (--scale tiny) are passed through to acd_bench. A run that
exceeds the limit is killed and reported as one failed operation.
"""
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "acd_bench")
RUN_LIMIT_S = 170.0


def local_env():
    """Compiler and program temp files stay inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(env):
    """Configure once, then (re)build incrementally. Output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cfg = os.path.join(BUILD, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(cfg, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cfg,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cfg, "-j", jobs, "--target", "acd_bench"])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env).returncode
        if rc != 0:
            print(f"run.py: {' '.join(cmd[:2])} failed with code {rc}",
                  file=sys.stderr)
            return False
    return True


def main():
    env = local_env()
    if not build(env):
        return 1
    cmd = [BINARY] + sys.argv[1:] + ["--state-dir", os.path.join(BUILD, "state")]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: acd_bench killed after {time.monotonic() - start:.0f} s",
              file=sys.stderr)
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        return 0
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
