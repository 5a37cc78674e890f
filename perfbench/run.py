#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Configures the repository's own CMake build (Release) in the build
directory -- $CARGO_TARGET_DIR when set, else .bench_build -- with
perfbench/harmonia_hook.cmake added, builds the benchmark binary, and
runs it from the checkout root. The binary's output is passed through;
its last stdout line is the JSON result. Spans of a traced run are
written under <build dir>/traces.

Exit status: the benchmark's (0 when every output check passed, 1 when
one failed), or 2 when the build or the arguments fail.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOOK = os.path.join(ROOT, "perfbench", "harmonia_hook.cmake")
JOBS = str(min(4, os.cpu_count() or 1))


def build(build_dir, target):
    """Configure once, then build @target incrementally; output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_harmonia_INCLUDE=" + HOOK])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no repository sources at " + ROOT, file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    self_test = sys.argv[1:] == ["--self-test"]
    target = "perfbench_selftest" if self_test else "harmonia_perfbench"
    if not build(build_dir, target):
        return 2
    binary = os.path.join(build_dir, "perfbench", target)
    args = ["--root", ROOT]
    if not self_test:
        args += sys.argv[1:] + ["--trace-dir",
                                os.path.join(build_dir, "traces")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
