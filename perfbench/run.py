#!/usr/bin/env python3
"""Build and run the ensemble benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        [--record <dir>]
    python3 perfbench/run.py compare <parent-dir> <change-dir>

Run from the repository root. The benchmark binary is built from this
directory and ../src into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use; later runs only check that it is
up to date. Build output goes to stderr, so the last line of stdout is
the result line. --record appends that line to <dir>/<workload>.jsonl,
the result-set layout that `compare` reads.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    configured = False
    if os.path.exists(cache):
        with open(cache) as f:
            configured = ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) in f.read()
    steps = [] if configured else [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]]
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main(argv):
    record = None
    if "--record" in argv:
        i = argv.index("--record")
        if i + 1 >= len(argv):
            sys.exit("perfbench: --record needs a directory")
        record = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    exe = build()
    proc = subprocess.run([exe] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if record and proc.returncode == 0 and lines and "--workload" in argv:
        workload = argv[argv.index("--workload") + 1]
        os.makedirs(record, exist_ok=True)
        with open(os.path.join(record, workload + ".jsonl"), "a") as f:
            f.write(lines[-1] + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
