#!/usr/bin/env python3
"""Build the dashboard benchmark in Release and run one workload.

Usage, from the repository root:

    python3 dashbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

The program is configured from dashbench/CMakeLists.txt (which pulls in the
repository's own CMake files unchanged) into $CARGO_TARGET_DIR/dashbench, or
.bench_build/dashbench when that variable is unset, and rebuilt on every
call (a no-op when nothing changed). Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. Scratch files (shards, span
traces) go under .dashbench/ in the repository root.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("dashbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no vegaplus sources next to dashbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target_root), "dashbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", "dashbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "dashbench")


def main():
    binary = build()
    work_dir = os.path.join(ROOT, ".dashbench")
    proc = subprocess.Popen([binary] + sys.argv[1:] + ["--work-dir", work_dir], cwd=ROOT)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
        # The program removes its shard directory itself; this covers a crash.
        shutil.rmtree(os.path.join(work_dir, "shards-%d" % proc.pid), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
