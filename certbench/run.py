#!/usr/bin/env python3
"""Builds the certificate benchmark from source and runs one workload.

Usage (from the repository root):

    python3 certbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Rust package next to this file is compiled in release mode into
$CARGO_TARGET_DIR (default: .bench_build in the working directory);
build output goes to standard error. The binary then runs with a
private temporary directory under the target directory, which holds
the spill engine's segment files and is removed afterwards. The last
line of standard output is the binary's JSON result; the exit code is
the binary's, or non-zero if the build fails or the run overruns.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("certbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "certbench")
    tmp = tempfile.mkdtemp(prefix="certbench-tmp-", dir=target)
    env["TMPDIR"] = tmp
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
        return run.returncode
    except subprocess.TimeoutExpired:
        print("certbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
