#!/usr/bin/env python3
"""Build and run the InferTurbo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Builds, in release mode and into one target directory (CARGO_TARGET_DIR,
default `.bench_build` at the repository root):

  * the `itworker` binary of the `inferturbo-cluster` workspace package,
    which the worker-process transport spawns from next to the bench binary;
  * the `perfbench` package in this directory.

Then runs the bench binary with the given arguments and exits with its exit
code. Build output goes to standard error, so the last line of standard
output is the bench's JSON result. `--test` runs the package's Rust tests
and then the smoke test (`perfbench/smoke_test.py`) instead.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    """CARGO_TARGET_DIR (relative paths taken from the repository root)."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def cargo(args, env):
    """Run one cargo command with its output on stderr; exit on failure."""
    code = subprocess.call(["cargo"] + args, cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0:
        sys.stderr.write("run.py: cargo %s failed with exit code %d\n" % (args[0], code))
        sys.exit(code or 1)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.stderr.write("run.py: no Cargo.toml at %s; run from a full checkout\n" % ROOT)
        sys.exit(1)
    cargo(["build", "--release", "--offline", "-p", "inferturbo-cluster", "--bin", "itworker"], env)
    cargo(["build", "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")], env)


def main(argv):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    build(env)
    if argv == ["--test"]:
        cargo(["test", "--release", "--offline", "--manifest-path",
               os.path.join(HERE, "Cargo.toml")], env)
        return subprocess.call([sys.executable, os.path.join(HERE, "smoke_test.py")], cwd=ROOT)
    exe = os.path.join(target_dir(), "release", "perfbench")
    return subprocess.call([exe] + argv, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
