#!/usr/bin/env python3
"""Build and run botscope's benchmark.

Run from the root of a botscope checkout:

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in this directory, a module of its own
that builds against the checkout's source (see go.mod). Everything the
build and the runs write goes under .bench_build/ in the checkout. All
arguments are passed to the program; see README.md for what it measures.
"""

import os
import shutil
import signal
import subprocess
import sys

# One run may take 180 s; leave the program room to report before it.
RUN_TIMEOUT_S = 175
# The first build in a checkout compiles the standard library too.
BUILD_TIMEOUT_S = 850


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    go = shutil.which("go") or "/usr/local/go/bin/go"
    binary = os.path.join(build, "perfbench")
    built = run([go, "build", "-o", binary, "."], here, env, BUILD_TIMEOUT_S, sys.stderr)
    if built != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built or 1
    work = os.path.join(build, "work")
    return run([binary, *sys.argv[1:], "--work", work], root, env, RUN_TIMEOUT_S, None)


def run(cmd, cwd, env, timeout, stdout) -> int:
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124
    finally:
        # Nothing the run started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
