#!/usr/bin/env python3
"""Build and run the IRS end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload browse --seed 42 --seconds 20 --trace 0

The Go program in this directory is a module of its own that imports the
repository's packages from the parent directory. It is built into
.bench_build/ with the Go build cache, module cache and temporary files
kept there too, so nothing outside the checkout is read or written
beyond the Go toolchain itself. The build is redone whenever a Go source
or module file is newer than the binary. All arguments are passed on to
the benchmark; its exit code is this script's.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def newest_source(top):
    newest = 0.0
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if not d.startswith(".")]
        for name in filenames:
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "gotmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    if os.path.exists(BINARY) and os.path.getmtime(BINARY) >= newest_source(ROOT):
        return True
    result = subprocess.run(
        ["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr
    )
    return result.returncode == 0


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env["IRS_BENCH_COMMIT"] = commit()
    args = [BINARY, "--workdir", os.path.join(BUILD, "tmp")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
