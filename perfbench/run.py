#!/usr/bin/env python3
"""Build and run the BehavIoT end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. This script builds it in release
mode into $CARGO_TARGET_DIR (default: .bench_build), runs it, and passes its
output through: the last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's metadata. Host metadata (CPU model, OS, git commit or source
digest) is gathered here and recorded in that metadata line.

--smoke runs the reduced-size inputs. Stores and ledgers go to .bench_work,
which is removed when the run ends.
"""

import argparse
import hashlib
import os
import platform
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
WORKLOADS = ("train", "serve-daily", "serve-hourly-faulty")
# What the benchmark builds from, for the source digest.
SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench/Cargo.toml",
                "perfbench/Cargo.lock", "perfbench/src", "perfbench/reference.txt")


def source_digest(root):
    """SHA-256 over the paths and bytes of every source file built."""
    h = hashlib.sha256()
    files = []
    for entry in SOURCE_ROOTS:
        path = os.path.join(root, entry)
        if os.path.isfile(path):
            files.append(entry)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.relpath(os.path.join(dirpath, f), root) for f in filenames)
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(cmd, timeout, **kw):
    """Run `cmd` to completion; kill it and wait if it overruns."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced-size inputs")
    args = p.parse_args()

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        print("perfbench: the repository's crates/ is missing; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    rc = run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
             BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return rc

    meta = {
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "cpu_model": cpu_model(),
        "host": f"{platform.system()} {platform.release()} {platform.machine()}",
    }
    cmd = [os.path.join(target, "release", "behaviot-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(root, ".bench_work")]
    for k, v in meta.items():
        cmd += ["--meta", f"{k}={v}"]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
