#!/usr/bin/env python3
"""Builds and runs the REPOSE benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package (its own
cargo workspace, offline, into `$CARGO_TARGET_DIR` or `perfbench/target`),
then runs each workload in a fresh process so that set-up time, peak memory
and cold state never leak between workloads. Scratch files (WAL, archives)
live under the target directory and are removed afterwards.

With one workload, standard output ends with that run's result line:
`{"correct", "attempted", "failed", "metrics"}`. With `--workload all`,
every workload runs twice (`--trace 0`, then `--trace 1`) and the last line
maps each workload to its two results. A build failure, a wrong answer or
an invalid run exits non-zero.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def workload_names():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return list(json.load(f)["workloads"])


def git_commit():
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def run_one(binary, target, workload, seed, seconds, trace, commit):
    """Runs one workload in its own process; returns (exit code, last line)."""
    work = os.path.join(target, "perfbench-work", f"{workload}-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work, "--commit", commit]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if proc.returncode == 0 and lines else None)


def main():
    # A SIGTERM becomes SystemExit, on which subprocess.run kills and reaps
    # the running workload before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    commit = git_commit()

    if args.workload != "all":
        code, _ = run_one(binary, target, args.workload, args.seed, args.seconds, args.trace, commit)
        return code

    results = {}
    for name in workload_names():
        for trace in (0, 1):
            code, line = run_one(binary, target, name, args.seed, args.seconds, trace, commit)
            if code != 0:
                print(f"perfbench: {name} --trace {trace} exited with {code}", file=sys.stderr)
                return code
            results.setdefault(name, {})[f"trace{trace}"] = json.loads(line)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
