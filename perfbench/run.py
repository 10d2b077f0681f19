#!/usr/bin/env python3
"""Builds `tcr` and the perfbench harness from source, then runs one
benchmark workload (or the harness self-check).

Run from the repository root:

    python3 perfbench/run.py --workload text-8t --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The last line of standard output is the run's JSON result; build output
goes to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workloads the harness runs that BENCHMARK.json leaves out (see README).
HARNESS_ONLY = ["cluster-forward-2n"]
# A run must end within 180 s; the harness's own reply timeouts are far
# shorter, so this only stops a wedged run.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds the release `tcr` binary and the harness; returns both paths."""
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest) or not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("no repository around perfbench/ (Cargo.toml and crates/ are missing)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in (
        (root_manifest, ["-p", "tc-cli"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        done = subprocess.run(cmd + extra, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"`{' '.join(cmd + extra)}` failed")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "tcr"), os.path.join(release, "perfbench")


def run_harness(binary, tcr, args):
    """Runs the harness in its own process group, so a timeout also stops
    the servers it started. Returns (exit code, stdout)."""
    cmd = [binary, "--tcr", tcr] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"`{' '.join(cmd)}` did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def self_check(binary, tcr):
    """Runs every workload at toy size, untraced and traced, and checks
    that every metric of BENCHMARK.json is printed with its unit and
    that the correctness gate ran and passed. Harness-only workloads
    are held to the end-to-end metrics and the gate."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for name in [w["name"] for w in spec["workloads"]] + HARNESS_ONLY:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            exact = name not in HARNESS_ONLY
            if not exact and trace == "1":
                declared = []
            label = f"{name} --trace {trace}"
            code, out = run_harness(binary, tcr, [
                "--workload", name, "--seed", "7", "--seconds", "2",
                "--trace", trace, "--toy", "--out-dir", os.path.join(target_dir(), "perfbench-spans"),
            ])
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{label}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            gate = [l for l in lines if l.startswith("# correctness gate:")]
            if not gate or " 0 mismatches" not in gate[0] or gate[0].startswith("# correctness gate: 0 "):
                problems.append(f"{label}: correctness gate missing or failed: {gate}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{label}: metric {m['name']} missing")
                elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{label}: metric {m['name']} printed as {got}")
            extra = set(metrics) - {m["name"] for m in declared}
            if extra and exact:
                problems.append(f"{label}: undeclared metrics {sorted(extra)}")
            print(f"self-check {label}: {len(metrics)} metrics, {gate[0][2:] if gate else 'no gate'}")
    for p in problems:
        print(f"self-check FAILED {p}")
    print("self-check ok" if not problems else f"self-check: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    tcr, binary = build()
    if args.self_check:
        sys.exit(self_check(binary, tcr))
    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        harness_args += ["--out-dir", os.path.join(target_dir(), "perfbench-spans")]
    code, out = run_harness(binary, tcr, harness_args)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
