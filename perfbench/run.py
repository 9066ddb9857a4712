#!/usr/bin/env python3
"""Build and run the PARDIS collective-invocation benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload small_rpc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

The first form builds `perfbench/` (release, offline, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs one workload and prints
its metrics. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the metric names and
units are checked against `BENCHMARK.json` first. `--self-check` makes a
short run of every workload, traced and untraced, and checks that every
invocation succeeded, every named metric is present and finite, and every
per-invocation count is above zero.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small_rpc", "bulk_in", "inout_translate")
BUILD_TIMEOUT_S = 700
# Per-layer counts that every invocation produces, so a zero means the
# counter or the probe is broken.
NONZERO_SUFFIXES = (
    ".net.msgs_per_invoke",
    ".net.wire_bytes_per_invoke",
    ".alloc.count_per_invoke",
    ".alloc.bytes_per_invoke",
)


def run_timeout_s(seconds):
    """Seconds after which a run has hung: the binary accepts --seconds
    up to 60 and measures for about that long, plus set-up cycles and
    warm-ups."""
    return 60 + 1.6 * seconds


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, **kw):
    """Run `cmd` to completion; on timeout kill it and wait for it."""
    with subprocess.Popen(cmd, **kw) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            raise
        return p.returncode, out


def build():
    """Build the benchmark binary and return its path, or None."""
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        code, _ = run(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if code != 0:
        log(f"build failed with exit code {code}")
        return None
    return target / "release" / "pardis-perfbench"


def command_output(cmd):
    try:
        code, out = run(cmd, 30, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        return out.strip() if code == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def host_facts():
    git = dirty = None
    if (ROOT / ".git").exists():
        git = command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        status = command_output(["git", "-C", str(ROOT), "status", "--porcelain"])
        dirty = None if status is None else bool(status)
    return {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "git_revision": git,
        "git_dirty": dirty,
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = run_timeout_s(seconds)
    try:
        code, out = run(cmd, timeout, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {timeout:.0f} s (an invocation hung)")
        return 1, [], None
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return code, lines, result


def check_result(result, trace):
    """Problems with a result line, as a list of strings."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["the last line is not a result object"]
    problems = []
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"metric names differ from BENCHMARK.json: missing {missing}, "
                        f"unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name} is not a finite number: {v!r}")
    if result["failed"] or not result["correct"]:
        problems.append(f"{result['failed']} of {result['attempted']} invocations failed")
    return problems


def self_check(binary, seconds):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run_workload(binary, workload, 1, seconds, trace)
            problems = check_result(result, trace) if result else ["no result line"]
            if code != 0:
                problems.append(f"exit code {code}")
            if result and not problems:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                if trace == 0:
                    if metrics["ok_frac"] != 1:
                        problems.append(f"ok_frac is {metrics['ok_frac']}")
                    problems += [f"{k} is {v}" for k, v in metrics.items() if v <= 0]
                else:
                    problems += [f"{k} is {v}" for k, v in metrics.items()
                                 if k.endswith(NONZERO_SUFFIXES) and v <= 0]
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-check {workload} trace={trace}: {status}", flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-check", action="store_true",
                    help="short run of every workload, traced and untraced")
    args = ap.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        log("BENCHMARK.json not found; run from the repository root")
        return 2
    if not args.self_check and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        return 2
    if args.self_check:
        return self_check(binary, args.seconds or 1.5)

    code, lines, result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        for line in lines:
            print(line)
        log("the benchmark printed no result")
        return code or 1
    problems = check_result(result, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host_facts()}))
    if problems:
        for p in problems:
            log(p)
        return code or 1
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
