#!/usr/bin/env python3
"""Builds and runs the sgr performance benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

On first use this configures and builds perfbench/ (the sgr_perfbench
program plus the library sources under src/, Release) into
.bench_build/perfbench. It then runs one workload and relays the
program's report. The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
full record of each run, stamped with its provenance, and the spans of a
traced run are written to .bench_build/perfbench/results/.

Exits non-zero, without a result line, on a bad argument, a missing
source tree or a failed build; exits non-zero after the result line when
an output check failed.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def uint_arg(lo, hi):
    """Strict decimal: digits only (no sign, space or suffix), in [lo, hi]."""

    def parse(text):
        if not re.fullmatch(r"[0-9]{1,20}", text) or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"expected a whole number in [{lo}, {hi}], got {text!r}")
        return int(text)

    return parse


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def parse_args(spec):
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=uint_arg(0, 2**64 - 1))
    parser.add_argument("--seconds", required=True, type=uint_arg(1, 3600))
    parser.add_argument("--trace", required=True, type=uint_arg(0, 1))
    return parser.parse_args()


def build():
    """Configures once, then builds incrementally; build chatter goes to
    stderr only when the build fails."""
    if not (ROOT / "src" / "exp" / "runner.h").is_file():
        fail(f"no sgr source tree under {ROOT}; nothing to benchmark")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "sgr_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return BUILD_DIR / "sgr_perfbench"


def git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    """Revision and dirty flag when this is a git checkout, and always a
    digest of the benchmarked sources, so that a record made outside git
    still names the exact code it measured."""
    revision, dirty = "unknown", "unknown"
    if (ROOT / ".git").exists():
        revision = git("rev-parse", "HEAD") or "unknown"
        status = git("status", "--porcelain")
        if status is not None:
            dirty = "dirty" if status else "clean"
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return revision, dirty, digest.hexdigest()[:16]


def checked_result(line, spec, trace):
    """Parses the program's result line and keeps exactly the metrics that
    BENCHMARK.json declares for this mode, with their declared units."""
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"sgr_perfbench's last line is not JSON: {line[:200]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail(f"sgr_perfbench did not report {metric['name']}")
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']}: unit {got['unit']!r}, "
                 f"declared {metric['unit']!r}")
        metrics[metric["name"]] = got
    result["metrics"] = metrics
    return result


def main():
    spec = load_spec()
    args = parse_args(spec)
    binary = build()
    revision, dirty, digest = provenance()
    out_dir = BUILD_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    # The library reads SGR_* knobs from the environment; the benchmark
    # fixes every knob itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SGR_")}
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(out_dir),
               "--revision", revision, "--dirty", dirty,
               "--source-digest", digest]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=str(ROOT), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"sgr_perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"sgr_perfbench exited {done.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    result = checked_result(lines[-1], spec, args.trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
