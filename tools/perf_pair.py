#!/usr/bin/env python3
"""Paired perfbench comparison of a base revision against the working tree.

Usage, from anywhere inside the repository:

    python3 tools/perf_pair.py --rev REV --workload NAME [--pairs 10]
        [--seeds 1,2] [--trace 0|1] [--base-dir DIR] [--json PATH]
    python3 tools/perf_pair.py --selftest

The base side is REV checked out in a local git worktree under
.perf_pair/<commit>, reused by later calls at the same commit (remove it
with `git worktree remove`); pass --base-dir instead to use an existing
checkout. Runs last BENCHMARK.json's run_seconds. Each side runs its own
perfbench/run.py, so each builds into its own .bench_build/ and stamps its
own provenance. The tool then runs N pairs, alternating which side goes
first, and prints one Markdown row per metric in docs/BENCHMARKS.md's
format: each side's median with its quartiles, and how many pairs the
change won (strictly better, in the metric's direction from
BENCHMARK.json). A metric whose values are identical on every run of
both sides is printed exactly, with "identical". The last column says
whether the medians differ, in the change's favor, by more than the
base's quartile distance. Pair i uses seeds[i mod len(seeds)].

Quartiles interpolate linearly between order statistics (the "inclusive"
method of Python's statistics module, numpy's default). Needs git and
the perfbench build tools only; no network. Exits 1 when any run fails
its output checks or does not produce a result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREES = ROOT / ".perf_pair"


def fail(message):
    print(f"perf_pair: {message}", file=sys.stderr)
    sys.exit(1)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) by linear interpolation; a single value is its own."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def wins(base, change, better):
    """Pairs where the change is strictly better than its base partner."""
    if better == "lower":
        return sum(c < b for b, c in zip(base, change))
    return sum(c > b for b, c in zip(base, change))


def clear_gain(base, change, better):
    """True when the change's median beats the base median by more than
    the base's quartile distance."""
    q1, q3 = quartiles(base)
    gap = median(base) - median(change)
    if better == "higher":
        gap = -gap
    return gap > q3 - q1


def fmt(value):
    if abs(value) >= 1e6:
        return f"{value / 1e6:.4g} M"
    return f"{value:.4g}"


def summary(values, unit):
    q1, q3 = quartiles(values)
    return f"{fmt(median(values))} {unit} ({fmt(q1)}–{fmt(q3)})"


def table(workload, declared, base_runs, change_runs):
    """Markdown rows for every declared metric both sides reported."""
    rows = ["| Workload | Metric | Before | After | Gap > base IQR |",
            "|---|---|---|---|---|"]
    n = len(base_runs)
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        base = [run[name] for run in base_runs if name in run]
        change = [run[name] for run in change_runs if name in run]
        if len(base) != n or len(change) != n:
            continue
        if len(set(base + change)) == 1:
            rows.append(f"| `{workload}` | `{name}` ({n} pairs, identical)"
                        f" | {base[0]!r} {unit} | {change[0]!r} {unit} | – |")
            continue
        won = wins(base, change, metric["better"])
        gain = "yes" if clear_gain(base, change, metric["better"]) else "no"
        rows.append(f"| `{workload}` | `{name}` ({n} pairs, change won "
                    f"{won}/{n}) | {summary(base, unit)} | "
                    f"{summary(change, unit)} | {gain} |")
    return "\n".join(rows)


def git(*args, cwd=ROOT):
    done = subprocess.run(["git", "-C", str(cwd), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        fail(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def base_checkout(rev):
    """A worktree of `rev` under .perf_pair/, created on first use."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = WORKTREES / commit[:12]
    if path.exists():
        if git("rev-parse", "HEAD", cwd=path) != commit:
            fail(f"{path} exists but is not at {commit}")
    else:
        git("worktree", "add", "--detach", str(path), commit)
    return path


def run_side(root, args, seed, seconds):
    """One perfbench run of the checkout at `root`; returns its metric
    values by name and the provenance stamp of its record."""
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=str(root), stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"no result from {root}: exit {done.returncode}")
    if done.returncode != 0 or not result.get("correct"):
        fail(f"{root}: output checks failed (exit {done.returncode})")
    record = (root / ".bench_build" / "perfbench" / "results" /
              f"{args.workload}-seed{seed}-trace{args.trace}.json")
    provenance = json.loads(record.read_text())["provenance"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, provenance


def seed_list(text):
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
    return seeds


def positive(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, "
                                         f"got {text!r}")
    return int(text)


def selftest():
    base = [5.8, 6.17, 4.55, 5.49, 5.0]
    change = [4.42, 4.49, 3.82, 5.6, 4.0]
    checks = [
        (median(base), 5.49),
        (median([1.0, 2.0, 3.0, 4.0]), 2.5),
        (quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0)),
        (quartiles([1.0, 2.0, 3.0, 4.0]), (1.75, 3.25)),
        (quartiles([7.0]), (7.0, 7.0)),
        (wins(base, change, "lower"), 4),
        (wins(base, change, "higher"), 1),
        (wins([1.0, 2.0], [1.0, 2.0], "lower"), 0),
        # base IQR 5.0..5.8 = 0.8; median gap 5.49 - 4.42 = 1.07.
        (clear_gain(base, change, "lower"), True),
        (clear_gain(base, change, "higher"), False),
        (clear_gain([1.0, 2.0, 3.0], [1.5, 2.5, 3.5], "lower"), False),
    ]
    bad = [(got, want) for got, want in checks
           if (abs(got[0] - want[0]) > 1e-12 or abs(got[1] - want[1]) > 1e-12
               if isinstance(want, tuple) else got != want)]
    declared = [{"name": "t", "unit": "s", "better": "lower"},
                {"name": "same", "unit": "L1", "better": "lower"}]
    rows = table("w", declared,
                 [{"t": 2.0, "same": 0.5}, {"t": 4.0, "same": 0.5}],
                 [{"t": 1.0, "same": 0.5}, {"t": 3.0, "same": 0.5}])
    want_rows = ("| `w` | `t` (2 pairs, change won 2/2) | 3 s (2.5–3.5) | "
                 "2 s (1.5–2.5) | no |\n"
                 "| `w` | `same` (2 pairs, identical) | 0.5 L1 | 0.5 L1 | – |")
    if not rows.endswith(want_rows):
        bad.append((rows, want_rows))
    for got, want in bad:
        print(f"perf_pair selftest: got {got!r}, want {want!r}",
              file=sys.stderr)
    print("perf_pair selftest: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--rev")
    parser.add_argument("--base-dir", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=positive, default=10)
    parser.add_argument("--seeds", type=seed_list, default=[1])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not args.workload or (args.rev is None) == (args.base_dir is None):
        parser.error("need --workload and exactly one of --rev, --base-dir")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    base_root = args.base_dir.resolve() if args.base_dir else \
        base_checkout(args.rev)
    sides = {"base": base_root, "change": ROOT}
    runs = {"base": [], "change": []}
    stamps = {}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            print(f"perf_pair: pair {i + 1}/{args.pairs} seed {seed} {side}",
                  file=sys.stderr, flush=True)
            values, provenance = run_side(sides[side], args, seed,
                                          spec["run_seconds"])
            # run.py rebuilds from the checkout's sources on every call:
            # an edit during the series would mix two programs on one side.
            stamp = (provenance["revision"], provenance["dirty"],
                     provenance["source_digest"])
            if stamps.setdefault(side, stamp) != stamp:
                fail(f"{side} sources changed during the series: "
                     f"{stamps[side]} then {stamp}")
            runs[side].append(values)
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "base": str(base_root), "stamps": stamps, "runs": runs},
            indent=1) + "\n")
    for side in ("base", "change"):
        print("%s: revision %s (%s), source digest %s" % (side, *stamps[side]))
    print(table(args.workload, declared, runs["base"], runs["change"]))


if __name__ == "__main__":
    main()
