#!/usr/bin/env python3
"""Runs alternating benchmark pairs of two checkouts and summarizes them.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload serve-open --seeds 1-10 [--seconds 30]

For each seed in the inclusive range, one pair runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

once in each checkout, parent first on even pairs and change first on odd
ones. Every run's end-to-end metrics are printed as they arrive. The
summary gives, per metric (names and `better` from the parent's
BENCHMARK.json), each side's p25/median/p75, the pairs in which the change
reads better, the ties, the median gap and the parent's IQR, and each
side's attempted and failed operations.

The exit status is 1 when a run exits non-zero or prints no result (the
summary then covers the pairs completed before it), and 0 otherwise. No
timing is asserted. Python 3.11 standard library only.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# A run gets its measured window plus this much for the first build,
# set-up and correctness references before it is stopped.
RUN_MARGIN_S = 1200


def seed_range(text):
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B or A, got {text!r}")
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"empty or negative range {text!r}")
    return list(range(lo, hi + 1))


def checkout(text):
    path = Path(text).resolve()
    if not (path / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{path} has no perfbench/run.py")
    return path


def run_once(root, workload, seed, seconds):
    """Runs one benchmark process; returns its result object, or None with
    the reason printed when it fails or prints no result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    try:
        run = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                             timeout=2 * seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        print(f"  {root}: run.py did not finish and was stopped")
        return None
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if run.returncode != 0 or not isinstance(result, dict):
        print(f"  {root}: run.py exited {run.returncode}"
              f"{'' if isinstance(result, dict) else ' with no result'}")
        for line in (run.stderr.splitlines() + lines)[-20:]:
            print(f"    | {line}")
        return None
    return result


def quantile(values, q):
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(metrics, runs):
    pairs = len(runs["parent"])
    print(f"\nsummary over {pairs} pair(s)")
    print(f"{'metric':<14} {'better':<6} {'side':<6} {'p25':>10} "
          f"{'median':>10} {'p75':>10}")
    for m in metrics:
        name = m["name"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]]
                for s in SIDES}
        for side in SIDES:
            v = vals[side]
            print(f"{name:<14} {m['better']:<6} {side:<6} "
                  f"{quantile(v, 0.25):>10.4f} {quantile(v, 0.5):>10.4f} "
                  f"{quantile(v, 0.75):>10.4f}")
        wins = ties = 0
        for p, c in zip(vals["parent"], vals["change"]):
            if p == c:
                ties += 1
            elif (c < p) == (m["better"] == "lower"):
                wins += 1
        med_p = quantile(vals["parent"], 0.5)
        gap = quantile(vals["change"], 0.5) - med_p
        iqr = quantile(vals["parent"], 0.75) - quantile(vals["parent"], 0.25)
        rel = f" ({gap / med_p:+.1%} of the parent's)" if med_p else ""
        print(f"{'':<14} change better in {wins}/{pairs} pairs, {ties} "
              f"tie(s); median gap {gap:+.4f} {m['unit']}{rel}; parent IQR "
              f"{iqr:.4f}; bound {m.get('bound')}")
    for side in SIDES:
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        print(f"{side}: attempted {attempted}, failed {failed}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=checkout)
    parser.add_argument("--change", required=True, type=checkout)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range,
                        help="inclusive seed range A-B; one pair per seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    roots = {"parent": args.parent, "change": args.change}
    runs = {s: [] for s in SIDES}
    ok = True
    for index, seed in enumerate(args.seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            result = run_once(roots[side], args.workload, seed, args.seconds)
            if result is None:
                ok = False
                break
            pair[side] = result
            values = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4f}"
                for m in metrics)
            print(f"pair {index + 1} seed {seed} {side}: {values} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        if not ok:
            break
        for side in SIDES:
            runs[side].append(pair[side])
    if runs["parent"]:
        summarize(metrics, runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
