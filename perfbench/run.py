#!/usr/bin/env python3
"""Builds and runs the DNNFusion end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload single-stream --seed 1 --seconds 30 --trace 0

Workloads: single-stream, serve-open, compile-zoo, or all (each in its own
process, one after the other; the last line is then compile-zoo's result).
The first run configures and builds perfbench/ -- which builds the library
from the enclosing source tree -- into .bench_build/perfbench; later runs
only re-check the build. The binary's output is forwarded; its
last line is one JSON object with the keys correct, attempted, failed and
metrics, and this script checks that the metric names and units are exactly
the ones BENCHMARK.json declares for the mode (--trace 0: end_to_end,
--trace 1: per_layer). Without a source tree, on a build failure, or on a
malformed result it prints no result and exits non-zero; a correctness
failure exits non-zero too. See perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = Path(".bench_build") / "perfbench"
WORK_DIR = Path(".bench_build") / "work"
WORKLOADS = ("single-stream", "serve-open", "compile-zoo")
# A workload process gets its measured window plus this much for set-up,
# correctness references and slow hosts before it is stopped.
RUN_MARGIN_S = 120


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "src-sha256-" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no DNNFusion source tree at {ROOT} (CMakeLists.txt and src/ "
            "are needed to build the benchmark)")
        return None
    build_dir = ROOT / BUILD_DIR
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.SubprocessError) as err:
            log(f"build step {cmd[:2]} failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
            return None
    binary = build_dir / "perfbench"
    return binary if binary.is_file() else None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message, or None when the line is a valid result."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int):
        return "failed must be a whole number"
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    os.chdir(ROOT)
    started = time.monotonic()
    binary = build()
    if binary is None:
        return 2
    log(f"build ready in {time.monotonic() - started:.1f} s")

    (ROOT / WORK_DIR).mkdir(parents=True, exist_ok=True)
    revision = source_revision()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code = run_workload(binary, workload, args, revision)
        if code != 0:
            return code
    return 0


def run_workload(binary, workload, args, revision):
    """Runs one workload in its own process and forwards its report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", revision, "--work-dir", str(WORK_DIR)]
    timeout = 1.5 * args.seconds + RUN_MARGIN_S
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {timeout:.0f} s and was stopped")
        return 3
    lines = [l for l in run.stdout.splitlines() if l.strip()]
    error = check_result(lines[-1], args.trace == "1") if lines else "no output"
    if error:
        sys.stderr.write(run.stdout)
        log(f"malformed {workload} result: {error}")
        return 4
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        log(f"{workload} exited {run.returncode}: an operation failed or "
            "diverged from its reference (see FAILED lines)")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
