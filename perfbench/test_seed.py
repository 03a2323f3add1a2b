#!/usr/bin/env python3
"""Seed self-test of the benchmark.

    python3 perfbench/test_seed.py [--binary PATH]

Checks, for every workload, that
  - the same seed gives an identical arrival schedule, identical inputs and
    model order, and identical counts (core.blocks, core.rewrite_applications,
    the engine counters, serialize.artifact_mb, ...);
  - a different seed gives a different schedule and different inputs;
  - a short smoke run exits 0, traced and untraced.
Without --binary the perfbench binary is built first, as run.py builds it.
Also registered with CTest in perfbench/CMakeLists.txt.
"""

import argparse
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("single-stream", "serve-open", "compile-zoo")
WORK_DIR = Path(".bench_build") / "selftest"
SMOKE_SECONDS = "2"
# Per-layer metrics that count work rather than time it: a seed must
# reproduce them exactly.
COUNTS = ("core.rewrite_applications", "core.blocks", "core.flops_after_frac",
          "core.fusion_rate", "core.yellow_accept_ratio", "ops.program_steps",
          "ops.treewalk_steps", "ops.packed_calls", "ops.direct_calls",
          "ops.prepack_hit_ratio", "ops.epilogue_steps", "ops.avx2_calls",
          "ops.scalar_calls", "ops.bytes_moved_mb", "runtime.peak_arena_mb",
          "serialize.artifact_mb", "serialize.hit_ratio")
BINARY = None


def drive(*args):
    """Runs the binary from the checkout root; returns (exit code, stdout)."""
    (ROOT / WORK_DIR).mkdir(parents=True, exist_ok=True)
    done = subprocess.run([str(BINARY), *args, "--work-dir", str(WORK_DIR)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    return done.returncode, done.stdout


def dump(workload, seed):
    code, out = drive("--workload", workload, "--seed", str(seed),
                      "--seconds", "30", "--dump-inputs")
    assert code == 0, out
    return [l for l in out.splitlines() if not l.startswith("workload ")]


def run(workload, seed, trace):
    code, out = drive("--workload", workload, "--seed", str(seed), "--seconds",
                      SMOKE_SECONDS, "--trace", str(trace))
    lines = out.strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None, out


class SeedSelfTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(dump(w, 7), dump(w, 7))

    def test_different_seed_different_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = dump(w, 7), dump(w, 8)
                # Every digest line (inputs; schedule on serve-open) differs.
                for la, lb in zip(a, b):
                    if la.startswith(("input", "schedule")):
                        self.assertNotEqual(la, lb)
                self.assertNotEqual(a, b)

    def test_smoke_and_same_seed_same_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, plain, out = run(w, 5, 0)
                self.assertEqual(code, 0, out)
                self.assertTrue(plain["correct"], out)
                runs = [run(w, 5, 1) for _ in range(2)]
                for code, result, out in runs:
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"], out)
                first, second = (r[1]["metrics"] for r in runs)
                for name in COUNTS:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)


def main():
    global BINARY
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", help="a built perfbench binary")
    args, rest = parser.parse_known_args()
    if args.binary:
        BINARY = Path(args.binary).resolve()
    else:
        sys.path.insert(0, str(HERE))
        import run as runner
        BINARY = runner.build()
        if BINARY is None:
            return 2
    result = unittest.main(argv=[sys.argv[0]] + rest, exit=False).result
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
