#!/usr/bin/env python3
"""Tests of the benchmark's correctness gate.

Usage (from the repository root): python3 perfbench/test_gate.py

Each case runs a short benchmark through run.py. With --corrupt-row the
benchmark alters one value of one row of the first streamed or emitted
result before checking it; the run must then report correct=false, count
the request as failed and exit nonzero. Without it the same run passes.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_bench(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", "0", *extra],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class CorrectnessGateTest(unittest.TestCase):
    def check_fails_on_altered_row(self, workload):
        code, result, stderr = run_bench(workload, "--corrupt-row")
        self.assertNotEqual(code, 0, stderr)
        self.assertIsNotNone(result, stderr)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("WRONG RESULT", stderr)

    def check_passes(self, workload):
        code, result, stderr = run_bench(workload)
        self.assertEqual(code, 0, stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_embedded_altered_row_fails_the_run(self):
        self.check_fails_on_altered_row("snowflake-embedded")

    def test_socket_altered_row_fails_the_run(self):
        self.check_fails_on_altered_row("snowflake-socket")

    def test_renamed_cache_draw_altered_row_fails_the_run(self):
        self.check_fails_on_altered_row("zipf-cache")

    def test_unaltered_runs_pass(self):
        for workload in ("snowflake-embedded", "snowflake-socket",
                         "zipf-cache"):
            with self.subTest(workload=workload):
                self.check_passes(workload)


if __name__ == "__main__":
    unittest.main()
