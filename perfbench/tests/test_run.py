"""Tests of perfbench/run.py's result checks.

Run: python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
(python3 perfbench/run.py --selftest runs these and the C++ selftest).
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class Traced(unittest.TestCase):
    def test_trace_value(self):
        self.assertTrue(run.traced(["--workload", "x", "--trace", "1"]))
        self.assertTrue(run.traced(["--trace=1", "--workload=x"]))
        self.assertFalse(run.traced(["--workload", "x", "--trace", "0"]))
        self.assertFalse(run.traced(["--workload", "x"]))


class CheckResult(unittest.TestCase):
    EXPECTED = {"setup_s": "s", "latency_ms": "ms"}

    def line(self, **over):
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"setup_s": {"value": 0.5, "unit": "s"},
                              "latency_ms": {"value": 1.25,
                                                 "unit": "ms"}}}
        result.update(over)
        return json.dumps(result)

    def test_valid(self):
        self.assertIsNone(run.check_result(self.line(), self.EXPECTED))

    def test_invalid(self):
        self.assertIsNotNone(run.check_result("not json", self.EXPECTED))
        self.assertIsNotNone(
            run.check_result(self.line(attempted=0), self.EXPECTED))
        self.assertIsNotNone(
            run.check_result(self.line(failed=1.5), self.EXPECTED))
        self.assertIsNotNone(
            run.check_result(self.line(metrics={}), self.EXPECTED))
        wrong_unit = {"setup_s": {"value": 0.5, "unit": "ms"},
                      "latency_ms": {"value": 1.0, "unit": "ms"}}
        self.assertIsNotNone(
            run.check_result(self.line(metrics=wrong_unit), self.EXPECTED))
        extra = json.loads(self.line())
        extra["note"] = 1
        self.assertIsNotNone(run.check_result(json.dumps(extra),
                                              self.EXPECTED))


class Contract(unittest.TestCase):
    def test_binary_names_match_benchmark_json(self):
        """The C++ contract lists must equal BENCHMARK.json's."""
        end_to_end, per_layer = run.contract()
        with open(os.path.join(run.HERE, "src", "main.cpp")) as f:
            src = f.read()
        for name in list(end_to_end) + list(per_layer):
            self.assertIn('"%s"' % name, src)


if __name__ == "__main__":
    unittest.main()
