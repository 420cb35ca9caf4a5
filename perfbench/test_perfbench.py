#!/usr/bin/env python3
"""Self-tests of the spoofscope benchmark.

    python3 perfbench/test_perfbench.py

They build the Release tree like run.py does (the first run takes about
a minute), then check that inputs are a pure function of the seed and
that every workload's correctness gate rejects a wrong expected digest.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class InputDeterminism(unittest.TestCase):
    def setUp(self):
        self.driver, _ = run.build()
        self.scratch = os.path.join(os.path.dirname(run.build_dir()),
                                    "selftest-%d" % os.getpid())
        shutil.rmtree(self.scratch, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def gen(self, seed, name):
        _, digests = run.generate_worlds(self.driver, seed, 1,
                                         os.path.join(self.scratch, name))
        return list(digests.values())[0]

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        first = self.gen(3, "a")
        again = self.gen(3, "b")
        other = self.gen(4, "c")
        self.assertEqual(set(first), {"ixp.trace", "route-server.mrt",
                                      "registry.rpsl", "churn-forward.mrt",
                                      "churn-inverse.mrt"})
        self.assertEqual(first, again)
        for name in ("ixp.trace", "route-server.mrt", "churn-forward.mrt",
                     "churn-inverse.mrt"):
            self.assertNotEqual(first[name], other[name], name)


class WrongDigestFailsTheRun(unittest.TestCase):
    def check(self, workload):
        done = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", workload, "--seed", "5", "--seconds", "1",
             "--trace", "0", "--expect-digest", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=600)
        self.assertEqual(done.returncode, 1, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_batch_classify(self):
        self.check("batch-classify")

    def test_batch_report(self):
        self.check("batch-report")

    def test_serve_churn(self):
        self.check("serve-churn")


if __name__ == "__main__":
    unittest.main()
