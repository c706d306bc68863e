"""Self-test of the benchmark: wrong answers, exceptions, caps and
INCONCLUSIVE verdicts are counted as failures, the tracer sees calls
made through copied bindings, and the reference clock probes the machine
only while it runs.

    python3 -m unittest perfbench/test_perfbench.py

Run from the repository root.
"""

import json
import os
import random
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import refclock  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hocofin import cofinal, groups  # noqa: E402


def _ops(workload):
    return {op.name: op for op in workloads.build(workload, random.Random(7))}


def _failures(ops):
    _, records = run.run_pass(ops, range(len(ops)))
    return {name: failure for name, _, failure, _ in records}


class FailureCounting(unittest.TestCase):
    def test_injected_wrong_answer_is_a_failure(self):
        good = _ops("presentation-ladder")["fingerprint(Z2^*4)"]

        def wrong():
            fp = list(good.run())
            fp[3] += 1
            return tuple(fp)

        bad = workloads.Op(good.name + "/wrong", wrong, good.check)
        failures = _failures([good, bad])
        self.assertIsNone(failures[good.name])
        self.assertIn("fingerprint", failures[bad.name])

    def test_exception_and_cap_are_failures(self):
        def cap():
            raise groups.BudgetExceeded("hom count needs too many assignments")

        def bug():
            raise KeyError("x")

        failures = _failures([workloads.Op("cap", cap, lambda r: None),
                              workloads.Op("bug", bug, lambda r: None)])
        self.assertIn("BudgetExceeded", failures["cap"])
        self.assertIn("KeyError", failures["bug"])

    def test_inconclusive_is_a_failure(self):
        good = _ops("certify-ladder")["crown8"]
        bad = workloads.Op("crown8/inconclusive",
                           lambda: cofinal.ContractibilityVerdict(cofinal.INCONCLUSIVE),
                           good.check)
        failures = _failures([good, bad])
        self.assertIsNone(failures[good.name])
        self.assertIn("INCONCLUSIVE", failures[bad.name])

    def test_sweep_checks_exit_code_and_answer(self):
        good = _ops("theorem-sweep")["fingerprint --presentation x2y3"]
        code, out, err = good.run()
        report = json.loads(out)
        report["fingerprint"][2] += 1
        report["extra_key"] = "new keys are ignored"
        wrong_answer = workloads.Op("answer", lambda: (code, json.dumps(report), err), good.check)
        wrong_exit = workloads.Op("exit", lambda: (1, "", "error: boom"), good.check)
        failures = _failures([good, wrong_answer, wrong_exit])
        self.assertIsNone(failures[good.name])
        self.assertIn("/fingerprint", failures["answer"])
        self.assertIn("exit 1", failures["exit"])


class ClosedForms(unittest.TestCase):
    def test_group_homology(self):
        self.assertEqual(workloads.group_homology("Z4", "Z", 4),
                         [(1, ()), (0, (4,)), (0, ()), (0, (4,)), (0, ())])
        self.assertEqual(workloads.group_homology("Z5", "Z/2", 2), [(0, (2,)), (0, ()), (0, ())])
        self.assertEqual(workloads.group_homology("Z4", "Z/2", 2), [(0, (2,))] * 3)
        self.assertEqual(workloads.group_homology("S3", "Z", 3),
                         [(1, ()), (0, (2,)), (0, ()), (0, (6,))])

    def test_hom_count_oracle_matches_fingerprint(self):
        catalog = groups.catalog()
        for S in catalog:
            expected = groups.fingerprint_of_table_group(S)
            self.assertEqual(tuple(workloads.hom_count_oracle(S, T) for T in catalog), expected,
                             S.name)

    def test_seed_keeps_operations_and_sizes(self):
        for workload in ("derived-ladder", "certify-ladder"):
            a = workloads.build(workload, random.Random(1))
            b = workloads.build(workload, random.Random(2))
            self.assertEqual([op.name for op in a], [op.name for op in b])
            self.assertEqual([op.sizes() for op in a], [op.sizes() for op in b])


class Tracing(unittest.TestCase):
    def test_self_time(self):
        spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["c", 3.0, 4.0, 1],
                 ["d", 6.0, 7.0, 0]]
        self.assertEqual(tracing.self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_wrapper_sees_copied_bindings_and_uninstalls(self):
        original = groups.tietze_simplify
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # cofinal holds its own copy of the binding, made by from-import
            self.assertIsNot(cofinal.tietze_simplify, original)
            self.assertIs(cofinal.tietze_simplify, groups.tietze_simplify)
            tracer.enabled = True
            P = groups.GroupPresentation(["x"], [["x", "x"]])
            groups.fingerprint(P)
            cofinal.tietze_simplify(P)
        finally:
            tracer.uninstall()
        self.assertIs(cofinal.tietze_simplify, original)
        self.assertIs(groups.tietze_simplify, original)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names.count("groups.homcount"), len(groups.catalog()))
        self.assertEqual(names.count("groups.tietze"), 1)
        self.assertEqual(tracer.counts["groups.homcount_calls"], len(groups.catalog()))


class ReferenceClock(unittest.TestCase):
    def test_probes_run_while_started_and_the_clock_advances(self):
        probes_before, _ = refclock.probe_stats()
        refclock.start()
        try:
            t0 = refclock.now()
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                refclock.probe()
            t1 = refclock.now()
        finally:
            refclock.stop()
        probes, _ = refclock.probe_stats()
        self.assertGreaterEqual(probes - probes_before, 5)
        self.assertGreater(t1, t0)
        # stopped, it reads wall seconds from where it stood
        w0, c0 = time.perf_counter(), refclock.now()
        time.sleep(0.01)
        self.assertAlmostEqual(refclock.now() - c0, time.perf_counter() - w0, delta=0.005)
        self.assertEqual(refclock.probe_stats()[0], probes)


if __name__ == "__main__":
    unittest.main()
