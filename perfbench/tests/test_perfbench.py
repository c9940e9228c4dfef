"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench/tests
    python3 -m pytest perfbench/tests

Run from the root of a hankelab checkout.  They run every workload at a
tiny size, feed corrupted outputs to the golden checkers, and check that the
tracer's wrappers return exactly what the wrapped functions return.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(PERFBENCH.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402


def tearDownModule():
    shutil.rmtree(run.WORK, ignore_errors=True)


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_emits_every_named_metric_with_its_unit(self):
        spec = run.bench_spec()
        run.WORK.mkdir(exist_ok=True)
        for workload in spec["workloads"]:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    units = {m["name"]: m["unit"] for m in spec[section]}
                    result = run.run_workload(workload["name"], 7, 0, trace, tiny=True)
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        run.print_result(result, units)
                    last = json.loads(out.getvalue().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(last["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in last["metrics"].items()}, units
                    )
                    if not trace:
                        self.assertTrue(all(v["value"] > 0 for v in last["metrics"].values()))

    def test_same_seed_same_inputs(self):
        for name in ("acceptance", "cli-queries", "point-screen"):
            workload = run.make_workload(name)
            self.assertEqual(workload.plan(3, 0), workload.plan(3, 0))
            self.assertNotEqual(workload.plan(3, 0), workload.plan(4, 0))


class GoldenCheckers(unittest.TestCase):
    def setUp(self):
        self.sweep = run.make_workload("acceptance")
        self.items = self.sweep.plan(1, 0)
        self.rows = sorted(self.sweep.expected(self.items), key=run.row_sort_key)
        self.good = "\n".join(run.row_text(r) for r in self.rows) + "\n"

    def test_golden_rows_pass(self):
        failed, statuses = run.compare_rows(self.good, self.sweep.expected(self.items))
        self.assertEqual(failed, 0)
        self.assertEqual(dict(statuses), {"pass": len(self.rows)})

    def test_one_corrupted_row_is_rejected(self):
        rows = [dict(r) for r in self.rows]
        rows[17]["status"] = "fail"
        text = "\n".join(run.row_text(r) for r in rows)
        failed, statuses = run.compare_rows(text, self.sweep.expected(self.items))
        self.assertEqual(failed, 1)
        self.assertEqual(statuses["fail"], 1)

    def test_missing_and_unsorted_rows_are_rejected(self):
        lines = self.good.splitlines()
        self.assertEqual(run.compare_rows("\n".join(lines[1:]), self.rows)[0], 1)
        swapped = lines[1:2] + lines[:1] + lines[2:]
        self.assertGreaterEqual(run.compare_rows("\n".join(swapped), self.rows)[0], 1)

    def test_full_sweep_golden_is_the_802_pass_rows(self):
        golden = self.sweep.golden
        self.assertEqual(golden["histogram"], {"pass": 802})
        self.assertEqual(sum(len(v) for v in golden["rows"].values()), 802)

    def test_one_wrong_det_string_is_rejected(self):
        cli = run.make_workload("cli-queries")
        query = next(q for q in run.cli_queries() if "--x" in q)
        expected = cli.golden[" ".join(query)]
        self.assertTrue(cli.matches(query, 0, expected))
        wrong = expected.replace(expected.strip()[-1], "0" if expected.strip()[-1] != "0" else "1")
        self.assertFalse(cli.matches(query, 0, wrong))
        self.assertFalse(cli.matches(query, 2, expected))


class Tracer(unittest.TestCase):
    def test_wrapped_functions_return_identical_results(self):
        import hankelab.checks as checks
        import hankelab.closed_forms as closed_forms
        from hankelab.factor import factor_smooth
        from hankelab.hankel import det_fraction_free, hankel_matrix
        from hankelab.identities import SYMBOLIC_RELATIONS, relation_residuals_at
        from hankelab.sequences import F21, F31

        def compute():
            return (
                det_fraction_free(hankel_matrix(F31, 5)),
                [relation_residuals_at(r, 4, Fraction(97, 5)) for r in SYMBOLIC_RELATIONS],
                checks.run_check("dodgson", F21, [1, 2, 3]),
                checks.run_check("ap31", None, [0, 1, 2]),
                factor_smooth(2**40 * 3**7 * 1000003),
            )

        plain = compute()
        original = checks.hankel_det
        with tempfile.TemporaryDirectory() as tmp:
            rec, uninstall = tracer.install(tmp)
            try:
                self.assertIs(checks.hankel_det.__wrapped__, original)
                self.assertIs(closed_forms.hankel_det, checks.hankel_det)
                import hankelab.factor
                import hankelab.hankel
                import hankelab.identities

                wrapped = (
                    hankelab.hankel.det_fraction_free(hankel_matrix(F31, 5)),
                    [hankelab.identities.relation_residuals_at(r, 4, Fraction(97, 5))
                     for r in SYMBOLIC_RELATIONS],
                    checks.run_check("dodgson", F21, [1, 2, 3]),
                    checks.run_check("ap31", None, [0, 1, 2]),
                    hankelab.factor.factor_smooth(2**40 * 3**7 * 1000003),
                )
            finally:
                uninstall()
            self.assertEqual(wrapped, plain)
            self.assertIs(checks.hankel_det, original)
            rec.dump()
            summary = tracer.summarize(tracer.load_dir(tmp))
        self.assertGreater(summary["calls"]["hankel.det_fraction_free"], 0)
        self.assertGreater(summary["calls"]["checks.run_check"], 0)

    def test_self_time_from_spans(self):
        rec = tracer.Recorder("unused")
        times = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
        rec.clock = lambda: next(times)
        inner = rec.wrap("m.inner", lambda: None)
        outer = rec.wrap("m.outer", lambda: (inner(), inner()))
        outer()
        procs = [{
            "worker": False, "names": rec.names, "counters": {}, "keys": {},
            "cols": (rec.name_col, rec.parent_col, rec.start_col, rec.end_col),
        }]
        summary = tracer.summarize(procs)
        self.assertEqual(summary["incl_s"], {"m.outer": 10.0, "m.inner": 2.5})
        self.assertEqual(summary["self_s"], {"m.outer": 7.5, "m.inner": 2.5})
        self.assertEqual(summary["top_level_s"], 10.0)


class Speed(unittest.TestCase):
    def test_reference_wall_at_reference_speed(self):
        ref = speed.REF_SAMPLE_S
        samples = [(t * 0.1, ref, False) for t in range(11)]
        self.assertAlmostEqual(speed.reference_wall(0.0, 1.0, samples, 1), 1.0 - 11 * ref)

    def test_reference_wall_follows_a_slowdown(self):
        ref = speed.REF_SAMPLE_S
        # first half at reference speed, second half twice as slow
        samples = [(0.1, ref, False), (0.6, 2 * ref, False)]
        wall = speed.reference_wall(0.0, 1.0, samples, 1)
        self.assertAlmostEqual(wall, (0.5 - ref) + (0.5 - 2 * ref) / 2)


if __name__ == "__main__":
    unittest.main()
