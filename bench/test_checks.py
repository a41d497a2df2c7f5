"""Tests of the benchmark's output checks: a report with one value perturbed
must fail them.

    python3 bench/test_checks.py

Each workload runs once, untraced, from the root of the checkout; its checks
must pass on the real reports and fail on each perturbed copy, with the
message of the independent check (not of the CSV-against-JSON comparison,
which runs last).
"""
from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path

import checks
import run


def rewrite(path: Path, edit) -> None:
    document = json.loads(path.read_text(encoding="utf-8"))
    edit(document)
    path.write_text(json.dumps(document), encoding="utf-8")


class WorkloadChecks(unittest.TestCase):
    workload = ""
    seed = 5

    @classmethod
    def setUpClass(cls):
        cls.work = run.RUNS / f"test-{cls.workload}"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        cls.plan = run.PLANS[cls.workload](cls.seed, cls.work)
        result = run.run_round(cls.plan, cls.work, traced=False)
        assert result.failed == 0 and result.wrong == 0, "workload failed on its real outputs"
        cls.pristine = cls.work / "pristine"
        shutil.copytree(cls.work / "round", cls.pristine)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def setUp(self):
        shutil.rmtree(self.work / "round")
        shutil.copytree(self.pristine, self.work / "round")

    def assertFails(self, op: int, report: str, edit, message: str):
        rewrite(self.work / "round" / report, edit)
        with self.assertRaisesRegex(checks.CheckError, message):
            self.plan.ops[op].check()


class GridChecks(WorkloadChecks):
    workload = "grid"

    def test_real_report_passes(self):
        self.plan.ops[0].check()

    def test_gross_shift_of_one_cell_fails(self):
        for k, key, factor in ((115, "crps_sum_mean", 2.0), (3, "es_mean", 0.4), (200, "es_mean", 1.6)):
            with self.subTest(cell=k, key=key):
                self.setUp()

                def shift(doc, k=k, key=key, factor=factor):
                    doc["cells"][k][key] *= factor

                self.assertFails(0, "sensitivity/sensitivity.json", shift, "off its expectation")

    def test_shift_of_every_cell_fails(self):
        def shift(doc):
            for cell in doc["cells"]:
                cell["es_mean"] += 1.5 * cell["stderr_es"]
        self.assertFails(0, "sensitivity/sensitivity.json", shift, "es standard errors")

    def test_relative_change_fails(self):
        def nudge(doc):
            doc["cells"][40]["delta_rel_es"] *= 1.0 + 1e-6
        self.assertFails(0, "sensitivity/sensitivity.json", nudge, "delta_rel_es")


class SweepChecks(WorkloadChecks):
    workload = "sweep"

    def test_each_value_perturbed_fails(self):
        for row in range(len(run.SWEEP_SIGMAS)):
            for key in ("crps_sum", "crps", "es"):
                with self.subTest(row=row, key=key):
                    self.setUp()

                    def nudge(doc, row=row, key=key):
                        doc["rows"][row][key] *= 1.0 + 1e-6

                    self.assertFails(0, "sigma-sweep/sigma_sweep.json", nudge, f"sweep: sigma=.* {key}")


class RoundtripChecks(WorkloadChecks):
    workload = "roundtrip"

    def test_exchange_eval_values_fail(self):
        for where, key in (("split_0", "crps_sum"), ("split_3", "es"), ("pooled", "crps"),
                           ("pooled", "crps_per_dim")):
            with self.subTest(where=where, key=key):
                self.setUp()

                def nudge(doc, where=where, key=key):
                    rep = doc["pooled"] if where == "pooled" else doc["splits"][where]
                    if key == "crps_per_dim":
                        rep[key][5] *= 1.0 + 1e-6
                    else:
                        rep[key] *= 1.0 + 1e-6

                self.assertFails(0, "exchange-eval/scores.json", nudge, f"{where}.{key}")

    def test_score_values_fail(self):
        for op in range(1, len(self.plan.ops)):
            for key in ("crps_sum", "crps", "es"):
                with self.subTest(op=op, key=key):
                    self.setUp()

                    def nudge(doc, key=key):
                        doc[key] *= 1.0 + 1e-6

                    self.assertFails(op, f"score_{op - 1}/score.json", nudge, f"score_{op - 1}.{key}")

    def test_short_dump_fails(self):
        dump = self.work / "round" / "exchange-eval" / "samples_split_1.csv"
        lines = dump.read_text(encoding="ascii").splitlines(keepends=True)
        dump.write_text("".join(lines[:-1]), encoding="ascii")
        with self.assertRaisesRegex(checks.CheckError, "rows, expected"):
            self.plan.ops[0].check()


if __name__ == "__main__":
    if not (run.SRC / "scorecast" / "cli.py").is_file():
        sys.exit(f"no scorecast sources under {run.SRC}")
    unittest.main()
