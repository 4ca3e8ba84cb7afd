"""Self-test of the benchmark.

    python3 perfbench/test_bench.py        (or: python3 -m pytest perfbench)

A tiny-size smoke run checks the output schema and the metric names against
BENCHMARK.json; perturbed results check that the correctness gate fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class SchemaTest(unittest.TestCase):
    def test_declared_metrics_match_the_code(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], list(spans.PER_LAYER))
        for m in SPEC["per_layer"]:
            self.assertEqual(m["unit"], spans.metric_unit(m["name"]), m["name"])

    def test_smoke_runs(self):
        declared = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result = tiny_run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = {m["name"]: m["unit"] for m in declared[trace]}
                    self.assertEqual(set(result["metrics"]), set(names))
                    for name, entry in result["metrics"].items():
                        self.assertEqual(set(entry), {"value", "unit"})
                        self.assertEqual(entry["unit"], names[name])
                        self.assertIsInstance(entry["value"], (int, float))
                    if trace and workload == "census":
                        m = result["metrics"]
                        self.assertEqual(m["polynomial.mul.calls"]["value"], 0)
                        self.assertGreater(m["enumeration.sigma_to_pair.calls"]["value"], 0)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lf, _ = worker.load_program()

    def gate(self, wl, out) -> workloads.Gate:
        gate = workloads.Gate()
        wl.check(out, gate)
        return gate

    def test_catalogue_gate(self):
        wl = workloads.Catalogue(self.lf, 5, "tiny")
        out = wl.run_pass(lambda: None)
        self.assertEqual(self.gate(wl, out).failed, 0)
        bad = list(out)
        bad[3] = dict(bad[3], residual="λ", verdict="fail")
        self.assertEqual(self.gate(wl, bad).failed, 1)
        self.assertEqual(self.gate(wl, out[:-1]).failed, 1)  # one report missing

    def test_census_gate(self):
        wl = workloads.Census(self.lf, 5, "tiny")
        out = wl.run_pass(lambda: None)
        self.assertEqual(self.gate(wl, out).failed, 0)
        shape, strata = out[0]
        moved = dict(strata)
        moved[0] -= 1
        moved[1] += 1  # same total, two wrong strata
        self.assertEqual(self.gate(wl, [(shape, moved)] + out[1:]).failed, 2)
        self.assertGreater(self.gate(wl, [(shape, None)] + out[1:]).failed, 0)

    def test_families_gate(self):
        wl = workloads.Families(self.lf, 5, "tiny")
        out = wl.run_pass(lambda: None)
        self.assertEqual(self.gate(wl, out).failed, 0)
        for i, (table, args, p) in enumerate(out):
            with self.subTest(table=table):
                bad = out[:i] + [(table, args, p + 1)] + out[i + 1:]
                self.assertGreater(self.gate(wl, bad).failed, 0)

    def test_failed_checks_raise_failed_ratio(self):
        ok = {"attempted": 10, "failed": 0}
        self.assertEqual(run.gate_totals([ok, ok]), (20, 0, 0.0))
        self.assertEqual(run.gate_totals([ok, {"attempted": 10, "failed": 1}]), (20, 1, 0.05))


class SpansTest(unittest.TestCase):
    def test_self_time_and_file_round_trip(self):
        tr = spans.Tracer()
        a = tr.open(tr.name_id("outer"))
        b = tr.open(tr.name_id("inner"))
        tr.close(b)
        tr.close(a)
        agg = tr.aggregate()
        inner = tr.end[b] - tr.start[b]
        outer = tr.end[a] - tr.start[a]
        self.assertAlmostEqual(agg["outer"]["self_s"], outer - inner)
        self.assertAlmostEqual(agg["inner"]["self_s"], inner)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.bin"
            tr.write(path)
            names, rows = spans.read_spans(path)
        self.assertEqual(names, ["outer", "inner"])
        self.assertEqual([r[:2] for r in rows], [(0, -1), (1, 0)])

    def test_install_wraps_every_binding(self):
        # A fresh interpreter, so this process keeps the unwrapped package.
        code = f"""
import sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]
import lambdafact.cli, lambdafact.identities
from lambdafact.identities import catalogue, umbral
from lambdafact.polynomial import Polynomial
import spans
spans.ENTRY_POINTS += (("gone.fn", "lambdafact.sequences", "no_such_function", None),)
done = spans.install(spans.Tracer())
assert done["absent"] == ["gone.fn"], done["absent"]
assert Polynomial.__rmul__ is Polynomial.__mul__ and hasattr(Polynomial.__mul__, "__wrapped__")
assert Polynomial.__radd__ is Polynomial.__add__ and hasattr(Polynomial.__add__, "__wrapped__")
assert catalogue._A_FAMILIES["bell"] is lambdafact.sequences.bell_poly
assert hasattr(lambdafact.sequences.bell_poly, "__wrapped__")
assert catalogue.umbral_eval is umbral.umbral_eval and hasattr(umbral.umbral_eval, "__wrapped__")
assert catalogue.abel_rhs is lambdafact.series.abel_rhs is lambdafact.abel_rhs
assert hasattr(catalogue.mul_truncated, "__wrapped__")
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
