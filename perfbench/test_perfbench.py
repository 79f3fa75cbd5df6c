"""Self-tests of the benchmark at a tiny request size.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SAMPLES = 50
STATES = 10
REQUESTS = 3
SEED = 5


def hooked_attributes() -> dict[tuple[str, str], object]:
    """Every attribute the tracer may replace, as it is now."""
    found = {}
    for module_name, class_name, attr, _, _ in tracing.HOOKS:
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        found[(repr(owner), attr)] = vars(owner)[attr]
    corpus = importlib.import_module("cstriple.corpus")
    for attr, value in vars(corpus).items():
        if attr.startswith("build_"):
            found[("corpus", attr)] = value
    state = importlib.import_module("cstriple.explorer").MacroState
    found[("MacroState", "is_feasible")] = vars(state)["is_feasible"]
    return found


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory(prefix=".perfbench-test-", dir=run.ROOT)
        cls.ctx = workloads.Context(run.ROOT, Path(cls._tmp.name), samples=SAMPLES, states=STATES)
        cls.spec = run.load_json(run.ROOT / "BENCHMARK.json")
        cls.layer_map = run.load_json(HERE / "layer_map.json")["metrics"]

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def traced_metrics(self, name: str) -> tuple[dict, run.Tally]:
        tally = run.Tally(name)
        metrics = run.per_layer(self.ctx, name, SEED, tally, REQUESTS)
        return metrics, tally

    def test_each_workload_passes_and_its_digest_repeats(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                tally = run.Tally(name)
                for _ in range(2):
                    outcomes = run.run_requests(self.ctx, name, SEED, REQUESTS)
                    tally.add(outcomes)
                self.assertEqual(tally.failed, 0)
                self.assertTrue(tally.check_digest(SEED, {"seed": SEED, "digests": {}}))
                wrong = {"seed": SEED, "digests": {name: "0" * 64}}
                self.assertFalse(tally.check_digest(SEED, wrong))

    def test_traced_run_restores_every_wrapped_attribute(self):
        before = hooked_attributes()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            during = hooked_attributes()
            self.assertTrue(all(during[key] is not before[key] for key in before))
        finally:
            tracer.uninstall()
        self.assertEqual(hooked_attributes(), before)
        self.traced_metrics("fuzz")
        self.assertEqual(hooked_attributes(), before)

    def test_exact_counts_repeat_between_traced_runs(self):
        exact = [m for m, info in self.layer_map.items() if info["exact"]]
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, tally_a = self.traced_metrics(name)
                second, tally_b = self.traced_metrics(name)
                self.assertEqual(tally_a.failed + tally_b.failed, 0)
                self.assertEqual({m: first[m] for m in exact}, {m: second[m] for m in exact})
        verify, _ = self.traced_metrics("verify-cold")
        self.assertGreater(verify["poly.mul.calls"], 0)
        self.assertGreater(verify["corpus.build.calls"], 0)

    def test_metric_names_agree_everywhere(self):
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(sorted(per_layer), sorted(self.layer_map))
        self.assertEqual(sorted(per_layer), sorted([*tracing.LAYER_METRICS, "trace.overhead_frac"]))
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]), sorted(workloads.WORKLOADS))
        metrics = run.end_to_end(self.ctx, "fuzz", SEED, 0.0, run.Tally("fuzz"))
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in self.spec["end_to_end"]))
        self.assertTrue(all(v > 0 for v in metrics.values()))

    def test_absent_hook_voids_its_metrics_only(self):
        tracer = tracing.Tracer()
        tracer.absent.add("explorer.case_classify")
        metrics = tracer.metrics(requests=1, samples=1, states=1)
        self.assertIsNone(metrics["explorer.case_classify.us"])
        self.assertEqual(sum(v is None for v in metrics.values()), 1)

    def test_wall_gate_flags_parallel_and_blocking_requests(self):
        tally = run.Tally("fuzz")
        self.assertTrue(tally.check_wall(0.15))  # nothing timed yet
        for ratio, ok in ((1.0, True), (1.1, True), (0.6, False), (1.3, False)):
            tally.wall_per_cpu = ratio
            self.assertEqual(tally.check_wall(0.15), ok)
        ratios = [o.wall_per_cpu for o in run.run_requests(self.ctx, "fuzz", SEED, 5)]
        self.assertAlmostEqual(sorted(ratios)[2], 1.0, delta=0.15)

    def test_stored_digests_cover_every_workload(self):
        stored = json.loads((HERE / "digests.json").read_text())
        self.assertEqual(sorted(stored["digests"]), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
