"""Tests of run.py's own logic.

    python3 -m unittest discover -s perfbench/tests

(`python3 perfbench/run.py --self-test` runs these and the C++ tests.)
"""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


class EmitterTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_names_and_units_match_benchmark_json(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = [(m["name"], m["unit"]) for m in self.bench[key]]
            self.assertEqual(declared, list(table.items()), key)
            emitted = run.emit({name: 1.5 for name in table}, table)
            self.assertEqual([(n, v["unit"]) for n, v in emitted.items()], declared)

    def test_layer_map_covers_every_per_layer_metric(self):
        layers = json.loads((BENCH / "layers.json").read_text())
        self.assertEqual(sorted(layers["layers"]), sorted(run.PER_LAYER))
        end_to_end = set(run.END_TO_END)
        workloads = {w["name"] for w in self.bench["workloads"]}
        self.assertEqual(set(layers["workloads"]), workloads)
        for name, entry in layers["layers"].items():
            self.assertTrue(entry["measured_at"], name)
            for claim in entry["moves"]:
                self.assertIn(claim["metric"], end_to_end, name)
                self.assertIn(claim["workload"], workloads, name)


class ArtifactCheckTest(unittest.TestCase):
    def test_one_flipped_byte_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a.boundary"), Path(tmp, "b.boundary")
            data = bytes(range(256)) * 8
            a.write_bytes(data)
            b.write_bytes(data)
            self.assertTrue(run.same_artifact(a, b))
            flipped = bytearray(data)
            flipped[777] ^= 0x10
            b.write_bytes(bytes(flipped))
            self.assertFalse(run.same_artifact(a, b))
            self.assertFalse(run.same_artifact(a, Path(tmp, "missing")))

    def test_reference_check_reports_a_flipped_published_byte(self):
        with tempfile.TemporaryDirectory() as tmp:
            ref = Path(tmp, "ref")
            work = Path(tmp, "work")
            (work / "ops").mkdir(parents=True)
            ref.mkdir()
            op = {"index": 0, "ok": True, "seed": "9", "key": "cg@default@9", "overrides": ""}
            data = b"FTB boundary bytes" * 10
            (ref / "cg@default@9.boundary").write_bytes(data)
            (work / "ops" / "0.boundary").write_bytes(data)
            checkout = SimpleNamespace(reference=lambda *args: ref)
            results = {"ops": [op]}
            self.assertEqual(run.check_references(checkout, "campaign", 1, results, work), ([], 1))
            flipped = bytearray(data)
            flipped[3] ^= 0x01
            (work / "ops" / "0.boundary").write_bytes(bytes(flipped))
            errors, checked = run.check_references(checkout, "campaign", 1, results, work)
            self.assertEqual(checked, 1)
            self.assertEqual(len(errors), 1)


class CountsTest(unittest.TestCase):
    def test_counts_must_repeat_for_a_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            checkout = SimpleNamespace(state=Path(tmp))

            def results(executed):
                return {
                    "ops": [{"index": 0, "ok": True, "counts": f"executed={executed}"}],
                    "canary": {"counts": "executed=20000"},
                    "trace_counts": ["journal_bytes=10", "queries flip=3 site=4"],
                }

            self.assertEqual(run.check_counts(checkout, "campaign", 4, True, results(20000)), [])
            self.assertEqual(run.check_counts(checkout, "campaign", 4, False, results(20000)), [])
            self.assertEqual(len(run.check_counts(checkout, "campaign", 4, False, results(19999))), 1)
            # Another seed keeps its own record.
            self.assertEqual(run.check_counts(checkout, "campaign", 5, False, results(19999)), [])


if __name__ == "__main__":
    unittest.main()
