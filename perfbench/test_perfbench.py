"""Tests of the benchmark itself: ``python3 -m unittest discover -s perfbench``."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class ReferenceTest(unittest.TestCase):
    def test_known_sequence_starts(self):
        starts = {  # as listed in the README's catalog table
            "trianglefree": [1, 0, 1, 1, 4, 8, 25],
            "oddtiles": [1, 1, 2, 6, 20, 71, 264],
            "eventiles": [1, 0, 1, 0, 4, 0, 21],
            "schroeder": [1, 1, 3, 11, 45, 197],
            "catalan": [1, 1, 2, 5, 14, 42],
            "motzkin": [1, 1, 2, 4, 9, 21],
        }
        for name, start in starts.items():
            self.assertEqual(reference.catalog_terms(name, len(start)), start, name)

    def test_golden_files_are_reference_output(self):
        table = json.loads((reference.GOLDEN / "verify.json").read_text(encoding="ascii"))
        for name in reference.CATALOG:
            self.assertEqual(table[name], reference.catalog_terms(name, reference.VERIFY_COUNT))
            golden = (reference.GOLDEN / "bfile" / f"{name}.txt").read_bytes()
            self.assertEqual(golden, reference.bfile_bytes(reference.catalog_terms(name, reference.BFILE_COUNT)))

    def test_tail_with_step_matches_keyword(self):
        self.assertEqual(reference.parse_spec("3+"), reference.KEYWORDS["any"])
        self.assertEqual(reference.tile_terms(reference.parse_spec("4,3+"), 30),
                         reference.tile_terms(reference.KEYWORDS["any"], 30))


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_tiles_argv(self):
        def argv(seed):
            return [c.argv for c in run.tiles_mix(seed)]

        self.assertEqual(argv(7), argv(7))
        self.assertNotEqual(argv(7), argv(8))
        self.assertEqual(len(argv(7)), run.TILES_COMMANDS)

    def test_tiles_specs_follow_the_grammar(self):
        for seed in range(20):
            for spec in run.tiles_specs(seed):
                if spec in reference.KEYWORDS:
                    continue
                entries = spec.split(",")
                self.assertLessEqual(len(entries), 3, spec)
                sizes = [int(e.rstrip("+")) for e in entries]
                self.assertTrue(all(3 <= s <= 12 for s in sizes), spec)
                self.assertEqual(sizes, sorted(set(sizes)), spec)


class CheckTest(unittest.TestCase):
    def test_flipped_digit_in_bfile_fails_the_command(self):
        golden = (reference.GOLDEN / "bfile" / "catalan.txt").read_bytes()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "catalan.b"
            command = run.Command(["bfile", "catalan", "--count", "250", "--out", str(path)],
                                  run.check_bfile(path, golden))
            good = run.execute(command.argv, trace=False)
            self.assertIsNone(run.judge(command, good))

            out = run.execute(command.argv, trace=False)
            data = bytearray(path.read_bytes())
            at = len(data) - 2  # last digit of the last term
            data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
            path.write_bytes(bytes(data))
            error = run.judge(command, out)
        self.assertIsNotNone(error)
        passes = [run.Pass(False, [good, out], [None, error])]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            result = run.report("bfile-deep", passes, trace=False)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 2, 1))

    def test_nonzero_exit_fails_the_command(self):
        command = run.Command(["verify", "nosuch"], lambda out: None)
        self.assertIsNotNone(run.judge(command, run.execute(command.argv, trace=False)))


class TraceTest(unittest.TestCase):
    def test_spans_reach_every_traced_layer(self):
        out = run.execute(["verify", "motzkin", "--count", "6"], trace=True)
        self.assertEqual(out.rc, 0, out.stderr)
        layers = {span[0] for span in out.spans}
        # closed forms are reached only through the values of cli._CLOSED_FORMS
        self.assertLessEqual({"cli", "closed_forms", "symbols", "power_series.lagrange_coefficients",
                              "dissection_oracle.count_chord_diagrams"}, layers)
        self.assertGreater(out.counts["exact_arith"], 0)
        roots = [span for span in out.spans if span[1] is None]
        self.assertEqual([span[0] for span in roots], ["cli"])

        metrics = run.layer_metrics(run.Pass(True, [out], [None]))
        self.assertEqual(metrics["dissection_oracle.chord_sets_visited"], sum(reference.motzkin_terms(6)))
        self.assertEqual(metrics["power_series.revert_direct.calls"], 0)
        self.assertEqual(metrics["dissection_oracle.dissections_per_s"], 0)
        self.assertEqual(set(metrics) | {"trace.overhead_ratio"}, set(run.PER_LAYER))

    def test_times_leave_out_probes_and_scale_to_reference_speed(self):
        probes = child.Probes()
        start = probes.clock()
        probes.probe()
        self.assertLess(probes.clock() - start, probes.times[0])
        out = run.execute(["verify", "motzkin", "--count", "6"], trace=False)
        self.assertGreaterEqual(len(out.probe_s), 2 * child.EDGE_PROBES)
        half_speed = run.Outcome(rc=0, main_s=2.0, probe_s=[2 * run.REFERENCE_PROBE_S] * 3)
        self.assertEqual(half_speed.scaled_s, 1.0)

    def test_self_times_subtract_children(self):
        spans = [["cli", None, 0.0, 10.0, None], ["symbols", 0, 1.0, 2.0, None],
                 ["closed_forms", 0, 3.0, 7.0, None], ["symbols", 2, 4.0, 5.0, None]]
        self.assertEqual(run.spans.self_times(spans), {"cli": 5.0, "symbols": 2.0, "closed_forms": 3.0})


class ContractTest(unittest.TestCase):
    def run_benchmark(self, root: Path, trace: int) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bfile-deep", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=300,
        )

    def test_metric_tables_match_benchmark_json(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[key]}
            self.assertEqual(listed, table)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))

    def test_one_command_prints_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = self.run_benchmark(HERE.parent, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertEqual((result["correct"], result["failed"]), (True, 0))
            expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()}, expected)
            for name, unit in expected.items():
                self.assertTrue(any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines[:-1]),
                                name)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copy(HERE.parent / "BENCHMARK.json", root)
            shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.run_benchmark(root, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
