"""Self-test of the benchmark itself (about two minutes).

    python3 perfbench/selftest.py

Checks that inputs depend only on the seed, that BENCHMARK.json is within
the benchmark contract and names exactly the metrics a run prints, and that
the digest check rejects an output with one form changed.  It also checks
that tracing refuses a wrapped name that the program no longer has.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_benchmark(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    return res.returncode, res.stdout, res.stderr


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in workloads.WORKLOADS:
            a = workloads.lemma_tsv(workloads.lemma_rows(workload, 3))
            b = workloads.lemma_tsv(workloads.lemma_rows(workload, 3))
            c = workloads.lemma_tsv(workloads.lemma_rows(workload, 4))
            self.assertEqual(a.encode(), b.encode(), workload)
            self.assertNotEqual(a, c, workload)

    def test_queries_depend_only_on_seed(self):
        rows = [(workloads.script(surface), surface, "kataba", "ktb", "00L0003", tag, "PERF", "ACT")
                for surface, tag in (("kataba", "3SM"), ("katabat·", "3SF"))]
        a = workloads.queries("lookup", 5, rows)
        self.assertEqual(a, workloads.queries("lookup", 5, rows))
        self.assertNotEqual(a, workloads.queries("lookup", 6, rows))

    def test_mixed_class_shape(self):
        rows = workloads.lemma_rows("mixed-class", 0)
        self.assertEqual(len(rows), len(workloads.bundled_entries()) + workloads.MIXED_SYNTHETIC)
        self.assertEqual(len({(r[0], r[2]) for r in rows}), len(rows))
        self.assertEqual({r[2] for r in rows}, set(workloads.SHAPES))


class Contract(unittest.TestCase):
    def test_benchmark_json_limits(self):
        spec = benchmark_json()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))
        runs = 4 + 22 * len(spec["workloads"])
        self.assertLess(runs * (spec["run_seconds"] + 15), 3420)

    def test_declared_metrics_match(self):
        spec = benchmark_json()
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))

    def test_printed_metrics_match(self):
        spec = benchmark_json()
        for workload, trace, declared in [(w, 0, spec["end_to_end"]) for w in workloads.WORKLOADS] + [
                ("mixed-class", 1, spec["per_layer"])]:
            code, out, err = run_benchmark(workload, trace)
            self.assertEqual(code, 0, err + out)
            result = json.loads(out.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, {m["name"]: m["unit"] for m in declared}, (workload, trace))
            for m in result["metrics"].values():
                self.assertIsInstance(m["value"], (int, float))


class DigestGate(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_one_form_mutation_is_rejected(self):
        import arabverb

        lemmas = workloads.write_inputs("mixed-class", 0, SCRATCH)
        forms, _stats = arabverb.generate_all(arabverb.load_lexicon(lemmas).entries)
        tsv = os.path.join(SCRATCH, "inflected.tsv")
        arabverb.write_lexicon(forms, tsv)
        expected = checks.expected_for("mixed-class", 0)
        self.assertEqual(checks.check_digest(tsv, expected), [])
        with open(tsv, encoding="utf-8") as fh:
            lines = fh.readlines()
        fields = lines[500].split("\t")
        fields[1] = fields[1][:-1] + ("i" if fields[1][-1] != "i" else "a")
        lines[500] = "\t".join(fields)
        with open(tsv, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        self.assertNotEqual(checks.check_digest(tsv, expected), [])


class Tracing(unittest.TestCase):
    def test_missing_site_is_an_error(self):
        import arabverb.pipeline

        import spans

        original = arabverb.pipeline.build_stems
        sites = spans.SITES
        spans.SITES = sites + (("arabverb.pipeline", "no_such_function", "stems.gone"),)
        try:
            with self.assertRaises(LookupError):
                spans.Tracer().install()
        finally:
            spans.SITES = sites
        self.assertIs(arabverb.pipeline.build_stems, original)


if __name__ == "__main__":
    unittest.main()
