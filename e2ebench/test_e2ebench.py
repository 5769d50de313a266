#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark. From the repository root:

    python3 -m unittest discover -s e2ebench -p 'test_*.py' -v

Builds the benchmark first (as run.py does) and takes a few minutes: the
metric-presence test runs every workload in both modes.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

RUN_PY = os.path.join(bench.HERE, "run.py")


def tree(root):
    """Relative path -> sha256 of every file under root."""
    out = {}
    for d, _, files in os.walk(root):
        for name in files:
            path = os.path.join(d, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(
                    f.read()).hexdigest()
    return out


def read(path):
    with open(path, "rb") as f:
        return f.read()


class E2EBenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        bench.build()
        cls.tmp = bench.scratch_root("tests")
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def gen(self, workload, seed, name):
        root = os.path.join(self.tmp, name)
        os.makedirs(root)
        rc = subprocess.call([bench.BIN, "gen", "--workload", workload,
                              "--seed", str(seed), "--root", root])
        self.assertEqual(rc, 0)
        return root

    def run_bench(self, workload, trace, *extra):
        p = subprocess.run(
            [sys.executable, RUN_PY, "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace)] + list(extra),
            cwd=bench.ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr)
        lines = p.stdout.strip().splitlines()
        return json.loads(lines[-1]), json.loads(lines[-2])["context"]

    def test_generator_is_deterministic(self):
        for workload in ("analyze-dtb", "serve-mixed"):
            a = tree(self.gen(workload, 7, workload + "-a"))
            b = tree(self.gen(workload, 7, workload + "-b"))
            c = tree(self.gen(workload, 8, workload + "-c"))
            self.assertEqual(a, b, workload)
            self.assertEqual(a.keys(), c.keys(), workload)
            # Every input differs between seeds. Single files may not:
            # meta.csv holds only the cell and time span, and a public
            # cell's gNB log is empty by design.
            dirs = {os.path.dirname(p) for p in a} - {"inputs"}
            self.assertEqual(len(dirs), 20, workload)
            for d in dirs:
                files = [p for p in a if os.path.dirname(p) == d]
                self.assertNotEqual([a[p] for p in files],
                                    [c[p] for p in files], d)

    def test_analyze_session_matches_cli_byte_for_byte(self):
        root = self.gen("mirror", 1, "mirror")
        rc = subprocess.call([bench.BIN, "mirror", "--root", root,
                              "--config", bench.CONFIG])
        self.assertEqual(rc, 0)
        for i, form in enumerate(("csv", "dtb")):
            cli_report = os.path.join(root, form + ".cli.json")
            p = subprocess.run(
                [bench.CLI, "analyze", os.path.join(root, "inputs", form),
                 "--config", bench.CONFIG, "--json-report", cli_report],
                capture_output=True, text=True)
            self.assertEqual(p.returncode, 0, p.stderr)
            ours = os.path.join(root, "mirror", str(i))
            self.assertEqual(read(cli_report),
                             read(os.path.join(ours, "report.json")), form)
            self.assertIn(read(os.path.join(ours, "summary.txt")).decode(),
                          p.stdout, form)

    def test_every_metric_is_reported_with_its_unit(self):
        for workload in bench.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                res, ctx = self.run_bench(workload, trace)
                what = "%s trace=%d" % (workload, trace)
                self.assertTrue(res["correct"], what)
                self.assertEqual(res["failed"], 0, what)
                self.assertGreaterEqual(res["attempted"], 1, what)
                self.assertEqual(ctx["golden_checked"], True, what)
                want = {m["name"]: m["unit"] for m in self.spec[section]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want, what)
                for key in ("nproc", "build_type", "optimized", "compiler",
                            "commit", "seed", "gen_s", "threads", "workers",
                            "session_samples"):
                    self.assertIn(key, ctx, what)
                if trace == 0:
                    self.assertGreaterEqual(ctx["session_samples"], 100, what)
                    for name, m in res["metrics"].items():
                        self.assertGreater(m["value"], 0, name)
                elif workload == "analyze-dtb":
                    self.assertGreaterEqual(
                        res["metrics"]["trace.layer_self_frac"]["value"], 0.9)

    def test_damaged_output_counts_as_failed_session(self):
        for workload in ("analyze-dtb", "serve-mixed"):
            res, _ = self.run_bench(workload, 0, "--corrupt", "5")
            self.assertFalse(res["correct"], workload)
            self.assertEqual(res["failed"], 1, workload)
            self.assertGreater(res["attempted"], 1, workload)

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(self.tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(bench.HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "analyze-dtb",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("\"correct\"", p.stdout)


if __name__ == "__main__":
    unittest.main()
