"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that a seed fixes the inputs, that tracing leaves every job's
output unchanged, that a job past its time cap is recorded as failed while
the run goes on, and that the facets check refuses incomplete output.  (The file name keeps pytest's default collection away.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = str(ROOT / "src")  # for the cli children

import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        script = ("import sys, json, jobs; w, s = sys.argv[1], int(sys.argv[2]); "
                  "print(json.dumps([jobs.describe(jobs.job(w, s, i)) for i in range(300)]))")
        for workload in jobs.WORKLOADS:
            here = [jobs.describe(jobs.job(workload, 7, i)) for i in range(300)]
            # a fresh interpreter with another hash seed draws the same stream
            env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(HERE))
            out = subprocess.run([sys.executable, "-c", script, workload, "7"], env=env,
                                 capture_output=True, text=True, check=True).stdout
            self.assertEqual(here, json.loads(out), workload)
            other = [jobs.describe(jobs.job(workload, 8, i)) for i in range(300)]
            self.assertNotEqual(here, other, workload)


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_digests_match(self):
        out_dir = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_selftest"))
        try:
            for workload, n in (("facets", 48), ("verify", 12), ("cli", 10)):
                digests = []
                for trace in (0, 1):
                    res, _ = run._worker(ROOT, out_dir, workload, 3, "replay", f"t{trace}",
                                         timeout=120, jobs=n, trace=trace)
                    self.assertTrue(all(r["ok"] for r in res["records"]), workload)
                    digests.append([r["digest"] for r in res["records"]])
                self.assertEqual(len(digests[0]), n)
                self.assertEqual(digests[0], digests[1], workload)
        finally:
            shutil.rmtree(out_dir)


class Caps(unittest.TestCase):
    def _loop(self, workload, count):
        import reesmult

        return worker.loop(workload, 0, reesmult, {}, count=count)[0]

    def test_job_past_time_cap_fails_and_run_goes_on(self):
        caps = dict(worker.JOB_CAP_S)
        try:
            worker.JOB_CAP_S.update(facets=1e-6, cli=0.01)
            capped = self._loop("facets", 5) + self._loop("cli", 2)
        finally:
            worker.JOB_CAP_S.update(caps)
        self.assertEqual(len(capped), 7)
        for rec in capped:
            self.assertFalse(rec["ok"])
            self.assertTrue(rec["reason"].startswith("time cap"), rec["reason"])
        # the process is usable afterwards: the same jobs pass under the real caps
        self.assertTrue(all(r["ok"] for r in self._loop("facets", 5)))


class Oracle(unittest.TestCase):
    def test_incomplete_or_invented_facets_fail(self):
        import reesmult

        for i in range(40):
            job = jobs.job("facets", 0, i)
            _, out = jobs.run(reesmult, "facets", job)
            self.assertIsNone(jobs.check("facets", job, out), job)
            if job[0] == "dual":
                _, rank, rays = job
                normals = [h.normal for h in out.facets]
                for k in range(len(normals)):
                    self.assertIsNotNone(oracle.cone_facet_problem(
                        rays, normals[:k] + normals[k + 1:], rank), job)
                self.assertNotEqual(set(out.rays[1:]),
                                    oracle.extreme_rays(rays, normals, rank), job)
            else:
                a, poly, _ = out
                facets = [(h.normal, h.threshold) for h in poly.facets]
                for k in range(len(facets)):
                    self.assertIsNotNone(oracle.newton_facet_problem(
                        a.generators, facets[:k] + facets[k + 1:], a.nvars), job)
                normal, c = facets[0]
                self.assertIsNotNone(oracle.newton_facet_problem(
                    a.generators, facets[1:] + [(normal, c - 1)], a.nvars), job)


if __name__ == "__main__":
    unittest.main()
