#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/test_bench.py

It runs every workload at tiny size, untraced and traced, and checks each
result line against BENCHMARK.json (keys, metric names, units, numeric
values); feeds each correctness check a good and a tampered program output;
checks that a failing `run_all` is reported as an incorrect run; and checks
that the benchmark refuses to run without the repository.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

sys.dont_write_bytecode = True
_spec = importlib.util.spec_from_file_location("bench", os.path.join(HERE, "run.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def run_bench(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class TinyWorkloads(unittest.TestCase):
    """Every workload end to end at tiny size, in both modes."""

    def check_result(self, workload, trace):
        p = run_bench(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], p.stderr[-2000:])
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in want])
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        fingerprint = json.loads(lines[-2])["fingerprint"]
        for key in ("nproc", "cpu", "rustc", "git_rev", "seed", "live_fsync"):
            self.assertIn(key, fingerprint)
        if trace:
            self.assertTrue(any(l.startswith(f"coverage {workload}:") for l in lines))

    def test_churn(self):
        self.check_result("churn", 0)
        self.check_result("churn", 1)

    def test_hetero(self):
        self.check_result("hetero", 0)
        self.check_result("hetero", 1)

    def test_live(self):
        self.check_result("live", 0)
        self.check_result("live", 1)

    def test_paper(self):
        self.check_result("paper", 0)
        self.check_result("paper", 1)


REPORT = """\
algorithm      : FF
router         : hash
shards         : 2
sessions       : 10
busy ticks     : 500
ledger         : conserved
  shard  0     : 6 sessions, 300 busy ticks, 3 servers
  shard  1     : 4 sessions, 200 busy ticks, 2 servers
"""


class Checks(unittest.TestCase):
    """Each correctness check passes the real output and catches a fault."""

    expect = {"items": 10, "bill_ticks": 500, "lb_ticks": 400}

    def test_batch(self):
        self.assertEqual(bench.batch_checks(REPORT, 0, self.expect, hetero=True), [])
        self.assertTrue(bench.batch_checks(REPORT, 1, self.expect, hetero=False))
        wrong_bill = REPORT.replace("busy ticks     : 500", "busy ticks     : 501")
        self.assertTrue(bench.batch_checks(wrong_bill, 0, self.expect, hetero=False))
        lost = REPORT.replace("4 sessions", "3 sessions")
        self.assertTrue(bench.batch_checks(lost, 0, self.expect, hetero=False))
        leaky = REPORT.replace("conserved", "NOT CONSERVED")
        self.assertTrue(bench.batch_checks(leaky, 0, self.expect, hetero=True))

    def test_live(self):
        summary = {"total": 20, "served": 20, "dropped": 0, "lost": 0, "departed": 20}
        recovered = {"torn_shards": 0, "closed_cost_ticks": 1000}
        self.assertEqual(bench.live_checks(summary, 2, self.expect, recovered), [])
        self.assertTrue(bench.live_checks(dict(summary, lost=1), 2, self.expect, recovered))
        self.assertTrue(bench.live_checks(dict(summary, total=19, served=19), 2, self.expect,
                                          recovered))
        self.assertTrue(bench.live_checks(summary, 2, self.expect,
                                          dict(recovered, closed_cost_ticks=999)))
        self.assertTrue(bench.live_checks(summary, 2, self.expect,
                                          dict(recovered, torn_shards=1)))
        sent = {"sent": 8, "replies": 8, "ok": 8, "wrong_id": 0}
        self.assertEqual(bench.pass_checks(sent), [])
        self.assertTrue(bench.pass_checks(dict(sent, replies=7, ok=7)))
        self.assertTrue(bench.pass_checks(dict(sent, ok=7)))
        self.assertTrue(bench.pass_checks(dict(sent, wrong_id=1)))

    def test_paper(self):
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            csv = b"mu,random worst,holds\n1,1.200,true\n2,1.300,true\n"
            with open(os.path.join(d, "exp.csv"), "wb") as f:
                f.write(csv)
            manifest = {"experiments": [{"name": "exp", "status": "Ok", "wall_time_ms": 1}]}
            with open(os.path.join(d, "manifest.json"), "w") as f:
                json.dump(manifest, f)
            digests = {"exp": hashlib.sha256(csv).hexdigest()}
            self.assertEqual(bench.paper_checks(d, digests), [])
            self.assertTrue(bench.paper_checks(d, {"exp": "0" * 64}))
            with open(os.path.join(d, "exp.csv"), "wb") as f:
                f.write(csv.replace(b"2,1.300,true", b"2,1.300,false"))
            self.assertTrue(bench.paper_checks(d, digests))
            manifest["experiments"][0]["status"] = "Panicked"
            with open(os.path.join(d, "manifest.json"), "w") as f:
                json.dump(manifest, f)
            self.assertTrue(bench.paper_checks(d, digests))

    def test_mirror(self):
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            with open(os.path.join(d, "exp.csv"), "w") as f:
                f.write("mu,random worst,holds\n1,1.200,true\n2,1.300,true\n")
            traced = {"exp": {"random worst": ["1.200", "1.300"]}}
            self.assertEqual(bench.mirror_checks(d, traced), [])
            self.assertTrue(bench.mirror_checks(d, {"exp": {"random worst": ["1.200"]}}))
            self.assertTrue(bench.mirror_checks(d, {"exp": {"random worst": ["1.200",
                                                                             "1.301"]}}))
            self.assertTrue(bench.mirror_checks(d, {"exp": {"adversarial": ["1.0", "1.0"]}}))


# Stand-ins for the helper and `run_all`: the helper answers `gen-paper`;
# `run_all` either exits nonzero or writes a manifest whose experiments
# all panicked (and no CSVs), as a broken program would.
PROBE_STUB = """#!/bin/sh
echo '{"instances":1,"gen_s":0.001}'
"""
RUN_ALL_EXITS = """#!/bin/sh
exit 3
"""
RUN_ALL_PANICS = """#!/bin/sh
mkdir -p results
echo '{"peak_rss_bytes":1048576,"experiments":[
 {"name":"thm5_general_ff","status":"Panicked","wall_time_ms":1},
 {"name":"mff_k_ablation","status":"Panicked","wall_time_ms":1}]}' > results/manifest.json
"""


class FailingProgram(unittest.TestCase):
    """A failing `run_all` is reported as an incorrect run, not a crash."""

    def run_main(self, run_all_body, trace):
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            bins = {"dbp": "/bin/false"}
            for name, body in (("probe", PROBE_STUB), ("run_all", run_all_body)):
                path = os.path.join(d, name)
                with open(path, "w") as f:
                    f.write(body)
                os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
                bins[name] = path
            argv = ["run.py", "--workload", "paper", "--seed", "7", "--seconds", "0.3",
                    "--trace", str(trace), "--tiny"]
            out = io.StringIO()
            with mock.patch.object(bench, "build", lambda: bins), \
                    mock.patch.object(sys, "argv", argv), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                bench.main()
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], result["attempted"])
        if not trace:
            self.assertEqual(result["metrics"]["ok_frac"]["value"], 0)

    def test_run_all_exits_nonzero(self):
        self.run_main(RUN_ALL_EXITS, 0)
        self.run_main(RUN_ALL_EXITS, 1)

    def test_experiments_not_ok(self):
        self.run_main(RUN_ALL_PANICS, 0)
        self.run_main(RUN_ALL_PANICS, 1)


class BareDirectory(unittest.TestCase):
    """Without the repository around it the benchmark fails, printing no result."""

    def test_refuses(self):
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
            p = run_bench("churn", 0, cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertFalse(any(l.startswith('{"correct"') for l in p.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main(verbosity=2)
