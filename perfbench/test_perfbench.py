"""The benchmark's own checks.  They run real workloads (about two minutes):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from probe import probe_once
from tracer import LAYERS
from worker import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload, trace, seed=1):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: result(w, trace=1) for w in WORKLOADS}


def test_traced_runs_are_correct(traced):
    for w, res in traced.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2, w


def test_every_layer_records_calls(traced):
    for layer in LAYERS:
        assert any(res["metrics"][f"{layer}.calls"]["value"] > 0 for res in traced.values()), layer


def test_traced_run_reports_every_per_layer_metric(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in traced.values():
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_runs_are_cold(traced):
    again = result("deep-scan", trace=1)
    misses = [r["metrics"]["irreps.build.misses"]["value"] for r in (traced["deep-scan"], again)]
    assert misses == [4, 4]


def test_untraced_run_reports_every_end_to_end_metric():
    res = result("deep-scan", trace=0)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_inputs_follow_the_seed():
    sys.path.insert(0, str(ROOT / "src"))
    from oconf.reducibility import classify_b
    from oconf.weights import parse_weight

    tasks = make_inputs("deep-scan", 7)
    assert tasks == make_inputs("deep-scan", 7)
    for t in tasks:
        status = classify_b(parse_weight(t["mu"], t["series"]), t["b"]).status
        assert status == ("excluded" if "lambda" in t else "generic")
    assert make_inputs("irrep-ladder", 1) != make_inputs("irrep-ladder", 2)


def test_fails_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = bench("--workload", "suite", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert out.returncode != 0 and "correct" not in out.stdout


def test_probe_allocates_nothing_the_collector_tracks():
    probe_once()
    before = gc.get_count()
    probe_once()
    assert gc.get_count() == before
