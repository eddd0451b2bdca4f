"""oconf benchmark entry point.

    python3 perfbench/run.py --workload deep-scan --seed 3 --seconds 40 --trace 0

Every pass of a workload runs in a fresh interpreter (worker.py), so each pays
the import, the `build_irrep` cache fills and the Verma memo fills that a
user's `oconf` invocation pays.  Passes run one after another (a closed loop
on one core) until the next pass would end after `--seconds`; at least one
pass always runs.  Set-up time is sampled by extra worker starts that stop
once their inputs are ready.

All workers share one pinned core, and every time is scaled to the host's
idle speed by the probe in probe.py; the raw times go to the `record:` line.
With `--trace 0` the result carries the end-to-end metrics, medians over the
passes.  With `--trace 1` untraced and traced passes alternate and the result
carries the per-layer metrics of the traced passes, plus the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  The exit code is 2 when the workload cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import probe_once, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("suite", "irrep-ladder", "deep-scan")
SETUP_SAMPLES = 5
SETUP_PROBES = 20
PASS_TIMEOUT_S = 100


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, spans: Path = None, setup_only: bool = False):
    """Start one worker; return ((scaled, raw) seconds from start to ready,
    report or None).  The set-up time is scaled by probes taken just before."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    speed = scale([probe_once() for _ in range(SETUP_PROBES)])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            rest, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerFailed(f"{workload} pass exceeded {PASS_TIMEOUT_S} s")
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}:\n{err.strip()}")
    report = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    return (setup_s * speed, setup_s), report


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("rows_per_call"):
        return "rows/call"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, nproc: int) -> dict:
    spawn(workload, seed, setup_only=True)  # fails fast; leaves bytecode caches warm
    setups = [spawn(workload, seed, setup_only=True)[0] for _ in range(SETUP_SAMPLES)]
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    if trace:
        OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace and len(plain) > len(traced):
            traced.append(spawn(workload, seed, spans=spans)[1])
        else:
            setup_s, report = spawn(workload, seed)
            setups.append(setup_s)
            plain.append(report)
        now = time.perf_counter()
        if (not trace or traced) and now - start + (now - t0) > seconds:
            break
    reports = plain + traced
    tasks = [t for r in reports for t in r["tasks"]]
    failed = sum(not t["ok"] for t in tasks)
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        metrics = {k: (statistics.median(r["layers"][k] for r in traced), layer_unit(k))
                   for k in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / wall - 1, "ratio")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "slowest_task_s": (statistics.median(max(t["s"] for t in r["tasks"]) for r in plain), "s"),
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": reports[0]["inputs"],
        "pass_walls_s": [r["wall_s"] for r in plain], "raw_pass_walls_s": [r["raw_wall_s"] for r in plain],
        "traced_pass_walls_s": [r["wall_s"] for r in traced],
        "raw_setups_s": [raw for _, raw in setups],
        "setup_samples": len(setups), "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": nproc,
        "fail_frac": failed / len(tasks), "failures": [t["error"] for t in tasks if not t["ok"]],
    }
    return {"record": record, "attempted": len(tasks), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="oconf benchmark: cold-process workloads")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "oconf" / "__init__.py").is_file():
        print(f"error: no oconf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    # Every worker inherits one fixed core, the same one the set-up probes
    # run on; a pass that lands on a different core each time reads that
    # core's share of the host's load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), nproc)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        attempted += res["attempted"]
        failed += res["failed"]
        print("record: " + json.dumps(res["record"], sort_keys=True))
        print(f"{name}: fail_frac {res['record']['fail_frac']} "
              f"({res['failed']} of {res['attempted']} tasks)")
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, (value, unit) in res["metrics"].items():
            print(f"{name}: {key} {value} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
