"""One cold pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload deep-scan --seed 3 [--spans PATH] [--setup-only]

The worker imports oconf from the checkout's `src/`, generates the workload's
inputs from the seed and prints `ready`.  That is the end of set-up.  It then
runs the tasks one after another, checks every output against its exact
oracle once the last task has ended, and prints a JSON report as its last
line.  Task and pass times are scaled to the host's idle speed by a probe
sampled on the same core while the tasks run (probe.py).  With `--spans PATH` every layer call is traced (see tracer.py), the
spans are written to PATH and the report carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from probe import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

WORKLOADS = ("suite", "irrep-ladder", "deep-scan")

# (series, weight) built cold and validated; weights of one (series, n) share
# the Verma straightening memo, so the build order is part of the input.
LADDER = [
    ("D", "1,0"), ("D", "1,1"), ("D", "2,0"), ("D", "2,1"),
    ("B", "1,0"), ("B", "1/2,1/2"), ("B", "1,1"), ("B", "3/2,1/2"),
    ("D", "1,0,0"), ("D", "1,1,1"), ("B", "1/2,1/2,1/2"),
]

# (series, weight, max degree): small V(mu), large top slices (756 to 1,980).
DEEP = [("D", "1,0", 12), ("B", "1/2,1/2", 8), ("B", "1,0", 7), ("D", "1,0,0", 4)]
CRITICAL_DEGREE = 2
B_DENOMINATOR = 7
B_NUMERATORS = [p for p in range(-20, 21) if p % B_DENOMINATOR]


def make_inputs(workload: str, seed: int) -> list:
    """The workload's task list; the same seed gives the same list."""
    from oconf.reducibility import classify_b
    from oconf.weights import omega_tilde_spectrum, parse_weight

    rng = random.Random(seed)
    if workload == "suite":
        return [{"task": "suite"}]
    if workload == "irrep-ladder":
        order = list(LADDER)
        rng.shuffle(order)
        return [{"task": "irrep", "series": s, "mu": w} for s, w in order]
    tasks = []
    for series, w, degree in DEEP:
        mu = parse_weight(w, series)
        while True:
            b = Fraction(rng.choice(B_NUMERATORS), B_DENOMINATOR)
            if classify_b(mu, b).status == "generic":
                break
        tasks.append({"task": "scan", "series": series, "mu": w, "b": str(b), "degree": degree})
    for series, w, _ in DEEP:
        mu = parse_weight(w, series)
        if mu.n != 2:
            continue
        lam, mult = rng.choice(omega_tilde_spectrum(mu).entries)
        tasks.append({"task": "scan", "series": series, "mu": w, "b": str(-lam),
                      "degree": CRITICAL_DEGREE, "lambda": str(lam), "mult": mult})
    return tasks


def run_task(task: dict):
    from oconf import cli
    from oconf.irreps import build_irrep, validate_irrep
    from oconf.reducibility import surjectivity_scan
    from oconf.weights import parse_weight

    if task["task"] == "suite":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["suite", "--format", "json"])
        return rc, out.getvalue()
    mu = parse_weight(task["mu"], task["series"])
    if task["task"] == "irrep":
        V = build_irrep(mu)
        return V, validate_irrep(V)
    return surjectivity_scan(mu, Fraction(task["b"]), task["degree"])


def weight_key(series: str, w: str) -> str:
    return f"{series} {w}"


def sorted_weights(V) -> list:
    return [str(w) for w in sorted(V.weights, key=lambda w: w.coords)]


def check(task: dict, result) -> bool:
    """Exact oracle for one task; no tolerance anywhere."""
    from oconf.weights import parse_weight, weyl_dim

    if task["task"] == "suite":
        rc, text = result
        return rc == 0 and text == (GOLDEN / "suite.json").read_text()
    if task["task"] == "irrep":
        V, report = result
        golden = json.loads((GOLDEN / "irrep_weights.json").read_text())
        mu = parse_weight(task["mu"], task["series"])
        return (V.dim == weyl_dim(mu) and report["ok"] is True
                and sorted_weights(V) == golden[weight_key(task["series"], task["mu"])])
    records = result.records
    if "lambda" not in task:
        return (result.verdict == f"irreducible-up-to-{task['degree']}"
                and len(records) == task["degree"]
                and all(r.rank == r.dim for r in records))
    first = records[0]
    return (result.verdict == "proper-submodule-found"
            and first.k == 1 and first.rank == first.dim - task["mult"])


def layer_metrics(tracer, check_fns: list, speed: float) -> dict:
    """Per-layer metrics of one traced pass (see README.md for the table);
    times are scaled by `speed` to the probe's idle speed (probe.py)."""
    from oconf import irreps
    from tracer import LAYERS

    stats = tracer.stats()
    counts = tracer.counts

    def get(name):
        return stats.get(name, (0, 0.0, 0.0))

    m = {}
    for layer in LAYERS:
        mine = [v for k, v in stats.items() if k.startswith(layer + ".")]
        m[f"{layer}.calls"] = sum(v[0] for v in mine)
        m[f"{layer}.self_s"] = sum(v[1] for v in mine)
    rank = get("linalg.rank_of_rows")
    m["linalg.rank.calls"], m["linalg.rank.self_s"] = rank[0], rank[1]
    m["linalg.rank.rows_in"] = counts["linalg.rank.rows_in"]
    m["linalg.rank.rows_per_call"] = counts["linalg.rank.rows_in"] / rank[0] if rank[0] else 0.0
    m["linalg.rref.calls"], m["linalg.rref.self_s"] = get("linalg.rref_of_rows")[:2]
    m["linalg.charpoly.self_s"] = get("linalg.charpoly")[1]
    info = irreps.build_irrep.cache_info()
    m["irreps.build.misses"], m["irreps.build.hits"] = info.misses, info.hits
    m["irreps.build.self_s"] = get("irreps.build_irrep")[1]
    m["irreps.build.dim_built"] = counts["irreps.build.dim_built"]
    m["irreps.validate.self_s"] = get("irreps.validate_irrep")[1]
    action = get("mixed.ConformalModule.action_matrix")
    m["mixed.action.calls"], m["mixed.action.self_s"] = action[0], action[1]
    m["mixed.action.nnz_out"] = counts["mixed.action.nnz_out"]
    computed = counts["mixed.action.computed"]
    m["mixed.action.repeat_frac"] = (
        (computed - len(tracer.action_keys)) / computed if computed else 0.0)
    m["mixed.phi.self_s"] = get("mixed.ConformalModule.phi_matrix")[1]
    m["poly.apply.calls"], m["poly.apply.self_s"] = get("poly.DiffOp.apply")[:2]
    m["poly.compose.calls"], m["poly.compose.self_s"] = get("poly.DiffOp.__matmul__")[:2]
    m["reducibility.scan.self_s"] = get("reducibility.surjectivity_scan")[1]
    m["reducibility.detect.self_s"] = get("reducibility.detect_submodule")[1]
    m["reducibility.closure.self_s"] = (get("reducibility.verify_submodule_closure")[1]
                                        + get("reducibility.generation_closure_scan")[1])
    for check_name, fn_name in check_fns:
        m[f"suite.{check_name}.s"] = get(f"suite.{fn_name}")[2]
    return {k: v * speed if k.endswith(("_s", ".s")) else v for k, v in m.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spans", default=None, help="trace every layer call; write spans here")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import oconf
    from oconf import suite

    if Path(oconf.__file__).resolve().parent != ROOT / "src" / "oconf":
        raise SystemExit(f"oconf imported from {oconf.__file__}, not from this checkout")
    tasks = make_inputs(args.workload, args.seed)
    tracer = None
    check_fns = [(name, fn.__name__) for name, fn in suite.ALL_CHECKS]
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    timed = []
    with Sampler() as sampler:
        for task in tasks:
            t0 = time.perf_counter()
            try:
                result, error = run_task(task), None
            except Exception as exc:  # a task that raises counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            timed.append((task, t0, time.perf_counter(), result, error))
    start, end = timed[0][1], timed[-1][2]
    speed = sampler.scale_between(start, end)

    report = {"inputs": tasks, "tasks": [], "wall_s": (end - start) * speed,
              "raw_wall_s": end - start,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, check_fns, speed)
        tracer.write_spans(args.spans)
    for task, t0, t1, result, error in timed:
        ok = error is None and check(task, result)
        report["tasks"].append({"s": (t1 - t0) * sampler.scale_between(t0, t1), "ok": ok,
                                "error": None if ok else error or "output differs from the oracle"})
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
