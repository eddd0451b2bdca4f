"""Record the golden outputs the suite and irrep-ladder oracles compare against.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are known to be right: the oracles
accept nothing but an exact match with these files.
"""

import json
import sys

from worker import GOLDEN, LADDER, ROOT, run_task, sorted_weights, weight_key

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.mkdir(exist_ok=True)
    rc, text = run_task({"task": "suite"})
    if rc != 0:
        raise SystemExit(f"oconf suite exited {rc}; not recording")
    (GOLDEN / "suite.json").write_text(text)
    weights = {}
    for series, w in LADDER:
        V, _ = run_task({"task": "irrep", "series": series, "mu": w})
        weights[weight_key(series, w)] = sorted_weights(V)
    (GOLDEN / "irrep_weights.json").write_text(json.dumps(weights, indent=1, sort_keys=True) + "\n")
