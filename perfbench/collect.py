"""Summarize result files in .perfbench/results/ into one JSON document.

    python3 perfbench/collect.py > perfbench/baseline.json

For each workload: the end-to-end metrics of the untraced runs as median
and quartiles over seeds, with the run count, and the per-layer metrics of
the traced runs as medians over seeds, including the tracing overhead.
Smoke-test results (``--tiny``) are left out.
"""

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench" / "results"


def summarize(records: list, with_quartiles: bool) -> dict:
    out = {}
    for name in records[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in records]
        entry = {"median": statistics.median(values), "unit": records[0]["metrics"][name]["unit"]}
        if with_quartiles and len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / entry["median"])
        out[name] = entry
    return out


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    records = [r for r in records if not r["tiny"]]
    if not records:
        print(f"no results under {RESULTS}", file=sys.stderr)
        return 1
    workloads = {}
    for name in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == name]
        entry = {"failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs)}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            ok = [r for r in runs if r["trace"] == trace and r["correct"]]
            if ok:
                entry[key] = {"runs": len(ok), "seeds": sorted(r["seed"] for r in ok), "metrics": summarize(ok, trace == 0)}
        workloads[name] = entry
    env = records[-1]["environment"]
    print(json.dumps({"environment": env, "seconds": records[-1]["seconds"], "workloads": workloads}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
