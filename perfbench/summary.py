#!/usr/bin/env python3
"""Pool the end-to-end samples of every recorded benchmark run.

    python3 perfbench/summary.py

run.py appends one line per run to ``.bench_build/perfbench/runs.jsonl``.
This prints one JSON line per workload, package source hash and metric: the
number of runs, the median of their medians, and the pooled samples' median,
quartiles, sample count and highest percentile with at least ten samples
beyond it.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict

import run


def main() -> int:
    pooled: dict = defaultdict(lambda: defaultdict(list))
    medians: dict = defaultdict(lambda: defaultdict(list))
    for line in (run.STATE / "runs.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["trace"]:
            continue
        key = (record["workload"], record["source"])
        for metric, values in record["samples"].items():
            pooled[key][metric].extend(values)
            medians[key][metric].append(statistics.median(values))
    for (workload, source), metrics in sorted(pooled.items()):
        for metric, values in metrics.items():
            runs = medians[(workload, source)][metric]
            print(json.dumps({"workload": workload, "source": source, "metric": metric,
                              "runs": len(runs), "median_of_runs": statistics.median(runs),
                              **run.spread(values)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
