#!/usr/bin/env python3
"""Summarise or compare benchmark results written by run.py.

    python3 perfbench/compare.py perfbench/out            # one set
    python3 perfbench/compare.py BASE_OUT_DIR NEW_OUT_DIR # two sets

For each workload and metric it prints the number of runs, the median,
the quartiles and the spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles).  With two
sets it adds the new median over the base median.  It refuses to mix
results recorded on different kernel backends.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> list:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(directory.glob("result-*.json"))]


def by_metric(records) -> dict:
    out = defaultdict(list)
    for r in records:
        for name, m in r["metrics"].items():
            out[(r["workload"], r["trace"], name)].append(m["value"])
    return out


def summary(values) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(d)) for d in argv]
    backends = {r["env"]["kernel_backend"] for records in sets for r in records}
    if len(backends) > 1:
        print(f"compare: refusing to compare kernel backends {sorted(backends)}", file=sys.stderr)
        return 2
    base = by_metric(sets[0])
    new = by_metric(sets[1]) if len(sets) == 2 else {}
    print(f"backend: {backends.pop() if backends else 'none'}")
    header = f"{'workload':15s} {'metric':34s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}"
    print(header + (f" {'new med':>12s} {'new/base':>8s}" if new else ""))
    for key in sorted(base):
        workload, _, name = key
        med, q1, q3, spread = summary(base[key])
        line = f"{workload:15s} {name:34s} {len(base[key]):3d} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f}"
        if key in new:
            new_med = summary(new[key])[0]
            line += f" {new_med:12.5g} {new_med / med if med else float('nan'):8.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
