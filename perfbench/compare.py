#!/usr/bin/env python3
"""Compare two result sets of the served-path benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --spread DIR

A result set is a directory of run outputs named ``<workload>.<n>.out``
(the standard output of ``bash perfbench/run.sh``; its last line is the
result). Run ``n`` of the parent and run ``n`` of the change form a
pair; make the pairs alternate which side runs first, with the same
seed on both sides of a pair.

For every workload and end-to-end metric the comparison prints each
side's median and quartiles, the pairs the change won (ties count for
neither side), and a verdict, following the rule the benchmark's
guide sets for a small shared host:

* ``improved``   the change won at least 9 in 10 pairs and the medians
                 differ by more than the parent's interquartile range;
* ``regressed``  the change's median is worse than the parent's by more
                 than the metric's bound in BENCHMARK.json;
* ``unresolved`` the parent's own spread (interquartile range over
                 median) is wider than the bound, and not every change
                 run reads better than every parent run;
* ``within bound`` otherwise.

``--spread`` prints what the acceptance check of a benchmark computes:
each metric's interquartile range over its median, against its bound.

A run whose output carries a ``FLAG: invalid latency figures`` line
found too few latency segments undisturbed by the host (a late
generator or CPU time stolen by the hypervisor); its latency metrics
are left out of every figure (the count left out is printed), and its
other metrics are kept. Two sets measured on hosts with a different
``nproc`` (from each run's ``host:`` line) are not compared.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Metrics read from the open-loop latency pass.
LATENCY_METRICS = {"req_within_1ms_frac", "req_within_5ms_frac", "served_frac"}
INVALID_LATENCY = "FLAG: invalid latency figures"


def host_nproc(lines, path):
    for line in lines:
        if line.startswith("host: nproc "):
            return int(line.split()[2])
    sys.exit(f"{path}: no host line")


def load_set(directory):
    """({workload: [metrics dict per run, in run order]}, {nproc seen}).

    A run with invalid latency figures has None for its latency metrics.
    """
    runs, nprocs = {}, set()
    files = sorted(
        Path(directory).glob("*.out"),
        key=lambda p: (p.name.split(".")[0], int(p.name.split(".")[1])),
    )
    for path in files:
        lines = path.read_text().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"{path}: the last line is not a result")
        if not result.get("correct"):
            sys.exit(f"{path}: run was not correct")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if any(line.startswith(INVALID_LATENCY) for line in lines):
            metrics.update({k: None for k in LATENCY_METRICS if k in metrics})
        nprocs.add(host_nproc(lines, path))
        runs.setdefault(path.name.split(".")[0], []).append(metrics)
    return runs, nprocs


def values_of(runs, name):
    """The metric's values over the runs that measured it validly."""
    return [r[name] for r in runs if r[name] is not None]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """Whether value a reads better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, pairs, spec):
    direction, bound = spec["better"], spec["bound"]
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1) and better(cm, pm, direction):
        return "improved", wins, len(pairs)
    worse_by = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
    if worse_by > bound:
        return "regressed", wins, len(pairs)
    if (p3 - p1) / pm > bound and not all(better(c, p, direction) for c in change for p in parent):
        return "unresolved", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main(argv):
    specs = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    if len(argv) == 2 and argv[0] == "--spread":
        for workload, runs in sorted(load_set(argv[1])[0].items()):
            for name, spec in specs.items():
                values = values_of(runs, name)
                if not values:
                    print(f"{workload:18} {name:16} no valid runs")
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                flag = "" if spread <= spec["bound"] else "  OUTSIDE BOUND"
                left_out = len(runs) - len(values)
                note = f"  ({left_out} invalid left out)" if left_out else ""
                print(
                    f"{workload:18} {name:16} n={len(values):2} median={med:<12.6g} "
                    f"spread={spread:.3f} bound={spec['bound']}{flag}{note}"
                )
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (parent, p_nproc), (change, c_nproc) = load_set(argv[0]), load_set(argv[1])
    if len(p_nproc | c_nproc) != 1:
        sys.exit(f"the sets come from hosts with nproc {sorted(p_nproc)} and {sorted(c_nproc)}")
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload}: missing on one side")
            continue
        for name, spec in specs.items():
            p, c = values_of(parent[workload], name), values_of(change[workload], name)
            if not p or not c:
                print(f"{workload:18} {name:16} no valid runs on one side")
                continue
            pairs = [
                (a[name], b[name])
                for a, b in zip(parent[workload], change[workload])
                if a[name] is not None and b[name] is not None
            ]
            (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
            v, wins, n = verdict(p, c, pairs, spec)
            print(
                f"{workload:18} {name:16} parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  wins {wins}/{n}  {v}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
