#!/usr/bin/env python3
"""Summarise and compare clinicbench result sets.

A result set is a directory of run outputs, one `*.out` file per run, each
holding what one `clinicbench` run printed on stdout (its first line names
the workload and seed, its last line is the JSON result). Runs of one workload are paired
across two sets in seed order.

    python3 clinicbench/compare.py spread RESULTS_DIR
    python3 clinicbench/compare.py diff PARENT_DIR CHANGE_DIR

`spread` prints, per workload and metric, the median, the quartiles and
the interquartile range as a share of the median, and fails when any
metric's spread exceeds its bound in BENCHMARK.json. Both commands also
show `host_steal_pct`, the share of CPU time the hypervisor gave to other
guests during each run: a set whose steal differs from the other's was
measured on a different machine, in effect.

`diff` prints both sides' medians and quartiles and a verdict per metric:
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  a side's spread exceeds the bound, unless every run of the
              change beats every run of the parent;
  unchanged   none of the above.
"""

import json
import pathlib
import re
import statistics
import sys

HEADER = re.compile(r"workload (\S+) seed (\d+)")
STEAL = re.compile(r"host: ([\d.]+)% of CPU time stolen")


def load_benchmark():
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_set(directory):
    """{workload: [(seed, {metric: value}), ...]} sorted by seed."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.out")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        header = next((HEADER.search(l) for l in lines if HEADER.search(l)), None)
        if header is None:
            sys.exit(f"{path}: no 'workload <name> seed <n>' line")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"warning: {path} has no result line, skipped", file=sys.stderr)
            continue
        if not result["correct"]:
            print(f"warning: {path} reports correct=false", file=sys.stderr)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        steal = next((STEAL.search(l) for l in lines if STEAL.search(l)), None)
        if steal is not None:
            values["host_steal_pct"] = float(steal.group(1))
        runs.setdefault(header.group(1), []).append((int(header.group(2)), values))
    for workload in runs:
        runs[workload].sort(key=lambda run: run[0])
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def spread(directory):
    metrics = load_benchmark()
    failing = 0
    for workload, runs in load_set(directory).items():
        print(f"{workload} ({len(runs)} runs)")
        for name in runs[0][1]:
            values = [v[name] for _, v in runs]
            med, q1, q3, share = summary(values)
            bound = metrics.get(name, (None, None))[1]
            flag = ""
            if bound is not None and share > bound:
                flag = f"  SPREAD ABOVE BOUND {bound}"
                failing += 1
            elif bound is not None and share > bound / 3:
                flag = f"  (above a third of bound {bound})"
            print(f"  {name:34} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} iqr/median {share:.4f}{flag}")
    return 1 if failing else 0


def better(direction, a, b):
    return a < b if direction == "lower" else a > b


def diff(parent_dir, change_dir):
    metrics = load_benchmark()
    parent, change = load_set(parent_dir), load_set(change_dir)
    regressions = 0
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload}: only in one result set")
            continue
        p_runs, c_runs = parent[workload], change[workload]
        pairs = min(len(p_runs), len(c_runs))
        print(f"{workload} ({pairs} pairs)")
        for name in p_runs[0][1]:
            if name not in c_runs[0][1]:
                continue
            direction, bound = metrics.get(name, ("lower", None))
            p = [v[name] for _, v in p_runs]
            c = [v[name] for _, v in c_runs]
            p_med, p_q1, p_q3, p_share = summary(p)
            c_med, c_q1, c_q3, c_share = summary(c)
            wins = sum(better(direction, c[i], p[i]) for i in range(pairs))
            dominates = all(better(direction, x, y) for x in c for y in p)
            if wins >= 0.9 * pairs and abs(c_med - p_med) > (p_q3 - p_q1):
                verdict = "improved"
            elif bound is not None and better(direction, p_med, c_med) and abs(c_med - p_med) > bound * abs(p_med):
                verdict = "regressed"
                regressions += 1
            elif bound is not None and max(p_share, c_share) > bound and not dominates:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            ratio = c_med / p_med if p_med else float("nan")
            print(
                f"  {name:34} parent {p_med:<11.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
                f"change {c_med:<11.6g} [{c_q1:.6g}, {c_q3:.6g}]  "
                f"x{ratio:.3f}  wins {wins}/{pairs}  {verdict}"
            )
    return 1 if regressions else 0


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "spread":
        sys.exit(spread(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    sys.exit(__doc__)


if __name__ == "__main__":
    main()
