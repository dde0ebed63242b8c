#!/usr/bin/env python3
"""Compares two result sets of the benchmark, metric by metric.

A result set is a directory of saved run outputs, one file per run
(the standard output of perfbench/run.py); other files are ignored. Use
the same seeds on both sides, so that runs pair by seed. For example:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload vmc512-t1 --seed $s --seconds 55 --trace 0 \
        > base/vmc512-t1-$s.log
    done
    python3 perfbench/compare.py base new

For each workload and metric it prints each side's median and quartiles,
the fraction of pairs the new side wins (runs pair by seed, else by file
order; ties count for neither), and a verdict:

  improved    the new side wins at least 9 of 10 pairs (and at least ten
              pairs were run) and the medians differ by more than the
              base side's interquartile range;
  worse       the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json (for a metric without
              a bound: loses 9 of 10 pairs by more than the base spread);
  unresolved  the base runs spread wider than the bound, and not every
              new run reads better than every base run;
  unchanged   otherwise.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory):
    """{(workload, trace): [(seed, file name, metrics)]} of one result set."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        header = next((l for l in lines if l.startswith("perfbench ")), None)
        if header is None:
            continue
        fields = dict(f.split("=", 1) for f in header.split()[1:] if "=" in f)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(f"skipping {path}: no result line", file=sys.stderr)
            continue
        if not result.get("correct", False):
            print(f"note: {path} reports incorrect output", file=sys.stderr)
        key = (fields["workload"], fields["trace"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(key, []).append((fields["seed"], path.name, metrics))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, new, metric):
    """(base value, new value) pairs, matched by seed where possible."""
    new_by_seed = {seed: m for seed, _, m in new}
    matched = [(m[metric], new_by_seed[seed][metric])
               for seed, _, m in base if seed in new_by_seed
               and metric in m and metric in new_by_seed[seed]]
    if matched:
        return matched
    return [(b[2][metric], n[2][metric]) for b, n in zip(base, new)
            if metric in b[2] and metric in n[2]]


def verdict(base_vals, new_vals, pair_list, lower_better, bound):
    sign = -1.0 if lower_better else 1.0
    q1, base_med, q3 = quartiles(base_vals)
    new_med = quartiles(new_vals)[1]
    gain = sign * (new_med - base_med)  # > 0: the new side is better
    spread = q3 - q1
    wins = sum(1 for b, n in pair_list if sign * (n - b) > 0)
    losses = sum(1 for b, n in pair_list if sign * (n - b) < 0)
    n_pairs = len(pair_list)
    if n_pairs >= 10 and wins >= 0.9 * n_pairs and gain > spread:
        return "improved", wins, n_pairs
    if bound is not None:
        if -gain > bound * abs(base_med):
            return "worse", wins, n_pairs
        all_better = all(sign * (n - b) > 0 for n in new_vals for b in base_vals)
        if base_med and spread / abs(base_med) > bound and not all_better:
            return "unresolved", wins, n_pairs
    elif n_pairs and losses >= 0.9 * n_pairs and -gain > spread:
        return "worse", wins, n_pairs
    return "unchanged", wins, n_pairs


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_set(argv[1]), load_set(argv[2])
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} (trace {trace}): {len(base[key])} base runs, "
              f"{len(new[key])} new runs")
        print(f"  {'metric':<34} {'base median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34} {'wins':>7}  verdict")
        names = sorted({m for _, _, ms in base[key] for m in ms}
                       & {m for _, _, ms in new[key] for m in ms})
        for name in names:
            bv = [ms[name] for _, _, ms in base[key] if name in ms]
            nv = [ms[name] for _, _, ms in new[key] if name in ms]
            bq, nq = quartiles(bv), quartiles(nv)
            result, wins, n_pairs = verdict(
                bv, nv, pairs(base[key], new[key], name),
                lower.get(name, True), bounds.get(name))
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"  {name:<34} {fmt(bq):>34} {fmt(nq):>34} "
                  f"{wins:>3}/{n_pairs:<3}  {result}")
    for key in sorted(set(base) ^ set(new)):
        print(f"\n{key[0]} (trace {key[1]}): present in only one set")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
