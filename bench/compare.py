"""Compare two result sets of bench/run.py: a parent commit and a change.

    python3 bench/compare.py PARENT_results.jsonl CHANGE_results.jsonl

Each file holds the records ``run.py`` appends to ``.bench_out/results.jsonl``.
Runs of the two sides are paired by workload and seed. For every end-to-end
metric of every workload it prints both sides' median and quartiles, the wins
of the change over its pairs, and a verdict:

- ``improved``: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
- ``regressed``: the change median is worse than the parent median by more
  than the bound from BENCHMARK.json and also worse than the parent's
  worse quartile, so a noisy parent cannot hide a regression;
- ``unresolved``: the parent's spread (interquartile range over median) is
  wider than the metric's bound and not every change run beats every parent
  run, so the data can neither clear nor convict the change;
- ``within bound`` otherwise.

It also reports which side ran first in each pair (the pairs should
alternate), failed requests, correlation-form digests of ``cut_sweep`` that
differ between the sides, and the per-layer medians of traced runs. The exit
code is 1 when a metric regressed, a digest differs or the change failed a
request, else 3 when a metric is unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _by_seed(records, workload, trace):
    out = {}
    for rec in sorted(records, key=lambda r: r["started"]):
        if rec["workload"] == workload and rec["trace"] == trace:
            out.setdefault(rec["env"]["seed"], rec)
    return out


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _better(a, b, lower):
    return a < b if lower else a > b


def verdict(parent, change, bound, lower):
    """Verdict for one metric; ``parent[i]`` and ``change[i]`` form pair i."""
    q1, med_p, q3 = _quartiles(parent)
    med_c = statistics.median(change)
    wins = sum(_better(c, p, lower) for p, c in zip(parent, change))
    improved = (
        len(parent) >= 10
        and wins >= 0.9 * len(parent)
        and _better(med_c, med_p, lower)
        and abs(med_c - med_p) > q3 - q1
    )
    all_better = all(_better(c, p, lower) for c in change for p in parent)
    worse = (med_c - med_p if lower else med_p - med_c) / med_p
    if improved:
        return "improved", wins
    if worse > bound and _better(q3 if lower else q1, med_c, lower):
        return "regressed", wins
    if (q3 - q1) / med_p > bound and not all_better:
        return "unresolved", wins
    return "within bound", wins


def compare(parent_records, change_records, bench):
    """Prints the comparison; returns (problems, unresolved metrics)."""
    problems = unresolved = 0
    workloads = sorted({r["workload"] for r in parent_records} & {r["workload"] for r in change_records})
    for workload in workloads:
        p_runs, c_runs = _by_seed(parent_records, workload, 0), _by_seed(change_records, workload, 0)
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"== {workload}: {len(seeds)} pairs")
        if seeds:
            parent_first = sum(p_runs[s]["started"] < c_runs[s]["started"] for s in seeds)
            print(f"   parent ran first in {parent_first} of {len(seeds)} pairs")
            for metric in bench["end_to_end"]:
                name, lower = metric["name"], metric["better"] == "lower"
                pv = [p_runs[s]["metrics"][name]["value"] for s in seeds]
                cv = [c_runs[s]["metrics"][name]["value"] for s in seeds]
                result, wins = verdict(pv, cv, metric["bound"], lower)
                problems += result == "regressed"
                unresolved += result == "unresolved"
                pq, cq = _quartiles(pv), _quartiles(cv)
                print(
                    f"   {name:<12} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                    f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}"
                    f"  wins {wins}/{len(seeds)}  bound {metric['bound']:.0%}  {result}"
                )
        failed = [sum(r["failed"] for r in runs.values()) for runs in (p_runs, c_runs)]
        print(f"   failed requests: parent {failed[0]}, change {failed[1]}")
        problems += failed[1] > 0
        for s in seeds:
            pd, cd = p_runs[s]["forms_digests"], c_runs[s]["forms_digests"]
            common = min(len(pd), len(cd))
            if pd[:common] != cd[:common]:
                print(f"   seed {s}: correlation forms differ ({pd[:common]} vs {cd[:common]})")
                problems += 1
        p_tr, c_tr = _by_seed(parent_records, workload, 1), _by_seed(change_records, workload, 1)
        if p_tr and c_tr:
            print(f"   per-layer medians over {len(p_tr)} and {len(c_tr)} traced runs (nonzero only)")
            for metric in bench["per_layer"]:
                name = metric["name"]
                pm = statistics.median(r["metrics"][name]["value"] for r in p_tr.values())
                cm = statistics.median(r["metrics"][name]["value"] for r in c_tr.values())
                if pm or cm:
                    print(f"   {name:<40} {pm:.6g} -> {cm:.6g} {metric['unit']}")
    return problems, unresolved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        bench = json.load(fh)
    problems, unresolved = compare(load(args.parent), load(args.change), bench)
    return 1 if problems else 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
