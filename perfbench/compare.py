#!/usr/bin/env python3
"""Compare two result sets of the benchmark, e.g. a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json] [--trace]

Each file holds the records the benchmark appends to perfbench/results/runs.jsonl.
For every workload x metric it prints each side's median and quartiles, the
fraction of seed-matched pairs the change wins (ties count for neither), and a
verdict against the metric's bound in BENCHMARK.json:

  regression  the change's median is worse than the parent's by more than the bound
  unresolved  the parent's own spread exceeds the bound and the change does not win every pair
  gain        the change wins at least 9 of 10 pairs and the medians differ by more than
              the parent's spread (quartile distance), and it fails no more operations
              than the parent: its share of failed operations and its median ok_ppm
              (answered correctly, so sheds count against it) are no worse; otherwise
              the verdict is "withheld"
  same        none of the above

Every record whose answer check failed (correct = false) is listed and makes the
comparison exit non-zero, like a regression.

With --trace it compares the per-layer metrics of traced runs instead (no bounds;
the verdict column then only reports gains). It also says, per workload, whether
the simulated-statistics digests of matching seeds are identical.
"""

import argparse
import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def failed_share(records):
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / attempted if attempted else 0.0


def median_ok_ppm(records):
    values = [r["result"]["metrics"]["ok_ppm"]["value"] for r in records if not r["trace"]]
    return statistics.median(values) if values else None


def fails_more(p_all, c_all):
    """Whether the change fails more operations than the parent: a larger share of
    failed operations, or a lower median ok_ppm (sheds included)."""
    if failed_share(c_all) > failed_share(p_all):
        return True
    p_ok, c_ok = median_ok_ppm(p_all), median_ok_ppm(c_all)
    return p_ok is not None and c_ok is not None and c_ok < p_ok


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_seed(records):
    out = {}
    for r in records:
        out.setdefault(r["seed"], []).append(r)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--trace", action="store_true", help="compare per-layer metrics of traced runs")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    parent_all, change_all = load(args.parent), load(args.change)
    pick = lambda runs: {w: [r for r in rs if bool(r["trace"]) == args.trace] for w, rs in runs.items()}
    parent, change = pick(parent_all), pick(change_all)

    regressions = 0
    for side, runs in (("parent", parent_all), ("change", change_all)):
        for wl, rs in sorted(runs.items()):
            for r in rs:
                if not r["result"]["correct"]:
                    print(f"INCORRECT {side} {wl} seed {r['seed']} trace {r['trace']}: "
                          f"{r['result']['failed']} of {r['result']['attempted']} operations failed")
                    regressions += 1
    header = f"{'workload':13} {'metric':32} {'parent q1/med/q3':>34} {'change q1/med/q3':>34} {'wins':>6}  verdict"
    print(header)
    for wl in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parent.get(wl, []), change.get(wl, [])
        if not p_runs or not c_runs:
            print(f"{wl:13} (missing runs: parent {len(p_runs)}, change {len(c_runs)})")
            continue
        p_seed, c_seed = by_seed(p_runs), by_seed(c_runs)
        shared = sorted(set(p_seed) & set(c_seed))
        same_sim = all(p_seed[s][0]["sim_digest"] == c_seed[s][0]["sim_digest"] for s in shared)
        withhold = fails_more(parent_all.get(wl, []), change_all.get(wl, []))
        for spec in specs:
            name, better = spec["name"], spec["better"]
            bound = spec.get("bound")
            value = lambda r: r["result"]["metrics"].get(name, {}).get("value")
            pv = [v for v in map(value, p_runs) if v is not None]
            cv = [v for v in map(value, c_runs) if v is not None]
            if not pv or not cv:
                print(f"{wl:13} {name:32} (not reported: parent {len(pv)} runs, change {len(cv)})")
                continue
            pq, cq = quartiles(pv), quartiles(cv)
            sign = 1.0 if better == "higher" else -1.0
            pairs = [(value(p_seed[s][0]), value(c_seed[s][0])) for s in shared]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            win_frac = wins / len(pairs) if pairs else 0.0
            p_spread = pq[2] - pq[0]
            worse = sign * (pq[1] - cq[1])  # > 0 when the change is worse
            if bound is not None and pq[1] != 0 and worse / abs(pq[1]) > bound:
                verdict = "regression"
                regressions += 1
            elif bound is not None and pq[1] != 0 and p_spread / abs(pq[1]) > bound and win_frac < 1.0:
                verdict = "unresolved"
            elif win_frac >= 0.9 and abs(cq[1] - pq[1]) > p_spread:
                verdict = "withheld" if withhold else "gain"
            else:
                verdict = "same"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{wl:13} {name:32} {fmt(pq):>34} {fmt(cq):>34} {win_frac:6.2f}  {verdict}")
        print(f"{wl:13} sim digests of {len(shared)} shared seeds: {'identical' if same_sim else 'DIFFER'}")
        if withhold:
            print(f"{wl:13} gains withheld: the change fails or sheds more operations than the parent")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
