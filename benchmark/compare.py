#!/usr/bin/env python3
"""Compare two result files of benchmark/run.py, metric by metric.

    python3 benchmark/compare.py BASE.json NEW.json

For each (workload, end-to-end metric) it prints the median of the base
runs and of the new runs, their ratio, the bound from BENCHMARK.json and
a verdict:

  better / worse  the median moved by more than the bound
  unchanged       it moved by less
  unresolved      the run-to-run spread of either side (quartile
                  distance over median) exceeds the bound, unless every
                  new run beats every base run (then: better)

Untraced runs only. It also reports simulated-statistics digests that
differ between the files for the same workload and seed (a change that
claims only speed must leave them identical). Exit status 1 when any
metric is worse.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    runs = json.loads(Path(path).read_text())["runs"]
    return [r for r in runs if not r["traced"]]


def spread(values):
    """Quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base, new, bound, lower_better):
    mb, mn = statistics.median(base), statistics.median(new)
    worse_by = (mn - mb) / mb if lower_better else (mb - mn) / mb
    wins = all((n < b) if lower_better else (n > b)
               for n in new for b in base)
    if max(spread(base), spread(new)) > bound:
        return "better" if wins else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    base, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    workloads = [w["name"] for w in spec["workloads"]]
    worse = 0
    print(f"{'workload':16s} {'metric':16s} {'base':>11s} {'new':>11s} "
          f"{'ratio':>7s} {'bound':>6s} {'spread b/n':>12s}  verdict")
    for w in workloads:
        b_runs = [r for r in base if r["workload"] == w]
        n_runs = [r for r in new if r["workload"] == w]
        if not b_runs or not n_runs:
            print(f"{w:16s} (missing from {'base' if not b_runs else 'new'})")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            v = verdict(bv, nv, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            mb, mn = statistics.median(bv), statistics.median(nv)
            print(f"{w:16s} {name:16s} {mb:11.4g} {mn:11.4g} "
                  f"{mn / mb:7.3f} {m['bound']:6.2f} "
                  f"{spread(bv):5.3f}/{spread(nv):5.3f}  {v}"
                  f"  (n={len(bv)}/{len(nv)})")
        b_dig = {r["seed"]: r["digests"] for r in b_runs}
        for r in n_runs:
            if r["seed"] in b_dig and b_dig[r["seed"]] != r["digests"]:
                print(f"{w:16s} simulated statistics differ for seed "
                      f"{r['seed']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
