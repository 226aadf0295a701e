#!/usr/bin/env python3
"""Summarizes or compares saved benchmark results.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR

A results directory holds the files perfbench/run.py writes to .bench_results/
(copy it aside between commits). Only untraced runs (trace0) are read, and
every end-to-end metric they printed is shown: the gated ones from
BENCHMARK.json with their bounds, the others (wall-clock throughput and
latency, accuracy) without one.

With one directory: per workload and metric, the median and the quartile
spread (Q3 - Q1) / median over the runs, and for a gated metric whether that
spread is within its bound.

With two: per workload and metric, both medians and the change as a share of
the base median, signed so that positive is worse. A gated metric worse than
its bound is a regression; where either side's spread exceeds the bound it is
unresolved. The comparison is refused (exit 2) when the results come from
hosts or builds with different fingerprints. Exit 1 when a gated metric
regressed.
"""
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
GATED = {m["name"]: m for m in SPEC["end_to_end"]}
HIGHER_IS_BETTER = {"throughput_fps", "sensitivity", "precision", "mean_iou"}


def better(name):
    if name in GATED:
        return GATED[name]["better"]
    return "higher" if name in HIGHER_IS_BETTER else "lower"


def load(directory):
    """Returns ({workload: {metric: [values]}}, {fingerprint json})."""
    values, fingerprints = {}, set()
    for path in sorted(Path(directory).glob("*-trace0.json")):
        run = json.loads(path.read_text())
        if not run["correct"]:
            print(f"# skipping {path.name}: the run was not correct")
            continue
        report = run["report"]
        fingerprints.add(json.dumps(report["fingerprint"], sort_keys=True))
        per_metric = values.setdefault(report["workload"], {})
        for name, m in report["end_to_end"].items():
            if m["value"] is not None:
                per_metric.setdefault(name, []).append(m["value"])
    return values, fingerprints


def spread(vals):
    if len(vals) < 2 or statistics.median(vals) == 0:
        return float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def summarize(values):
    for workload, metrics in sorted(values.items()):
        for name, vals in metrics.items():
            s = spread(vals)
            verdict = "not gated"
            if name in GATED:
                bound = GATED[name]["bound"]
                verdict = f"bound {bound:4.2f} " + ("steady" if s <= bound else "UNSTEADY")
            print(f"{workload:16s} {name:16s} n={len(vals):2d} "
                  f"median {statistics.median(vals):12.6g} spread {s:6.3f} {verdict}")
    return 0


def compare(base, new):
    regressed = False
    for workload in sorted(set(base) & set(new)):
        for name in base[workload]:
            b, n = base[workload][name], new[workload].get(name)
            if not n or statistics.median(b) == 0:  # e.g. accuracy ~0 at 512
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            worse = (mn - mb) / mb if better(name) == "lower" else (mb - mn) / mb
            verdict = "not gated"
            if name in GATED:
                bound = GATED[name]["bound"]
                if max(spread(b), spread(n)) > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                    regressed = True
                else:
                    verdict = "within bound"
            print(f"{workload:16s} {name:16s} base {mb:12.6g} new {mn:12.6g} "
                  f"worse {worse:+7.3f} {verdict}")
    return 1 if regressed else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    base, base_fp = load(argv[1])
    if len(argv) == 2:
        return summarize(base)
    new, new_fp = load(argv[2])
    if len(base_fp | new_fp) > 1:
        print("refused: the results come from different host/build fingerprints:", file=sys.stderr)
        for fp in sorted(base_fp | new_fp):
            print(f"  {fp}", file=sys.stderr)
        return 2
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
