#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload camera_512 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the library,
serve_worker and the perfbench binary into .bench_build/perfbench (later runs
only check that the build is up to date). The binary's report is checked against
BENCHMARK.json: with --trace 0 the metrics are its end_to_end metrics, with
--trace 1 its per_layer metrics (a layer the workload does not run reports 0).
A table goes to stdout first; the last line is one JSON object with the keys
correct, attempted, failed and metrics. The full report, with the host
fingerprint, is also saved under .bench_results/ for perfbench/compare.py, and
the traced run writes its Chrome trace to .bench_trace/.

Exit status: 0 when every output was correct, 1 on a correctness violation or
a failed run, 2 when the build fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry the configure next time
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return BUILD / "perfbench"


def select_metrics(report, spec, trace):
    """Picks the BENCHMARK.json metrics out of the binary's report."""
    problems = []
    metrics = {}
    if trace:
        measured = report["layers"]
        for m in spec["per_layer"]:
            got = measured.get(m["name"], {"value": 0, "unit": m["unit"]})
            metrics[m["name"]] = got
    else:
        measured = report["end_to_end"]
        for m in spec["end_to_end"]:
            got = measured.get(m["name"])
            if got is None or got["value"] is None:
                problems.append(f"end-to-end metric {m['name']} was not measured")
                continue
            metrics[m["name"]] = got
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {metrics[m['name']]['unit']} != {m['unit']}")
    return metrics, problems


def print_table(report, metrics, trace):
    print(f"# workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {int(trace)}")
    print(f"# fingerprint {json.dumps(report['fingerprint'], sort_keys=True)}")
    attempted, failed = report["attempted"], report["failed"]
    rows = list(metrics.items())
    if not trace:
        rows += [(k, m) for k, m in report["end_to_end"].items() if k not in metrics]
        rows += list(report["extra"].items())
        rows.append(("fail_frac", {"value": failed / attempted if attempted else 1.0,
                                   "unit": "ratio"}))
    for name, m in rows:
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:34s} {value:>14s} {m['unit']}")
    print(f"# attempted {attempted}  failed {failed}  "
          f"latency samples {report['latency_samples']}")
    for v in report["violations"]:
        print(f"# VIOLATION: {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"run.py: unknown workload {args.workload}")
        return 1
    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if k != "DRONET_PROFILE"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"run.py: perfbench exited with status {proc.returncode}")
        return 1
    report = json.loads(lines[-1])

    metrics, problems = select_metrics(report, spec, args.trace)
    report["violations"] += problems
    correct = proc.returncode == 0 and not report["violations"]
    print_table(report, metrics, args.trace)

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"correct": correct, "metrics": metrics, "report": report}) + "\n")

    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
