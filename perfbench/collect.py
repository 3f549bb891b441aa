"""Run the benchmark over many seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 10 --out perfbench/results/baseline.json
    python3 perfbench/collect.py --workloads full-solve --seeds 5 --seconds 20

Runs one ``run.py`` process at a time, from the checkout root, with
``run_seconds`` from BENCHMARK.json unless ``--seconds`` says otherwise.
For every end-to-end metric it reports the median and the spread, which is
the distance between the first and third quartiles as a share of the median,
next to the metric's bound.  ``--trace-seeds`` adds traced runs for the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300

# Timings measured on the same 2-core machine before this benchmark existed,
# to check its first results against: (label, reference seconds, workload,
# how to read the same quantity from a run's report metrics, report metric
# whose run-to-run spread applies).  The first two are from the table in
# ROADMAP.md item 2; the last two from earlier ad-hoc profiling, on other
# instances than full-solve's.
REFERENCES = [
    ("exact LP, n = 200", 0.64, "full-solve",
     lambda m: m["exact_solve_s"], "exact_solve_s"),
    ("train, 300 iterations, batch 64", 0.5, "train",
     lambda m: 300.0 / m["train_steps_per_s"], "train_steps_per_s"),
    ("bound-check, 200 trials", 1.0, "bound-sweep",
     lambda m: 200.0 / m["bound_trials_per_s"], "bound_trials_per_s"),
    ("entropic, n = 1000, eps = 0.5", 1.5, "full-solve",
     lambda m: m["entropic_solve_s"], "entropic_solve_s"),
]


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarise(bench, runs, traced):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"seeds": [r["seed"] for r, _ in runs],
           "correct": all(res["correct"] for _, res in runs),
           "attempted": [res["attempted"] for _, res in runs],
           "failed": [res["failed"] for _, res in runs],
           "failed_by_type": {}, "failed_op_s": {}, "end_to_end": {}, "report": {}, "per_layer": {}}
    for report, _ in runs:
        for kind, count in report["failed_ops"]["by_type"].items():
            out["failed_by_type"][kind] = out["failed_by_type"].get(kind, 0) + count
        for op, seconds in report["failed_ops"]["seconds"].items():
            out["failed_op_s"].setdefault(op, []).extend(seconds)
    if len(runs) >= 2:
        for name, bound in bounds.items():
            values = [res["metrics"][name]["value"] for _, res in runs]
            q1, med, q3, sp = spread(values)
            out["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                                       "bound": bound, "values": values}
        for name, meta in runs[0][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            present = [v for v in values if v is not None]
            entry = {"unit": meta["unit"], "better": meta["better"], "values": values,
                     "median": statistics.median(present) if present else None}
            if len(present) >= 2 and entry["median"]:
                entry["spread"] = spread(present)[3]
            out["report"][name] = entry
    for name in bench["per_layer"]:
        values = [res["metrics"][name["name"]]["value"] for _, res in traced]
        if values:
            out["per_layer"][name["name"]] = {"unit": name["unit"], "median": statistics.median(values)}
    return out


def check_references(workloads):
    rows = []
    for label, ref, workload, read, metric in REFERENCES:
        summary = workloads.get(workload)
        if not summary or not summary["report"]:
            continue
        medians = {k: v["median"] for k, v in summary["report"].items()}
        measured = read(medians)
        diff = (measured - ref) / ref
        run_spread = summary["report"][metric].get("spread", 0.0)
        rows.append({"measurement": label, "reference_s": ref, "measured_s": measured,
                     "difference": diff, "run_to_run_spread": run_spread,
                     "beyond_spread": abs(diff) > run_spread})
    return rows


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace-seeds", type=int, default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary = {"run_seconds": args.seconds, "environment": None, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            report, result = run_once(workload, seed, args.seconds, 0)
            runs.append((report, result))
            summary["environment"] = summary["environment"] or report["environment"]
            print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr, flush=True)
        traced = [run_once(workload, seed, args.seconds, 1) for seed in seeds[:args.trace_seeds]]
        summary["workloads"][workload] = summarise(bench, runs, traced)
        for name, entry in summary["workloads"][workload]["end_to_end"].items():
            flag = "ok" if entry["spread"] < entry["bound"] / 3 else "WIDE"
            print(f"{workload:12s} {name:12s} median {entry['median']:.4g} "
                  f"spread {entry['spread']:.3f} bound {entry['bound']} {flag}", flush=True)
    summary["reference_check"] = check_references(summary["workloads"])
    for row in summary["reference_check"]:
        print(f"{row['measurement']}: {row['measured_s']:.3g} s vs {row['reference_s']} s "
              f"({row['difference']:+.0%}, spread {row['run_to_run_spread']:.0%})", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
