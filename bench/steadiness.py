"""Run bench/run.py over several seeds and report each metric's spread.

    python3 bench/steadiness.py --workloads pwl_freq exp_time --seeds 1-10

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  With --trace-too it also makes one traced run per
seed and reports the tracing overhead (traced over untraced op_s) and
the share of traced op time no named self time explains.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace-too", action="store_true")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = [_run(workload, seed, seconds, 0) for seed in args.seeds]
        rows = {}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            rows[name] = {"median": statistics.median(vals), "spread": spread(vals),
                          "bound": bounds[name], "values": vals}
        entry = {"metrics": rows,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs)}
        if args.trace_too:
            traced = [_run(workload, seed, seconds, 1) for seed in args.seeds]
            op_traced = statistics.median(r["metrics"]["trace.op_s"]["value"] for r in traced)
            entry["tracing_overhead"] = op_traced / rows["op_s"]["median"] - 1.0
            entry["unexplained_share"] = statistics.median(
                r["metrics"]["trace.unexplained_share"]["value"] for r in traced)
        report[workload] = entry
        for name, row in rows.items():
            print(f"{workload:12s} {name:14s} median {row['median']:.6g}  "
                  f"spread {row['spread']:.4f}  bound {row['bound']}", flush=True)
        print(f"{workload:12s} attempted {entry['attempted']} failed {entry['failed']}"
              + (f"  tracing overhead {entry['tracing_overhead']:+.3f}"
                 f"  unexplained {entry['unexplained_share']:.4f}"
                 if args.trace_too else ""), flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
