"""pswarp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload pwl_freq --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (bench/worker.py) importing the checkout's src/ tree; four more
fresh processes, two before it and two after, only set up, so set-up time
is the median of five.
With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics from spans around
the calls into each module.  Every run also writes its full record (ops,
gates, environment) to bench/out/.  --smoke runs the smallest sizes.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# workloads.DIAGNOSTIC: runnable, not in BENCHMARK.json (they fail a gate
# at the seed commit); named here because run.py does not import pswarp
DIAGNOSTIC = ("nufft_apply",)
# one BLAS thread: on a shared two-core host a second one bought no wall
# time per op, only CPU time spent waiting on the first
BLAS_THREADS = 1
# beyond --seconds, for set-up, the oracle and the set-up probes; a worker
# still running then is killed, so a stuck 40 s run still ends within 180 s
GRACE_S = 100


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _start_worker(args, extra, deadline):
    """Run worker.py, killed at `deadline` (perf_counter time); return
    (seconds until READY, stdout lines after it)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", "smoke" if args.smoke else "full",
           *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=_worker_env())
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif ready is not None:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker exited with code {code} ({' '.join(cmd)})")
    return ready, lines


def _digits(err):
    """-log10 of an error, with an exact zero read as the float64 floor."""
    return -math.log10(max(float(err), 1e-17))


def tail_percentile(samples):
    """Highest of p99/p95/p90 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def _end_to_end(result, setup):
    ops = result["ops"]
    checked = [op["gates"] for op in ops if "apply" in op["gates"]]
    paired = [g["pairing"] for g in checked if "pairing" in g]
    wall = [op["wall_s"] for op in ops]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median(wall),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": result["peak_rss_mb"],
        "apply_digits": _digits(max(g["apply"] for g in checked)) if checked else 0.0,
    }
    oracle = result["oracle"]
    extra = {
        "ops": len(ops),
        "op_s_tail": tail_percentile(wall),
        "failed_frac": result["failed"] / len(ops),
        "pairing_digits": _digits(max(paired)) if paired else None,
        "oracle_digits": None if oracle is None else _digits(oracle["error"]),
        "setup_samples_s": setup,
        "gamma_cold_s": result["gamma_cold_s"],
    }
    return metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]} | set(DIAGNOSTIC):
        ap.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(out_dir / f"{stem}-spans.json")]
    deadline = time.perf_counter() + args.seconds + GRACE_S
    # set-up probes come half before and half after the timed run, so the
    # median samples the host at both ends of it
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setup = [_start_worker(args, ["--probe"], deadline)[0]
                 for _ in range(probes // 2)]
        ready, lines = _start_worker(args, extra, deadline)
        result = json.loads(lines[-1])
        setup.append(ready)
        setup += [_start_worker(args, ["--probe"], deadline)[0]
                  for _ in range(probes - probes // 2)]
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, extra_metrics = result["layers"], {"ops": len(result["ops"])}
    else:
        values, extra_metrics = _end_to_end(result, setup)
    oracle = result["oracle"]
    correct = result["failed"] == 0 and (oracle is None or oracle["ok"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "metrics": values, "extra": extra_metrics, "oracle": oracle,
        "env": {"git_sha": _git_sha(), "source_sha256": _source_sha256(),
                "python": platform.python_version(), **result["versions"],
                "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
                "blas_threads": BLAS_THREADS},
        "ops": result["ops"],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **extra_metrics},
                     default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": len(result["ops"]),
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
