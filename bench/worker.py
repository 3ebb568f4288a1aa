"""One workload in one fresh process; started by run.py, not by hand.

Prints READY once set-up is done (run.py times set-up up to that line),
then runs ops in a closed loop for the requested seconds and prints one
JSON result line.  With --probe it exits right after READY.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_package():
    # the benchmark measures the checkout's own source tree, never an
    # installed copy of the package
    sys.path.insert(0, str(ROOT / "src"))
    import pswarp

    if Path(pswarp.__file__).resolve().parent != ROOT / "src" / "pswarp":
        raise ImportError(f"pswarp imported from {pswarp.__file__}, not {ROOT / 'src'}")
    return pswarp


def _layer_metrics(tracer, ops, gamma_cold_s, plan_calls, reuse):
    """Reduce the traced run to the per-layer metrics of LAYER_METRICS."""
    from spans import BOUNDARIES, OP
    from workloads import LAYER_METRICS

    ids = [op["index"] for op in ops]
    n = max(len(ids), 1)
    self_times = tracer.self_times()
    out = {}
    for boundary in BOUNDARIES:
        out[boundary + "_s"] = sum(self_times[i][boundary] for i in ids) / n
    for key in ("inverse_points", "kernels", "row_cap_hits", "factorizations",
                "twisted_rows", "dense_flops", "dense_bytes", "window_evals",
                "band_complement_calls"):
        metric = next(m for m in LAYER_METRICS if m.endswith("." + key))
        out[metric] = sum(tracer.counts[i][key] for i in ids) / n
    rows = [r for i in ids for r in tracer.values[i]["rows"]]
    out["symbolic_kernel.rows"] = statistics.median(rows) if rows else 0
    out["symbolic_kernel.gamma_cold_s"] = gamma_cold_s
    out["saf_operators.growth_warnings"] = sum(op["growth_warnings"] for op in ops) / n
    out["domain_indexing.J_min"] = statistics.median(op["J_min"] for op in ops) if ops else 0
    radii = [op["spectral_radius"] for op in ops if op["spectral_radius"] is not None]
    out["dual_operators.spectral_radius"] = statistics.median(radii) if radii else 0
    out["nufft.fft_len"] = max(tracer.fft_lens, default=0)
    hits, calls = plan_calls
    out["nufft.plan_hit_ratio"] = hits / calls if calls else 0
    out["nufft.map_reuse_share"] = reuse
    durations = [op["wall_s"] for op in ops]
    out["trace.op_s"] = statistics.median(durations) if durations else 0
    root_self = sum(self_times[i][OP] for i in ids)
    out["trace.unexplained_share"] = root_self / sum(durations) if durations else 0
    missing = set(LAYER_METRICS) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics without a value: {sorted(missing)}")
    return {m: out[m] for m in LAYER_METRICS}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    pkg = _import_package()
    import numpy
    import scipy
    from pswarp import _nufft, symbolic_kernel
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.size)
    gamma_cold_s = 0.0
    if wl.build:
        t = time.perf_counter()
        symbolic_kernel.gamma_tables(symbolic_kernel.MAX_LEVEL_DEFAULT)
        gamma_cold_s = time.perf_counter() - t
    wl.setup()
    print("READY", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(pkg)
        tracer.install()
    plan0 = _nufft._plan.cache_info()
    ops, failures, seen = [], [], set()
    reused = 0
    first_inputs = None
    start = time.perf_counter()
    index = 0
    walls = []
    # an op starts only when the median op so far still fits in the window
    while index == 0 or (time.perf_counter() - start + statistics.median(walls)
                         <= args.seconds):
        inp = wl.inputs(args.seed, index)
        first_inputs = first_inputs or inp
        key = wl.key(inp)
        reused += key in seen
        seen.add(key)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = workloads.run_op(wl, inp)
            else:
                with tracer.op(index):
                    out = workloads.run_op(wl, inp)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = {"J_min": math.nan, "growth_warnings": 0}
            error = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        gates = wl.check(inp, out) if error is None else {"ok": False, "error": error}
        record = {
            "index": index, "inputs": wl.describe(inp), "wall_s": t1 - t0,
            "cpu_s": c1 - c0, "J_min": out["J_min"],
            "growth_warnings": out["growth_warnings"],
            "spectral_radius": (out["D"].correction.spectral_radius
                                if "D" in out else None),
            "gates": gates,
        }
        ops.append(record)
        walls.append(record["wall_s"])
        if not gates["ok"]:
            failures.append(record)
            print(json.dumps({"failed_op": record, "seed": args.seed,
                              "workload": wl.name}, default=str),
                  file=sys.stderr, flush=True)
        index += 1
    plan1 = _nufft._plan.cache_info()
    if tracer is not None:
        tracer.uninstall()

    try:
        oracle = wl.oracle(first_inputs)  # untimed, once per run
    except Exception as exc:  # a raise fails the oracle gate
        oracle = (math.inf, 0.0)
        print(f"oracle check raised {type(exc).__name__}: {exc}", file=sys.stderr)
    result = {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "ops": ops,
        "failed": len(failures),
        "gamma_cold_s": gamma_cold_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle": None if oracle is None else {"error": oracle[0], "tol": oracle[1],
                                               "ok": oracle[0] <= oracle[1]},
    }
    if tracer is not None:
        hits = plan1.hits - plan0.hits
        calls = hits + plan1.misses - plan0.misses
        result["layers"] = _layer_metrics(tracer, ops, gamma_cold_s,
                                          (hits, calls), reused / len(ops))
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.dump()))
    print(json.dumps(result, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
