"""The benchmark's own tests, at the smoke sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import bisect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import pswarp  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

BUILD = {"warp_map.eval", "domain_indexing.spec", "symbolic_kernel.build_kernel",
         "saf_operators.build_factorization", "saf_operators.build_bases",
         "saf_operators.correct", "swf_operators.dense", "swf_operators.apply",
         "nufft.eval", "lattice.band_complement", "dual_operators.gram",
         "dual_operators.resum", "dual_operators.dual_factorization",
         "dual_operators.apply_dual"}
# the boundaries each workload's ops must cross; together they cover all
EXPECTED = {
    "pwl_freq": BUILD | {"warp_map.construct", "saf_operators.twisted_fold",
                         "nufft.project"},
    "exp_time": BUILD | {"warp_map.inverse", "nufft.project"},
    "nufft_apply": {"warp_map.eval", "warp_map.inverse", "swf_operators.apply",
                    "nufft.eval", "nufft.project"},
}


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_workloads_and_metric_map():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [n for n in workloads.WORKLOADS if n not in workloads.DIAGNOSTIC]
    assert run.DIAGNOSTIC == workloads.DIAGNOSTIC
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers == {k: v[0] for k, v in workloads.LAYER_METRICS.items()}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(99))) is None
    assert run.tail_percentile(list(range(100)))[0] == 90
    assert run.tail_percentile(list(range(1000)))[0] == 99


def test_inputs_depend_on_seed_and_index_only():
    wl = workloads.PwlFreq("smoke")
    a = [wl.inputs(5, i) for i in range(workloads.STRATA)]
    b = [wl.inputs(5, i) for i in reversed(range(workloads.STRATA))][::-1]
    for x, y in zip(a, b):
        assert x["knots"] == y["knots"] and np.array_equal(x["X"], y["X"])
    # a block of STRATA ops takes one map from every slope band, and all
    # maps respect the slope bound
    bands = {bisect.bisect(wl.bands, x["max_slope"]) for x in a}
    assert len(bands) == workloads.STRATA
    assert max(x["max_slope"] for x in a) <= workloads.MAX_SLOPE
    assert wl.inputs(6, 0)["knots"] != a[0]["knots"]


def _equal(x, y):
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    if hasattr(x, "entries"):
        return _equal(x.entries, y.entries)
    return x == y


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_op_records_every_boundary_and_changes_no_output(name):
    wl = workloads.WORKLOADS[name]("smoke")
    wl.setup()
    inp = wl.inputs(11, 0)
    plain = workloads.run_op(wl, inp)
    originals = {(path, attr): spans._resolve(pswarp, path).__dict__[attr]
                 for targets in spans.BOUNDARIES.values()
                 for path, attr, _ in targets}
    tracer = spans.Tracer(pswarp)
    tracer.install()
    try:
        with tracer.op(0):
            traced = workloads.run_op(wl, inp)
        with tracer.op(1):
            workloads.run_op(wl, inp)
    finally:
        tracer.uninstall()
    for (path, attr), fn in originals.items():
        assert spans._resolve(pswarp, path).__dict__[attr] is fn
    assert set(plain) == set(traced)
    for key in plain:
        assert _equal(plain[key], traced[key]), key
    recorded = {s[0] for s in tracer.spans}
    assert EXPECTED[name] <= recorded, EXPECTED[name] - recorded
    # counts come from sizes, so the same inputs give the same counts
    assert tracer.counts[0] == tracer.counts[1]
    assert tracer.values[0] == tracer.values[1]
    # self times partition each op: they sum to its root span
    self_times = tracer.self_times()[0]
    root = next(e - s for n, s, e, _, op in tracer.spans if n == spans.OP and op == 0)
    assert sum(self_times.values()) == pytest.approx(root, rel=1e-9)


def test_expected_boundaries_cover_every_wrapper():
    assert set().union(*EXPECTED.values()) == set(spans.BOUNDARIES)
    # the workloads BENCHMARK.json lists measure every layer on their own
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set().union(*(EXPECTED[n] for n in listed)) == set(spans.BOUNDARIES)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_result_line(name, trace):
    done = _run_bench("--workload", name, "--seed", "2", "--seconds", "1",
                      "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = last["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and isinstance(entry["value"], (int, float))
    if not trace:
        assert all(last["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done = _run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
