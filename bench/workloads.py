"""The benchmark's workloads, their correctness gates and metric map.

Each workload is one process with one caller in a closed loop: the next
op starts when the previous one returns.  Inputs come from the seed and
the op index alone, so a seed names the same op sequence on every run.

Gate tolerances are fixed here, before any timing, from what the
program states about itself; they are not tuned to pass.  An op that
raises or breaches a gate counts as failed, and its inputs are logged.
Maps are never re-drawn or filtered by outcome.
"""

import functools
import math
import warnings

import numpy as np

from pswarp import (
    dense_oracle,
    domain_indexing as di,
    dual_operators as do,
    saf_operators as saf,
    swf_operators as swf,
    symbolic_kernel as sk,
    warp_map as wm,
)

# ||D'W - I||_2 may not exceed max(PAIRING_FLOOR, TRUNCATION_SAFETY * J^-R):
# 1e-10 is the pairing tolerance of the package's own dual tests, and the
# duals are documented exact "up to the kernel truncation floor" J^-R,
# where R is capped at ROW_CAP.  TRUNCATION_SAFETY is the factor
# build_factorization itself uses before calling a truncation unreliable.
PAIRING_FLOOR = 1e-10
TRUNCATION_SAFETY = 1e3
# matrix-free appliers are documented to agree with dense to 1e-12;
# one order of margin, relative to the largest reference entry
APPLY_TOL = 1e-11
# band fold vs the quadrature oracle: the package's own oracle tests use
# 1e-10 absolute at M = 67; relative here, with the same truncation floor
ORACLE_FLOOR = 1e-9

SIGNALS = 4  # signals sent through the dense operators per op
PROBES = 8  # output entries per applier checked by direct sum
SPARSE = 16  # nonzero frequencies of the apply_swf_freq probe signal
MAX_SLOPE = 1.6  # pwl_freq slope bound; the only constraint on its maps
ORACLE_N = 33
STRATA = 8  # equal-probability max-slope bands of the pwl_freq distribution

# metric -> (unit, what it measures, end-to-end metric it should move, on)
LAYER_METRICS = {
    "warp_map.construct_s": ("s", "map constructors (classification, slope range)", "op_s", "pwl_freq"),
    "warp_map.eval_s": ("s", "WarpMap.eval/deriv1/sampled_weight self time", "op_s", "pwl_freq, exp_time; nufft_apply (diagnostic)"),
    "warp_map.inverse_s": ("s", "InverseMap.eval/deriv1/sampled_weight self time", "op_s", "exp_time; nufft_apply (diagnostic)"),
    "warp_map.inverse_points": ("count", "points inverted per op", "op_s", "exp_time; nufft_apply (diagnostic)"),
    "domain_indexing.spec_s": ("s", "domain_spec including check_feasibility", "op_s", "pwl_freq; setup_s elsewhere"),
    "domain_indexing.J_min": ("ratio", "smallest decay ratio of the op's spec", "op_s", "pwl_freq"),
    "symbolic_kernel.gamma_cold_s": ("s", "first gamma_tables(MAX_LEVEL_DEFAULT) in the process", "setup_s", "pwl_freq, exp_time"),
    "symbolic_kernel.build_kernel_s": ("s", "build_kernel self time", "op_s", "pwl_freq"),
    "symbolic_kernel.kernels": ("count", "jump kernels built per op", "op_s", "pwl_freq"),
    "symbolic_kernel.rows": ("count", "median R of the op's kernel builds", "op_s, pairing_digits", "pwl_freq"),
    "symbolic_kernel.row_cap_hits": ("count", "kernel builds per op with R at ROW_CAP", "pairing_digits", "pwl_freq, exp_time"),
    "saf_operators.build_factorization_s": ("s", "build_factorization self time", "op_s", "pwl_freq, exp_time"),
    "saf_operators.factorizations": ("count", "factorizations built per op", "op_s", "pwl_freq, exp_time"),
    "saf_operators.build_bases_s": ("s", "build_bases (aligned zeta_deriv fold)", "op_s", "exp_time"),
    "saf_operators.twisted_fold_s": ("s", "calls into lattice_tail_values", "op_s", "pwl_freq; 0 on exp_time"),
    "saf_operators.twisted_rows": ("count", "lattice_tail_values calls per op", "op_s", "pwl_freq; 0 on exp_time"),
    "saf_operators.correct_s": ("s", "build_W_f/build_W_t self time (band fold, time correction)", "op_s", "exp_time"),
    "saf_operators.growth_warnings": ("count", "truncation RuntimeWarnings per op", "pairing_digits", "pwl_freq"),
    "swf_operators.dense_s": ("s", "swf_freq/swf_time self time", "op_s", "exp_time"),
    "swf_operators.dense_flops": ("count", "multiply-adds per op, computed from sizes", "op_s", "exp_time"),
    "swf_operators.dense_bytes": ("B", "bytes of dense matrices per op, computed from sizes", "peak_rss_mb", "exp_time"),
    "swf_operators.apply_s": ("s", "self time of the four matrix-free appliers", "op_s", "pwl_freq, exp_time; nufft_apply (diagnostic)"),
    "nufft.eval_s": ("s", "_nufft.nufft_eval", "op_s", "pwl_freq, exp_time; nufft_apply (diagnostic)"),
    "nufft.project_s": ("s", "_nufft.nufft_project", "op_s", "pwl_freq, exp_time; nufft_apply (diagnostic)"),
    "nufft.window_evals": ("count", "points x (2 HALF_WIDTH + 1) per op, computed", "op_s", "pwl_freq, exp_time; nufft_apply (diagnostic)"),
    "nufft.fft_len": ("count", "largest spreading grid length of the run's plans", "op_s", "pwl_freq, exp_time; nufft_apply (diagnostic)"),
    "nufft.plan_hit_ratio": ("ratio", "_plan cache hits / calls over the run's ops", "op_s", "pwl_freq, exp_time; nufft_apply (diagnostic)"),
    "nufft.map_reuse_share": ("share", "ops whose (map, spec) an earlier op already used", "op_s", "0 on pwl_freq, exp_time (b varies); 1 on nufft_apply (diagnostic)"),
    "lattice.band_complement_s": ("s", "_lattice.band_complement_power_sums", "op_s", "pwl_freq"),
    "lattice.band_complement_calls": ("count", "band_complement_power_sums calls per op", "op_s", "pwl_freq"),
    "dual_operators.gram_s": ("s", "tail_row_gram self time", "op_s", "pwl_freq"),
    "dual_operators.resum_s": ("s", "compute_Z", "op_s", "pwl_freq, exp_time"),
    "dual_operators.dual_factorization_s": ("s", "build_dual_factorization self time (stacking, eigvals)", "op_s", "pwl_freq, exp_time"),
    "dual_operators.apply_dual_s": ("s", "dual_W_f/dual_W_t self time (correction factor, products)", "op_s", "exp_time"),
    "dual_operators.spectral_radius": ("ratio", "median dual spectral radius of the run's ops", "pairing_digits", "pwl_freq, exp_time"),
    "trace.op_s": ("s", "median op wall time with tracing on", "tracing overhead", "all"),
    "trace.unexplained_share": ("share", "share of traced op time outside every named self time", "-", "all"),
}


def _truncation_tol(floor, J, rows_cap=sk.ROW_CAP, tol=sk.KERNEL_TOL_DEFAULT):
    # the a-priori floor J^-R for the R the program is documented to choose
    R = min(rows_cap, math.ceil(-math.log(tol) / math.log(J)))
    return max(floor, TRUNCATION_SAFETY * J ** (-R))


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _rng(seed, stream, index):
    """Generator for one (seed, stream, index); streams keep draws independent."""
    return np.random.default_rng([int(seed) % 2**64, stream, int(index)])


OP_STREAM, MAP_STREAM, BAND_STREAM = 0, 1, 2


def _bit_reverse(i, size):
    bits = size.bit_length() - 1
    return int(format(i, f"0{bits}b")[::-1], 2)


def _phase(k, x):
    """exp(2 pi j k x) with k*x reduced mod 1 in extended precision.

    The probes reach |k x| ~ 1e5 cycles, where a float64 product alone
    would put ~1e-11 into the reference.
    """
    cyc = (np.asarray(k, dtype=np.longdouble) * np.asarray(x, dtype=np.longdouble)) % 1
    return np.exp(2j * np.pi * cyc.astype(float))


def _dirichlet(x, size):
    """sum_{|k| <= (size-1)/2} e^(2 pi j k x) in extended-precision arguments."""
    x = np.asarray(x, dtype=np.longdouble)
    xr = x - np.round(x)
    num = np.sin(np.pi * ((size * xr) % 2).astype(float))
    den = np.sin(np.pi * xr.astype(float))
    out = np.full(den.shape, float(size))
    nz = den != 0.0
    out[nz] = num[nz] / den[nz]
    return out


def _direct_dft(wv, wt, ks, x, M):
    """apply_warped_dft by direct sum at rows ks:
    sum_m wt_m x_m e^(-2 pi j k w_m) / sqrt(M)."""
    return _phase(-np.asarray(ks)[:, None], wv[None, :]) @ (wt * x) / math.sqrt(M)


def _direct_invmap(vv, vwt, x, q, M, N):
    """apply_swf_time_invmap by direct sum at outputs q:
    sum_p Dv_p^b D_M(v_p - q/M) x_p / sqrt(MN)."""
    grid = np.asarray(q, dtype=np.longdouble) / M
    ker = _dirichlet(np.asarray(vv, np.longdouble)[None, :] - grid[:, None], M)
    return ker @ (vwt * x) / math.sqrt(M * N)


def _draw_map(rng):
    """One 3-knot map: knots and values uniform, max slope at most MAX_SLOPE."""
    while True:
        knots = np.sort(rng.uniform(0.0, 1.0, 2))
        values = np.sort(rng.uniform(0.0, 1.0, 2))
        slopes = np.diff([0.0, *values, 1.0]) / np.diff([0.0, *knots, 1.0])
        if slopes.max() <= MAX_SLOPE:
            return [0.0, *knots.tolist()], [0.0, *values.tolist()], float(slopes.max())


@functools.cache
def _slope_bands(samples=1 << 18):
    """Edges of STRATA equal-probability bands of the maps' max slope.

    Estimated once from a fixed generator, so they are the same in every
    run; the outer edges are open so every map falls in a band.
    """
    u = np.random.default_rng(0).uniform(0.0, 1.0, (samples, 2, 2))
    u.sort(axis=2)
    knots, values = u[:, 0], u[:, 1]
    widths = np.diff(knots, prepend=0.0, append=1.0)
    rises = np.diff(values, prepend=0.0, append=1.0)
    slope = (rises / widths).max(axis=1)
    inner = np.quantile(slope[slope <= MAX_SLOPE], np.arange(1, STRATA) / STRATA)
    return [-math.inf, *inner.tolist(), math.inf]


def _signals(rng, n, k, complex_=True):
    x = rng.standard_normal((n, k))
    if complex_:
        x = x + 1j * rng.standard_normal((n, k))
    return x


def _count_growth(caught):
    return sum(1 for w in caught if issubclass(w.category, RuntimeWarning)
               and "truncated" in str(w.message))


def _oracle_error(warp, b, n):
    """Relative max difference of band_fold and the oracle's aliasing matrix."""
    spec = di.domain_spec(warp, n, 2 * n + 1, b=b)
    fact = saf.build_factorization(warp, spec, b)
    ref = dense_oracle.aliasing_matrix(warp, spec, b)
    return _rel(fact.band_fold, ref)


def _pairing_gates(D, W, X, Xr, tol):
    N = W.shape[1]
    pairing = float(np.linalg.norm(D.entries.conj().T @ W.entries - np.eye(N), 2))
    recon = float(np.linalg.norm(Xr - X) / np.linalg.norm(X))
    return {"pairing": pairing, "reconstruction": recon, "pairing_tol": tol,
            "ok": pairing <= tol and recon <= tol}


class PwlFreq:
    name = "pwl_freq"
    why = ("Frequency warping with a fresh 3-knot piecewise-linear map per op: "
           "twisted lattice folds and the cross-phase tail Gram dominate, "
           "no build result is shared between ops, NUFFT work is negligible.")
    sizes = {"full": 33, "smoke": 9}
    b = 0.5
    build = True

    def __init__(self, size):
        self.N = self.sizes[size]
        self.M = 2 * self.N + 1
        self.oracle_n = ORACLE_N if size == "full" else self.N
        self.bands = _slope_bands()

    def setup(self):
        pass

    def inputs(self, seed, index):
        # The max slope sets J and so R and most of the op's cost.  Each
        # block of STRATA ops takes one map from every equal-probability
        # slope band, in a seeded rotation of bit-reversed band order, so
        # any run's ops spread over the slope range the same way.  Within
        # its band a map is drawn from the unchanged distribution.
        block, pos = divmod(index, STRATA)
        band = (_bit_reverse(pos, STRATA)
                + int(_rng(seed, BAND_STREAM, block).integers(STRATA))) % STRATA
        lo, hi = self.bands[band], self.bands[band + 1]
        rng = _rng(seed, MAP_STREAM, index)
        while True:
            knots, values, max_slope = _draw_map(rng)
            if lo <= max_slope < hi:
                break
        sig = _rng(seed, OP_STREAM, index)
        return {"knots": knots, "values": values, "max_slope": max_slope,
                "b": self.b, "X": _signals(sig, self.N, SIGNALS),
                "x_dft": _signals(sig, self.M, 1)[:, 0]}

    def key(self, inp):
        return (tuple(inp["knots"]), tuple(inp["values"]), self.N, self.M, inp["b"])

    def describe(self, inp):
        return {"knots": inp["knots"], "values": inp["values"], "b": inp["b"]}

    def op(self, inp):
        b, X = inp["b"], inp["X"]
        w = wm.piecewise_linear_map(inp["knots"], inp["values"])
        spec = di.domain_spec(w, self.N, self.M, b=b)
        D = do.dual_W_f(w, spec, b)
        W = saf.build_W_f(w, spec, b, factorization=D.correction.fact)
        Y = W.apply(X)
        Xr = D.entries.conj().T @ Y
        dense = swf.swf_freq(w, spec, b).apply(X)
        free = np.stack([swf.apply_swf_freq(w, spec, X[:, k], b)
                         for k in range(X.shape[1])], axis=1)
        dft = swf.apply_warped_dft(w, spec, inp["x_dft"], b)
        return {"W": W, "D": D, "Y": Y, "Xr": Xr, "dense": dense, "free": free,
                "dft": dft, "J_min": spec.feasibility.J_min}

    def check(self, inp, out):
        J = self.M / (self.N * inp["max_slope"])
        gates = _pairing_gates(out["D"], out["W"], inp["X"], out["Xr"],
                               _truncation_tol(PAIRING_FLOOR, J))
        # apply_warped_dft against a direct sum over every output row
        w = wm.piecewise_linear_map(inp["knots"], inp["values"])
        tau = np.arange(self.M) / self.M
        ref = _direct_dft(w.eval(tau), w.sampled_weight(tau, inp["b"]),
                          out["W"].spec.output_set.indices, inp["x_dft"], self.M)
        gates["apply"] = max(_rel(out["free"], out["dense"]), _rel(out["dft"], ref))
        gates["ok"] = gates["ok"] and gates["apply"] <= APPLY_TOL
        return gates

    def oracle(self, inp):
        w = wm.piecewise_linear_map(inp["knots"], inp["values"])
        err = _oracle_error(w, inp["b"], self.oracle_n)
        J = (2 * self.oracle_n + 1) / (self.oracle_n * inp["max_slope"])
        return err, _truncation_tol(ORACLE_FLOOR, J)


class ExpTime:
    name = "exp_time"
    why = ("Time warping with the exponential map, whose one slope jump sits on "
           "the sample lattice: only the aligned fold runs, plus the time-domain "
           "correction and dense Dirichlet operators; b varies per op.")
    sizes = {"full": 129, "smoke": 9}
    b_range = (0.3, 0.7)
    max_slope = 2.0 * math.log(2.0)  # D(2^t - 1) just left of the seam
    build = True

    def __init__(self, size):
        self.N = self.sizes[size]
        self.M = 2 * self.N + 1
        self.oracle_n = ORACLE_N if size == "full" else self.N

    def setup(self):
        self.warp = wm.exponential_map()
        self.inverse = self.warp.inverse()

    def inputs(self, seed, index):
        rng = _rng(seed, OP_STREAM, index)
        b = float(rng.uniform(*self.b_range))
        return {"b": b, "X": _signals(rng, self.N, SIGNALS, complex_=False)}

    def key(self, inp):
        return ("exponential", self.N, self.M, inp["b"])

    def describe(self, inp):
        return {"map": "exponential", "b": inp["b"]}

    def op(self, inp):
        b, X, w = inp["b"], inp["X"], self.warp
        spec = di.domain_spec(w, self.N, self.M, mode=di.TIME_WARPING, b=b)
        D = do.dual_W_t(w, spec, b)
        W = saf.build_W_t(w, spec, b, factorization=D.correction.fact)
        Y = W.apply(X)
        Xr = D.entries.conj().T @ Y
        dense = swf.swf_time(w, spec, b).apply(X)
        free = np.stack([swf.apply_swf_time(w, spec, X[:, k], b)
                         for k in range(X.shape[1])], axis=1)
        inv = swf.apply_swf_time_invmap(w, spec, X[:, 0], b, inverse=self.inverse)
        return {"W": W, "D": D, "Y": Y, "Xr": Xr, "dense": dense, "free": free,
                "inv": inv, "J_min": spec.feasibility.J_min}

    def check(self, inp, out):
        M, N = self.M, self.N
        J = M / (N * self.max_slope)
        gates = _pairing_gates(out["D"], out["W"], inp["X"], out["Xr"],
                               _truncation_tol(PAIRING_FLOOR, J))
        gates["real"] = bool(np.all(out["W"].entries.imag == 0.0)
                             and np.all(out["D"].entries.imag == 0.0)
                             and np.all(out["Y"].imag == 0.0)
                             and np.all(out["Xr"].imag == 0.0)
                             and np.isrealobj(out["free"])
                             and np.isrealobj(out["inv"]))
        # apply_swf_time_invmap against a direct sum over every output
        y = np.arange(N) / N
        ref = _direct_invmap(self.inverse.eval(y), self.inverse.sampled_weight(y, inp["b"]),
                             inp["X"][:, 0], np.arange(M), M, N)
        gates["apply"] = max(_rel(out["free"], out["dense"]), _rel(out["inv"], ref))
        gates["ok"] = gates["ok"] and gates["real"] and gates["apply"] <= APPLY_TOL
        return gates

    def oracle(self, inp):
        err = _oracle_error(self.warp, inp["b"], self.oracle_n)
        J = (2 * self.oracle_n + 1) / (self.oracle_n * self.max_slope)
        return err, _truncation_tol(ORACLE_FLOOR, J)


def _probes(rng, size):
    """Both end entries plus seeded interior ones.

    The ends are always checked: a frequency-indexed output is least
    accurate at the band edges, where the window deconvolution is largest,
    and a run's worst error should not depend on whether a draw hit them.
    """
    inner = rng.choice(np.arange(1, size - 1), PROBES - 2, replace=False)
    return np.sort(np.concatenate(([0, size - 1], inner)))


class NufftApply:
    """Diagnostic workload, not listed in BENCHMARK.json.

    At N = 65537 every applier misses the direct sum by 1e-10 to 5e-9
    relative (worst at the band edges of apply_warped_dft), against the
    1e-13 the _nufft docstring claims and the APPLY_TOL gate; at the
    smoke size N = 257 they agree to 1e-12.  Every op fails that gate, so
    a run reports correct: false until the program is fixed.  It stays
    runnable (run.py --workload nufft_apply) to reproduce the defect; its
    layers are measured on the listed workloads at their sizes.
    """

    name = "nufft_apply"
    why = ("Matrix-free NUFFT appliers only, on one fixed (map, spec) built in "
           "set-up: window evaluation, spreading and inverse-map Newton steps "
           "dominate, and every op reuses the same map.")
    sizes = {"full": 65537, "smoke": 257}
    b = 0.5
    build = False

    def __init__(self, size):
        self.N = self.sizes[size]
        self.M = 2 * self.N + 1
        self._ref = None

    def setup(self):
        self.warp = wm.piecewise_linear_map()
        self.spec = di.domain_spec(self.warp, self.N, self.M,
                                   mode=di.TIME_WARPING, b=self.b)
        self.inverse = self.warp.inverse()

    def inputs(self, seed, index):
        rng = _rng(seed, OP_STREAM, index)
        N, M = self.N, self.M
        support = np.sort(rng.choice(N, SPARSE, replace=False))
        x1 = np.zeros(N, dtype=complex)
        x1[support] = rng.standard_normal(SPARSE) + 1j * rng.standard_normal(SPARSE)
        return {
            "b": self.b,
            "x_freq": x1,
            "x_dft": rng.standard_normal(M) + 1j * rng.standard_normal(M),
            "x_time": rng.standard_normal(N),
            "x_inv": rng.standard_normal(N),
            "probes": {name: _probes(rng, M) for name in ("freq", "dft", "time", "inv")},
        }

    def key(self, inp):
        return ("piecewise_linear", self.N, self.M, inp["b"])

    def describe(self, inp):
        return {"map": "piecewise_linear (built-in)", "b": inp["b"]}

    def op(self, inp):
        w, spec, b = self.warp, self.spec, inp["b"]
        return {
            "freq": swf.apply_swf_freq(w, spec, inp["x_freq"], b),
            "dft": swf.apply_warped_dft(w, spec, inp["x_dft"], b),
            "time": swf.apply_swf_time(w, spec, inp["x_time"], b),
            "inv": swf.apply_swf_time_invmap(w, spec, inp["x_inv"], b,
                                             inverse=self.inverse),
            "J_min": spec.feasibility.J_min,
        }

    def _reference_grid(self, b):
        # map samples shared by every probe; computed once, outside the ops
        if self._ref is None:
            M, N = self.M, self.N
            tau = np.arange(M) / M
            y = np.arange(N) / N
            vv = self.inverse.eval(y)
            self._ref = {
                "wv": self.warp.eval(tau),
                "wt": self.warp.sampled_weight(tau, b),
                "vv": vv,
                "vwt": self.inverse.sampled_weight(y, b),
                "inverse_residual": float(np.max(np.abs(self.warp.eval(vv) - y))),
            }
        return self._ref

    def check(self, inp, out):
        M, N = self.M, self.N
        g = self._reference_grid(inp["b"])
        wv, wt, vv, vwt = g["wv"], g["wt"], g["vv"], g["vwt"]
        p = inp["probes"]
        out_ks = self.spec.output_set.indices
        in_ks = self.spec.input_set.indices
        grid_n = np.arange(N, dtype=np.longdouble) / N
        norm = math.sqrt(M * N)
        errs = {}
        # apply_swf_freq: (1/M) sum_q wt_q e^(2 pi j m q/M) sum_n x_n e^(-2 pi j n w_q)
        x = inp["x_freq"]
        nz = np.flatnonzero(x)
        inner = _phase(-in_ks[nz][None, :], wv[:, None]) @ x[nz]
        ms = out_ks[p["freq"]]
        # the uniform stage's phase m q / M reduced exactly in integers
        cyc = (ms[:, None] * np.arange(M)[None, :]) % M
        ref = (np.exp(2j * np.pi * cyc / M) @ (wt * inner)) / M
        errs["freq"] = _rel(out["freq"][p["freq"]], ref)
        # apply_warped_dft: sum_m wt_m x_m e^(-2 pi j k w_m) / sqrt(M)
        ref = _direct_dft(wv, wt, out_ks[p["dft"]], inp["x_dft"], M)
        errs["dft"] = _rel(out["dft"][p["dft"]], ref)
        # apply_swf_time: wt_q sum_p D_N(w_q - p/N) x_p / sqrt(MN)
        q = p["time"]
        ker = _dirichlet(np.asarray(wv[q], np.longdouble)[:, None] - grid_n[None, :], N)
        ref = wt[q] * (ker @ inp["x_time"]) / norm
        errs["time"] = _rel(out["time"][q], ref)
        # apply_swf_time_invmap: sum_p Dv_p^b D_M(v_p - q/M) x_p / sqrt(MN)
        ref = _direct_invmap(vv, vwt, inp["x_inv"], p["inv"], M, N)
        errs["inv"] = _rel(out["inv"][p["inv"]], ref)
        apply = max(errs.values())
        real = bool(np.isrealobj(out["time"]) and np.isrealobj(out["inv"]))
        return {"apply": apply, "apply_by_applier": errs,
                "inverse_residual": g["inverse_residual"], "real": real,
                "ok": apply <= APPLY_TOL and real}

    def oracle(self, inp):
        return None


WORKLOADS = {cls.name: cls for cls in (PwlFreq, ExpTime, NufftApply)}
# runnable, but kept out of BENCHMARK.json because they fail a gate at the
# seed commit; see each class
DIAGNOSTIC = ("nufft_apply",)


def run_op(workload, inp):
    """One op with the growth warnings it raised counted, not printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = workload.op(inp)
    out["growth_warnings"] = _count_growth(caught)
    return out
