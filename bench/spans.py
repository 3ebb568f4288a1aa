"""Span recording around the calls into pswarp's modules.

The wrappers live here, not in the package: ``Tracer.install`` replaces
each boundary on the object its caller actually looks the name up on
(``saf_operators.lattice_tail_values``, not ``_lattice``'s, because
``saf_operators`` imported the name directly) and ``uninstall`` puts the
originals back.  Per-row scalar helpers such as ``zeta_deriv`` run about
10^6 times per op and stay unwrapped; their parent span covers them.

Spans are recorded only while an op is open, kept in memory, and reduced
to self time: a span's duration minus the time its child spans cover.
"""

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

OP = "op"


# -- counts computed from arguments or results at a boundary ---------------


def _kernel(tracer, args, bundle):
    tracer.count("kernels", len(bundle.kernels))
    tracer.value("rows", bundle.rows)
    cap = tracer.pkg.symbolic_kernel.ROW_CAP
    tracer.count("row_cap_hits", int(bundle.rows >= cap))


def _window(tracer, args, result):
    width = 2 * tracer.pkg._nufft.HALF_WIDTH + 1
    tracer.count("window_evals", np.size(args[0]) * width)


def _dense(tracer, args, op):
    # swf_freq sums M terms per entry through (rows x M) @ (M x cols);
    # swf_time evaluates one Dirichlet kernel per (M x N) entry.  Bytes
    # are the complex128 matrices the call materializes.
    rows, cols = op.entries.shape
    M = op.spec.M
    if op.kind == "swf_freq":
        tracer.count("dense_flops", rows * M * cols)
        tracer.count("dense_bytes", 16 * (rows * M + M * cols + rows * cols))
    else:
        tracer.count("dense_flops", rows * cols)
        tracer.count("dense_bytes", 16 * 2 * rows * cols)


def _counter(key):
    def observe(tracer, args, result):
        tracer.count(key, 1)
    return observe


def _inverse_points(tracer, args, result):
    tracer.count("inverse_points", np.size(args[1]))  # args[0] is self


# boundary name -> [(owner path inside pswarp, attribute, observer)].  The
# owner is where the caller looks the name up; see the module docstring.
BOUNDARIES = {
    "warp_map.construct": [("warp_map", "piecewise_linear_map", None)],
    "warp_map.eval": [("warp_map.WarpMap", "eval", None),
                      ("warp_map.WarpMap", "deriv1", None),
                      ("warp_map.WarpMap", "sampled_weight", None)],
    "warp_map.inverse": [("warp_map.InverseMap", "eval", _inverse_points),
                         ("warp_map.InverseMap", "deriv1", None),
                         ("warp_map.InverseMap", "sampled_weight", None)],
    "domain_indexing.spec": [("domain_indexing", "domain_spec", None)],
    "symbolic_kernel.build_kernel": [("symbolic_kernel", "build_kernel", _kernel)],
    "saf_operators.build_factorization": [
        ("saf_operators", "build_factorization", _counter("factorizations"))],
    "saf_operators.build_bases": [("saf_operators", "build_bases", None)],
    "saf_operators.twisted_fold": [
        ("saf_operators", "lattice_tail_values", _counter("twisted_rows"))],
    "saf_operators.correct": [("saf_operators", "build_W_f", None),
                              ("saf_operators", "build_W_t", None)],
    "swf_operators.dense": [("swf_operators", "swf_freq", _dense),
                            ("swf_operators", "swf_time", _dense)],
    "swf_operators.apply": [("swf_operators", "apply_swf_freq", None),
                            ("swf_operators", "apply_warped_dft", None),
                            ("swf_operators", "apply_swf_time", None),
                            ("swf_operators", "apply_swf_time_invmap", None)],
    "nufft.eval": [("_nufft", "nufft_eval", _window)],
    "nufft.project": [("_nufft", "nufft_project", _window)],
    "lattice.band_complement": [
        ("_lattice", "band_complement_power_sums", _counter("band_complement_calls"))],
    "dual_operators.gram": [("dual_operators", "tail_row_gram", None)],
    "dual_operators.resum": [("dual_operators", "compute_Z", None)],
    "dual_operators.dual_factorization": [
        ("dual_operators", "build_dual_factorization", None)],
    "dual_operators.apply_dual": [("dual_operators", "dual_W_f", None),
                                  ("dual_operators", "dual_W_t", None)],
}


def _resolve(pkg, path):
    obj = pkg
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans (name, start, end, parent, op id) at the boundaries.

    Alongside the spans it keeps, per op id, the counts computed at a
    boundary from sizes (``counts``), per-call values such as R
    (``values``) and the NUFFT plan grid lengths (``fft_lens``).
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(lambda: defaultdict(int))
        self.values = defaultdict(lambda: defaultdict(list))
        self.fft_lens = []
        self._stack = []
        self._op = None
        self._saved = []

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def op(self, op_id):
        """Open op `op_id` and its root span; spans outside ops are not kept."""
        self._op = op_id
        self._enter(OP)
        try:
            yield
        finally:
            self._exit()
            self._op = None

    def count(self, key, amount):
        self.counts[self._op][key] += amount

    def value(self, key, value):
        self.values[self._op][key].append(value)

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def install(self):
        for name, targets in BOUNDARIES.items():
            for path, attr, observe in targets:
                owner = _resolve(self.pkg, path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, observe))
        # _nufft looks its plan cache up as a module global; the wrapper
        # reads the grid length off the real result and keeps cache_info
        nufft = self.pkg._nufft
        plan = nufft._plan
        self._saved.append((nufft, "_plan", plan))

        @functools.wraps(plan)
        def plan_wrapper(*args):
            result = plan(*args)
            if self._op is not None:
                self.fft_lens.append(int(result[2]))
            return result

        plan_wrapper.cache_info = plan.cache_info
        nufft._plan = plan_wrapper

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """{op id: {boundary: self seconds}}; the root span is named 'op'."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, op_id), cov in zip(self.spans, covered):
            out[op_id][name] += (end - start) - cov
        return out

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
