"""Sampled-warp operators: one warped interpolator and its views.

Sampling the warp w on the uniform grid t_q = q/M, q = 0..M-1, gives one
matrix, the interpolator

    X(q, p) = (Dw(t_q))^b D(w(t_q) - p/N) / sqrt(MN),

with D the Dirichlet kernel of the input frequency set: the band-limited
extension of N input samples evaluated on the warped grid.  The dense
operators are views of it:

* ``swf_time``: X itself, time-warping geometry only.  The symmetric odd
  domains of that mode make D, and so X, real: float64 entries, so real
  signals stay real.
* ``swf_freq``: its frequency-domain twin, entry (m, n) = (1/M) sum_q
  (Dw(t_q))^b e^{j2pi(m t_q - n w(t_q))}, which is the DFT conjugate
  conj(F_M X F_N^dagger) with F the unitary DFT of each index set, for
  any contiguous sets.  Its columns carry everything that folds back
  into the output band, which the low-rank correction later removes.
* ``warped_dft``: the weighted nonuniform Fourier matrix, entry (k, m) =
  (Dw(t_m))^b e^{-j2pi k w(t_m)} / sqrt(M).
* ``swf_time_invmap``: the same construction for the inverse map v on
  the output band at v(p/N), float64 as well.

``_to_time`` and ``_to_freq`` are the change of coordinates between the
two domains, A -> F_M^dagger conj(A) F_N and its inverse, by the FFT pair
the appliers use.  The corrections and their duals' factors are rank-J R
products L R (J jumps, R orders): ``_to_time_product`` crosses L and R one
at a time, and the dense ``_to_time`` is left to the tests as referee.

Every operator on w reads the map's b-free record, one per map and
geometry whatever the b (``domain_indexing.SampledGrid``): the spec's
``spec.samples`` and ``spec.dirichlet`` D.  The inverse-map operators
sample v per call, from the map's one InverseMap.  The weight,
``samples.weight(b)``, takes the mean of the one-sided values at grid
points on a derivative jump, under which the periodic fold of the dense
transform closes to machine precision.

The ``apply_*`` functions are the matrix-free twins of the dense forms:
the nonuniform stage goes through the spreading FFT in ``_nufft``, the
uniform stages through the same FFT pair.  They agree with the dense
matrices to 1e-12 (tested up to M = 511) and are preferred when only
products are needed.  The spreading plan, the points' cells, window
values and phases, is b-free and kept on the same record, one per set
(``spec.spread``), so every spec of a map and geometry spreads without
evaluating the window again.  A sum over e^{-2 pi j n w(t_q)} is the
conjugate of the sum of the conjugate coefficients over
e^{+2 pi j n w(t_q)}, so ``apply_swf_freq`` reads the same plan of
w(t_q) as ``apply_swf_time``; ``apply_swf_time_invmap`` samples v per
call and plans it per call.
"""

from dataclasses import dataclass

import numpy as np

from . import _nufft
from .domain_indexing import TIME_WARPING, DomainSpec, _resolve_b, dirichlet_kernel

__all__ = [
    "OperatorMatrix",
    "warped_dft",
    "swf_freq",
    "swf_time",
    "swf_time_invmap",
    "apply_warped_dft",
    "apply_swf_freq",
    "apply_swf_time",
    "apply_swf_time_invmap",
]


@dataclass
class OperatorMatrix:
    """Dense operator with its construction metadata.

    entries rows follow the output indexing (frequency set for *_freq
    kinds, the length-M sample grid for *_time kinds), columns the input
    indexing.
    """

    kind: str
    b: float
    spec: DomainSpec
    entries: np.ndarray
    # saf_* kinds carry the tail factorization they subtracted; None otherwise
    correction: object = None

    @property
    def shape(self):
        return self.entries.shape

    def apply(self, x):
        return self.entries @ np.asarray(x)

    def deviation_from_identity(self, partner=None):
        """2-norm of partner^dagger @ self minus identity (partner defaults to self)."""
        other = self if partner is None else partner
        g = other.entries.conj().T @ self.entries
        return float(np.linalg.norm(g - np.eye(g.shape[0]), 2))


def _require_swf_feasible(spec):
    rep = spec.feasibility
    if not rep.swf_feasible:
        raise ValueError(
            "spec infeasible for sampled-warp operators: " + "; ".join(rep.failures)
        )


def _require_tw(spec):
    if spec.mode != TIME_WARPING:
        raise ValueError("time-domain interpolators need a time-warping spec")


def _sampled(warp, spec, b):
    """(b, w(t_q), (Dw(t_q))^b) from the spec's samples, after the spec checks."""
    spec.require_map(warp)
    b = _resolve_b(spec, b)
    _require_swf_feasible(spec)
    return b, spec.samples.values, spec.samples.weight(b)


def _sampled_inverse(warp, spec, b, inverse):
    """(b, v(p/N), (Dv(p/N))^b) for the inverse map v, time warping only.

    inverse None takes the map's one InverseMap.
    """
    spec.require_map(warp)
    _require_tw(spec)
    b = _resolve_b(spec, b)
    _require_swf_feasible(spec)
    if inverse is not None and inverse.source is not warp:
        raise ValueError("inverse is not the inverse of this map")
    v = warp.inverse() if inverse is None else inverse
    s = v.sample(np.arange(spec.N) / spec.N)
    return b, s.values, s.weight(b)


def _interpolator(warp, spec, b):
    """(b, X), X the sampled interpolator of the module docstring.

    Real, float64, when the input set is symmetric, as spec.dirichlet is.
    """
    b, _, wt = _sampled(warp, spec, b)
    return b, wt[:, None] * spec.dirichlet / np.sqrt(spec.M * spec.N)


def _require_vector(x, n):
    """Refuse x unless it is one vector of the operator's n columns."""
    if np.shape(x) != (n,):
        raise ValueError(f"input of shape {np.shape(x)}; the operator takes ({n},)")


# ---------------------------------------------------------------------------
# the DFT pair between the two domains


def _uniform_synthesis(coeffs, index_set, axis=-1):
    # sum_{k in set} c_k e^{2 pi j k q/N} for q = 0..N-1 along axis, N = |set|;
    # grid bin q takes the set index congruent to q, at position (q + L) mod N
    n = index_set.N
    order = (np.arange(n) + index_set.L) % n
    z = np.take(np.asarray(coeffs, dtype=complex), order, axis=axis)
    return np.fft.ifft(z, axis=axis) * n


def _uniform_analysis(values, index_set, axis=-1):
    # sum_q x_q e^{-2 pi j k q/N} for k in the set, along axis, N = |set|
    spectrum = np.fft.fft(np.asarray(values, dtype=complex), axis=axis)
    return np.take(spectrum, index_set.indices % index_set.N, axis=axis)


def _to_time(A, rows, cols):
    """F_rows^dagger conj(A) F_cols, F the unitary DFT of an index set.

    Takes A, indexed by the sets rows x cols, to its twin on the sample
    grids of the same sizes; the tests' dense referee of _to_time_product.
    """
    half = np.conj(_uniform_synthesis(A, cols, axis=1))
    return _uniform_synthesis(half, rows, axis=0) / np.sqrt(rows.N * cols.N)


def _to_time_product(L, R, rows, cols):
    """_to_time(L @ R) as (F_rows^dagger conj L)(conj R F_cols): thin transforms only."""
    left = _uniform_synthesis(np.conj(L), rows, axis=0) / np.sqrt(rows.N * cols.N)
    return left @ np.conj(_uniform_synthesis(R, cols, axis=1))


def _to_freq(B, rows, cols):
    """conj(F_rows B F_cols^dagger), the inverse of _to_time."""
    half = np.conj(_uniform_analysis(B, rows, axis=0))
    return _uniform_analysis(half, cols, axis=1) / np.sqrt(rows.N * cols.N)


# ---------------------------------------------------------------------------
# dense operators


def warped_dft(warp, spec, b=None) -> OperatorMatrix:
    """Weighted nonuniform Fourier matrix on the M-point warped grid.

    Row k, column m holds (Dw(m/M))^b e^{-j2pi k w(m/M)} / sqrt(M); rows
    run over the spec's output set. For the identity map this is the
    ordinary unitary DFT matrix.
    """
    b, wv, wt = _sampled(warp, spec, b)
    rows = spec.output_set.indices
    entries = np.exp(-2j * np.pi * np.outer(rows, wv)) * (wt / np.sqrt(spec.M))
    return OperatorMatrix("warped_dft", b, spec, entries)


def swf_freq(warp, spec, b=None) -> OperatorMatrix:
    """Frequency-domain sampled-warp operator.

    entry(m, n) = (1/M) sum_q (Dw(q/M))^b e^{j2pi(m q/M - n w(q/M))},
    rows m over the output set, columns n over the input set; formed as
    the DFT conjugate of the sampled interpolator.
    """
    b, entries = _interpolator(warp, spec, b)
    return OperatorMatrix("swf_freq", b, spec,
                          _to_freq(entries, spec.output_set, spec.input_set))


def swf_time(warp, spec, b=None) -> OperatorMatrix:
    """Time-domain sampled-warp interpolator.

    entry(q, p) = (Dw(q/M))^b D(w(q/M) - p/N) / sqrt(MN) with D the
    Dirichlet kernel of the input frequency set: the band-limited
    extension of the input samples evaluated on the warped output grid.
    Equals F_M^dagger swf_freq^* F_N exactly.  Real, float64.
    """
    _require_tw(spec)
    b, entries = _interpolator(warp, spec, b)
    return OperatorMatrix("swf_time", b, spec, entries)


def swf_time_invmap(warp, spec, b=None, inverse=None) -> OperatorMatrix:
    """Time-domain interpolator built from the inverse map.

    entry(q, p) = (Dv(p/N))^b D(v(p/N) - q/M) / sqrt(MN) with v the
    inverse warp and D the Dirichlet kernel of the output frequency set.
    Its transpose approximately inverts swf_time; the two are genuinely
    different matrices, so the product deviates from the identity by the
    sampling (aliasing) error of either factor.  Real, float64.
    """
    b, vv, vwt = _sampled_inverse(warp, spec, b, inverse)
    args = vv[None, :] - (np.arange(spec.M) / spec.M)[:, None]
    entries = vwt[None, :] * dirichlet_kernel(args, spec.output_set)
    entries /= np.sqrt(spec.M * spec.N)
    return OperatorMatrix("swf_time_invmap", b, spec, entries)


# ---------------------------------------------------------------------------
# matrix-free appliers; same definitions with the nonuniform stage done by
# spreading FFT and the uniform stages by the FFT pair above


def apply_warped_dft(warp, spec, x, b=None):
    _, _, wt = _sampled(warp, spec, b)
    _require_vector(x, spec.M)
    vals = wt * np.asarray(x, dtype=complex) / np.sqrt(spec.M)
    return _nufft.nufft_project(spec.spread(spec.output_set), vals)


def apply_swf_freq(warp, spec, x, b=None):
    _, _, wt = _sampled(warp, spec, b)
    _require_vector(x, spec.N)
    # inner: conj of the input-band series sum_n x_n e^{-2 pi j n w(t_q)}
    g = _nufft.nufft_eval(spec.spread(spec.input_set), np.conj(x))
    out = _uniform_analysis(wt * g, spec.output_set)
    return np.conj(out) / spec.M


def apply_swf_time(warp, spec, x, b=None):
    _require_tw(spec)
    _, _, wt = _sampled(warp, spec, b)
    _require_vector(x, spec.N)
    xhat = _uniform_analysis(x, spec.input_set)
    g = _nufft.nufft_eval(spec.spread(spec.input_set), xhat)
    out = wt * g / np.sqrt(spec.M * spec.N)
    return out.real if np.isrealobj(x) else out


def apply_swf_time_invmap(warp, spec, x, b=None, inverse=None):
    _, vv, vwt = _sampled_inverse(warp, spec, b, inverse)
    _require_vector(x, spec.N)
    # conj of sum_p Dv_p^b x_p e^{+2 pi j k v_p}, from the plan of +v
    inner = _nufft.nufft_project(_nufft.spread(vv, spec.output_set),
                                 vwt * np.conj(x))
    out = _uniform_synthesis(inner, spec.output_set).conj()
    out /= np.sqrt(spec.M * spec.N)
    return out.real if np.isrealobj(x) else out
