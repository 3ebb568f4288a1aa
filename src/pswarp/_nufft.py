"""Spreading FFT for integer-frequency trigonometric sums at arbitrary points.

A spreading plan, ``spread(points, freq_set)``, holds everything that
depends on the points and the set alone: each point's spreading cells,
its window values on them, its re-centring phase, and the set's grid
and window transform.  It is frozen and its arrays are read-only, so
one plan serves every call on its (points, set), as in FINUFFT's
plan-once, execute-many interface.  Two entry points take it, adjoint
to each other:

* ``nufft_eval(spread, coeffs)``: sum_{k in set} c_k e^{2 pi j k t} at
  the plan's points t.
* ``nufft_project(spread, values)``: sum_j v_j e^{-2 pi j k t_j} for k
  in the set.

Oversampled FFT (ratio >= 2) with a Kaiser-Bessel window of half-width
14 cells.  Frequencies are re-centered so an asymmetric set costs one
extra modulation, not a larger grid; the modulation and the spreading
offsets take their phases from the exact split of the products k0 t
and t n.  Measured against a direct sum with exactly reduced phases,
relative to the largest output, on random coefficients at eight outputs
that include both ends, on one-sided, skewed and symmetric sets of 33,
257, 4097 and 65537 frequencies at the piecewise-linear map's warped
grid: evaluation 1e-14, projection 4e-14 (largest at the band edges,
where dividing out the window transform amplifies its aliasing floor).
Through the appliers at N = 65537 the benchmark's nufft_apply check
measures up to 1.7e-12 (apply_swf_freq on a 16-sparse input) and at most
1.1e-13 for the other three.  ROADMAP item 7 holds the window's open
work.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len

HALF_WIDTH = 14


@lru_cache(maxsize=128)
def _plan(set_n, set_l):
    ks = np.arange(-set_l, set_n - set_l)
    lo, hi = int(ks[0]), int(ks[-1])
    k0 = (lo + hi) // 2
    shifted = ks - k0
    span = max(abs(int(shifted[0])), abs(int(shifted[-1])))
    w = HALF_WIDTH
    # spreading margin on top of ratio-2 oversampling keeps the nearest
    # window-transform image well past the band edge even for large sets
    n = next_fast_len(max(4 * (span + 1) + 8 * w, 8 * w))
    # shape parameter matched to the realized oversampling ratio; the
    # Kaiser-Bessel rule is stated for the full width 2w
    rho = n / (2 * span + 1)
    beta = np.pi * (2 * w) * (1.0 - 1.0 / (2.0 * rho))
    arg = beta**2 - (2.0 * np.pi * w * shifted / n) ** 2
    root = np.sqrt(arg)  # positive throughout: |shifted| < n/4 by construction
    window_hat = (2.0 * w / n) * np.sinh(root) / (np.i0(beta) * root)
    # every plan of the set shares these two
    shifted.flags.writeable = False
    window_hat.flags.writeable = False
    return k0, shifted, n, w, beta, window_hat


def _window(u, w, beta):
    # Kaiser-Bessel bump over offsets u in grid cells, supported on |u| <= w,
    # unit sup-norm scale 1/I0(beta)
    y = 1.0 - (u / w) ** 2
    inside = y > 0.0
    out = np.zeros_like(u)
    out[inside] = np.i0(beta * np.sqrt(y[inside]))
    return out / np.i0(beta)


def _reduced_product(t, n):
    """(rint(t n), t n - rint(t n)) for an integer |n| < 2^26.

    t n is split exactly into p + err (Dekker's product, t cut into 26-bit
    halves; n needs no cut), so the fraction carries no product rounding.
    """
    if abs(n) >= 1 << 26:
        raise ValueError("factor too large for the exact product split")
    p = t * n
    c = t * 134217729.0  # 2^27 + 1
    hi = c - (c - t)
    err = (hi * n - p) + (t - hi) * n
    u0 = np.rint(p)
    return u0, (p - u0) + err


def _spread_geometry(t, n, w):
    """Spreading cells of each point and its offsets from them in cell units.

    The offsets t n - cell come from the exact split of _reduced_product,
    and points outside [0, 1) need no reduction: the cells wrap instead.
    """
    u0, frac = _reduced_product(t, n)
    offsets = np.arange(-w, w + 1)
    cells = u0.astype(np.int64)[:, None] + offsets[None, :]
    dist = frac[:, None] - offsets[None, :]
    return cells % n, dist


@dataclass(frozen=True, eq=False)
class Spread:
    """The plan of one (points, frequency set); its arrays are read-only.

    size is the point count, so np.size of a plan reads its points.
    """

    size: int
    n: int  # spreading grid length
    bins: np.ndarray  # grid bin of each set frequency, re-centred on k0
    window_hat: np.ndarray  # window transform at each set frequency
    cells: np.ndarray  # (size, 2 w + 1) grid cells of each point
    window: np.ndarray  # (size, 2 w + 1) window values on those cells
    phase: np.ndarray  # (size,) re-centring phase e^{2 pi j k0 t}


def spread(points, freq_set) -> Spread:
    """The spreading plan of points on freq_set, for nufft_eval and nufft_project."""
    t = np.asarray(points, dtype=float)
    k0, shifted, n, w, beta, window_hat = _plan(freq_set.N, freq_set.L)
    cells, dist = _spread_geometry(t, n, w)
    window = _window(dist, w, beta)
    phase = np.exp(2j * np.pi * _reduced_product(t, k0)[1])
    bins = shifted % n
    for a in (bins, cells, window, phase):
        a.flags.writeable = False
    return Spread(t.shape[0], n, bins, window_hat, cells, window, phase)


def nufft_eval(spread, coeffs):
    """Evaluate sum_{k in set} coeffs_k e^{2 pi j k t} at each point of the plan."""
    c = np.asarray(coeffs, dtype=complex)
    n = spread.n
    if c.shape[0] != spread.bins.shape[0]:
        raise ValueError("coefficient count does not match the frequency set")
    z = np.zeros(n, dtype=complex)
    z[spread.bins] = c / (n * spread.window_hat)
    g = np.fft.ifft(z) * n
    f = np.einsum("jc,jc->j", spread.window, g[spread.cells])
    return f * spread.phase


def nufft_project(spread, values):
    """Adjoint: sum_j values_j e^{-2 pi j k t_j} over k in the plan's set."""
    v = np.asarray(values, dtype=complex)
    if v.shape[0] != spread.size:
        raise ValueError("value count does not match the point count")
    n = spread.n
    vmod = v * spread.phase.conj()
    z = np.zeros(n, dtype=complex)
    np.add.at(z, spread.cells.ravel(), (spread.window * vmod[:, None]).ravel())
    spectrum = np.fft.fft(z)
    return spectrum[spread.bins] / (n * spread.window_hat)
