"""Spreading FFT for integer-frequency trigonometric sums at arbitrary points.

Two entry points, adjoint to each other:

* ``nufft_eval``: sum_{k in set} c_k e^{2 pi j k t} at nonuniform t.
* ``nufft_project``: sum_j v_j e^{-2 pi j k t_j} for k in the set.

Oversampled FFT (ratio >= 2) with a Kaiser-Bessel window of half-width
14 cells.  Against a direct sum, relative to the largest output, both
directions hold about 1e-12 at sizes up to a few hundred.  At 16385 to
65537 frequencies evaluation holds about 5e-12; projection loses up to
2e-11 at the band edges, where dividing out the window transform
amplifies its aliasing floor.  Frequencies are re-centered so an
asymmetric set costs one extra modulation, not a larger grid.
"""

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
    # shape parameter matched to the realized oversampling ratio
    rho = n / (2 * span + 1)
    beta = np.pi * w * (1.0 - 1.0 / (2.0 * rho))
    arg = beta**2 - (2.0 * np.pi * w * shifted / n) ** 2
    root = np.sqrt(arg)  # positive throughout: |shifted| < n/4 by construction
    window_hat = (2.0 * w / n) * np.sinh(root) / (np.i0(beta) * root)
    return k0, shifted, n, w, beta, window_hat


def _window(u, w, beta):
    # Kaiser-Bessel bump over offsets u in grid cells, supported on |u| <= w,
    # unit sup-norm scale 1/I0(beta)
    y = 1.0 - (u / w) ** 2
    inside = y > 0.0
    out = np.zeros_like(u)
    out[inside] = np.i0(beta * np.sqrt(y[inside]))
    return out / np.i0(beta)


def _spread_geometry(t, n, w):
    """Spreading cells of each point and its offsets from them in cell units.

    t n is split exactly into p + err (Dekker's product, with t cut into
    26-bit halves; n < 2^26 needs no cut), so the offsets t n - cell
    carry no rounding of the product, and points outside [0, 1) need no
    reduction: the cells wrap instead.
    """
    if n >= 1 << 26:
        raise ValueError("spreading grid too long for the exact offset split")
    p = t * n
    c = t * 134217729.0  # 2^27 + 1
    hi = c - (c - t)
    err = (hi * n - p) + (t - hi) * n
    u0 = np.rint(p)
    offsets = np.arange(-w, w + 1)
    cells = u0.astype(np.int64)[:, None] + offsets[None, :]
    dist = ((p - u0) + err)[:, None] - offsets[None, :]
    return cells % n, dist


def nufft_eval(points, coeffs, freq_set):
    """Evaluate sum_{k in freq_set} coeffs_k e^{2 pi j k t} at each point."""
    t = np.asarray(points, dtype=float)
    c = np.asarray(coeffs, dtype=complex)
    k0, shifted, n, w, beta, window_hat = _plan(freq_set.N, freq_set.L)
    if c.shape[0] != shifted.shape[0]:
        raise ValueError("coefficient count does not match the frequency set")
    z = np.zeros(n, dtype=complex)
    z[shifted % n] = c / (n * window_hat)
    g = np.fft.ifft(z) * n
    cells, dist = _spread_geometry(t, n, w)
    vals = _window(dist, w, beta)
    f = np.einsum("jc,jc->j", vals, g[cells])
    return f * np.exp(2j * np.pi * k0 * t)


def nufft_project(points, values, freq_set):
    """Adjoint: sum_j values_j e^{-2 pi j k t_j} over k in freq_set."""
    t = np.asarray(points, dtype=float)
    v = np.asarray(values, dtype=complex)
    if v.shape[0] != t.shape[0]:
        raise ValueError("value count does not match the point count")
    k0, shifted, n, w, beta, window_hat = _plan(freq_set.N, freq_set.L)
    vmod = v * np.exp(-2j * np.pi * k0 * t)
    cells, dist = _spread_geometry(t, n, w)
    vals = _window(dist, w, beta)
    z = np.zeros(n, dtype=complex)
    np.add.at(z, cells.ravel(), (vals * vmod[:, None]).ravel())
    spectrum = np.fft.fft(z)
    return spectrum[shifted % n] / (n * window_hat)
