"""Phase-twisted unit-lattice power sums and their closed forms.

Two families feed the aliasing resummation and the dual-frame Gram:

  T_s(z, q) = sum_{k != 0} q^k (z - k)^(-s),   |q| = 1, |z| < 1,
  C_s(d)    = sum_{m outside a band} exp(j2pi m d) (m/r)^(-s),  s >= 2.

T_s comes from the Taylor jet of the pole-removed generating function

  zeta_q(z) = 2 pi j exp(j2pi z t)/(exp(j2pi z) - 1) - 1/z,  q = exp(j2pi t),

with the untwisted case replaced by pi cot(pi z) - 1/z so that the
conditionally convergent s = 1 sum carries its symmetric (principal
value) meaning; this is the regularization under which the aliasing fold
of the tail expansion converges row by row.  It is float closed form: no
arbitrary precision, no lattice truncation.  C_s, the Gram's sums over
the band complement, takes its low powers from a factorial-series
resummation (Hurwitz zeta when the phase is trivial) and its high powers
from direct summation until the terms drop below double precision.
"""

import math
from functools import lru_cache

import numpy as np

from ._jets import jet_div

TWO_PI_J = 2j * math.pi

# below this radius the jet at z0 is re-expanded from the origin series;
# beyond it the origin pole no longer dominates and direct division of
# one-sided jets is stable
_RECENTER_RADIUS = 0.5


def _series_at_origin(depth: int, twist: float) -> np.ndarray:
    """Taylor coefficients c_0..c_depth of zeta_q at z = 0.

    zeta_q = (g(z) - 1)/z with g = exp(j2pi t z)/h(z) and
    h = (exp(j2pi z) - 1)/(j2pi z); h has no zeros inside |z| < 1, so the
    division is well conditioned and c_d = g_{d+1} exactly.  The
    untwisted symmetric sum adds the constant pi j dropped by the
    one-sided exponential form.
    """
    n = depth + 2
    num = np.empty(n, dtype=np.complex128)
    den = np.empty(n, dtype=np.complex128)
    num[0] = 1.0
    den[0] = 1.0
    wt = TWO_PI_J * twist
    for d in range(1, n):
        num[d] = num[d - 1] * wt / d
        den[d] = den[d - 1] * TWO_PI_J / (d + 1)
    g = jet_div(num, den)
    c = np.array(g[1:], dtype=np.complex128)
    if twist == 0.0:
        c[0] += 1j * math.pi
    return c


def _jets_direct(z: np.ndarray, depth: int, twist: float) -> np.ndarray:
    """Jets of zeta_q at every row of z by one-sided division; needs |z| >= ~0.5.

    Below that radius the subtraction of the 1/z jet cancels
    catastrophically at high order (the function is analytically small
    while both parts grow like |z|^(-e)).  Returns (rows, depth + 1).
    """
    n = depth + 1
    # exp(j2pi z) - 1 from the offset to the nearest integer, where it is
    # small near |z| = 1 and expm1 keeps it to full relative precision
    r = z - np.rint(z)
    ez = np.exp(TWO_PI_J * r)
    den = np.empty((n, z.size), dtype=np.complex128)
    den[0] = np.expm1(TWO_PI_J * r)
    for d in range(1, n):
        den[d] = (den[d - 1] if d > 1 else ez) * TWO_PI_J / d
    # den[d] = (2 pi j)^d ez / d! for d >= 1
    num = np.empty((n, z.size), dtype=np.complex128)
    wt = TWO_PI_J * twist
    num[0] = np.exp(wt * z)
    for d in range(1, n):
        num[d] = num[d - 1] * wt / d
    c = TWO_PI_J * jet_div(num, den)
    if twist == 0.0:
        c[0] += 1j * math.pi
    e = np.arange(n)[:, None]
    c -= (-1.0) ** e * z ** (-(e + 1.0))
    return c.T


def _jets_recentred(z: np.ndarray, depth: int, twist: float) -> np.ndarray:
    """Jets of zeta_q at every row of z, |z| < 0.5, from the origin series.

    out[r, e] = sum_{d >= e} c0[d] C(d, e) z_r^(d-e), with the binomial
    factor built by term *= z d/(d - e) for all rows and orders at once.
    The origin terms suffice for the row nearest |z| = 1/2: its
    re-centering has fully entered its geometric decay and dropped below
    double precision, and every other row's decays faster.  Returns
    (rows, depth + 1).
    """
    az = float(np.max(np.abs(z)))
    d_max = depth + int(math.ceil(0.8 * depth / (0.75 - az))) + 180
    c0 = _series_at_origin(d_max, twist)
    e = np.arange(depth + 1)
    out = np.tile(c0[:depth + 1], (z.size, 1))
    term = np.ones((z.size, depth + 1))
    for d in range(1, d_max + 1):
        k = min(d, depth + 1)  # orders e < d take a term at this d
        t = term[:, :k]
        t *= z[:, None] * d / (d - e[:k])
        out[:, :k] += c0[d] * t
    return out


def unit_lattice_jets(z0, depth: int, twist: float) -> np.ndarray:
    """Taylor coefficients c_0..c_depth of zeta_q at every z0, |z0| < 1.

    z0 is a scalar or an array of rows; the result carries one trailing
    axis of orders.  twist is the fractional phase t in q = exp(j2pi t),
    reduced to [0, 1); t = 0 means the untwisted symmetric sum.  The
    origin series is computed once per call.
    """
    z = np.asarray(z0, dtype=np.float64)
    if not np.all(np.abs(z) < 1.0):
        raise ValueError("lattice jets need |z0| < 1")
    twist = float(twist) % 1.0
    flat = z.ravel()
    near = np.abs(flat) < _RECENTER_RADIUS
    out = np.empty((flat.size, depth + 1), dtype=np.complex128)
    if near.any():
        out[near] = _jets_recentred(flat[near], depth, twist)
    if not near.all():
        out[~near] = _jets_direct(flat[~near], depth, twist)
    return out.reshape(z.shape + (depth + 1,))


def lattice_tail_values(z0, s_max: int, twist: float) -> np.ndarray:
    """T_s(z0, q) for s = 1..s_max: out[..., s-1] = sum_{k!=0} q^k (z0-k)^(-s).

    z0 is a scalar or an array of rows, as in unit_lattice_jets.
    """
    if s_max < 1:
        raise ValueError("need at least one power s >= 1")
    c = unit_lattice_jets(z0, s_max - 1, twist)
    return (-1.0) ** np.arange(s_max) * c


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> tuple:
    """Unsigned Stirling numbers of the first kind, row n (k = 0..n)."""
    if n == 0:
        return (1,)
    prev = _stirling1_row(n - 1)
    row = [0] * (n + 1)
    for k in range(n + 1):
        row[k] = (n - 1) * (prev[k] if k <= n - 1 else 0) + (prev[k - 1] if k >= 1 else 0)
    return tuple(row)


def _phase(m, delta):
    return np.exp(TWO_PI_J * (np.asarray(m, dtype=np.float64) * delta % 1.0))


def _one_sided_power_tail(s: int, a: int, delta: float) -> complex:
    """sum_{m >= a} exp(j2pi m delta) m^(-s), delta not an integer.

    Head terms are summed directly up to an anchor chosen so the phase
    factor q/(1-q) cannot outrun the inverse-factorial decay; past the
    anchor the series is re-expanded in reciprocal rising factorials
    B_u(m) = (m-1)!/(m+u-1)!, whose forward difference is exactly
    -u B_{u+1}(m).  Abel summation then gives the closed recursion

        sum_{m>=af} q^m B_u(m) = B_u(af) q^af/(1-q) - u q/(1-q) T_{u+1},

    and m^(-s) = sum_{u>=s} |stirling1(u-1, s-1)| B_u(m) folds the powers
    back in.  No numerical differencing, so no cancellation.
    """
    q = complex(np.exp(TWO_PI_J * (delta % 1.0)))
    gap = abs(1.0 - q)
    af = max(a, 48, int(math.ceil(50.0 / gap)))
    if af > 2_000_000:
        raise ValueError("phase increment too close to integer for tail resummation")
    u_max = s + 44
    inv1q = 1.0 / (1.0 - q)
    qaf = complex(np.exp(TWO_PI_J * ((af * delta) % 1.0)))
    # downward in u: underflow in B_u just truncates the series early
    logB = math.lgamma(af)
    T = np.zeros(u_max + 2, dtype=np.complex128)
    for u in range(u_max, s - 1, -1):
        with np.errstate(under="ignore"):
            Bu = math.exp(logB - math.lgamma(af + u))
        T[u] = Bu * qaf * inv1q - u * q * inv1q * T[u + 1]
    srow_cache = [_stirling1_row(u - 1) for u in range(s, u_max + 1)]
    tail = 0.0 + 0.0j
    for u, row in zip(range(s, u_max + 1), srow_cache):
        tail += row[s - 1] * T[u]
    if af > a:
        m = np.arange(a, af)
        with np.errstate(under="ignore"):
            tail += np.sum(_phase(m, delta) * m ** (-float(s)))
    return complex(tail)


def symmetric_tail_power_sums(s_max: int, K: int, delta: float,
                              scale: float = 1.0) -> np.ndarray:
    """out[s-2] = sum_{|m| > K} exp(j2pi m delta) (m/scale)^(-s), s = 2..s_max.

    Large s is summed directly (the scaled terms decay geometrically just
    outside the cutoff); small s goes through the factorial-series
    resummation, or Hurwitz zeta when the phase is trivial.
    """
    if K < 1:
        raise ValueError("cutoff K must be >= 1")
    frac = float(delta) % 1.0
    out = np.zeros(max(s_max - 1, 0), dtype=np.complex128)
    direct_start = min(s_max + 1, 8)
    for s in range(2, direct_start):
        if frac == 0.0:
            from scipy.special import zeta as _hurwitz

            one = float(_hurwitz(s, K + 1))
            val = (1.0 + (-1.0) ** s) * one
        else:
            plus = _one_sided_power_tail(s, K + 1, frac)
            minus = _one_sided_power_tail(s, K + 1, -frac)
            val = plus + (-1.0) ** s * minus
        out[s - 2] = val * scale**s
    if direct_start <= s_max:
        svals = np.arange(direct_start, s_max + 1, dtype=np.float64)
        acc = np.zeros(svals.size, dtype=np.complex128)
        m = K + 1
        block = 256
        while True:
            ms = np.arange(m, m + block)
            ph = _phase(ms, frac)
            zb = ms / scale
            with np.errstate(under="ignore"):
                pw = zb[None, :] ** (-svals[:, None])
                chunk = (ph[None, :] * pw).sum(axis=1)
                neg = (np.conj(ph)[None, :] * pw).sum(axis=1)
            acc += chunk + ((-1.0) ** svals) * neg
            top = np.max(np.abs(acc)) + 1e-300
            with np.errstate(under="ignore"):
                last = np.max(np.abs(zb[-1] ** (-svals[0])))
            if last < 1e-17 * top or last == 0.0:
                break
            m += block
            if m > K + 1 + 3_000_000:
                raise ValueError("direct tail summation failed to converge")
        out[direct_start - 2:] = acc
    return out


def band_complement_power_sums(s_max: int, band, delta: float,
                               scale: float = 1.0) -> np.ndarray:
    """out[s-2] = sum over integers m outside `band` of e^(j2pi m delta) (m/scale)^(-s).

    The band is a contiguous integer range containing 0.  Split into the
    symmetric complement beyond the wider edge plus a finite strip on the
    narrower side, so no term is ever formed as a difference of large
    near-equal sums.
    """
    idx = np.asarray(band, dtype=np.int64)
    lo, hi = int(idx.min()), int(idx.max())
    if lo > 0 or hi < 0 or idx.size != hi - lo + 1:
        raise ValueError("band must be a contiguous integer range containing 0")
    K = max(-lo, hi)
    out = symmetric_tail_power_sums(s_max, K, delta, scale=scale)
    if -lo < K:
        strip = np.arange(-K, lo)
    elif hi < K:
        strip = np.arange(hi + 1, K + 1)
    else:
        strip = np.array([], dtype=np.int64)
    if strip.size:
        ph = _phase(strip, float(delta) % 1.0)
        zb = strip / scale
        svals = np.arange(2, s_max + 1, dtype=np.float64)
        with np.errstate(under="ignore"):
            out += (ph[None, :] * np.sign(zb)[None, :] ** svals[:, None]
                    * np.abs(zb)[None, :] ** (-svals[:, None])).sum(axis=1)
    return out
