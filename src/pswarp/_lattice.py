"""Phase-twisted unit-lattice power sums and their closed forms.

One lattice-sum family,

  T_s(z, q) = sum_{k != 0} q^k (z - k)^(-s),   |q| = 1, |z| < 1,

feeds both the aliasing fold of the tail rows onto the band and the
dual-frame Gram.  T_s comes from the Taylor jet of the pole-removed
generating function

  zeta_q(z) = 2 pi j exp(j2pi z t)/(exp(j2pi z) - 1) - 1/z,  q = exp(j2pi t),

with the untwisted case replaced by pi cot(pi z) - 1/z so that the
conditionally convergent s = 1 sum carries its symmetric (principal
value) meaning; this is the regularization under which the aliasing fold
of the tail expansion converges row by row.  It is float closed form: no
arbitrary precision, no lattice truncation.

Every row takes its jet from one path, the Taylor series of zeta_q at
the origin re-expanded at the row.  That series converges on |z| < 1
but needs ever more terms towards |z| = 1, so a row past |z| = 1/2 is
first moved one lattice step n into the disc: zeta_q + 1/z is
q-quasi-periodic, zeta_q(z) = q^n (zeta_q(z - n) + 1/(z - n)) - 1/z,
and the two pole jets are added back in closed form.

The Gram sums C_s(d) = sum_{m not in B} exp(j2pi m d) (m/r)^(-s), s >= 2,
run over the complement of a band B of P consecutive integers holding 0.
B is a complete residue system mod P: each m outside it is m0 + kP for
exactly one m0 in B and one k != 0, so

  C_s(d) = (-r/P)^s sum_{m0 in B} exp(j2pi m0 d) T_s(-m0/P, exp(j2pi P d)),

one fold over the band rows.  Only high powers, whose terms vanish
within a few band widths, are summed directly.
"""

import cmath
import math

import numpy as np

from ._jets import jet_div

TWO_PI_J = 2j * math.pi

# band-complement powers up to this one come from the residue-class fold,
# the higher ones from direct sums
_FOLD_POWERS = 16


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


def _jets_recentred(z: np.ndarray, depth: int, twist: float) -> np.ndarray:
    """Jets of zeta_q at every row of z, |z| <= 1/2, from the origin series.

    out[r, e] = sum_{d >= e} c0[d] C(d, e) z_r^(d-e), with the binomial
    factor built by term *= z d/(d - e) for all rows and orders at once.
    The origin series converges for |z| < 1, so on |z| <= 1/2 its terms
    fall at least geometrically by 1/2; the term count, set by the row of
    largest |z|, takes them below double precision for every row, and the
    extra terms a smaller row sees in a larger batch fall below its last
    bit.  Returns (rows, depth + 1).
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


def _pole_jets(x: np.ndarray, depth: int) -> np.ndarray:
    """Taylor coefficients (-1)^e x^-(e+1) of 1/x at every row, (rows, depth + 1).

    A running product, so a row's jets do not depend on the batch it is in.
    """
    out = np.empty((x.size, depth + 1))
    out[:, 0] = 1.0 / x
    for e in range(1, depth + 1):
        out[:, e] = out[:, e - 1] * -out[:, 0]
    return out


def unit_lattice_jets(z0, depth: int, twist: float) -> np.ndarray:
    """Taylor coefficients c_0..c_depth of zeta_q at every z0, |z0| < 1.

    z0 is a scalar or an array of rows; the result carries one trailing
    axis of orders.  twist is the fractional phase t in q = exp(j2pi t),
    reduced to [0, 1); t = 0 means the untwisted symmetric sum.  A row
    past |z| = 1/2 is moved n = rint(z) into the disc (module docstring);
    the origin series is computed once per call, and a row's jets do not
    depend on the batch it is in.
    """
    z = np.asarray(z0, dtype=np.float64)
    if not np.all(np.abs(z) < 1.0):
        raise ValueError("lattice jets need |z0| < 1")
    twist = float(twist) % 1.0
    flat = z.ravel()
    n = np.rint(flat)
    zr = flat - n  # exact for 1/2 <= |z| < 1
    out = _jets_recentred(zr, depth, twist)
    moved = n != 0.0
    if moved.any():
        q = cmath.exp(TWO_PI_J * twist)
        qn = np.where(n[moved] > 0.0, q, q.conjugate())[:, None]
        out[moved] = (qn * (out[moved] + _pole_jets(zr[moved], depth))
                      - _pole_jets(flat[moved], depth))
    return out.reshape(z.shape + (depth + 1,))


def lattice_tail_values(z0, s_max: int, twist: float) -> np.ndarray:
    """T_s(z0, q) for s = 1..s_max: out[..., s-1] = sum_{k!=0} q^k (z0-k)^(-s).

    z0 is a scalar or an array of rows, as in unit_lattice_jets.
    """
    if s_max < 1:
        raise ValueError("need at least one power s >= 1")
    c = unit_lattice_jets(z0, s_max - 1, twist)
    return (-1.0) ** np.arange(s_max) * c


def band_complement_power_sums(s_max: int, band, delta: float,
                               scale: float = 1.0) -> np.ndarray:
    """out[s-2] = sum over integers m outside `band` of e^(j2pi m delta) (m/scale)^(-s).

    The band is a contiguous integer range containing 0.  Powers up to
    _FOLD_POWERS take the residue-class fold (module docstring), higher
    ones direct sums on both sides.  At phase 0 or 1/2 the sums are
    exactly real, and on a symmetric band the odd ones exactly zero.
    """
    idx = np.asarray(band, dtype=np.int64)
    lo, hi = int(idx.min()), int(idx.max())
    if lo > 0 or hi < 0 or idx.size != hi - lo + 1:
        raise ValueError("band must be a contiguous integer range containing 0")
    P = hi - lo + 1
    frac = float(delta) % 1.0
    out = np.zeros(max(s_max - 1, 0), dtype=np.complex128)
    s_fold = min(s_max, _FOLD_POWERS)
    if s_fold >= 2:
        m0 = np.arange(lo, hi + 1)
        T = lattice_tail_values(-m0 / P, s_fold, P * frac)[:, 1:]
        ph = np.exp(TWO_PI_J * (m0 * frac % 1.0))
        out[:s_fold - 1] = (-scale / P) ** np.arange(2.0, s_fold + 1) * (ph @ T)
    svals = np.arange(s_fold + 1.0, s_max + 1)
    high = out[s_fold - 1:]
    # sum_{m >= a} e^(j2pi sign m delta) (sign m/scale)^(-s) per side, power s
    # in blocks of 256 up to the first E_s with the remainder bound
    # a/(s-1) (E_s/a)^(1-s), in units of the first term, below 1e-17
    for a, sign in ((hi + 1, 1.0), (1 - lo, -1.0)):
        ends = a * (a / (1e-17 * (svals - 1.0))) ** (1.0 / (svals - 1.0))
        for start in range(a, int(ends.max(initial=0.0)) + 1, 256):
            live = int(np.count_nonzero(ends >= start))
            m = np.arange(start, start + 256)
            ph = np.exp(TWO_PI_J * (sign * m * frac % 1.0))
            with np.errstate(under="ignore"):
                pw = (m / scale)[None, :] ** -svals[:live, None]
            high[:live] += sign ** svals[:live] * (pw @ ph)
    if 2.0 * frac % 1.0 == 0.0:
        out.imag = 0.0
        if lo == -hi:
            out[1::2] = 0.0  # odd powers cancel pairwise
    return out
