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

Every row takes its jet from one path, the Taylor series c0 of zeta_q
at the origin re-expanded at the row.  c0 is one convolution of the
twist's exponential series with the series of 1/h,
h(z) = (exp(j2pi z) - 1)/(j2pi z), whose coefficients B_d (j2pi)^d/d!
(-2 zeta(d) at even d >= 2, rounded by _zeta_even from the exact
Bernoulli numbers this module carries) are the same for every twist and
are built once per length.  The series converges on |z| < 1 but needs
ever more terms towards |z| = 1, so a row past |z| = 1/2 is first moved
one lattice step n into the disc: zeta_q + 1/z is q-quasi-periodic,
zeta_q(z) = q^n (zeta_q(z - n) + 1/(z - n)) - 1/z, and the two pole
jets are added back in closed form.

On |z| <= 1/2 the jets are a polynomial in |z|,

  c_e(|z|) = sum_j c0[j + e] C(j + e, e) |z|^j,

taken for all rows and orders as one contraction of a power table
|z_r|^j with the coefficient table A[j, e] = c0[j + e] C(j + e, e).
The contraction is numpy's own einsum loop, not BLAS: a matrix product
sends one row to gemv and a batch to gemm, whose sums round differently,
while einsum sums every row in the same order whatever batch it is in.
Its term count comes from the depth alone: term j of order e is at most
the negative-binomial weight C(j + e, e) 2^-(j+e+1) of the order's size,
and the top order's tail ends where that weight falls below 2^-64 (271
series terms at depth 63).  A row at z < 0 is the mirror
c_e(-z) = (-1)^(e+1) conj(c_e(z)), exact for real z and any twist, so
each distinct |z| is evaluated once and band rows, which come in +-
pairs, cost half.  Every row runs the same operations, so its jets do
not depend on the batch it is in.

The Gram sums C_s(d) = sum_{m not in B} exp(j2pi m d) (m/r)^(-s), s >= 2,
run over the complement of a band B of P consecutive integers holding 0.
B is a complete residue system mod P: each m outside it is m0 + kP for
exactly one m0 in B and one k != 0, so

  C_s(d) = (-r/P)^s sum_{m0 in B} exp(j2pi m0 d) T_s(-m0/P, exp(j2pi P d)),

one fold over the band rows.  Only high powers, whose terms vanish
within a few band widths, are summed directly.
"""

import cmath
from fractions import Fraction
from functools import lru_cache
import math

import numpy as np

TWO_PI_J = 2j * math.pi

# band-complement powers up to this one come from the residue-class fold,
# the higher ones from direct sums
_FOLD_POWERS = 16

# zeta at even d up to this one from the exact Bernoulli number
_EXACT_ZETA = 40
_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494")


@lru_cache(maxsize=None)
def bernoulli_numbers(n_max: int) -> tuple:
    """B_0 .. B_n_max with the B_1 = -1/2 convention, exact."""
    B = [Fraction(1)]
    for m in range(1, n_max + 1):
        # sum_{j=0}^{m} C(m+1, j) B_j = 0
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * B[j]
        B.append(-s / (m + 1))
    return tuple(B)


@lru_cache(maxsize=None)
def _zeta_even(d: int) -> float:
    """zeta(d) at even d >= 2, rounded once.

    Up to d = _EXACT_ZETA from the exact Bernoulli number and a 60-digit
    pi, zeta(d) = |B_d| (2pi)^d / (2 d!); past it 1 + 2^-d, as 3^-d is
    then below half an ulp.
    """
    if d > _EXACT_ZETA:
        return 1.0 + 2.0 ** -d
    B = bernoulli_numbers(_EXACT_ZETA)[d]
    return float(abs(B) * (2 * _PI) ** d / (2 * math.factorial(d)))


@lru_cache(maxsize=None)
def _inverse_h_series(n: int) -> np.ndarray:
    """Taylor coefficients B_d (j2pi)^d / d!, d < n, of 1/h(z) = j2pi z/(exp(j2pi z) - 1).

    By Euler's formula B_d (2pi)^d / d! = -2 (-1)^(d/2) zeta(d) at even
    d >= 2, the series reads 1, -pi j, then -2 zeta(d) at even d and 0
    at odd d >= 3.  The same for every twist; read-only.
    """
    out = np.zeros(n, dtype=np.complex128)
    out[:2] = 1.0, -1j * math.pi
    out[2::2] = [-2.0 * _zeta_even(d) for d in range(2, n, 2)]
    out.flags.writeable = False
    return out


def _series_at_origin(d_max: int, twist: float) -> np.ndarray:
    """Taylor coefficients c_0..c_d_max of zeta_q at z = 0.

    zeta_q = (g(z) - 1)/z with g = exp(j2pi t z)/h(z) and
    h = (exp(j2pi z) - 1)/(j2pi z), so c_d = g_{d+1}: one convolution of
    the twist's exponential series with the series of 1/h
    (_inverse_h_series).  The untwisted symmetric sum adds the constant
    pi j dropped by the one-sided exponential form.  A twist past 1/2 is
    the conjugate of the twist 1 - t, whose exponential series cancels
    less.
    """
    if twist > 0.5:
        return _series_at_origin(d_max, 1.0 - twist).conj()
    n = d_max + 2
    expo = np.empty(n, dtype=np.complex128)
    expo[0] = 1.0
    np.cumprod(TWO_PI_J * twist / np.arange(1, n), out=expo[1:])
    c = np.convolve(expo, _inverse_h_series(n))[1:n]
    if twist == 0.0:
        c[0] += 1j * math.pi
    return c


@lru_cache(maxsize=None)
def _last_term(depth: int) -> int:
    """Last origin-series index the jets of orders <= depth need on |z| <= 1/2.

    Term d of order e at |z| <= 1/2 is at most the negative-binomial
    weight C(d, e) 2^-(d-e) 2^-(e+1) of the order's scale 2^(e+1) (the
    nearest poles of zeta_q sit at z = +-1, so |c0[d]| is about 1); the
    top order e = depth has the heaviest tail.  Its first index past the
    mode with weight below 2^-64 ends the series for every order.
    """
    log_w, d = -(depth + 1.0), depth
    while True:
        ratio = (d + 1) / (2.0 * (d + 1 - depth))
        if ratio < 1.0 and log_w < -64.0:
            return d
        log_w += math.log2(ratio)
        d += 1


@lru_cache(maxsize=None)
def _binomials(depth: int) -> np.ndarray:
    """C(j + e, e) for the series terms j of every order e <= depth; read-only.

    Exact integers, column by column C(j + e, e) = C(j + e - 1, e - 1)
    (j + e) / e, each rounded once.  The term count grows with depth, so
    a table serves every smaller depth as its top-left block.
    """
    terms = _last_term(depth) - depth + 1
    j = np.arange(terms).astype(object)
    cols = [np.ones(terms, dtype=object)]
    for e in range(1, depth + 1):
        cols.append(cols[-1] * (j + e) // e)
    binom = np.stack(cols, axis=1).astype(np.float64)
    binom.flags.writeable = False
    return binom


def _jets_recentred(z: np.ndarray, depth: int, twist: float) -> np.ndarray:
    """Jets of zeta_q at every row of z, |z| <= 1/2, from the origin series.

    out[r, e] = sum_j A[j, e] |z_r|^j with A[j, e] = c0[j + e] C(j + e, e),
    one einsum contraction of the power table |z_r|^j with A on the float
    view; einsum's own loop, not BLAS, whose gemv and gemm round a row
    differently.  Each distinct |z| is evaluated once, and a row at z < 0
    is the mirror c_e(-z) = (-1)^(e+1) conj(c_e(z)), exact for real z and
    any twist (T_s(-z, q) = (-1)^s T_s(z, conj q)).  The term count comes
    from depth alone (_last_term), so every row runs the same operations
    whatever batch it is in.  Returns (rows, depth + 1).
    """
    c0 = _series_at_origin(_last_term(depth), twist)
    shifted = np.lib.stride_tricks.sliding_window_view(c0, depth + 1)  # c0[j + e]
    # depths 2^(k-1) .. 2^k - 1 share the table of depth 2^k - 1
    binom = _binomials(2 ** depth.bit_length() - 1)[:shifted.shape[0], :depth + 1]
    A = (shifted * binom).view(np.float64)
    az, where = np.unique(np.abs(z), return_inverse=True)
    powers = az[:, None] ** np.arange(A.shape[0])
    out = np.einsum("rj,je->re", powers, A)[where]
    neg = z < 0.0
    if neg.any():
        # (-1)^(e+1) on the real parts, (-1)^e on the imaginary parts
        mirror = np.repeat((-1.0) ** np.arange(1, depth + 2), 2)
        mirror[1::2] *= -1.0
        out[neg] *= mirror
    return out.view(np.complex128)


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


# phase-0 band-complement sums kept process-wide, 2 s_max values each
_PHASE0_SUMS = 64


def band_complement_power_sums(s_max: int, band, delta: float,
                               scale: float = 1.0) -> np.ndarray:
    """out[s-2] = sum over integers m outside `band` of e^(j2pi m delta) (m/scale)^(-s).

    The band is a contiguous integer range containing 0.  Powers up to
    _FOLD_POWERS take the residue-class fold (module docstring), higher
    ones direct sums on both sides.  At phase 0 or 1/2 the sums are
    exactly real, and on a symmetric band the odd ones exactly zero.

    The phase-0 vector, the diagonal of every tail Gram, depends on
    (s_max, band, scale) alone: it is computed once per key, kept for
    the process (the last _PHASE0_SUMS keys) and returned read-only.
    Every other phase is computed per call into a new array.
    """
    idx = np.asarray(band, dtype=np.int64)
    lo, hi = int(idx.min()), int(idx.max())
    if lo > 0 or hi < 0 or idx.size != hi - lo + 1:
        raise ValueError("band must be a contiguous integer range containing 0")
    frac = float(delta) % 1.0
    if frac == 0.0:
        return _phase0_sums(s_max, lo, hi, float(scale))
    return _power_sums(s_max, lo, hi, frac, scale)


@lru_cache(maxsize=_PHASE0_SUMS)
def _phase0_sums(s_max: int, lo: int, hi: int, scale: float) -> np.ndarray:
    out = _power_sums(s_max, lo, hi, 0.0, scale)
    out.flags.writeable = False
    return out


def _power_sums(s_max: int, lo: int, hi: int, frac: float, scale: float) -> np.ndarray:
    """band_complement_power_sums on the band lo..hi at phase frac in [0, 1)."""
    P = hi - lo + 1
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
