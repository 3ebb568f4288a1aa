"""Dense quadrature reference for the continuous warping operator.

Entries of the exact operator

    integral_0^1 (Dw(x))^b exp(j 2 pi (m x - n w(x))) dx

are oscillatory but have a known cycle budget, so piecewise Gauss-Legendre
panels split at the map's analytic-piece boundaries are enough.  Nothing in
this module is meant to be fast; every factorized path in the package is
validated against these entries, never the other way around.

The aliasing fold `aliasing_matrix` sums out-of-band rows by congruence.
Rows beyond the quadrature horizon decay only like 1/m, so the fold is
completed analytically from one-sided jet jumps at the map breakpoints;
the completion uses Hurwitz-zeta / digamma / Lerch tails and is independent
of the factorized tail model elsewhere in the package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, zeta

from . import _jets

_TWO_PI = 2.0 * np.pi

_gl_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _gl_cache:
        _gl_cache[order] = np.polynomial.legendre.leggauss(order)
    return _gl_cache[order]


def _split_points(warp) -> np.ndarray:
    # Panels must not straddle an analytic-piece boundary; fall back to the
    # singularity list for maps (numeric inverses) that expose no pieces.
    pts = {0.0, 1.0}
    for piece in getattr(warp, "pieces", ()) or ():
        pts.add(float(piece.lo))
        pts.add(float(piece.hi))
    for xi in warp.singularities:
        x = float(xi) % 1.0
        pts.add(x)
    return np.array(sorted(p for p in pts if 0.0 <= p <= 1.0))


def quadrature_nodes(warp, m_max: float, n_max: float, order: int = 16):
    """Nodes and weights on [0, 1) with phase advance <= pi/2 per panel."""
    cuts = _split_points(warp)
    cycles = abs(m_max) + abs(n_max) * warp.max_dw
    base_x, base_w = _gauss_legendre(order)
    xs, ws = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        width = hi - lo
        if width <= 0.0:
            continue
        panels = 2 + int(math.ceil(4.0 * cycles * width))
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        xs.append((mid[:, None] + half[:, None] * base_x).ravel())
        ws.append((half[:, None] * base_w).ravel())
    return np.concatenate(xs), np.concatenate(ws)


def matrix(warp, m_indices, n_indices, b: float, order: int = 16) -> np.ndarray:
    """Dense block of operator entries for the given integer index sets."""
    m_idx = np.atleast_1d(np.asarray(m_indices, dtype=np.int64))
    n_idx = np.atleast_1d(np.asarray(n_indices, dtype=np.int64))
    m_max = float(np.max(np.abs(m_idx), initial=0))
    n_max = float(np.max(np.abs(n_idx), initial=0))
    x, wq = quadrature_nodes(warp, m_max, n_max, order)
    wx = np.asarray(warp.eval(x), dtype=np.float64)
    amp = wq * np.power(np.asarray(warp.deriv1(x), dtype=np.float64), b)
    right = np.exp(-2j * np.pi * wx[:, None] * n_idx[None, :])
    out = np.empty((m_idx.size, n_idx.size), dtype=np.complex128)
    # chunk the row phases: a single (rows x nodes) block can run to GBs
    step = max(1, int(8e6 // max(x.size, 1)))
    for lo in range(0, m_idx.size, step):
        sel = m_idx[lo:lo + step]
        left = np.exp(2j * np.pi * sel[:, None] * x[None, :]) * amp[None, :]
        out[lo:lo + step] = left @ right
    return out


def entry(warp, m: int, n: int, b: float, order: int = 16) -> complex:
    """Single operator entry; `order` doubling is the self-consistency check."""
    return complex(matrix(warp, [m], [n], b, order=order)[0, 0])


# ---------------------------------------------------------------------------
# jet differentiation of the weighted phase factor exp(a w) (Dw)^b


def _phi_jets(warp, x: float, side: str, a, b: float, order: int):
    """Taylor coefficients (order+1, len(a)) of exp(a(w - w(x))) (Dw)^b.

    The constant phase exp(a w(x)) is deliberately left out; callers that
    need it apply it separately, which keeps large |a| stable.
    """
    a_vec = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    derivs = warp.side_jets(float(x), order + 1, side)
    wjet = _jets.jet_from_derivatives(derivs)[:, None] * np.ones_like(a_vec)[None, :]
    wjet0 = wjet.copy()
    wjet0[0] = 0.0
    dwjet = _jets.jet_derivative(wjet)[: order + 1]
    phase = _jets.jet_exp(a_vec[None, :] * wjet0)[: order + 1]
    weight = _jets.jet_pow(dwjet, b)
    return _jets.jet_mul(phase, weight)


def phi_derivative(warp, x: float, a: complex, b: float, k: int,
                   side: str = "right") -> complex:
    """k-th derivative of exp(a w(x)) (Dw(x))^b by truncated jet arithmetic.

    This is the independent oracle for the symbolic derivative expansion:
    it never touches the level polynomials.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    coeffs = _phi_jets(warp, x, side, a, b, k)
    w0 = float(warp.side_jets(float(x), 0, side)[0])
    return complex(math.factorial(k) * coeffs[k, 0] * np.exp(complex(a) * w0))


# ---------------------------------------------------------------------------
# out-of-band rows and the aliasing fold


def tail_row_indices(spec, k_tail: int = 8) -> np.ndarray:
    """Row indices within k_tail periods of the band, band itself excluded."""
    M = spec.M
    band = set(int(m) for m in spec.output_set.indices)
    lo, hi = -k_tail * M, k_tail * M
    return np.array([m for m in range(lo, hi) if m not in band], dtype=np.int64)


def tail_rows(warp, spec, b: float, k_tail: int = 8, order: int = 16) -> np.ndarray:
    """Out-of-band operator rows, the source of in-band aliasing."""
    rows = tail_row_indices(spec, k_tail)
    return matrix(warp, rows, spec.input_set.indices, b, order=order)


def _power_sums(k_lo: int, k_hi: int, z: np.ndarray, s_lo: int, s_hi: int,
                q: complex) -> np.ndarray:
    """sum_{k_lo <= k < k_hi} q^k (k - z)^(-s) for s = s_lo..s_hi.

    Summed in blocks of 512 terms, each block's powers of 1/(k - z) by
    running products over s, so no (s, z, k) array is formed.
    """
    out = np.zeros((s_hi - s_lo + 1, z.size), dtype=np.complex128)
    for lo in range(k_lo, k_hi, 512):
        k = np.arange(lo, min(lo + 512, k_hi))
        qk = q ** k
        inv = 1.0 / (k[None, :] - z[:, None])  # (z, k), all k - z > 0
        with np.errstate(under="ignore"):
            pw = inv ** s_lo
            for row in out:
                row += pw @ qk
                pw *= inv
    return out


def _one_sided_tails(s_count: int, z: np.ndarray, a0: int, q: complex) -> np.ndarray:
    """T[s-1] = sum_{k >= a0} q^k (k - z)^(-s) for s = 1..s_count, |q| = 1, q != 1.

    High orders converge in a handful of direct terms; low orders come from
    summation by parts, which is exact here because the forward difference
    of a power expands in higher powers:
        (1 - q) T_s = q^a (a - z)^(-s) + q sum_{d>=1} C(-s, d) T_{s+d}.
    Each downward step scales an error in T_{s+1} by about s / (a |1 - q|)
    relative to T_s, so the recursion is anchored at a >= 160 / |1 - q|
    (and a >= 160), and the head of the lattice below it is summed
    directly.  A knot close to the output sample lattice (q near 1) thus
    moves the anchor out.  It is capped at 2^15, so a call sums at most
    3 * 2^15 terms: below |1 - q| = 160 / 2^15 = 0.0049 (M xi within 8e-4
    of an integer) the anchor stays there, and the error grows as q -> 1
    by about the product over s < 24 of 1 + s / (2^15 |1 - q|).
    """
    z = np.asarray(z, dtype=np.float64)
    a_far = max(a0, 160, min(math.ceil(160 / abs(1.0 - q)), 2 ** 15))
    s_direct = max(s_count + 1, 24)
    depth = 24
    s_top = s_direct + depth
    # direct summation for s >= s_direct: terms fall off like (a_far/k)^s
    direct = _power_sums(a_far, 3 * a_far, z, s_direct, s_top, q)
    T = np.vstack([np.zeros((s_direct - 1, z.size), np.complex128), direct])
    # downward recursion for s < s_direct
    inv1q = 1.0 / (1.0 - q)
    for s in range(s_direct - 1, 0, -1):
        # C(-s, d) = (-1)^d C(s+d-1, d), built multiplicatively
        acc = np.zeros(z.size, dtype=np.complex128)
        coef = 1.0
        for d in range(1, depth + 1):
            coef *= -(s + d - 1) / d
            acc += coef * T[s + d - 1]
        T[s - 1] = (q ** a_far * (a_far - z) ** (-float(s)) + q * acc) * inv1q
    T[:s_count] += _power_sums(a0, a_far, z, 1, s_count, q)
    return T[:s_count]


def _combined_power_tails(s_count: int, z: np.ndarray, K: int, q: complex) -> np.ndarray:
    """out[s-1] = sum_{|k| > K} q^k (k - z)^(-s) for s = 1..s_count, |q| = 1.

    Split as sum_{k>K} q^k (k-z)^(-s) + (-1)^s sum_{k>K} conj(q)^k (k+z)^(-s).
    For q = 1 and s = 1 only the combination converges (digamma pair); the
    rest of the integer-q cases reduce to Hurwitz zeta, and generic q goes
    through the summation-by-parts tails.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty((s_count, z.size), dtype=np.complex128)
    signs = (-1.0) ** np.arange(1, s_count + 1)
    if abs(q - 1.0) < 1e-13:
        for s in range(1, s_count + 1):
            if s == 1:
                out[0] = digamma(K + 1 + z) - digamma(K + 1 - z)
            else:
                out[s - 1] = zeta(s, K + 1 - z) + signs[s - 1] * zeta(s, K + 1 + z)
        return out
    if abs(q + 1.0) < 1e-13:
        par = (-1.0) ** (K + 1)

        def alt(s, a):
            if s == 1:
                return 0.5 * (digamma(0.5 * (a + 1)) - digamma(0.5 * a))
            return 2.0 ** (-s) * (zeta(s, 0.5 * a) - zeta(s, 0.5 * (a + 1)))

        for s in range(1, s_count + 1):
            out[s - 1] = par * (alt(s, K + 1 - z) + signs[s - 1] * alt(s, K + 1 + z))
        return out
    plus = _one_sided_tails(s_count, z, K + 1, q)
    minus = _one_sided_tails(s_count, -z, K + 1, np.conj(q))
    return plus + signs[:, None] * minus


def _alias_tail(warp, spec, b: float, k_tail: int, terms: int) -> np.ndarray:
    """Analytic completion of the aliasing fold beyond |k| = k_tail.

    Far rows obey the integration-by-parts expansion
        E(m', n) = sum_xi exp(j2pi m' xi) exp(-j2pi n w(xi))
                   * sum_i jump_i(xi, n) (-j2pi m')^(-(i+1)),
    where jump_i is the right-minus-left difference of the i-th derivative
    of the weighted phase factor.  Folding m' = m - kM over |k| > k_tail
    turns each power into a lattice tail handled by `_combined_power_tails`.
    """
    m_band = np.asarray(spec.output_set.indices, dtype=np.float64)
    n_band = np.asarray(spec.input_set.indices, dtype=np.int64)
    M = spec.M
    z = m_band / M
    a_vec = -2j * np.pi * n_band.astype(np.complex128)
    out = np.zeros((m_band.size, n_band.size), dtype=np.complex128)
    breakpoints = sorted({float(p.lo) for p in warp.pieces})
    for xi in breakpoints:
        w_xi = float(warp.eval(xi))
        right = _phi_jets(warp, xi, "right", a_vec, b, terms)
        left = _phi_jets(warp, xi, "left", a_vec, b, terms)
        fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, terms + 1))))
        jumps = (right - left) * fact[:, None]
        q_phase = np.exp(-2j * np.pi * np.asarray(n_band) * w_xi)
        row_phase = np.exp(2j * np.pi * m_band * xi)
        q = complex(np.exp(-2j * np.pi * M * xi))
        lattice = _combined_power_tails(terms, z, k_tail, q)
        for i in range(terms):
            s = i + 1
            col = jumps[i] * q_phase * (-2j * np.pi) ** (-s)
            out += np.outer(row_phase * lattice[i] * (-float(M)) ** (-s), col)
    return out


def aliasing_matrix(warp, spec, b: float, k_tail: int = 8, order: int = 16,
                    series_terms: int = 16) -> np.ndarray:
    """In-band fold A(m, n) = sum_{k != 0} E(m - kM, n) of the tail rows.

    Shells |k| <= k_tail are integrated directly; the rest of the lattice
    sum is completed analytically, so the result matches the untruncated
    fold to quadrature accuracy rather than stalling at the 1/(k M) scale
    of the first omitted shell.
    """
    m_band = np.asarray(spec.output_set.indices, dtype=np.int64)
    n_band = np.asarray(spec.input_set.indices, dtype=np.int64)
    M = spec.M
    out = np.zeros((m_band.size, n_band.size), dtype=np.complex128)
    for k in range(1, k_tail + 1):
        for sk in (k, -k):
            out += matrix(warp, m_band - sk * M, n_band, b, order=order)
    out += _alias_tail(warp, spec, b, k_tail, series_terms)
    return out
