"""Piecewise smooth periodic warping maps.

A warping map w is an increasing bijection of the real line with
w(x + 1) = w(x) + 1 and w(0) = 0, described on [0, 1) by a list of
analytic pieces.  Pieces meet at breakpoints; a breakpoint where some
one-sided derivative actually jumps is a singularity, and the map's
smoothness class is sigma when derivatives 0..sigma are continuous
everywhere but order sigma + 1 jumps somewhere.

Every piece exposes closed-form derivative jets of arbitrary order, so
no finite differencing happens anywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._jets import jet_atan, jet_div, jet_exp, jet_to_derivatives

__all__ = [
    "WarpMap",
    "InverseMap",
    "Samples",
    "identity_map",
    "exponential_map",
    "piecewise_linear_map",
    "spline_map",
    "atan_tan_map",
    "cubic_seam_map",
    "BUILTIN_MAPS",
]

# One-sided jets are compared up to this order when classifying breakpoints.
CLASSIFY_ORDER = 8
# Relative tolerance for "the jets agree" (exactly representable pieces agree
# to roundoff; anything above this is a genuine jump).
JET_MATCH_TOL = 1e-10


@dataclass
class Piece:
    """One analytic piece of the map on [lo, hi)."""

    lo: float
    hi: float
    kind: str  # "poly" | "exp2" | "atan_tan"
    data: tuple = ()

    def jets(self, x, order):
        """Derivative values D^m w(x), m = 0..order, shape (order+1, len(x)).

        x may lie anywhere in [lo, hi] including the endpoints; endpoint
        evaluation is the analytic continuation of the piece (used for
        one-sided jets).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((order + 1, x.size))
        if self.kind == "poly":
            coeffs = np.asarray(self.data, dtype=float)
            t = x - self.lo
            deg = coeffs.size - 1
            for m in range(min(order, deg) + 1):
                # D^m p(t) = sum_{j>=m} c_j j!/(j-m)! t^{j-m}
                fall = np.array(
                    [math.factorial(j) / math.factorial(j - m) for j in range(m, deg + 1)]
                )
                out[m] = np.polynomial.polynomial.polyval(t, coeffs[m:] * fall)
        elif self.kind == "exp2":
            ln2 = math.log(2.0)
            p2 = np.exp2(x)
            out[0] = p2 - 1.0
            for m in range(1, order + 1):
                out[m] = (ln2**m) * p2
        elif self.kind == "atan_tan":
            (nu,) = self.data
            # w(x) = x + atan(u)/pi with
            # u = (nu-1) sin(2 pi x) / ((1+nu) + (1-nu) cos(2 pi x)),
            # an everywhere-smooth rewrite of atan(nu tan(pi x))/pi that has
            # no pole at x = 1/2.
            k = order
            theta = np.zeros((k + 1, x.size), dtype=complex)
            theta[0] = 2j * np.pi * x
            if k >= 1:
                theta[1] = 2j * np.pi
            cis = jet_exp(theta)
            c = cis.real
            s = cis.imag
            num = (nu - 1.0) * s
            den = (1.0 - nu) * c
            den[0] += 1.0 + nu
            u = jet_div(num, den)
            g = jet_atan(u) / np.pi
            g[0] += x
            if k >= 1:
                g[1] += 1.0
            out = jet_to_derivatives(g)
        else:  # pragma: no cover - constructors control the kind set
            raise ValueError(f"unknown piece kind {self.kind!r}")
        return out


@dataclass
class WarpMap:
    pieces: list
    breakpoints: np.ndarray = field(init=False)
    singularities: list = field(init=False)
    singularity_classes: dict = field(init=False)
    smoothness_class: object = field(init=False)
    min_dw: float = field(init=False)
    max_dw: float = field(init=False)

    def __post_init__(self):
        self.breakpoints = np.array([p.lo for p in self.pieces])
        if self.breakpoints[0] != 0.0:
            raise ValueError("pieces must start at 0")
        self._classify()
        self._derivative_range()
        # b-free records kept with the map: its one SampledGrid
        # (DomainSpec.grid), its one kernel Contraction
        # (symbolic_kernel.build_kernel) and its one inverse
        self._grid = None
        self._contraction = None
        self._inverse = None

    # -- construction helpers ------------------------------------------------

    def _classify(self):
        sing = []
        classes = {}
        # (left, right) first derivatives at each singularity, for the
        # jump weights and decay ratios downstream
        slopes = {}
        overall = math.inf
        for xi in self.breakpoints:
            left = self.side_jets(xi, CLASSIFY_ORDER, "left")
            right = self.side_jets(xi, CLASSIFY_ORDER, "right")
            mags = np.maximum(np.abs(left), np.abs(right))
            # Jets of analytic pieces grow like growth^m, and so does the
            # roundoff of the jet recurrences; a per-order floor of 1 would
            # misread that noise as a jump (seen on trig-based pieces where
            # the true even-order jets vanish but D^7 w is ~1e7).
            growth = 1.0
            for k in range(1, CLASSIFY_ORDER + 1):
                if mags[k] > 0:
                    growth = max(growth, mags[k] ** (1.0 / k))
            scale = np.maximum(
                1.0, np.maximum(mags, growth ** np.arange(CLASSIFY_ORDER + 1))
            )
            mismatch = np.abs(left - right) > JET_MATCH_TOL * scale
            if mismatch.any():
                first = int(np.argmax(mismatch))
                sing.append(float(xi))
                classes[float(xi)] = first - 1
                slopes[float(xi)] = (float(left[1]), float(right[1]))
                overall = min(overall, first - 1)
        self.singularities = sing
        self.singularity_classes = classes
        self._jump_slopes = slopes
        self.smoothness_class = overall if sing else math.inf

    def _derivative_range(self):
        xs = np.linspace(0.0, 1.0, 4097)[:-1]
        dw = self.deriv1(xs)
        # breakpoint one-sided slopes can exceed every interior grid value
        for xi in self.breakpoints:
            dw = np.append(dw, [self.side_jets(xi, 1, "left")[1], self.side_jets(xi, 1, "right")[1]])
        # a polynomial piece's slope extrema inside it sit at the real
        # roots of D^2 w, which the grid can straddle
        for p in self.pieces:
            if p.kind == "poly" and len(p.data) > 3:
                t = np.polynomial.Polynomial(p.data).deriv(2).roots()
                t = t.real[(t.imag == 0) & (t.real > 0) & (t.real < p.hi - p.lo)]
                dw = np.append(dw, p.jets(p.lo + t, 1)[1])
        self.min_dw = float(dw.min())
        self.max_dw = float(dw.max())
        if self.min_dw <= 0:
            raise ValueError("map is not strictly increasing")

    # -- evaluation ----------------------------------------------------------

    def _piece_index(self, xf):
        idx = np.searchsorted(self.breakpoints, xf, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1)

    def _piecewise_jets(self, xf, order):
        xf = np.atleast_1d(xf)
        out = np.zeros((order + 1, xf.size))
        idx = self._piece_index(xf)
        for i, piece in enumerate(self.pieces):
            m = idx == i
            if m.any():
                out[:, m] = piece.jets(xf[m], order)
        return out

    def eval(self, x):
        """w(x) with the periodic extension w(x + k) = w(x) + k."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x).ravel()
        n = np.floor(xv)
        w = self._piecewise_jets(xv - n, 0)[0] + n
        w = w.reshape(np.shape(x))
        return float(w[()]) if scalar else w

    def deriv1(self, x):
        """First derivative, vectorized; at breakpoints gives the right side."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x).ravel()
        d = self._piecewise_jets(xv - np.floor(xv), 1)[1]
        d = d.reshape(np.shape(x))
        return float(d[()]) if scalar else d

    def side_jets(self, xi, order, side):
        """One-sided derivative values D^m w(xi^side), m = 0..order."""
        xi = float(xi)
        f = xi - math.floor(xi)
        shift = math.floor(xi)
        if side == "right":
            i = int(self._piece_index(np.array([f]))[0])
            vals = self.pieces[i].jets(np.array([f]), order)[:, 0]
        elif side == "left":
            if f == 0.0:
                # left of the seam = right period's end
                f, shift = 1.0, shift - 1.0
            i = int(np.searchsorted(self.breakpoints, f, side="left")) - 1
            i = max(i, 0)
            vals = self.pieces[i].jets(np.array([f]), order)[:, 0]
        else:
            raise ValueError("side must be 'left' or 'right'")
        vals = vals.copy()
        vals[0] += shift
        return vals

    def sample(self, x):
        """w, Dw and the slope-jump hits on the points x, a Samples record."""
        jumps = [(xi, *self._jump_slopes[xi]) for xi in self.singularities]
        return Samples(x, self.eval(x), self.deriv1(x), _jump_hits(x, jumps))

    def sampled_weight(self, x, b):
        """(Dw)^b on x, sample(x).weight(b); operators read DomainSpec.samples."""
        return _sampled_weight(self, x, b)

    # -- misc ----------------------------------------------------------------

    def inverse(self):
        """The map's one InverseMap, bracketed on first use."""
        if self._inverse is None:
            self._inverse = InverseMap(self)
        return self._inverse


class InverseMap:
    """Inverse v = w^{-1}, evaluated by bracketed Newton iteration.

    Exposes enough of the WarpMap surface (eval / deriv1 / sample /
    singularities / derivative range) for the oracle and the inverse-map
    operators; higher-order jets of v are never required.
    """

    def __init__(self, source: WarpMap):
        self.source = source
        # strictly increasing samples of w (4096 cells) bracketing every y in [0, 1]
        xs = np.linspace(0.0, 1.0, 4097)
        xs = np.unique(np.concatenate([xs, source.breakpoints]))
        self._gx = xs
        self._gw = np.append(source.eval(xs[:-1]), 1.0)
        # (image, left, right slope of v) per singularity, by image
        self._slope_jumps = sorted((float(source.eval(xi) % 1.0), 1.0 / lp, 1.0 / rp)
                                   for xi, (lp, rp) in source._jump_slopes.items())
        self.singularities = [eta for eta, _, _ in self._slope_jumps]
        self.min_dw = 1.0 / source.max_dw
        self.max_dw = 1.0 / source.min_dw

    def eval(self, y):
        """v(y) with |w(v) - y| <= 1e-14, vectorized."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        yv = np.atleast_1d(y).astype(float).ravel()
        n = np.floor(yv)
        yf = yv - n
        hi_idx = np.clip(np.searchsorted(self._gw, yf, side="left"), 1, self._gx.size - 1)
        lo = self._gx[hi_idx - 1].copy()
        hi = self._gx[hi_idx].copy()
        x = 0.5 * (lo + hi)
        for _ in range(60):
            w = self.source.eval(x)
            r = w - yf
            done = np.abs(r) <= 1e-14
            if done.all():
                break
            lo = np.where(r < 0, x, lo)
            hi = np.where(r > 0, x, hi)
            d = self.source.deriv1(x)
            step = r / d
            xn = x - step
            bad = (xn <= lo) | (xn >= hi) | ~np.isfinite(xn)
            xn = np.where(bad, 0.5 * (lo + hi), xn)
            x = np.where(done, x, xn)
        out = (x + n).reshape(np.shape(y))
        return float(out[()]) if scalar else out

    def deriv1(self, y):
        """Dv(y) = 1 / Dw(v(y))."""
        return 1.0 / self.source.deriv1(self.eval(np.asarray(y, dtype=float)))

    def sample(self, y):
        """v, Dv and the slope-jump hits on the points y, from one Newton solve."""
        v = self.eval(y)
        return Samples(y, v, 1.0 / self.source.deriv1(v), _jump_hits(y, self._slope_jumps))

    def sampled_weight(self, y, b):
        """(Dv)^b on y, sample(y).weight(b); the inverse-map operators sample per call."""
        return _sampled_weight(self, y, b)


def _coincides(x, pos):
    """Whether x is within 1e-12 of pos, mod 1.

    The one on-lattice rule, for the one-sided mean weight here and the
    untwisted fold in saf_operators.
    """
    return np.abs((x - pos + 0.5) % 1.0 - 0.5) <= 1e-12


def _jump_hits(x, jumps):
    """(mask, left, right) per (position, left, right) slope jump that x hits."""
    hits = [(_coincides(x, pos), lp, rp) for pos, lp, rp in jumps
            if abs(lp - rp) > JET_MATCH_TOL * max(1.0, abs(lp), abs(rp))]
    return tuple(h for h in hits if h[0].any())


@dataclass(frozen=True)
class Samples:
    """A map on sample points: values, slopes and slope-jump hits, all b-free.

    A map's SampledGrid holds the one its specs' operators read; the
    inverse-map operators sample v per call.  weight(b) holds the
    one-sided mean rule: a point on a slope jump takes the mean of the
    one-sided (Dw)^b, where its Fourier series converges; only then does
    the discrete operator fold onto the analytic aliasing tails exactly.
    """

    points: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    hits: tuple  # _jump_hits(points, ...)

    def weight(self, b):
        """slopes^b, with 0.5 (left^b + right^b) at the hits; a new array."""
        out = self.slopes ** b
        for hit, lp, rp in self.hits:
            out[hit] = 0.5 * (lp**b + rp**b)
        return out


def _sampled_weight(m, x, b):
    """m.sample(x).weight(b), a float for scalar x."""
    x = np.asarray(x, dtype=float)
    out = m.sample(np.atleast_1d(x)).weight(b)
    return float(out[0]) if x.ndim == 0 else out


# -- constructors -------------------------------------------------------------


def identity_map() -> WarpMap:
    return WarpMap([Piece(0.0, 1.0, "poly", (0.0, 1.0))])


def exponential_map() -> WarpMap:
    """w(t) = 2^t - 1: smooth inside, first derivative jumps at the seam."""
    return WarpMap([Piece(0.0, 1.0, "exp2")])


def atan_tan_map(nu=2.0) -> WarpMap:
    """w(x) = atan(nu tan(pi x)) / pi, everywhere smooth for nu > 0."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    return WarpMap([Piece(0.0, 1.0, "atan_tan", (float(nu),))])


def cubic_seam_map(strength=-1.5) -> WarpMap:
    """Single cubic piece w = x + a x(1-x)(x-1/2).

    The seam at 0 is C^1 by symmetry of the cubic but the second
    derivative jumps by 6a, so the map has smoothness class 1 with the
    one singularity at 0.  Monotone for -2 < a < 4.
    """
    a = float(strength)
    if not -2.0 < a < 4.0:
        raise ValueError("strength outside the monotone range (-2, 4)")
    coeffs = (0.0, 1.0 - a / 2.0, 1.5 * a, -a)
    return WarpMap([Piece(0.0, 1.0, "poly", coeffs)])


def _shift_poly(coeffs, s):
    """Coefficients of p(s + u) given those of p(t)."""
    p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    return tuple(p(np.polynomial.Polynomial([s, 1.0])).coef)


def _hermite_cubic(x0, y0, d0, x1, y1, d1):
    """Cubic on [x0, x1] matching value and slope at both ends.

    Returns coefficients in the local variable t = x - x0.
    """
    h = x1 - x0
    c0 = y0
    c1 = d0
    c2 = (3 * (y1 - y0) / h - 2 * d0 - d1) / h
    c3 = (d0 + d1 - 2 * (y1 - y0) / h) / (h * h)
    return (c0, c1, c2, c3)


def piecewise_linear_map(knots=None, values=None, smoothing=0.0) -> WarpMap:
    """Piecewise linear map through (knots[i], values[i]).

    knots must start at 0 and stay inside [0, 1); values must start at 0
    and increase.  With smoothing = 0 the slopes jump at every knot
    (class 0).  With smoothing = eps > 0 each corner is replaced by a C^1
    cubic blend on [knot - eps, knot + eps], moving the singularities to
    the blend edges with class 1.
    """
    if knots is None:
        knots, values = [0.0, 0.35, 0.6], [0.0, 0.55, 0.75]
    knots = [float(k) for k in knots]
    values = [float(v) for v in values]
    if len(knots) != len(values) or len(knots) < 1:
        raise ValueError("knots and values must be equal-length, nonempty")
    if knots[0] != 0.0 or values[0] != 0.0:
        raise ValueError("first knot must be (0, 0)")
    if any(b <= a for a, b in zip(knots, knots[1:])) or knots[-1] >= 1.0:
        raise ValueError("knots must increase inside [0, 1)")
    if any(b <= a for a, b in zip(values, values[1:])) or values[-1] >= 1.0:
        raise ValueError("values must increase inside [0, 1)")
    xs = knots + [1.0]
    ys = values + [1.0]
    slopes = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(knots))]

    eps = float(smoothing)
    if eps == 0.0:
        pieces = [
            Piece(xs[i], xs[i + 1], "poly", (ys[i], slopes[i]))
            for i in range(len(knots))
        ]
        return WarpMap(pieces)

    gaps = [xs[i + 1] - xs[i] for i in range(len(knots))]
    if eps >= 0.5 * min(gaps):
        raise ValueError("smoothing must be smaller than half the smallest gap")

    def line(i, x):
        return ys[i] + slopes[i] * (x - xs[i])

    nseg = len(knots)
    pieces = []
    for i in range(nseg):
        s_prev = slopes[(i - 1) % nseg]
        jumps = abs(s_prev - slopes[i]) > 1e-14
        k = xs[i]
        if jumps:
            # C^1 cubic blend on [k - eps, k + eps]; coefficients returned in
            # t = x - (k - eps)
            cub = _hermite_cubic(
                k - eps, line(i, k) - s_prev * eps, s_prev,
                k + eps, line(i, k + eps), slopes[i],
            )
            if i == 0:
                # the seam blend wraps: [0, eps) uses t = x + eps, and
                # [1 - eps, 1) lands on the same cubic shifted up one period
                c_lead = np.asarray(_shift_poly(cub, eps))
                c_tail = np.asarray(cub, dtype=float)
                c_tail[0] += 1.0
                pieces.append(Piece(0.0, eps, "poly", tuple(c_lead)))
                pieces.append(Piece(1.0 - eps, 1.0, "poly", tuple(c_tail)))
            else:
                pieces.append(Piece(k - eps, k + eps, "poly", cub))
            lin_lo = k + eps
        else:
            lin_lo = k
        lin_hi = (xs[i + 1] - eps) if (i + 1 < nseg and abs(slopes[i + 1] - slopes[i]) > 1e-14) else xs[i + 1]
        if i + 1 == nseg:
            seam_jumps = abs(slopes[nseg - 1] - slopes[0]) > 1e-14
            lin_hi = 1.0 - eps if seam_jumps else 1.0
        if lin_hi > lin_lo:
            pieces.append(Piece(lin_lo, lin_hi, "poly", (line(i, lin_lo), slopes[i])))
    pieces.sort(key=lambda p: p.lo)
    # blending can move w(0) off 0; renormalize by a constant shift
    w0 = Piece(pieces[0].lo, pieces[0].hi, pieces[0].kind, pieces[0].data).jets(
        np.array([0.0]), 0
    )[0, 0]
    if w0 != 0.0:
        pieces = [
            Piece(p.lo, p.hi, p.kind, (p.data[0] - w0,) + tuple(p.data[1:]))
            for p in pieces
        ]
    return WarpMap(pieces)


def spline_map(knots=None, values=None) -> WarpMap:
    """Periodic cubic spline map through (knots[i], values[i]).

    The residual g(x) = w(x) - x is interpolated by a periodic cubic
    spline, so third derivatives jump at the knots (class 2 generically).
    """
    from scipy.interpolate import CubicSpline

    if knots is None:
        knots, values = [0.0, 0.3, 0.7], [0.0, 0.45, 0.8]

    knots = [float(k) for k in knots]
    values = [float(v) for v in values]
    if len(knots) != len(values) or len(knots) < 1:
        raise ValueError("knots and values must be equal-length, nonempty")
    if knots[0] != 0.0 or values[0] != 0.0:
        raise ValueError("first knot must be (0, 0)")
    xs = np.array(knots + [1.0])
    gs = np.array([v - k for k, v in zip(knots, values)] + [0.0])
    cs = CubicSpline(xs, gs, bc_type="periodic")
    pieces = []
    for i in range(len(xs) - 1):
        # spline residual coefficients are highest-degree first in (x - x_i)
        c3, c2, c1, c0 = cs.c[:, i]
        coeffs = np.array([c0, c1, c2, c3])
        coeffs[0] += xs[i]  # add back the identity part
        coeffs[1] += 1.0
        pieces.append(Piece(float(xs[i]), float(xs[i + 1]), "poly", tuple(coeffs)))
    return WarpMap(pieces)


BUILTIN_MAPS = {
    "identity": identity_map,
    "exponential": exponential_map,
    "piecewise_linear": piecewise_linear_map,
    "spline": spline_map,
    "atan_tan": atan_tan_map,
    "cubic_seam": cubic_seam_map,
}
