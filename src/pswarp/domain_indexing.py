"""Frequency index sets, domain specs, and feasibility calculus.

An index set of size N with left count L is {-L, ..., N-L-1}.  Its
boundaries are z_left = L + (N mod 2)/2 and z_right = N - L - (N mod 2)/2
(so z_left + z_right = N) and its relative shift is
mu = (max(z_left, z_right) - N/2) / (N/2), which is 0 for balanced sets
and 1 for the causal set L = 0.

Feasibility of warping a band of N frequencies into M output
frequencies requires the output band to cover the input band dilated by
the maximal map slope, separately on the negative and positive sides;
the aliasing-correction factorization additionally needs the
per-singularity decay ratio J to exceed 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _nufft

__all__ = [
    "IndexSet",
    "dirichlet_kernel",
    "DomainSpec",
    "SampledGrid",
    "FeasibilityReport",
    "make_index_set",
    "domain_spec",
    "check_feasibility",
    "singularity_decay_ratio",
    "resample_even_to_odd",
]

TIME_WARPING = "time_warping"
FREQUENCY_WARPING = "frequency_warping"


@dataclass(frozen=True)
class IndexSet:
    N: int
    L: int

    def __post_init__(self):
        if self.N <= 0:
            raise ValueError("N must be positive")
        if not 0 <= self.L <= self.N - 1:
            raise ValueError(f"L={self.L} outside [0, {self.N - 1}]")

    @property
    def indices(self):
        return np.arange(-self.L, self.N - self.L)

    @property
    def z_left(self):
        return self.L + (self.N % 2) / 2.0

    @property
    def z_right(self):
        return self.N - self.L - (self.N % 2) / 2.0

    @property
    def mu(self):
        half = self.N / 2.0
        return (max(self.z_left, self.z_right) - half) / half

    @property
    def symmetric(self):
        # true set symmetry (k in set iff -k in set) needs odd N; an even
        # balanced set still carries the unmatched -N/2 element
        return self.N % 2 == 1 and self.z_left == self.z_right


def dirichlet_kernel(x, index_set):
    """Sum of e^{2 pi j n x} over a contiguous index set.

    Closed form as a ratio of sines with a linear phase; the argument is
    reduced mod 1 first so the sinc ratio never meets its removable
    singularities.  On a symmetric set the phase is 1 and the kernel is
    returned real, float64; otherwise complex128.
    """
    x = np.asarray(x, dtype=float)
    lo = -index_set.L
    hi = index_set.N - index_set.L - 1
    size = index_set.N
    xr = x - np.round(x)
    mag = size * np.sinc(size * xr) / np.sinc(xr)
    if lo + hi == 0:
        return mag
    return np.exp(1j * np.pi * (lo + hi) * xr) * mag


def make_index_set(N, L) -> IndexSet:
    return IndexSet(int(N), int(L))


def _resolve_b(spec, b):
    """The weight exponent of a call: spec.b when b is None, refused outside [0, 1]."""
    b = spec.b if b is None else float(b)
    if not 0.0 <= b <= 1.0:
        raise ValueError("exponent b must lie in [0, 1]")
    return b


@dataclass(frozen=True, eq=False)
class SampledGrid:
    """A map's b-free record on the grid j/size, for one Dirichlet set.

    * ``samples``, the map on j/size (warp_map.Samples);
    * ``dirichlet``, D(w_j - p/K) of kernel_set, K = kernel_set.N, a
      (size, K) matrix made on first read, real on a symmetric set;
    * ``spread(index_set)``, the ``_nufft`` spreading plan of the values
      w_j on a set, one per set, made on first use.

    Every array is read-only.  A record holds arrays and plans only,
    never a spec, so the specs of one map and geometry share it whatever
    their b.
    """

    samples: object
    kernel_set: IndexSet
    _spreads: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def dirichlet(self):
        p = np.arange(self.kernel_set.N) / self.kernel_set.N
        d = dirichlet_kernel(self.samples.values[:, None] - p[None, :], self.kernel_set)
        d.flags.writeable = False
        return d

    def spread(self, index_set):
        if index_set not in self._spreads:
            self._spreads[index_set] = _nufft.spread(self.samples.values, index_set)
        return self._spreads[index_set]


@dataclass(frozen=True)
class DomainSpec:
    """A map bound to its index sets, mode and default b; frozen.

    Its b-free records are formed once per map and geometry, not per
    spec: ``samples`` (the map on t_q = q/M), ``dirichlet``
    (D(w(t_q) - p/N) of the input set) and ``spread(index_set)`` (the
    spreading plan of w(t_q) on a set) all read the map's SampledGrid of
    (M, input set), which every spec of that map and geometry shares,
    whatever its b.

    ``feasibility`` is not an argument: it is always
    check_feasibility(self), formed here, so no caller can hand the
    operators a report that vouches for another geometry.
    """

    warp: object
    input_set: IndexSet
    output_set: IndexSet
    mode: str = FREQUENCY_WARPING
    b: float = 0.5
    feasibility: FeasibilityReport = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode not in (TIME_WARPING, FREQUENCY_WARPING):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == TIME_WARPING and not (self.input_set.symmetric
                                              and self.output_set.symmetric):
            raise ValueError("time-warping mode needs odd N, M with symmetric index sets")
        _resolve_b(self, self.b)
        object.__setattr__(self, "feasibility", check_feasibility(self))

    @property
    def N(self):
        return self.input_set.N

    @property
    def M(self):
        return self.output_set.N

    @property
    def row_radius(self):
        # effective output half-bandwidth, the scale of the tail rows m^-(i+1)
        return 0.5 * self.M * (1.0 - self.output_set.mu)

    @property
    def col_radius(self):
        # input scale of the column moments n^k
        return 0.5 * self.N * (1.0 + self.input_set.mu)

    @cached_property
    def grid(self):
        """The map's SampledGrid of (M, input set).

        The map keeps one on itself, so it is keyed by the map's identity
        (WarpMap == compares arrays); another geometry replaces it.
        """
        grid = self.warp._grid
        if grid is None or grid.samples.points.size != self.M \
                or grid.kernel_set != self.input_set:
            s = self.warp.sample(np.arange(self.M) / self.M)
            for a in (s.points, s.values, s.slopes, *(hit[0] for hit in s.hits)):
                a.flags.writeable = False
            grid = self.warp._grid = SampledGrid(s, self.input_set)
        return grid

    @property
    def samples(self):
        """w(t_q), Dw(t_q) and the slope-jump hits (warp_map.Samples), read-only."""
        return self.grid.samples

    @property
    def dirichlet(self):
        """D(w(t_q) - p/N) of the input set, (M, N), read-only; real on a symmetric set."""
        return self.grid.dirichlet

    def spread(self, index_set):
        """The spreading plan of w(t_q) on index_set."""
        return self.grid.spread(index_set)

    def require_map(self, warp):
        # feasibility vouches for self.warp only; `is`, as WarpMap == compares arrays
        if warp is not self.warp:
            raise ValueError("map is not the spec's map; build the spec from it")

    def describe(self):
        f = self.feasibility
        return {
            "N": self.N,
            "L_N": self.input_set.L,
            "mu_N": self.input_set.mu,
            "M": self.M,
            "L_M": self.output_set.L,
            "mu_M": self.output_set.mu,
            "mode": self.mode,
            "b": self.b,
            "feasible_swf": f.swf_feasible,
            "feasible_saf": f.saf_feasible,
        }


def domain_spec(warp, N, M, L_N=None, L_M=None, mode=FREQUENCY_WARPING, b=0.5) -> DomainSpec:
    inp = make_index_set(N, N // 2 if L_N is None else L_N)
    out = make_index_set(M, M // 2 if L_M is None else L_M)
    return DomainSpec(warp, inp, out, mode=mode, b=b)


@dataclass
class FeasibilityReport:
    max_dw: float
    redundancy: float  # M/N
    redundancy_ok: bool  # global test M/N >= max Dw, up to one rounding
    ratio_negative: float  # z_left(M)/z_left(N), inf when vacuous
    ratio_positive: float  # z_right(M)/z_right(N)
    signed_ok: bool  # both signed band-coverage tests, same edge
    swf_feasible: bool  # what the sampled operators accept: both tests
    J: dict  # singularity -> decay ratio (conservative one-sided max slope)
    J_min: float
    saf_feasible: bool
    failures: list

    def summary(self):
        lines = [
            f"redundancy M/N = {self.redundancy:.6g} vs max Dw = {self.max_dw:.6g}: "
            + ("ok" if self.redundancy_ok else "FAIL"),
            f"signed coverage ratios (neg, pos) = ({self.ratio_negative:.6g}, "
            f"{self.ratio_positive:.6g}): " + ("ok" if self.signed_ok else "FAIL"),
        ]
        for xi, j in self.J.items():
            lines.append(
                f"singularity x={xi:.12g}: J = {j:.6g} "
                + ("ok" if j > 1 else "FAIL (aliasing correction diverges)")
            )
        return "\n".join(lines)


def singularity_decay_ratio(warp, spec, xi, side=None):
    """Decay ratio J(xi) of the aliasing-correction kernel at one singularity.

    J = spec.row_radius / (spec.col_radius Dw(xi)), the only definition:
    the jump kernels take their one-sided J_plus and J_minus (sides
    "right" and "left") from here, and the feasibility report its J.  At
    a slope jump side=None takes the larger one-sided Dw, so J is the
    smaller of the two one-sided ratios exactly.  Dw(xi-) and Dw(xi+) are
    the map's stored slopes at its singularity xi, the side_jets values
    bit for bit; an xi that is not a singularity of the map is refused.
    """
    try:
        left, right = warp._jump_slopes[float(xi)]
    except KeyError:
        raise ValueError(f"x={float(xi):g} is not a singularity of the map") from None
    if side is None:
        dw = max(left, right)
    elif side == "left":
        dw = left
    elif side == "right":
        dw = right
    else:
        raise ValueError("side must be 'left' or 'right'")
    return spec.row_radius / (spec.col_radius * dw)


def check_feasibility(spec: DomainSpec) -> FeasibilityReport:
    warp = spec.warp
    inp, out = spec.input_set, spec.output_set
    max_dw = warp.max_dw
    # exact band-edge coverage (identity-like maps at M = N) folds nothing
    # into the band: coverage holds up to one rounding of max Dw
    edge = max_dw * (1.0 - 1e-12)
    red = out.N / inp.N
    red_ok = red >= edge

    def side_ratio(zm, zn):
        if zn == 0:
            return math.inf
        return zm / zn

    r_neg = side_ratio(out.z_left, inp.z_left)
    r_pos = side_ratio(out.z_right, inp.z_right)
    signed_ok = r_neg >= edge and r_pos >= edge

    J = {
        float(xi): float(singularity_decay_ratio(warp, spec, xi))
        for xi in warp.singularities
    }
    J_min = min(J.values()) if J else math.inf
    swf_ok = red_ok and signed_ok
    saf_ok = swf_ok and all(j > 1.0 for j in J.values())

    failures = []
    if not red_ok:
        failures.append("global redundancy M/N below max Dw")
    if not signed_ok:
        failures.append("signed band coverage fails")
    for xi, j in J.items():
        if j <= 1.0:
            failures.append(f"J <= 1 at singularity x={xi:.12g}")
    return FeasibilityReport(
        max_dw=max_dw,
        redundancy=red,
        redundancy_ok=red_ok,
        ratio_negative=r_neg,
        ratio_positive=r_pos,
        signed_ok=signed_ok,
        swf_feasible=swf_ok,
        J=J,
        J_min=J_min,
        saf_feasible=saf_ok,
        failures=failures,
    )


def resample_even_to_odd(s):
    """Resample N even uniform samples to N+1, splitting the N/2 bin.

    The even-length DFT stores a single coefficient for the Nyquist pair;
    splitting it equally over +N/2 and -N/2 yields the unique symmetric
    (N+1)-coefficient expansion, which one inverse FFT of length N+1
    evaluates on the finer uniform grid.  Real input stays real to
    roundoff.
    """
    s = np.asarray(s)
    N = s.shape[0]
    if N % 2 != 0:
        raise ValueError("input length must be even")
    c = np.fft.fft(s) / N  # c[k] multiplies e^{2 pi j k x}, k = 0..N-1
    half = N // 2
    # bins 0..half-1, the split pair at +-half, then the negative bins
    coeff = np.concatenate([c[:half], [0.5 * c[half]] * 2, c[half + 1:]])
    out = np.fft.ifft(coeff) * (N + 1)
    if np.isrealobj(s):
        return out.real
    return out
