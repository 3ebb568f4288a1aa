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

import numpy as np

__all__ = [
    "IndexSet",
    "DomainSpec",
    "FeasibilityReport",
    "TWDomain",
    "make_index_set",
    "symmetric_index_set",
    "domain_spec",
    "check_feasibility",
    "singularity_decay_ratio",
    "tw_domain",
    "resample_even_to_odd",
    "reverse_indexing",
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

    def contains(self, k):
        k = np.asarray(k)
        return (-self.L <= k) & (k <= self.N - self.L - 1)


def make_index_set(N, L) -> IndexSet:
    return IndexSet(int(N), int(L))


def symmetric_index_set(N) -> IndexSet:
    """The balanced set; for odd N this is {-(N-1)/2, ..., (N-1)/2}."""
    return IndexSet(int(N), int(N) // 2)


@dataclass
class DomainSpec:
    warp: object
    input_set: IndexSet
    output_set: IndexSet
    mode: str = FREQUENCY_WARPING
    b: float = 0.5
    feasibility: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in (TIME_WARPING, FREQUENCY_WARPING):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == TIME_WARPING:
            ok = (
                self.N % 2 == 1
                and self.M % 2 == 1
                and self.input_set.L == (self.N - 1) // 2
                and self.output_set.L == (self.M - 1) // 2
            )
            if not ok:
                raise ValueError(
                    "time-warping mode needs odd N, M with symmetric index sets"
                )
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("exponent b must lie in [0, 1]")
        if self.feasibility is None:
            self.feasibility = check_feasibility(self)

    @property
    def N(self):
        return self.input_set.N

    @property
    def M(self):
        return self.output_set.N

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
    redundancy_ok: bool  # global test M/N > max Dw
    ratio_negative: float  # z_left(M)/z_left(N), inf when vacuous
    ratio_positive: float  # z_right(M)/z_right(N)
    signed_ok: bool  # both signed band-coverage tests
    swf_feasible: bool
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


def singularity_decay_ratio(warp, spec_or_sets, xi, side=None):
    """Decay ratio J(xi) of the aliasing-correction kernel at one singularity.

    J = (M / (N Dw(xi))) * (1 - mu_M) / (1 + mu_N); at a slope jump the
    conservative Dw is the max of the one-sided values unless a side is
    forced.
    """
    if isinstance(spec_or_sets, DomainSpec):
        inp, out = spec_or_sets.input_set, spec_or_sets.output_set
    else:
        inp, out = spec_or_sets
    if side is None:
        dw = max(warp.side_jets(xi, 1, "left")[1], warp.side_jets(xi, 1, "right")[1])
    else:
        dw = warp.side_jets(xi, 1, side)[1]
    return (out.N / (inp.N * dw)) * (1.0 - out.mu) / (1.0 + inp.mu)


def check_feasibility(spec: DomainSpec) -> FeasibilityReport:
    warp = spec.warp
    inp, out = spec.input_set, spec.output_set
    max_dw = warp.max_dw
    red = out.N / inp.N
    red_ok = red > max_dw

    def side_ratio(zm, zn):
        if zn == 0:
            return math.inf
        return zm / zn

    r_neg = side_ratio(out.z_left, inp.z_left)
    r_pos = side_ratio(out.z_right, inp.z_right)
    signed_ok = r_neg > max_dw and r_pos > max_dw

    J = {
        float(xi): float(singularity_decay_ratio(warp, (inp, out), xi))
        for xi in warp.singularities
    }
    J_min = min(J.values()) if J else math.inf
    saf_ok = signed_ok and all(j > 1.0 for j in J.values())

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
        swf_feasible=signed_ok,
        J=J,
        J_min=J_min,
        saf_feasible=saf_ok,
        failures=failures,
    )


@dataclass
class TWDomain:
    set: IndexSet
    original_N: int
    resampled: bool

    @property
    def N(self):
        return self.set.N


def tw_domain(N) -> TWDomain:
    """Symmetric time-warping domain; even N is promoted to N+1 points.

    The promotion keeps the trigonometric content: the lone N/2
    coefficient of the even-length DFT is split half-and-half over the
    +-N/2 bins of the odd-length domain (see resample_even_to_odd).
    """
    N = int(N)
    if N <= 0:
        raise ValueError("N must be positive")
    if N % 2 == 1:
        return TWDomain(symmetric_index_set(N), N, False)
    return TWDomain(symmetric_index_set(N + 1), N, True)


def resample_even_to_odd(s):
    """Resample N even uniform samples to N+1, splitting the N/2 bin.

    The even-length DFT stores a single coefficient for the Nyquist pair;
    splitting it equally over +N/2 and -N/2 yields the unique symmetric
    (N+1)-coefficient expansion, which is then evaluated on the finer
    uniform grid.  Real input stays real to roundoff.
    """
    s = np.asarray(s)
    N = s.shape[0]
    if N % 2 != 0:
        raise ValueError("input length must be even")
    c = np.fft.fft(s) / N  # c[k] multiplies e^{2 pi j k x}, k = 0..N-1
    half = N // 2
    ks = np.arange(-half, half + 1)
    coeff = np.zeros(ks.size, dtype=complex)
    for k in range(-half, half + 1):
        if abs(k) == half:
            coeff[k + half] = 0.5 * c[half]
        else:
            coeff[k + half] = c[k % N]
    x = np.arange(N + 1) / (N + 1)
    out = np.exp(2j * np.pi * x[:, None] * ks[None, :]) @ coeff
    if np.isrealobj(s):
        return out.real
    return out


def reverse_indexing(index_set: IndexSet):
    """Positions of the k -> -k reversal within a symmetric odd set."""
    if index_set.N % 2 == 0 or not index_set.symmetric:
        raise ValueError("index reversal needs a symmetric odd set (mu = 0)")
    idx = index_set.indices
    pos = {int(k): i for i, k in enumerate(idx)}
    return np.array([pos[-int(k)] for k in idx])
