"""Aliasing-corrected interpolation operators.

The sampled interpolators in swf_operators equal the exact band rows of
the continuous operator plus a fold of its out-of-band tail onto the
band.  The tail rows factor through a small per-jump kernel: inverse
powers of the row index, polynomial moments of the column index, and a
boundary phase on each side.  Folding inverse powers over the row
lattice has a closed form (derivatives of the periodized simple pole),
so the aliasing inherits the same factorization, a rank-J R product
L @ H of thin factors (J jumps, R orders).  L holds the phased row folds
and does not depend on the weight exponent b, so the dual's conjugate
side shares it at any b; H holds the kernels times the column moments.
build_W_f subtracts the product; build_W_t crosses the factors to the
sample grids and subtracts theirs, so no M x N matrix is transformed.
The factorization rides along on the result for error analysis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import swf_operators as swf
from . import symbolic_kernel as sk
from ._lattice import lattice_tail_values
from .domain_indexing import DomainSpec
from .swf_operators import OperatorMatrix, _to_time_product
from .warp_map import _coincides


# ---------------------------------------------------------------------------
# bases


# aligned row folds and column moments kept process-wide, least recently
# used dropped first
_ALIGNED_FOLDS = 8
_COLUMN_MOMENTS = 8


def _row_fold(spec: DomainSpec, R: int, twist: float) -> np.ndarray:
    """(row_radius / M)^(i+1) T_{i+1}(m/M, q) on every band row m, i < R.

    The tail row basis (m / row_radius)^-(i+1) folded over the full row
    lattice with row phase q = exp(j2pi twist), all band rows in one
    lattice_tail_values call.  The aligned fold (twist 0) is real and
    depends on (output set, R) alone: it comes read-only from
    _aligned_fold, shared by every spec of that output set.  A twisted
    fold is made per call.
    """
    if twist == 0.0:
        return _aligned_fold(spec.output_set, spec.row_radius, R)
    return _fold(spec.output_set, spec.row_radius, R, twist)


def _fold(output_set, row_radius: float, R: int, twist: float) -> np.ndarray:
    M = output_set.N
    ms = np.asarray(output_set.indices, dtype=np.int64)
    pref = (row_radius / M) ** (np.arange(R) + 1.0)
    return pref * lattice_tail_values(ms / M, R, twist)


@lru_cache(maxsize=_ALIGNED_FOLDS)
def _aligned_fold(output_set, row_radius: float, R: int) -> np.ndarray:
    """The twist-0 row fold, real, read-only; row_radius is the set's own.

    Holds at most _ALIGNED_FOLDS folds of M x R float64 each: with
    R <= ROW_CAP = 64 at N = 2^16 and M = 2N + 1, 67 MB a fold and
    537 MB in all.
    """
    U = np.ascontiguousarray(_fold(output_set, row_radius, R, 0.0).real)
    U.flags.writeable = False
    return U


def build_bases(spec: DomainSpec, R: int) -> np.ndarray:
    """V: the (R, N) column moments (n / col_radius)^k all jumps share.

    Each row peaks at 1 on the wide edge of the input set.  V does not
    depend on b: it comes read-only from _column_moments, shared by
    every spec of that input set.
    """
    if R > sk.ROW_CAP:
        raise ValueError(f"basis order capped at {sk.ROW_CAP}")
    if R < 1:
        raise ValueError("need at least one basis column")
    if spec.row_radius <= 0:
        raise ValueError("output set fully one-sided; row basis scale degenerates")
    return _column_moments(spec.input_set, spec.col_radius, R)


@lru_cache(maxsize=_COLUMN_MOMENTS)
def _column_moments(input_set, col_radius: float, R: int) -> np.ndarray:
    """The (R, N) column moments, read-only; col_radius is the set's own.

    Holds at most _COLUMN_MOMENTS of R x N float64 each: with
    R <= ROW_CAP = 64 at N = 2^16 + 1, 34 MB an entry and 268 MB in all.
    """
    ns = np.asarray(input_set.indices, dtype=np.int64)
    V = (ns[None, :] / col_radius) ** np.arange(R)[:, None]
    V.flags.writeable = False
    return V


# ---------------------------------------------------------------------------
# tail factorization


@dataclass(frozen=True)
class TailFactorization:
    """The tail's band fold as two thin factors, L @ H, rank J R.

    kernels are the jumps' SingularityKernels.  L (M, J R) sets the
    jumps' phased row folds diag(e^(j2pi m xi)) U side by side, H (J R, N)
    stacks their blocks S V diag(q), order fastest in both.  L does not
    depend on b, so the factorization at the conjugate exponent shares
    it; both are read-only.
    """

    spec: DomainSpec
    b: float
    rows: int
    kernels: tuple
    V: np.ndarray  # build_bases(spec, rows)
    L: np.ndarray
    H: np.ndarray
    kernel_tol: float

    @property
    def row_radius(self) -> float:
        return self.spec.row_radius

    def tail_rows(self, k_tail: int) -> np.ndarray:
        """Factored out-of-band rows m in [-k_tail M, k_tail M), band excluded.

        Row m is sum over jumps of e^(j2pi m xi) (m / row_radius)^-(i+1)
        times the jump's rows of H, rows ascending; a diagnostic, formed
        only when asked for.
        """
        band, R = self.spec.output_set.indices, self.rows
        reach = k_tail * self.spec.M
        tails = np.concatenate([np.arange(-reach, band[0]), np.arange(band[-1] + 1, reach)])
        Y = (tails[:, None] / self.row_radius) ** -(np.arange(R)[None, :] + 1.0)
        out = np.zeros((tails.size, self.spec.N), dtype=np.complex128)
        for i, ker in enumerate(self.kernels):
            p_tail = np.exp(2j * np.pi * tails * ker.xi)
            out += p_tail[:, None] * (Y @ self.H[i * R:(i + 1) * R])
        return out

    @property
    def band_fold(self) -> np.ndarray:
        """Closed-form aliasing, the tail rows folded onto the band: L @ H, M x N, made per read."""
        return self.L @ self.H


def build_factorization(warp, spec: DomainSpec, b: float = None, R: int = None,
                        kernel_tol: float = sk.KERNEL_TOL_DEFAULT) -> TailFactorization:
    """Factor the out-of-band tail and its band fold through the jump kernels.

    Warns when the kept expansion orders are still growing at the cap:
    the truncated series then leaves a correction error far above
    kernel_tol, which happens when the decay ratio at some jump is close
    to 1 (roughly J below 1.4 for maps with rich high-order jets).
    """
    bundle = sk.build_kernel(warp, spec, b, R=R, kernel_tol=kernel_tol)
    return _assemble(spec, bundle, build_bases(spec, bundle.rows), None, kernel_tol)


def _reweighted_factorization(warp, fact: TailFactorization, b: float) -> TailFactorization:
    """fact's factorization at weight exponent b, on fact's rows and kernel_tol.

    Reweighting to fact's own exponent is the identity, so b == fact.b
    returns fact itself.  Otherwise only the jump kernels and H are built
    anew: V and L depend on (spec, R) alone and are fact's own.
    """
    if b == fact.b:
        return fact
    bundle = sk.build_kernel(warp, fact.spec, b, R=fact.rows, kernel_tol=fact.kernel_tol)
    return _assemble(fact.spec, bundle, fact.V, fact.L, fact.kernel_tol)


def _fold_twist(M: int, xi: float) -> float:
    """The row-lattice twist (-M xi) mod 1 of a jump at xi; 0 on the lattice.

    On the lattice means its grid point round(M xi)/M _coincides with xi.
    An off-lattice M xi never rounds to an integer, so 0 means aligned.
    """
    return 0.0 if _coincides(round(M * xi) / M, xi) else (-M * xi) % 1.0


def _assemble(spec: DomainSpec, bundle, V: np.ndarray, L: np.ndarray,
              kernel_tol: float) -> TailFactorization:
    """The factorization of bundle's kernels: H formed here, L too when None.

    A given L is the row factor of the same spec, rows and jumps.  The
    growth profile is each order's largest |H| row entry: |q| = 1, so it
    is the order's peak contribution.
    """
    M, R = spec.M, bundle.rows
    kernels = bundle.kernels
    ns = np.asarray(spec.input_set.indices, dtype=np.int64)
    if L is None:
        ms = np.asarray(spec.output_set.indices, dtype=np.int64)
        L = np.empty((M, len(kernels) * R), dtype=np.complex128)
        for i, ker in enumerate(kernels):
            np.multiply(np.exp(2j * np.pi * ms * ker.xi)[:, None],
                        _row_fold(spec, R, _fold_twist(M, ker.xi)),
                        out=L[:, i * R:(i + 1) * R])
        L.flags.writeable = False

    H = np.empty((len(kernels) * R, spec.N), dtype=np.complex128)
    for i, ker in enumerate(kernels):
        q = np.exp(-2j * np.pi * ns * ker.image)
        np.multiply(ker.S @ V, q, out=H[i * R:(i + 1) * R])
    H.flags.writeable = False

    if kernels:
        profile = np.abs(H).max(axis=1)
        positive = profile[profile > 0]
        worst_profile = float(profile[R - 1::R].max())
        floor = float(positive.min()) if positive.size else math.inf
        if worst_profile > 1e3 * max(floor, kernel_tol):
            warnings.warn(
                "aliasing correction truncated while its expansion orders are "
                f"still growing (last order contributes {worst_profile:.2e}); "
                "the corrected operator is unreliable at this redundancy "
                f"(smallest decay ratio {spec.feasibility.J_min:.3f})",
                RuntimeWarning,
                stacklevel=3,
            )

    return TailFactorization(
        spec=spec,
        b=bundle.b,
        rows=R,
        kernels=kernels,
        V=V,
        L=L,
        H=H,
        kernel_tol=float(kernel_tol),
    )


# ---------------------------------------------------------------------------
# corrected operators


def _factorization(warp, spec: DomainSpec, b: float,
                   fact: TailFactorization) -> TailFactorization:
    """fact checked against (spec, b), or a fresh default build when fact is None."""
    if fact is None:
        return build_factorization(warp, spec, b)
    if fact.spec is not spec or fact.b != b:
        raise ValueError("factorization was built for a different spec or "
                         "weight exponent")
    return fact


def build_W_f(warp, spec: DomainSpec, b: float = None, *,
              factorization: TailFactorization = None) -> OperatorMatrix:
    """Frequency-domain interpolator with the aliasing fold subtracted.

    Matches the band rows of the continuous operator to the kernel
    truncation accuracy; reduces to the plain sampled operator for maps
    with no derivative jumps.  R and kernel_tol are chosen by passing a
    build_factorization for the same spec and weight exponent; without
    one, the defaults are built.
    """
    base = swf.swf_freq(warp, spec, b=b)
    b = base.b
    fact = _factorization(warp, spec, b, factorization)
    return OperatorMatrix(kind="saf_freq", b=b, spec=spec,
                          entries=base.entries - fact.band_fold,
                          correction=fact)


def build_W_t(warp, spec: DomainSpec, b: float = None, *,
              factorization: TailFactorization = None) -> OperatorMatrix:
    """Time-domain interpolator with the aliasing fold subtracted.

    Time-warping geometry only.  The time-domain twin of build_W_f:
    swf_time minus the band fold taken to sample coordinates by the
    same DFT conjugation that relates swf_time to swf_freq.  The fold
    crosses in factored form, its row factor over the output set and H
    over the input set, and only their product is M x N.  Real, float64,
    like the uncorrected interpolator: the time twin of the band fold is
    real up to roundoff, and only its real part is formed.
    """
    base = swf.swf_time(warp, spec, b=b)
    b = base.b
    fact = _factorization(warp, spec, b, factorization)
    fold = _to_time_product(fact.L, fact.H, spec.output_set, spec.input_set)
    return OperatorMatrix(kind="saf_time", b=b, spec=spec,
                          entries=base.entries - fold, correction=fact)
