"""Aliasing-corrected interpolation operators.

The sampled interpolators in swf_operators equal the exact band rows of
the continuous operator plus a fold of its out-of-band tail onto the
band.  The tail rows factor through a small per-jump kernel: inverse
powers of the row index, polynomial moments of the column index, and a
boundary phase on each side.  Folding inverse powers over the row
lattice has a closed form (derivatives of the periodized simple pole),
so the aliasing inherits the same factorization and can be subtracted
entry by entry.  build_W_f and build_W_t return the corrected frequency-
and time-domain operators; the factorization rides along on the result
for error analysis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import swf_operators as swf
from . import symbolic_kernel as sk
from ._lattice import lattice_tail_values
from .domain_indexing import DomainSpec
from .swf_operators import OperatorMatrix, _to_time
from .warp_map import _coincides


# ---------------------------------------------------------------------------
# bases


def _row_fold(spec: DomainSpec, R: int, twist: float) -> np.ndarray:
    """(row_radius / M)^(i+1) T_{i+1}(m/M, q) on every band row m, i < R.

    The tail row basis (m / row_radius)^-(i+1) folded over the full row
    lattice with row phase q = exp(j2pi twist), all band rows in one
    lattice_tail_values call.
    """
    ms = np.asarray(spec.output_set.indices, dtype=np.int64)
    pref = (spec.row_radius / spec.M) ** (np.arange(R) + 1.0)
    return pref * lattice_tail_values(ms / spec.M, R, twist)


def build_bases(spec: DomainSpec, R: int) -> np.ndarray:
    """V: the (R, N) column moments (n / col_radius)^k all jumps share.

    Each row peaks at 1 on the wide edge of the input set.
    """
    if R > sk.ROW_CAP:
        raise ValueError(f"basis order capped at {sk.ROW_CAP}")
    if R < 1:
        raise ValueError("need at least one basis column")
    if spec.row_radius <= 0:
        raise ValueError("output set fully one-sided; row basis scale degenerates")
    ns = np.asarray(spec.input_set.indices, dtype=np.int64)
    return (ns[None, :] / spec.col_radius) ** np.arange(R)[:, None]


# ---------------------------------------------------------------------------
# tail factorization


@dataclass(frozen=True)
class JumpCorrection:
    """One jump's share of the tail: phases, kernel, and folded row basis."""

    xi: float
    image: float  # map value at the jump, mod 1
    S: np.ndarray
    U: np.ndarray  # (M_band, R) row-lattice fold at _fold_twist; real when aligned
    lattice_aligned: bool  # xi on the output sample lattice, so the twist is 0
    p_band: np.ndarray
    q: np.ndarray
    block: np.ndarray  # (R, N) S V diag(q): what every tail product reads


@dataclass(frozen=True)
class TailFactorization:
    spec: DomainSpec
    b: float
    rows: int
    V: np.ndarray  # build_bases(spec, rows)
    pieces: tuple
    kernel_tol: float

    @property
    def row_radius(self) -> float:
        return self.spec.row_radius

    def tail_rows(self, k_tail: int) -> np.ndarray:
        """Factored out-of-band rows m in [-k_tail M, k_tail M), band excluded.

        Row m is sum over jumps of e^(j2pi m xi) (m / row_radius)^-(i+1)
        times the jump's block, rows ascending; a diagnostic, formed only
        when asked for.
        """
        band = self.spec.output_set.indices
        reach = k_tail * self.spec.M
        tails = np.concatenate([np.arange(-reach, band[0]), np.arange(band[-1] + 1, reach)])
        Y = (tails[:, None] / self.row_radius) ** -(np.arange(self.rows)[None, :] + 1.0)
        out = np.zeros((tails.size, self.spec.N), dtype=np.complex128)
        for pc in self.pieces:
            p_tail = np.exp(2j * np.pi * tails * pc.xi)
            out += p_tail[:, None] * (Y @ pc.block)
        return out

    @cached_property
    def band_fold(self) -> np.ndarray:
        """Closed-form aliasing: the tail rows folded onto the band."""
        out = np.zeros((self.spec.M, self.spec.N), dtype=np.complex128)
        for pc in self.pieces:
            out += pc.p_band[:, None] * (pc.U @ pc.block)
        return out


def build_factorization(warp, spec: DomainSpec, b: float = None, R: int = None,
                        kernel_tol: float = sk.KERNEL_TOL_DEFAULT) -> TailFactorization:
    """Factor the out-of-band tail and its band fold through the jump kernels.

    Warns when the kept expansion orders are still growing at the cap:
    the truncated series then leaves a correction error far above
    kernel_tol, which happens when the decay ratio at some jump is close
    to 1 (roughly J below 1.4 for maps with rich high-order jets).
    """
    bundle = sk.build_kernel(warp, spec, b, R=R, kernel_tol=kernel_tol)
    return _assemble(spec, bundle.b, bundle, build_bases(spec, bundle.rows), {}, kernel_tol)


def _reweighted_factorization(warp, fact: TailFactorization, b: float) -> TailFactorization:
    """fact's factorization at weight exponent b, on fact's rows and kernel_tol.

    Only the jump kernels depend on b: the column basis and the per-jump
    row folds depend on (spec, R, twist) alone and are taken from fact.
    """
    spec = fact.spec
    bundle = sk.build_kernel(warp, spec, b, R=fact.rows, kernel_tol=fact.kernel_tol)
    folds = {_fold_twist(spec.M, pc.xi): pc.U for pc in fact.pieces}
    return _assemble(spec, b, bundle, fact.V, folds, fact.kernel_tol)


def _fold_twist(M: int, xi: float) -> float:
    """The row-lattice twist (-M xi) mod 1 of a jump at xi; 0 on the lattice.

    On the lattice means its grid point round(M xi)/M _coincides with xi.
    An off-lattice M xi never rounds to an integer, so 0 means aligned.
    """
    return 0.0 if _coincides(round(M * xi) / M, xi) else (-M * xi) % 1.0


def _assemble(spec: DomainSpec, b: float, bundle, V: np.ndarray, folds: dict,
              kernel_tol: float) -> TailFactorization:
    """One JumpCorrection per kernel of bundle, its block S V diag(q) formed here.

    folds maps a twist to its row fold and gains each fold made here.
    The growth profile is each order's largest |block| entry: |q| = 1,
    so it is the order's peak contribution.
    """
    M = spec.M
    ms = np.asarray(spec.output_set.indices, dtype=np.int64)
    ns = np.asarray(spec.input_set.indices, dtype=np.int64)

    pieces = []
    worst_profile = 0.0
    floor = math.inf
    for ker in bundle.kernels:
        twist = _fold_twist(M, ker.xi)
        aligned = twist == 0.0
        if twist not in folds:
            U = _row_fold(spec, bundle.rows, twist)
            folds[twist] = U.real if aligned else U
        U = folds[twist]
        q = np.exp(-2j * np.pi * ns * ker.image)
        block = ker.S @ V * q
        profile = np.abs(block).max(axis=1)
        positive = profile[profile > 0]
        if positive.size:
            floor = min(floor, float(positive.min()))
        worst_profile = max(worst_profile, float(profile[-1]))
        pieces.append(JumpCorrection(
            xi=ker.xi,
            image=ker.image,
            S=ker.S,
            U=U,
            lattice_aligned=aligned,
            p_band=np.exp(2j * np.pi * ms * ker.xi),
            q=q,
            block=block,
        ))

    if pieces and worst_profile > 1e3 * max(floor, kernel_tol):
        warnings.warn(
            "aliasing correction truncated while its expansion orders are "
            f"still growing (last order contributes {worst_profile:.2e}); "
            "the corrected operator is unreliable at this redundancy "
            f"(smallest decay ratio {bundle.J_min:.3f})",
            RuntimeWarning,
            stacklevel=3,
        )

    return TailFactorization(
        spec=spec,
        b=b,
        rows=bundle.rows,
        V=V,
        pieces=tuple(pieces),
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
    same DFT conjugation that relates swf_time to swf_freq, so it equals
    _to_time of the corrected frequency-domain operator.  Exactly real,
    like the uncorrected interpolator.
    """
    base = swf.swf_time(warp, spec, b=b)
    b = base.b
    fact = _factorization(warp, spec, b, factorization)
    entries = base.entries - _to_time(fact.band_fold, spec.output_set, spec.input_set)
    return OperatorMatrix(kind="saf_time", b=b, spec=spec,
                          entries=entries.real.astype(np.complex128),
                          correction=fact)
