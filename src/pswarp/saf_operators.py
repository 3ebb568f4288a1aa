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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import swf_operators as swf
from . import symbolic_kernel as sk
from ._lattice import lattice_tail_values
from .dense_oracle import tail_row_indices
from .domain_indexing import DomainSpec
from .swf_operators import OperatorMatrix, _require_swf_feasible, _require_tw, _resolve_b

K_TAIL_DEFAULT = 8
ROW_ORDER_CAP = 64


# ---------------------------------------------------------------------------
# bases


@dataclass(frozen=True)
class BasisSet:
    """Row/column bases of the tail factorization plus their lattice fold.

    V: (R, N) column moments n^k, scaled so each row peaks at 1 on the
       wide edge of the input set.
    Y: (tail, R) inverse powers of the out-of-band row index, scaled by
       the effective output half-bandwidth.
    U: (M_band, R) closed-form fold of the Y columns over the full row
       lattice, valid when every jump sits on the output sample lattice:
       the twist-0 case ((1 - mu_M)/2)^(i+1) T_{i+1}(m/M, 1) of the
       shared lattice fold, real.  build_factorization folds with the
       jump's phase twist otherwise.
    """

    V: np.ndarray
    Y: np.ndarray
    U: np.ndarray
    k_tail: int
    tail_indices: np.ndarray


def _row_fold(spec: DomainSpec, R: int, twist: float) -> np.ndarray:
    """((1 - mu_M)/2)^(i+1) T_{i+1}(m/M, q) on every band row m, i < R.

    The Y columns folded over the full row lattice with row phase
    q = exp(j2pi twist), all band rows in one lattice_tail_values call.
    """
    ms = np.asarray(spec.output_set.indices, dtype=np.int64)
    pref = ((1.0 - spec.output_set.mu) / 2.0) ** (np.arange(R) + 1.0)
    return pref * lattice_tail_values(ms / spec.M, R, twist)


def build_bases(spec: DomainSpec, R: int, k_tail: int = K_TAIL_DEFAULT) -> BasisSet:
    if R > ROW_ORDER_CAP:
        raise ValueError(f"basis order capped at {ROW_ORDER_CAP}")
    if R < 1:
        raise ValueError("need at least one basis column")
    mu_M = spec.output_set.mu
    if mu_M >= 1.0:
        raise ValueError("output set fully one-sided; row basis scale degenerates")
    M = spec.M
    row_radius = 0.5 * M * (1.0 - mu_M)
    col_radius = 0.5 * spec.N * (1.0 + spec.input_set.mu)
    orders = np.arange(R)

    ns = np.asarray(spec.input_set.indices, dtype=np.int64)
    V = (ns[None, :] / col_radius) ** orders[:, None]

    tails = tail_row_indices(spec, k_tail)
    Y = (tails[:, None] / row_radius) ** -(orders[None, :] + 1.0)

    U = _row_fold(spec, R, 0.0).real
    return BasisSet(V=V, Y=Y, U=U, k_tail=int(k_tail), tail_indices=tails)


# ---------------------------------------------------------------------------
# tail factorization


@dataclass(frozen=True)
class JumpCorrection:
    """One jump's share of the tail: phases, kernel, and folded row basis."""

    xi: float
    image: float  # map value at the jump, mod 1
    S: np.ndarray
    U: np.ndarray  # (M_band, R) row-lattice fold, twisted when M*xi is fractional
    lattice_aligned: bool  # M*xi integral, so the row phase is a circular shift
    p_band: np.ndarray
    p_tail: np.ndarray
    q: np.ndarray


@dataclass(frozen=True)
class TailFactorization:
    spec: DomainSpec
    b: float
    rows: int
    row_radius: float
    col_radius: float
    basis: BasisSet
    pieces: tuple
    J_min: float
    kernel_tol: float

    @cached_property
    def tail_rows(self) -> np.ndarray:
        """Factored out-of-band rows on basis.tail_indices."""
        shape = (self.basis.tail_indices.size, self.basis.V.shape[1])
        out = np.zeros(shape, dtype=np.complex128)
        for pc in self.pieces:
            out += pc.p_tail[:, None] * (self.basis.Y @ pc.S @ self.basis.V) * pc.q[None, :]
        return out

    @cached_property
    def band_fold(self) -> np.ndarray:
        """Closed-form aliasing: the tail rows folded onto the band."""
        shape = (self.basis.U.shape[0], self.basis.V.shape[1])
        out = np.zeros(shape, dtype=np.complex128)
        for pc in self.pieces:
            out += pc.p_band[:, None] * (pc.U @ pc.S @ self.basis.V) * pc.q[None, :]
        return out


def _is_lattice_aligned(value: float) -> bool:
    return abs(value - round(value)) < 1e-9


def build_factorization(warp, spec: DomainSpec, b: float = None, R: int = None,
                        k_tail: int = K_TAIL_DEFAULT,
                        kernel_tol: float = sk.KERNEL_TOL_DEFAULT,
                        max_level: int = sk.MAX_LEVEL_DEFAULT) -> TailFactorization:
    """Factor the out-of-band tail and its band fold through the jump kernels.

    Warns when the kept expansion orders are still growing at the cap:
    the truncated series then leaves a correction error far above
    kernel_tol, which happens when the decay ratio at some jump is close
    to 1 (roughly J below 1.4 for maps with rich high-order jets).
    """
    b = _resolve_b(spec, b)
    bundle = sk.build_kernel(warp, spec, b, R=R, kernel_tol=kernel_tol,
                             max_level=max_level)
    basis = build_bases(spec, bundle.rows, k_tail)
    return _assemble(spec, b, bundle, basis, {}, kernel_tol)


def _reweighted_factorization(warp, fact: TailFactorization, b: float,
                              k_tail: int = K_TAIL_DEFAULT,
                              kernel_tol: float = sk.KERNEL_TOL_DEFAULT,
                              max_level: int = sk.MAX_LEVEL_DEFAULT) -> TailFactorization:
    """fact's factorization at weight exponent b, on fact's rows.

    Only the jump kernels depend on b: the bases and the per-jump row
    folds depend on (spec, R, xi) alone and are taken from fact.
    """
    spec = fact.spec
    bundle = sk.build_kernel(warp, spec, b, R=fact.rows, kernel_tol=kernel_tol,
                             max_level=max_level)
    basis = fact.basis
    if basis.k_tail != k_tail:
        basis = build_bases(spec, fact.rows, k_tail)
    folds = {pc.xi: pc.U for pc in fact.pieces}
    return _assemble(spec, b, bundle, basis, folds, kernel_tol)


def _assemble(spec: DomainSpec, b: float, bundle, basis: BasisSet, folds: dict,
              kernel_tol: float) -> TailFactorization:
    """One JumpCorrection per kernel of bundle; folds maps xi to a known row fold."""
    M = spec.M
    ms = np.asarray(spec.output_set.indices, dtype=np.int64)
    ns = np.asarray(spec.input_set.indices, dtype=np.int64)

    pieces = []
    worst_profile = 0.0
    floor = math.inf
    for ker in bundle.kernels:
        aligned = _is_lattice_aligned(M * ker.xi)
        if aligned:
            U = basis.U
        elif ker.xi in folds:
            U = folds[ker.xi]
        else:
            U = _row_fold(spec, bundle.rows, (-M * ker.xi) % 1.0)
        profile = np.abs(ker.S @ basis.V).max(axis=1)
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
            p_tail=np.exp(2j * np.pi * basis.tail_indices * ker.xi),
            q=np.exp(-2j * np.pi * ns * ker.image),
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
        row_radius=bundle.row_radius,
        col_radius=bundle.col_radius,
        basis=basis,
        pieces=tuple(pieces),
        J_min=bundle.J_min,
        kernel_tol=float(kernel_tol),
    )


# ---------------------------------------------------------------------------
# corrected operators


def build_W_f(warp, spec: DomainSpec, b: float = None, *,
              factorization: TailFactorization = None,
              **factor_kw) -> OperatorMatrix:
    """Frequency-domain interpolator with the aliasing fold subtracted.

    Matches the band rows of the continuous operator to the kernel
    truncation accuracy; reduces to the plain sampled operator for maps
    with no derivative jumps.  A prebuilt factorization for the same
    spec and weight exponent can be passed to skip the kernel build.
    """
    b = _resolve_b(spec, b)
    _require_swf_feasible(spec)
    fact = factorization
    if fact is None:
        fact = build_factorization(warp, spec, b, **factor_kw)
    elif fact.spec is not spec or fact.b != b:
        raise ValueError("factorization was built for a different spec or "
                         "weight exponent")
    base = swf.swf_freq(warp, spec, b=b)
    return OperatorMatrix(kind="saf_freq", b=b, spec=spec,
                          entries=base.entries - fact.band_fold,
                          correction=fact)


def _synthesis_matrix(count: int, index_set) -> np.ndarray:
    ks = np.asarray(index_set.indices, dtype=np.int64)
    grid = np.arange(count) / count
    return np.exp(2j * np.pi * np.outer(grid, ks)) / np.sqrt(count)


def _analysis_matrix(count: int, index_set) -> np.ndarray:
    ks = np.asarray(index_set.indices, dtype=np.int64)
    grid = np.arange(count) / count
    return np.exp(-2j * np.pi * np.outer(ks, grid)) / np.sqrt(count)


def _time_correction(fact: TailFactorization) -> np.ndarray:
    """Transform of the conjugate band fold into sample coordinates.

    The jump phases are diagonal in the band indices; when the jump and
    its image land on the sample lattices they become circular shifts of
    the transformed bases, which are computed once.  Fractional
    positions keep the exact diagonal instead.
    """
    spec = fact.spec
    M, N = spec.M, spec.N
    synth = _synthesis_matrix(M, spec.output_set)
    analysis = _analysis_matrix(N, spec.input_set)
    base_left = synth @ np.conj(fact.basis.U)
    base_right = fact.basis.V @ analysis
    out = np.zeros((M, N), dtype=np.complex128)
    for pc in fact.pieces:
        if pc.lattice_aligned:
            left = np.roll(base_left, int(round(M * pc.xi)), axis=0)
        else:
            left = synth @ (np.conj(pc.p_band)[:, None] * np.conj(pc.U))
        d = N * pc.image
        if _is_lattice_aligned(d):
            right = np.roll(base_right, int(round(d)), axis=1)
        else:
            right = (fact.basis.V * np.conj(pc.q)[None, :]) @ analysis
        out += left @ np.conj(pc.S) @ right
    return out


def build_W_t(warp, spec: DomainSpec, b: float = None, *,
              factorization: TailFactorization = None,
              **factor_kw) -> OperatorMatrix:
    """Time-domain interpolator with the transformed aliasing subtracted.

    Time-warping geometry only.  With symmetric index sets the corrected
    matrix is exactly real, like the uncorrected one.
    """
    b = _resolve_b(spec, b)
    _require_tw(spec)
    _require_swf_feasible(spec)
    fact = factorization
    if fact is None:
        fact = build_factorization(warp, spec, b, **factor_kw)
    elif fact.spec is not spec or fact.b != b:
        raise ValueError("factorization was built for a different spec or "
                         "weight exponent")
    base = swf.swf_time(warp, spec, b=b)
    entries = base.entries - _time_correction(fact)
    if spec.input_set.symmetric and spec.output_set.symmetric:
        entries = entries.real.astype(np.complex128)
    return OperatorMatrix(kind="saf_time", b=b, spec=spec,
                          entries=entries, correction=fact)
