"""Analytic duals for the aliasing-corrected interpolation operators.

The corrected operator keeps only the band rows of an infinite-row
isometry: pairing two corrected operators whose weight exponents sum to
one gives the identity minus a product of out-of-band tails.  Those
tails live in the span of a few inverse-power rows per derivative jump,
so the Neumann series inverting the pairing collapses to a single
linear solve in that compressed space.  The result is a dual matrix
that reconstructs exactly from the corrected forward operator, at the
cost of one extra rank-limited correction factor.

Weight convention: ``dual_W_f(warp, spec, b)`` returns the operator D
with D' W_f^(b) = I.  D itself carries the conjugate exponent 1 - b in
its quadrature weight; the correction factor mixes both kernels.
"""

from dataclasses import dataclass

import numpy as np

from . import _lattice as lat
from . import saf_operators as saf
from . import swf_operators as swf
from .domain_indexing import DomainSpec
from .saf_operators import TailFactorization
from .swf_operators import (
    OperatorMatrix,
    _require_swf_feasible,
    _require_tw,
    _resolve_b,
)

__all__ = [
    "DualFactorization",
    "build_dual_factorization",
    "compute_Z",
    "dual_W_f",
    "dual_W_t",
    "stacked_blocks",
    "tail_row_gram",
]


def stacked_blocks(fact: TailFactorization) -> np.ndarray:
    """Stack the per-jump correction blocks S_i V Q_i into one matrix.

    Rows group by jump, expansion order fastest; columns follow the
    input index set.  The out-of-band tail of the corrected operator is
    (phased inverse-power rows) @ (this matrix).
    """
    V = fact.basis.V
    blocks = [pc.S @ V * pc.q[None, :] for pc in fact.pieces]
    if not blocks:
        return np.zeros((0, fact.spec.N), dtype=np.complex128)
    return np.vstack(blocks)


def tail_row_gram(fact: TailFactorization) -> np.ndarray:
    """Gram matrix of the phased inverse-power rows over all out-of-band indices.

    Entry ((i,u),(j,v)) sums e^(j2pi m (xi_j - xi_i)) (m/r)^-(u+v+2) over
    every integer m outside the output band, evaluated analytically so
    no truncation enters.  Hermitian by construction.
    """
    R = fact.rows
    band = fact.spec.output_set.indices
    pieces = fact.pieces
    n = len(pieces) * R
    G = np.empty((n, n), dtype=np.complex128)
    orders = np.arange(R)
    for i, pi in enumerate(pieces):
        for j, pj in enumerate(pieces):
            sums = lat.band_complement_power_sums(
                2 * R, band, pj.xi - pi.xi, scale=fact.row_radius)
            # sums[s-2] holds power s; entry (u,v) needs s = u + v + 2
            G[i * R:(i + 1) * R, j * R:(j + 1) * R] = \
                sums[orders[:, None] + orders[None, :]]
    return G


def _spectral_radius(C: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(C)), initial=0.0))


def compute_Z(H: np.ndarray, G: np.ndarray,
              H_dual: np.ndarray = None, *, radius: float = None) -> np.ndarray:
    """Resum the compressed tail-product series in closed form.

    Returns Z = G (I - H_dual H' G)^(-1), which satisfies

        sum_{k>=1} (E' E_dual)^k = H' Z H_dual

    for tail operators E = Yhat H and E_dual = Yhat H_dual sharing the
    phased inverse-power rows Yhat with Gram G.  H defaults to both
    roles at the self-dual weight 1/2.

    Raises ValueError when the compressed product has spectral radius
    at or above one: the series diverges there, which happens exactly
    when the sampling geometry is too tight for the correction
    feasibility (decay ratios near one leave too much tail energy).  A
    caller that already has that radius passes it, so the eigenvalues
    are computed once.
    """
    if H_dual is None:
        H_dual = H
    n = G.shape[0]
    C = H_dual @ H.conj().T @ G
    if radius is None:
        radius = _spectral_radius(C)
    if radius >= 1.0:
        raise ValueError(
            "dual correction series diverges: compressed tail product has "
            f"spectral radius {radius:.3g} >= 1; the sampling geometry is "
            "outside the feasibility range for an analytic dual")
    B = np.eye(n, dtype=np.complex128) - C
    # solve Z B = G by the transposed system; LU with partial pivoting
    return np.linalg.solve(B.T, G.T).T


@dataclass(frozen=True)
class DualFactorization:
    """Compressed correction data for an analytically inverted operator.

    H and H_dual stack the correction blocks of the inverted exponent b
    and its conjugate 1 - b over a shared row basis; G is the exact
    Gram of that basis over the out-of-band indices; Z resums the
    resulting Neumann series.  The dual correction factor applied to
    the conjugate-weight operator is I + H' Z H_dual.
    """

    b: float
    b_dual: float
    H: np.ndarray
    H_dual: np.ndarray
    G: np.ndarray
    Z: np.ndarray
    spectral_radius: float
    fact: TailFactorization
    fact_dual: TailFactorization

    def correction_factor(self) -> np.ndarray:
        """I + H' Z H_dual, the exact-pairing correction on the input side."""
        N = self.fact.spec.N
        eye = np.eye(N, dtype=np.complex128)
        if self.H.size == 0:
            return eye
        return eye + self.H.conj().T @ self.Z @ self.H_dual


def build_dual_factorization(warp, spec: DomainSpec, b: float = None,
                             fact: TailFactorization = None,
                             fact_dual: TailFactorization = None,
                             **factor_kw) -> DualFactorization:
    """Factor the dual correction for the weight-b operator on this spec.

    Builds both weight kernels on a shared expansion order, assembles
    the exact tail Gram, and resums the correction.  Maps with no
    derivative jumps give empty compressed blocks and an identity
    correction.  A prebuilt weight-b factorization can be passed to
    skip one kernel build.  The conjugate factorization shares the row
    folds of the weight-b one, which do not depend on the exponent.
    """
    b = _resolve_b(spec, b)
    b_dual = 1.0 - b
    if fact is None:
        fact = saf.build_factorization(warp, spec, b, **factor_kw)
    elif fact.spec is not spec or fact.b != b:
        raise ValueError("factorization was built for a different spec or "
                         "weight exponent")
    if fact_dual is None:
        # on fact's rows: mixed-kernel products need matching block sizes
        kw = {k: v for k, v in factor_kw.items() if k != "R"}
        fact_dual = saf._reweighted_factorization(warp, fact, b_dual, **kw)
    elif (fact_dual.spec is not spec or fact_dual.b != b_dual
          or fact_dual.rows != fact.rows):
        raise ValueError("conjugate factorization does not match the spec, "
                         "exponent, or block size")
    H = stacked_blocks(fact)
    H_dual = stacked_blocks(fact_dual)
    G = tail_row_gram(fact)
    radius = _spectral_radius(H_dual @ H.conj().T @ G)
    Z = compute_Z(H, G, H_dual, radius=radius)
    return DualFactorization(b=b, b_dual=b_dual, H=H, H_dual=H_dual,
                             G=G, Z=Z, spectral_radius=radius,
                             fact=fact, fact_dual=fact_dual)


def dual_W_f(warp, spec: DomainSpec, b: float = None,
             **factor_kw) -> OperatorMatrix:
    """Exact dual of the corrected frequency-domain operator.

    The returned D satisfies D' W_f^(b) = I up to the kernel truncation
    floor; it is the conjugate-weight operator times the resummed
    correction factor.  For maps with no jumps D is W_f itself.
    """
    b = _resolve_b(spec, b)
    _require_swf_feasible(spec)
    dfact = build_dual_factorization(warp, spec, b, **factor_kw)
    base = saf.build_W_f(warp, spec, b=dfact.b_dual,
                         factorization=dfact.fact_dual)
    if dfact.H.size == 0:
        entries = base.entries
    else:
        entries = base.entries @ dfact.correction_factor()
    return OperatorMatrix(kind="dual_freq", b=dfact.b_dual, spec=spec,
                          entries=entries, correction=dfact)


def dual_W_t(warp, spec: DomainSpec, b: float = None,
             **factor_kw) -> OperatorMatrix:
    """Exact dual of the corrected time-domain interpolator.

    Same compressed correction as the frequency dual, conjugated into
    sample coordinates by the input-side unitary transform pair.  Real
    for symmetric index sets, like the forward interpolator.
    """
    b = _resolve_b(spec, b)
    _require_tw(spec)
    _require_swf_feasible(spec)
    dfact = build_dual_factorization(warp, spec, b, **factor_kw)
    base = saf.build_W_t(warp, spec, b=dfact.b_dual,
                         factorization=dfact.fact_dual)
    if dfact.H.size == 0:
        entries = base.entries
    else:
        N = spec.N
        sandwich = dfact.H.conj().T @ dfact.Z @ dfact.H_dual
        synth = saf._synthesis_matrix(N, spec.input_set)
        analysis = saf._analysis_matrix(N, spec.input_set)
        factor = np.eye(N, dtype=np.complex128) \
            + synth @ np.conj(sandwich) @ analysis
        entries = base.entries @ factor
        if spec.input_set.symmetric and spec.output_set.symmetric:
            entries = entries.real.astype(np.complex128)
    return OperatorMatrix(kind="dual_time", b=dfact.b_dual, spec=spec,
                          entries=entries, correction=dfact)
