"""Analytic duals for the aliasing-corrected interpolation operators.

The corrected operator keeps only the band rows of an infinite-row
isometry: pairing two corrected operators whose weight exponents sum to
one gives the identity minus a product of out-of-band tails.  Those
tails live in the span of a few inverse-power rows per derivative jump,
so the Neumann series inverting the pairing collapses to a single
linear solve in that compressed space.  The result is a dual matrix
that reconstructs exactly from the corrected forward operator, at the
cost of one extra rank-limited correction factor.

The series converges exactly when the compressed tail product K has
spectral radius below one.  ``compute_Z`` forms K once; the refusal
(ValueError when the radius is at or above one) and the solve both read
that one K, so the accept/refuse decision has a single definition.

Weight convention: ``dual_W_f(warp, spec, b)`` returns the operator D
with D' W_f^(b) = I.  D itself carries the conjugate exponent 1 - b in
its quadrature weight; the correction factor mixes both kernels.
"""

from dataclasses import dataclass

import numpy as np

from . import _lattice as lat
from . import saf_operators as saf
from .domain_indexing import DomainSpec, _resolve_b
from .saf_operators import TailFactorization
from .swf_operators import OperatorMatrix, _require_swf_feasible, _require_tw, _to_time_product

__all__ = [
    "DualFactorization",
    "build_dual_factorization",
    "compute_Z",
    "dual_W_f",
    "dual_W_t",
    "tail_row_gram",
]


def tail_row_gram(fact: TailFactorization) -> np.ndarray:
    """Gram matrix of the phased inverse-power rows over all out-of-band indices.

    Entry ((i,u),(j,v)) sums e^(j2pi m (xi_j - xi_i)) (m/r)^-(u+v+2) over
    every integer m outside the output band: the low powers fold the
    band's residue classes through the same lattice sums as the band
    fold, the high ones are summed until they reach double precision.
    Exactly Hermitian: the diagonal blocks share one real phase-0 sum,
    each block above the diagonal takes one sum, and block (j, i) is the
    conjugate transpose of block (i, j).
    """
    R = fact.rows
    band = fact.spec.output_set.indices
    pieces = fact.pieces
    n = len(pieces) * R
    G = np.empty((n, n), dtype=np.complex128)
    if not pieces:
        return G
    orders = np.arange(R)
    # sums[s-2] holds power s; entry (u,v) needs s = u + v + 2
    powers = orders[:, None] + orders[None, :]

    def block(delta):
        sums = lat.band_complement_power_sums(2 * R, band, delta, scale=fact.row_radius)
        return sums[powers]

    diag = block(0.0)
    for i, pi in enumerate(pieces):
        G[i * R:(i + 1) * R, i * R:(i + 1) * R] = diag
        for j in range(i + 1, len(pieces)):
            upper = block(pieces[j].xi - pi.xi)
            G[i * R:(i + 1) * R, j * R:(j + 1) * R] = upper
            G[j * R:(j + 1) * R, i * R:(i + 1) * R] = upper.conj().T
    return G


def compute_Z(H: np.ndarray, G: np.ndarray, H_dual: np.ndarray) -> tuple[np.ndarray, float]:
    """Gate and resum the compressed tail-product series: (Z, radius).

    Z = G (I - H_dual H' G)^(-1) satisfies

        sum_{k>=1} (E' E_dual)^k = H' Z H_dual

    for tail operators E = Yhat H and E_dual = Yhat H_dual sharing the
    phased inverse-power rows Yhat with Gram G.

    The gate and the solve read one product K, formed once with
    HG = H' G in the smaller of two spaces that share its nonzero
    eigenvalues.  With n = J R rows and N columns in H, n <= N takes the
    n x n K = H_dual HG and solves Z (I - K) = G; n > N takes the N x N
    K = HG H_dual and, by push-through
    (I - H_dual HG)^(-1) = I + H_dual (I - K)^(-1) HG, forms
    Z = G + (G H_dual) (I - K)^(-1) HG.  radius is the exact spectral
    radius of K from its eigenvalues, not a bound.

    Raises ValueError, before any solve, when that radius is at or
    above one: the series diverges there, which happens exactly when
    the sampling geometry is too tight for the correction feasibility
    (decay ratios near one leave too much tail energy).
    """
    n, N = H.shape
    HG = H.conj().T @ G
    K = H_dual @ HG if n <= N else HG @ H_dual
    radius = float(np.max(np.abs(np.linalg.eigvals(K)), initial=0.0))
    if radius >= 1.0:
        raise ValueError(
            "dual correction series diverges: compressed tail product has "
            f"spectral radius {radius:.3g} >= 1; the sampling geometry is "
            "outside the feasibility range for an analytic dual")
    B = np.eye(K.shape[0]) - K
    if n > N:
        return G + (G @ H_dual) @ np.linalg.solve(B, HG), radius
    # solve Z B = G by the transposed system; LU with partial pivoting
    return np.linalg.solve(B.T, G.T).T, radius


@dataclass(frozen=True)
class DualFactorization:
    """Compressed correction data for an analytically inverted operator.

    H and H_dual, read from fact and fact_dual, stack the correction
    blocks of the inverted exponent b and its conjugate 1 - b over a
    shared row basis; G is the exact Gram of that basis over the
    out-of-band indices; Z resums the resulting Neumann series.  The
    dual correction factor applied to the conjugate-weight operator is
    I + H' Z H_dual: the identity plus a rank-J R product.

    spectral_radius is the exact spectral radius of the compressed
    product K that Z was solved with (compute_Z: the eigenvalues of that
    same K), not a bound; a build with it at or above one is refused.
    """

    b: float
    b_dual: float
    G: np.ndarray
    Z: np.ndarray
    spectral_radius: float
    fact: TailFactorization
    fact_dual: TailFactorization

    H = property(lambda self: self.fact.H)
    H_dual = property(lambda self: self.fact_dual.H)

    def correction_factor(self) -> np.ndarray:
        """I + H' Z H_dual, the dense N x N exact-pairing correction that dual_W_f applies."""
        return np.eye(self.fact.spec.N) + self.H.conj().T @ self.Z @ self.H_dual


def build_dual_factorization(warp, spec: DomainSpec, b: float = None,
                             fact: TailFactorization = None) -> DualFactorization:
    """Factor the dual correction for the weight-b operator on this spec.

    Builds both weight kernels on a shared expansion order, assembles
    the exact tail Gram, and resums the correction.  Maps with no
    derivative jumps give empty compressed blocks and an identity
    correction.  R and kernel_tol are chosen by passing the weight-b
    build_factorization as fact; without one, the defaults are built.
    The conjugate factorization takes fact's rows and kernel_tol, and
    shares its column basis and row folds, which do not depend on b.
    """
    b = _resolve_b(spec, b)
    b_dual = 1.0 - b
    fact = saf._factorization(warp, spec, b, fact)
    fact_dual = saf._reweighted_factorization(warp, fact, b_dual)
    G = tail_row_gram(fact)
    Z, radius = compute_Z(fact.H, G, fact_dual.H)
    return DualFactorization(b=b, b_dual=b_dual, G=G, Z=Z, spectral_radius=radius,
                             fact=fact, fact_dual=fact_dual)


def dual_W_f(warp, spec: DomainSpec, b: float = None) -> OperatorMatrix:
    """Exact dual of the corrected frequency-domain operator.

    The returned D satisfies D' W_f^(b) = I up to the kernel truncation
    floor; it is the conjugate-weight operator times the resummed
    correction factor.  A map with no jump gets no correction: D is W_f
    itself, and nothing bounds its pairing.  Near the redundancy edge a
    smooth map other than the identity pairs far from I: atan_tan_map()
    at M = 2N + 1 gives ||D' W_f - I||_2 = 0.12 at N = 33, with no warning.
    """
    _require_swf_feasible(spec)
    dfact = build_dual_factorization(warp, spec, b)
    base = saf.build_W_f(warp, spec, b=dfact.b_dual,
                         factorization=dfact.fact_dual)
    return OperatorMatrix(kind="dual_freq", b=dfact.b_dual, spec=spec,
                          entries=base.entries @ dfact.correction_factor(),
                          correction=dfact)


def dual_W_t(warp, spec: DomainSpec, b: float = None) -> OperatorMatrix:
    """Exact dual of the corrected time-domain interpolator.

    The conjugate-weight W_t times the frequency dual's correction
    factor taken to sample coordinates by the input-side DFT
    conjugation.  The identity is its own twin; the rank-J R rest
    crosses as its factors H' and Z H_dual, and its real part is taken:
    real, float64, like the forward interpolator.  A map with no jump
    gets no correction, as in dual_W_f (atan_tan_map() at M = 2N + 1:
    ||D' W_t - I||_2 = 0.12 at N = 33, with no warning).
    """
    _require_tw(spec)
    _require_swf_feasible(spec)
    dfact = build_dual_factorization(warp, spec, b)
    base = saf.build_W_t(warp, spec, b=dfact.b_dual,
                         factorization=dfact.fact_dual)
    rest = _to_time_product(dfact.H.conj().T, dfact.Z @ dfact.H_dual,
                            spec.input_set, spec.input_set)
    entries = base.entries @ (np.eye(spec.N) + rest.real)
    return OperatorMatrix(kind="dual_time", b=dfact.b_dual, spec=spec,
                          entries=entries, correction=dfact)
