"""Analytic duals: compressed Gram, resummed kernel, exact pairing."""

import functools
import warnings

import numpy as np
import pytest

from pswarp import swf_operators as swf
from pswarp.domain_indexing import TIME_WARPING, domain_spec
from pswarp.dual_operators import (
    DualFactorization,
    build_dual_factorization,
    compute_Z,
    dual_W_f,
    dual_W_t,
    stacked_blocks,
    tail_row_gram,
)
from pswarp.saf_operators import (
    build_bases,
    build_factorization,
    build_W_f,
    build_W_t,
)
from pswarp.warp_map import (
    cubic_seam_map,
    exponential_map,
    identity_map,
    piecewise_linear_map,
)


@functools.cache
def _exp_freq():
    w = exponential_map()
    return w, domain_spec(w, 33, 67, b=0.5)


@functools.cache
def _exp_time():
    w = exponential_map()
    return w, domain_spec(w, 33, 67, b=0.5, mode=TIME_WARPING)


@functools.cache
def _pl_freq():
    w = piecewise_linear_map([0.0, 0.3, 0.7], [0.0, 0.27, 0.66])
    return w, domain_spec(w, 33, 67, b=0.5)


def _windowed_tails(fact, k_tail):
    """Factored out-of-band rows over a finite window of shells."""
    basis = build_bases(fact.spec, fact.rows, k_tail=k_tail)
    rows = np.zeros((basis.tail_indices.size, fact.spec.N), dtype=complex)
    for pc in fact.pieces:
        phase = np.exp(2j * np.pi * basis.tail_indices * pc.xi)
        rows += phase[:, None] * (basis.Y @ pc.S @ basis.V) * pc.q[None, :]
    return rows


def _richardson(levels):
    # window truncation has an error expansion in integer powers of 1/K
    out = list(levels)
    p = 1
    while len(out) > 1:
        f = 2.0 ** p
        out = [(f * out[j + 1] - out[j]) / (f - 1.0) for j in range(len(out) - 1)]
        p += 1
    return out[0]


def _neumann_sandwich(dfact, terms):
    """I + sum_{k=1}^{terms} of the compressed tail-product powers."""
    T = dfact.H.conj().T @ dfact.G @ dfact.H_dual
    N = T.shape[0]
    out = np.eye(N, dtype=complex)
    P = np.eye(N, dtype=complex)
    for _ in range(terms):
        P = P @ T
        out += P
    return out


# ---------------------------------------------------------------------------
# compressed Gram of the out-of-band rows


def test_gram_hermitian_and_matches_windowed_sums():
    w, spec = _exp_freq()
    fact = build_factorization(w, spec, 0.5)
    H = stacked_blocks(fact)
    G = tail_row_gram(fact)
    assert np.max(np.abs(G - G.conj().T)) < 1e-10
    # analytic complement sums against brute windows, extrapolated; the
    # sandwich exercises the block stacking too
    levels = []
    for K in (256, 512, 1024, 2048):
        E = _windowed_tails(fact, K)
        levels.append(E.conj().T @ E)
    ref = _richardson(levels)
    assert np.max(np.abs(H.conj().T @ G @ H - ref)) < 1e-12


def test_gram_multi_singularity_cross_phases():
    # three jumps with fractional offsets populate every off-diagonal block
    w, spec = _pl_freq()
    fact = build_factorization(w, spec, 0.5)
    H = stacked_blocks(fact)
    G = tail_row_gram(fact)
    assert np.max(np.abs(G - G.conj().T)) < 1e-10
    levels = []
    for K in (256, 512, 1024, 2048):
        E = _windowed_tails(fact, K)
        levels.append(E.conj().T @ E)
    ref = _richardson(levels)
    assert np.max(np.abs(H.conj().T @ G @ H - ref)) < 1e-10


def test_identity_map_has_empty_compression():
    w = identity_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    dfact = build_dual_factorization(w, spec)
    assert dfact.H.shape == (0, 33)
    assert dfact.G.shape == (0, 0)
    assert dfact.Z.shape == (0, 0)
    assert dfact.spectral_radius == 0.0
    assert np.array_equal(dfact.correction_factor(), np.eye(33))


# ---------------------------------------------------------------------------
# resummed correction kernel


def test_resummed_kernel_matches_truncated_series():
    # closed-form solve against forty explicit powers of the compressed
    # product; the radius is ~9e-3 here so forty terms are fully converged
    w, spec = _exp_freq()
    dfact = build_dual_factorization(w, spec)
    sandwich = dfact.H.conj().T @ dfact.Z @ dfact.H_dual
    ref = _neumann_sandwich(dfact, 40) - np.eye(33)
    assert np.max(np.abs(sandwich - ref)) < 1e-9


def test_mixed_kernel_resummation():
    # unweighted paired with fully weighted: two distinct jump kernels
    # share one Gram, and the series still collapses to the solve
    w, spec = _exp_freq()
    dfact = build_dual_factorization(w, spec, b=0.0)
    assert dfact.b_dual == 1.0
    sandwich = dfact.H.conj().T @ dfact.Z @ dfact.H_dual
    ref = _neumann_sandwich(dfact, 40) - np.eye(33)
    assert np.max(np.abs(sandwich - ref)) < 1e-9


def test_compressed_radius_equals_pairing_defect():
    # the compressed product is similar to E'E, whose norm is exactly the
    # self-pairing defect of the corrected operator at the half weight
    w, spec = _exp_freq()
    dfact = build_dual_factorization(w, spec)
    Wf = build_W_f(w, spec, factorization=dfact.fact)
    defect = Wf.deviation_from_identity()
    assert dfact.spectral_radius == pytest.approx(defect, rel=1e-6)


def test_diverging_series_is_refused():
    Hbad = np.array([[2.0 + 0.0j]])
    Gbad = np.array([[1.0 + 0.0j]])
    with pytest.raises(ValueError, match="spectral radius"):
        compute_Z(Hbad, Gbad)
    # a real geometry that overwhelms the expansion: decay ratio 1.16
    w = cubic_seam_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    with pytest.warns(RuntimeWarning, match="truncated"):
        with pytest.raises(ValueError, match="feasibility"):
            dual_W_f(w, spec)


def test_conjugate_factorization_reuses_the_folds():
    # bases and row folds depend on (spec, R, xi) only, so the conjugate
    # weight shares them; the result is the same as building it afresh
    w, spec = _pl_freq()
    dfact = build_dual_factorization(w, spec, b=0.3)
    fact, dual = dfact.fact, dfact.fact_dual
    assert dual.basis is fact.basis
    assert [pc.lattice_aligned for pc in dual.pieces] == [True, False, False]
    for pc, pd in zip(fact.pieces, dual.pieces):
        assert pd.U is pc.U
    fresh = build_factorization(w, spec, 0.7, R=fact.rows)
    assert np.array_equal(fresh.band_fold, dual.band_fold)
    assert np.array_equal(stacked_blocks(fresh), dfact.H_dual)


def test_dual_build_computes_the_radius_once(monkeypatch):
    w, spec = _pl_freq()
    fact = build_factorization(w, spec, 0.5)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda C: calls.append(C.shape) or eigvals(C))
    dfact = build_dual_factorization(w, spec, fact=fact)
    assert len(calls) == 1
    assert 0.0 < dfact.spectral_radius < 1.0
    # a radius handed to compute_Z is still checked
    with pytest.raises(ValueError, match="spectral radius"):
        compute_Z(dfact.H, dfact.G, dfact.H_dual, radius=1.0)


# ---------------------------------------------------------------------------
# frequency-domain dual


def test_dual_freq_exact_pairing():
    w, spec = _exp_freq()
    Wf = build_W_f(w, spec)
    D = dual_W_f(w, spec)
    assert D.kind == "dual_freq"
    assert isinstance(D.correction, DualFactorization)
    # measured 2.4e-13 at this redundancy (~1.46 over the fast side)
    assert Wf.deviation_from_identity(D) < 1e-10
    rel = (np.linalg.norm(D.entries - Wf.entries)
           / np.linalg.norm(Wf.entries))
    # the dual differs from the forward operator, but only by the small
    # resummed correction; reported, magnitude not pinned
    print(f"dual vs forward relative difference: {rel:.3e}")
    assert 1e-6 < rel < 0.1


def test_dual_freq_is_range_projector():
    w, spec = _exp_freq()
    Wf = build_W_f(w, spec)
    D = dual_W_f(w, spec)
    P = Wf.entries @ D.entries.conj().T
    assert np.linalg.norm(P @ P - P, 2) < 1e-8


def test_dual_freq_multi_singularity():
    w, spec = _pl_freq()
    Wf = build_W_f(w, spec)
    D = dual_W_f(w, spec)
    # measured 1.3e-14; generous headroom for BLAS variation
    assert Wf.deviation_from_identity(D) < 1e-12


def test_dual_freq_neumann_operator_consistency():
    # applying the truncated series as an operator correction converges
    # to the closed-form dual; at forty terms they are indistinguishable
    w, spec = _exp_freq()
    D = dual_W_f(w, spec)
    dfact = D.correction
    base = build_W_f(w, spec, b=dfact.b_dual, factorization=dfact.fact_dual)
    D40 = base.entries @ _neumann_sandwich(dfact, 40)
    assert np.linalg.norm(D.entries - D40, 2) < 1e-8


def test_mixed_exponent_symmetry():
    # swapping which exponent is inverted transposes the roles; the
    # pairing quality must be the same up to a factor of two
    w, spec = _exp_freq()
    W0 = build_W_f(w, spec, b=0.0)
    W1 = build_W_f(w, spec, b=1.0)
    D0 = dual_W_f(w, spec, b=0.0)
    D1 = dual_W_f(w, spec, b=1.0)
    assert D0.b == 1.0 and D1.b == 0.0
    dev0 = W0.deviation_from_identity(D0)
    dev1 = W1.deviation_from_identity(D1)
    assert dev0 < 1e-10 and dev1 < 1e-10
    assert dev0 < 2.0 * dev1 and dev1 < 2.0 * dev0


def test_dual_freq_identity_map_is_forward_operator():
    w = identity_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    Wf = build_W_f(w, spec)
    D = dual_W_f(w, spec)
    assert np.array_equal(D.entries, Wf.entries)


# ---------------------------------------------------------------------------
# time-domain dual


def test_dual_time_exact_pairing():
    w, spec = _exp_time()
    Wt = build_W_t(w, spec)
    D = dual_W_t(w, spec)
    assert D.kind == "dual_time"
    assert np.all(D.entries.imag == 0.0)
    assert Wt.deviation_from_identity(D) < 1e-10


def test_dual_time_interpolation_pair():
    # the plain interpolator (no weight) is inverted by the fully
    # weighted dual; this is the analytically invertible sampling pair
    w, spec = _exp_time()
    Wt0 = build_W_t(w, spec, b=0.0)
    D = dual_W_t(w, spec, b=0.0)
    assert D.b == 1.0
    assert D.correction.b == 0.0 and D.correction.b_dual == 1.0
    assert Wt0.deviation_from_identity(D) < 1e-10
    # round trip on a concrete signal
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, 33)
    y = Wt0.apply(x)
    back = D.entries.conj().T @ y
    assert np.max(np.abs(back - x)) < 1e-10


def test_dual_time_identity_map_is_forward_operator():
    w = identity_map()
    spec = domain_spec(w, 33, 67, b=0.5, mode=TIME_WARPING)
    Wt = build_W_t(w, spec)
    D = dual_W_t(w, spec)
    assert np.array_equal(D.entries, Wt.entries)


def test_dual_time_needs_time_warping_spec():
    w, spec = _exp_freq()
    with pytest.raises(ValueError, match="time-warping"):
        dual_W_t(w, spec)


def test_dual_refuses_infeasible_spec():
    w = exponential_map()
    spec = domain_spec(w, 33, 35, b=0.5)
    with pytest.raises(ValueError, match="infeasible"):
        dual_W_f(w, spec)
