"""Analytic duals: compressed Gram, resummed kernel, exact pairing."""

import functools
import warnings

import numpy as np
import pytest

from pswarp import domain_indexing as di
from pswarp import swf_operators as swf
from pswarp.domain_indexing import TIME_WARPING, domain_spec
from pswarp.dual_operators import (
    DualFactorization,
    build_dual_factorization,
    compute_Z,
    dual_W_f,
    dual_W_t,
    tail_row_gram,
)
from pswarp import _lattice as lat
from pswarp import dual_operators
from pswarp import saf_operators as saf
from pswarp.saf_operators import (
    build_factorization,
    build_W_f,
    build_W_t,
)
from pswarp.warp_map import (
    atan_tan_map,
    cubic_seam_map,
    exponential_map,
    identity_map,
    piecewise_linear_map,
    spline_map,
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
    H = fact.H
    G = tail_row_gram(fact)
    assert np.max(np.abs(G - G.conj().T)) < 1e-10
    # analytic complement sums against brute windows, extrapolated; the
    # sandwich exercises the block stacking too
    levels = []
    for K in (256, 512, 1024, 2048):
        E = fact.tail_rows(K)
        levels.append(E.conj().T @ E)
    ref = _richardson(levels)
    assert np.max(np.abs(H.conj().T @ G @ H - ref)) < 1e-12


def test_gram_multi_singularity_cross_phases():
    # three jumps with fractional offsets populate every off-diagonal block
    w, spec = _pl_freq()
    fact = build_factorization(w, spec, 0.5)
    H = fact.H
    G = tail_row_gram(fact)
    assert np.max(np.abs(G - G.conj().T)) < 1e-10
    levels = []
    for K in (256, 512, 1024, 2048):
        E = fact.tail_rows(K)
        levels.append(E.conj().T @ E)
    ref = _richardson(levels)
    assert np.max(np.abs(H.conj().T @ G @ H - ref)) < 1e-10


def test_gram_exactly_hermitian_with_one_sum_per_phase_difference(monkeypatch):
    # three jumps: one shared phase-0 sum for the diagonal blocks and one
    # per pair above it, the blocks below filled by conjugation
    w, spec = _pl_freq()
    fact = build_factorization(w, spec, 0.5)
    calls = []
    real_sums = lat.band_complement_power_sums

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real_sums(*args, **kwargs)

    monkeypatch.setattr(lat, "band_complement_power_sums", counted)
    G = tail_row_gram(fact)
    assert len(calls) == 4
    assert np.array_equal(G, G.conj().T)
    # against every ordered pair summed on its own
    R, band = fact.rows, spec.output_set.indices
    orders = np.arange(R)
    ref = np.block([[real_sums(2 * R, band, pj.xi - pi.xi, scale=fact.row_radius)[
        orders[:, None] + orders[None, :]] for pj in fact.pieces] for pi in fact.pieces])
    assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))


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
        compute_Z(Hbad, Gbad, Hbad)
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
    assert dual.V is fact.V
    assert [pc.lattice_aligned for pc in dual.pieces] == [True, False, False]
    for pc, pd in zip(fact.pieces, dual.pieces):
        assert pd.U is pc.U
    fresh = build_factorization(w, spec, 0.7, R=fact.rows)
    assert np.array_equal(fresh.band_fold, dual.band_fold)
    assert np.array_equal(fresh.H, dfact.H_dual)


def test_fresh_specs_share_the_aligned_fold_and_a_bit_identical_gram():
    # the aligned fold and the phase-0 Gram sums are built once per
    # geometry; a warm build reads them and changes no bit of G
    w = exponential_map()
    saf._aligned_fold.cache_clear()
    lat._phase0_sums.cache_clear()
    cold = build_dual_factorization(w, domain_spec(w, 33, 67, b=0.5))
    warm = build_dual_factorization(w, domain_spec(w, 33, 67, b=0.5))
    assert warm.fact.pieces[0].U is cold.fact.pieces[0].U
    assert np.array_equal(warm.G, cold.G)


def test_dual_keeps_the_factorization_kernel_tol():
    w, spec = _exp_freq()
    fact = build_factorization(w, spec, kernel_tol=1e-6)
    dfact = build_dual_factorization(w, spec, fact=fact)
    assert dfact.fact_dual.kernel_tol == 1e-6
    assert dfact.fact_dual.rows == fact.rows


def test_stacked_blocks_are_the_pieces_blocks():
    w, spec = _pl_freq()
    fact = build_factorization(w, spec, 0.3)
    H = fact.H
    R = fact.rows
    assert H.shape == (len(fact.pieces) * R, spec.N)
    for i, pc in enumerate(fact.pieces):
        assert np.array_equal(pc.block, pc.S @ fact.V * pc.q)
        assert np.array_equal(H[i * R:(i + 1) * R], pc.block)
        assert np.shares_memory(pc.block, H)


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


def test_dual_radius_from_the_smaller_product(monkeypatch):
    # (H'G) H_dual is N x N and shares the nonzero eigenvalues of the
    # (J R)-square H_dual H'G: the radius comes from the smaller of the two,
    # here N = 33 < J R = 144 and J R = 64 < N = 129
    w = exponential_map()
    cases = [_pl_freq(), (w, domain_spec(w, 129, 259, b=0.5))]
    eigvals = np.linalg.eigvals
    for warp, spec in cases:
        fact = build_factorization(warp, spec, 0.5)
        calls = []
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda C: calls.append(C.shape) or eigvals(C))
        dfact = build_dual_factorization(warp, spec, fact=fact)
        monkeypatch.undo()
        n = min(dfact.H.shape)
        assert calls == [(n, n)]
        full = eigvals(dfact.H_dual @ dfact.H.conj().T @ dfact.G)
        assert dfact.spectral_radius == pytest.approx(np.max(np.abs(full)), rel=1e-12)


def test_resummation_solves_in_the_smaller_space(monkeypatch):
    # Z = G (I - H_dual H'G)^(-1) needs only an N-square solve when the
    # J R rows outnumber the N columns: here 144 x 33 solves 33-square,
    # while the exponential map at N = 129 (64 rows) keeps its 64-square one
    w = exponential_map()
    cases = [(_pl_freq(), 33), ((w, domain_spec(w, 129, 259, b=0.5)), 64)]
    solve = np.linalg.solve
    for (warp, spec), side in cases:
        dfact = build_dual_factorization(warp, spec)
        H, G, H_dual = dfact.H, dfact.G, dfact.H_dual
        calls = []
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: calls.append(a.shape) or solve(a, b))
        Z, _ = compute_Z(H, G, H_dual)
        monkeypatch.undo()
        assert calls == [(side, side)]
        n = H.shape[0]
        direct = G @ np.linalg.inv(np.eye(n) - H_dual @ H.conj().T @ G)
        assert np.max(np.abs(Z - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_diverging_series_is_refused_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape))
    Hbad = np.array([[2.0 + 0.0j]])
    with pytest.raises(ValueError, match="spectral radius"):
        compute_Z(Hbad, np.eye(1, dtype=complex), Hbad)
    assert calls == []


def test_gate_and_solve_read_one_product(monkeypatch):
    # the radius gate and the resummation read the same K, bit for bit:
    # the solve's matrix is I - K of the eigvals call (transposed when
    # K is the J R-square H_dual H'G), on both sides of n = N
    w = exponential_map()
    cases = [_pl_freq(), (w, domain_spec(w, 129, 259, b=0.5))]
    eigvals, solve = np.linalg.eigvals, np.linalg.solve
    for warp, spec in cases:
        fact = build_factorization(warp, spec, 0.5)
        seen, solved = [], []
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda C: seen.append(C.copy()) or eigvals(C))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solved.append(a.copy()) or solve(a, b))
        dfact = build_dual_factorization(warp, spec, fact=fact)
        monkeypatch.undo()
        assert len(seen) == 1 and len(solved) == 1
        (K,), (B,) = seen, solved
        if dfact.H.shape[0] <= spec.N:
            B = B.T
        assert np.array_equal(B, np.eye(K.shape[0]) - K)


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


def test_dual_freq_near_coincident_jumps():
    # knots 1e-6 apart: the cross-phase Gram block sums at a phase
    # difference within 1e-6 of zero
    w = piecewise_linear_map([0.0, 0.3, 0.300001], [0.0, 0.4, 0.4000012])
    spec = domain_spec(w, 33, 67, b=0.5)
    Wf = build_W_f(w, spec)
    D = dual_W_f(w, spec)
    # measured 1.1e-14
    assert Wf.deviation_from_identity(D) <= 1e-12


@pytest.mark.parametrize("delta", [0.0, 2e-12, 5e-12, -5e-12, 1e-10])
def test_dual_freq_knot_just_off_the_sample_lattice(delta):
    # a knot within 1e-12 of the sample 22/67 takes the one-sided mean
    # weight and the untwisted fold; a knot further off takes neither.
    # Deciding the fold by 1e-9 on M xi instead paired to 5e-2 at 2e-12
    w = piecewise_linear_map([0.0, 22 / 67 + delta, 0.7], [0.0, 0.27, 0.66])
    spec = domain_spec(w, 33, 67, b=0.5)
    D = dual_W_f(w, spec)
    fact = D.correction.fact
    assert fact.pieces[1].lattice_aligned == (delta == 0.0)
    Wf = build_W_f(w, spec, factorization=fact)
    # measured 8.3e-15 or less
    assert Wf.deviation_from_identity(D) <= 1e-12


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a smooth map gets no correction: "
                   "atan_tan at M = 2N + 1 pairs to 0.12, unreported")
def test_dual_freq_smooth_map_near_the_redundancy_edge():
    # atan_tan_map() has no jump, so dual_W_f returns W_f itself; max Dw = 2
    # against M / N = 2.03 leaves aliasing that nothing corrects or reports
    w = atan_tan_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    assert w.singularities == []
    assert build_W_f(w, spec).deviation_from_identity(dual_W_f(w, spec)) <= 1e-10


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


def _counting(monkeypatch, owner, name, record):
    original = getattr(owner, name)

    def wrapper(*args):
        record(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)


def test_one_spec_samples_its_map_once(monkeypatch):
    # the dual, the corrected operator, the dense view and five appliers all
    # read the spec's one sampling of the map on the M-point grid
    w = piecewise_linear_map([0.0, 0.3, 0.7], [0.0, 0.27, 0.66])
    spec = domain_spec(w, 33, 67, b=0.5)
    sizes = {"eval": [], "deriv1": []}
    for name, seen in sizes.items():
        _counting(monkeypatch, type(w), name, lambda args, seen=seen: seen.append(np.size(args[1])))
    x = np.random.default_rng(4).standard_normal((67, 4)) + 0j
    dual_W_f(w, spec)
    build_W_f(w, spec)
    swf.swf_freq(w, spec)
    for k in range(4):
        swf.apply_swf_freq(w, spec, x[:33, k])
    swf.apply_warped_dft(w, spec, x[:, 0])
    # the scalar calls are the jump images and slopes of the kernel build
    assert {name: [n for n in seen if n > 1] for name, seen in sizes.items()} == {
        "eval": [67], "deriv1": [67]}


def test_one_time_warping_spec_forms_the_dirichlet_matrix_once(monkeypatch):
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5, mode=TIME_WARPING)
    shapes = []
    _counting(monkeypatch, di, "dirichlet_kernel", lambda args: shapes.append(np.shape(args[0])))
    dual_W_t(w, spec, 0.3)
    build_W_t(w, spec, 0.3)
    swf.swf_time(w, spec, 0.3)
    assert shapes == [(67, 33)]


# ---------------------------------------------------------------------------
# realness as a dtype: the time-warping kinds are float64


REAL_KINDS = {"swf_time", "swf_time_invmap", "saf_time", "dual_time"}


def test_time_kinds_are_float64_and_frequency_kinds_complex():
    w, spec = _exp_time()
    ops = [swf.warped_dft(w, spec), swf.swf_freq(w, spec), swf.swf_time(w, spec),
           swf.swf_time_invmap(w, spec), build_W_f(w, spec), build_W_t(w, spec),
           dual_W_f(w, spec), dual_W_t(w, spec)]
    assert {op.kind for op in ops} == REAL_KINDS | {"warped_dft", "swf_freq",
                                                   "saf_freq", "dual_freq"}
    for op in ops:
        assert op.entries.dtype == (np.float64 if op.kind in REAL_KINDS
                                    else np.complex128), op.kind


# the built-in maps with jumps; at these (map, N) the dual series diverges
# at M = 2N + 1, so only the forward kinds are compared there
JUMP_MAPS = {"exponential": exponential_map, "piecewise_linear": piecewise_linear_map,
             "spline": spline_map, "cubic_seam": cubic_seam_map}
NO_DUAL = {("spline", 9), ("cubic_seam", 9), ("cubic_seam", 33)}


def _assert_within_ulps(got, ref, ulps):
    assert got.dtype == np.float64
    assert np.max(np.abs(got - ref)) <= ulps * np.spacing(np.max(np.abs(ref)))


@pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("N", [9, 33, 129])
@pytest.mark.parametrize("name", sorted(JUMP_MAPS))
def test_real_kinds_are_the_real_part_of_their_complex_evaluation(name, N, b):
    w = JUMP_MAPS[name]()
    M = 2 * N + 1
    spec = domain_spec(w, N, M, b=b, mode=TIME_WARPING)
    scale = np.sqrt(M * N)

    def interpolator(b):
        # (Dw(t_q))^b D(w(t_q) - p/N) / sqrt(MN) with a complex D
        return spec.samples.weight(b)[:, None] * spec.dirichlet.astype(complex) / scale

    def corrected(b, fact):
        # the fold crossed as its two factors, the product left complex
        fold = swf._to_time_product(fact.row_factor(), fact.H, spec.output_set, spec.input_set)
        return interpolator(b) - fold

    _assert_within_ulps(swf.swf_time(w, spec).entries, interpolator(b).real, 2)
    v = w.inverse().sample(np.arange(N) / N)
    args = v.values[None, :] - (np.arange(M) / M)[:, None]
    ref = v.weight(b)[None, :] * di.dirichlet_kernel(args, spec.output_set).astype(complex)
    _assert_within_ulps(swf.swf_time_invmap(w, spec).entries, (ref / scale).real, 2)
    with warnings.catch_warnings():
        # the truncation warning speaks to the correction's accuracy, not its dtype
        warnings.filterwarnings("ignore", "aliasing correction truncated", RuntimeWarning)
        Wt = build_W_t(w, spec)
        _assert_within_ulps(Wt.entries, corrected(b, Wt.correction).real, 2)
        if (name, N) in NO_DUAL:
            return
        D = dual_W_t(w, spec)
    dfact = D.correction
    factor = np.eye(N) + swf._to_time_product(dfact.H.conj().T, dfact.Z @ dfact.H_dual,
                                              spec.input_set, spec.input_set)
    base = corrected(dfact.b_dual, dfact.fact_dual)
    ref = (base @ factor).real
    # a real and a complex matrix product sum in different orders: the two
    # agree to the rounding bound of an N-term dot product, not to 2 ulp
    assert D.entries.dtype == np.float64
    bound = N * np.finfo(float).eps * (np.abs(base.real) @ np.abs(factor.real))
    assert np.all(np.abs(D.entries - ref) <= bound)


# ---------------------------------------------------------------------------
# the corrections cross domains as thin factors


def _assert_crossing_matches_dense(L, R, rows, cols):
    # the two crossings round differently; n is the length of the FFTs
    # down L's columns: M for the band fold, N for the dual factor
    n = rows.N
    got = swf._to_time_product(L, R, rows, cols)
    ref = swf._to_time(L @ R, rows, cols)
    eps = np.finfo(float).eps
    assert np.max(np.abs(got - ref)) <= 2 * eps * np.log2(n) * np.max(np.abs(ref))


def _assert_factors_cross_like_the_dense_products(dfact):
    fact, spec = dfact.fact, dfact.fact.spec
    _assert_crossing_matches_dense(fact.row_factor(), fact.H, spec.output_set, spec.input_set)
    _assert_crossing_matches_dense(dfact.H.conj().T, dfact.Z @ dfact.H_dual,
                                   spec.input_set, spec.input_set)


@pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("N", [9, 33, 129, 513])
@pytest.mark.parametrize("name", sorted(JUMP_MAPS))
def test_factored_crossing_matches_the_dense_crossing(name, N, b):
    # the band fold (n = M) and the dual factor's rank-J R part (n = N)
    w = JUMP_MAPS[name]()
    spec = domain_spec(w, N, 2 * N + 1, b=b, mode=TIME_WARPING)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "aliasing correction truncated", RuntimeWarning)
        fact = build_factorization(w, spec, b)
        if (name, N) in NO_DUAL:
            _assert_crossing_matches_dense(fact.row_factor(), fact.H,
                                           spec.output_set, spec.input_set)
            return
        dfact = build_dual_factorization(w, spec, fact=fact)
    _assert_factors_cross_like_the_dense_products(dfact)


def test_factored_crossing_matches_the_dense_crossing_on_skewed_sets():
    # neither set centred, three jumps of which two fold twisted
    w = piecewise_linear_map([0.0, 0.3, 0.7], [0.0, 0.27, 0.66])
    spec = domain_spec(w, 33, 89, L_N=10, L_M=40, b=0.5)
    _assert_factors_cross_like_the_dense_products(build_dual_factorization(w, spec))


@pytest.mark.parametrize("name", ["exponential", "piecewise_linear"])
def test_time_builds_form_no_dense_crossing(monkeypatch, name):
    w = JUMP_MAPS[name]()
    spec = domain_spec(w, 33, 67, b=0.5, mode=TIME_WARPING)

    def refuse(*args):
        raise AssertionError("a time-domain build formed a dense M x N correction")

    # wherever the dense crossing is reachable from, including a name import
    for module in (swf, saf, dual_operators):
        if hasattr(module, "_to_time"):
            monkeypatch.setattr(module, "_to_time", refuse)
    monkeypatch.setattr(saf.TailFactorization, "band_fold", property(refuse))
    D = dual_W_t(w, spec)
    Wt = build_W_t(w, spec, factorization=D.correction.fact)
    assert Wt.deviation_from_identity(D) < 1e-9
