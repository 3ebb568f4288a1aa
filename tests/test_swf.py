"""Sampled-warp operators against the quadrature oracle and dense brute force."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pswarp.dense_oracle as dox
import pswarp.domain_indexing as di
import pswarp.warp_map as wm
from pswarp import _nufft
from pswarp import swf_operators as swf


def tw_spec(warp, N, M, b=0.5):
    return di.domain_spec(warp, N, M, L_N=N // 2, L_M=M // 2,
                          mode=di.TIME_WARPING, b=b)


# --------------------------------------------------------------------------
# Dirichlet kernel


SETS = [(9, 4), (9, 2), (8, 3), (19, 9), (33, 16)]


@pytest.mark.parametrize("N,L", SETS)
def test_dirichlet_matches_brute_sum(N, L):
    s = di.make_index_set(N, L)
    rng = np.random.default_rng(N * 10 + L)
    x = np.concatenate([
        rng.uniform(-3, 3, 200),
        np.array([0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1.0 + 1e-13, 2.0 - 1e-13]),
    ])
    brute = np.exp(2j * np.pi * np.outer(x, s.indices)).sum(axis=1)
    got = di.dirichlet_kernel(x, s)
    assert np.max(np.abs(got - brute)) < 1e-11 * N


def test_dirichlet_peak_value():
    s = di.make_index_set(9, 4)
    assert di.dirichlet_kernel(np.array([0.0, 1.0, -2.0]), s) == pytest.approx(9.0)


@given(st.floats(min_value=-4, max_value=4))
@settings(max_examples=60, deadline=None)
def test_dirichlet_periodic(x):
    s = di.make_index_set(8, 3)
    a = di.dirichlet_kernel(np.array([x]), s)
    b = di.dirichlet_kernel(np.array([x + 1.0]), s)
    assert abs(a - b) < 1e-10 * 8


# --------------------------------------------------------------------------
# warped DFT rows


def test_warped_dft_identity_map_is_dft():
    w = wm.identity_map()
    spec = di.domain_spec(w, 9, 19, b=0.5)
    F = swf.warped_dft(w, spec).entries
    tau = np.arange(19) / 19
    ref = np.exp(-2j * np.pi * np.outer(spec.output_set.indices, tau)) / np.sqrt(19)
    assert np.max(np.abs(F - ref)) < 1e-14


def test_warped_dft_zero_row_closed_form():
    w = wm.exponential_map()
    spec = di.domain_spec(w, 5, 9, b=1.0)
    F = swf.warped_dft(w, spec, b=1.0)
    row0 = F.entries[list(spec.output_set.indices).index(0)]
    m = np.arange(9) / 9
    # interior grid points follow the plain closed form; the first point
    # sits on the derivative jump and takes the mean of the one-sided
    # weights (the convention the periodic fold identity requires)
    assert np.allclose(row0[1:], np.log(2.0) * 2.0 ** m[1:] / 3.0, rtol=1e-13)
    assert row0[0] == pytest.approx(np.log(2.0) * (1.0 + 2.0) / 2.0 / 3.0, rel=1e-13)


def test_warped_dft_b0_constant_amplitude():
    w = wm.exponential_map()
    spec = di.domain_spec(w, 9, 19, b=0.0)
    F = swf.warped_dft(w, spec).entries
    assert np.max(np.abs(np.abs(F) - 1.0 / np.sqrt(19))) < 1e-14


# --------------------------------------------------------------------------
# frequency-domain operator


FOLD_CASES = [
    ("exponential", wm.exponential_map(), 9, 19, 0.5),
    ("exponential_b0", wm.exponential_map(), 9, 19, 0.0),
    # knots sit exactly on the M = 20 grid, so the midpoint weight rule is live
    ("pl_on_lattice", wm.piecewise_linear_map([0.0, 0.25, 0.6], [0.0, 0.45, 0.7]),
     10, 20, 0.5),
]


@pytest.mark.parametrize("name,w,N,M,b", FOLD_CASES, ids=[c[0] for c in FOLD_CASES])
def test_swf_freq_equals_band_plus_fold(name, w, N, M, b):
    spec = di.domain_spec(w, N, M, b=b)
    X = swf.swf_freq(w, spec, b=b).entries
    W = dox.matrix(w, spec.output_set.indices, spec.input_set.indices, b)
    A = dox.aliasing_matrix(w, spec, b, k_tail=8)
    assert np.max(np.abs(X - W - A)) < 1e-10


def test_swf_freq_center_symmetry():
    w = wm.exponential_map()
    spec = di.domain_spec(w, 9, 19, b=0.5)
    E = swf.swf_freq(w, spec).entries
    assert np.max(np.abs(E[::-1, ::-1] - np.conj(E))) < 1e-13


def test_swf_freq_identity_map_embedding():
    w = wm.identity_map()
    spec = di.domain_spec(w, 9, 19, b=0.5)
    E = swf.swf_freq(w, spec).entries
    tgt = (spec.output_set.indices[:, None] == spec.input_set.indices[None, :])
    assert np.max(np.abs(E - tgt.astype(float))) < 1e-13


# asymmetric and even index sets, which only frequency-warping mode allows
FW_GEOMETRIES = [(10, 23, 3, 8), (10, 24, 6, 13), (9, 20, 2, 7)]


@pytest.mark.parametrize("N,M,L_N,L_M", FW_GEOMETRIES)
@pytest.mark.parametrize("w", [wm.exponential_map(),
                               wm.piecewise_linear_map([0.0, 0.3, 0.7],
                                                       [0.0, 0.27, 0.66])],
                         ids=["exp", "pwl"])
def test_swf_freq_matches_its_defining_sum(w, N, M, L_N, L_M):
    # (1/M) sum_q (Dw(q/M))^b e^{j2pi(m q/M - n w(q/M))}, entry by entry,
    # with m q/M reduced mod 1 in integers before it meets a float
    spec = di.domain_spec(w, N, M, L_N=L_N, L_M=L_M, b=0.3)
    assert not spec.input_set.symmetric and not spec.output_set.symmetric
    q = np.arange(M)
    wv = w.eval(q / M)
    wt = w.sampled_weight(q / M, 0.3)
    m = spec.output_set.indices[:, None, None]
    n = spec.input_set.indices[None, :, None]
    phase = ((m * q) % M) / M - n * wv
    ref = (wt * np.exp(2j * np.pi * phase)).sum(axis=2) / M
    got = swf.swf_freq(w, spec).entries
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("N,M,L_N,L_M", FW_GEOMETRIES)
def test_dft_pair_is_the_unitary_dft_sandwich(N, M, L_N, L_M):
    rows, cols = di.make_index_set(M, L_M), di.make_index_set(N, L_N)

    def F(s):
        return np.exp(-2j * np.pi * np.outer(s.indices, np.arange(s.N) / s.N)) / np.sqrt(s.N)

    rng = np.random.default_rng(N * M + L_N)
    A = rng.normal(size=(M, N)) + 1j * rng.normal(size=(M, N))
    B = rng.normal(size=(M, N)) + 1j * rng.normal(size=(M, N))
    FM, FN = F(rows), F(cols)
    T = swf._to_time(A, rows, cols)
    assert np.max(np.abs(T - FM.conj().T @ A.conj() @ FN)) < 1e-13 * np.max(np.abs(T))
    Fq = swf._to_freq(B, rows, cols)
    assert np.max(np.abs(Fq - np.conj(FM @ B @ FN.conj().T))) < 1e-13 * np.max(np.abs(Fq))
    assert np.max(np.abs(swf._to_freq(T, rows, cols) - A)) < 1e-13 * np.max(np.abs(A))
    assert np.max(np.abs(swf._to_time(Fq, rows, cols) - B)) < 1e-13 * np.max(np.abs(B))


def test_swf_refuses_infeasible_spec():
    w = wm.exponential_map()
    spec = di.domain_spec(w, 33, 35, b=0.5)
    assert not spec.feasibility.swf_feasible
    with pytest.raises(ValueError, match="infeasible"):
        swf.swf_freq(w, spec)


def test_operators_refuse_another_map():
    # the spec was checked for the identity; the exponential map would
    # need M/N > 2 ln 2 and is refused rather than sampled
    spec = di.domain_spec(wm.identity_map(), 9, 9, mode=di.TIME_WARPING)
    with pytest.raises(ValueError, match="spec's map"):
        swf.swf_freq(wm.exponential_map(), spec)
    with pytest.raises(ValueError, match="spec's map"):
        swf.apply_swf_time_invmap(wm.exponential_map(), spec, np.ones(9))


def test_invmap_refuses_another_inverse():
    w = wm.atan_tan_map(2.0)
    spec = di.domain_spec(w, 33, 67, mode=di.TIME_WARPING)
    x = np.random.default_rng(0).standard_normal(33)
    with pytest.raises(ValueError, match="inverse"):
        swf.apply_swf_time_invmap(w, spec, x, inverse=wm.atan_tan_map(1.5).inverse())
    with pytest.raises(ValueError, match="inverse"):
        swf.swf_time_invmap(w, spec, inverse=wm.atan_tan_map(2.0).inverse())
    own = swf.apply_swf_time_invmap(w, spec, x, inverse=w.inverse())
    assert np.array_equal(own, swf.apply_swf_time_invmap(w, spec, x))


def test_operator_matrix_metadata():
    w = wm.exponential_map()
    spec = di.domain_spec(w, 9, 19, b=0.5)
    op = swf.swf_freq(w, spec, b=0.25)
    assert op.kind == "swf_freq" and op.b == 0.25 and op.shape == (19, 9)


# --------------------------------------------------------------------------
# time-domain interpolators


def test_swf_time_identity_map_is_identity():
    w = wm.identity_map()
    spec = tw_spec(w, 9, 9)
    assert np.max(np.abs(swf.swf_time(w, spec).entries - np.eye(9))) < 1e-14
    assert np.max(np.abs(swf.swf_time_invmap(w, spec).entries - np.eye(9))) < 1e-12


def test_swf_time_is_dft_conjugation_of_swf_freq():
    # the closed Dirichlet form and the unitary-DFT sandwich of the
    # frequency operator are the same matrix, not approximately
    w = wm.exponential_map()
    spec = tw_spec(w, 9, 19)
    M, N = spec.M, spec.N
    FM = np.exp(-2j * np.pi * np.outer(spec.output_set.indices,
                                       np.arange(M) / M)) / np.sqrt(M)
    FN = np.exp(-2j * np.pi * np.outer(spec.input_set.indices,
                                       np.arange(N) / N)) / np.sqrt(N)
    Xf = swf.swf_freq(w, spec).entries
    alt = FM.conj().T @ Xf.conj() @ FN
    got = swf.swf_time(w, spec).entries
    assert np.max(np.abs(got - alt)) < 1e-12


def test_swf_time_deviation_matches_oracle_norm():
    w = wm.exponential_map()
    spec = tw_spec(w, 33, 67)
    Xt = swf.swf_time(w, spec).entries
    dev = np.linalg.norm(Xt.conj().T @ Xt - np.eye(33), 2)
    W = dox.matrix(w, spec.output_set.indices, spec.input_set.indices, 0.5)
    A = dox.aliasing_matrix(w, spec, 0.5)
    ref = W + A
    dev_oracle = np.linalg.norm(ref.conj().T @ ref - np.eye(33), 2)
    assert abs(dev - dev_oracle) < 1e-10


def test_swf_time_requires_tw_mode():
    w = wm.exponential_map()
    spec = di.domain_spec(w, 9, 19, b=0.5)
    with pytest.raises(ValueError, match="time-warping"):
        swf.swf_time(w, spec)
    with pytest.raises(ValueError, match="time-warping"):
        swf.swf_time_invmap(w, spec)


def test_adjoint_inverse_law_smooth_map():
    # smooth map: once the redundancy clears max Dw by ~25% the input band
    # is effectively invariant and the opposite-exponent adjoint inverts
    w = wm.atan_tan_map(1.2)
    spec = tw_spec(w, 65, 99, b=0.3)
    Xb = swf.swf_time(w, spec, b=0.3).entries
    Xc = swf.swf_time(w, spec, b=0.7).entries
    dev = np.linalg.norm(Xc.conj().T @ Xb - np.eye(65), 2)
    assert dev < 1e-8


def test_real_signals_stay_real():
    w = wm.exponential_map()
    spec = tw_spec(w, 33, 67)
    Xt = swf.swf_time(w, spec).entries
    Xh = swf.swf_time_invmap(w, spec).entries
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = rng.uniform(-1, 1, 33)
        assert np.max(np.abs((Xt @ s).imag)) < 1e-12
        assert np.max(np.abs((Xh @ s).imag)) < 1e-12


def test_invmap_transpose_is_comparable_inverse():
    # the inverse-map interpolator's transpose undoes the forward one about
    # as well as the forward operator's own adjoint does
    w = wm.exponential_map()
    spec = tw_spec(w, 33, 67)
    Xt = swf.swf_time(w, spec).entries
    Xh = swf.swf_time_invmap(w, spec).entries
    dev_hat = np.linalg.norm(Xh.T @ Xt - np.eye(33), 2)
    dev_plain = np.linalg.norm(Xt.conj().T @ Xt - np.eye(33), 2)
    assert dev_hat < 3.0 * dev_plain


@pytest.mark.parametrize("b", [0.0, 1.0])
def test_invmap_partner_deviation_finite(b):
    w = wm.exponential_map()
    spec = tw_spec(w, 33, 67, b=b)
    Xt = swf.swf_time(w, spec, b=b).entries
    Xh = swf.swf_time_invmap(w, spec, b=b).entries
    dev = np.linalg.norm(Xh.conj().T @ Xt - np.eye(33), 2)
    assert np.isfinite(dev) and dev < 0.5


# --------------------------------------------------------------------------
# fast appliers vs dense materialization


def test_appliers_match_dense_small():
    w = wm.exponential_map()
    rng = np.random.default_rng(5)
    spec_f = di.domain_spec(w, 9, 19, b=0.5)
    x9 = rng.normal(size=9) + 1j * rng.normal(size=9)
    dense = swf.swf_freq(w, spec_f).entries @ x9
    assert np.max(np.abs(swf.apply_swf_freq(w, spec_f, x9) - dense)) < 1e-12

    spec_t = tw_spec(w, 33, 67)
    x33 = rng.normal(size=33) + 1j * rng.normal(size=33)
    dense_t = swf.swf_time(w, spec_t).entries @ x33
    assert np.max(np.abs(swf.apply_swf_time(w, spec_t, x33) - dense_t)) < 1e-12
    inv = w.inverse()
    dense_h = swf.swf_time_invmap(w, spec_t, inverse=inv).entries @ x33
    got_h = swf.apply_swf_time_invmap(w, spec_t, x33, inverse=inv)
    assert np.max(np.abs(got_h - dense_h)) < 1e-12

    x67 = rng.normal(size=67) + 1j * rng.normal(size=67)
    dense_w = swf.warped_dft(w, spec_t).entries @ x67
    assert np.max(np.abs(swf.apply_warped_dft(w, spec_t, x67) - dense_w)) < 1e-12


def test_appliers_match_dense_large():
    # the M <= 512 accuracy contract for the spreading path
    w = wm.atan_tan_map(1.5)
    spec = tw_spec(w, 255, 511, b=0.5)
    rng = np.random.default_rng(17)
    x = rng.normal(size=255) + 1j * rng.normal(size=255)
    dense = swf.swf_time(w, spec).entries @ x
    got = swf.apply_swf_time(w, spec, x)
    assert np.max(np.abs(got - dense)) < 1e-12 * np.max(np.abs(dense))
    spec_f = di.domain_spec(w, 255, 511, b=0.5)
    dense_f = swf.swf_freq(w, spec_f).entries @ x
    got_f = swf.apply_swf_freq(w, spec_f, x)
    assert np.max(np.abs(got_f - dense_f)) < 1e-12 * np.max(np.abs(dense_f))


@pytest.mark.parametrize("apply,cols", [(swf.apply_warped_dft, "M"), (swf.apply_swf_freq, "N"),
                                        (swf.apply_swf_time, "N"),
                                        (swf.apply_swf_time_invmap, "N")])
@pytest.mark.parametrize("shape", [lambda n: (n - 1,), lambda n: (n + 1,), lambda n: (n, 1)],
                         ids=["short", "long", "2-D"])
def test_appliers_refuse_an_input_of_the_wrong_shape(apply, cols, shape):
    # a length-40 x on N = 33 used to come back as a 67-vector from
    # apply_swf_time: the FFT ran at the input's length
    w = wm.exponential_map()
    spec = tw_spec(w, 33, 67)
    x = np.ones(shape(getattr(spec, cols)))
    with pytest.raises(ValueError, match="shape"):
        apply(w, spec, x)


@pytest.mark.parametrize("w", [wm.exponential_map(),
                               wm.piecewise_linear_map([0.0, 5 / 19, 12 / 19], [0.0, 0.3, 0.7])],
                         ids=["exponential", "knot_on_grid"])
def test_operators_do_not_depend_on_the_order_of_b(w):
    # the spec's samples are shared by every b; forming the operators at
    # b = 0.7 first leaves b = 0.3 bit-for-bit what a fresh spec gives
    spec = tw_spec(w, 9, 19)
    assert spec.samples.hits  # some grid point sits on a slope jump
    for op in (swf.swf_freq, swf.swf_time):
        op(w, spec, b=0.7)
    for op in (swf.swf_freq, swf.swf_time):
        fresh = op(w, tw_spec(w, 9, 19), b=0.3).entries
        assert np.array_equal(op(w, spec, b=0.3).entries, fresh)


def test_appliers_keep_real_input_real():
    w = wm.exponential_map()
    spec = tw_spec(w, 33, 67)
    x = np.random.default_rng(2).uniform(-1, 1, 33)
    assert np.isrealobj(swf.apply_swf_time(w, spec, x))
    assert np.isrealobj(swf.apply_swf_time_invmap(w, spec, x))


# --------------------------------------------------------------------------
# spreading FFT core


@pytest.mark.parametrize("N,L", [(33, 16), (19, 9), (8, 3), (511, 255), (64, 10)])
def test_nufft_eval_and_project_vs_brute(N, L):
    s = di.make_index_set(N, L)
    rng = np.random.default_rng(N + L)
    t = rng.uniform(-2, 2, 300)
    c = rng.normal(size=N) + 1j * rng.normal(size=N)
    brute = np.exp(2j * np.pi * np.outer(t, s.indices)) @ c
    plan = _nufft.spread(t, s)
    got = _nufft.nufft_eval(plan, c)
    assert np.max(np.abs(got - brute)) < 1e-12 * np.max(np.abs(brute))
    v = rng.normal(size=300) + 1j * rng.normal(size=300)
    brute_p = np.exp(-2j * np.pi * np.outer(s.indices, t)) @ v
    got_p = _nufft.nufft_project(plan, v)
    assert np.max(np.abs(got_p - brute_p)) < 1e-12 * np.max(np.abs(brute_p))


def _phase_ld(k, t):
    # e^(2 pi j k t) with k t reduced mod 1 in extended precision
    cyc = (np.asarray(k, dtype=np.longdouble) * np.asarray(t, dtype=np.longdouble)) % 1
    return np.exp(2j * np.pi * cyc.astype(float))


def test_nufft_large_set_offsets_are_exact():
    # at this size a point offset rounded in t units (about 1e-16) is a
    # phase error of 2 pi k 1e-16 at the band edge: both directions then
    # miss the direct sum by 2e-11 to 1e-10.  Negative points used to be
    # reduced mod 1 first, which rounds as well.
    N = 16385
    s = di.make_index_set(N, N // 2)
    ks = np.asarray(s.indices)
    rng = np.random.default_rng(1)
    t = np.sort(rng.uniform(-0.5, 1.0, 2 * N + 1))
    probe_k = np.concatenate([ks[:3], ks[-3:], rng.choice(ks, 4)])
    v = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
    ref = _phase_ld(-probe_k[:, None], t[None, :]) @ v
    got = _nufft.nufft_project(_nufft.spread(t, s), v)[probe_k - ks[0]]
    # measured 5e-14 here, and 3e-14 for evaluation below
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
    probe_t = np.concatenate([t[:3], t[-3:], rng.choice(t, 4)])
    c = rng.normal(size=N) + 1j * rng.normal(size=N)
    ref = _phase_ld(probe_t[:, None], ks[None, :]) @ c
    got = _nufft.nufft_eval(_nufft.spread(probe_t, s), c)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("L", [0, 16385 // 4])
def test_nufft_asymmetric_set_modulation_is_exact(L):
    # a one-sided or skewed set is re-centered by e^(2 pi j k0 t) with k0
    # near N/2; taking its phase from the rounded product k0 t missed the
    # direct sum by 1e-12 to 3e-12 here
    N = 16385
    s = di.make_index_set(N, L)
    ks = np.asarray(s.indices)
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(-0.5, 1.0, 2 * N + 1))
    probe_k = np.concatenate([ks[:3], ks[-3:], rng.choice(ks, 4)])
    v = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
    ref = _phase_ld(-probe_k[:, None], t[None, :]) @ v
    got = _nufft.nufft_project(_nufft.spread(t, s), v)[probe_k - ks[0]]
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))
    probe_t = np.concatenate([t[:3], t[-3:], rng.choice(t, 4)])
    c = rng.normal(size=N) + 1j * rng.normal(size=N)
    ref = _phase_ld(probe_t[:, None], ks[None, :]) @ c
    got = _nufft.nufft_eval(_nufft.spread(probe_t, s), c)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def test_nufft_adjoint_pairing():
    s = di.make_index_set(33, 16)
    rng = np.random.default_rng(23)
    t = rng.uniform(0, 1, 100)
    c = rng.normal(size=33) + 1j * rng.normal(size=33)
    v = rng.normal(size=100) + 1j * rng.normal(size=100)
    plan = _nufft.spread(t, s)
    lhs = np.vdot(v, _nufft.nufft_eval(plan, c))
    rhs = np.vdot(_nufft.nufft_project(plan, v), c)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_nufft_rejects_mismatched_sizes():
    s = di.make_index_set(9, 4)
    plan = _nufft.spread(np.zeros(3), s)
    with pytest.raises(ValueError):
        _nufft.nufft_eval(plan, np.zeros(5))
    with pytest.raises(ValueError):
        _nufft.nufft_project(plan, np.zeros(5))


# --------------------------------------------------------------------------
# spreading plans and the spec's shared arrays


def test_spreading_plans_are_read_only():
    s = di.make_index_set(33, 16)
    plan = _nufft.spread(np.linspace(-0.5, 1.5, 20), s)
    assert np.size(plan) == 20
    _, shifted, _, _, _, window_hat = _nufft._plan(s.N, s.L)
    for a in (shifted, window_hat, plan.bins, plan.window_hat, plan.cells,
              plan.window, plan.phase):
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_spec_shared_arrays_are_read_only():
    # the exponential map's jump at 0 is a grid point: a hit mask to freeze
    w = wm.exponential_map()
    spec = tw_spec(w, 9, 19)
    s = spec.samples
    assert s.hits
    plan = spec.spread(spec.input_set)
    for a in (s.points, s.values, s.slopes, *(hit[0] for hit in s.hits),
              spec.dirichlet, plan.cells, plan.window, plan.phase):
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_appliers_share_the_spec_plan_and_match_a_fresh_spec(monkeypatch):
    calls = []
    window = _nufft._window
    monkeypatch.setattr(_nufft, "_window",
                        lambda *args: calls.append(1) or window(*args))
    w = wm.exponential_map()
    spec = tw_spec(w, 33, 67)
    X = np.random.default_rng(4).standard_normal((33, 4))
    bs = (0.3, 0.45, 0.5, 0.7)
    got = [swf.apply_swf_time(w, spec, X[:, k], b) for k, b in enumerate(bs)]
    assert len(calls) == 1
    for k, b in enumerate(bs):
        assert np.array_equal(got[k], swf.apply_swf_time(w, tw_spec(w, 33, 67), X[:, k], b))
    # the frequency-domain appliers: one plan per (points, set) as well
    w = wm.piecewise_linear_map()
    spec = di.domain_spec(w, 33, 67)
    calls.clear()
    for _ in range(2):
        swf.apply_swf_freq(w, spec, X[:, 0])
        swf.apply_warped_dft(w, spec, np.ones(67))
    assert len(calls) == 2


def test_time_and_frequency_appliers_share_one_plan_of_the_warped_grid(monkeypatch):
    # apply_swf_freq evaluates conj(x) on the plan of w(t_q) that
    # apply_swf_time reads, so a spec plans its input set once for both
    calls = []
    window = _nufft._window
    monkeypatch.setattr(_nufft, "_window",
                        lambda *args: calls.append(1) or window(*args))
    w = wm.exponential_map()
    spec = tw_spec(w, 33, 67)
    rng = np.random.default_rng(8)
    x = rng.normal(size=33) + 1j * rng.normal(size=33)
    got_t = swf.apply_swf_time(w, spec, x)
    got_f = swf.apply_swf_freq(w, spec, x)
    assert len(calls) == 1
    dense_t = swf.swf_time(w, spec).entries @ x
    dense_f = swf.swf_freq(w, spec).entries @ x
    assert np.max(np.abs(got_t - dense_t)) < 1e-12 * np.max(np.abs(dense_t))
    assert np.max(np.abs(got_f - dense_f)) < 1e-12 * np.max(np.abs(dense_f))


def test_dirichlet_kernel_is_real_on_a_symmetric_set():
    x = np.linspace(-1.5, 1.5, 41)
    sym = di.symmetric_index_set(9)
    assert di.dirichlet_kernel(x, sym).dtype == np.float64
    assert di.dirichlet_kernel(x, di.make_index_set(9, 2)).dtype == np.complex128
    # the even balanced set keeps its unmatched -N/2 element
    assert di.dirichlet_kernel(x, di.symmetric_index_set(8)).dtype == np.complex128
