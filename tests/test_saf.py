"""Aliasing-corrected operators: bases, factored fold, W_f and W_t."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pswarp import dense_oracle as dox
from pswarp import swf_operators as swf
from pswarp._lattice import lattice_tail_values
from pswarp.domain_indexing import TIME_WARPING, domain_spec
from pswarp.saf_operators import (
    TailFactorization,
    build_bases,
    build_factorization,
    build_W_f,
    build_W_t,
    _aligned_fold,
    _row_fold,
)
from pswarp.warp_map import (
    cubic_seam_map,
    exponential_map,
    identity_map,
    piecewise_linear_map,
    spline_map,
)


# ---------------------------------------------------------------------------
# periodized pole remainder and its derivatives: the twist-0 lattice fold


def pole_remainder(i, z):
    """i-th derivative of pi cot(pi z) - 1/z, read off T_{i+1}(z, 1)."""
    return (-1.0) ** i * math.factorial(i) * lattice_tail_values(z, i + 1, 0.0)[..., i].real


def test_pole_remainder_pinned_values():
    assert pole_remainder(0, 0.0) == 0.0
    assert pole_remainder(0, 0.5) == pytest.approx(-2.0, abs=1e-14)
    assert pole_remainder(0, 0.25) == pytest.approx(math.pi - 4.0, rel=1e-14)
    assert pole_remainder(1, 0.0) == pytest.approx(-math.pi**2 / 3.0, rel=1e-14)
    # odd in z, so even-order derivatives flip sign and odd-order ones keep it
    assert pole_remainder(0, -0.25) == pytest.approx(4.0 - math.pi, rel=1e-14)
    assert pole_remainder(1, -0.3) == pytest.approx(pole_remainder(1, 0.3), rel=1e-14)


def test_pole_remainder_branches_overlap():
    # one jet path on both sides of |z| = 1/2: the origin series at the
    # row below it, and above it the row moved one lattice step into the
    # disc with its pole jets added back; against mpmath derivatives of
    # the definition
    mp.mp.dps = 40

    def remainder(z):
        return mp.pi * mp.cot(mp.pi * z) - 1 / z

    for z in (0.15, 0.3, 0.45, 0.499, 0.5, 0.501, 0.6, 0.9, -0.35, -0.7):
        for i in range(11):
            ref = float(mp.diff(remainder, mp.mpf(z), i))
            assert abs(pole_remainder(i, z) - ref) <= 1e-13 * abs(ref), (i, z)


def test_pole_remainder_matches_lattice_fold():
    # the band rows are folded in one call; each row must come out as if
    # it had been folded alone, for twist 0 and a twisted lattice alike.
    # Every row, shifted one lattice step into |z| <= 1/2 or not, sums the
    # same series terms in the same order, and the pole jets that undo a
    # shift are formed row by row.
    z = np.array([0.05, 0.2, 0.45, 0.49, -0.05, -0.2, -0.45, -0.49,
                  0.0, 0.5, -0.5, 0.7, -0.93, 0.999, -0.9999])
    for twist in (0.0, 0.31):
        together = lattice_tail_values(z, 64, twist)
        for r, zr in enumerate(z):
            alone = lattice_tail_values(zr, 64, twist)
            assert np.array_equal(together[r], alone), (twist, zr)
    # a scalar keeps the one-row shape
    assert lattice_tail_values(0.2, 5, 0.0).shape == (5,)
    assert lattice_tail_values(z.reshape(15, 1), 5, 0.0).shape == (15, 1, 5)


@given(st.integers(min_value=0, max_value=40),
       st.floats(min_value=0.02, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_pole_remainder_parity(i, z):
    assert pole_remainder(i, -z) == pytest.approx(
        (-1.0) ** (i + 1) * pole_remainder(i, z), rel=1e-10)


def test_pole_remainder_domain_errors():
    for bad in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError, match="z"):
            pole_remainder(0, bad)
    with pytest.raises(ValueError, match="z"):
        lattice_tail_values(np.array([0.2, 1.0]), 3, 0.0)
    with pytest.raises(ValueError):
        lattice_tail_values(0.5, 0, 0.0)


# ---------------------------------------------------------------------------
# bases


def test_basis_rows_and_normalization():
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    V = build_bases(spec, 12)
    U = _row_fold(spec, 12, 0.0).real
    assert isinstance(V, np.ndarray)
    assert V.shape == (12, 33) and U.shape == (67, 12)
    # zeroth column moment is flat
    assert np.all(V[0] == 1.0)
    # row fold, order 0: half the periodized pole remainder at m/M
    m = 5
    r = list(spec.output_set.indices).index(m)
    want = 0.5 * (math.pi / math.tan(math.pi * m / 67) - 67 / m)
    assert U[r, 0] == pytest.approx(want, rel=1e-13)
    # columns alternate parity in m; even orders vanish at m = 0
    rev = U[::-1]
    for i in range(12):
        np.testing.assert_allclose(rev[:, i], (-1.0) ** (i + 1) * U[:, i],
                                   rtol=1e-12, atol=1e-300)
    z = list(spec.output_set.indices).index(0)
    assert np.all(U[z, 0::2] == 0.0)


def test_aligned_fold_is_shared_by_every_spec_of_the_output_set():
    w = exponential_map()
    first = build_factorization(w, domain_spec(w, 33, 67, b=0.4), 0.4)
    again = build_factorization(w, domain_spec(w, 33, 67, b=0.6), 0.6, R=first.rows)
    U = first.pieces[0].U
    assert first.pieces[0].lattice_aligned and U.dtype == np.float64
    assert again.pieces[0].U is U
    with pytest.raises(ValueError):
        U[0, 0] = 0.0


def test_column_moments_are_shared_by_every_spec_of_the_input_set():
    w = exponential_map()
    first = build_factorization(w, domain_spec(w, 33, 67, b=0.4), 0.4)
    again = build_factorization(w, domain_spec(w, 33, 67, b=0.6), 0.6, R=first.rows)
    V, spec = first.V, first.spec
    assert again.V is V
    ns = spec.input_set.indices
    assert np.array_equal(V, (ns[None, :] / spec.col_radius) ** np.arange(first.rows)[:, None])
    with pytest.raises(ValueError):
        V[0, 0] = 0.0


def test_twisted_folds_are_not_kept():
    # equal end slopes: no jump at 0, both knots off the sample lattice
    w = piecewise_linear_map([0.0, 0.3, 0.7], [0.0, 0.2, 0.8])
    size = _aligned_fold.cache_info().currsize
    first = build_factorization(w, domain_spec(w, 33, 67, b=0.5), 0.5)
    again = build_factorization(w, domain_spec(w, 33, 67, b=0.5), 0.5)
    assert not any(pc.lattice_aligned for pc in first.pieces)
    assert _aligned_fold.cache_info().currsize == size
    for pc, pd in zip(first.pieces, again.pieces):
        assert pd.U is not pc.U and np.array_equal(pd.U, pc.U)


def test_basis_peaks_at_input_edge():
    # an even balanced input set carries the unmatched -N/2 element right
    # on the scaling edge, so every moment row attains magnitude 1 there
    w = exponential_map()
    spec = domain_spec(w, 16, 67, b=0.5)
    V = build_bases(spec, 9)
    assert np.all(np.abs(V).max(axis=1) == 1.0)


def test_basis_refusals():
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    with pytest.raises(ValueError, match="capped"):
        build_bases(spec, 65)
    with pytest.raises(ValueError, match="at least one"):
        build_bases(spec, 0)
    onesided = domain_spec(w, 33, 66, L_M=0, b=0.5)
    assert onesided.output_set.mu == 1.0
    with pytest.raises(ValueError, match="one-sided"):
        build_bases(onesided, 8)


# ---------------------------------------------------------------------------
# factored tail rows and their fold onto the band


def test_factored_tail_rows_match_quadrature():
    cases = [
        ("exponential", exponential_map(), 67, 1e-10),
        ("piecewise_linear", piecewise_linear_map([0.0, 0.3, 0.7], [0.0, 0.45, 0.8]), 67, 1e-10),
        ("cubic_seam", cubic_seam_map(), 121, 1e-12),
    ]
    for name, w, M, tol in cases:
        spec = domain_spec(w, 33, M, b=0.5)
        fact = build_factorization(w, spec, 0.5)
        ref = dox.tail_rows(w, spec, 0.5, k_tail=2)
        assert np.max(np.abs(fact.tail_rows(2) - ref)) < tol, name


def test_factored_tail_rows_far_from_band():
    # spot rows several folds out still follow the inverse-power basis
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    fact = build_factorization(w, spec, 0.5)
    ns = np.asarray(spec.input_set.indices, dtype=float)
    far = [338, -332, 200, -202]
    orders = np.arange(fact.rows)
    ref = dox.matrix(w, far, spec.input_set.indices, 0.5)
    for r, m in enumerate(far):
        y = (m / fact.row_radius) ** -(orders + 1.0)
        row = np.zeros(ns.size, dtype=complex)
        for pc in fact.pieces:
            row += (np.exp(2j * np.pi * m * pc.xi)
                    * (y @ pc.S @ fact.V)
                    * np.exp(-2j * np.pi * ns * pc.image))
        assert np.max(np.abs(row - ref[r])) < 1e-10, m


@pytest.mark.parametrize("wname,w,M,tol", [
    ("exp", exponential_map(), 67, 1e-10),
    ("pl_twisted", piecewise_linear_map([0.0, 0.3, 0.7], [0.0, 0.45, 0.8]), 67, 1e-10),
    ("cubic_seam", cubic_seam_map(), 121, 1e-12),
    ("spline", spline_map(), 91, 1e-9),
])
def test_band_fold_matches_oracle(wname, w, M, tol):
    # closed-form lattice fold of the factored tail against the oracle's
    # independent route (direct shells plus analytic completion)
    spec = domain_spec(w, 33, M, b=0.5)
    fact = build_factorization(w, spec, 0.5)
    ref = dox.aliasing_matrix(w, spec, 0.5)
    assert np.max(np.abs(fact.band_fold - ref)) < tol


def _explicit_band_folds(fact, Ks):
    """Truncated shell sums of the factored tail rows, one matrix per K."""
    spec = fact.spec
    M = spec.M
    ms = np.asarray(spec.output_set.indices, dtype=float)
    rr = fact.row_radius
    ks = np.arange(1, max(Ks) + 1)
    outs = {K: np.zeros((ms.size, fact.V.shape[1]), dtype=complex)
            for K in Ks}
    for pc in fact.pieces:
        shell = np.exp(-2j * np.pi * M * pc.xi) ** ks
        inv_m = rr / (ms[:, None] - ks[None, :] * M)
        inv_p = rr / (ms[:, None] + ks[None, :] * M)
        partial = {K: np.empty((ms.size, fact.rows), dtype=complex) for K in Ks}
        cur_m = np.ones_like(inv_m)
        cur_p = np.ones_like(inv_p)
        for i in range(fact.rows):
            cur_m = cur_m * inv_m
            cur_p = cur_p * inv_p
            run = np.cumsum(shell[None, :] * cur_m
                            + np.conj(shell)[None, :] * cur_p, axis=1)
            for K in Ks:
                partial[K][:, i] = run[:, K - 1]
        for K in Ks:
            outs[K] += (pc.p_band[:, None]
                        * (partial[K] @ pc.S @ fact.V)
                        * pc.q[None, :])
    return [outs[K] for K in Ks]


def _richardson(levels):
    # shells truncate with an error expansion in integer powers of 1/K;
    # K doubles between entries, so each pass cancels one more power
    out = list(levels)
    p = 1
    while len(out) > 1:
        f = 2.0 ** p
        out = [(f * out[j + 1] - out[j]) / (f - 1.0) for j in range(len(out) - 1)]
        p += 1
    return out[0]


@pytest.mark.parametrize("case", ["exp_fw", "pl_lattice_tw"])
def test_band_fold_matches_explicit_periodization(case):
    # the lattice-sum closed form against brute shell summation; raw
    # truncation only decays like 1/K, Richardson recovers the limit
    if case == "exp_fw":
        w = exponential_map()
        spec = domain_spec(w, 33, 67, b=0.5)
    else:
        w = piecewise_linear_map([0.0, 0.2, 0.6], [0.0, 4.0 / 15.0, 10.0 / 15.0])
        spec = domain_spec(w, 15, 45, mode=TIME_WARPING)
    fact = build_factorization(w, spec, 0.5)
    folds = _explicit_band_folds(fact, (512, 1024, 2048, 4096))
    extrapolated = _richardson(folds)
    assert np.max(np.abs(extrapolated - fact.band_fold)) < 1e-9


# ---------------------------------------------------------------------------
# corrected frequency-domain operator


def test_corrected_freq_on_identity_map():
    w = identity_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    Wf = build_W_f(w, spec)
    Xf = swf.swf_freq(w, spec)
    assert Wf.kind == "saf_freq"
    assert isinstance(Wf.correction, TailFactorization)
    assert Wf.correction.pieces == ()
    assert np.array_equal(Wf.entries, Xf.entries)


def test_corrected_freq_matches_quadrature_band():
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    Wf = build_W_f(w, spec)
    ref = dox.matrix(w, spec.output_set.indices, spec.input_set.indices, 0.5)
    assert np.max(np.abs(Wf.entries - ref)) < 1e-10


def test_corrected_freq_low_order_floor():
    # at R = 24 the slow side of the seam still decays only like
    # 1.4645^-24 ~ 1e-4, so the truncated correction floors near 1e-6;
    # measured 6.1e-7 on this geometry
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    fact = build_factorization(w, spec, R=24, kernel_tol=1e-10)
    Wf = build_W_f(w, spec, factorization=fact)
    ref = dox.matrix(w, spec.output_set.indices, spec.input_set.indices, 0.5)
    err = np.max(np.abs(Wf.entries - ref))
    assert err < 3e-6


def test_corrected_freq_tightens_unitarity():
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    xf_dev = swf.swf_freq(w, spec).deviation_from_identity()
    wf_dev = build_W_f(w, spec).deviation_from_identity()
    assert wf_dev == pytest.approx(8.7693e-3, rel=1e-3)
    assert wf_dev < 0.5 * xf_dev


def test_unitarity_defect_decreases_with_redundancy():
    w = exponential_map()
    devs = []
    with warnings.catch_warnings():
        # the tightest geometry sits near the reliability threshold
        warnings.simplefilter("ignore", RuntimeWarning)
        for M in (60, 92, 183, 366):
            spec = domain_spec(w, 33, M, b=0.5)
            devs.append(build_W_f(w, spec).deviation_from_identity())
    assert devs[0] == pytest.approx(1.1401e-2, rel=1e-2)
    assert devs[-1] == pytest.approx(1.0972e-3, rel=1e-2)
    for a, b in zip(devs, devs[1:]):
        assert b < 1.05 * a
    assert devs[-1] < devs[0]


def test_adjoint_pairs_across_exponents():
    # the b and 1-b operators are adjoint partners; their cross Gramian
    # sits as close to the identity as the self-adjoint b = 1/2 case
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    base = build_W_f(w, spec, b=0.5).deviation_from_identity()
    for b, want in ((0.3, 7.7894e-3), (0.0, 3.0360e-3)):
        left = build_W_f(w, spec, b=b)
        right = build_W_f(w, spec, b=1.0 - b)
        cross = left.deviation_from_identity(partner=right)
        assert cross == pytest.approx(want, rel=1e-2)
        assert base / 5.0 <= cross <= 3.0 * base


# ---------------------------------------------------------------------------
# corrected time-domain operator


def test_corrected_time_real_and_tightens():
    w = exponential_map()
    spec = domain_spec(w, 33, 67, mode=TIME_WARPING)
    Wt = build_W_t(w, spec)
    Xt = swf.swf_time(w, spec)
    assert Wt.kind == "saf_time"
    assert np.all(Wt.entries.imag == 0.0)
    assert Wt.deviation_from_identity() == pytest.approx(8.7693e-3, rel=1e-3)
    assert Wt.deviation_from_identity() < Xt.deviation_from_identity()
    x = np.random.default_rng(7).normal(size=33)
    y = Wt.apply(x)
    assert np.all(y.imag == 0.0)


def test_corrected_time_matches_transformed_fold():
    # independent route: conjugate the oracle's aliasing matrix into
    # sample coordinates with plain dense transforms
    w = exponential_map()
    spec = domain_spec(w, 33, 67, mode=TIME_WARPING)
    Wt = build_W_t(w, spec)
    A = dox.aliasing_matrix(w, spec, 0.5)
    out_ks = np.asarray(spec.output_set.indices)
    in_ks = np.asarray(spec.input_set.indices)
    synth = np.exp(2j * np.pi * np.outer(np.arange(67) / 67.0, out_ks)) / np.sqrt(67.0)
    analysis = np.exp(-2j * np.pi * np.outer(in_ks, np.arange(33) / 33.0)) / np.sqrt(33.0)
    ref = swf.swf_time(w, spec).entries - synth @ np.conj(A) @ analysis
    assert np.max(np.abs(Wt.entries - ref)) < 1e-11


@pytest.mark.parametrize("values,flags", [
    # jump positions 45*xi = (0, 9, 27) on the sample lattice; images on
    # the input lattice too, so both phases reduce to circular shifts
    ([0.0, 4.0 / 15.0, 10.0 / 15.0], [True, True, True]),
    # same images but knots (0, 0.3, 0.7): left phases go fractional
    (None, [True, False, False]),
    # fully fractional on both sides
    ([0.0, 0.27, 0.66], [True, False, False]),
])
def test_time_correction_shift_paths(values, flags):
    if values is None:
        w = piecewise_linear_map([0.0, 0.3, 0.7], [0.0, 4.0 / 15.0, 10.0 / 15.0])
    elif values[1] == 0.27:
        w = piecewise_linear_map([0.0, 0.3, 0.7], values)
    else:
        w = piecewise_linear_map([0.0, 0.2, 0.6], values)
    spec = domain_spec(w, 15, 45, mode=TIME_WARPING)
    Wt = build_W_t(w, spec)
    assert [pc.lattice_aligned for pc in Wt.correction.pieces] == flags
    A = dox.aliasing_matrix(w, spec, 0.5)
    out_ks = np.asarray(spec.output_set.indices)
    in_ks = np.asarray(spec.input_set.indices)
    synth = np.exp(2j * np.pi * np.outer(np.arange(45) / 45.0, out_ks)) / np.sqrt(45.0)
    analysis = np.exp(-2j * np.pi * np.outer(in_ks, np.arange(15) / 15.0)) / np.sqrt(15.0)
    ref = swf.swf_time(w, spec).entries - synth @ np.conj(A) @ analysis
    assert np.max(np.abs(Wt.entries - ref)) < 1e-11


# ---------------------------------------------------------------------------
# reliability and refusals


@pytest.mark.parametrize("w", [cubic_seam_map(), spline_map()],
                         ids=["cubic_seam", "spline"])
def test_growth_truncation_warns(w):
    # at this redundancy the per-order contributions are still growing
    # when the order cap hits; the subtraction cannot be trusted
    spec = domain_spec(w, 33, 67, b=0.5)
    with pytest.warns(RuntimeWarning, match="truncated"):
        build_factorization(w, spec, 0.5)


def test_no_warning_when_orders_converge():
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_factorization(w, spec, 0.5)


def test_refusals():
    w = exponential_map()
    short = domain_spec(w, 33, 35, b=0.5)
    with pytest.raises(ValueError, match="infeasible"):
        build_W_f(w, short)
    # skewed index sets pass the sampling gate but sink a decay ratio
    skewed = domain_spec(w, 33, 67, L_N=4, L_M=10, b=0.5)
    assert skewed.feasibility.swf_feasible
    with pytest.raises(ValueError, match="diverges"):
        build_W_f(w, skewed)
    fw = domain_spec(w, 33, 67, b=0.5)
    with pytest.raises(ValueError, match="time-warping"):
        build_W_t(w, fw)
