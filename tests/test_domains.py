"""Index sets, domain descriptors, and the feasibility calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pswarp import domain_indexing as di
from pswarp import warp_map as wm

LN2 = math.log(2.0)


def test_index_set_odd_symmetric():
    s = di.make_index_set(9, 9 // 2)
    np.testing.assert_array_equal(s.indices, np.arange(-4, 5))
    assert s.z_left == 4.5 and s.z_right == 4.5
    assert s.mu == 0.0
    assert s.symmetric


def test_index_set_even():
    s = di.make_index_set(8, 4)
    np.testing.assert_array_equal(s.indices, np.arange(-4, 4))
    assert s.z_left == 4.0 and s.z_right == 4.0
    assert s.mu == 0.0
    assert not s.symmetric  # -4 is in the set, +4 is not


def test_index_set_asymmetric_mu():
    s = di.make_index_set(32, 4)
    assert s.z_left == 4.0
    assert s.z_right == 28.0
    assert s.mu == pytest.approx(0.75)


def test_index_set_rejects_bad_L():
    with pytest.raises(ValueError):
        di.make_index_set(8, 8)
    with pytest.raises(ValueError):
        di.make_index_set(8, -1)


@given(N=st.integers(1, 200), L=st.integers(0, 199))
@settings(max_examples=80, deadline=None)
def test_index_set_invariants(N, L):
    if L > N - 1:
        L = L % N
    s = di.make_index_set(N, L)
    assert s.indices.size == N
    assert s.z_left + s.z_right == N
    assert s.mu >= 0.0
    assert s.indices[0] == -L and s.indices[-1] == N - L - 1


def test_domain_spec_defaults_symmetric():
    w = wm.exponential_map()
    sp = di.domain_spec(w, 33, 67)
    assert sp.N == 33 and sp.M == 67
    assert sp.input_set.symmetric and sp.output_set.symmetric
    assert sp.mode == di.FREQUENCY_WARPING
    assert sp.b == 0.5


def test_feasibility_exponential_33_67():
    w = wm.exponential_map()
    rep = di.check_feasibility(di.domain_spec(w, 33, 67))
    assert rep.redundancy_ok
    assert rep.swf_feasible and rep.saf_feasible
    # decay ratio at the seam, frozen from the closed form
    assert rep.J_min == pytest.approx(1.4645540566600084, abs=1e-12)
    assert rep.failures == []


def test_feasibility_refuses_low_redundancy():
    w = wm.exponential_map()
    rep = di.check_feasibility(di.domain_spec(w, 33, 35))
    # M/N = 1.06 < max Dw = 2 ln 2
    assert not rep.redundancy_ok
    assert not rep.swf_feasible and not rep.saf_feasible
    assert any("redundancy" in f or "coverage" in f for f in rep.failures)


def test_feasibility_swf_ok_saf_refused():
    # both sets skewed the same way: signed coverage holds, J fails
    w = wm.exponential_map()
    sp = di.domain_spec(w, 33, 67, L_N=4, L_M=10)
    rep = sp.feasibility
    assert rep.redundancy_ok
    assert rep.swf_feasible
    assert not rep.saf_feasible
    assert rep.J_min == pytest.approx(0.2657596127953354, abs=1e-12)
    assert any("J <= 1" in f and "x=0" in f for f in rep.failures)


def test_exact_band_edge_coverage_is_sampling_feasible():
    # identity at M = N covers the band exactly: the report accepts what
    # the sampled operators accept, and lists no failure
    rep = di.domain_spec(wm.identity_map(), 9, 9).feasibility
    assert rep.redundancy_ok and rep.signed_ok
    assert rep.swf_feasible and rep.saf_feasible
    assert rep.failures == []


def test_radii_on_the_spec():
    sp = di.domain_spec(wm.exponential_map(), 32, 67, L_N=10, L_M=40)
    assert sp.row_radius == 0.5 * 67 * (1.0 - sp.output_set.mu)
    assert sp.col_radius == 0.5 * 32 * (1.0 + sp.input_set.mu)
    # the narrow output side and the wide input side, up to rounding
    assert sp.row_radius == pytest.approx(min(sp.output_set.z_left, sp.output_set.z_right))
    assert sp.col_radius == pytest.approx(max(sp.input_set.z_left, sp.input_set.z_right))


def test_decay_ratio_uses_worse_side():
    w = wm.exponential_map()
    sp = di.domain_spec(w, 33, 67)
    both = di.singularity_decay_ratio(w, sp, 0.0)
    left = di.singularity_decay_ratio(w, sp, 0.0, side="left")
    right = di.singularity_decay_ratio(w, sp, 0.0, side="right")
    # Dw(0-) = 2 ln 2 is the larger slope, so the left ratio is the binding one
    assert both == pytest.approx(left, rel=1e-14)
    assert right == pytest.approx(2.0 * left, rel=1e-12)


def test_decay_ratio_reads_the_stored_slopes():
    # the stored one-sided slopes are the side_jets values, so the ratio is
    # the side_jets formula bit for bit; a point off the singularities and
    # an unknown side are refused
    w = wm.piecewise_linear_map()
    sp = di.domain_spec(w, 33, 67)
    for xi in w.singularities:
        for side in ("left", "right"):
            want = sp.row_radius / (sp.col_radius * w.side_jets(xi, 1, side)[1])
            assert di.singularity_decay_ratio(w, sp, xi, side) == want
    with pytest.raises(ValueError, match="not a singularity"):
        di.singularity_decay_ratio(w, sp, 0.123)
    with pytest.raises(ValueError, match="side"):
        di.singularity_decay_ratio(w, sp, w.singularities[0], "up")


def test_summary_mentions_singularity():
    w = wm.exponential_map()
    rep = di.check_feasibility(di.domain_spec(w, 33, 67, L_N=4, L_M=10))
    text = rep.summary()
    assert "x=0" in text
    assert "FAIL" in text


def test_tw_mode_requires_odd_symmetric():
    w = wm.exponential_map()
    with pytest.raises(ValueError):
        di.domain_spec(w, 32, 67, mode=di.TIME_WARPING)
    with pytest.raises(ValueError):
        di.domain_spec(w, 33, 67, L_N=4, mode=di.TIME_WARPING)
    sp = di.domain_spec(w, 33, 67, mode=di.TIME_WARPING)
    assert sp.input_set.symmetric and sp.output_set.symmetric


def test_resample_even_to_odd_trig_interpolation():
    # band-limited signal: resampling must equal the trig polynomial on the new grid
    rng = np.random.default_rng(7)
    N = 32
    coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
    ks = np.arange(-5, 6)
    coeffs[5] = coeffs[5].real  # k=0 real
    coeffs = coeffs + 0j
    # make the signal real: c_{-k} = conj(c_k)
    full = {int(k): (coeffs[i] if k >= 0 else np.conj(coeffs[10 - i])) for i, k in enumerate(ks)}

    def signal(t):
        return sum(full[int(k)] * np.exp(2j * np.pi * k * t) for k in ks).real

    s = signal(np.arange(N) / N)
    r = di.resample_even_to_odd(s)
    assert r.shape == (N + 1,)
    assert np.isrealobj(r) or np.abs(r.imag).max() < 1e-12
    np.testing.assert_allclose(np.real(r), signal(np.arange(N + 1) / (N + 1)), atol=1e-12)


def test_resample_nyquist_split():
    N = 8
    n = np.arange(N)
    s = np.cos(np.pi * n)  # pure Nyquist cosine, c_{4} = 1 split as half/half
    r = di.resample_even_to_odd(s)
    t = np.arange(N + 1) / (N + 1)
    np.testing.assert_allclose(r, np.cos(2 * np.pi * 4 * t), atol=1e-12)


def test_describe_round_trips_key_fields():
    w = wm.exponential_map()
    sp = di.domain_spec(w, 33, 67, b=0.25)
    d = sp.describe()
    assert d["N"] == 33 and d["M"] == 67
    assert d["b"] == 0.25
    assert d["mode"] == di.FREQUENCY_WARPING
    assert d["feasible_swf"] is True


def test_feasibility_is_not_an_argument():
    w = wm.exponential_map()
    good = di.domain_spec(w, 33, 67).feasibility
    s = di.make_index_set(33, 16)
    with pytest.raises(TypeError):
        di.DomainSpec(w, s, di.make_index_set(35, 17), feasibility=good)


@pytest.mark.parametrize("name", sorted(wm.BUILTIN_MAPS))
@pytest.mark.parametrize("N,M,L_N,L_M", [(9, 19, 4, 9), (33, 67, 16, 33), (33, 35, 16, 17),
                                         (32, 67, 10, 40), (33, 67, 4, 10)])
def test_every_spec_carries_its_own_feasibility(name, N, M, L_N, L_M):
    w = wm.builtin_map(name)
    sp = di.domain_spec(w, N, M, L_N=L_N, L_M=L_M)
    assert sp.feasibility == di.check_feasibility(sp)
