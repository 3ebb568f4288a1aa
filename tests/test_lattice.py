"""Closed-form lattice sums against arbitrary-precision references."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pswarp._lattice import (
    _inverse_h_series,
    _power_sums,
    band_complement_power_sums,
    lattice_tail_values,
    unit_lattice_jets,
)
from pswarp.dense_oracle import _combined_power_tails
from pswarp.symbolic_kernel import ROW_CAP

mp.mp.dps = 40


def mp_two_sided(z, t, s):
    q = mp.e ** (2j * mp.pi * t)
    plus = (-1) ** s * q * mp.lerchphi(q, s, 1 - z)
    minus = (1 / q) * mp.lerchphi(1 / q, s, 1 + z)
    return complex(plus + minus)


def test_pinned_untwisted_values():
    # pi cot(pi/2) - 2 and the curvature of the lattice sum at the origin
    c = unit_lattice_jets(0.5, 1, 0.0)
    assert c[0].real == pytest.approx(-2.0, abs=1e-14)
    assert abs(c[0].imag) < 1e-14
    c0 = unit_lattice_jets(0.0, 2, 0.0)
    assert abs(c0[0]) < 1e-15
    assert c0[1].real == pytest.approx(-math.pi**2 / 3, rel=1e-14)


def test_origin_series_matches_bernoulli_polynomials():
    # Taylor coefficient d of the twisted sum is (j2pi)^(d+1) B_{d+1}(t)/(d+1)!
    for t in (0.123, 0.55, 0.5):
        c = unit_lattice_jets(0.0, 10, t)
        for d in range(11):
            ref = complex((2j * mp.pi) ** (d + 1) * mp.bernpoly(d + 1, mp.mpf(t))
                          / mp.factorial(d + 1))
            assert abs(c[d] - ref) <= 1e-13 * max(abs(ref), 1.0), (t, d)


@pytest.mark.parametrize("z", [0.0, 0.07, -0.3, 0.49, 0.5, 0.51, 0.894, -0.62])
@pytest.mark.parametrize("t", [0.0, 0.5, 0.123, 0.55])
def test_tail_values_match_oracle_low_order(z, t):
    T = lattice_tail_values(z, 8, t)
    q = cmath.exp(2j * math.pi * t)
    orc = _combined_power_tails(8, np.array([z]), 0, q)
    ref = (-1.0) ** np.arange(1, 9) * orc[:, 0]
    assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("z", [0.07, 0.3, 0.49, 0.51, 0.894])
@pytest.mark.parametrize("t", [0.123, 0.55, 0.5])
def test_tail_values_high_order(z, t):
    # rows inside |z| = 1/2 and rows moved one lattice step into it both
    # hold to near machine precision at order 64
    T = lattice_tail_values(z, 64, t)
    for s in (16, 33, 64):
        ref = mp_two_sided(mp.mpf(z), mp.mpf(t), s)
        assert abs(T[s - 1] - ref) <= 5e-13 * abs(ref), (z, t, s)


@pytest.mark.parametrize("z", [0.07, 0.49, 0.51, 0.894, 0.999, -0.9999])
def test_tail_values_high_order_untwisted(z):
    T = lattice_tail_values(z, 64, 0.0)
    for s in (2, 16, 33, 64):
        ref = complex((-1) ** s * mp.zeta(s, 1 - z) + mp.zeta(s, 1 + z))
        assert abs(T[s - 1] - ref) <= 5e-13 * abs(ref), (z, s)


def mp_lattice_sum(z, t, s):
    """sum_{k != 0} e^(j2pi k t) (z - k)^(-s), the symmetric sum at t = 0."""
    z = mp.mpf(z)
    if t != 0.0:
        with mp.workdps(20):
            return mp_two_sided(z, mp.mpf(t), s)
    # odd sums vanish at z = 0 by symmetry; keep digits through the cancellation
    extra = 0 if z == 0 else max(0, int(-mp.log10(abs(z))))
    with mp.workdps(30 + extra):
        if s == 1:
            return complex(mp.digamma(1 - z) - mp.digamma(1 + z))
        return complex((-1) ** s * mp.zeta(s, 1 - z) + mp.zeta(s, 1 + z))


@given(st.lists(st.floats(min_value=-0.999, max_value=0.999), min_size=1, max_size=2),
       st.sampled_from([0.0, 1.0 - 1e-9])
       | st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       st.integers(min_value=1, max_value=64),
       st.data())
@settings(max_examples=10, deadline=None)
def test_array_fold_matches_lattice_sums(zs, t, depth, data):
    # rows on both sides of |z| = 1/2 go through one call; each row against
    # an arbitrary-precision lattice sum at the top order and a drawn one
    T = lattice_tail_values(np.array(zs), depth, t)
    assert T.shape == (len(zs), depth)
    s_low = data.draw(st.integers(min_value=1, max_value=depth))
    for r, z in enumerate(zs):
        for s in ({s_low, depth} if r == 0 else {depth}):
            ref = mp_lattice_sum(z, t, s)
            assert abs(T[r, s - 1] - ref) <= 5e-13 * max(abs(ref), 1.0), (z, t, s)


def test_jets_reject_out_of_range():
    with pytest.raises(ValueError):
        unit_lattice_jets(1.0, 4, 0.3)


@given(st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=30, deadline=None)
def test_tail_symmetries(z, t):
    # conjugating the twist conjugates the sum; flipping z flips parity
    T = lattice_tail_values(z, 6, t)
    Tc = lattice_tail_values(z, 6, -t)
    assert np.allclose(Tc, np.conj(T), rtol=1e-10, atol=1e-12)
    Tf = lattice_tail_values(-z, 6, -t)
    signs = (-1.0) ** np.arange(1, 7)
    assert np.allclose(Tf, signs * T, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("M", [67, 259])
@pytest.mark.parametrize("t", [0.0, 0.123, 0.5, 1.0 - 1e-9])
def test_band_rows_mirror_bit_for_bit(M, t):
    # T_s(-z, q) = (-1)^s conj(T_s(z, q)) for real z; the engine evaluates
    # each |z| once, so the band rows at -z are exact mirrors of those at z
    z = np.arange(1, M // 2 + 1) / M
    pos = lattice_tail_values(z, ROW_CAP, t)
    neg = lattice_tail_values(-z, ROW_CAP, t)
    assert np.array_equal(neg, (-1.0) ** np.arange(1, ROW_CAP + 1) * np.conj(pos))


@pytest.mark.parametrize("s_max", [1, 2, 16, 21, 64, ROW_CAP + 1])
@pytest.mark.parametrize("t", [0.0, 0.31, 0.5])
def test_tail_values_do_not_depend_on_the_batch(s_max, t):
    # every row sums the same series terms in the same order, so a row in
    # a batch of any size, rows past |z| = 1/2 among them, is bit for bit
    # the row computed alone
    z = np.random.default_rng(0).uniform(-0.999, 0.999, 130)
    z[:2] = 0.8, -0.3
    alone = [lattice_tail_values(zr, s_max, t) for zr in z]
    for size in (1, 2, 3, 34, 130):
        together = lattice_tail_values(z[:size], s_max, t)
        for r in range(size):
            assert np.array_equal(together[r], alone[r]), (size, z[r])


@pytest.mark.parametrize("t", [0.0, 0.123, 0.5, 1.0 - 1e-9])
def test_row_cap_depth_at_the_disc_edge(t):
    # |z| = 1/2 needs the most Horner terms and the top order has the
    # heaviest tail: the term count set by depth alone holds there.
    # Measured 2e-15; the bound needs the 1/h series rounded once per
    # coefficient, as one from a float division recurrence misses by 1e-13
    zs = np.array([0.5, 0.4999, -0.5, -0.4999])
    T = lattice_tail_values(zs, ROW_CAP + 1, t)
    for r, z in enumerate(zs):
        for s in (1, 2, 17, ROW_CAP // 2 + 1, ROW_CAP, ROW_CAP + 1):
            ref = mp_lattice_sum(z, t, s)
            assert abs(T[r, s - 1] - ref) <= 2e-14 * max(abs(ref), 1.0), (z, t, s)


def test_inverse_h_series_is_euler():
    # 1/h(z) = j2pi z/(exp(j2pi z) - 1) = sum_d B_d (j2pi)^d/d! z^d, each
    # coefficient rounded once, odd ones past d = 1 exactly zero
    c = _inverse_h_series(300)
    for d in range(300):
        ref = complex(mp.bernoulli(d) * (2j * mp.pi) ** d / mp.factorial(d))
        assert abs(c[d] - ref) <= 2.3e-16 * abs(ref), d
    assert not c.flags.writeable


@pytest.mark.parametrize("s", [2, 3, 5, 7])
@pytest.mark.parametrize("a", [5, 11, 34])
@pytest.mark.parametrize("d", [0.3, 0.77, 0.123, 0.5, 0.011])
def test_one_sided_tail_vs_lerch(s, a, d):
    # the complement of the one-sided band {0..a-1} is the one-sided tail
    # sum_{m >= a} q^m m^-s plus the negative integers
    got = band_complement_power_sums(7, np.arange(a), d)[s - 2]
    q = mp.e ** (2j * mp.pi * mp.mpf(d))
    ref = complex(q**a * mp.lerchphi(q, s, a) + (-1) ** s / q * mp.lerchphi(1 / q, s, 1))
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_symmetric_tails_scaled():
    scale, K = 16.5, 22
    got = band_complement_power_sums(128, np.arange(-K, K + 1), 0.35, scale=scale)
    q = mp.e ** (2j * mp.pi * mp.mpf(0.35))
    for s in (2, 5, 7):
        ref = complex((q ** (K + 1) * mp.lerchphi(q, s, K + 1)
                       + (-1) ** s * (1 / q) ** (K + 1) * mp.lerchphi(1 / q, s, K + 1))
                      * mp.mpf(scale) ** s)
        assert abs(got[s - 2] - ref) <= 1e-11 * abs(ref), s
    # large s, where brute force converges quickly: s = 8 from the
    # residue-class fold, s = 30 and 128 from the direct sums
    for s in (8, 30, 128):
        ref = mp.mpc(0)
        for m in range(K + 1, K + 1 + 1200):
            ph = mp.e ** (2j * mp.pi * m * mp.mpf(0.35))
            term = (mp.mpf(m) / scale) ** (-s)
            ref += ph * term + mp.conj(ph) * (-1) ** s * term
        assert abs(got[s - 2] - complex(ref)) <= 1e-11 * abs(complex(ref)), s


def test_symmetric_tails_untwisted_and_alternating():
    got = band_complement_power_sums(12, np.arange(-9, 10), 0.0)
    for s in (2, 5, 8):
        ref = complex((1 + (-1) ** s) * mp.zeta(s, 10))
        assert abs(got[s - 2] - ref) <= 1e-12 * max(abs(ref), 1e-16), s
    # alternating phase, odd order: exact zero by symmetry
    alt = band_complement_power_sums(6, np.arange(-9, 10), 0.5)
    assert alt[3] == 0


@pytest.mark.parametrize("band,short_side", [
    (np.arange(-10, 57), "left"),
    (np.arange(-56, 11), "right"),
])
def test_band_complement_asymmetric(band, short_side):
    scale = 28.5
    lo, hi = int(band.min()), int(band.max())
    for d in (0.35, 0.123):
        got = band_complement_power_sums(6, band, d, scale=scale)
        q = mp.e ** (2j * mp.pi * mp.mpf(d))
        for s in (2, 4, 6):
            plus = q ** (hi + 1) * mp.lerchphi(q, s, hi + 1)
            minus = (-1) ** s * (1 / q) ** (-lo + 1) * mp.lerchphi(1 / q, s, -lo + 1)
            ref = complex((plus + minus) * mp.mpf(scale) ** s)
            assert abs(got[s - 2] - ref) <= 1e-11 * abs(ref), (short_side, s)


@pytest.mark.parametrize("d", [1e-7, 0.123, 0.5, 1.0 - 1e-9])
def test_band_complement_skewed_vs_brute_force(d):
    # residue-class fold (s <= 16) and direct sums (s > 16) on both sides of
    # the switch, down to phases within 1e-9 of an integer; mpmath's Lerch
    # transcendent is the reference at s = 2 only, as it drifts at high s
    band, scale = np.arange(-10, 57), 28.5
    lo, hi = int(band.min()), int(band.max())
    got = band_complement_power_sums(128, band, d, scale=scale)
    q = mp.e ** (2j * mp.pi * mp.mpf(d))
    plus = q ** (hi + 1) * mp.lerchphi(q, 2, hi + 1)
    minus = (1 / q) ** (-lo + 1) * mp.lerchphi(1 / q, 2, -lo + 1)
    ref = complex((plus + minus) * mp.mpf(scale) ** 2)
    assert abs(got[0] - ref) <= 1e-13 * abs(ref)
    # terms past 2000 band indices are below 1e-30 of the sum at s >= 16
    ms = [m for m in range(-2000, 2000) if not lo <= m <= hi]
    phases = [q ** m for m in ms]
    for s in (16, 17, 64, 128):
        ref = complex(mp.fsum(p * (mp.mpf(m) / scale) ** -s for p, m in zip(phases, ms)))
        assert abs(got[s - 2] - ref) <= 1e-13 * abs(ref), (d, s)


def test_band_complement_rejects_gaps():
    with pytest.raises(ValueError):
        band_complement_power_sums(4, np.array([-2, 0, 1, 2]), 0.3)
    with pytest.raises(ValueError):
        band_complement_power_sums(4, np.array([1, 2, 3]), 0.3)


def test_band_complement_phase0_sums_are_kept_read_only():
    # the diagonal of every tail Gram: one vector per (s_max, band, scale),
    # byte for byte the uncached sums, shared and read-only
    band, scale = np.arange(-33, 34), 33.5
    got = band_complement_power_sums(40, band, 0.0, scale=scale)
    assert got.tobytes() == _power_sums(40, -33, 33, np.zeros(1), scale)[0].tobytes()
    assert band_complement_power_sums(40, band, 2.0, scale=scale) is got
    with pytest.raises(ValueError):
        got[0] = 0.0
    # any other phase is a new array on each call
    twisted = band_complement_power_sums(40, band, 0.25, scale=scale)
    assert twisted.flags.writeable
    assert band_complement_power_sums(40, band, 0.25, scale=scale) is not twisted


@pytest.mark.parametrize("band,scale", [(np.arange(-33, 34), 33.5), (np.arange(-10, 57), 28.5)])
def test_band_complement_phase_array_matches_the_scalar_calls(band, scale):
    # one batched call against one call per phase, on both sides of the
    # fold/direct switch; the repeated phase is summed once
    phases = np.array([0.0, 0.5, 1e-7, 0.123, 0.35, 1.0 - 1e-9, 0.123])
    got = band_complement_power_sums(128, band, phases, scale=scale)
    assert got.shape == (phases.size, 127)
    ref = np.stack([band_complement_power_sums(128, band, d, scale=scale) for d in phases])
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.array_equal(got[3], got[6])
    assert np.array_equal(got[0], band_complement_power_sums(128, band, 0.0, scale=scale))
    # exactly real at phase 0 and 1/2, odd powers exactly 0 on a symmetric band
    assert np.all(got[:2].imag == 0.0)
    symmetric = band[0] == -band[-1]
    assert np.all(got[:2, 1::2] == 0.0) == symmetric


def test_band_complement_phase_array_shapes():
    band = np.arange(-9, 10)
    assert band_complement_power_sums(8, band, np.array([])).shape == (0, 7)
    got = band_complement_power_sums(8, band, np.array([0.0, 2.0]))
    assert got.flags.writeable
    assert np.array_equal(got[0], got[1])
    with pytest.raises(ValueError):
        band_complement_power_sums(8, band, np.zeros((2, 2)))
