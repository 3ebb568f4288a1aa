"""Taylor-coefficient (jet) arithmetic used by the maps and the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pswarp import _jets as J


def x_jet(t0, order):
    c = np.zeros(order + 1)
    c[0] = t0
    if order >= 1:
        c[1] = 1.0
    return c


def mp_taylor(f, t0, order):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    return np.array([float(c) for c in mp.taylor(f, mp.mpf(t0), order)])


@pytest.mark.parametrize("t0", [0.3, 1.7, -0.4])
def test_exp_against_mpmath(t0):
    mp = pytest.importorskip("mpmath")
    got = J.jet_exp(x_jet(t0, 8))
    np.testing.assert_allclose(got, mp_taylor(mp.exp, t0, 8), rtol=1e-13)


def shifted(jet, c):
    out = np.array(jet, dtype=float)
    out[0] += c  # add a constant to the function, not to every coefficient
    return out


def log_jet(a):
    """Jet of log(f): log f(x0) plus the integral of the jet of f'/f."""
    a = np.asarray(a)
    q = J.jet_div(J.jet_derivative(a), a[:-1])
    i = np.arange(1, a.shape[0]).reshape((-1,) + (1,) * (a.ndim - 1))
    return np.concatenate([np.log(a[:1]), q / i])


def test_log_pow_div_composition():
    mp = pytest.importorskip("mpmath")
    t0, order = 0.7, 9
    x = x_jet(t0, order)
    # f = log(1 + x^2) / (2 + x)
    num = log_jet(shifted(J.jet_mul(x, x), 1.0))
    got = J.jet_div(num, shifted(x, 2.0))
    ref = mp_taylor(lambda t: mp.log(1 + t**2) / (2 + t), t0, order)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)


def test_pow_fractional():
    mp = pytest.importorskip("mpmath")
    t0, order, p = 0.42, 8, 0.5
    got = J.jet_pow(shifted(x_jet(t0, order), 1.0), p)
    ref = mp_taylor(lambda t: mp.sqrt(1 + t), t0, order)
    np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_tan_atan_inverse_pair():
    mp = pytest.importorskip("mpmath")
    t0, order = 0.2, 10
    back = J.jet_atan(mp_taylor(mp.tan, t0, order))
    np.testing.assert_allclose(back, x_jet(t0, order), atol=1e-12)


def test_atan_complex_argument():
    # atan jet must accept complex coefficient streams
    order = 7
    x = x_jet(0.3, order).astype(complex)
    x[0] += 0.1j
    got = J.jet_atan(x)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    ref = mp.taylor(mp.atan, mp.mpc(0.3, 0.1), order)
    np.testing.assert_allclose(got, np.array([complex(c) for c in ref]), rtol=1e-12)


def test_exp_log_round_trip_broadcast():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(7, 5))
    a[0] = np.abs(a[0]) + 0.5  # log needs positive constant term
    np.testing.assert_allclose(J.jet_exp(log_jet(a)), a, atol=1e-12)
    assert J.jet_exp(a).shape == (7, 5)


def test_reciprocal_times_self_is_one():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    a[0] += 3.0  # keep away from zero
    prod = J.jet_mul(a, J.jet_reciprocal(a))
    expect = np.zeros_like(prod)
    expect[0] = 1.0
    np.testing.assert_allclose(prod, expect, atol=1e-13)


def test_derivative_and_round_trips():
    c = np.array([2.0, 3.0, 4.0, 5.0])
    np.testing.assert_allclose(J.jet_derivative(c), [3.0, 8.0, 15.0])
    d = np.array([1.0, -2.0, 0.5, 7.0])
    np.testing.assert_allclose(J.jet_to_derivatives(J.jet_from_derivatives(d)), d)


@given(
    c0=st.floats(0.5, 3.0),
    c1=st.floats(-2.0, 2.0),
    c2=st.floats(-2.0, 2.0),
    p=st.floats(-1.5, 2.5),
)
@settings(max_examples=60, deadline=None)
def test_pow_matches_exp_log(c0, c1, c2, p):
    a = np.array([c0, c1, c2, 0.1])
    via_pow = J.jet_pow(a, p)
    via_exp = J.jet_exp(p * log_jet(a))
    np.testing.assert_allclose(via_pow, via_exp, rtol=1e-10, atol=1e-12)


def test_mul_is_cauchy_product():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    np.testing.assert_allclose(J.jet_mul(a, b), [4.0, 13.0, 28.0])
