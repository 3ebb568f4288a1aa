"""Warp map construction, classification, and evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pswarp import warp_map as wm

LN2 = math.log(2.0)


def builtin_instances():
    return {
        "identity": wm.identity_map(),
        "exponential": wm.exponential_map(),
        "atan_tan": wm.atan_tan_map(2.0),
        "cubic_seam": wm.cubic_seam_map(),
        "piecewise_linear": wm.piecewise_linear_map([0.0, 0.35, 0.6], [0.0, 0.55, 0.75]),
        "pl_smoothed": wm.piecewise_linear_map(
            [0.0, 0.35, 0.6], [0.0, 0.55, 0.75], smoothing=0.04
        ),
        "spline": wm.spline_map([0.0, 0.3, 0.7], [0.0, 0.45, 0.8]),
    }


MAPS = builtin_instances()

# expected (smoothness class, number of breakpoints where some derivative jumps)
CLASSIFICATION = {
    "identity": (math.inf, 0),
    "exponential": (0, 1),
    "atan_tan": (math.inf, 0),
    "cubic_seam": (1, 1),
    "piecewise_linear": (0, 3),
    "pl_smoothed": (1, 6),
    "spline": (2, 3),
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_classification(name):
    w = MAPS[name]
    sigma, n_sing = CLASSIFICATION[name]
    assert w.smoothness_class == sigma
    assert len(w.singularities) == n_sing


def test_exponential_values():
    w = MAPS["exponential"]
    # w(t) = 2^t - 1, Dw = ln(2) 2^t
    assert w.eval(0.5) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)
    assert w.eval(0.25) == pytest.approx(2.0**0.25 - 1.0, abs=1e-15)
    assert w.deriv1(0.0) == pytest.approx(LN2, abs=1e-15)
    assert w.min_dw == pytest.approx(LN2, rel=1e-12)
    assert w.max_dw == pytest.approx(2.0 * LN2, rel=1e-12)
    # seam jets: left side is the end of the previous period
    left = w.side_jets(0.0, 2, "left")
    right = w.side_jets(0.0, 2, "right")
    assert left[0] == pytest.approx(0.0, abs=1e-15)
    assert right[0] == 0.0
    assert left[1] == pytest.approx(2.0 * LN2, rel=1e-14)
    assert right[1] == pytest.approx(LN2, rel=1e-14)
    assert left[2] == pytest.approx(2.0 * LN2**2, rel=1e-13)


def test_piecewise_linear_values():
    w = MAPS["piecewise_linear"]
    # slopes 11/7, 4/5, 5/8 on the three pieces
    assert w.deriv1(0.2) == pytest.approx(0.55 / 0.35, rel=1e-14)
    assert w.deriv1(0.5) == pytest.approx(0.8, rel=1e-14)
    assert w.deriv1(0.8) == pytest.approx(0.625, rel=1e-14)
    assert w.eval(0.35) == pytest.approx(0.55, abs=1e-15)
    assert w.eval(0.475) == pytest.approx(0.55 + 0.8 * 0.125, abs=1e-15)
    assert w.max_dw == pytest.approx(0.55 / 0.35, rel=1e-12)


def test_atan_tan_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    nu = 2.0
    w = MAPS["atan_tan"]
    for x in [0.05, 0.2, 0.25, 0.49, 0.51, 0.75, 0.93]:
        ref = mp.atan(nu * mp.tan(mp.pi * x)) / mp.pi
        if x > 0.5:
            ref += 1  # continuous branch
        assert w.eval(x) == pytest.approx(float(ref), abs=1e-14)
        dref = mp.diff(lambda t: mp.atan(nu * mp.tan(mp.pi * t)) / mp.pi, mp.mpf(x))
        assert w.deriv1(x) == pytest.approx(float(dref), rel=1e-11)


def test_atan_tan_odd_symmetry():
    w = MAPS["atan_tan"]
    x = np.linspace(0.01, 0.49, 25)
    np.testing.assert_allclose(w.eval(1.0 - x), 1.0 - w.eval(x), atol=1e-14)


def test_cubic_seam_second_derivative_jump():
    a = -1.5
    w = MAPS["cubic_seam"]
    # w = x + a x(1-x)(x-1/2) = x + a(-x^3 + 1.5x^2 - 0.5x): D2w = a(3 - 6x)
    assert w.side_jets(0.0, 2, "right")[2] == pytest.approx(3.0 * a, rel=1e-13)
    assert w.side_jets(0.0, 2, "left")[2] == pytest.approx(-3.0 * a, rel=1e-13)
    assert w.singularity_classes[0.0] == 1
    # Dw = 1 + a(-3x^2 + 3x - 0.5)
    assert w.deriv1(0.5) == pytest.approx(1.0 + a * 0.25, rel=1e-13)


def test_spline_map_knot_continuity():
    w = MAPS["spline"]
    # C^2 at every knot, third derivative jumps
    for xi in w.singularities:
        left = w.side_jets(xi, 3, "left")
        right = w.side_jets(xi, 3, "right")
        np.testing.assert_allclose(left[:3], right[:3], rtol=1e-9, atol=1e-11)
        assert abs(left[3] - right[3]) > 1e-6
    assert w.eval(0.3) == pytest.approx(0.45, abs=1e-13)


@pytest.mark.parametrize("make", [wm.spline_map, wm.piecewise_linear_map])
@pytest.mark.parametrize("knots,values", [([0.0, 0.3, 0.7], [0.0, 0.45, 0.8, 0.95]),
                                          ([0.0, 0.3, 0.7], [0.0, 0.45])])
def test_unequal_knots_and_values_are_refused(make, knots, values):
    # an extra value is not dropped, and a missing one is not left to scipy
    with pytest.raises(ValueError, match="equal-length"):
        make(knots, values)


def test_smoothed_pl_is_c1():
    w = MAPS["pl_smoothed"]
    for xi in w.singularities:
        assert w.singularity_classes[xi] >= 1
    xs = np.linspace(0.0, 1.0, 2001)[:-1]
    assert w.deriv1(xs).min() > 0


@pytest.mark.parametrize("name", sorted(MAPS))
def test_periodic_and_increasing(name):
    w = MAPS[name]
    assert abs(w.eval(0.0)) <= 1e-14
    assert abs(w.eval(1.0) - 1.0) <= 1e-12
    assert abs(w.eval(2.75) - w.eval(0.75) - 2.0) <= 1e-12
    assert w.deriv1(np.linspace(0.0, 1.0, 8193)[:-1]).min() > 0


@given(
    x=st.integers(min_value=-(2**20), max_value=2**20).map(lambda k: k / 2.0**10),
    k=st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_periodic_extension_dyadic(x, k):
    # dyadic arguments make w(x) + k exactly representable in the test band
    w = MAPS["exponential"]
    lhs = w.eval(x + k)
    rhs = w.eval(x) + k
    assert lhs == pytest.approx(rhs, abs=4 * np.spacing(max(1.0, abs(rhs))))


@pytest.mark.parametrize("name", sorted(MAPS))
def test_inverse_round_trip(name):
    w = MAPS[name]
    inv = w.inverse()
    x = np.linspace(-0.5, 1.5, 401)
    np.testing.assert_allclose(inv.eval(w.eval(x)), x, atol=1e-12)
    y = np.linspace(0.0, 1.0, 173)
    np.testing.assert_allclose(w.eval(inv.eval(y)), y, atol=1e-12)


def test_inverse_derivative_reciprocal():
    w = MAPS["exponential"]
    inv = w.inverse()
    y = np.linspace(0.013, 0.97, 57)
    np.testing.assert_allclose(inv.deriv1(y) * w.deriv1(inv.eval(y)), 1.0, atol=1e-12)


def test_inverse_singularity_images():
    w = MAPS["piecewise_linear"]
    inv = w.inverse()
    np.testing.assert_allclose(sorted(inv.singularities), [0.0, 0.55, 0.75], atol=1e-12)
    assert inv.min_dw == pytest.approx(1.0 / w.max_dw, rel=1e-12)
    assert inv.max_dw == pytest.approx(1.0 / w.min_dw, rel=1e-12)


def test_sampled_weight_midpoint_at_seam():
    w = MAPS["exponential"]
    b = 0.5
    x = np.arange(19) / 19.0
    got = w.sampled_weight(x, b)
    lp, rp = 2.0 * LN2, LN2
    assert got[0] == pytest.approx(0.5 * (lp**b + rp**b), rel=1e-14)
    np.testing.assert_allclose(got[1:], w.deriv1(x[1:]) ** b, rtol=1e-14)
    # scalar form and the smooth-map no-op
    assert w.sampled_weight(0.0, b) == pytest.approx(0.5 * (lp**b + rp**b), rel=1e-14)
    c = MAPS["cubic_seam"]
    np.testing.assert_allclose(c.sampled_weight(x, b), c.deriv1(x) ** b, rtol=1e-14)


def test_sampled_weight_inverse_map():
    w = MAPS["exponential"]
    inv = w.inverse()
    b = 0.5
    got = inv.sampled_weight(np.arange(19) / 19.0, b)
    lp, rp = 1.0 / (2.0 * LN2), 1.0 / LN2
    assert got[0] == pytest.approx(0.5 * (lp**b + rp**b), rel=1e-13)


def test_sampled_weight_inverse_map_at_every_jump_image():
    # jump images off the origin (0.55, 0.75) take the one-sided mean of
    # (Dv)^b too; every other sample is the plain power
    w = MAPS["piecewise_linear"]
    inv = w.inverse()
    b = 0.3
    y = np.arange(20) / 20.0
    got = inv.sampled_weight(y, b)
    on = np.zeros(y.size, dtype=bool)
    for xi in w.singularities:
        r = round(float(w.eval(xi) % 1.0) * 20)
        on[r] = True
        lp = 1.0 / w.side_jets(xi, 1, "left")[1]
        rp = 1.0 / w.side_jets(xi, 1, "right")[1]
        assert got[r] == pytest.approx(0.5 * (lp**b + rp**b), rel=1e-14)
    assert on.sum() == 3
    np.testing.assert_allclose(got[~on], inv.deriv1(y[~on]) ** b, rtol=1e-14)


def test_sampled_weight_off_lattice_knots_untouched():
    w = MAPS["piecewise_linear"]
    x = (np.arange(19) + 0.25) / 19.0  # misses 0, 0.35, 0.6
    np.testing.assert_allclose(w.sampled_weight(x, 0.5), w.deriv1(x) ** 0.5, rtol=1e-14)


def test_rejects_non_monotone():
    with pytest.raises(ValueError):
        wm.piecewise_linear_map([0.0, 0.5], [0.0, 1.2])  # second slope negative
    with pytest.raises(ValueError):
        wm.atan_tan_map(0.0)


def test_rejects_non_finite_parameters():
    # a NaN or infinite nu used to slip past nu <= 0 and build a map whose
    # slope range was NaN; a negative or NaN smoothing failed with an
    # unrelated message
    for nu in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            wm.atan_tan_map(nu)
    for eps in (-0.01, float("nan")):
        with pytest.raises(ValueError, match="smoothing must be non-negative and finite"):
            wm.piecewise_linear_map(smoothing=eps)
    # the slope range itself refuses what is not finite
    with pytest.raises(ValueError, match=r"finite slopes: slope range \[nan, nan\]"):
        wm.WarpMap([wm.Piece(0.0, 1.0, "atan_tan", (float("nan"),))])


def test_builtin_registry():
    assert set(wm.BUILTIN_MAPS) >= {
        "identity",
        "exponential",
        "atan_tan",
        "cubic_seam",
        "piecewise_linear",
        "spline",
    }
    w = wm.BUILTIN_MAPS["exponential"]()
    assert w.eval(1.0) == pytest.approx(1.0, abs=1e-15)


def _grid_slope_range(w):
    """The 4096-point grid plus both sides of each breakpoint."""
    dw = [w.deriv1(np.arange(4096) / 4096)]
    for xi in w.breakpoints:
        dw.append([w.side_jets(xi, 1, side)[1] for side in ("left", "right")])
    dw = np.concatenate(dw)
    return float(dw.min()), float(dw.max())


def test_spline_slope_range_holds_between_grid_points():
    w = MAPS["spline"]
    dw = w.deriv1(np.arange(2**20) / 2**20)
    assert w.min_dw <= dw.min() and w.max_dw >= dw.max()
    # the 4096-point grid alone reads max Dw 1e-7 low
    assert w.max_dw > _grid_slope_range(w)[1]


def test_slope_dip_between_grid_points_is_refused():
    # Dw = c (t - t0)^2 - eps with t0 midway between two grid points: the
    # grid reads Dw >= 1e-7, its minimum is -eps
    t0, eps = 1228.5 / 4096, 2e-8
    c = 3 * (1 + eps) / ((1 - t0) ** 3 + t0**3)  # so that w(1) = 1
    coeffs = (0.0, c * t0**2 - eps, -c * t0, c / 3)
    assert np.polynomial.Polynomial(coeffs).deriv()(np.arange(4096) / 4096).min() > 0
    with pytest.raises(ValueError, match="not strictly increasing"):
        wm.WarpMap([wm.Piece(0.0, 1.0, "poly", coeffs)])


@pytest.mark.parametrize("name", sorted(set(MAPS) - {"spline"}))
def test_slope_range_of_the_other_maps_is_the_grid_range(name):
    w = MAPS[name]
    assert (w.min_dw, w.max_dw) == _grid_slope_range(w)
