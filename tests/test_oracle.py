"""Dense quadrature oracle: invariants that do not depend on any model code.

Everything here is checked against closed forms, high-precision arithmetic,
or internal consistency (order doubling, adjoint pairing, the Poisson fold).
"""

import math

import numpy as np
import pytest
from scipy.special import polygamma

from pswarp import dense_oracle as dox
from pswarp import domain_indexing as di
from pswarp import warp_map as wm

LN2 = math.log(2.0)


def fw_interpolation_matrix(w, sp, b):
    """Discrete frequency-warping interpolator, sampled-weight convention."""
    M = sp.M
    q = np.arange(M) / M
    amp = w.sampled_weight(q, b)
    rows = np.exp(2j * np.pi * np.outer(sp.output_set.indices, q)) * amp[None, :]
    cols = np.exp(-2j * np.pi * np.outer(w.eval(q), sp.input_set.indices))
    return rows @ cols / M


def test_identity_map_is_kronecker():
    w = wm.identity_map()
    idx = di.make_index_set(9, 9 // 2).indices
    W = dox.matrix(w, idx, idx, 0.37)
    np.testing.assert_allclose(W, np.eye(9), atol=1e-13)


def test_entry_matches_matrix():
    w = wm.exponential_map()
    W = dox.matrix(w, np.array([3, -7]), np.array([2]), 0.5)
    assert dox.entry(w, 3, 2, 0.5) == pytest.approx(complex(W[0, 0]), abs=1e-14)
    assert dox.entry(w, -7, 2, 0.5) == pytest.approx(complex(W[1, 0]), abs=1e-14)


@pytest.mark.parametrize("name", ["exponential", "piecewise_linear", "spline"])
def test_quadrature_order_doubling(name):
    w = wm.BUILTIN_MAPS[name]() if name != "piecewise_linear" else wm.piecewise_linear_map(
        [0.0, 0.35, 0.6], [0.0, 0.55, 0.75]
    )
    m = np.arange(-14, 15)
    n = np.arange(-4, 5)
    W16 = dox.matrix(w, m, n, 0.5, order=16)
    W24 = dox.matrix(w, m, n, 0.5, order=24)
    assert np.abs(W16 - W24).max() < 1e-12


def test_adjoint_pairing_with_inverse_map():
    # the inverse-map operator at weight b is the conjugate transpose of the
    # forward operator at weight 1 - b
    w = wm.exponential_map()
    v = w.inverse()
    m = np.arange(-6, 7)
    n = np.arange(-4, 5)
    b = 0.3
    V = dox.matrix(v, n, m, b)
    W = dox.matrix(w, m, n, 1.0 - b)
    assert np.abs(V - W.conj().T).max() < 1e-8


FOLD_CASES = [
    ("exponential", wm.exponential_map(), 9, 19),
    ("piecewise_linear", wm.piecewise_linear_map([0.0, 0.35, 0.6], [0.0, 0.55, 0.75]), 9, 19),
    ("pl_on_lattice", wm.piecewise_linear_map([0.0, 0.25, 0.6], [0.0, 0.55, 0.75]), 10, 20),
    ("spline", wm.spline_map([0.0, 0.3, 0.7], [0.0, 0.45, 0.8]), 9, 19),
    ("cubic_seam", wm.cubic_seam_map(), 9, 19),
]


@pytest.mark.parametrize("name,w,N,M", FOLD_CASES, ids=[c[0] for c in FOLD_CASES])
def test_poisson_fold_identity(name, w, N, M):
    # the discrete interpolator must equal the band rows plus the full
    # aliasing fold; this exercises quadrature, the jump expansion, and the
    # lattice tail machinery together
    b = 0.5
    sp = di.domain_spec(w, N, M)
    W = dox.matrix(w, sp.output_set.indices, sp.input_set.indices, b)
    A = dox.aliasing_matrix(w, sp, b, k_tail=8)
    X = fw_interpolation_matrix(w, sp, b)
    assert np.abs(X - A - W).max() < 1e-10


def test_poisson_fold_identity_b0():
    w = wm.exponential_map()
    sp = di.domain_spec(w, 9, 19, b=0.0)
    W = dox.matrix(w, sp.output_set.indices, sp.input_set.indices, 0.0)
    A = dox.aliasing_matrix(w, sp, 0.0, k_tail=8)
    X = fw_interpolation_matrix(w, sp, 0.0)
    assert np.abs(X - A - W).max() < 1e-10


def test_row_energy_b_half():
    # at b = 1/2 the continuous operator is an isometry; the truncated row
    # sum falls short of 1 by the analytic tail of the first-order jump decay
    w = wm.exponential_map()
    M, K = 19, 8 * 19
    n = di.make_index_set(9, 9 // 2).indices
    m = np.arange(-K, K + 1)
    W = dox.matrix(w, m, n, 0.5)
    energy = (np.abs(W) ** 2).sum(axis=0)
    jump = math.sqrt(2.0 * LN2) - math.sqrt(LN2)
    tail = jump**2 / (2.0 * math.pi**2) * float(polygamma(1, K + 1))
    assert np.abs(1.0 - energy - tail).max() < 1e-6
    assert energy.max() < 1.0


def test_row_energy_smooth_map():
    # one more derivative of decay makes the truncation loss negligible
    w = wm.cubic_seam_map()
    M, K = 19, 8 * 19
    n = di.make_index_set(9, 9 // 2).indices
    W = dox.matrix(w, np.arange(-K, K + 1), n, 0.5)
    energy = (np.abs(W) ** 2).sum(axis=0)
    assert np.abs(energy - 1.0).max() < 1e-6


def test_phi_derivative_exponential_vs_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    w = wm.exponential_map()
    x, b = 0.3, 0.25
    a = -2j * math.pi * 3

    def f(t):
        wt = 2**t - 1
        dwt = mp.log(2) * 2**t
        return mp.e ** (mp.mpc(a) * wt) * dwt**b

    for k in range(7):
        ref = complex(mp.diff(f, mp.mpf(x), k))
        got = dox.phi_derivative(w, x, a, b, k)
        assert got == pytest.approx(ref, rel=1e-9)


def test_phi_derivative_linear_piece_closed_form():
    # on a linear piece Dw is constant: D^k phi = s^b (a s)^k e^{a w}
    w = wm.piecewise_linear_map([0.0, 0.35, 0.6], [0.0, 0.55, 0.75])
    x, b, s = 0.45, 0.5, 0.8
    a = -2j * math.pi * 2
    for k in range(6):
        ref = s**b * (a * s) ** k * np.exp(a * w.eval(x))
        got = dox.phi_derivative(w, x, a, b, k)
        assert got == pytest.approx(complex(ref), rel=1e-12)


def test_phi_derivative_sides_differ_at_seam():
    w = wm.exponential_map()
    a = -2j * math.pi
    r = dox.phi_derivative(w, 0.0, a, 0.5, 0, side="right")
    l = dox.phi_derivative(w, 0.0, a, 0.5, 0, side="left")
    assert r == pytest.approx(math.sqrt(LN2), rel=1e-13)
    assert l == pytest.approx(math.sqrt(2 * LN2), rel=1e-13)


def test_tail_row_decay_order():
    # weight exponent b = 0 removes the amplitude jump, gaining one order
    w = wm.exponential_map()
    ms = np.array([64, 128, 256])
    n = np.array([3])
    r_half = np.abs(dox.matrix(w, ms, n, 0.5)[:, 0])
    r_zero = np.abs(dox.matrix(w, ms, n, 0.0)[:, 0])
    slope_half = np.polyfit(np.log(ms), np.log(r_half), 1)[0]
    slope_zero = np.polyfit(np.log(ms), np.log(r_zero), 1)[0]
    # subleading terms still bend the fit at these radii; the orders are
    # separated by a full power so loose bands are conclusive
    assert slope_half == pytest.approx(-1.0, abs=0.15)
    assert slope_zero == pytest.approx(-2.0, abs=0.15)


def test_tail_row_indices_excludes_band():
    w = wm.exponential_map()
    sp = di.domain_spec(w, 9, 19)
    rows = dox.tail_row_indices(sp, k_tail=3)
    band = set(int(v) for v in sp.output_set.indices)
    assert not (set(rows.tolist()) & band)
    assert rows.min() == -3 * 19 and rows.max() == 3 * 19 - 1
    assert rows.size == 6 * 19 - 19


def test_lattice_tails_against_lerch():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    K = 8
    z = np.array([0.21, -0.37])
    for q in [np.exp(-2j * np.pi * 0.35 * 19), np.exp(2j * np.pi * 0.123)]:
        got = dox._combined_power_tails(5, z, K, complex(q))
        for s in range(1, 6):
            for j, zz in enumerate(z):
                plus = mp.mpc(q) ** (K + 1) * mp.lerchphi(mp.mpc(q), s, K + 1 - zz)
                cq = mp.conj(mp.mpc(q))
                minus = cq ** (K + 1) * mp.lerchphi(cq, s, K + 1 + zz)
                ref = complex(plus + (-1) ** s * minus)
                assert got[s - 1, j] == pytest.approx(ref, rel=2e-11, abs=1e-13)


def test_lattice_tails_integer_phase():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    K = 8
    z = np.array([0.3])
    got = dox._combined_power_tails(4, z, K, 1.0 + 0j)
    ref1 = complex(mp.psi(0, K + 1 + 0.3) - mp.psi(0, K + 1 - 0.3))
    assert got[0, 0] == pytest.approx(ref1, rel=1e-13)
    for s in range(2, 5):
        ref = complex(mp.zeta(s, K + 1 - 0.3) + (-1) ** s * mp.zeta(s, K + 1 + 0.3))
        assert got[s - 1, 0] == pytest.approx(ref, rel=1e-13)


def test_lattice_tails_half_integer_phase():
    # q = -1 arises when a knot sits halfway between output samples
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    K, zz = 6, 0.29
    got = dox._combined_power_tails(3, np.array([zz]), K, -1.0 + 0j)
    for s in range(1, 4):
        direct = mp.nsum(lambda k: (-1) ** k * (k - zz) ** (-s), [K + 1, mp.inf]) + (
            -1
        ) ** s * mp.nsum(lambda k: (-1) ** k * (k + zz) ** (-s), [K + 1, mp.inf])
        assert got[s - 1, 0] == pytest.approx(complex(direct), rel=1e-12)


def test_aliasing_matrix_k_tail_insensitive():
    # the analytic completion must absorb whatever the direct shells leave
    w = wm.exponential_map()
    sp = di.domain_spec(w, 9, 19)
    A4 = dox.aliasing_matrix(w, sp, 0.5, k_tail=4)
    A8 = dox.aliasing_matrix(w, sp, 0.5, k_tail=8)
    assert np.abs(A4 - A8).max() < 5e-12
