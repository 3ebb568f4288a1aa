"""Symbolic expansion tables and the per-singularity jump kernel."""

from fractions import Fraction as F
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pswarp._ratpoly import (
    RatPoly2,
    bernoulli_numbers,
    bernoulli_polynomial,
)
from pswarp.symbolic_kernel import (
    KernelBundle,
    Sequence,
    _beta_value,
    alpha_eval,
    build_kernel,
    choose_rows,
    enumerate_level,
    expansion_derivative,
    gamma_level,
    gamma_tables,
    kernel_as_json,
    tables_as_json,
)
from pswarp.warp_map import (
    cubic_seam_map,
    exponential_map,
    identity_map,
    piecewise_linear_map,
)
from pswarp.domain_indexing import domain_spec
from pswarp.dense_oracle import entry as oracle_entry, phi_derivative


# ---------------------------------------------------------------------------
# rational polynomial engine


def test_bernoulli_numbers():
    got = bernoulli_numbers(12)
    assert got[0] == 1
    assert got[1] == F(-1, 2)
    assert got[2] == F(1, 6)
    assert got[3] == 0
    assert got[12] == F(-691, 2730)


def test_bernoulli_polynomial_values():
    # B_3(x) = x^3 - 3/2 x^2 + 1/2 x
    assert bernoulli_polynomial(3) == (0, F(1, 2), F(-3, 2), 1)


def test_ratpoly_arithmetic_and_eval():
    b = RatPoly2.var_b()
    k = RatPoly2.var_k()
    p = (b + k - 2) * (b - k) + 3
    assert p.eval(F(2), F(5)) == (2 + 5 - 2) * (2 - 5) + 3
    assert (p - p) == RatPoly2()
    assert not (p - p)


def test_antidifference_telescopes():
    b = RatPoly2.var_b()
    k = RatPoly2.var_k()
    p = b * k**3 - 2 * k + b
    g = p.antidifference_k()
    assert g.eval(F(1, 3), 0) == 0
    for kk in range(12):
        lhs = g.eval(F(1, 3), kk + 1) - g.eval(F(1, 3), kk)
        assert lhs == p.eval(F(1, 3), kk)


def test_subs_collapse():
    b = RatPoly2.var_b()
    k = RatPoly2.var_k()
    p = b**2 * k + 3 * k**2
    pb = p.subs_b(F(1, 2))
    assert pb.eval(F(99), 2) == F(1, 2) + 12
    pk = p.subs_k(2)
    assert pk.eval(F(1, 2), F(99)) == F(1, 2) + 12


def test_to_string_edge_cases():
    assert RatPoly2().to_string() == "0"
    k = RatPoly2.var_k()
    b = RatPoly2.var_b()
    assert (k * 0 + b - RatPoly2.const(F(1, 2))).to_string() == "b - 1/2"
    assert (-k).to_string() == "-k"


# ---------------------------------------------------------------------------
# gamma tables


def test_level_sequence_counts():
    # partition numbers
    got = [len(enumerate_level(l)) for l in range(1, 13)]
    assert got == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_sequence_ordering_is_most_factors_first():
    parts = [s.parts for s in enumerate_level(4)]
    assert parts == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def test_level_one_polynomial_string():
    g = gamma_level(1)[0][1]
    assert g.to_string() == "1/2 k^2 + (b - 1/2) k"


def test_level_two_polynomials_exact():
    (s1, g1), (s2, g2) = gamma_level(2)
    assert s1.parts == (1, 1) and s2.parts == (2,)
    want1 = {
        (0, 4): F(1, 8), (1, 3): F(1, 2), (0, 3): F(-3, 4),
        (2, 2): F(1, 2), (1, 2): -2, (0, 2): F(11, 8),
        (2, 1): F(-1, 2), (1, 1): F(3, 2), (0, 1): F(-3, 4),
    }
    want2 = {(0, 3): F(1, 6), (1, 2): F(1, 2), (0, 2): F(-1, 2),
             (1, 1): F(-1, 2), (0, 1): F(1, 3)}
    assert {kv: v for kv, v in g1.c.items()} == {kk: F(v) for kk, v in want1.items()}
    assert {kv: v for kv, v in g2.c.items()} == {kk: F(v) for kk, v in want2.items()}


GOLDEN_B0 = {
    (1, 1): lambda k: F(k**2 - k, 2),
    (2, 1): lambda k: F(k**4 - 6 * k**3 + 11 * k**2 - 6 * k, 8),
    (2, 2): lambda k: F(k**3 - 3 * k**2 + 2 * k, 6),
    (3, 1): lambda k: F(k**6 - 15 * k**5 + 85 * k**4 - 225 * k**3 + 274 * k**2 - 120 * k, 48),
    (3, 2): lambda k: F(k**5 - 10 * k**4 + 35 * k**3 - 50 * k**2 + 24 * k, 12),
    (3, 3): lambda k: F(k**4 - 6 * k**3 + 11 * k**2 - 6 * k, 24),
}

GOLDEN_B1 = {
    (1, 1): lambda k: F(k**2 + k, 2),
    (2, 1): lambda k: F(k**4 - 2 * k**3 - k**2 + 2 * k, 8),
    (2, 2): lambda k: F(k**3 - k, 6),
    (3, 1): lambda k: F(k**6 - 9 * k**5 + 25 * k**4 - 15 * k**3 - 26 * k**2 + 24 * k, 48),
    (3, 2): lambda k: F(k**5 - 5 * k**4 + 5 * k**3 + 5 * k**2 - 6 * k, 12),
    (3, 3): lambda k: F(k**4 - 2 * k**3 - k**2 + 2 * k, 24),
}


@pytest.mark.parametrize("b,golden", [(0, GOLDEN_B0), (1, GOLDEN_B1)])
def test_golden_tables_levels_up_to_three(b, golden):
    tabs = gamma_tables(3)
    for (l, n), f in golden.items():
        g = tabs[l][n - 1][1]
        for k in range(0, 12):
            assert g.eval(F(b), k) == f(k), (l, n, k)


def test_shift_identity_and_zero_structure():
    # raising b by one shifts the argument: gamma|_{b=1}(k) = gamma|_{b=0}(k+1)
    tabs = gamma_tables(8)
    for l in range(1, 9):
        for seq, g in tabs[l]:
            for k in range(0, 14):
                assert g.eval(F(1), k) == g.eval(F(0), k + 1)
            # at b=0 the polynomial has roots at k = 0 .. l+#factors-1
            nz = l + len(seq.parts)
            for k in range(nz):
                assert g.eval(F(0), k) == 0
            assert g.eval(F(0), nz) != 0


def test_vanishing_below_level_for_all_b():
    # D^k phi only reaches level k, so gamma(k) = 0 identically for k < l
    tabs = gamma_tables(6)
    for l in range(1, 7):
        for seq, g in tabs[l]:
            for k in range(l):
                assert not g.subs_k(k).c


@given(st.integers(min_value=1, max_value=6), st.fractions(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_difference_equation_recovers_table(level, b):
    # spot-check the defining recursion: the forward difference of each
    # level-l gamma equals the weighted sum of its level-(l-1) parents
    tabs = gamma_tables(level)
    parents = {seq.parts: (seq, g) for seq, g in tabs[level - 1]}
    for seq, g in tabs[level]:
        for k in range(0, 9):
            diff = g.eval(b, k + 1) - g.eval(b, k)
            acc = F(0)
            # parent via dropping one part of size 1 (exp/power route)
            if 1 in seq.parts:
                pp = list(seq.parts)
                pp.remove(1)
                pseq, pg = parents[tuple(pp)]
                acc += pg.eval(b, k) * (b + k + pseq.dw_shift - (level - 1))
            # parent via shrinking a part j -> j-1
            for j in sorted(set(seq.parts)):
                if j == 1:
                    continue
                pp = list(seq.parts)
                pp.remove(j)
                pp = tuple(sorted(pp + [j - 1], reverse=True))
                pseq, pg = parents[pp]
                acc += pg.eval(b, k) * pseq.multiplicity(j)
            assert diff == acc


# ---------------------------------------------------------------------------
# alpha coefficients and full derivative reconstruction


def test_alpha_level_two_top_coefficient():
    # alpha_{2,2} = b(b-1) beta_{2,(1,1)} + b beta_{2,(2)}
    (s1, g1), (s2, g2) = gamma_level(2)
    bb = F(3, 7)
    assert g1.eval(bb, 2) == bb * bb - bb
    assert g2.eval(bb, 2) == bb


def test_alpha_exponential_map_golden():
    w = exponential_map()
    got = alpha_eval(w, 0.0, "right", 0.5, 3, 1)
    assert got == pytest.approx(4.5 * math.log(2.0) ** 1.5, rel=1e-13)


@pytest.mark.parametrize("wname,w", [
    ("exp", exponential_map()),
    ("cubic", cubic_seam_map()),
])
def test_expansion_derivative_matches_oracle(wname, w):
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(20):
        x = float(rng.uniform(0.05, 0.45))
        a = complex(rng.normal(), rng.normal()) * 5.0
        for b in (0.0, 0.25, 0.5, 1.0):
            for k in range(7):
                got = expansion_derivative(w, x, "right", a, b, k)
                ref = phi_derivative(w, x, a, b, k, side="right")
                worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
    assert worst < 1e-9


def test_expansion_derivative_depth_guard():
    w = exponential_map()
    with pytest.raises(ValueError):
        expansion_derivative(w, 0.2, "right", 1.0j, 0.5, 14, max_level=12)


# ---------------------------------------------------------------------------
# kernel assembly


def test_choose_rows():
    assert choose_rows(10.0, 1e-12) == 12
    assert choose_rows(math.inf) == 1
    assert choose_rows(1.4645540566600084, 1e-12) == 64  # capped from 73
    with pytest.raises(ValueError):
        choose_rows(0.9)


def test_kernel_rows_and_ratios():
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    bun = build_kernel(w, spec)
    assert isinstance(bun, KernelBundle)
    assert bun.rows == 64
    (ker,) = bun.kernels
    assert ker.J_minus == pytest.approx(1.4645540566600084, abs=1e-12)
    assert ker.J_plus == pytest.approx(2 * 1.4645540566600084, abs=1e-12)
    assert np.allclose(np.triu(ker.S, 1), 0)
    bun25 = build_kernel(w, spec, kernel_tol=1e-4)
    assert bun25.rows == 25


def _kernel_by_fractions(warp, spec, bun):
    """S of every jump by the scalar reference: b collapsed through Fraction."""
    b, R, level_cap = bun.b, bun.rows, bun.max_level
    bq = F(b)
    tables = gamma_tables(level_cap)
    kpolys = [[(seq, [float(sum(v * bq**i for i, v in col.items()))
                      for col in gamma.k_coefficients()])
               for seq, gamma in tables[level]]
              for level in range(level_cap + 1)]
    scale = -1j * math.pi * spec.M * (1.0 - spec.output_set.mu)
    out = []
    for ker in bun.kernels:
        Jp, Jm = ker.J_plus, ker.J_minus
        jets_p = warp.side_jets(ker.xi, level_cap + 1, "right")
        jets_m = warp.side_jets(ker.xi, level_cap + 1, "left")
        S = np.zeros((R, R), dtype=np.complex128)
        for i in range(R):
            for k in range(i + 1):
                level = i - k
                if level > level_cap:
                    continue
                ap = am = 0.0
                for seq, kc in kpolys[level]:
                    g = 0.0
                    for c in reversed(kc):
                        g = g * i + c
                    if g:
                        ap += _beta_value(jets_p, seq, b) * g
                        am += _beta_value(jets_m, seq, b) * g
                S[i, k] = scale ** (k - i - 1) * (ap * Jp ** (-k) - am * Jm ** (-k))
        out.append(S)
    return out


@pytest.mark.parametrize("b", [0.5, 0.3, 0.0, 1.0, 1.0 / 3.0, 0.7123456789])
def test_kernel_matches_fraction_collapse_bit_for_bit(b):
    # the integer collapse rounds each k coefficient once, like Fraction,
    # and the row-vectorized Horner keeps the scalar operation order
    cases = [(exponential_map(), 33, 67, None),
             (cubic_seam_map(), 9, 31, 20),
             (piecewise_linear_map([0.0, 0.3, 0.7], [0.0, 0.45, 0.8]), 9, 19, 6)]
    for w, N, M, R in cases:
        spec = domain_spec(w, N, M, b=b)
        bun = build_kernel(w, spec, b, R=R)
        for ker, ref in zip(bun.kernels, _kernel_by_fractions(w, spec, bun)):
            assert np.array_equal(ker.S, ref), (w.spec["type"], b)


def test_kernel_refuses_divergent_geometry():
    # skewed index sets push one decay ratio below 1
    w = exponential_map()
    spec = domain_spec(w, 33, 67, L_N=4, L_M=10, b=0.5)
    with pytest.raises(ValueError, match=r"x=0"):
        build_kernel(w, spec)


def test_identity_map_has_no_kernels():
    w = identity_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    bun = build_kernel(w, spec)
    assert bun.kernels == []
    assert math.isinf(bun.J_min)


@pytest.mark.parametrize("w", [exponential_map(), piecewise_linear_map()],
                         ids=["exp", "pl"])
def test_factored_tail_rows_match_quadrature(w):
    # P diag, polynomial row/column bases, and S reassemble the smooth-tail
    # expansion of the exact operator at rows far outside the band
    spec = domain_spec(w, 9, 19, b=0.5)
    bun = build_kernel(w, spec)
    EM, FN, R = bun.row_radius, bun.col_radius, bun.rows
    ns = np.array(spec.input_set.indices, dtype=float)
    for m in (40, -37, 67):
        y = (m / EM) ** -(np.arange(R) + 1.0)
        row = np.zeros(len(ns), dtype=complex)
        for ker in bun.kernels:
            V = (ns[None, :] / FN) ** np.arange(R)[:, None]
            pref = np.exp(2j * np.pi * m * ker.xi)
            q = np.exp(-2j * np.pi * ns * ker.image)
            row += pref * (y @ ker.S @ V) * q
        ref = np.array([oracle_entry(w, m, n, 0.5, order=24) for n in ns])
        rel = np.max(np.abs(row - ref)) / np.max(np.abs(ref))
        assert rel < 1e-10, (m, rel)


def test_piecewise_linear_kernel_is_exactly_diagonal():
    # with linear pieces every higher-level coefficient carries a factor
    # D^m w = 0 for some m >= 2, so only the level-zero diagonal survives;
    # the zeros are exact, not small
    w = piecewise_linear_map()
    spec = domain_spec(w, 9, 19, b=1.0)
    bun = build_kernel(w, spec, R=6)
    for ker in bun.kernels:
        off = ker.S - np.diag(np.diag(ker.S))
        assert np.all(off == 0)
        assert np.all(np.diag(ker.S) != 0)


def test_json_dumps():
    d = tables_as_json(2)
    import json

    s = json.dumps(d)
    assert "1/2 k^2 + (b - 1/2) k" in s
    w = exponential_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    bun = build_kernel(w, spec, kernel_tol=1e-6)
    kj = kernel_as_json(bun)
    assert kj["rows"] == bun.rows
    assert kj["singularities"][0]["J_minus"] == bun.kernels[0].J_minus
    assert len(kj["singularities"][0]["S_real"]) == bun.rows
