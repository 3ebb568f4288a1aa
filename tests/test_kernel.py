"""Symbolic expansion tables and the per-singularity jump kernel."""

from fractions import Fraction as F
from functools import lru_cache
import cmath
import hashlib
import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pswarp._lattice import bernoulli_numbers
from pswarp.symbolic_kernel import (
    MAX_LEVEL_DEFAULT,
    KernelBundle,
    build_kernel,
    choose_rows,
    enumerate_level,
    gamma_tables,
)
from pswarp import symbolic_kernel
from pswarp.warp_map import (
    BUILTIN_MAPS,
    cubic_seam_map,
    exponential_map,
    identity_map,
    piecewise_linear_map,
    spline_map,
)
from pswarp.domain_indexing import domain_spec, singularity_decay_ratio
from pswarp.dense_oracle import entry as oracle_entry, phi_derivative


# ---------------------------------------------------------------------------
# exact integer tables


def _coefficients(den, num):
    """{(b power, k power): exact coefficient} of an integer array over den."""
    return {(i, j): F(v, den) for (i, j), v in np.ndenumerate(num) if v}


def _exact(den, num, b, k):
    """sum_ij num[i, j] b^i k^j / den at rational b and k, exact."""
    b, k = F(b), F(k)
    return sum((v * b**i * k**j for (i, j), v in _coefficients(den, num).items()),
               F(0))


@lru_cache(maxsize=None)
def _power(table):
    """(den, num): the table over powers of k, num[n, i, j] / den the b^i k^j coefficient.

    Each binom(k, m) = k (k - 1) ... (k - m + 1) / m! expanded in powers
    of k, exactly; den is the lcm of the coefficients' denominators, so it
    is reduced against every entry.  Read-only.
    """
    degree = table.num.shape[2] - 1
    Q = np.zeros((degree + 1, degree + 1), dtype=object)
    falling = [1]
    for m in range(degree + 1):
        Q[m, :m + 1] = [F(c, math.factorial(m)) for c in falling]
        falling = [a - m * c for a, c in zip([0] + falling, falling + [0])]
    exact = (table.num @ Q).ravel().tolist()
    den = math.lcm(*(F(v).denominator for v in exact))
    num = np.array([int(v * den) for v in exact], dtype=object).reshape(table.num.shape)
    num.flags.writeable = False
    return den, num


def test_bernoulli_numbers():
    got = bernoulli_numbers(12)
    assert got[0] == 1
    assert got[1] == F(-1, 2)
    assert got[2] == F(1, 6)
    assert got[3] == 0
    assert got[12] == F(-691, 2730)


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
    # gamma_{1,1}(k) = 1/2 k^2 + (b - 1/2) k
    den, num = _power(gamma_tables(1)[1])
    assert _coefficients(den, num[0]) == {(0, 2): F(1, 2), (1, 1): 1, (0, 1): F(-1, 2)}


def test_tables_json_digest_pinned():
    # no closed form below covers levels 7-12; the digest of the exact
    # integers over powers of k pins every entry of the default-depth table
    rows = []
    for t in gamma_tables(12):
        den, num = _power(t)
        rows.append((den, [s.parts for s in t.seqs], num.shape, num.ravel().tolist()))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "0d038f01eef03c90506acf7e3468108aa3c32b2f32e7e4cbfe7c9b48c0dcf304"


def test_tables_are_integers_the_float_table_copies_exactly():
    # over binomials in k every coefficient is an integer; at the default
    # depth each is below 2^53 (41 bits at level 12), so the float table
    # the contraction reads is an exact copy, not a rounding
    for t in gamma_tables(MAX_LEVEL_DEFAULT):
        values = t.num.ravel().tolist()
        assert all(type(v) is int and abs(v) < 2**53 for v in values), t.seqs[0].level
        assert t.ratio.ravel().tolist() == [float(v) for v in values], t.seqs[0].level


def test_level_two_polynomials_exact():
    t = gamma_tables(2)[2]
    den, num = _power(t)
    s1, s2 = t.seqs
    assert s1.parts == (1, 1) and s2.parts == (2,)
    want1 = {
        (0, 4): F(1, 8), (1, 3): F(1, 2), (0, 3): F(-3, 4),
        (2, 2): F(1, 2), (1, 2): -2, (0, 2): F(11, 8),
        (2, 1): F(-1, 2), (1, 1): F(3, 2), (0, 1): F(-3, 4),
    }
    want2 = {(0, 3): F(1, 6), (1, 2): F(1, 2), (0, 2): F(-1, 2),
             (1, 1): F(-1, 2), (0, 1): F(1, 3)}
    assert _coefficients(den, num[0]) == {kk: F(v) for kk, v in want1.items()}
    assert _coefficients(den, num[1]) == {kk: F(v) for kk, v in want2.items()}


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
        den, num = _power(tabs[l])
        for k in range(0, 12):
            assert _exact(den, num[n - 1], b, k) == f(k), (l, n, k)


def test_shift_identity_and_zero_structure():
    # raising b by one shifts the argument: gamma|_{b=1}(k) = gamma|_{b=0}(k+1)
    tabs = gamma_tables(8)
    for l in range(1, 9):
        den, nums = _power(tabs[l])
        for seq, num in zip(tabs[l].seqs, nums):
            for k in range(0, 14):
                assert _exact(den, num, 1, k) == _exact(den, num, 0, k + 1)
            # at b=0 the polynomial has roots at k = 0 .. l+#factors-1
            nz = l + len(seq.parts)
            for k in range(nz):
                assert _exact(den, num, 0, k) == 0
            assert _exact(den, num, 0, nz) != 0


def test_vanishing_below_level_for_all_b():
    # D^k phi only reaches level k, so gamma(k) = 0 identically for k < l;
    # gamma has degree at most l in b, so l + 1 distinct zeros in b show it
    tabs = gamma_tables(6)
    for l in range(1, 7):
        den, nums = _power(tabs[l])
        for num in nums:
            assert num.shape[0] == l + 1
            for k in range(l):
                for b in range(l + 1):
                    assert _exact(den, num, F(2 * b - l, 3), k) == 0


@given(st.integers(min_value=1, max_value=6), st.fractions(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_difference_equation_recovers_table(level, b):
    # spot-check the defining recursion: the forward difference of each
    # level-l gamma equals the weighted sum of its level-(l-1) parents
    tabs = gamma_tables(level)
    up = tabs[level - 1]
    up_den, up_nums = _power(up)
    parents = {seq.parts: (seq, num) for seq, num in zip(up.seqs, up_nums)}
    t = tabs[level]
    den, nums = _power(t)
    for seq, num in zip(t.seqs, nums):
        for k in range(0, 9):
            diff = _exact(den, num, b, k + 1) - _exact(den, num, b, k)
            acc = F(0)
            # parent via dropping one part of size 1 (exp/power route)
            if 1 in seq.parts:
                pp = list(seq.parts)
                pp.remove(1)
                pseq, pnum = parents[tuple(pp)]
                acc += _exact(up_den, pnum, b, k) * (b + k + pseq.dw_shift - (level - 1))
            # parent via shrinking a part j -> j-1
            for j in sorted(set(seq.parts)):
                if j == 1:
                    continue
                pp = list(seq.parts)
                pp.remove(j)
                pp = tuple(sorted(pp + [j - 1], reverse=True))
                pseq, pnum = parents[pp]
                acc += _exact(up_den, pnum, b, k) * pseq.multiplicity(j)
            assert diff == acc


# ---------------------------------------------------------------------------
# alpha coefficients and full derivative reconstruction


def _alphas(warp, x, side, b, k, top):
    """alpha_{k,l} at one side of x for l = 0 .. top, from the contraction."""
    jets = warp.side_jets(x, MAX_LEVEL_DEFAULT + 1, side)
    tables = gamma_tables(MAX_LEVEL_DEFAULT)[:top + 1]
    alpha = symbolic_kernel.Contraction.of(jets[None], tables).alpha(b, np.array([float(k)]))
    return alpha[0, :, 0], jets


def alpha_eval(warp, x, side, b, k, level):
    """alpha_{k,level} at one side of x: sum_n beta_{l,n} gamma_{l,n}(k)."""
    if level < 0 or k < 0:
        raise ValueError("order and level must be >= 0")
    if level > k:
        return 0.0
    if level > MAX_LEVEL_DEFAULT:
        raise ValueError(f"level {level} beyond table depth {MAX_LEVEL_DEFAULT}")
    return float(_alphas(warp, x, side, b, k, level)[0][level])


def expansion_derivative(warp, x, side, a, b, k):
    """D^k [exp(a w) (Dw)^b] rebuilt from the symbolic tables.

    Exact for k <= MAX_LEVEL_DEFAULT; the independent check is jet
    arithmetic in the quadrature oracle.
    """
    if k > MAX_LEVEL_DEFAULT:
        raise ValueError(f"order {k} beyond table depth {MAX_LEVEL_DEFAULT}")
    alpha, jets = _alphas(warp, x, side, b, k, k)
    total = sum(al * (a * jets[1]) ** (k - level) for level, al in enumerate(alpha))
    return total * cmath.exp(a * jets[0])


def test_alpha_level_two_top_coefficient():
    # alpha_{2,2} = b(b-1) beta_{2,(1,1)} + b beta_{2,(2)}
    den, num = _power(gamma_tables(2)[2])
    bb = F(3, 7)
    assert _exact(den, num[0], bb, 2) == bb * bb - bb
    assert _exact(den, num[1], bb, 2) == bb


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
        expansion_derivative(w, 0.2, "right", 1.0j, 0.5, 14)


# ---------------------------------------------------------------------------
# kernel assembly


def test_choose_rows():
    assert choose_rows(10.0, 1e-12) == 12
    assert choose_rows(math.inf) == 1
    assert choose_rows(1.4645540566600084, 1e-12) == 64  # capped from 73
    with pytest.raises(ValueError):
        choose_rows(0.9)


def test_clipped_rows_are_reported_once(caplog):
    # the 3-knot map at N = 129: J_min = 1.278 asks for R = 113, the cap keeps 64
    w = piecewise_linear_map()
    spec = domain_spec(w, 129, 259, b=0.5)
    with caplog.at_level(logging.DEBUG, logger="pswarp"):
        bun = build_kernel(w, spec)
    assert bun.rows == symbolic_kernel.ROW_CAP == 64
    assert len(caplog.records) == 1
    record = caplog.records[0]
    assert record.name == "pswarp" and record.levelno == logging.DEBUG
    message = record.getMessage()
    assert f"J_min = {spec.feasibility.J_min:.6g}" in message
    assert "R = 113" in message and "ROW_CAP = 64" in message
    # an R under the cap says nothing
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="pswarp"):
        assert choose_rows(10.0, 1e-12) == 12
    assert caplog.records == []


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


def _beta_value(jets, seq, b: float) -> float:
    """beta_{l,n} from one-sided jet values D^m w (jets[m])."""
    dw = jets[1]
    val = dw ** (b + seq.dw_shift)
    for j in seq.parts:
        val *= jets[j + 1]
    return float(val)


def _kernel_by_fractions(warp, spec, bun):
    """S of every jump by the scalar reference: b collapsed through Fraction."""
    b, R, level_cap = bun.b, bun.rows, MAX_LEVEL_DEFAULT
    bq = F(b)
    kpolys = []
    for t in gamma_tables(level_cap):
        den, nums = _power(t)
        kpolys.append([(seq, [float(sum(F(v, den) * bq**i for i, v in enumerate(col)))
                              for col in num.T])
                       for seq, num in zip(t.seqs, nums)])
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


@pytest.mark.parametrize("b", [1.5, -0.2])
def test_build_kernel_refuses_b_outside_the_unit_interval(b):
    # the operators' rule: b in [0, 1], or the spec's b when None
    w = exponential_map()
    spec = domain_spec(w, 9, 19)
    with pytest.raises(ValueError, match="exponent b"):
        build_kernel(w, spec, b)


@pytest.mark.parametrize("b", [0.5, 0.3, 0.0, 1.0, 1.0 / 3.0, 0.7123456789])
def test_kernel_matches_fraction_collapse_bit_for_bit(b):
    # a piecewise-linear map lives at level 0 only, where the contraction
    # and both Horner passes are exact: S is the scalar reference's bits
    w = piecewise_linear_map([0.0, 0.3, 0.7], [0.0, 0.45, 0.8])
    spec = domain_spec(w, 9, 19, b=b)
    bun = build_kernel(w, spec, b, R=6)
    for ker, ref in zip(bun.kernels, _kernel_by_fractions(w, spec, bun)):
        assert np.array_equal(ker.S, ref), b


def _beta_free_value(jets, seq) -> float:
    """beta~_{l,n} = Dw^dw_shift prod D^m w from one-sided jet values (jets[m])."""
    val = jets[1] ** seq.dw_shift
    for j in seq.parts:
        val *= jets[j + 1]
    return float(val)


@pytest.mark.parametrize("b", [0.0, 0.5, 0.7123456789, 1.0])
@pytest.mark.parametrize("w", [exponential_map(), cubic_seam_map(), spline_map(),
                               piecewise_linear_map()],
                         ids=["exp", "cubic", "spline", "pl"])
def test_beta_table_matches_scalar_definition_bit_for_bit(w, b):
    # one stack of jet rows, both sides of every jump, against the scalar
    # definition one beta at a time: beta~ carries no b and keeps its bits,
    # zero signs included; beta = Dw^b beta~, as the expansion scales it,
    # is the scalar Dw^(b + shift) prod D^m w up to the rounding of the
    # split power: two pows and one more product, and b + shift rounded
    # in the exponent (|ln Dw| u/2 per unit of |b + shift|)
    u = 2.0**-53
    jets = np.array([w.side_jets(xi, MAX_LEVEL_DEFAULT + 1, side)
                     for xi in w.singularities for side in ("right", "left")])
    dwb = np.array([dw ** b for dw in jets[:, 1]])
    tables = gamma_tables(MAX_LEVEL_DEFAULT)
    for table, got in zip(tables, symbolic_kernel._beta_free(jets, tables)):
        level = table.seqs[0].level
        ref = np.array([[_beta_free_value(row, seq) for seq in table.seqs] for row in jets])
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes(), level
        full = np.array([[_beta_value(row, seq, b) for seq in table.seqs] for row in jets])
        beta = dwb[:, None] * got
        assert np.array_equal(beta == 0, full == 0), level
        parts = np.array([len(seq.parts) for seq in table.seqs])
        logs = np.abs(np.log(jets[:, 1]))[:, None]
        bound = u * (2 * parts + 4 + logs * (parts + b)) * np.abs(full)
        assert np.all(np.abs(beta - full) <= bound), level


def _gamma_integers(num, b, ks):
    """gamma(k) = g[k] / den exactly, for each k in ks, of one (b, k) array.

    num is one sequence's integer array over the level's den; b is a
    float, so b = m / 2^e exactly and every value is an integer ratio.
    """
    m, two_e = F(b).as_integer_ratio()
    top = num.shape[0] - 1
    coef = [sum(int(num[i, j]) * m**i * two_e**(top - i) for i in range(top + 1))
            for j in range(num.shape[1])]
    out = []
    for k in ks:
        g = 0
        for c in reversed(coef):
            g = g * k + c
        out.append(g)
    return out, two_e**top


def _mp(x):
    """A Fraction or an mpf as an mpf at the working precision."""
    x = F(x) if isinstance(x, int) else x
    return mpmath.mpf(x.numerator) / x.denominator if isinstance(x, F) else x


def _exact_kernel(warp, spec, b, R):
    """(S, E) per jump: S to 40 digits, E its condition sum.

    alpha_{k,l} = sum_n beta_{l,n} gamma_{l,n}(k) from the exact integer
    tables: in Fractions at b in {0, 1}, where Dw^(b + shift) is
    rational, and in 40-digit mpmath otherwise, the float jets and J and
    the float b taken as exact.  E sums the same terms in absolute value,
    |b| and |num| in place of b and num, so a float evaluation of S
    carries an error of a modest multiple of u E.
    """
    mpmath.mp.dps = 40
    tables = gamma_tables(MAX_LEVEL_DEFAULT)[:R]
    exact = b in (0.0, 1.0)
    scale = -2j * mpmath.pi * mpmath.mpf(spec.row_radius)
    out = []
    for xi in warp.singularities:
        sides = []
        for side in ("right", "left"):
            jets = warp.side_jets(xi, MAX_LEVEL_DEFAULT + 1, side)
            alpha = np.zeros((len(tables), R), dtype=object)
            cond = np.zeros((len(tables), R), dtype=object)
            for level, table in enumerate(tables):
                table_den, nums = _power(table)
                for seq, num in zip(table.seqs, nums):
                    if exact:
                        beta = F(jets[1]) ** (int(b) + seq.dw_shift)
                        for j in seq.parts:
                            beta *= F(jets[j + 1])
                    else:
                        beta = mpmath.mpf(jets[1]) ** (mpmath.mpf(b) + seq.dw_shift)
                        for j in seq.parts:
                            beta *= mpmath.mpf(jets[j + 1])
                    if beta == 0:
                        continue
                    g, den = _gamma_integers(num, b, range(R))
                    gabs, _ = _gamma_integers(abs(num), b, range(R))
                    den *= table_den
                    for k in range(level, R):
                        alpha[level, k] += beta * F(g[k], den) if exact \
                            else beta * mpmath.mpf(g[k]) / den
                        cond[level, k] += abs(_mp(beta)) * mpmath.mpf(gabs[k]) / den
            sides.append((alpha, cond))
        Jp = mpmath.mpf(singularity_decay_ratio(warp, spec, xi, "right"))
        Jm = mpmath.mpf(singularity_decay_ratio(warp, spec, xi, "left"))
        (ap, cp), (am, cm) = sides
        S = np.zeros((R, R), dtype=object)
        E = np.zeros((R, R))
        for i in range(R):
            for k in range(max(0, i - len(tables) + 1), i + 1):
                level = i - k
                S[i, k] = scale ** (k - i - 1) * (_mp(ap[level, i]) * Jp ** -k
                                                  - _mp(am[level, i]) * Jm ** -k)
                E[i, k] = float(abs(scale) ** (k - i - 1)
                                * (cp[level, i] * Jp ** -k + cm[level, i] * Jm ** -k))
        out.append((S, E))
    return out


@pytest.mark.parametrize("b", [0.0, 1.0, 1.0 / 3.0, 0.5, 0.7123456789])
def test_kernel_matches_the_exact_expansion(b):
    # the contraction rounds the table once and sums in floats, so S is
    # not the exact table's bit for bit; per level it is within 1e-11 of
    # that level's largest exact entry, plus 2e-14 max|S|, and every entry
    # within 16 u of its condition sum.  The cubic seam at N = 9, R = 20
    # reaches level 12 at k up to 19, where gamma in powers of k cancels
    # terms of size k^(2l); the binomial basis keeps it within the level
    # bound there too
    cases = [("exponential", exponential_map(), 33, 67, None),
             ("cubic_seam", cubic_seam_map(), 33, 67, None),
             ("cubic_seam", cubic_seam_map(), 9, 31, 20)]
    for name, w, N, M, R in cases:
        spec = domain_spec(w, N, M, b=b)
        bun = build_kernel(w, spec, b, R=R)
        R = bun.rows
        for ker, (S, E) in zip(bun.kernels, _exact_kernel(w, spec, b, R)):
            err = np.array([[abs(complex(mpmath.mpc(ker.S[i, k]) - S[i, k]))
                             for k in range(R)] for i in range(R)])
            ref = np.array([[abs(complex(S[i, k])) for k in range(R)] for i in range(R)])
            assert np.all(err <= 16 * 2.0**-53 * E), (name, N)
            for level in range(R):
                band = np.arange(level, R), np.arange(R - level)
                assert np.all(err[band] <= 1e-11 * ref[band].max() + 2e-14 * ref.max()), \
                    (name, N, level)


def _count_contractions(monkeypatch):
    """The levels handed to the contraction, in order."""
    levels = []
    contract = symbolic_kernel._contract

    def counted(tables, betas):
        levels.extend(table.seqs[0].level for table in tables)
        return contract(tables, betas)

    monkeypatch.setattr(symbolic_kernel, "_contract", counted)
    return levels


@pytest.mark.parametrize("b", [0.5, 0.7123456789])
def test_piecewise_linear_kernel_collapses_level_zero_only(monkeypatch, b):
    # every jet past Dw is exactly 0, so every beta past level 0 is 0 and
    # those levels are not contracted; S is still the scalar reference's
    w = piecewise_linear_map([0.0, 0.3, 0.7], [0.0, 0.45, 0.8])
    spec = domain_spec(w, 9, 19, b=b)
    levels = _count_contractions(monkeypatch)
    bun = build_kernel(w, spec, b, R=64)
    assert levels == [0]
    assert len(bun.kernels) == 3
    for ker, ref in zip(bun.kernels, _kernel_by_fractions(w, spec, bun)):
        assert np.array_equal(ker.S, ref)


@pytest.mark.parametrize("R", [6, 20, 64])
def test_smooth_jets_collapse_every_reachable_level(monkeypatch, R):
    # the cubic seam's D^2 w is nonzero on both sides, so no level is dead
    w = cubic_seam_map()
    spec = domain_spec(w, 9, 31, b=0.3)
    levels = _count_contractions(monkeypatch)
    build_kernel(w, spec, R=R)
    assert levels == list(range(min(R, MAX_LEVEL_DEFAULT + 1)))


def test_a_map_contracts_once_for_every_b(monkeypatch):
    # C depends on the map and R alone: the builds at b and 1 - b of a
    # dual, and any later b, read the map's one contraction; another R
    # beyond the level cap reads it too, a smaller R replaces it
    w = cubic_seam_map()
    spec = domain_spec(w, 9, 31, b=0.3)
    levels = _count_contractions(monkeypatch)
    buns = [build_kernel(w, spec, b, R=20) for b in (0.3, 0.7, 0.5)]
    build_kernel(w, spec, 0.3, R=64)
    assert levels == list(range(MAX_LEVEL_DEFAULT + 1))
    con = w._contraction
    assert not con.C.flags.writeable and not con.jets.flags.writeable
    build_kernel(w, spec, 0.3, R=6)
    assert levels == list(range(MAX_LEVEL_DEFAULT + 1)) + list(range(6))
    assert w._contraction is not con
    for b, bun in zip((0.3, 0.7, 0.5), buns):
        fresh = cubic_seam_map()
        ref = build_kernel(fresh, domain_spec(fresh, 9, 31, b=0.3), b, R=20)
        for ker, ref_ker in zip(bun.kernels, ref.kernels):
            assert ker.S.tobytes() == ref_ker.S.tobytes()


def _forward_differences(values):
    """[D^m v(0) for m = 0 ..]: the Newton coefficients of values at 0, 1, ..."""
    out, row = [], list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


@pytest.mark.parametrize("level", [1, 2, 5, 12])
def test_gamma_ratio_is_the_rounded_newton_table(level):
    # the float table the contraction reads: gamma over binomials in k,
    # each exact coefficient rounded once; from the power form's values
    # at k = 0 .. 2l by iterated differences, not from num itself
    table = gamma_tables(MAX_LEVEL_DEFAULT)[level]
    assert not table.ratio.flags.writeable
    assert table.ratio.shape == table.num.shape
    den, nums = _power(table)
    for n in range(len(table.seqs)):
        for i in range(level + 1):
            num = nums[n, i]
            values = [sum(int(v) * k**j for j, v in enumerate(num)) for k in range(num.size)]
            want = [float(F(d, den)) for d in _forward_differences(values)]
            assert table.ratio[n, i].tolist() == want, (n, i)


@pytest.mark.parametrize("b", [0.0, 0.3, 0.7123456789, 1.0])
def test_gamma_values_vanish_exactly_at_their_integer_roots(b):
    # gamma_{l,n}(k) = 0 for k < l at every b, and at b = 0 for every
    # k < l + #factors: in the binomial basis those zeros are exact
    # elsewhere, within 1e-13 of the sum of the terms' magnitudes
    ks = np.arange(30.0)
    for table in gamma_tables(MAX_LEVEL_DEFAULT)[1:]:
        C = symbolic_kernel._contract((table,), [np.eye(len(table.seqs))])
        g = symbolic_kernel._evaluate(C, b, ks)[:, 0]
        size = symbolic_kernel._evaluate(np.abs(C), b, ks)[:, 0]
        level = table.seqs[0].level
        den, nums = _power(table)
        for n, seq in enumerate(table.seqs):
            roots = level + len(seq.parts) if b == 0.0 else level
            assert not g[n, :roots].any(), (level, seq.parts)
            values, scale = _gamma_integers(nums[n], b, range(ks.size))
            exact = np.array([float(F(v, scale * den)) for v in values])
            assert np.all(np.abs(g[n] - exact) <= 1e-13 * size[n]), (level, seq.parts)


@pytest.mark.parametrize("name", sorted(BUILTIN_MAPS))
def test_stored_jump_slopes_are_the_side_jets(name):
    w = BUILTIN_MAPS[name]()
    assert sorted(w._jump_slopes) == sorted(w.singularities)
    for xi, (left, right) in w._jump_slopes.items():
        for got, side in ((left, "left"), (right, "right")):
            want = w.side_jets(xi, 1, side)[1]
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (name, xi, side)


def test_kernel_refuses_divergent_geometry():
    # skewed index sets push one decay ratio below 1
    w = exponential_map()
    spec = domain_spec(w, 33, 67, L_N=4, L_M=10, b=0.5)
    with pytest.raises(ValueError, match=r"x=0"):
        build_kernel(w, spec)


@pytest.mark.parametrize("name", ["exponential", "cubic_seam", "spline", "piecewise_linear"])
@pytest.mark.parametrize("N,M,L_N,L_M", [(33, 67, None, None), (32, 66, None, None),
                                         (33, 129, 12, 70), (16, 66, 9, 30)])
def test_kernel_ratios_are_the_feasibility_ratios(name, N, M, L_N, L_M):
    # one formula for J: the kernel's one-sided ratios are
    # singularity_decay_ratio's, and the report's J is the smaller one
    w = BUILTIN_MAPS[name]()
    spec = domain_spec(w, N, M, L_N=L_N, L_M=L_M)
    bun = build_kernel(w, spec, R=4)
    for ker in bun.kernels:
        assert ker.J_plus == singularity_decay_ratio(w, spec, ker.xi, "right")
        assert ker.J_minus == singularity_decay_ratio(w, spec, ker.xi, "left")
        assert min(ker.J_plus, ker.J_minus) == spec.feasibility.J[ker.xi]
    assert min(min(k.J_plus, k.J_minus) for k in bun.kernels) == spec.feasibility.J_min


def test_kernel_refuses_another_map():
    # the spec's feasibility vouches for its own map only; an equal map
    # built separately is another map
    spec = domain_spec(exponential_map(), 33, 67)
    with pytest.raises(ValueError, match="spec's map"):
        build_kernel(exponential_map(), spec)


def test_identity_map_has_no_kernels():
    w = identity_map()
    spec = domain_spec(w, 33, 67, b=0.5)
    bun = build_kernel(w, spec)
    assert bun.kernels == ()
    assert math.isinf(spec.feasibility.J_min)


@pytest.mark.parametrize("w", [exponential_map(), piecewise_linear_map()],
                         ids=["exp", "pl"])
def test_factored_tail_rows_match_quadrature(w):
    # P diag, polynomial row/column bases, and S reassemble the smooth-tail
    # expansion of the exact operator at rows far outside the band
    spec = domain_spec(w, 9, 19, b=0.5)
    bun = build_kernel(w, spec)
    EM, FN, R = spec.row_radius, spec.col_radius, bun.rows
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
