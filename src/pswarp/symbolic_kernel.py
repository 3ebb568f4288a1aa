"""Symbolic derivative expansion and the per-singularity jump kernel.

Repeated differentiation of the weighted phase factor
    phi(x) = exp(a w(x)) (Dw(x))^b
produces, at each order k, a finite sum of terms graded by how many powers
of (a Dw) have been traded for higher derivatives of w:

    D^k phi = exp(a w) sum_l alpha_{k,l} (a Dw)^{k-l},
    alpha_{k,l} = sum_n beta_{l,n} gamma_{l,n}(k).

Each sequence n at level l corresponds to a partition of l: a part of size
j contributes one factor D^{j+1} w, and the product is normalized by a
matching power of Dw.  The scalar beta_{l,n} carries the map jets; the
polynomial gamma_{l,n}(k), with coefficients polynomial in the weight
exponent b, counts how many differentiation paths reach that sequence.
The gammas satisfy a first-order difference equation in k, solved exactly
by Bernoulli-polynomial antidifferences, so the whole table is rational.

The one-sided jumps of D^i phi at a singularity feed the low-rank
aliasing correction; the kernel matrix built here is its middle factor.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import cmath
import math

import numpy as np

from ._ratpoly import RatPoly2

MAX_LEVEL_DEFAULT = 12
KERNEL_TOL_DEFAULT = 1e-12
ROW_CAP = 64


# ---------------------------------------------------------------------------
# level sequences


@dataclass(frozen=True)
class Sequence:
    """One term shape at a given level: a partition of the level.

    parts are sorted descending; a part of size j stands for one factor
    D^{j+1} w.  dw_shift is the (negative) exponent added to the base
    (Dw)^b normalization, equal to minus the number of parts.
    """

    level: int
    parts: tuple

    @property
    def dw_shift(self) -> int:
        return -len(self.parts)

    def multiplicity(self, m: int) -> int:
        """p_m: how many factors D^m w the sequence carries (m >= 2)."""
        return sum(1 for j in self.parts if j + 1 == m)

    def factor_orders(self) -> tuple:
        """Derivative orders of the factors, e.g. (2, 2, 3)."""
        return tuple(sorted(j + 1 for j in self.parts))


def _partitions(total: int, cap: int = None):
    if total == 0:
        yield ()
        return
    cap = total if cap is None else min(cap, total)
    for first in range(cap, 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def enumerate_level(level: int) -> list:
    """All sequences at a level, in the canonical order.

    Most factors first (deepest Dw normalization), ties broken by the
    descending-sorted parts tuple; the order is fixed so table indices
    are stable across runs.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    seqs = [Sequence(level, p) for p in _partitions(level)]
    seqs.sort(key=lambda s: (-len(s.parts), s.parts))
    return seqs


@lru_cache(maxsize=None)
def gamma_tables(max_level: int) -> tuple:
    """Per-level lists of (Sequence, RatPoly2), exact.

    The difference equation driving the table: differentiating a level-l
    term either hits the exponential/Dw-power blob (adding one part of
    size 1 with weight dw_shift + b + k - l) or one of the D^m w factors
    (growing a part by one with weight p_m).  Collecting every route into
    a level-(l+1) sequence gives its forward difference in k; the
    antidifference with gamma(0) = 0 closes the level.
    """
    levels = [[(Sequence(0, ()), RatPoly2.const(1))]]
    b = RatPoly2.var_b()
    k = RatPoly2.var_k()
    for level in range(max_level):
        delta = {}
        for seq, gamma in levels[level]:
            # route 1: new factor D^2 w from the exponential and Dw powers
            target = tuple(sorted(seq.parts + (1,), reverse=True))
            r = b + k + RatPoly2.const(seq.dw_shift - level)
            delta[target] = delta.get(target, RatPoly2()) + gamma * r
            # route 2: deepen one existing factor D^m w -> D^{m+1} w
            for j in sorted(set(seq.parts)):
                grown = list(seq.parts)
                grown.remove(j)
                target = tuple(sorted(grown + [j + 1], reverse=True))
                mult = seq.multiplicity(j + 1)
                delta[target] = delta.get(target, RatPoly2()) + gamma * mult
        nxt = []
        for seq in enumerate_level(level + 1):
            nxt.append((seq, delta[seq.parts].antidifference_k()))
        levels.append(nxt)
    return tuple(tuple(lv) for lv in levels)


def gamma_level(level: int, max_level: int = None) -> list:
    """[(Sequence, RatPoly2)] for one level."""
    top = level if max_level is None else max_level
    return list(gamma_tables(max(top, level))[level])


def antidifference(poly: RatPoly2) -> RatPoly2:
    """Exact antidifference in the order variable, zero at the origin."""
    return poly.antidifference_k()


# ---------------------------------------------------------------------------
# numeric expansion coefficients


def _beta_value(jets, seq: Sequence, b: float) -> float:
    """beta_{l,n} from one-sided jet values D^m w (jets[m])."""
    dw = jets[1]
    val = dw ** (b + seq.dw_shift)
    for j in seq.parts:
        val *= jets[j + 1]
    return float(val)


def alpha_eval(warp, x: float, side: str, b: float, k: int, level: int,
               max_level: int = MAX_LEVEL_DEFAULT) -> float:
    """alpha_{k,level} at one side of x: sum_n beta_{l,n} gamma_{l,n}(k)."""
    if level < 0 or k < 0:
        raise ValueError("order and level must be >= 0")
    if level > k:
        return 0.0
    if level > max_level:
        raise ValueError(f"level {level} beyond table depth {max_level}")
    jets = warp.side_jets(x, level + 1, side)
    bq = Fraction(b)
    total = 0.0
    for seq, gamma in gamma_tables(max_level)[level]:
        g = float(gamma.eval(bq, k))
        if g:
            total += _beta_value(jets, seq, b) * g
    return total


def expansion_derivative(warp, x: float, side: str, a: complex, b: float,
                         k: int, max_level: int = MAX_LEVEL_DEFAULT) -> complex:
    """D^k [exp(a w) (Dw)^b] rebuilt from the symbolic tables.

    Exact once max_level >= k; the independent check is jet arithmetic in
    the quadrature oracle.
    """
    if k > max_level:
        raise ValueError("order beyond table depth; raise max_level")
    jets = warp.side_jets(x, k + 1, side)
    dw = jets[1]
    w0 = jets[0]
    total = 0.0 + 0.0j
    for level in range(min(k, max_level) + 1):
        al = alpha_eval(warp, x, side, b, k, level, max_level=max_level)
        total += al * (a * dw) ** (k - level)
    return total * cmath.exp(a * w0)


# ---------------------------------------------------------------------------
# exact collapse of the b powers


@lru_cache(maxsize=None)
def _integer_tables(max_level: int) -> tuple:
    """gamma_tables(max_level) over one common denominator per k power.

    Returns (top, levels): per level and sequence, one (den, nums) pair
    per k power j, with the gamma's coefficient of b^i k^j equal to
    nums[i] / den exactly; top is the highest b power in the tables.
    """
    top = 0
    out = []
    for level in gamma_tables(max_level):
        rows = []
        for seq, gamma in level:
            cols = []
            for col in gamma.k_coefficients():
                den = math.lcm(*(v.denominator for v in col.values()))
                nums = [0] * (max(col, default=-1) + 1)
                for i, v in col.items():
                    nums[i] = v.numerator * (den // v.denominator)
                top = max(top, len(nums) - 1)
                cols.append((den, tuple(nums)))
            rows.append((seq, tuple(cols)))
        out.append(tuple(rows))
    return top, tuple(out)


def _collapse_b(max_level: int, b: float) -> list:
    """Per level, (sequences, k coefficients at this b), correctly rounded.

    The coefficients come as one (sequences, max k power + 1) matrix in
    ascending k powers, zero-padded.  b is a float, so b = m / 2^e
    exactly.  Each k coefficient sum_i (nums[i] / den) (m / 2^e)^i is one
    exact integer ratio over den 2^(e D), with D the top b power of the
    tables, rounded once by int / int division: the same floats as
    collapsing through Fraction.
    """
    top, levels = _integer_tables(max_level)
    m, two_e = float(b).as_integer_ratio()
    shift = two_e.bit_length() - 1
    bpow = [m**i << (shift * (top - i)) for i in range(top + 1)]
    out = []
    for level in levels:
        seqs = tuple(seq for seq, _ in level)
        width = max(len(cols) for _, cols in level)
        coef = np.zeros((len(seqs), width))
        for row, (_, cols) in enumerate(level):
            for j, (den, nums) in enumerate(cols):
                acc = 0
                for n, p in zip(nums, bpow):
                    if n:
                        acc += n * p
                coef[row, j] = acc / (den << (shift * top))
        out.append((seqs, coef))
    return out


# ---------------------------------------------------------------------------
# jump kernel


@dataclass
class SingularityKernel:
    """Middle factor of the aliasing correction at one singularity."""

    xi: float
    image: float  # w(xi) mod 1, the phase knot on the input side
    S: np.ndarray  # (R, R) lower triangular in (row i, column j)
    J_plus: float
    J_minus: float


@dataclass
class KernelBundle:
    b: float
    rows: int  # R: number of jump orders kept
    max_level: int
    row_radius: float  # (M/2)(1 - mu_M): effective output half-bandwidth
    col_radius: float  # (N/2)(1 + mu_N): input scaling of the phase powers
    kernels: list

    @property
    def J_min(self):
        vals = [min(k.J_plus, k.J_minus) for k in self.kernels]
        return min(vals) if vals else math.inf


def choose_rows(J_min: float, kernel_tol: float = KERNEL_TOL_DEFAULT,
                cap: int = ROW_CAP) -> int:
    """Smallest R with J_min^-R below tolerance, capped."""
    if J_min <= 1.0:
        raise ValueError("decay ratio at or below 1; no finite R converges")
    if math.isinf(J_min):
        return 1
    R = max(1, math.ceil(-math.log(kernel_tol) / math.log(J_min)))
    return min(R, cap)


def build_kernel(warp, spec, b: float = None, R: int = None,
                 kernel_tol: float = KERNEL_TOL_DEFAULT,
                 max_level: int = MAX_LEVEL_DEFAULT) -> KernelBundle:
    """Assemble the jump kernels for every singularity of the map.

    Refuses when any one-sided decay ratio is at or below 1: the
    correction series would diverge there, and the sampling geometry has
    to change (more output samples, or less skewed index sets).
    """
    b = spec.b if b is None else float(b)
    M = spec.M
    N = spec.N
    row_radius = 0.5 * M * (1.0 - spec.output_set.mu)
    col_radius = 0.5 * N * (1.0 + spec.input_set.mu)
    if row_radius <= 0:
        raise ValueError("output index set fully skewed; row scale vanished")

    sides = {}
    for xi in warp.singularities:
        dplus = float(warp.side_jets(xi, 1, "right")[1])
        dminus = float(warp.side_jets(xi, 1, "left")[1])
        Jp = row_radius / (col_radius * dplus)
        Jm = row_radius / (col_radius * dminus)
        sides[xi] = (Jp, Jm)
        if min(Jp, Jm) <= 1.0:
            raise ValueError(
                f"aliasing correction diverges at singularity x={xi:g}: "
                f"decay ratio J={min(Jp, Jm):.5g} <= 1"
            )

    if R is None:
        J_min = min((min(v) for v in sides.values()), default=math.inf)
        R = choose_rows(J_min, kernel_tol) if sides else 1
    R = int(R)
    if R < 1:
        raise ValueError("R must be >= 1")

    # levels past R - 1 pair with no (row, column) of S
    levels = _collapse_b(max_level, b)[:R]
    rows = np.arange(R, dtype=np.float64)
    # gamma_{l,n}(i) at every row i: Horner from the top k power, the same
    # operations per entry as evaluating one polynomial at a time
    gammas = []
    for seqs, coef in levels:
        g = np.zeros((len(seqs), R))
        for j in range(coef.shape[1] - 1, -1, -1):
            g = g * rows + coef[:, j, None]
        gammas.append(g)
    scale = -1j * math.pi * M * (1.0 - spec.output_set.mu)  # -2j pi row_radius

    kernels = []
    for xi in warp.singularities:
        Jp, Jm = sides[xi]
        jets_p = warp.side_jets(xi, max_level + 1, "right")
        jets_m = warp.side_jets(xi, max_level + 1, "left")
        jp = np.array([Jp ** (-k) for k in range(R)])
        jm = np.array([Jm ** (-k) for k in range(R)])
        # S[i, k] pairs level i - k; levels past max_level are dropped,
        # suppressed by scale^(k-i-1) far below tol
        S = np.zeros((R, R), dtype=np.complex128)
        for level, ((seqs, _), g) in enumerate(zip(levels, gammas)):
            bp = np.array([_beta_value(jets_p, seq, b) for seq in seqs])
            bm = np.array([_beta_value(jets_m, seq, b) for seq in seqs])
            # alpha_{i,level}: summed over the sequences in table order
            ap = np.add.accumulate(bp[:, None] * g, axis=0)[-1]
            am = np.add.accumulate(bm[:, None] * g, axis=0)[-1]
            k = np.arange(R - level)
            S[k + level, k] = scale ** (-level - 1) * (
                ap[level:] * jp[k] - am[level:] * jm[k])
        kernels.append(
            SingularityKernel(
                xi=float(xi),
                image=float(warp.eval(xi) % 1.0),
                S=S,
                J_plus=Jp,
                J_minus=Jm,
            )
        )
    return KernelBundle(
        b=b,
        rows=R,
        max_level=max_level,
        row_radius=row_radius,
        col_radius=col_radius,
        kernels=kernels,
    )


# ---------------------------------------------------------------------------
# exact-table export


def tables_as_json(max_level: int = 4) -> dict:
    """Level tables with exact rational polynomial strings."""
    out = {"levels": []}
    for level in range(max_level + 1):
        entries = []
        for n, (seq, gamma) in enumerate(gamma_tables(max_level)[level], start=1):
            entries.append(
                {
                    "index": n,
                    "derivative_factors": list(seq.factor_orders()),
                    "dw_exponent_shift": seq.dw_shift,
                    "polynomial": gamma.to_string(),
                }
            )
        out["levels"].append({"level": level, "sequences": entries})
    return out


def kernel_as_json(bundle: KernelBundle) -> dict:
    ker = []
    for k in bundle.kernels:
        ker.append(
            {
                "x": k.xi,
                "image": k.image,
                "J_plus": k.J_plus,
                "J_minus": k.J_minus,
                "S_real": k.S.real.tolist(),
                "S_imag": k.S.imag.tolist(),
            }
        )
    return {
        "weight_exponent": bundle.b,
        "rows": bundle.rows,
        "max_level": bundle.max_level,
        "row_radius": bundle.row_radius,
        "col_radius": bundle.col_radius,
        "singularities": ker,
    }
