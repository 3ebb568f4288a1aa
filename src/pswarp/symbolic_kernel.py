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
gamma_tables holds it in one exact form, built directly in integers: per
level one common denominator and per sequence an integer coefficient
array in (b, k).

Numeric callers need the k coefficients at a float b, correctly rounded,
and then evaluate the k polynomials in floats.  The collapse at b is one
batched pass over every level in use (_collapse_levels): each nonzero
coefficient num / den is stored once as a double-double hi + lo, and a
compensated Horner scheme in b (TwoProd by Dekker's split, TwoSum) leaves
each k coefficient unevaluated as s + c, within a rigorous bound
E = 2 (2n + 2)^2 u^2 p~(|b|) plus an underflow term, n the b degree and
p~ the Horner sum of |hi|.  A cell is taken as y = fl(s + c) when the
residual of that sum plus E stays below half the smaller ulp gap next to
y, which makes y the correctly rounded value; the rest (about 0.07% of
the cells at a random b, mostly exact zeros and near-ties) take the exact
integer sum, as _collapse_b does for a whole level.  So every k
coefficient is the exact collapse's float, bit for bit.  The k
polynomials of all those levels then run one Horner in k.

The betas of one level come as one table over a stack of jet rows
(_beta_table): Dw^(b + shift) once per row and distinct shift, then one
product per part column, with short sequences padded by an exact 1.0, so
every entry is the scalar definition's float.  A level whose betas are all
exactly 0 contributes nothing to any jump, and build_kernel leaves it out
of the collapse: a piecewise-linear map, whose jets past Dw all vanish,
collapses level 0 only.

The one-sided jumps of D^i phi at a singularity feed the low-rank
aliasing correction; the kernel matrix built here is its middle factor.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
import cmath
import math

import numpy as np

from ._ratpoly import bernoulli_polynomial
from .domain_indexing import _resolve_b, singularity_decay_ratio

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


@dataclass(frozen=True, eq=False)
class GammaLevel:
    """gamma_{l,n} for every sequence n of one level, over one denominator.

    num[n, i, j] / den is the coefficient of b^i k^j in gamma_{l,n}, with
    i <= l and j <= 2l.  The entries are read-only Python ints, and den is
    reduced against all of them.
    """

    seqs: tuple
    den: int
    num: np.ndarray  # (sequences, l + 1, 2l + 1), dtype object

    @cached_property
    def nonzero(self) -> tuple:
        """(cells, starts, powers, values): the nonzero num entries by k coefficient.

        Grouped by cell n (2l + 1) + j of the (sequences, 2l + 1) k
        coefficients: cells[c] owns values[starts[c]:starts[c + 1]], whose
        b exponents are powers.  About 30% of the entries are nonzero.
        """
        by_cell = self.num.transpose(0, 2, 1)  # (sequences, 2l + 1, l + 1)
        n, j, i = np.nonzero(by_cell != 0)
        cells, starts = np.unique(n * by_cell.shape[1] + j, return_index=True)
        return cells, starts, i, by_cell[n, j, i]

    @cached_property
    def double_double(self) -> tuple:
        """(hi, lo): the nonzero num / den entries as double-double floats.

        Aligned with nonzero's values: hi is num / den correctly rounded,
        lo the exact remainder num / den - hi correctly rounded, so
        |num / den - hi - lo| <= 2^-53 |lo| and |lo| <= 2^-53 |hi|.
        """
        hi = [v / self.den for v in self.nonzero[3].tolist()]
        lo = []
        for v, h in zip(self.nonzero[3].tolist(), hi):
            p, q = h.as_integer_ratio()
            lo.append((v * q - p * self.den) / (self.den * q))
        return np.array(hi, dtype=np.float64), np.array(lo, dtype=np.float64)

    @cached_property
    def factors(self) -> tuple:
        """(shifts, which, orders): the beta_{l,n} factors in table order.

        Sequence n takes Dw to the power b + shifts[which[n]] (its
        dw_shift; shifts lists each distinct one once) and multiplies by
        D^m w for m in orders[n], descending, padded to the level's most
        parts with -1: an index to a 1.0 appended after the jets.
        """
        shifts = sorted({seq.dw_shift for seq in self.seqs})
        which = np.array([shifts.index(seq.dw_shift) for seq in self.seqs])
        orders = np.full((len(self.seqs), max(len(seq.parts) for seq in self.seqs)), -1)
        for n, seq in enumerate(self.seqs):
            orders[n, :len(seq.parts)] = [j + 1 for j in seq.parts]
        return tuple(shifts), which, orders


def _antidifference_matrix(degree: int) -> tuple:
    """(den, A): the antidifference in k of k^m is sum_r A[m, r] k^r / den.

    Rows m = 0 .. degree, columns r = 0 .. degree + 1; the antidifference
    (B_{m+1}(k) - B_{m+1}(0)) / (m + 1) vanishes at k = 0, so column 0 is
    zero.
    """
    rows = [[Fraction(0)] + [c / (m + 1) for c in bernoulli_polynomial(m + 1)[1:]]
            + [Fraction(0)] * (degree - m)
            for m in range(degree + 1)]
    den = math.lcm(*(v.denominator for row in rows for v in row))
    A = np.array([[v.numerator * (den // v.denominator) for v in row] for row in rows],
                 dtype=object)
    return den, A


@lru_cache(maxsize=None)
def gamma_tables(max_level: int) -> tuple:
    """GammaLevel for levels 0 .. max_level, exact.

    The difference equation driving the table: differentiating a level-l
    term either hits the exponential/Dw-power blob (adding one part of
    size 1 with weight dw_shift + b + k - l) or one of the D^m w factors
    (growing a part by one with weight p_m).  Collecting every route into
    a level-(l+1) sequence gives its forward difference in k; the
    antidifference with gamma(0) = 0 closes the level.  In integers over
    the level's denominator, the first route is two shifts and a scale,
    the second a scale, and the antidifference one matrix product.
    """
    num = np.ones((1, 1, 1), dtype=object)
    num.flags.writeable = False
    levels = [GammaLevel((Sequence(0, ()),), 1, num)]
    for level in range(max_level):
        prev = levels[-1]
        seqs = tuple(enumerate_level(level + 1))
        row = {seq.parts: n for n, seq in enumerate(seqs)}
        delta = np.zeros((len(seqs), level + 2, 2 * level + 2), dtype=object)
        for seq, g in zip(prev.seqs, prev.num):
            # route 1: new factor D^2 w from the exponential and Dw powers,
            # weight b + k + dw_shift - l: a shift in b, a shift in k, a scale
            d = delta[row[tuple(sorted(seq.parts + (1,), reverse=True))]]
            d[1:, :-1] += g
            d[:-1, 1:] += g
            d[:-1, :-1] += (seq.dw_shift - level) * g
            # route 2: deepen one existing factor D^m w -> D^{m+1} w
            for j in sorted(set(seq.parts)):
                grown = list(seq.parts)
                grown.remove(j)
                target = tuple(sorted(grown + [j + 1], reverse=True))
                delta[row[target], :-1, :-1] += seq.multiplicity(j + 1) * g
        den_a, A = _antidifference_matrix(2 * level + 1)
        num = delta @ A
        den = prev.den * den_a
        common = math.gcd(den, *num.ravel().tolist())
        num //= common
        num.flags.writeable = False
        levels.append(GammaLevel(seqs, den // common, num))
    return tuple(levels)


# ---------------------------------------------------------------------------
# numeric expansion coefficients


def _beta_table(jets: np.ndarray, table: GammaLevel, b: float) -> np.ndarray:
    """beta_{l,n} of every sequence n of one level on every row of jets.

    jets holds one-sided jet values D^m w per row, m = 0 .. l + 1 or more;
    returns (rows, sequences).  Per entry the operations of the scalar
    definition, in its order: Dw^(b + dw_shift) as a numpy scalar power,
    formed once per row and distinct shift, then one product per part,
    descending, where a padded part multiplies by an exact 1.0.
    """
    shifts, which, orders = table.factors
    rows = jets.shape[0]
    powers = np.array([[dw ** (b + s) for s in shifts] for dw in jets[:, 1]],
                      dtype=np.float64).reshape(rows, len(shifts))
    beta = powers[:, which]
    padded = np.concatenate([jets, np.ones((rows, 1))], axis=1)
    for col in orders.T:
        beta *= padded[:, col]
    return beta


def alpha_eval(warp, x: float, side: str, b: float, k: int, level: int) -> float:
    """alpha_{k,level} at one side of x: sum_n beta_{l,n} gamma_{l,n}(k)."""
    if level < 0 or k < 0:
        raise ValueError("order and level must be >= 0")
    if level > k:
        return 0.0
    if level > MAX_LEVEL_DEFAULT:
        raise ValueError(f"level {level} beyond table depth {MAX_LEVEL_DEFAULT}")
    jets = warp.side_jets(x, level + 1, side)
    table = gamma_tables(MAX_LEVEL_DEFAULT)[level]
    g = _gamma_values((table,), b, np.array([float(k)]))[0][:, 0]
    return float(_beta_table(jets[None], table, b)[0] @ g)


def expansion_derivative(warp, x: float, side: str, a: complex, b: float,
                         k: int) -> complex:
    """D^k [exp(a w) (Dw)^b] rebuilt from the symbolic tables.

    Exact for k <= MAX_LEVEL_DEFAULT; the independent check is jet
    arithmetic in the quadrature oracle.
    """
    if k > MAX_LEVEL_DEFAULT:
        raise ValueError(f"order {k} beyond table depth {MAX_LEVEL_DEFAULT}")
    jets = warp.side_jets(x, k + 1, side)
    dw = jets[1]
    w0 = jets[0]
    total = 0.0 + 0.0j
    for level in range(k + 1):
        al = alpha_eval(warp, x, side, b, k, level)
        total += al * (a * dw) ** (k - level)
    return total * cmath.exp(a * w0)


# ---------------------------------------------------------------------------
# collapse of the b powers: compensated Horner, exact where in doubt


def _b_scale(table: GammaLevel, b: float) -> tuple:
    """(bpow, den): b^i = bpow[i] / den exactly, i = 0 .. l, in integers.

    b is a float, so b = m / 2^e with integers m, e >= 0; then
    bpow[i] = m^i 2^(e (l - i)) and den = table.den 2^(e l), which folds
    the table's denominator in.
    """
    m, two_e = float(b).as_integer_ratio()
    shift = two_e.bit_length() - 1
    top = table.num.shape[1] - 1
    bpow = np.array([m**i << (shift * (top - i)) for i in range(top + 1)],
                    dtype=object)
    return bpow, table.den << (shift * top)


def _collapse_b(table: GammaLevel, b: float) -> np.ndarray:
    """One level's k coefficients at this b, correctly rounded, in integers.

    Returns a (sequences, 2l + 1) matrix in ascending k powers.  Each k
    coefficient sum_i (num[i] / den) b^i is one exact integer ratio
    (_b_scale), rounded once by int / int division: the same floats as
    collapsing through Fraction.  Only the nonzero entries are summed
    (GammaLevel.nonzero); a cell without any is exactly 0.

    This is the reference of the fast path, _collapse_levels, which
    agrees with it bit for bit: the fast path evaluates every cell by a
    compensated Horner scheme in b and certifies its rounding, and the few
    cells it cannot certify take these integer sums cell by cell
    (_exact_cells).
    """
    bpow, den = _b_scale(table, b)
    cells, starts, powers, values = table.nonzero
    acc = np.add.reduceat(values * bpow[powers], starts)
    out = np.zeros(table.num.shape[::2])
    out.flat[cells] = acc / den
    return out


def _exact_cells(table: GammaLevel, b: float, which: np.ndarray) -> list:
    """_collapse_b's value at the nonzero cells table.nonzero[0][which]."""
    bpow, den = _b_scale(table, b)
    _, starts, powers, values = table.nonzero
    ends = np.append(starts[1:], len(values))
    return [sum((values[lo:hi] * bpow[powers[lo:hi]]).tolist()) / den
            for lo, hi in zip(starts[which], ends[which])]


# Dekker's split: x = hi + lo with hi on 26 bits, exact in round to nearest
_SPLIT = 2.0**27 + 1.0
_U = 2.0**-53  # unit roundoff of binary64
_ETA = 2.0**-1074  # least subnormal: the absolute error of an underflow


@dataclass(frozen=True, eq=False)
class _Stack:
    """The gamma tables of several levels laid out for one pass in b and k.

    The k coefficients of every level form one stacked (rows, width)
    matrix: each table's sequences are the rows blocks[t] (start, stop),
    widest level first, and the columns are ascending k powers, zero past
    a level's 2l.  The rows of k degree >= j are then the prefix
    k_active[j].

    Each nonzero cell c of that matrix is the polynomial
    sum_i (hi[i, c] + lo[i, c]) b^i.  Cells run in descending b degree, so
    the cells of degree >= i are the prefix b_active[i].  dest[c] is the
    cell's flat index in the matrix; table[c] and cell[c] locate it in its
    level's nonzero cells, for the exact fallback.
    """

    hi: np.ndarray  # (b degree + 1, cells)
    lo: np.ndarray
    habs: np.ndarray  # |hi|
    b_active: tuple
    dest: np.ndarray
    table: np.ndarray
    cell: np.ndarray
    blocks: tuple
    k_active: tuple
    shape: tuple


# one entry per set of live levels; a map's vanishing jets fix that set
@lru_cache(maxsize=16)
def _stack(tables: tuple) -> _Stack:
    widths = [t.num.shape[2] for t in tables]
    width = max(widths)
    top = max(t.num.shape[1] for t in tables) - 1
    starts, row = {}, 0
    for index in sorted(range(len(tables)), key=lambda t: -widths[t]):
        starts[index], row = row, row + tables[index].num.shape[0]
    degree, dest, owner, words = [], [], [], []
    for index, t in enumerate(tables):
        cells, first, powers, _ = t.nonzero
        entry_cell = np.repeat(np.arange(len(cells)), np.diff(np.append(first, len(powers))))
        block = np.zeros((2, top + 1, len(cells)))
        block[:, powers, entry_cell] = t.double_double
        degree.append(np.maximum.reduceat(powers, first))
        dest.append((starts[index] + cells // widths[index]) * width + cells % widths[index])
        owner.append(np.full(len(cells), index))
        words.append(block)
    degree = np.concatenate(degree)
    order = np.argsort(-degree, kind="stable")
    hi, lo = np.concatenate(words, axis=2)[:, :, order]
    return _Stack(
        hi=hi, lo=lo, habs=np.abs(hi),
        b_active=tuple(int(np.count_nonzero(degree >= i)) for i in range(top + 1)),
        dest=np.concatenate(dest)[order],
        table=np.concatenate(owner)[order],
        cell=np.concatenate([np.arange(len(t.nonzero[0])) for t in tables])[order],
        blocks=tuple((starts[t], starts[t] + tables[t].num.shape[0])
                     for t in range(len(tables))),
        k_active=tuple(sum(t.num.shape[0] for t, w in zip(tables, widths) if w > j)
                       for j in range(width)),
        shape=(row, width),
    )


def _collapse_levels(tables: tuple, b: float) -> np.ndarray:
    """The k coefficients of every level in tables at this b, stacked.

    The layout is _stack(tables)'s: table t's rows are blocks[t], and its
    first 2l + 1 columns are _collapse_b's matrix bit for bit, the rest 0.

    Every cell runs one compensated Horner scheme in b (Graillat, Langlois
    & Louvet 2005): TwoProd by Dekker's split and TwoSum carry the
    rounding errors of the hi words into a correction c, which also takes
    the lo words, and the result stays unevaluated as (s, c).  With n the
    widest b degree,
        |s + c - p(b)| <= E = 2 (2n + 2)^2 u^2 p~(|b|) + 16 (n + 1) eta max(1, |b|)^n,
    where p~ is the Horner sum of |hi| at |b|, u = 2^-53 and eta the least
    subnormal: (gamma_{2n+1}^2 + u^2) p~ bounds the compensated Horner and
    the lo words' rounding, the factor 2 the rounding of p~ itself, and
    the eta term underflow.  With y + r = s + c (TwoSum), y is the
    correctly rounded p(b) when |r| + E is below half the smaller ulp
    gap next to y (Ziv's test); a cell that fails it, an exact zero or a
    tie among them, takes the exact integer sum (_exact_cells).
    """
    st = _stack(tables)
    b = float(b)
    n = st.hi.shape[0] - 1
    ab = abs(b)
    bh = b * _SPLIT - (b * _SPLIT - b)
    bl = b - bh
    # an overflow (a huge b) leaves inf or nan, which fails the test below
    with np.errstate(over="ignore", invalid="ignore"):
        s, c, bound = st.hi[n].copy(), st.lo[n].copy(), st.habs[n].copy()
        for i in range(n - 1, -1, -1):
            m = st.b_active[i]
            sv, a = s[:m], st.hi[i, :m]
            # TwoProd: p + err = s b exactly
            p = sv * b
            t = sv * _SPLIT
            sh = t - (t - sv)
            sl = sv - sh
            err = ((sh * bh - p) + sh * bl + sl * bh) + sl * bl
            # TwoSum: total + sigma = p + a exactly
            total = p + a
            z = total - p
            err += (p - (total - z)) + (a - z)
            err += st.lo[i, :m]
            c[:m] *= b
            c[:m] += err
            bound[:m] *= ab
            bound[:m] += st.habs[i, :m]
            s[:m] = total
        y = s + c
        z = y - s
        r = (s - (y - z)) + (c - z)
        E = (2 * (2 * n + 2) ** 2 * _U * _U) * bound \
            + 16 * (n + 1) * _ETA * np.float64(max(1.0, ab)) ** n
        # half the gap below |y|, the smaller one at a power of two; 0 at 0
        ay = np.abs(y)
        half = (ay - np.nextafter(ay, 0.0)) * 0.5
        sure = np.abs(r) + E < half
    out = np.zeros(st.shape)
    out.flat[st.dest] = y
    doubt = np.flatnonzero(~sure)
    for index in set(st.table[doubt].tolist()):
        cells = doubt[st.table[doubt] == index]
        out.flat[st.dest[cells]] = _exact_cells(tables[index], b, st.cell[cells])
    return out


def _gamma_values(tables: tuple, b: float, ks: np.ndarray) -> list:
    """gamma_{l,n}(k) of every level in tables at this b, for every k in ks.

    One (sequences, ks) matrix per table.  The b collapse is one batched
    pass (_collapse_levels), and the k polynomials run one Horner over the
    stacked levels from the widest top k power; a shorter level's rows
    join at their own top power (the prefix k_active), so each entry takes
    the same operations as evaluating its polynomial alone.
    """
    if not tables:
        return []
    coef = _collapse_levels(tables, b)
    st = _stack(tables)
    g = np.zeros((coef.shape[0], ks.size))
    for j in range(coef.shape[1] - 1, -1, -1):
        m = st.k_active[j]
        g[:m] *= ks
        g[:m] += coef[:m, j, None]
    return [g[start:stop] for start, stop in st.blocks]


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
    row_radius: float  # DomainSpec.row_radius
    col_radius: float  # DomainSpec.col_radius
    kernels: list

    @property
    def J_min(self):
        vals = [min(k.J_plus, k.J_minus) for k in self.kernels]
        return min(vals) if vals else math.inf


def choose_rows(J_min: float, kernel_tol: float = KERNEL_TOL_DEFAULT) -> int:
    """Smallest R with J_min^-R below tolerance, capped at ROW_CAP."""
    if J_min <= 1.0:
        raise ValueError("decay ratio at or below 1; no finite R converges")
    if math.isinf(J_min):
        return 1
    R = max(1, math.ceil(-math.log(kernel_tol) / math.log(J_min)))
    return min(R, ROW_CAP)


def build_kernel(warp, spec, b: float = None, R: int = None,
                 kernel_tol: float = KERNEL_TOL_DEFAULT) -> KernelBundle:
    """Assemble the jump kernels for every singularity of the map.

    Each level's betas cover every jump and both sides, on all 2J
    one-sided jet rows (_beta_table).  The levels with a nonzero beta
    take their gamma values at the R row orders from one batched
    collapse (_gamma_values), then per level one sequential sum over the
    sequences per row for alpha, and every jump's S band from it.  A
    level whose betas are all exactly 0 is left out, so it collapses no
    gamma and its band stays 0: on a piecewise-linear map every jet past
    Dw is 0 and only level 0 is built.  NaN or inf betas are not 0 and
    are kept.

    Refuses when any one-sided decay ratio is at or below 1: the
    correction series would diverge there, and the sampling geometry has
    to change (more output samples, or less skewed index sets).
    """
    spec.require_map(warp)
    b = _resolve_b(spec, b)
    if spec.row_radius <= 0:
        raise ValueError("output index set fully skewed; row scale vanished")

    ratios = []
    for xi in warp.singularities:
        Jp = singularity_decay_ratio(warp, spec, xi, "right")
        Jm = singularity_decay_ratio(warp, spec, xi, "left")
        ratios.append((Jp, Jm))
        if min(Jp, Jm) <= 1.0:
            raise ValueError(
                f"aliasing correction diverges at singularity x={xi:g}: "
                f"decay ratio J={min(Jp, Jm):.5g} <= 1"
            )

    if R is None:
        J_min = min((min(v) for v in ratios), default=math.inf)
        R = choose_rows(J_min, kernel_tol) if ratios else 1
    R = int(R)
    if R < 1:
        raise ValueError("R must be >= 1")

    # rows 2j and 2j + 1: right and left jets of jump j
    jets = np.array([warp.side_jets(xi, MAX_LEVEL_DEFAULT + 1, side)
                     for xi in warp.singularities for side in ("right", "left")],
                    dtype=np.float64).reshape(-1, MAX_LEVEL_DEFAULT + 2)
    jp = np.array([[Jp ** (-k) for k in range(R)] for Jp, _ in ratios]).reshape(-1, R)
    jm = np.array([[Jm ** (-k) for k in range(R)] for _, Jm in ratios]).reshape(-1, R)
    rows = np.arange(R, dtype=np.float64)
    scale = -2j * math.pi * spec.row_radius
    # S[j, i, k] pairs level i - k; levels past R - 1 pair with no (row,
    # column), and levels past MAX_LEVEL_DEFAULT are dropped.  That drop is
    # a known accuracy limit, not a remainder below tol: on the cubic seam
    # at R = 80 the level cap 12 leaves 1.5e-6 where 16 reaches 5.3e-9,
    # likely because gamma_l(k) grows like k^(2l) (ROADMAP item 1)
    S = np.zeros((len(ratios), R, R), dtype=np.complex128)
    tables = gamma_tables(MAX_LEVEL_DEFAULT)[:R]
    betas = [_beta_table(jets, table, b) for table in tables]
    live = [level for level, beta in enumerate(betas) if beta.any()]
    gammas = _gamma_values(tuple(tables[level] for level in live), b, rows)
    for level, g in zip(live, gammas):
        beta = betas[level]
        # alpha_{i,level} per jet row: summed over the sequences in table order
        alpha = np.add.accumulate(beta[:, :, None] * g, axis=1)[:, -1]
        k = np.arange(R - level)
        S[:, k + level, k] = scale ** (-level - 1) * (
            alpha[0::2, level:] * jp[:, k] - alpha[1::2, level:] * jm[:, k])

    kernels = [
        SingularityKernel(
            xi=float(xi),
            image=float(warp.eval(xi) % 1.0),
            S=S_j,
            J_plus=Jp,
            J_minus=Jm,
        )
        for xi, S_j, (Jp, Jm) in zip(warp.singularities, S, ratios)
    ]
    return KernelBundle(
        b=b,
        rows=R,
        row_radius=spec.row_radius,
        col_radius=spec.col_radius,
        kernels=kernels,
    )


# ---------------------------------------------------------------------------
# exact-table export


def tables_as_json(max_level: int = 4) -> dict:
    """Level tables with exact rational polynomial strings."""
    out = {"levels": []}
    for level, table in enumerate(gamma_tables(max_level)):
        entries = []
        for n, (seq, num) in enumerate(zip(table.seqs, table.num), start=1):
            entries.append(
                {
                    "index": n,
                    "derivative_factors": list(seq.factor_orders()),
                    "dw_exponent_shift": seq.dw_shift,
                    "polynomial": _poly_string(table.den, num),
                }
            )
        out["levels"].append({"level": level, "sequences": entries})
    return out


def _poly_string(den: int, num: np.ndarray) -> str:
    """Exact form of sum_ij num[i, j] b^i k^j / den, descending k powers.

    Examples: "1/2 k^2 + (b - 1/2) k", "0", "b - 1/2".
    """
    parts = []
    for j in range(num.shape[1] - 1, -1, -1):
        bcoef = {i: Fraction(v, den) for i, v in enumerate(num[:, j]) if v}
        if not bcoef:
            continue
        ks = _power("k", j)
        if len(bcoef) == 1:
            # a single b power: its sign can be pulled out
            (i, v), = bcoef.items()
            parts.append((v < 0, _join_coef(abs(v), f"{_power('b', i)} {ks}".strip())))
        else:
            inner = _signed_sum([(v < 0, _join_coef(abs(v), _power("b", i)))
                                 for i, v in sorted(bcoef.items(), reverse=True)])
            parts.append((False, f"({inner}) {ks}" if ks else inner))
    return _signed_sum(parts) if parts else "0"


def _power(name: str, p: int) -> str:
    return "" if p == 0 else (name if p == 1 else f"{name}^{p}")


def _join_coef(frac, suffix):
    if not suffix:
        return str(frac)
    if frac == 1:
        return suffix
    return f"{frac} {suffix}"


def _signed_sum(parts) -> str:
    """Join (negative, text) terms with their signs."""
    (neg0, text0), rest = parts[0], parts[1:]
    out = ("-" + text0) if neg0 else text0
    for neg, text in rest:
        out += (" - " if neg else " + ") + text
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
        "max_level": MAX_LEVEL_DEFAULT,
        "row_radius": bundle.row_radius,
        "col_radius": bundle.col_radius,
        "singularities": ker,
    }
