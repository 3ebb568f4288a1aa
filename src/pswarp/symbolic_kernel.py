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
The gammas satisfy a first-order difference equation in k with integer
weights (and b).  Over binomials binom(k, m) in k its antidifference is
a shift in m, so every coefficient stays an integer: gamma_tables holds
the table in that one exact form, per sequence an integer coefficient
array in (b^i, binom(k, m)).

Numerically the table is contracted against the map before any b is
chosen.  beta_{l,n} = Dw^b beta~_{l,n}, where beta~_{l,n} = Dw^shift
prod D^m w carries no b, so on every one-sided jet row

    alpha_{k,l} = Dw^b sum_i b^i sum_m C_{l,i,m} binom(k, m),
    C_{l,i,m} = sum_n beta~_{l,n} c_{l,n,i,m},

with c the integer table, rounded once per entry (GammaLevel.ratio; at
the default depth every entry is below 2^53, so the rounding is exact).
That is one float matmul per level (_contract), and each C entry is
within about n u (|beta~| @ |c|) of its exact value, u = 2^-53 and n the
level's sequence count.  C depends on the map and R alone, so the map
keeps it (Contraction, one per map, made on its first build_kernel).
A new b then costs one Horner pass in b and one in k over all levels
stacked (_evaluate).  The binomial basis keeps the
integer roots of gamma exact (every gamma vanishes at k below its level,
and at b = 0 up to its level plus its factor count), where the power
basis in k cancels terms of size k^(2l); against a 40-digit reference
each S entry stays within a few u of the same sums taken in absolute
values (tests/test_kernel.py).  A level whose beta~ are all exactly 0
contributes nothing to any jump and is not contracted: a
piecewise-linear map, whose jets past Dw all vanish, contracts level 0
only, and its S is the exact table's bit for bit.

The one-sided jumps of D^i phi at a singularity feed the low-rank
aliasing correction; the kernel matrix built here is its middle factor.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
import logging
import math

import numpy as np

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
    """gamma_{l,n} for every sequence n of one level, in integers.

    num[n, i, m] is the coefficient of b^i binom(k, m) in gamma_{l,n},
    with i <= l and m <= 2l.  The entries are read-only Python ints.
    """

    seqs: tuple
    num: np.ndarray  # (sequences, l + 1, 2l + 1), dtype object

    @cached_property
    def ratio(self) -> np.ndarray:
        """num as float64, each integer rounded once, read-only.

        Made on first use, not by gamma_tables.
        """
        r = self.num.astype(np.float64)
        r.flags.writeable = False
        return r


@lru_cache(maxsize=None)
def gamma_tables(max_level: int) -> tuple:
    """GammaLevel for levels 0 .. max_level, exact.

    The difference equation driving the table: differentiating a level-l
    term either hits the exponential/Dw-power blob (adding one part of
    size 1 with weight dw_shift + b + k - l) or one of the D^m w factors
    (growing a part by one with weight p_m).  Collecting every route into
    a level-(l+1) sequence gives its forward difference in k; the
    antidifference with gamma(0) = 0 closes the level.  Over binomials in
    k all of it stays in integers: the first route is a shift in b plus
    k binom(k, m) = m binom(k, m) + (m + 1) binom(k, m + 1), the second a
    scale, and the antidifference sum_{i<k} binom(i, m) = binom(k, m + 1)
    a shift in m.
    """
    num = np.ones((1, 1, 1), dtype=object)
    num.flags.writeable = False
    levels = [GammaLevel((Sequence(0, ()),), num)]
    for level in range(max_level):
        prev = levels[-1]
        seqs = tuple(enumerate_level(level + 1))
        row = {seq.parts: n for n, seq in enumerate(seqs)}
        delta = np.zeros((len(seqs), level + 2, 2 * level + 2), dtype=object)
        m = np.array(range(2 * level + 1), dtype=object)
        for seq, g in zip(prev.seqs, prev.num):
            # route 1: new factor D^2 w from the exponential and Dw powers,
            # weight b + k + dw_shift - l: a shift in b, k over binomials,
            # a scale
            d = delta[row[tuple(sorted(seq.parts + (1,), reverse=True))]]
            d[1:, :-1] += g
            d[:-1, :-1] += (m + seq.dw_shift - level) * g
            d[:-1, 1:] += (m + 1) * g
            # route 2: deepen one existing factor D^m w -> D^{m+1} w
            for j in sorted(set(seq.parts)):
                grown = list(seq.parts)
                grown.remove(j)
                target = tuple(sorted(grown + [j + 1], reverse=True))
                delta[row[target], :-1, :-1] += seq.multiplicity(j + 1) * g
        num = np.zeros((len(seqs), level + 2, 2 * level + 3), dtype=object)
        num[..., 1:] = delta
        num.flags.writeable = False
        levels.append(GammaLevel(seqs, num))
    return tuple(levels)


# ---------------------------------------------------------------------------
# numeric expansion coefficients


@lru_cache(maxsize=16)
def _factors(tables: tuple) -> tuple:
    """(shifts, which, orders, starts): the beta~ factors of every sequence of tables.

    Sequence n, in table order, takes Dw to the power shifts[which[n]]
    (its dw_shift; shifts lists the distinct ones as Python ints) and
    multiplies by D^m w for m in orders[n], descending, padded to the most
    parts with -1: an index to a 1.0 appended after the jets.  Table t
    owns the sequences starts[t] .. starts[t + 1] - 1.  Arrays read-only.
    """
    seqs = [seq for table in tables for seq in table.seqs]
    shifts = tuple(sorted({seq.dw_shift for seq in seqs}))
    which = np.array([shifts.index(seq.dw_shift) for seq in seqs])
    orders = np.full((len(seqs), max(len(seq.parts) for seq in seqs)), -1)
    for n, seq in enumerate(seqs):
        orders[n, :len(seq.parts)] = [j + 1 for j in seq.parts]
    starts = np.cumsum([0] + [len(table.seqs) for table in tables])
    for a in (which, orders, starts):
        a.flags.writeable = False
    return shifts, which, orders, starts


def _beta_free(jets: np.ndarray, tables: tuple) -> list:
    """beta~_{l,n} = Dw^dw_shift prod D^m w of every table on every row of jets.

    jets holds one-sided jet values D^m w per row, m = 0 .. l + 1 or more
    for the deepest level l; one (rows, sequences) view per table.  Per
    entry the operations of the scalar definition, in its order: Dw to an
    integer power as a scalar power (the C library's pow, as numpy's
    scalar power takes it), formed once per row and distinct shift, since
    an array power may take a SIMD path whose bits differ by machine;
    then one product per part, descending, where a padded part multiplies
    by an exact 1.0.
    """
    shifts, which, orders, starts = _factors(tables)
    rows = jets.shape[0]
    powers = np.array([[dw ** s for s in shifts] for dw in jets[:, 1].tolist()],
                      dtype=np.float64).reshape(rows, len(shifts))
    beta = powers[:, which]
    padded = np.concatenate([jets, np.ones((rows, 1))], axis=1)
    for col in orders.T:
        beta *= padded[:, col]
    return [beta[:, a:b] for a, b in zip(starts[:-1], starts[1:])]


def _contract(tables: tuple, betas: list) -> np.ndarray:
    """C[row, t, i, m] = sum_n betas[t][row, n] ratio_t[n, i, m].

    One matmul per table against its float table over binomials; stacked
    over the tables, zero past a table's own b and k degrees.
    """
    top = max(t.num.shape[1] for t in tables)
    C = np.zeros((betas[0].shape[0], len(tables), top, 2 * top - 1))
    for index, (table, beta) in enumerate(zip(tables, betas)):
        n, i, j = table.ratio.shape
        C[:, index, :i, :j] = (beta @ table.ratio.reshape(n, -1)).reshape(-1, i, j)
    return C


def _evaluate(C: np.ndarray, b: float, ks: np.ndarray) -> np.ndarray:
    """sum_i b^i sum_m C[..., i, m] binom(k, m) for every k in ks: (..., ks).

    One Horner pass in b, then one in k over binomials,
    sum_m P_m binom(k, m) = P_0 + k (P_1 + (k - 1)/2 (P_2 + ...)), whose
    factor k - m is exactly 0 at an integer k = m.  The terms past
    binom(k, k) drop out exactly, so a gamma is exactly 0 wherever its
    coefficients over binomials up to k are: at every k below its level,
    for any b, and at its integer roots at b = 0.
    """
    P = C[..., -1, :]
    for i in range(C.shape[-2] - 2, -1, -1):
        P = P * b + C[..., i, :]
    G = np.zeros(P.shape[:-1] + (ks.size,))
    for m in range(P.shape[-1] - 1, -1, -1):
        G = G * ((ks - m) / (m + 1)) + P[..., m, None]
    return G


@dataclass(frozen=True, eq=False)
class Contraction:
    """The b-free part of the expansion on a stack of jet rows, read-only.

    live lists the tables with a nonzero beta~ on some row; only those
    are contracted (C, one stacked _contract of the live tables, None
    when none is live), and the others' alpha is exactly 0.  NaN or inf
    betas are not 0 and are kept.
    """

    jets: np.ndarray
    tables: tuple
    live: tuple
    C: object

    @classmethod
    def of(cls, jets: np.ndarray, tables: tuple) -> "Contraction":
        betas = _beta_free(jets, tables)
        live = tuple(t for t, beta in enumerate(betas) if beta.any())
        C = _contract(tuple(tables[t] for t in live),
                      [betas[t] for t in live]) if live else None
        for a in (jets, C):
            if a is not None:
                a.flags.writeable = False
        return cls(jets, tables, live, C)

    def alpha(self, b: float, ks: np.ndarray) -> np.ndarray:
        """alpha_{k,l} on every jet row, table and k in ks: (rows, tables, ks)."""
        alpha = np.zeros((self.jets.shape[0], len(self.tables), ks.size))
        if not self.live:
            return alpha
        # Dw^b by numpy's scalar power, as the scalar reference forms it, so
        # a level-0-only (piecewise-linear) S keeps the reference's bits
        dwb = np.array([dw ** b for dw in self.jets[:, 1]], dtype=np.float64)
        alpha[:, list(self.live)] = dwb[:, None, None] * _evaluate(self.C, b, ks)
        return alpha


def _map_contraction(warp, R: int) -> Contraction:
    """warp's Contraction of its jump jets for R row orders.

    Rows 2j and 2j + 1 are the right and left jets of jump j.  The map
    keeps one on itself (keyed by its identity, as WarpMap == compares
    arrays); an R that reaches another number of levels replaces it.
    """
    con = warp._contraction
    if con is None or len(con.tables) != min(R, MAX_LEVEL_DEFAULT + 1):
        jets = np.array([warp.side_jets(xi, MAX_LEVEL_DEFAULT + 1, side)
                         for xi in warp.singularities for side in ("right", "left")],
                        dtype=np.float64).reshape(-1, MAX_LEVEL_DEFAULT + 2)
        con = warp._contraction = Contraction.of(jets, gamma_tables(MAX_LEVEL_DEFAULT)[:R])
    return con


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
    kernels: tuple


def choose_rows(J_min: float, kernel_tol: float = KERNEL_TOL_DEFAULT) -> int:
    """Smallest R with J_min^-R below tolerance, capped at ROW_CAP.

    A clipped R is reported as one debug event on the "pswarp" logger,
    naming J_min, the a-priori R and the cap.
    """
    if J_min <= 1.0:
        raise ValueError("decay ratio at or below 1; no finite R converges")
    if math.isinf(J_min):
        return 1
    R = max(1, math.ceil(-math.log(kernel_tol) / math.log(J_min)))
    if R > ROW_CAP:
        logging.getLogger("pswarp").debug(
            "row cap: decay ratio J_min = %.6g asks for R = %d, clipped to ROW_CAP = %d",
            J_min, R, ROW_CAP)
    return min(R, ROW_CAP)


def build_kernel(warp, spec, b: float = None, R: int = None,
                 kernel_tol: float = KERNEL_TOL_DEFAULT) -> KernelBundle:
    """Assemble the jump kernels for every singularity of the map.

    All 2J one-sided jet rows (both sides of every jump) go through one
    expansion: each live level is contracted once against the rows'
    beta~, on the map's first build at R (_map_contraction), and alpha
    at the R row orders comes from one Horner pass in b and one in k;
    every jump's S band follows from it.  A level whose beta~ are all
    exactly 0 is not contracted and its band stays 0: on a
    piecewise-linear map every jet past Dw is 0 and only level 0 is
    built.

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

    jp = np.array([[Jp ** (-k) for k in range(R)] for Jp, _ in ratios]).reshape(-1, R)
    jm = np.array([[Jm ** (-k) for k in range(R)] for _, Jm in ratios]).reshape(-1, R)
    scale = -2j * math.pi * spec.row_radius
    # S[j, i, k] pairs level i - k; levels past R - 1 pair with no (row,
    # column), and levels past MAX_LEVEL_DEFAULT are dropped.  That drop is
    # a known accuracy limit, not a remainder below tol: on the cubic seam
    # at R = 80 the level cap 12 leaves 1.5e-6 where 16 reaches 5.3e-9,
    # likely because gamma_l(k) grows like k^(2l) (ROADMAP item 1)
    S = np.zeros((len(ratios), R, R), dtype=np.complex128)
    con = _map_contraction(warp, R)
    alpha = con.alpha(b, np.arange(R, dtype=np.float64))
    for level in con.live:
        k = np.arange(R - level)
        S[:, k + level, k] = scale ** (-level - 1) * (
            alpha[0::2, level, level:] * jp[:, k] - alpha[1::2, level, level:] * jm[:, k])

    kernels = tuple(
        SingularityKernel(
            xi=float(xi),
            image=float(warp.eval(xi) % 1.0),
            S=S_j,
            J_plus=Jp,
            J_minus=Jm,
        )
        for xi, S_j, (Jp, Jm) in zip(warp.singularities, S, ratios)
    )
    return KernelBundle(b=b, rows=R, kernels=kernels)
