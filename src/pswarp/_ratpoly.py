"""Exact rational arithmetic: bivariate polynomials and Bernoulli machinery.

The symbolic derivative-expansion tables live in Q[b][k], where b is the
amplitude weight exponent and k the derivative order.  Everything here is
Fraction-exact; floats only appear when a caller asks for a numeric value.
"""

from fractions import Fraction
from functools import lru_cache
import math


@lru_cache(maxsize=None)
def bernoulli_numbers(n_max: int) -> tuple:
    """B_0 .. B_n_max with the B_1 = -1/2 convention, exact."""
    B = [Fraction(1)]
    for m in range(1, n_max + 1):
        # sum_{j=0}^{m} C(m+1, j) B_j = 0
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * B[j]
        B.append(-s / (m + 1))
    return tuple(B)


@lru_cache(maxsize=None)
def bernoulli_polynomial(n: int) -> tuple:
    """Coefficients of B_n(x), ascending powers, exact."""
    B = bernoulli_numbers(n)
    return tuple(Fraction(math.comb(n, r)) * B[n - r] for r in range(n + 1))


class RatPoly2:
    """Polynomial in two variables with Fraction coefficients.

    Immutable-by-convention; coefficients are stored sparsely as
    {(power_of_b, power_of_k): Fraction} with no zero entries.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for key, val in coeffs.items():
                f = Fraction(val)
                if f != 0:
                    self.c[key] = f

    @classmethod
    def const(cls, v):
        return cls({(0, 0): Fraction(v)})

    @classmethod
    def var_b(cls):
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def var_k(cls):
        return cls({(0, 1): Fraction(1)})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, RatPoly2):
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if not isinstance(other, RatPoly2):
            other = RatPoly2.const(other)
        out = dict(self.c)
        for key, val in other.c.items():
            s = out.get(key, Fraction(0)) + val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        r = RatPoly2()
        r.c = out
        return r

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        r = RatPoly2()
        r.c = {key: -val for key, val in self.c.items()}
        return r

    def __sub__(self, other):
        if not isinstance(other, RatPoly2):
            other = RatPoly2.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatPoly2):
            other = RatPoly2.const(other)
        out = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, Fraction(0)) + v1 * v2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        r = RatPoly2()
        r.c = out
        return r

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- queries ---------------------------------------------------------

    def degree_k(self):
        return max((j for _, j in self.c), default=-1)

    def eval(self, b, k):
        """Exact if b and k are Fractions or ints; float otherwise."""
        total = 0
        for (i, j), v in self.c.items():
            total += v * b**i * k**j
        return total

    def k_coefficients(self):
        """Coefficients in ascending k powers, each a dict {power_of_b: Fraction}."""
        out = [dict() for _ in range(self.degree_k() + 1)]
        for (i, j), v in self.c.items():
            out[j][i] = v
        return out

    def subs_b(self, b):
        """Collapse to a polynomial of k alone (still a RatPoly2)."""
        b = Fraction(b)
        out = {}
        for (i, j), v in self.c.items():
            key = (0, j)
            s = out.get(key, Fraction(0)) + v * b**i
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        r = RatPoly2()
        r.c = out
        return r

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = RatPoly2.const(1)
        for _ in range(n):
            out = out * self
        return out

    def subs_k(self, k):
        """Collapse to a polynomial of b alone (still a RatPoly2)."""
        k = Fraction(k)
        out = {}
        for (i, j), v in self.c.items():
            key = (i, 0)
            s = out.get(key, Fraction(0)) + v * k**j
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        r = RatPoly2()
        r.c = out
        return r

    def antidifference_k(self):
        """G with G(k+1) - G(k) = self(k) and G(0) = 0, exact.

        Power by power: the antidifference of k^m is
        (B_{m+1}(k) - B_{m+1}(0)) / (m+1).
        """
        out = RatPoly2()
        for (i, j), v in self.c.items():
            bp = bernoulli_polynomial(j + 1)
            for r, br in enumerate(bp):
                if r == 0:
                    continue  # B_{m+1}(0) cancels the constant
                term = v * br / (j + 1)
                if term:
                    key = (i, r)
                    s = out.c.get(key, Fraction(0)) + term
                    if s:
                        out.c[key] = s
                    else:
                        out.c.pop(key, None)
        return out

    # -- rendering ---------------------------------------------------------

    def to_string(self, b_name="b", k_name="k"):
        """Human-readable exact form, descending k powers.

        Examples: "1/2 k^2 + (b - 1/2) k", "0", "b - 1/2".
        """
        if not self.c:
            return "0"
        cols = self.k_coefficients()
        parts = []
        for j in range(len(cols) - 1, -1, -1):
            bcoef = cols[j]
            if not bcoef:
                continue
            ks = "" if j == 0 else (k_name if j == 1 else f"{k_name}^{j}")
            if list(bcoef) == [0]:
                # pure rational coefficient
                frac = bcoef[0]
                parts.append((frac < 0, _join_coef(abs(frac), ks)))
            else:
                inner = _b_poly_string(bcoef, b_name)
                if len(bcoef) == 1:
                    # single b power, sign can be pulled out
                    (i, v), = bcoef.items()
                    mono = b_name if i == 1 else f"{b_name}^{i}"
                    lead = _join_coef(abs(v), mono if not ks else f"{mono} {ks}")
                    if v != 0:
                        parts.append((v < 0, lead))
                else:
                    text = f"({inner})" if ks else inner
                    parts.append((False, f"{text} {ks}".strip()))
        if not parts:
            return "0"
        neg0, text0 = parts[0]
        out = ("-" + text0) if neg0 else text0
        for neg, text in parts[1:]:
            out += (" - " if neg else " + ") + text
        return out


def _join_coef(frac, suffix):
    if not suffix:
        return str(frac)
    if frac == 1:
        return suffix
    return f"{frac} {suffix}"


def _b_poly_string(bcoef, b_name):
    parts = []
    for i in sorted(bcoef, reverse=True):
        v = bcoef[i]
        if v == 0:
            continue
        mono = "" if i == 0 else (b_name if i == 1 else f"{b_name}^{i}")
        parts.append((v < 0, _join_coef(abs(v), mono)))
    neg0, text0 = parts[0]
    out = ("-" + text0) if neg0 else text0
    for neg, text in parts[1:]:
        out += (" - " if neg else " + ") + text
    return out
