"""Exact Bernoulli numbers and polynomials.

symbolic_kernel builds the antidifference matrix of its gamma tables
from them.  Everything here is Fraction-exact; floats only appear
when a caller asks for a numeric value.
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
