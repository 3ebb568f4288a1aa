"""Truncated Taylor series ("jet") arithmetic.

A jet of order K at a point x0 is the coefficient vector c[0..K] with
f(x0 + h) = sum_i c[i] h^i + O(h^{K+1}).  Coefficients are *Taylor*
coefficients, i.e. c[i] = D^i f(x0) / i!; the scaling keeps recurrences
well conditioned at high order.  All routines operate along axis 0 and
broadcast over any trailing axes, so a whole batch of expansion points
can be pushed through at once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "jet_from_derivatives",
    "jet_to_derivatives",
    "jet_derivative",
    "jet_mul",
    "jet_reciprocal",
    "jet_div",
    "jet_exp",
    "jet_pow",
    "jet_atan",
]


def _factorials(k):
    return np.array([math.factorial(i) for i in range(k)], dtype=float)


def jet_from_derivatives(derivs):
    """Derivative values D^i f -> Taylor coefficients D^i f / i!."""
    derivs = np.asarray(derivs)
    k = derivs.shape[0]
    fact = _factorials(k).reshape((k,) + (1,) * (derivs.ndim - 1))
    return derivs / fact


def jet_to_derivatives(coeffs):
    """Taylor coefficients -> derivative values D^i f = i! c[i]."""
    coeffs = np.asarray(coeffs)
    k = coeffs.shape[0]
    fact = _factorials(k).reshape((k,) + (1,) * (coeffs.ndim - 1))
    return coeffs * fact


def jet_derivative(a):
    """Jet of f' (one order lower): c[i] -> (i + 1) c[i + 1]."""
    a = np.asarray(a)
    k = a.shape[0]
    idx = np.arange(1, k).reshape((k - 1,) + (1,) * (a.ndim - 1))
    return idx * a[1:]


def jet_mul(a, b):
    """Truncated Cauchy product of two jets of equal order."""
    a = np.asarray(a)
    b = np.asarray(b)
    k = a.shape[0]
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for i in range(k):
        out[i] = (a[: i + 1] * b[i::-1]).sum(axis=0)
    return out


def jet_reciprocal(a):
    """Jet of 1/f; requires a[0] != 0."""
    a = np.asarray(a)
    k = a.shape[0]
    out = np.zeros(a.shape, dtype=np.result_type(a, float))
    out[0] = 1.0 / a[0]
    for i in range(1, k):
        acc = (a[1 : i + 1] * out[i - 1 :: -1][: i]).sum(axis=0)
        out[i] = -acc * out[0]
    return out


def jet_div(a, b):
    return jet_mul(a, jet_reciprocal(b))


def jet_exp(a):
    """Jet of exp(f) via g' = f' g:  i g[i] = sum_{j=1..i} j a[j] g[i-j]."""
    a = np.asarray(a)
    k = a.shape[0]
    out = np.zeros(a.shape, dtype=np.result_type(a, float))
    out[0] = np.exp(a[0])
    j_idx = np.arange(k).reshape((k,) + (1,) * (a.ndim - 1))
    ja = j_idx * a
    for i in range(1, k):
        out[i] = (ja[1 : i + 1] * out[i - 1 :: -1][: i]).sum(axis=0) / i
    return out


def jet_pow(a, p):
    """Jet of f^p for real p; requires a[0] > 0.

    Recurrence from (f^p)' f = p f' f^p:
    i a[0] g[i] = sum_{j=1..i} (p j - (i - j)) a[j] g[i-j].
    """
    a = np.asarray(a)
    k = a.shape[0]
    out = np.zeros(a.shape, dtype=np.result_type(a, float))
    out[0] = a[0] ** p
    inv0 = 1.0 / a[0]
    for i in range(1, k):
        acc = np.zeros_like(out[0])
        for j in range(1, i + 1):
            acc = acc + (p * j - (i - j)) * a[j] * out[i - j]
        out[i] = acc * inv0 / i
    return out


def jet_atan(a):
    """Jet of atan(f) via g' = f' / (1 + f^2)."""
    a = np.asarray(a)
    k = a.shape[0]
    one_plus_sq = jet_mul(a, a)
    one_plus_sq[0] = one_plus_sq[0] + 1.0
    rec = jet_reciprocal(one_plus_sq)
    da = np.zeros_like(a)
    for j in range(1, k):
        da[j - 1] = j * a[j]
    prod = jet_mul(da, rec)
    out = np.zeros(a.shape, dtype=np.result_type(a, float))
    out[0] = np.arctan(a[0])
    for i in range(1, k):
        out[i] = prod[i - 1] / i
    return out
