"""Small dense complex linear algebra: inversion, matrix exponential, norms.

Everything here operates on square complex matrices of modest size (2x2 to
6x6), so plain LAPACK-backed dense routines are the right tool.  The inverse
and the exponential also take a stack of them, with any leading axes, and
work matrix by matrix: a stack fails with the same typed error as its worst
member.  The public functions return complex128; the private _inverse_each
and _mat_exp keep a real stack real, and _mat_exp forms the exponential
steps of the impedance march's gauged stacks.  The march's Moebius update
inverts its 1x1 to 3x3 denominators in closed form (see cylwave.impedance).
"""
from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import Overflow, SingularMatrix

# Pade [6/6] coefficients for exp: c[k+1] = c[k] * (6-k) / ((12-k)(k+1))
_PADE6 = np.array([
    1.0,
    1.0 / 2.0,
    5.0 / 44.0,
    1.0 / 66.0,
    1.0 / 792.0,
    1.0 / 15840.0,
    1.0 / 665280.0,
])


def mat_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a square complex matrix, or a stack of them, via LU with
    partial pivoting.

    Raises SingularMatrix (with a condition estimate when one can be formed)
    if a factorization hits a vanishing pivot or produces non-finite
    entries.
    """
    a = _square(a, complex)
    b, singular = _inverse_each(a)
    if singular.any():
        raise SingularMatrix(cond=_cond_estimate(a))
    return b


def _inverse_each(a: np.ndarray) -> tuple:
    """Inverse of each matrix of a stack, and the mask of the singular ones:
    those whose factorization hits a vanishing pivot or gives non-finite
    entries.  Their inverses are not finite; the others are what a call on
    each matrix alone gives.  The result keeps the dtype of a."""
    a = _square(a)
    try:
        b = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        b = np.full_like(a, np.nan)
        for i in np.ndindex(a.shape[:-2]):
            try:
                b[i] = np.linalg.inv(a[i])
            except np.linalg.LinAlgError:
                pass
    return b, ~np.isfinite(b).all(axis=(-2, -1))


def _square(a, dtype=None) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    return a


def _demoted(a: np.ndarray) -> np.ndarray:
    """a in float64 if its imaginary parts are all exactly zero, else a."""
    return a.real.copy() if np.iscomplexobj(a) and not a.imag.any() else a


def _norm1(a: np.ndarray) -> np.ndarray:
    """Matrix 1-norm (largest column sum) of each matrix of a stack.

    The column sums and their maximum run over slices, a chain of adds and
    np.maximum, which is bitwise equal to np.abs(a).sum(-2).max(-1): the
    axis sum adds the rows in the same order, and a maximum is exact and
    keeps a NaN.  numpy reduces over a 2- to 6-wide axis slowly when the
    stack holds many matrices."""
    aq = np.abs(a)
    cols = reduce(np.add, (aq[..., i, :] for i in range(aq.shape[-2])))
    return reduce(np.maximum, (cols[..., j] for j in range(cols.shape[-1])))


def _cond_estimate(a: np.ndarray) -> float:
    # np.linalg.cond gives inf, not an error, for a singular matrix
    with np.errstate(all="ignore"):
        c = float(np.max(np.linalg.cond(a, 1)))
    return c if np.isfinite(c) else float("inf")


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade [6/6] core.

    Each matrix of the stack is scaled by its own power of two until its
    1-norm is at most 0.5, which keeps the rational approximation error far
    below double-precision round-off, then squared back up.
    """
    return _mat_exp(_square(a, complex))


def _mat_exp(a: np.ndarray) -> np.ndarray:
    """mat_exp of a stack in its own dtype: real in, real out."""
    a = _square(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of non-finite input")
    with np.errstate(over="ignore"):
        s = np.ceil(np.log2(np.maximum(_norm1(a), 0.5) / 0.5))
    if not np.all(np.isfinite(s)):
        raise Overflow("matrix exponential input beyond floating-point range")
    s = s.astype(int)
    x = a * np.ldexp(1.0, -s)[..., None, None]

    eye = np.eye(a.shape[-1])
    x2 = x @ x
    # numerator/denominator share even and odd parts: D = N(-x)
    even = _PADE6[0] * eye + _PADE6[2] * x2
    odd = _PADE6[1] * eye + _PADE6[3] * x2
    x4 = x2 @ x2
    even = even + _PADE6[4] * x4
    odd = odd + _PADE6[5] * x4
    even = even + _PADE6[6] * (x4 @ x2)
    odd_x = x @ odd
    num = even + odd_x
    den = even - odd_x
    try:
        e = np.linalg.solve(den, num)
    except np.linalg.LinAlgError:
        raise SingularMatrix("Pade denominator singular") from None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(s.max(initial=0))):
            more = s > k
            e[more] = e[more] @ e[more]
    if not np.all(np.isfinite(e)):
        raise Overflow("matrix exponential overflowed floating-point range")
    return e


def hermitian_residual(a: np.ndarray) -> float:
    """Frobenius-norm departure from Hermitian symmetry, relative to ||A||."""
    a = np.asarray(a, dtype=complex)
    num = np.linalg.norm(a - a.conj().T)
    return float(num / max(np.linalg.norm(a), 1e-300))
