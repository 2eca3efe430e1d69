"""Cylinder functions f_n^l and derivatives, integer order, complex argument.

The four kinds are indexed the usual way: l=1 Bessel J, l=2 Bessel Y,
l=3 Hankel H(1) = J + iY, l=4 Hankel H(2) = J - iY.  Evaluation is backed by
scipy.special, which switches between ascending series, backward recurrence
and large-argument asymptotics internally; the guarantees exposed here
(accuracy over the validated range, Wronskian/recurrence identities) are
checked in the test suite against an independent high-precision oracle.

Values come in tables over a set of orders: one scipy call per (kind,
argument) gives every order the set needs, and f_n' = (f_(n-1) - f_(n+1))/2
comes from neighbouring orders of the same table, with f_0' = -f_1.  cyl_f
and cyl_f_prime are tables of one order.
"""
from __future__ import annotations

import warnings

import numpy as np
from scipy import special

from .errors import AccuracyLoss, DomainError

KIND_J = 1
KIND_Y = 2
KIND_H1 = 3
KIND_H2 = 4

# Range over which 1e-12 relative accuracy is validated.
_N_MAX = 60
_X_LO = 1e-6
_X_HI = 200.0

# orders above n where the J ratio recurrence starts; in the region it
# serves, |x| < n, each order damps the start error by |J_(k+1)/J_k|^2
_RATIO_DEPTH = 40

_SCIPY = {KIND_J: "jv", KIND_Y: "yv", KIND_H1: "hankel1", KIND_H2: "hankel2"}


def _values(kind: int, orders: np.ndarray, x: complex) -> np.ndarray:
    # scipy's real-argument paths are faster and exact for real x; its
    # complex path differs from them in the last digits
    real = x.imag == 0.0 and (kind == KIND_J or x.real > 0)
    fn = getattr(special, _SCIPY[kind])
    return np.asarray(fn(orders, x.real if real else x), dtype=complex)


def _j_ratio(n: np.ndarray, x: complex) -> np.ndarray:
    """J_(n+1)(x) / J_n(x) for |x| < n, from the backward recurrence
    rho_k = x / (2(k+1) - x rho_(k+1)) of the ratio (Gautschi, SIAM Rev. 9
    (1967) 24), which never forms J and so cannot underflow."""
    rho = np.zeros(len(n), dtype=complex)
    for k in range(_RATIO_DEPTH, 0, -1):
        rho = x / (2 * (n + k) - x * rho)
    return rho


class Tables:
    """Cylinder functions over one set of orders; each (kind, argument)
    costs one scipy call, kept for reuse.  Tables carry the (entry,
    message) AccuracyLoss notes of the orders outside the validated range,
    for the caller to raise or defer."""

    def __init__(self, orders):
        self.n = np.atleast_1d(np.asarray(orders, dtype=int))
        if np.any(self.n < 0):
            raise ValueError("order must be a nonnegative integer")
        self._lo = max(int(self.n.min()) - 1, 0)
        self._i = self.n - self._lo
        self._span = np.arange(self._lo, int(self.n.max()) + 2)
        self._high = self.n.max() > _N_MAX
        self._cache = {}

    def _raw(self, kind: int, x: complex) -> np.ndarray:
        key = (kind, x)
        if key not in self._cache:
            if kind not in _SCIPY:
                raise ValueError(f"unknown cylinder-function kind {kind!r}")
            if x == 0 and kind != KIND_J:
                raise DomainError(f"kind {kind} is singular at x=0")
            self._cache[key] = _values(kind, self._span, x)
        return self._cache[key]

    def _notes(self, kind: int, x: complex) -> list:
        ax = abs(x)
        out_x = ax != 0 and not _X_LO <= ax <= _X_HI
        if not (out_x or self._high):
            return []
        return [(i, f"cyl_f(kind={kind}, n={n}, |x|={ax:.3g}) outside "
                    f"validated range (n<={_N_MAX}, {_X_LO}<=|x|<={_X_HI})")
                for i, n in enumerate(self.n) if out_x or n > _N_MAX]

    def __call__(self, kind: int, x: complex) -> tuple:
        """(f, f', notes) of kind at x over the orders."""
        x = complex(x)
        v, i = self._raw(kind, x), self._i
        with np.errstate(invalid="ignore"):
            fp = 0.5 * (v[i - 1] - v[i + 1])
        if self._lo == 0:
            fp[self.n == 0] = -v[1]
        return v[i], fp, self._notes(kind, x)

    def log_derivative(self, kind: int, x: complex) -> tuple:
        """(d, zero, notes) with x f_n'/f_n = n + d; zero marks the orders
        where f has a true zero.

        d = -x f_(n+1)/f_n follows from f_n' = (n/x) f_n - f_(n+1).  Kept
        apart from n it holds the digits that differences like x1 x3 - n^2
        need at orders n >> |x|, where x f'/f is n to many places.  Where
        J_n(x) or J_(n+1)(x) underflows with |x| < n, a region free of zeros
        of J_n, the ratio comes from its backward recurrence instead."""
        x = complex(x)
        v, i = self._raw(kind, x), self._i
        with np.errstate(divide="ignore", invalid="ignore"):
            d = -x * v[i + 1] / v[i]
        zero = v[i] == 0
        if kind == KIND_J:
            under = (zero | (v[i + 1] == 0)) & (abs(x) < self.n)
            if under.any():
                d[under] = -x * _j_ratio(self.n[under], x)
                zero &= ~under
        return d, zero, self._notes(kind, x)


def _one(kind: int, n: int, x: complex) -> tuple:
    f, fp, notes = Tables([n])(kind, x)
    for _, msg in notes:
        warnings.warn(msg, AccuracyLoss, stacklevel=3)
    return complex(f[0]), complex(fp[0])


def cyl_f(kind: int, n: int, x: complex) -> complex:
    """f_n^l(x) for l in {1: J, 2: Y, 3: H1, 4: H2}."""
    return _one(kind, n, x)[0]


def cyl_f_prime(kind: int, n: int, x: complex) -> complex:
    """First derivative via f_n' = (f_{n-1} - f_{n+1})/2, with f_{-1} = -f_1."""
    return _one(kind, n, x)[1]
