"""Cylinder functions f_n^l and derivatives, integer order, complex argument.

The four kinds are indexed the usual way: l=1 Bessel J, l=2 Bessel Y,
l=3 Hankel H(1) = J + iY, l=4 Hankel H(2) = J - iY.  Evaluation is backed by
scipy.special, which switches between ascending series, backward recurrence
and large-argument asymptotics internally; the guarantees exposed here
(accuracy over the validated range, Wronskian/recurrence identities) are
checked in the test suite against an independent high-precision oracle.

Values come in tables over a stack of entries, each an order n at one of
several frequencies: an argument is a vector with one value per frequency
(k r over a sweep's omegas, say), and one scipy call per (kind, argument
vector) gives every entry the orders it needs, n - 1 to n + 1 over each
frequency's own orders and no more.  f_n' = (f_(n-1) - f_(n+1))/2 comes from
neighbouring orders of the same table, with f_0' = -f_1.  Kinds other
than J are singular at 0: a zero in an argument is a DomainError for the
entries at its frequency only.  A table owns its EntryFaults record: the
first evaluation of a (kind, argument) writes its DomainError and
AccuracyLoss notes there once.  cyl_f and cyl_f_prime are tables of one
entry, which raise or warn what it holds.
"""
from __future__ import annotations

import numpy as np
from scipy import special

from .errors import DomainError, EntryFaults

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


def _values(kind: int, orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f_orders[i](x[i]) in one scipy call."""
    # scipy's real-argument paths are faster and exact for real x; its
    # complex path differs from them in the last digits.  A vector takes
    # the real path only if all of it can, as one k r over real omegas does;
    # a zero, which fails its entries, does not move the others off it
    real = not x.imag.any() and (kind == KIND_J or (x.real >= 0).all())
    fn = getattr(special, _SCIPY[kind])
    return np.asarray(fn(orders, x.real if real else x), dtype=complex)


def _j_ratio(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_(n+1)(x) / J_n(x) for |x| < n, from the backward recurrence
    rho_k = x / (2(k+1) - x rho_(k+1)) of the ratio (Gautschi, SIAM Rev. 9
    (1967) 24), which never forms J and so cannot underflow."""
    rho = np.zeros(len(n), dtype=complex)
    for k in range(_RATIO_DEPTH, 0, -1):
        rho = x / (2 * (n + k) - x * rho)
    return rho


def _vector(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=complex))


class Tables:
    """Cylinder functions over a stack of entries, entry i the order n[i]
    at frequency f[i]; an argument holds one value per frequency.  Each
    (kind, argument) costs one scipy call over the pairs (order, value) the
    entries need, orders min(n) - 1 to max(n) + 1 of each frequency's
    entries, kept for reuse.  That first evaluation also writes into
    `faults`, once, the AccuracyLoss note of each entry outside the
    validated range and the DomainError of each entry whose argument is 0
    for a kind singular there; its values mean nothing."""

    def __init__(self, orders, freq=None):
        self.n = np.atleast_1d(np.asarray(orders, dtype=int))
        if np.any(self.n < 0):
            raise ValueError("order must be a nonnegative integer")
        self.f = np.zeros_like(self.n) if freq is None else np.asarray(
            freq, dtype=int)
        nf = int(self.f.max()) + 1
        lo = np.full(nf, self.n.max())
        hi = np.full(nf, -1)
        np.minimum.at(lo, self.f, self.n)
        np.maximum.at(hi, self.f, self.n + 1)
        lo = np.maximum(lo - 1, 0)
        count = np.maximum(hi - lo + 1, 0)
        start = np.cumsum(count) - count
        # the (order, frequency) pairs of one scipy call, and per entry
        # the pair of its order
        self._order = np.arange(count.sum()) - np.repeat(start - lo, count)
        self._freq = np.repeat(np.arange(nf), count)
        self._i = start[self.f] + self.n - lo[self.f]
        self._n0 = np.flatnonzero(self.n == 0)
        self._high = self.n > _N_MAX
        self._cache = {}
        self.faults = EntryFaults(len(self.n))

    def _raw(self, kind: int, x: np.ndarray) -> np.ndarray:
        """The values over the pairs of kind at the vector x."""
        key = (kind, x.tobytes())
        if key not in self._cache:
            if kind not in _SCIPY:
                raise ValueError(f"unknown cylinder-function kind {kind!r}")
            if kind != KIND_J and not x.all():
                self.faults.fail((x == 0)[self.f], DomainError(
                    f"kind {kind} is singular at x=0"))
            self._note(kind, x)
            self._cache[key] = _values(kind, self._order, x[self._freq])
        return self._cache[key]

    def _note(self, kind: int, x: np.ndarray) -> None:
        ax = np.abs(x)
        out_x = (ax != 0) & ~((_X_LO <= ax) & (ax <= _X_HI))
        bad = out_x[self.f] | self._high
        for i, n, f in zip(np.flatnonzero(bad).tolist(),
                           self.n[bad].tolist(), self.f[bad]):
            self.faults.notes[i].append(
                f"cyl_f(kind={kind}, n={n}, |x|={ax[f]:.3g}) outside "
                f"validated range (n<={_N_MAX}, {_X_LO}<=|x|<={_X_HI})")

    def __call__(self, kind: int, x) -> tuple:
        """(f, f') of kind at x over the entries."""
        v, i = self._raw(kind, _vector(x)), self._i
        with np.errstate(invalid="ignore"):
            fp = 0.5 * (v[i - 1] - v[i + 1])
        fp[self._n0] = -v[i[self._n0] + 1]
        return v[i], fp

    def log_derivative(self, kind: int, x) -> tuple:
        """(d, zero) with x f_n'/f_n = n + d; zero marks the entries where f
        has a true zero.

        d = -x f_(n+1)/f_n follows from f_n' = (n/x) f_n - f_(n+1).  Kept
        apart from n it holds the digits that differences like x1 x3 - n^2
        need at orders n >> |x|, where x f'/f is n to many places.  Where
        J_n(x) or J_(n+1)(x) underflows with |x| < n, a region free of zeros
        of J_n, the ratio comes from its backward recurrence instead."""
        x = _vector(x)
        v, i = self._raw(kind, x), self._i
        xe = x[self.f]
        with np.errstate(divide="ignore", invalid="ignore"):
            d = -xe * v[i + 1] / v[i]
        zero = v[i] == 0
        if kind == KIND_J:
            under = (zero | (v[i + 1] == 0)) & (np.abs(xe) < self.n)
            if under.any():
                d[under] = -xe[under] * _j_ratio(self.n[under], xe[under])
                zero &= ~under
        return d, zero


def _one(kind: int, n: int, x: complex) -> tuple:
    table = Tables([n])
    f, fp = table(kind, x)
    table.faults.check(0, stacklevel=4)
    return complex(f[0]), complex(fp[0])


def cyl_f(kind: int, n: int, x: complex) -> complex:
    """f_n^l(x) for l in {1: J, 2: Y, 3: H1, 4: H2}."""
    return _one(kind, n, x)[0]


def cyl_f_prime(kind: int, n: int, x: complex) -> complex:
    """First derivative via f_n' = (f_{n-1} - f_{n+1})/2, with f_{-1} = -f_1."""
    return _one(kind, n, x)[1]
