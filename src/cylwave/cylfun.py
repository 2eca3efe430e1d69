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

At a real argument x >= 0, H1 and H2 are formed as J + iY and J - iY
(Abramowitz & Stegun 9.1.3-4) from the table's J values there and one
cephes yn call, in place of scipy's AMOS hankel1 or hankel2.  Re H1 is
then J bit for bit and H2 is conj(H1).  Next to the J table of a {J, H1}
basis an H1 table costs about a tenth of what hankel1 did: over the 29
hankel1 calls of a 10-ka recursion sweep of a three-layer stack, yn takes
0.37 ms and hankel1 3.70 ms (2-core box).  Over the validated range the
result holds 1e-13 of |H|, as hankel1 does; past it both drift with x,
and on n <= 300, x <= 2e4 the worst seen was 2.0e-11 (n = 284,
x = 1.8e4, where hankel1 reads 7.7e-13; its own worst was 6.4e-12).  A
complex argument keeps hankel1 and hankel2.
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


def _real(kind: int, x: np.ndarray) -> bool:
    """Whether scipy's real-argument path takes kind at all of x."""
    # scipy's real-argument paths are faster and exact for real x; its
    # complex path differs from them in the last digits.  A vector takes
    # the real path only if all of it can, as one k r over real omegas does;
    # a zero, which fails its entries, does not move the others off it.
    # For H1 and H2 the real path is J +- iY (Tables._evaluated, _hankel)
    return not x.imag.any() and (kind == KIND_J or (x.real >= 0).all())


def _values(kind: int, orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f_orders[i](x[i]) in one scipy call."""
    fn = getattr(special, _SCIPY[kind])
    return np.asarray(fn(orders, x.real if _real(kind, x) else x),
                      dtype=complex)


def _hankel(kind: int, j: np.ndarray, y: np.ndarray) -> np.ndarray:
    """H1 = J + iY or H2 = J - iY (Abramowitz & Stegun 9.1.3-4) from the
    values j of J and y of Y at the same real (order, argument) pairs.  The
    parts are written, not summed with 1j, so that the -inf of Y at 0 or
    past overflow stays -inf rather than turning into nan."""
    h = np.empty(np.shape(y), dtype=complex)
    h.real = j.real
    h.imag = y if kind == KIND_H1 else -y
    return h


def _prime(v: np.ndarray, i: np.ndarray, n0: np.ndarray) -> np.ndarray:
    """f_n' = (f_(n-1) - f_(n+1))/2 of the orders at v[i], f_0' = -f_1 at
    the positions n0 of i that hold order 0."""
    with np.errstate(invalid="ignore"):
        fp = 0.5 * (v[i - 1] - v[i + 1])
    fp[n0] = -v[i[n0] + 1]
    return fp


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
    entries, kept for reuse; H1 or H2 at a real argument costs a yn call
    and the J table of that argument.  That first evaluation also writes into
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
        self._noted = set()
        self.faults = EntryFaults(len(self.n))

    def _raw(self, kind: int, x: np.ndarray) -> np.ndarray:
        """The values over the pairs of kind at the vector x; the first
        request of each (kind, x) writes its faults."""
        key = (kind, x.tobytes())
        if key not in self._noted:
            if kind not in _SCIPY:
                raise ValueError(f"unknown cylinder-function kind {kind!r}")
            if kind != KIND_J and not x.all():
                self.faults.fail((x == 0)[self.f], DomainError(
                    f"kind {kind} is singular at x=0"))
            self._note(kind, x)
            self._noted.add(key)
        return self._evaluated(kind, x)

    def _evaluated(self, kind: int, x: np.ndarray) -> np.ndarray:
        """The values of _raw, evaluated once, writing no faults: H1 or H2
        at a real x from the J values there and one yn call (_hankel)."""
        key = (kind, x.tobytes())
        if key not in self._cache:
            xs = x[self._freq]
            if kind in (KIND_H1, KIND_H2) and _real(kind, xs):
                self._cache[key] = _hankel(kind, self._evaluated(KIND_J, x),
                                           special.yn(self._order, xs.real))
            else:
                self._cache[key] = _values(kind, self._order, xs)
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
        return v[i], _prime(v, i, self._n0)

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
