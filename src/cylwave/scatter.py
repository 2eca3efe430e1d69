"""Plane-wave acoustic scattering from a layered elastic cylinder in water.

Normalized units throughout: fluid density 1, sound speed 1 (so the fluid
bulk modulus K is 1), outer radius a = 1, hence k = ka and omega = ka.  Time
convention e^{-i omega t}, outgoing waves carried by H(1).

The elastic side enters only through the scalar surface impedance z0,
obtained from the conditional impedance matrix at r = a by eliminating the
tangential displacement components under zero tangential traction.

A solve runs on stacks of entries (ka, n), consecutive ka of a sweep
sharing a stack up to _STACK_ENTRIES entries.  Each stage runs once per
stack, not once per ka: the integrate route in one Moebius march, the
recursion route as array code over the entries (closed-form layers, joins,
inner impedance), and both then z0 and B_n.  A truncation walk over each
ka's own orders n follows, ka by ka in sweep order; it stops once |B_n| <
_B_TAIL twice in a row, or at the cap.

A solve runs in two passes so that it solves only the orders the walk
reads.  The estimate n_est of a ka is the first order n >= 1 at which
orders n - 1 and n of both the soft and the rigid cylinder have |B_n|
below _B_TAIL / 100, from J_n and H_n at ka alone; the cap if there is
none.  The first pass solves orders 0..n_est of every ka of a run, the
runs formed from these sizes.  Only a ka whose B_n do not stop the walk by
n_est, and whose n_est is below the cap, gets a second pass: orders
n_est + 1..cap of all such ka of the run, on one stack, after which the
walks read on.  No result rests on the estimate: each entry's march, and
each recursion entry, is the same bit for bit on any stack that holds it,
so the B_n, sigma_tot and f(theta) equal those of one stack of every order
up to the cap.

A typed error of an entry (a cylinder-function zero or impedance pole, a
degenerate basis, an interface or inner resonance, the step guard, a
singular Moebius denominator) and its AccuracyLoss warnings are kept in
its stack's record and surface only if the walk of its ka reaches that
order, so orders past the early stop never fail a solve and the first
failing ka of a sweep raises; an entry that already failed steps through
the march by the identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .cylfun import KIND_H1, KIND_J, _hankel, _prime
from .elastodyn import RadialProfile, WaveContext, _contiguous, _positive
from .errors import (DomainError, EntryFaults, InteriorPoint,
                     TangentialResonance)
from .impedance import ConditionalImpedance, _conditional_stack, _march
from .matricant import _count, get_scheme
from .numkernel import _inverse_each
from .tilayers import OrderStack, _global_stack, _impedance

A_OUTER = 1.0
_B_TAIL = 1e-10
# most entries (ka, n) on one stack: a sweep is solved in runs of
# consecutive ka under this cap.  Any 10 ka up to ka = 12 (at most 370
# entries) fit one stack; an integrate march holds about 25 kB per entry,
# so larger caps cost memory and gained no time in measurement (README)
_STACK_ENTRIES = 512


@dataclass(frozen=True)
class FluidHalfSpace:
    """Exterior fluid; normalized so K = rho_f * c^2 = 1."""

    k: float
    K: float = 1.0
    rho_f: float = 1.0

    def __post_init__(self):
        _positive(self.k, "wavenumber")


@dataclass(frozen=True)
class ScatteringResult:
    b: tuple
    ka: float
    sigma_tot: float
    f_samples: tuple


@dataclass(frozen=True)
class ScatteringConfig:
    layers: tuple
    ka: float
    scheme: str = "lp4"
    steps: int = 500
    method: str = "integrate"
    inner_impedance: object = None
    n_max: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        _contiguous([(x.r_inner, x.r_outer) for x in self.layers])
        _positive(self.ka, "ka")
        _count(self.steps, "steps", 1)
        if self.n_max is not None:
            _count(self.n_max, "n_max", 0)
        get_scheme(self.scheme)
        if self.method not in ("integrate", "recursion"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "integrate" and np.iscomplexobj(
                [(x.c11, x.c12, x.c13, x.c33, x.c44) for x in self.layers]):
            raise DomainError('lossy (complex) moduli need method="recursion"')


def _surface_impedances(z: np.ndarray, faults: EntryFaults) -> np.ndarray:
    if z.shape[-1] == 1:
        return z[:, 0, 0]
    with np.errstate(all="ignore"):
        tinv, singular = _inverse_each(z[:, 1:, 1:])
        faults.fail(singular, TangentialResonance(
            "tangential impedance block singular at the surface"))
        return z[:, 0, 0] - (z[:, :1, 1:] @ tinv @ z[:, 1:, :1])[:, 0, 0]


def scalar_impedance_z0(z2) -> complex:
    """Scalar surface impedance from the 2x2 or 3x3 conditional impedance.

    Zero tangential traction lets the tangential displacement components be
    eliminated; what survives is the Schur complement onto the radial entry.
    """
    z = z2.z if isinstance(z2, ConditionalImpedance) else np.asarray(
        z2, dtype=complex)
    faults = EntryFaults(1)
    z0 = _surface_impedances(z[None], faults)
    faults.check(0)
    return complex(z0[0])


def _coefficients(stack: OrderStack, ka, K: float,
                  z0: np.ndarray) -> np.ndarray:
    """B_n of every entry; ka holds one value per frequency of the stack."""
    jn, jnp = stack(KIND_J, ka)
    hn, hnp = stack(KIND_H1, ka)
    kae = np.atleast_1d(ka)[stack.f]
    with np.errstate(all="ignore"):
        return -(K * kae * jn - z0 * jnp) / (K * kae * hn - z0 * hnp)


def scattering_coefficient(n: int, ka: float, K: float, z0: complex) -> complex:
    """Partial-wave coefficient B_n of the scattered (H1) series."""
    _positive(ka, "ka")
    stack = OrderStack([ka], 0.0, [n])
    b = _coefficients(stack, ka, K, z0)
    stack.faults.check(0)
    return complex(b[0])


def form_function(theta, b, ka: float):
    """Far-field form function f(theta) of the truncated partial-wave sum."""
    _positive(ka, "ka")
    th = np.asarray(theta, dtype=float)
    out = np.zeros(th.shape, dtype=complex)
    for n, bn in enumerate(b):
        eps = 1.0 if n == 0 else 2.0
        out += eps * bn * np.cos(n * th)
    out *= -1j / math.sqrt(ka)
    return complex(out) if th.ndim == 0 else out


def total_cross_section(b, ka: float) -> float:
    """sigma_tot = (4 pi / ka) Im f(0)."""
    _positive(ka, "ka")
    return 4.0 * math.pi / ka * complex(form_function(0.0, b, ka)).imag


def pressure_field(points, b, ka: float, K: float = 1.0) -> np.ndarray:
    """Total pressure (incident + scattered) at exterior (r, theta) points.

    The incident plane wave travels along theta = 0 and is the closed form
    exp(i k r cos theta); the scattered sum
    sum_n eps_n i^n B_n H_n(kr) cos(n theta) runs over the orders of b, one
    hankel1 call per order.  Amplitude is per unit incident pressure
    amplitude times K*k.  A ka that is not positive and finite, or a
    non-finite r or theta, raises ValueError; a point inside r = a raises
    InteriorPoint.
    """
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != 2:
        raise ValueError("points must be (r, theta) pairs")
    _positive(ka, "ka")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    r = pts[:, 0]
    theta = pts[:, 1]
    if np.any(r < A_OUTER * (1 - 1e-12)):
        raise InteriorPoint("pressure_field is exterior-only (r >= a)")
    k = ka / A_OUTER
    x = k * r
    p = np.exp(1j * x * np.cos(theta))
    for n, bn in enumerate(b):
        # eps_n i^n B_n, i^n from its period: 1j ** n is inexact past n = 100
        c = (1.0 if n == 0 else 2.0) * 1j ** (n % 4) * bn
        p += c * special.hankel1(n, x) * np.cos(n * theta)
    p *= K * k
    return p[0] if squeeze else p


_F_ANGLES = (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi)


def _inner_impedances(config: ScatteringConfig,
                      stack: OrderStack) -> np.ndarray:
    """The 3x3 inner impedance of every entry of the stack."""
    first = config.layers[0]
    if config.inner_impedance is None:
        return _impedance(1, first, stack, stack.wavenumbers(first),
                          first.r_inner)
    given = np.asarray(config.inner_impedance, dtype=complex)
    if given.ndim == 0:
        z = complex(given) * np.eye(3)
    elif given.shape == (3, 3):
        z = given
    elif given.shape == (2, 2):
        z = np.zeros((3, 3), dtype=complex)
        z[:2, :2] = given
    else:
        raise ValueError("inner_impedance must be a scalar, 2x2 or 3x3 matrix")
    return np.broadcast_to(z, (len(stack.n), 3, 3))


def _integrated_orders(config: ScatteringConfig,
                       stack: OrderStack) -> np.ndarray:
    """z(a) of every entry from one stacked march of the in-plane system;
    an entry whose inner impedance or march fails keeps its error in the
    stack's record, and its rows of z mean nothing."""
    layers = config.layers
    z_in = _inner_impedances(config, stack)
    profile = RadialProfile.piecewise(
        [(lay.r_inner, lay.r_outer, lay.material()) for lay in layers])
    ctxs = [WaveContext(omega=stack.omega[f], n=n, kz=0.0, m=2)
            for f, n in zip(stack.f.tolist(), stack.n.tolist())]
    z = np.zeros((len(stack.n), 2, 2), dtype=complex)
    for _, z, _ in _march(profile, ctxs, z_in[:, :2, :2], layers[0].r_inner,
                          layers[-1].r_outer, config.steps, config.scheme,
                          stack.faults):
        pass
    return z


def _recursion_orders(config: ScatteringConfig,
                      stack: OrderStack) -> np.ndarray:
    """z(a) of every entry from the closed-form layers joined recursively."""
    z_in = _inner_impedances(config, stack)
    return _conditional_stack(_global_stack(config.layers, stack), z_in,
                              stack.faults)


def _runs(sizes: list):
    """Consecutive runs of the indices of sizes, entries per ka, whose sum
    fits _STACK_ENTRIES; a ka that alone passes it is a run of its own."""
    run, total = [], 0
    for i, size in enumerate(sizes):
        if run and total + size > _STACK_ENTRIES:
            yield run
            run, total = [], 0
        run.append(i)
        total += size
    if run:
        yield run


def _stop(b, tail: float):
    """The first order n >= 1 at which |b| of orders n - 1 and n are both
    below tail, or None."""
    small = np.abs(b) < tail
    hits = np.flatnonzero(small[1:] & small[:-1])
    return int(hits[0]) + 1 if len(hits) else None


def _default_cap(ka: float) -> int:
    return 2 * math.ceil(ka) + 12


def _estimate(ka: float, cap: int) -> int:
    """Where the walk of ka is expected to stop: the first order n >= 1 at
    which orders n - 1 and n of both the soft and the rigid cylinder,
    |B_n| = |J_n(ka) / H_n(ka)| and |J_n'(ka) / H_n'(ka)|, lie below
    _B_TAIL / 100; the cap if none up to it does.  A fluid-side bound of
    the kind of Wiscombe (Appl. Opt. 19 (1980) 1505); the 100 is a
    margin, and no result rests on it (see the module docstring).  The
    scan goes past the default cap only if no stop lies below it; scipy
    evaluates each order alone, so n_est is that of one scan to the cap.
    A scan to top takes J and Y of orders 0..top + 1 in one scipy call
    each, H_n = J_n + i Y_n and the derivatives from neighbouring orders."""
    for top in sorted({min(cap, _default_cap(ka)), cap}):
        n = np.arange(top + 2)
        j = special.jv(n, ka)
        h = _hankel(KIND_H1, j, special.yn(n, ka))
        i = n[:-1]
        with np.errstate(all="ignore"):
            b = np.maximum(np.abs(j[i] / h[i]), np.abs(
                _prime(j, i, i[:1]) / _prime(h, i, i[:1])))
        stop = _stop(b, _B_TAIL / 100)
        if stop is not None:
            return stop
    return cap


def _stacked(config: ScatteringConfig, spans: list) -> list:
    """For each (ka, lo, hi) of spans, the B_n of orders lo..hi at ka and,
    per order, the record of the one stack they are all solved on and its
    entry there."""
    kas = [ka for ka, _, _ in spans]
    a = config.layers[-1].r_outer
    sizes = [hi - lo + 1 for _, lo, hi in spans]
    stack = OrderStack([k / a for k in kas], 0.0,
                       np.concatenate([np.arange(lo, hi + 1)
                                       for _, lo, hi in spans]),
                       np.repeat(np.arange(len(spans)), sizes))
    if config.method == "integrate":
        z = _integrated_orders(config, stack)
    else:
        z = _recursion_orders(config, stack)
    b = _coefficients(stack, np.array(kas), FluidHalfSpace.K,
                      _surface_impedances(z, stack.faults))
    ends = np.cumsum(sizes).tolist()
    return [(b[e - s:e], [(stack.faults, i) for i in range(e - s, e)])
            for s, e in zip(sizes, ends)]


def _walk(config: ScatteringConfig, b: np.ndarray,
          entries: list) -> ScatteringResult:
    """The truncation walk of one ka over its B_n, b, orders 0 on; entry n
    of entries is the record of order n and its index there."""
    stop = _stop(b, _B_TAIL)
    reached = len(b) if stop is None else stop + 1
    for faults, i in entries[:reached]:
        # warnings point past _walk and _solve_kas at the line that called
        # solve_scattering or solve_sweep
        faults.check(i, stacklevel=5)
    b = tuple(map(complex, b[:reached]))
    f = form_function(np.array(_F_ANGLES), b, config.ka)
    # total_cross_section's (4 pi / ka) Im f(0), from _F_ANGLES[0] = 0
    sigma = 4.0 * math.pi / config.ka * float(f[0].imag)
    return ScatteringResult(b=b, ka=config.ka, sigma_tot=sigma,
                            f_samples=tuple(zip(_F_ANGLES, map(complex, f))))


def _solve_kas(config: ScatteringConfig, kas) -> list:
    """The body of solve_sweep and solve_scattering, one frame below each so
    that the walk's warnings name their caller's line."""
    configs = [replace(config, ka=ka) for ka in kas]
    caps = [c.n_max if c.n_max is not None else _default_cap(c.ka)
            for c in configs]
    ests = [_estimate(c.ka, cap) for c, cap in zip(configs, caps)]
    out = []
    for run in _runs([e + 1 for e in ests]):
        # pass 1: orders 0..n_est of each ka; pass 2: n_est + 1..cap of
        # each ka whose walk does not stop by n_est
        got = dict(zip(run, _stacked(
            config, [(configs[i].ka, 0, ests[i]) for i in run])))
        more = [i for i in run
                if ests[i] < caps[i] and _stop(got[i][0], _B_TAIL) is None]
        for sub in _runs([caps[i] - ests[i] for i in more]):
            part = [more[j] for j in sub]
            for i, (b, entries) in zip(part, _stacked(
                    config, [(configs[i].ka, ests[i] + 1, caps[i])
                             for i in part])):
                got[i] = (np.concatenate([got[i][0], b]), got[i][1] + entries)
        for i in run:
            out.append(_walk(configs[i], *got[i]))
    return out


def solve_sweep(config: ScatteringConfig, kas) -> list:
    """solve_scattering at each ka of kas with the other settings of config,
    in order, every ka of a run of consecutive ones on one stack (see the
    module docstring); each result equals its one-ka solve bit for bit.
    Each ka is validated before any is solved; then the first ka in order
    whose walk meets a typed error raises it."""
    return _solve_kas(config, kas)


def solve_scattering(config: ScatteringConfig) -> ScatteringResult:
    """Run the partial-wave pipeline for one frequency.

    The surface impedance z(a) of each order solved is produced
    either by Moebius integration of the in-plane (m=2) system from the
    inner radius outward ("integrate") or from the closed-form layer
    impedances joined recursively ("recursion").  The inner condition is
    the exact solid-core impedance of the innermost material unless one is
    supplied.  Only n >= 0 is evaluated; negative orders are folded into the
    eps_n cos(n theta) sums, which is exact for this geometry.

    Truncation: hard cap n_max (default 2*ceil(ka) + 12), early stop once
    |B_n| < 1e-10 twice in a row; an order's typed error is raised only if
    the walk reaches it.  Orders are solved up to an estimate of the stop
    from the soft- and rigid-cylinder coefficients at ka, and past it, up to
    the cap, only if the walk reads on; the result is the same bit for bit
    (see the module docstring).  This is the one-ka case of the stacked
    sweep solve.
    """
    return _solve_kas(config, [config.ka])[0]
