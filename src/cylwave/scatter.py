"""Plane-wave acoustic scattering from a layered elastic cylinder in water.

Normalized units throughout: fluid density 1, sound speed 1 (so the fluid
bulk modulus K is 1), outer radius a = 1, hence k = ka and omega = ka.  Time
convention e^{-i omega t}, outgoing waves carried by H(1).

The elastic side enters only through the scalar surface impedance z0,
obtained from the conditional impedance matrix at r = a by eliminating the
tangential displacement components under zero tangential traction.

Both routes compute every order up to the cap before one truncation walk
over the orders n: the integrate route in one stacked Moebius march, the
recursion route as array code over the orders (closed-form layers, joins,
inner impedance), and both then z0 and B_n over the orders.  A typed error
of an order (a cylinder-function zero or impedance pole, a degenerate
basis, an interface or inner resonance, the step guard, a singular Moebius
denominator) and its AccuracyLoss warnings are kept in the stack's record
and surface only if the walk reaches that order, so orders past the early
stop never fail a solve; the march skips an order that already failed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .cylfun import KIND_H1, KIND_J
from .elastodyn import RadialProfile, WaveContext
from .errors import EntryFaults, InteriorPoint, TangentialResonance
from .impedance import ConditionalImpedance, _conditional_stack, _march
from .numkernel import _inverse_each
from .tilayers import (OrderStack, _global_stack, _impedance,
                       _wavenumbers)

A_OUTER = 1.0
_B_TAIL = 1e-10


@dataclass(frozen=True)
class FluidHalfSpace:
    """Exterior fluid; normalized so K = rho_f * c^2 = 1."""

    k: float
    K: float = 1.0
    rho_f: float = 1.0

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("wavenumber must be positive")


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
        if not self.layers:
            raise ValueError("need at least one layer")
        if not 0 < self.ka < math.inf:
            raise ValueError("ka must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.method not in ("integrate", "recursion"):
            raise ValueError(f"unknown method {self.method!r}")


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


def _coefficients(stack: OrderStack, ka: float, K: float,
                  z0: np.ndarray) -> np.ndarray:
    jn, jnp = stack.table(KIND_J, ka)
    hn, hnp = stack.table(KIND_H1, ka)
    with np.errstate(all="ignore"):
        return -(K * ka * jn - z0 * jnp) / (K * ka * hn - z0 * hnp)


def scattering_coefficient(n: int, ka: float, K: float, z0: complex) -> complex:
    """Partial-wave coefficient B_n of the scattered (H1) series."""
    if ka <= 0:
        raise ValueError("ka must be positive")
    stack = OrderStack(ka, 0.0, [n])
    b = _coefficients(stack, ka, K, z0)
    stack.faults.check(0)
    return complex(b[0])


def form_function(theta, b, ka: float):
    """Far-field form function f(theta) of the truncated partial-wave sum."""
    th = np.asarray(theta, dtype=float)
    out = np.zeros(th.shape, dtype=complex)
    for n, bn in enumerate(b):
        eps = 1.0 if n == 0 else 2.0
        out += eps * bn * np.cos(n * th)
    out *= -1j / math.sqrt(ka)
    return complex(out) if th.ndim == 0 else out


def total_cross_section(b, ka: float) -> float:
    """sigma_tot = (4 pi / ka) Im f(0)."""
    return 4.0 * math.pi / ka * complex(form_function(0.0, b, ka)).imag


def pressure_field(points, b, ka: float, K: float = 1.0) -> np.ndarray:
    """Total pressure (incident + scattered) at exterior (r, theta) points.

    The incident plane wave travels along theta = 0; its partial-wave sum is
    truncated adaptively (well past the kr turning point), the scattered sum
    by the length of b.  Amplitude is per unit incident pressure amplitude
    times K*k.
    """
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != 2:
        raise ValueError("points must be (r, theta) pairs")
    r = pts[:, 0]
    theta = pts[:, 1]
    if np.any(r < A_OUTER * (1 - 1e-12)):
        raise InteriorPoint("pressure_field is exterior-only (r >= a)")
    k = ka / A_OUTER
    x = k * r
    xmax = float(np.max(x))
    n_inc = max(len(b), int(math.ceil(xmax + 8.0 * xmax ** (1.0 / 3.0) + 20)))
    p = np.zeros(r.shape, dtype=complex)
    for n in range(n_inc + 1):
        eps = 1.0 if n == 0 else 2.0
        term = special.jv(n, x).astype(complex)
        if n < len(b):
            term = term + b[n] * special.hankel1(n, x)
        p += eps * (1j ** n) * term * np.cos(n * theta)
    p *= K * k
    return p[0] if squeeze else p


_F_ANGLES = (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi)


def _inner_impedances(config: ScatteringConfig,
                      stack: OrderStack) -> np.ndarray:
    """The 3x3 inner impedance of every order of the stack."""
    first = config.layers[0]
    if config.inner_impedance is None:
        return _impedance(1, first, stack, _wavenumbers(
            first, stack.omega, stack.kz), first.r_inner)
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
    """z(a) of every order from one stacked march of the in-plane system;
    an order whose inner impedance or march fails keeps its error in the
    stack's record."""
    layers = config.layers
    z_in = _inner_impedances(config, stack)
    profile = RadialProfile.piecewise(
        [(lay.r_inner, lay.r_outer, lay.material()) for lay in layers])
    ctxs = [WaveContext(omega=stack.omega, n=int(n), kz=0.0, m=2)
            for n in stack.n]
    z = np.zeros((len(stack.n), 2, 2), dtype=complex)
    for _, live, z_live, _ in _march(profile, ctxs, z_in[:, :2, :2],
                                     layers[0].r_inner, layers[-1].r_outer,
                                     config.steps, config.scheme,
                                     stack.faults):
        pass
    if stack.faults.ok.any():
        z[live] = z_live
    return z


def _recursion_orders(config: ScatteringConfig,
                      stack: OrderStack) -> np.ndarray:
    """z(a) of every order from the closed-form layers joined recursively."""
    z_in = _inner_impedances(config, stack)
    return _conditional_stack(_global_stack(config.layers, stack), z_in,
                              stack.faults)


def solve_scattering(config: ScatteringConfig) -> ScatteringResult:
    """Run the partial-wave pipeline for one frequency.

    The surface impedance z(a) of every order up to the cap is produced
    either by Moebius integration of the in-plane (m=2) system from the
    inner radius outward ("integrate") or from the closed-form layer
    impedances joined recursively ("recursion").  The inner condition is
    the exact solid-core impedance of the innermost material unless one is
    supplied.  Only n >= 0 is evaluated; negative orders are folded into the
    eps_n cos(n theta) sums, which is exact for this geometry.

    Truncation: hard cap n_max (default 2*ceil(ka) + 12), early stop once
    |B_n| < 1e-10 twice in a row; an order's typed error is raised only if
    the walk reaches it (see the module docstring).
    """
    layers = config.layers
    a = layers[-1].r_outer
    n_cap = config.n_max
    if n_cap is None:
        n_cap = 2 * math.ceil(config.ka) + 12
    fluid = FluidHalfSpace(k=config.ka / a)
    stack = OrderStack(config.ka / a, 0.0, np.arange(n_cap + 1))
    if config.method == "integrate":
        z = _integrated_orders(config, stack)
    else:
        z = _recursion_orders(config, stack)
    b_all = _coefficients(stack, config.ka, fluid.K,
                          _surface_impedances(z, stack.faults))

    bs = []
    small_run = 0
    for n in range(n_cap + 1):
        stack.faults.check(n)
        bn = complex(b_all[n])
        bs.append(bn)
        if abs(bn) < _B_TAIL:
            small_run += 1
            if small_run >= 2:
                break
        else:
            small_run = 0

    b = tuple(bs)
    f = form_function(np.array(_F_ANGLES), b, config.ka)
    # total_cross_section's (4 pi / ka) Im f(0), from _F_ANGLES[0] = 0
    sigma = 4.0 * math.pi / config.ka * float(f[0].imag)
    return ScatteringResult(b=b, ka=config.ka, sigma_tot=sigma,
                            f_samples=tuple(zip(_F_ANGLES, map(complex, f))))
