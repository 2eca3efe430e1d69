"""Conditional impedance: Riccati dynamics, stable Moebius marching, and the
conversions among the conditional impedance z, the matricant M and the
two-point impedance Z.

The conditional impedance z(r) relates traction to displacement at one
surface given an inner condition, V = -i z U, and satisfies a matrix Riccati
equation.  Direct integration of that equation blows up at impedance poles
(traction-free resonance radii), so the production path advances z through
the fractional-linear (Moebius) action of short-span matricants, which passes
through poles projectively.  A deliberately naive Runge-Kutta integrator is
kept for demonstrating the instability.

The march is sequential in r only.  It advances a stack of entries (the
partial-wave orders of one solve, or the single one of integrate_impedance)
together, in blocks of _BLOCK_STEPS steps: the propagators of a block come
from one batched sampling of Q and one kernel call, and the Moebius update
runs on the whole stack per step.  An entry that fails (a step past the
guard, an overflowing exponential or a singular Moebius denominator) leaves
the stack with its typed error and the others march on; integrate_impedance
raises it, a scattering solve only when its truncation walk reaches that
order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elastodyn import _q_sampler
from .errors import (DegenerateSpan, EntryFaults, Overflow, PoleCrossing,
                     ResonantInner, SingularMatrix, StepTooLarge)
from .matricant import Matricant, _check_span, _step_kernel, _step_samples
from .numkernel import _inverse_each, _norm1, mat_inverse

_POLE_COND = 1e14
# steps whose propagators are held at once: it bounds the march's memory at
# (nodes x 10 x orders) sampled matrices
_BLOCK_STEPS = 10
# the failures that stop one entry of a stacked march, not the others
_ENTRY_FAILURES = (StepTooLarge, Overflow, SingularMatrix)


@dataclass(frozen=True)
class ConditionalImpedance:
    """m x m impedance z valid at radius r.

    `events` carries informational PoleCrossing records picked up while
    marching; it is empty for analytically constructed impedances.
    """

    z: np.ndarray
    r: float
    events: tuple = ()

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError("impedance must be square")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class Admittance:
    a: np.ndarray
    r: float


@dataclass(frozen=True)
class TwoPointImpedance:
    """2m x 2m Hermitian (for lossless media) two-surface impedance."""

    z: np.ndarray
    r_from: float
    r_to: float
    half: int = field(init=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.ndim != 2 or z.shape[0] != z.shape[1] or z.shape[0] % 2:
            raise ValueError("two-point impedance must be square, even size")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "half", z.shape[0] // 2)

    @property
    def z1(self) -> np.ndarray:
        return self.z[:self.half, :self.half]

    @property
    def z2(self) -> np.ndarray:
        return self.z[:self.half, self.half:]

    @property
    def z3(self) -> np.ndarray:
        return self.z[self.half:, :self.half]

    @property
    def z4(self) -> np.ndarray:
        return self.z[self.half:, self.half:]


def _zmat(z) -> np.ndarray:
    return z.z if isinstance(z, ConditionalImpedance) else np.asarray(z, dtype=complex)


def _qblocks(q):
    if hasattr(q, "q1"):
        return q.q1, q.q2, q.q3, q.q4
    q = np.asarray(q, dtype=complex)
    m = q.shape[0] // 2
    return q[:m, :m], q[:m, m:], q[m:, :m], q[m:, m:]


def riccati_rhs(z, q) -> np.ndarray:
    """dz/dr = -z Q1 + Q4 z + i z Q2 z + i Q3."""
    zm = _zmat(z)
    q1, q2, q3, q4 = _qblocks(q)
    return -zm @ q1 + q4 @ zm + 1j * (zm @ q2 @ zm) + 1j * q3


def admittance_rhs(a, q) -> np.ndarray:
    """da/dr = -i a Q3 a - a Q4 + Q1 a - i Q2."""
    am = a.a if isinstance(a, Admittance) else np.asarray(a, dtype=complex)
    q1, q2, q3, q4 = _qblocks(q)
    return -1j * (am @ q3 @ am) - am @ q4 + q1 @ am - 1j * q2


def _mobius(z: np.ndarray, m: np.ndarray) -> tuple:
    """z' = i (M3 - i M4 z)(M1 - i M2 z)^-1 over a stack, and the 1-norm
    condition number of each denominator."""
    k = z.shape[-1]
    den = m[..., :k, :k] - 1j * (m[..., :k, k:] @ z)
    den_inv = mat_inverse(den)
    znew = 1j * ((m[..., k:, :k] - 1j * (m[..., k:, k:] @ z)) @ den_inv)
    return znew, _norm1(den) * _norm1(den_inv)


def mobius_step(z: ConditionalImpedance, m: Matricant) -> ConditionalImpedance:
    """Advance z by the fractional-linear action of a matricant:

        z' = i (M3 - i M4 z)(M1 - i M2 z)^-1

    When the denominator is numerically on an impedance pole
    (condition > 1e14) a PoleCrossing record is attached to the result;
    the map itself stays finite on either side of the pole, so marching
    continues.
    """
    znew, cond = _mobius(_zmat(z), m.m)
    events = z.events
    if cond > _POLE_COND:
        events = events + (PoleCrossing(m.r_to, float(cond)),)
    return ConditionalImpedance(znew, m.r_to, events)


def impedance_from_matricant(m: Matricant, z0: ConditionalImpedance) -> ConditionalImpedance:
    """Same fractional-linear formula applied with a full-span matricant."""
    return mobius_step(z0, m)


def _march_block(sample, z, r, h, propagators, nodes) -> tuple:
    """Advance the stack z over the steps starting at radii r; returns the
    new stack and the (entry, PoleCrossing) records of the block."""
    mats = propagators(h, _step_samples(sample, r, h, nodes))
    events = []
    for ri, mi in zip(r, mats):
        z, cond = _mobius(z, mi)
        for j in np.flatnonzero(cond > _POLE_COND):
            events.append((j, PoleCrossing(float(ri + h), float(cond[j]))))
    return z, events


def _march(profile, ctxs, z0s, r0: float, r1: float, steps: int,
           scheme) -> list:
    """March every entry (ctxs[j], z0s[j]) from r0 to r1 in equal steps.

    Returns per entry the ConditionalImpedance at r1, or the typed error
    that stopped it.  A block that fails is retried entry by entry, which
    finds the failing entries and lets the others go on.
    """
    h = (r1 - r0) / steps
    _check_span(profile, r0, r1 - r0)
    propagators, nodes = _step_kernel(scheme)
    z = np.array([_zmat(z0) for z0 in z0s])
    events = [tuple(getattr(z0, "events", ())) for z0 in z0s]
    out = [None] * len(ctxs)
    live = list(range(len(ctxs)))
    sample = _q_sampler(profile, ctxs)
    for start in range(0, steps, _BLOCK_STEPS):
        r = r0 + np.arange(start, min(start + _BLOCK_STEPS, steps)) * h
        try:
            z[live], found = _march_block(sample, z[live], r, h,
                                          propagators, nodes)
            found = [(live[j], ev) for j, ev in found]
        except _ENTRY_FAILURES:
            found = []
            for j in list(live):
                try:
                    z[[j]], ev = _march_block(_q_sampler(profile, [ctxs[j]]),
                                              z[[j]], r, h, propagators,
                                              nodes)
                    found += [(j, e) for _, e in ev]
                except _ENTRY_FAILURES as err:
                    out[j] = err
                    live.remove(j)
            if not live:
                break
            sample = _q_sampler(profile, [ctxs[j] for j in live])
        for j, ev in found:
            events[j] += (ev,)
    r_end = r0 + (steps - 1) * h + h
    for j in live:
        out[j] = ConditionalImpedance(z[j], r_end, events[j])
    return out


def integrate_impedance(profile, ctx, z0: ConditionalImpedance, r0: float,
                        r1: float, steps: int, scheme) -> ConditionalImpedance:
    """March z from r0 to r1 in equal Moebius steps.

    A global matricant is never formed; each step's propagator spans only
    h = (r1-r0)/steps, which is what keeps the growing solutions from
    swamping the result.  PoleCrossing events accumulate on the returned
    impedance.  This is the stacked march with a stack of one.
    """
    if not r0 < r1:
        raise ValueError("need r0 < r1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    (z,) = _march(profile, [ctx], [z0], r0, r1, steps, scheme)
    if isinstance(z, Exception):
        raise z
    return z


def twopoint_from_matricant(m: Matricant) -> TwoPointImpedance:
    """Convert a propagator to the two-surface impedance form.

        Z1 = -i M2^-1 M1      Z2 = i M2^-1
        Z3 = i (M4 M2^-1 M1 - M3)      Z4 = -i M4 M2^-1
    """
    try:
        m2inv = mat_inverse(m.m2)
    except SingularMatrix:
        raise DegenerateSpan(
            "M2 singular: span too short for the two-point form") from None
    mm = m.half
    z = np.empty((2 * mm, 2 * mm), dtype=complex)
    z[:mm, :mm] = -1j * (m2inv @ m.m1)
    z[:mm, mm:] = 1j * m2inv
    z[mm:, :mm] = 1j * (m.m4 @ m2inv @ m.m1 - m.m3)
    z[mm:, mm:] = -1j * (m.m4 @ m2inv)
    return TwoPointImpedance(z, m.r_from, m.r_to)


def matricant_from_twopoint(z: TwoPointImpedance) -> Matricant:
    """Inverse of twopoint_from_matricant:

        M1 = -Z2^-1 Z1        M2 = i Z2^-1
        M3 = i Z3 - i Z4 Z2^-1 Z1      M4 = -Z4 Z2^-1
    """
    z2inv = mat_inverse(z.z2)
    mm = z.half
    m = np.empty((2 * mm, 2 * mm), dtype=complex)
    m[:mm, :mm] = -z2inv @ z.z1
    m[:mm, mm:] = 1j * z2inv
    m[mm:, :mm] = 1j * z.z3 - 1j * (z.z4 @ z2inv @ z.z1)
    m[mm:, mm:] = -z.z4 @ z2inv
    return Matricant(m, z.r_from, z.r_to)


def _conditional_stack(zz: np.ndarray, z0: np.ndarray,
                       faults: EntryFaults) -> np.ndarray:
    k = zz.shape[-1] // 2
    with np.errstate(all="ignore"):
        inner, singular = _inverse_each(zz[:, :k, :k] - z0)
        faults.fail(singular, ResonantInner(
            "Z1 - z0 singular (inner-surface resonance)"))
        return zz[:, k:, :k] @ inner @ zz[:, :k, k:] - zz[:, k:, k:]


def conditional_from_twopoint(z: TwoPointImpedance,
                              z0) -> ConditionalImpedance:
    """z(r_to) = Z3 (Z1 - z0)^-1 Z2 - Z4 given the inner condition z0."""
    faults = EntryFaults(1)
    zc = _conditional_stack(z.z[None], _zmat(z0)[None], faults)
    faults.check(0)
    return ConditionalImpedance(zc[0], z.r_to)


@dataclass(frozen=True)
class RiccatiTrace:
    """Radius/impedance samples from the naive integrator.

    blowup_radius is the first radius where an entry passed 1e10 (an
    impedance pole encountered head-on), or None if the whole span stayed
    tame.  The trace stops at the blowup.
    """

    radii: np.ndarray
    values: tuple
    blowup_radius: float | None


def naive_riccati_integrate(profile, ctx, z0, r0: float, r1: float,
                            steps: int) -> RiccatiTrace:
    """Classical 4-stage explicit Runge-Kutta on the Riccati equation.

    This is the unstable textbook approach, kept as a foil: it cannot pass
    impedance poles and the trace records where it dies.
    """
    from .elastodyn import q_matrix

    if not r0 < r1:
        raise ValueError("need r0 < r1")
    h = (r1 - r0) / steps
    z = _zmat(z0).copy()
    radii = [r0]
    values = [z.copy()]
    blowup = None

    def rhs(r, zz):
        return riccati_rhs(zz, q_matrix(profile, ctx, r))

    for i in range(steps):
        r = r0 + i * h
        k1 = rhs(r, z)
        k2 = rhs(r + 0.5 * h, z + 0.5 * h * k1)
        k3 = rhs(r + 0.5 * h, z + 0.5 * h * k2)
        k4 = rhs(r + h, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rnext = r + h
        radii.append(rnext)
        values.append(z.copy())
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > 1e10:
            blowup = rnext
            break
    return RiccatiTrace(np.array(radii), tuple(values), blowup)
