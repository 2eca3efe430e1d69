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

The march is sequential in r only, and the package has one.  It advances a
stack of entries (the partial-wave orders of one solve, or the single entry
of integrate_impedance or of the impedance-trace command) in blocks of
_BLOCK_STEPS steps: one batched sampling of Q and one kernel call per block,
the Moebius update on the whole stack per step.  An entry past the step
guard or with a singular Moebius denominator records its typed error in the
caller's EntryFaults and leaves the stack; integrate_impedance raises it, a
scattering solve only when its truncation walk reaches that order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elastodyn import _q_sampler
from .errors import (DegenerateSpan, EntryFaults, PoleCrossing, ResonantInner,
                     SingularMatrix)
from .matricant import Matricant, _check_span, _step_kernel, _step_samples
from .numkernel import _inverse_each, _norm1, mat_inverse

_POLE_COND = 1e14
# steps whose propagators are held at once: it bounds the march's memory at
# (nodes x 10 x orders) sampled matrices
_BLOCK_STEPS = 10


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
    """z' = i (M3 - i M4 z)(M1 - i M2 z)^-1 over a stack, the 1-norm
    condition number of each denominator and the mask of the singular ones."""
    k = z.shape[-1]
    with np.errstate(all="ignore"):
        den = m[..., :k, :k] - 1j * (m[..., :k, k:] @ z)
        den_inv, singular = _inverse_each(den)
        znew = 1j * ((m[..., k:, :k] - 1j * (m[..., k:, k:] @ z)) @ den_inv)
        return znew, _norm1(den) * _norm1(den_inv), singular


def mobius_step(z: ConditionalImpedance, m: Matricant) -> ConditionalImpedance:
    """Advance z by the fractional-linear action of a matricant:

        z' = i (M3 - i M4 z)(M1 - i M2 z)^-1

    When the denominator is numerically on an impedance pole
    (condition > 1e14) a PoleCrossing record is attached to the result;
    the map itself stays finite on either side of the pole, so marching
    continues.  A singular denominator raises SingularMatrix.
    """
    znew, cond, singular = _mobius(_zmat(z), m.m)
    if singular:
        raise SingularMatrix("Moebius denominator singular")
    events = z.events
    if cond > _POLE_COND:
        events = events + (PoleCrossing(m.r_to, float(cond)),)
    return ConditionalImpedance(znew, m.r_to, events)


def impedance_from_matricant(m: Matricant, z0: ConditionalImpedance) -> ConditionalImpedance:
    """Same fractional-linear formula applied with a full-span matricant."""
    return mobius_step(z0, m)


def _march(profile, ctxs, z0s, r0: float, r1: float, steps: int, scheme,
           faults: EntryFaults):
    """March the entries (ctxs[j], z0s[j]) with no error in faults from r0 to
    r1 in equal steps, yielding after each step the radius, the live entries,
    their z as one array and the step's (entry, PoleCrossing) records.  An
    entry past the step guard or with a singular Moebius denominator gets
    that StepTooLarge or SingularMatrix in faults and leaves the stack."""
    h = (r1 - r0) / steps
    _check_span(profile, r0, r1 - r0)
    propagators, nodes = _step_kernel(scheme)
    live = np.flatnonzero(faults.ok)
    z = np.array([_zmat(z0s[j]) for j in live])
    sample, start = None, 0
    while start < steps and len(live):
        if sample is None:
            sample = _q_sampler(profile, [ctxs[j] for j in live])
        r = r0 + np.arange(start, min(start + _BLOCK_STEPS, steps)) * h
        qs, errors = _step_samples(sample, r, h, nodes)
        fail = np.not_equal(errors, None)
        if fail.any():
            # the block is sampled again for the entries left
            faults.errors[live[fail]] = errors[fail]
            live, z, sample = live[~fail], z[~fail], None
            continue
        # Past the guard h |D^-1 Q D|_2 <= 20 bounds an exp exponent by 20, a
        # Magnus one (nodes sharing D) by 20 + (sqrt(3)/6) 20^2 ~ 135, so
        # mat_exp stays below e^135 max(s, 1/s), finite unless s > 1e249, and
        # its Pade denominator is regular: no entry needs an Overflow path.
        mats = propagators(h, qs)
        for k, rk in enumerate(r + h):
            z, cond, singular = _mobius(z, mats[k])
            if singular.any():
                faults.errors[live[singular]] = SingularMatrix(
                    "Moebius denominator singular")
                live, z, cond = live[~singular], z[~singular], cond[~singular]
                if not len(live):
                    return
                mats, sample = np.ascontiguousarray(mats[:, ~singular]), None
            yield float(rk), live, z, [
                (live[j], PoleCrossing(float(rk), float(cond[j])))
                for j in np.flatnonzero(cond > _POLE_COND)]
        # no block's samples or propagators outlive it into the next
        del qs, mats
        start += _BLOCK_STEPS


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
    faults = EntryFaults(1)
    events = tuple(getattr(z0, "events", ()))
    for r, _, z, found in _march(profile, [ctx], [z0], r0, r1, steps, scheme,
                                 faults):
        events += tuple(ev for _, ev in found)
    faults.check(0)
    return ConditionalImpedance(z[0], r, events)


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
