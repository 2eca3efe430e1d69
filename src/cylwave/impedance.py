"""Conditional impedance: Riccati dynamics, stable Moebius marching, and the
conversions among the conditional impedance z, the matricant M and the
two-point impedance Z.

The conditional impedance z(r) relates traction to displacement at one
surface given an inner condition, V = -i z U, and satisfies a matrix Riccati
equation.  Direct integration of that equation blows up at impedance poles
(traction-free resonance radii), so the production path advances z through
the fractional-linear (Moebius) action of short-span matricants, which passes
through poles projectively.  A span is short while its growing solutions
cannot swamp z, which they do only as its growth nears 1/eps: it need not
be one step.  A deliberately naive Runge-Kutta integrator is kept for
demonstrating the instability.

The march is sequential in r only, and the package has one.  It advances a
stack of entries (the (ka, n) entries of a scattering sweep, each with its
own WaveContext, or the single entry of integrate_impedance or of the
impedance-trace command) by the Moebius update on the propagators that
cylwave.matricant's block stepper samples, guards and forms.  Its blocks
hold whole runs of _RUN_GROUPS groups of _GROUP_STEPS steps, counted from
the start of each _segments piece, and only a piece's last run and group
may be short, so every block starts a run and the march carries nothing
but w from one block to the next.  Batched matmul multiplies each group's
steps for every group and entry of a block at once, and the groups of each
run into their prefix products.  One update of the run's starting w by
every prefix product gives z at each group end of the run.  An entry leaves
the run's update at the first group whose prefix product has a 1-norm past
_GROWTH_CAP and takes the rest of the run one update per group, or one per
step in a group whose own product passes the cap, so no update spans more
growth than the cap; the choice is the entry's own, and an entry marches
alike on any stack and in any blocks.  An entry past the step guard or with
a singular Moebius denominator records its typed error in the caller's
EntryFaults and then steps by the identity, keeping its index;
integrate_impedance raises the error, a scattering solve only when the
truncation walk of its ka reaches that order.

The Moebius update is closed form, with no LAPACK call: for den = M1 + M2 w
(m <= 3), w' = ((M3 + M4 w) adj(den)) * (1 / det(den)), the 2x2 adjugate
from a reversed view, the 3x3 one from fixed index tables.  The pole test
is each group's own update from the w of the group end before, whichever
update gave its z: its denominator's 1-norm condition number
|den|_1 |adj(den)|_1 / |det(den)| above 1e14 is a PoleCrossing at the
group's end, which the map passes finitely, and a replayed group takes its
steps' largest condition number.  A denominator is singular when det(den)
or w' is not finite (det = 0 makes w' infinite).  The march runs a block's
updates run by run, then forms every group's own denominator in one
batched call and takes the condition numbers, the singular mask, the
crossings and z = w * t for the whole block in one pass, and yields the
block's rows of z, one per group end, as they are; no later group writes
them.  A failing entry's NaNs stay in its own rows, and it records no
crossing from the group of its first singular denominator.

The state carries fixed powers of i, so the march steps with the gauged
samples D^-1 Q D, D = diag(i^p) with p = (0, 1, 1, 1, 0, 0) over (u_r, u_th,
u_z, v_r, v_th, v_z), and advances w = -i D2^-1 z D1 by
w' = (R3 + R4 w)(R1 + R2 w)^-1, R = D^-1 M D; products with powers of i are
exact.  The sampler applies the gauge (see cylwave.matricant).  Samples and
w whose imaginary parts are exactly zero, as for lossless isotropic, TI and
orthotropic moduli, are demoted to float64 and nothing is rounded; anything
else (a rotated law, a q_at hook) stays complex in the same code.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .elastodyn import _q_sampler, _state_index
from .errors import (DegenerateSpan, EntryFaults, PoleCrossing, ResonantInner,
                     SingularMatrix)
from .matricant import (_GROUP_STEPS, _RUN_GROUPS, Matricant, _blocks,
                        _segments)
from .numkernel import _demoted, _inverse_each, _norm1, mat_inverse

_POLE_COND = 1e14
# no Moebius update spans a product whose 1-norm passes this: an entry leaves
# its run's update at the first prefix product past it, and takes a group
# whose own product passes it one step at a time.  Marching uniform
# aluminium, steel and a soft solid from r0 = 0.1 and 0.5 (omega 1-60,
# n 0-30, 4000 lp4 steps, groups of 8-4000 steps) against the closed form,
# products below 1e3 kept z within 2.3 times the per-step march's error, and
# products of 1e4-1e6 reached 10-270 times
_GROWTH_CAP = 1e3


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


# adjugate of a 2x2 matrix: the transpose of its reversed view times a sign
# table; of a 3x3 one from index tables, adj[i, j] = a[j1, i1] a[j2, i2] -
# a[j1, i2] a[j2, i1] with i1, i2 = i+1, i+2 and j1, j2 = j+1, j+2 (mod 3)
_SIGN2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
_I, _J = np.indices((3, 3))
_ADJ3 = (np.stack([_J + 1, _J + 2, _J + 1, _J + 2]) % 3,
         np.stack([_I + 1, _I + 2, _I + 2, _I + 1]) % 3)


def _adjugate(a: np.ndarray) -> np.ndarray:
    """Adjugate of each 1x1, 2x2 or 3x3 matrix of a stack, in its dtype."""
    k = a.shape[-1]
    if k == 1:
        return np.ones_like(a)
    if k == 2:
        return a[..., ::-1, ::-1].swapaxes(-1, -2) * _SIGN2
    x = a[..., _ADJ3[0], _ADJ3[1]]
    return (x[..., 0, :, :] * x[..., 1, :, :]
            - x[..., 2, :, :] * x[..., 3, :, :])


def _mobius(w: np.ndarray, m: np.ndarray) -> tuple:
    """w' = (M3 + M4 w)(M1 + M2 w)^-1 over a stack, in closed form, with the
    denominators, their adjugates and determinants (see _verdict); w and m
    may be real or complex, and the caller holds np.errstate(all="ignore").

    With den = M1 + M2 w, w' = ((M3 + M4 w) adj(den)) * (1 / det(den)), the
    determinant expanded along den's first row.  numpy divides complex
    numbers by multiplying with a reciprocal, so w' multiplies by 1 / det
    rather than dividing: a complex stack whose entries are each real or
    imaginary, as the identity gauge gives, then rounds as the real one."""
    k = w.shape[-1]
    uv = m[..., :, :k] + m[..., :, k:] @ w
    den = uv[..., :k, :]
    adj = _adjugate(den)
    det = den[..., 0, 0] * adj[..., 0, 0]
    for j in range(1, k):
        det = det + den[..., 0, j] * adj[..., j, 0]
    return (uv[..., k:, :] @ adj) * (1.0 / det)[..., None, None], den, adj, det


def _verdict(w: np.ndarray, den: np.ndarray, adj: np.ndarray,
             det: np.ndarray) -> tuple:
    """The 1-norm condition number |den|_1 (|adj|_1 / |det|) of each Moebius
    denominator, and the mask of the singular ones: a determinant that is
    not finite or a w' that is not finite, which det = 0 always gives."""
    cond = _norm1(den) * (_norm1(adj) / np.abs(det))
    return cond, ~(np.isfinite(det) & np.isfinite(w).all(axis=(-2, -1)))


def mobius_step(z: ConditionalImpedance, m: Matricant) -> ConditionalImpedance:
    """Advance z by the fractional-linear action of a matricant:

        z' = i (M3 - i M4 z)(M1 - i M2 z)^-1

    evaluated by the march's closed-form kernel on w = -i z (the identity
    gauge).  When the denominator is numerically on an impedance pole, its
    condition number |den|_1 |adj(den)|_1 / |det(den)| above 1e14, a
    PoleCrossing record is attached to the result; the map itself stays
    finite on either side of the pole, so marching continues.  A
    determinant or a result that is not finite raises SingularMatrix.
    """
    with np.errstate(all="ignore"):
        out = _mobius(-1j * _zmat(z), m.m)
        cond, singular = _verdict(*out)
    if singular:
        raise SingularMatrix("Moebius denominator singular")
    events = z.events
    if cond > _POLE_COND:
        events = events + (PoleCrossing(m.r_to, float(cond)),)
    return ConditionalImpedance(1j * out[0], m.r_to, events)


def impedance_from_matricant(m: Matricant, z0: ConditionalImpedance) -> ConditionalImpedance:
    """Same fractional-linear formula applied with a full-span matricant."""
    return mobius_step(z0, m)


def _gauge(k: int) -> tuple:
    """For the gauge D of an m = k state, g with D^-1 Q D = Q * g and t with
    z = i D2 w D1^-1 = w * t, so w = z * conj(t); entries are +-1 or +-i."""
    d = np.array([1.0, 1j, 1j, 1j, 1.0, 1.0])[_state_index(k)]
    return d.conj()[:, None] * d, 1j * d[k:, None] * d[:k].conj()


def _fused(mats: np.ndarray) -> np.ndarray:
    """The product of each group of _GROUP_STEPS consecutive propagators of
    a block, left-multiplied in step order: (groups, entries, s, s), one @
    per step of a group over all full groups at once; a short last group,
    a piece's, is multiplied on its own."""
    full = len(mats) - len(mats) % _GROUP_STEPS
    steps = mats[:full].reshape((-1, _GROUP_STEPS) + mats.shape[1:])
    prods = [reduce(lambda p, m: m @ p, steps.swapaxes(0, 1))] if full else []
    if full < len(mats):
        prods.append(reduce(lambda p, m: m @ p, mats[full:])[None])
    return np.concatenate(prods)


def _stepwise(w: np.ndarray, mats: np.ndarray) -> tuple:
    """w through the propagators mats one step at a time, with the largest
    condition number of the steps' denominators and whether one of them
    was singular (see _verdict)."""
    cond, singular = 0.0, False
    for m in mats:
        out = _mobius(w, m)
        c, s = _verdict(*out)
        w, cond, singular = out[0], np.maximum(cond, c), singular | s
    return w, cond, singular


def _march(profile, ctxs, z0s, r0: float, r1: float, steps: int, scheme,
           faults: EntryFaults):
    """March every entry (ctxs[j], z0s[j]) from r0 to r1 on the steps of
    matricant._segments, yielding after each group of _GROUP_STEPS steps
    the radius of its end, the z of every entry as one array and the
    group's (entry, PoleCrossing) records.

    Every block of matricant._blocks starts a run of _RUN_GROUPS groups, so
    runs are counted from each block's start and the march carries nothing
    but w from one block to the next.  An entry takes each group end of a
    run as one Moebius update of the run's starting w by the run's prefix
    product, its group products so far multiplied, while every prefix
    product of the run so far has a 1-norm within _GROWTH_CAP; from the
    first group past the cap it takes the rest of the run one update per
    group, and a group whose own product passes the cap one step at a time.
    Per block the prefix products take _RUN_GROUPS - 1 batched matmuls,
    each run one _mobius call, and the pole test one more: every group's
    own update from the w before it, its block's starting w or the w at
    the group end before, so the test does not depend on the runs.

    An entry with an error in faults starts from z = 0; one past the step
    guard or with a singular Moebius denominator gets that StepTooLarge or
    SingularMatrix in faults.  Either steps by the identity (see
    matricant._blocks), records no crossing and its rows mean nothing.  A
    block's updates run under one np.errstate and are yielded after it, so
    the consumer keeps its own floating-point error settings."""
    z = np.array([_zmat(z0) for z0 in z0s])
    z[~faults.ok] = 0
    gauge, to_z = _gauge(z.shape[-1])
    w = _demoted(z * to_z.conj())
    # the groups at place p = 1, 2, ... of their runs, and the groups
    # before them
    inner = [(slice(p, None, _RUN_GROUPS), slice(p - 1, -1, _RUN_GROUPS))
             for p in range(1, _RUN_GROUPS)]
    for radii, mats in _blocks(profile, ctxs, r0, r1 - r0, steps, scheme,
                               faults, gauge):
        # the groups' last steps, only a piece's last group short
        ends = np.r_[_GROUP_STEPS:len(radii):_GROUP_STEPS, len(radii)] - 1
        with np.errstate(all="ignore"):
            prods = _fused(mats)
            pre = prods.copy()
            for at, back in inner:
                pre[at] = prods[at] @ pre[back]
            fell = _norm1(pre) > _GROWTH_CAP
            for at, back in inner:
                fell[at] |= fell[back]
            falls = fell.any(axis=1).tolist()
            outs, replays = [w[None]], []
            for a in range(0, len(ends), _RUN_GROUPS):
                out = _mobius(w, pre[a:a + _RUN_GROUPS])[0]
                for k in range(a, a + len(out)):
                    if not falls[k]:
                        continue
                    # the group's own update from the w of the group before,
                    # or its steps' where its product passes the cap
                    j = np.flatnonzero(fell[k])
                    prev = out[k - a - 1] if k > a else w
                    steep = _norm1(prods[k, j]) > _GROWTH_CAP
                    plain = j[~steep]
                    if len(plain):
                        out[k - a, plain] = _mobius(prev[plain],
                                                    prods[k, plain])[0]
                    j = j[steep]
                    if len(j):
                        wj, cj, sj = _stepwise(
                            prev[j], mats[k * _GROUP_STEPS:ends[k] + 1, j])
                        out[k - a, j] = wj
                        replays.append((k, j, cj, sj))
                outs.append(out)
                w = out[-1]
            # the block's starting w and the w at every group end: each
            # group's pole test is its own update from the w before it, of
            # which only the denominator rows are formed
            ws = np.concatenate(outs)
            cond, singular = _verdict(ws[1:], *_mobius(
                ws[:-1], prods[..., :ws.shape[-1], :])[1:])
            for k, j, cj, sj in replays:
                cond[k, j], singular[k, j] = cj, sj
            zs = ws[1:] * to_z
        # the block's propagators go before the stepper forms the next's
        del mats, prods, pre
        # (group, entry): failed in this group or before
        failed = np.logical_or.accumulate(singular)
        faults.fail(failed[-1], SingularMatrix("Moebius denominator singular"))
        found = [[] for _ in ends]
        for k, j in np.argwhere((cond > _POLE_COND) & ~failed):
            found[k].append((j, PoleCrossing(float(radii[ends[k]]),
                                             float(cond[k, j]))))
        yield from zip(radii[ends].tolist(), zs, found)


def integrate_impedance(profile, ctx, z0: ConditionalImpedance, r0: float,
                        r1: float, steps: int, scheme) -> ConditionalImpedance:
    """March z from r0 to r1 on steps equal within each layer, one Moebius
    update per run of 4 groups of 8 steps, counted from each layer's first
    step, each giving z at every group end of its run.

    A global matricant is never formed; each update's propagator spans at
    most a run, about 32 (r1-r0)/steps, and less where the run's growth
    passes the cap: from there one group, or one step where a group's own
    growth passes it, which is what keeps the growing solutions from
    swamping the result.  PoleCrossing events, at group ends, accumulate on
    the returned impedance.  This is the stacked march with a stack of one.
    """
    if not r0 < r1:
        raise ValueError("need r0 < r1")
    faults = EntryFaults(1)
    events = tuple(getattr(z0, "events", ()))
    for r, z, found in _march(profile, [ctx], [z0], r0, r1, steps, scheme,
                              faults):
        events += tuple(ev for _, ev in found)
    faults.check(0)
    # a copy: z is a view of the march's whole block of groups
    return ConditionalImpedance(z[0].copy(), r, events)


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
    z = np.block([[-1j * (m2inv @ m.m1), 1j * m2inv],
                  [1j * (m.m4 @ m2inv @ m.m1 - m.m3), -1j * (m.m4 @ m2inv)]])
    return TwoPointImpedance(z, m.r_from, m.r_to)


def matricant_from_twopoint(z: TwoPointImpedance) -> Matricant:
    """Inverse of twopoint_from_matricant:

        M1 = -Z2^-1 Z1        M2 = i Z2^-1
        M3 = i Z3 - i Z4 Z2^-1 Z1      M4 = -Z4 Z2^-1
    """
    z2inv = mat_inverse(z.z2)
    m = np.block([[-z2inv @ z.z1, 1j * z2inv],
                  [1j * z.z3 - 1j * (z.z4 @ z2inv @ z.z1), -z.z4 @ z2inv]])
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
    impedance poles and the trace records where it dies.  It steps on the
    march's grid, each layer of a piecewise profile with its own step.
    """
    if not r0 < r1:
        raise ValueError("need r0 < r1")
    grid = [(a + i * h, h, layer)
            for a, h, n, layer in _segments(profile, r0, r1 - r0, steps)
            for i in range(n)]
    sample = _q_sampler(profile, [ctx])
    z = _zmat(z0).copy()
    radii, values, blowup = [r0], [z.copy()], None
    for r, h, layer in grid:
        q0, q1, q2 = (sample(x, layer)[0] for x in (r, r + 0.5 * h, r + h))
        k1 = riccati_rhs(z, q0)
        k2 = riccati_rhs(z + 0.5 * h * k1, q1)
        k3 = riccati_rhs(z + 0.5 * h * k2, q1)
        k4 = riccati_rhs(z + h * k3, q2)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rnext = r + h
        radii.append(rnext)
        values.append(z.copy())
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > 1e10:
            blowup = rnext
            break
    return RiccatiTrace(np.array(radii), tuple(values), blowup)
