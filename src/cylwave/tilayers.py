"""Exact solutions for transversely isotropic layers and the recursive
global two-point impedance of layered cylinders.

For a uniform TI material (symmetry axis along z) the displacement field
separates into three scalar potentials with radial wavenumbers k1, k2, k3,
and the conditional impedance of a solid cylinder or of a single layer has a
closed form in cylinder functions, built from the one basis pair {J, H1}
(see layer_twopoint).  Stacking layers is done by joining two-point
impedances across interfaces, which stays well-conditioned no matter how
many layers are folded in (unlike transfer-matrix products).

Every kernel runs on a stack of entries at once, each a partial-wave order
at one of several frequencies (the orders of every ka of a sweep), on
(entries, 3, 3) or (entries, 6, 6) arrays.  The wavenumbers are vectors
over the frequencies, and each (kind, k r) is one cylinder-function table
over all entries; a failing entry leaves its typed error in the stack's
record and the others go on.  The public functions are stacks of one
entry.

The input rules are elastodyn's: LayerTI calls _bounds, _positive and
_finite_moduli, the joins _contiguous, and a MaterialPoint given as a TI
layer _ti_moduli.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cylfun import Tables
from .elastodyn import (MaterialPoint, WaveContext, _bounds, _contiguous,
                        _finite_moduli, _positive, _ti_moduli, ti_stiffness)
from .errors import (BasisDegenerate, DomainError, EntryFaults,
                     InterfaceResonance, KzZeroCoupling, ModeResonance)
from .impedance import ConditionalImpedance, TwoPointImpedance
from .numkernel import _inverse_each, _norm1


@dataclass(frozen=True)
class TIWavenumbers:
    k1: complex
    k2: complex
    k3: complex
    kappa1: complex
    kappa2: complex
    a_aux: float
    b_aux: float


@dataclass(frozen=True)
class LayerTI:
    """A uniform transversely isotropic annular layer; c66 = (c11-c12)/2."""

    r_inner: float
    r_outer: float
    rho: float
    c11: float
    c12: float
    c13: float
    c33: float
    c44: float

    def __post_init__(self):
        _bounds(self.r_inner, self.r_outer)
        _positive(self.rho, "density")
        _finite_moduli([self.c11, self.c12, self.c13, self.c33, self.c44])

    @property
    def c66(self) -> float:
        return 0.5 * (self.c11 - self.c12)

    def material(self) -> MaterialPoint:
        return MaterialPoint(
            rho=self.rho,
            stiffness=ti_stiffness(self.c11, self.c12, self.c13,
                                   self.c33, self.c44))

    @classmethod
    def isotropic(cls, r_inner: float, r_outer: float, rho: float,
                  lam: float, mu: float) -> "LayerTI":
        return cls(r_inner, r_outer, rho,
                   c11=lam + 2 * mu, c12=lam, c13=lam,
                   c33=lam + 2 * mu, c44=mu)


def _moduli(layer) -> tuple:
    """(rho, c11, c13, c33, c44, c66) of a LayerTI or MaterialPoint as Python
    scalars, whose complex division rounds alike whatever the caller used."""
    if isinstance(layer, LayerTI):
        m = (layer.rho, layer.c11, layer.c13, layer.c33, layer.c44, layer.c66)
    elif isinstance(layer, MaterialPoint):
        c11, _, c13, c33, c44 = _ti_moduli(layer)
        m = (layer.rho, c11, c13, c33, c44, layer.stiffness[6, 6])
    else:
        raise TypeError(
            f"expected LayerTI or MaterialPoint, got {type(layer)!r}")
    return tuple(complex(x) if isinstance(x, (complex, np.complexfloating))
                 else float(x) for x in m)


def _sqrt_branch(w: complex) -> complex:
    """Principal-type branch: Im >= 0, and Re > 0 on the real axis."""
    s = complex(np.sqrt(complex(w)))
    if s.imag < 0 or (s.imag == 0 and s.real < 0):
        s = -s
    return s


def _wavenumbers(layer, omega: float, kz: float):
    """(k1, k2, k3, kappa1, kappa2, a_aux, b_aux); kappas None at kz=0.
    Every operand is a Python scalar (see _moduli).  The kappas divide by
    (c13 + c44) kz, so c13 = -c44 at kz != 0, where the axial motion
    decouples from the in-plane potentials, is a DomainError."""
    rho, c11, c13, c33, c44, c66 = _moduli(layer)
    omega, kz = float(omega), float(kz)
    if kz != 0.0 and c13 + c44 == 0:
        raise DomainError("c13 + c44 = 0 at kz != 0: the closed-form "
                          "coupling numbers divide by c13 + c44")
    w2 = rho * omega * omega
    a = (c11 + c44) * w2 + (c13 * c13 + 2 * c13 * c44 - c11 * c33) * kz * kz
    b = 4 * c11 * c44 * (w2 - c33 * kz * kz) * (w2 - c44 * kz * kz)
    k3s = (w2 - c44 * kz * kz) / c66
    if kz == 0.0:
        # the kz = 0 paths need k1 in-plane and k2 axial; the roots of the
        # quadratic come ordered by size instead, which swaps them when
        # c44 > c11
        return (_sqrt_branch(w2 / c11), _sqrt_branch(w2 / c44),
                _sqrt_branch(k3s), None, None, a, b)
    disc = _sqrt_branch(a * a - b)
    k1s = (a - disc) / (2 * c11 * c44)
    k2s = (a + disc) / (2 * c11 * c44)
    k1 = _sqrt_branch(k1s)
    k2 = _sqrt_branch(k2s)
    k3 = _sqrt_branch(k3s)
    den = (c13 + c44) * kz
    kap1 = (c66 * k3s - c11 * k1s) / den
    kap2 = (c66 * k3s - c11 * k2s) / den
    return k1, k2, k3, kap1, kap2, a, b


def ti_wavenumbers(layer, omega: float, kz: float) -> TIWavenumbers:
    """Radial wavenumbers and coupling numbers of a TI material.

    kz = 0 is a removable special case (the coupling formula divides by kz);
    use the dedicated kz=0 evaluation paths of the impedance/displacement
    routines, which this error points at.
    """
    if kz == 0.0:
        raise KzZeroCoupling(
            "coupling numbers are undefined at kz=0; use the kz=0 path")
    k1, k2, k3, kap1, kap2, a, b = _wavenumbers(layer, omega, kz)
    return TIWavenumbers(k1, k2, k3, kap1, kap2, a, b)


class OrderStack:
    """Entries (frequency, order) of one kz, evaluated together: entry i is
    the partial-wave order n[i] at omega[f[i]], omega a list of the
    frequencies as given.  The stack holds their cylinder-function tables,
    built once and shared by every layer and radius, and the one record,
    the tables' own, into which the stacked kernels put per entry what a
    scalar call would raise or warn."""

    def __init__(self, omega: list, kz: float, orders, freq=None):
        self.omega, self.kz = omega, kz
        self.tables = Tables(orders, freq)
        self.n, self.f = self.tables.n, self.tables.f
        self.faults = self.tables.faults

    def table(self, l: int, x: np.ndarray) -> tuple:
        f, fp, notes = self.tables(l, x)
        self.faults.note(notes)
        return f, fp

    def wavenumbers(self, layer) -> tuple:
        """_wavenumbers of layer, each a list over the frequencies (None at
        kz = 0 for the kappas): the scalar results as they are, so an
        entry's numbers, rounding included, are those of its frequency
        alone."""
        each = zip(*(_wavenumbers(layer, w, self.kz) for w in self.omega))
        return tuple(None if v[0] is None else list(v) for v in each)


def _each(fn, *lists) -> np.ndarray:
    """fn of each frequency's scalars, as a vector over the frequencies: the
    scalar arithmetic of a one-frequency stack, bit for bit."""
    return np.array([fn(*v) for v in zip(*lists)])


def _single(ctx: WaveContext, kernel):
    """Entry 0 of kernel(stack) on the one order of ctx, after raising or
    warning what the stack recorded."""
    stack = OrderStack([ctx.omega], ctx.kz, [ctx.n])
    out = kernel(stack)
    stack.faults.check(0)
    return out[0]


def _displacement(l: int, stack: OrderStack, wn: tuple,
                  r: float) -> np.ndarray:
    n = stack.n
    k1, k2, k3 = (np.array(k) for k in wn[:3])
    f1, fp1 = stack.table(l, k1 * r)
    f2, fp2 = stack.table(l, k2 * r)
    f3, fp3 = stack.table(l, k3 * r)
    k1, k2, k3 = k1[stack.f], k2[stack.f], k3[stack.f]
    x = np.zeros((len(n), 3, 3), dtype=complex)
    with np.errstate(all="ignore"):
        x[:, 0, 0] = fp1
        x[:, 0, 2] = -1j * n / (k3 * r) * f3
        x[:, 1, 0] = 1j * n / (k1 * r) * f1
        x[:, 1, 2] = fp3
        if stack.kz == 0.0:
            x[:, 2, 1] = 1j * f2 / k2
            return x
        x[:, 0, 1] = fp2
        x[:, 1, 1] = 1j * n / (k2 * r) * f2
        x[:, 2, 0] = _coupling(stack, wn[3], wn[0]) * f1
        x[:, 2, 1] = _coupling(stack, wn[4], wn[1]) * f2
    return x


def _coupling(stack: OrderStack, kap: list, k: list) -> np.ndarray:
    """i kappa / k over the entries, the axial amplitude of a kz != 0
    potential column.  At k = 0, a cutoff, it diverges as H1 and Y do at
    k r = 0, and like them (cylfun.Tables) it is a DomainError for the
    entries at that frequency."""
    cut = np.array(k) == 0
    stack.faults.fail(cut[stack.f], DomainError(
        "radial wavenumber 0 at kz != 0 (a cutoff)"))
    return _each(lambda a, b: np.nan if b == 0 else 1j * a / b, kap, k
                 )[stack.f]


def ti_displacement_matrix(l: int, layer, ctx: WaveContext,
                           r: float) -> np.ndarray:
    """3x3 displacement amplitude matrix X^l(r); columns are the three
    partial waves, rows the (u_r, u_theta, u_z) amplitudes.

    At kz=0 the axially polarized column is renormalized by its diverging
    coupling factor; column scaling drops out of every impedance built from
    the pair (X, Y).
    """
    return _single(ctx, lambda s: _displacement(
        l, s, s.wavenumbers(layer), r))


def _impedance(l: int, layer, stack: OrderStack, wn: tuple,
               r: float) -> np.ndarray:
    rho, c11, c13, c33, c44, c66 = _moduli(layer)
    n = stack.n
    ds = []
    for k in wn[:3]:
        d, zero, notes = stack.tables.log_derivative(l, np.array(k) * r)
        stack.faults.note(notes)
        for fz in set(stack.f[zero].tolist()):
            stack.faults.fail(zero & (stack.f == fz), ModeResonance(
                f"cylinder function zero at k*r={k[fz] * r}"))
        ds.append(d)
    c3 = _each(lambda k: c66 * (k * r) ** 2, wn[2])[stack.f]
    # x_i = k_i r f'/f = n + d_i; the denominators and the differences
    # x1 - x2 are formed from the d_i, which at n >> k r keeps the digits
    # that x_i - n would lose
    d1, d2, d3 = ds
    x1, x2, x3 = n + d1, n + d2, n + d3
    z = np.zeros((len(n), 3, 3), dtype=complex)

    with np.errstate(all="ignore"):
        if stack.kz == 0.0:
            den = n * (d1 + d3) + d1 * d3
            scale = np.maximum(np.maximum(np.abs(x1 * x3), n * n), 1.0)
            stack.faults.fail(np.abs(den) < 1e-12 * scale, ModeResonance(
                "in-plane impedance pole (denominator ~ 0)"))
            e = c3 / den
            z[:, 0, 0] = 2 * c66 + x3 * e
            z[:, 0, 1] = 1j * n * (2 * c66 + e)
            z[:, 1, 0] = -1j * n * (2 * c66 + e)
            z[:, 1, 1] = 2 * c66 + x1 * e
            z[:, 2, 2] = -c44 * x2
            return z

        y1 = np.array(wn[3])[stack.f] * r
        y2 = np.array(wn[4])[stack.f] * r
        dy = y1 - y2
        cross = d2 * y1 - d1 * y2
        den = n * d3 * dy + x3 * cross
        scale = np.maximum(np.maximum(np.abs(x3 * (x2 * y1 - x1 * y2)),
                                      np.abs(n * n * dy)), 1.0)
        stack.faults.fail(np.abs(den) < 1e-12 * scale, ModeResonance(
            "impedance pole (shared denominator ~ 0)"))
        c0 = c3 / den
        zz = -c44 * (n * n * (cross + d3 * dy) + dy * (
            n * (d1 * d2 + d1 * d3 + d2 * d3) + d1 * d2 * d3)) / den
        kzr = stack.kz * r
        base = ((2 * c66, 2j * n * c66, 1j * kzr * c44),
                (-2j * n * c66, 2 * c66, 0.0),
                (-1j * kzr * c44, 0.0, zz))
        corr = ((x3 * dy, 1j * n * dy, 1j * x3 * (d1 - d2)),
                (-1j * n * dy, n * dy + cross, n * (d1 - d2)),
                (-1j * x3 * (d1 - d2), n * (d1 - d2), 0.0))
        for i in range(3):
            for j in range(3):
                z[:, i, j] = base[i][j] + c0 * corr[i][j]
    return z


def ti_conditional_impedance(l: int, layer, ctx: WaveContext,
                             r: float) -> ConditionalImpedance:
    """Closed-form conditional impedance z^l(r) of a uniform TI region.

    l=1 (Bessel J) is the solid-cylinder impedance, regular at the axis;
    l=3 (outgoing Hankel) the radiating exterior one.
    """
    return ConditionalImpedance(_single(ctx, lambda s: _impedance(
        l, layer, s, s.wavenumbers(layer), r)), float(r))


def ti_traction_matrix(l: int, layer, ctx: WaveContext, r: float) -> np.ndarray:
    """Y^l(r) = -i z^l(r) X^l(r), the traction amplitudes of the same basis."""
    z = ti_conditional_impedance(l, layer, ctx, r)
    x = ti_displacement_matrix(l, layer, ctx, r)
    return -1j * (z.z @ x)


def _layer_stack(layer: LayerTI, stack: OrderStack,
                 basis: tuple | None = None) -> np.ndarray:
    """The layer's two-point impedances over the entries from one basis
    pair, {J, H1} unless given; an entry whose displacement block is
    degenerate (singular, or 1-norm condition number past 1e12) fails with
    BasisDegenerate."""
    basis = (1, 3) if basis is None else basis
    wn = stack.wavenumbers(layer)
    r0, r1 = layer.r_inner, layer.r_outer
    xx = np.empty((len(stack.n), 6, 6), dtype=complex)
    yy = np.empty_like(xx)
    for c, l in enumerate(basis):
        cols = slice(3 * c, 3 * c + 3)
        for rows, r in ((slice(0, 3), r0), (slice(3, 6), r1)):
            x = _displacement(l, stack, wn, r)
            with np.errstate(all="ignore"):
                y = -1j * (_impedance(l, layer, stack, wn, r) @ x)
            xx[:, rows, cols] = x
            yy[:, rows, cols] = y if r == r0 else -y
    with np.errstate(all="ignore"):
        # the result is invariant under scaling a partial-wave column of
        # both blocks at once; normalizing keeps deeply evanescent columns
        # (tiny J, huge H at large n) from wrecking the conditioning
        scale = np.max(np.abs(xx), axis=-2, keepdims=True)
        scale[scale == 0] = 1.0
        xx = xx / scale
        yy = yy / scale
        xinv, singular = _inverse_each(xx)
        bad = singular | (_norm1(xx) * _norm1(xinv) > 1e12)
        z = 1j * (yy @ xinv)
    stack.faults.fail(bad, BasisDegenerate(f"basis {basis} degenerate"))
    return z


def layer_twopoint(layer: LayerTI, ctx: WaveContext,
                   basis: tuple | None = None) -> TwoPointImpedance:
    """Two-point impedance of a single uniform TI layer, from the
    cylinder-function basis pair {J, H1} by default.

    An order whose displacement block [X(r0); X(r1)] is degenerate raises
    BasisDegenerate.  No other pair rescues it: the block is singular where
    the layer has a clamped-clamped mode, a property of the solution space,
    which {J, Y} spans as well (Y = -i(H1 - J)); and with its columns
    scaled, H1 is iY to working precision wherever the block is badly
    conditioned.
    """
    return TwoPointImpedance(
        _single(ctx, lambda s: _layer_stack(layer, s, basis)),
        layer.r_inner, layer.r_outer)


def _join(za: np.ndarray, zb: np.ndarray, faults: EntryFaults) -> np.ndarray:
    k = za.shape[-1] // 2
    z = np.empty_like(za)
    with np.errstate(all="ignore"):
        dinv, singular = _inverse_each(za[:, k:, k:] + zb[:, :k, :k])
        z[:, :k, :k] = za[:, :k, :k] - za[:, :k, k:] @ dinv @ za[:, k:, :k]
        z[:, :k, k:] = -za[:, :k, k:] @ dinv @ zb[:, :k, k:]
        z[:, k:, :k] = -zb[:, k:, :k] @ dinv @ za[:, k:, :k]
        z[:, k:, k:] = zb[:, k:, k:] - zb[:, k:, :k] @ dinv @ zb[:, :k, k:]
    faults.fail(singular, InterfaceResonance(
        "interface Schur block singular (trapped interface mode)"))
    return z


def join_twopoint(za: TwoPointImpedance,
                  zb: TwoPointImpedance) -> TwoPointImpedance:
    """Join two adjacent two-point impedances across their shared interface.

    Continuity of displacement and traction eliminates the interface degrees
    of freedom through the Schur complement of D = Z4a + Z1b.
    """
    _contiguous([(za.r_from, za.r_to), (zb.r_from, zb.r_to)])
    faults = EntryFaults(1)
    z = _join(za.z[None], zb.z[None], faults)
    faults.check(0)
    return TwoPointImpedance(z[0], za.r_from, zb.r_to)


def _global_stack(layers, stack: OrderStack) -> np.ndarray:
    acc = _layer_stack(layers[0], stack)
    for layer in layers[1:]:
        acc = _join(acc, _layer_stack(layer, stack), stack.faults)
    return acc


def global_twopoint(layers, ctx: WaveContext) -> TwoPointImpedance:
    """Left-fold of join_twopoint over the per-layer impedances."""
    _contiguous([(x.r_inner, x.r_outer) for x in layers])
    return TwoPointImpedance(
        _single(ctx, lambda s: _global_stack(layers, s)),
        layers[0].r_inner, layers[-1].r_outer)
