"""Exact solutions for transversely isotropic layers and the recursive
global two-point impedance of layered cylinders.

For a uniform TI material (symmetry axis along z) the displacement field
separates into three scalar potentials with radial wavenumbers k1, k2, k3,
and the conditional impedance of a solid cylinder or of a single layer has a
closed form in cylinder functions.  Stacking layers is done by joining
two-point impedances across interfaces, which stays well-conditioned no
matter how many layers are folded in (unlike transfer-matrix products).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cylfun import cyl_f, cyl_f_prime
from .elastodyn import MaterialPoint, WaveContext, ti_stiffness
from .errors import (BasisDegenerate, InterfaceResonance, KzZeroCoupling,
                     ModeResonance, SingularMatrix)
from .impedance import ConditionalImpedance, TwoPointImpedance
from .numkernel import mat_inverse


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
        if not (0 < self.r_inner < self.r_outer):
            raise ValueError("need 0 < r_inner < r_outer")
        if self.rho <= 0:
            raise ValueError("density must be positive")

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
    """(rho, c11, c13, c33, c44, c66) from a LayerTI or MaterialPoint."""
    if isinstance(layer, LayerTI):
        return (layer.rho, layer.c11, layer.c13, layer.c33,
                layer.c44, layer.c66)
    if isinstance(layer, MaterialPoint):
        c = layer.stiffness
        return (layer.rho, c[1, 1], c[1, 3], c[3, 3], c[4, 4], c[6, 6])
    raise TypeError(f"expected LayerTI or MaterialPoint, got {type(layer)!r}")


def _sqrt_branch(w: complex) -> complex:
    """Principal-type branch: Im >= 0, and Re > 0 on the real axis."""
    s = complex(np.sqrt(complex(w)))
    if s.imag < 0 or (s.imag == 0 and s.real < 0):
        s = -s
    return s


def _wavenumbers(layer, omega: float, kz: float):
    """(k1, k2, k3, kappa1, kappa2, a_aux, b_aux); kappas None at kz=0."""
    rho, c11, c13, c33, c44, c66 = _moduli(layer)
    w2 = rho * omega * omega
    a = (c11 + c44) * w2 + (c13 * c13 + 2 * c13 * c44 - c11 * c33) * kz * kz
    b = 4 * c11 * c44 * (w2 - c33 * kz * kz) * (w2 - c44 * kz * kz)
    disc = _sqrt_branch(a * a - b)
    k1s = (a - disc) / (2 * c11 * c44)
    k2s = (a + disc) / (2 * c11 * c44)
    k3s = (w2 - c44 * kz * kz) / c66
    k1 = _sqrt_branch(k1s)
    k2 = _sqrt_branch(k2s)
    k3 = _sqrt_branch(k3s)
    if kz == 0.0:
        return k1, k2, k3, None, None, a, b
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


def _fval(l: int, n: int, x: complex):
    return cyl_f(l, n, x), cyl_f_prime(l, n, x)


def ti_displacement_matrix(l: int, layer, ctx: WaveContext,
                           r: float) -> np.ndarray:
    """3x3 displacement amplitude matrix X^l(r); columns are the three
    partial waves, rows the (u_r, u_theta, u_z) amplitudes.

    At kz=0 the axially polarized column is renormalized by its diverging
    coupling factor; column scaling drops out of every impedance built from
    the pair (X, Y).
    """
    n = ctx.n
    k1, k2, k3, kap1, kap2, _, _ = _wavenumbers(layer, ctx.omega, ctx.kz)
    f1, fp1 = _fval(l, n, k1 * r)
    f2, fp2 = _fval(l, n, k2 * r)
    f3, fp3 = _fval(l, n, k3 * r)
    if ctx.kz == 0.0:
        return np.array([
            [fp1, 0.0, -1j * n / (k3 * r) * f3],
            [1j * n / (k1 * r) * f1, 0.0, fp3],
            [0.0, 1j * f2 / k2, 0.0],
        ], dtype=complex)
    return np.array([
        [fp1, fp2, -1j * n / (k3 * r) * f3],
        [1j * n / (k1 * r) * f1, 1j * n / (k2 * r) * f2, fp3],
        [1j * kap1 / k1 * f1, 1j * kap2 / k2 * f2, 0.0],
    ], dtype=complex)


def ti_conditional_impedance(l: int, layer, ctx: WaveContext,
                             r: float) -> ConditionalImpedance:
    """Closed-form conditional impedance z^l(r) of a uniform TI region.

    l=1 (Bessel J) is the solid-cylinder impedance, regular at the axis;
    l=3 (outgoing Hankel) the radiating exterior one.
    """
    rho, c11, c13, c33, c44, c66 = _moduli(layer)
    n = ctx.n
    k1, k2, k3, kap1, kap2, _, _ = _wavenumbers(layer, ctx.omega, ctx.kz)
    xi = []
    for k in (k1, k2, k3):
        fv, fd = _fval(l, n, k * r)
        if fv == 0:
            raise ModeResonance(f"cylinder function zero at k*r={k * r}")
        xi.append(k * r * fd / fv)
    x1, x2, x3 = xi

    if ctx.kz == 0.0:
        den = x1 * x3 - n * n
        scale = max(abs(x1 * x3), n * n, 1.0)
        if abs(den) < 1e-12 * scale:
            raise ModeResonance("in-plane impedance pole (denominator ~ 0)")
        e = c66 * (k3 * r) ** 2 / den
        z = np.array([
            [2 * c66 + x3 * e, 1j * n * (2 * c66 + e), 0.0],
            [-1j * n * (2 * c66 + e), 2 * c66 + x1 * e, 0.0],
            [0.0, 0.0, -c44 * x2],
        ], dtype=complex)
        return ConditionalImpedance(z, float(r))

    y1 = kap1 * r
    y2 = kap2 * r
    den = x3 * (x2 * y1 - x1 * y2) - n * n * (y1 - y2)
    scale = max(abs(x3 * (x2 * y1 - x1 * y2)), abs(n * n * (y1 - y2)), 1.0)
    if abs(den) < 1e-12 * scale:
        raise ModeResonance("impedance pole (shared denominator ~ 0)")
    c0 = c66 * (k3 * r) ** 2 / den
    zz = c44 * (n * n * (x1 * y1 - x2 * y2) - x1 * x2 * x3 * (y1 - y2)) / den
    kzr = ctx.kz * r
    base = np.array([
        [2 * c66, 2j * n * c66, 1j * kzr * c44],
        [-2j * n * c66, 2 * c66, 0.0],
        [-1j * kzr * c44, 0.0, zz],
    ], dtype=complex)
    corr = c0 * np.array([
        [x3 * (y1 - y2), 1j * n * (y1 - y2), 1j * x3 * (x1 - x2)],
        [-1j * n * (y1 - y2), x2 * y1 - x1 * y2, n * (x1 - x2)],
        [-1j * x3 * (x1 - x2), n * (x1 - x2), 0.0],
    ], dtype=complex)
    return ConditionalImpedance(base + corr, float(r))


def ti_traction_matrix(l: int, layer, ctx: WaveContext, r: float) -> np.ndarray:
    """Y^l(r) = -i z^l(r) X^l(r), the traction amplitudes of the same basis."""
    z = ti_conditional_impedance(l, layer, ctx, r)
    x = ti_displacement_matrix(l, layer, ctx, r)
    return -1j * (z.z @ x)


_DEFAULT_BASIS = (1, 3)
_FALLBACK_BASIS = (1, 2)


def _twopoint_for_basis(layer: LayerTI, ctx: WaveContext,
                        basis: tuple) -> TwoPointImpedance:
    r0, r1 = layer.r_inner, layer.r_outer
    xs, ys = {}, {}
    for l in basis:
        for r in (r0, r1):
            x = ti_displacement_matrix(l, layer, ctx, r)
            xs[l, r] = x
            ys[l, r] = -1j * (ti_conditional_impedance(l, layer, ctx, r).z @ x)
    la, lb = basis
    xx = np.block([[xs[la, r0], xs[lb, r0]], [xs[la, r1], xs[lb, r1]]])
    yy = np.block([[ys[la, r0], ys[lb, r0]], [-ys[la, r1], -ys[lb, r1]]])
    # the result is invariant under scaling a partial-wave column of both
    # blocks at once; normalizing keeps deeply evanescent columns (tiny J,
    # huge H at large n) from wrecking the conditioning
    scale = np.max(np.abs(xx), axis=0)
    scale[scale == 0] = 1.0
    xx = xx / scale
    yy = yy / scale
    xinv = mat_inverse(xx)
    cond = np.linalg.norm(xx, 1) * np.linalg.norm(xinv, 1)
    if cond > 1e12:
        raise SingularMatrix("displacement block ill-conditioned", cond=cond)
    return TwoPointImpedance(1j * (yy @ xinv), r0, r1)


def layer_twopoint(layer: LayerTI, ctx: WaveContext,
                   basis: tuple | None = None) -> TwoPointImpedance:
    """Two-point impedance of a single uniform TI layer.

    Built from the cylinder-function basis pair {J, H1} by default; if that
    block is numerically degenerate for the layer (deeply evanescent
    regimes), the {J, Y} pair is tried before giving up.
    """
    if basis is not None:
        try:
            return _twopoint_for_basis(layer, ctx, tuple(basis))
        except SingularMatrix as exc:
            raise BasisDegenerate(f"basis {basis} degenerate: {exc}") from None
    try:
        return _twopoint_for_basis(layer, ctx, _DEFAULT_BASIS)
    except SingularMatrix:
        pass
    try:
        return _twopoint_for_basis(layer, ctx, _FALLBACK_BASIS)
    except SingularMatrix as exc:
        raise BasisDegenerate(
            f"both cylinder-function bases degenerate: {exc}") from None


def join_twopoint(za: TwoPointImpedance,
                  zb: TwoPointImpedance) -> TwoPointImpedance:
    """Join two adjacent two-point impedances across their shared interface.

    Continuity of displacement and traction eliminates the interface degrees
    of freedom through the Schur complement of D = Z4a + Z1b.
    """
    if abs(za.r_to - zb.r_from) > 1e-9 * max(1.0, abs(za.r_to)):
        raise ValueError(
            f"layers not contiguous: {za.r_to} vs {zb.r_from}")
    d = za.z4 + zb.z1
    try:
        dinv = mat_inverse(d)
    except SingularMatrix:
        raise InterfaceResonance(
            "interface Schur block singular (trapped interface mode)") from None
    mm = za.half
    z = np.empty((2 * mm, 2 * mm), dtype=complex)
    z[:mm, :mm] = za.z1 - za.z2 @ dinv @ za.z3
    z[:mm, mm:] = -za.z2 @ dinv @ zb.z2
    z[mm:, :mm] = -zb.z3 @ dinv @ za.z3
    z[mm:, mm:] = zb.z4 - zb.z3 @ dinv @ zb.z2
    return TwoPointImpedance(z, za.r_from, zb.r_to)


def global_twopoint(layers, ctx: WaveContext) -> TwoPointImpedance:
    """Left-fold of join_twopoint over the per-layer impedances."""
    if not layers:
        raise ValueError("need at least one layer")
    acc = layer_twopoint(layers[0], ctx)
    for layer in layers[1:]:
        acc = join_twopoint(acc, layer_twopoint(layer, ctx))
    return acc
