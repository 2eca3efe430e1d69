"""Materials, radial profiles and the Stroh-like system matrix Q(r).

Cylindrical anisotropy with radially varying properties.  The state vector is
eta = (U, V) with U the displacement amplitudes (u_r, u_theta, u_z) and
V = i*r*(traction on the r-face); it satisfies d(eta)/dr = Q(r) eta with
Q = (i/r) G.  For lossless (real) moduli Q has the symmetry Q+ = -T Q T with
T the block-swap matrix, which is what makes impedance matrices Hermitian
downstream.

G has one formula, _ig_terms, array code over stacks of stiffness tables
and contexts: g_matrix evaluates it at one radius, the marcher's sampler once
per layer of a piecewise profile or per block of radii of a smooth law.

Each input rule has one owner here, called by every entry point: _positive
(density, omega, wavenumber, ka), _finite_moduli, _bounds (a layer's or a
law's radii), _contiguous (the layer gap) and _ti_moduli (the TI test).

All quantities are nondimensional: lengths by the outer radius, densities by
the fluid density, speeds by the fluid sound speed, moduli by rho_w*c_w^2.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DecouplingError, DomainError, MaterialSingular,
                     OutOfSupport, SchemaError)
from .numkernel import _demoted

# reference fluid (water): 1000 kg/m^3, 1470 m/s
RHO_W = 1000.0
C_W = 1470.0
MODULUS_SCALE = RHO_W * C_W * C_W  # Pa per dimensionless modulus unit


# ---------------------------------------------------------------------------
# input rules


def _positive(value, name: str) -> None:
    """Refuse a value that is not positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def _finite_moduli(c):
    """The largest |modulus| of c, real or complex; ValueError unless every
    modulus is finite."""
    scale = np.abs(c).max()
    if not math.isfinite(scale):
        raise ValueError("stiffness moduli must be finite")
    return scale


def _bounds(r_in, r_out) -> None:
    """Refuse radii of a layer or law unless 0 < r_in < r_out < inf."""
    if not 0 < r_in < r_out < math.inf:
        raise ValueError(f"layer bounds must be 0 < r_in < r_out < inf: "
                         f"({r_in}, {r_out})")


def _contiguous(spans) -> None:
    """Refuse no (r_in, r_out) spans, or consecutive ones more than 1e-12
    apart."""
    if not spans:
        raise ValueError("need at least one layer")
    for (_, r_out), (r_in, _) in zip(spans, spans[1:]):
        if abs(r_in - r_out) > 1e-12:
            raise ValueError(f"layers must be contiguous: {r_out} vs {r_in}")


def _ti_moduli(mp: MaterialPoint) -> tuple:
    """(c11, c12, c13, c33, c44) of a material whose table is ti_stiffness's
    of them to rtol 1e-9 and atol 1e-12; DomainError for any other."""
    c = mp.stiffness
    moduli = (c[1, 1], c[1, 2], c[1, 3], c[3, 3], c[4, 4])
    try:
        if np.allclose(c.c, ti_stiffness(*moduli).c, rtol=1e-9, atol=1e-12):
            return moduli
    except ValueError:  # c66 = (c11 - c12)/2 overflows
        pass
    raise DomainError("material is not transversely isotropic about z")


# ---------------------------------------------------------------------------
# materials


@dataclass(frozen=True)
class StiffnessVoigt:
    """6x6 table of elastic moduli in Voigt ordering (11,22,33,23,13,12)."""

    c: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.c):
            raise ValueError("stiffness moduli must be real")
        c = np.asarray(self.c, dtype=float)
        if c.shape != (6, 6):
            raise ValueError("stiffness table must be 6x6")
        scale = _finite_moduli(c)
        if np.abs(c - c.T).max() > 1e-12 * max(1.0, scale):
            raise ValueError("stiffness table must be symmetric")
        object.__setattr__(self, "c", 0.5 * (c + c.T))

    def is_positive_definite(self) -> bool:
        """Leading principal minors all positive."""
        for k in range(1, 7):
            if np.linalg.det(self.c[:k, :k]) <= 0:
                return False
        return True

    def __getitem__(self, ij) -> float:
        """1-based Voigt lookup: stiffness[1, 2] is C_12."""
        i, j = ij
        return float(self.c[i - 1, j - 1])


def isotropic_stiffness(lam: float, mu: float) -> StiffnessVoigt:
    c = np.zeros((6, 6), dtype=np.result_type(lam, mu, float))
    c[:3, :3] = lam
    for i in range(3):
        c[i, i] = lam + 2 * mu
    for i in range(3, 6):
        c[i, i] = mu
    return StiffnessVoigt(c)


def ti_stiffness(c11: float, c12: float, c13: float, c33: float,
                 c44: float) -> StiffnessVoigt:
    """Transversely isotropic stiffness (symmetry axis z); c66 = (c11-c12)/2."""
    c66 = 0.5 * (c11 - c12)
    c = np.zeros((6, 6), dtype=np.result_type(c11, c12, c13, c33, c44, float))
    c[0, 0] = c[1, 1] = c11
    c[0, 1] = c[1, 0] = c12
    c[0, 2] = c[2, 0] = c[1, 2] = c[2, 1] = c13
    c[2, 2] = c33
    c[3, 3] = c[4, 4] = c44
    c[5, 5] = c66
    return StiffnessVoigt(c)


@dataclass(frozen=True)
class MaterialPoint:
    rho: float
    stiffness: StiffnessVoigt

    def __post_init__(self):
        _positive(self.rho, "density")


def aluminium() -> MaterialPoint:
    """Aluminium vs water: rho ratio 2.7, E = 70 GPa, G = 26 GPa."""
    mu = 26.0e9
    lam = 58.5e9  # = G(E-2G)/(3G-E) with E=70, G=26
    return MaterialPoint(
        rho=2.7,
        stiffness=isotropic_stiffness(lam / MODULUS_SCALE, mu / MODULUS_SCALE),
    )


# ---------------------------------------------------------------------------
# radial profiles


@dataclass(frozen=True)
class RadialProfile:
    """Either a stack of uniform layers or a smooth radial material law."""

    layers: tuple | None = None
    smooth_fn: Callable[[float], MaterialPoint] | None = None
    support: tuple = (0.0, 0.0)

    @classmethod
    def piecewise(cls, layers) -> "RadialProfile":
        items = []
        for (r_in, r_out, mp) in layers:
            _bounds(r_in, r_out)
            items.append((float(r_in), float(r_out), mp))
        _contiguous([item[:2] for item in items])
        return cls(layers=tuple(items),
                   support=(items[0][0], items[-1][1]))

    @classmethod
    def smooth(cls, fn: Callable[[float], MaterialPoint], r_min: float,
               r_max: float) -> "RadialProfile":
        _bounds(r_min, r_max)
        return cls(smooth_fn=fn, support=(float(r_min), float(r_max)))

    @classmethod
    def uniform(cls, mp: MaterialPoint, r_min: float, r_max: float) -> "RadialProfile":
        return cls.piecewise([(r_min, r_max, mp)])

    def material_at(self, r: float) -> MaterialPoint:
        lo, hi = self.support
        if not (lo - 1e-12 <= r <= hi + 1e-12):
            raise OutOfSupport(f"r={r} outside profile support [{lo}, {hi}]")
        if self.smooth_fn is not None:
            return self.smooth_fn(r)
        for (r_in, r_out, mp) in self.layers:
            if r <= r_out + 1e-12:
                return mp
        return self.layers[-1][2]


# ---------------------------------------------------------------------------
# wave context and system matrix


@dataclass(frozen=True)
class WaveContext:
    omega: float
    n: int = 0
    kz: float = 0.0
    m: int = 3

    def __post_init__(self):
        _positive(self.omega, "omega")
        if not math.isfinite(self.kz):
            raise ValueError("kz must be finite")
        if not 0 <= self.n < math.inf or int(self.n) != self.n:
            raise ValueError("n must be a nonnegative integer")
        if self.m not in (1, 2, 3):
            raise ValueError("m must be 1, 2 or 3")


@dataclass(frozen=True)
class SystemMatrix:
    q: np.ndarray
    r: float
    half: int = field(init=False)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=complex)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] % 2:
            raise ValueError("system matrix must be square with even size")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "half", q.shape[0] // 2)

    @property
    def q1(self) -> np.ndarray:
        return self.q[:self.half, :self.half]

    @property
    def q2(self) -> np.ndarray:
        return self.q[:self.half, self.half:]

    @property
    def q3(self) -> np.ndarray:
        return self.q[self.half:, :self.half]

    @property
    def q4(self) -> np.ndarray:
        return self.q[self.half:, self.half:]


def block_swap(m: int = 3) -> np.ndarray:
    """T = [[0, I], [I, 0]] of size 2m."""
    t = np.zeros((2 * m, 2 * m))
    t[:m, m:] = np.eye(m)
    t[m:, :m] = np.eye(m)
    return t


class VoigtBlocks(NamedTuple):
    qh: np.ndarray  # symmetric, rr-face
    th: np.ndarray  # symmetric, theta-face
    mh: np.ndarray  # symmetric, z-face
    r: np.ndarray
    p: np.ndarray
    s: np.ndarray


# The six 3x3 sub-tables of C entering the system matrix, in VoigtBlocks
# order, as 1-based Voigt indices: the tens digit is the row, the units digit
# the column.
_VOIGT_INDEX = np.array([
    [[11, 16, 15], [16, 66, 56], [15, 56, 55]],  # qh
    [[66, 26, 46], [26, 22, 24], [46, 24, 44]],  # th
    [[55, 45, 35], [45, 44, 34], [35, 34, 33]],  # mh
    [[16, 12, 14], [66, 26, 46], [56, 25, 45]],  # r
    [[15, 14, 13], [56, 46, 36], [55, 45, 35]],  # p
    [[56, 46, 36], [25, 24, 23], [45, 44, 34]],  # s
])
_ROW, _COL = _VOIGT_INDEX // 10 - 1, _VOIGT_INDEX % 10 - 1


def _gather_blocks(c: np.ndarray) -> np.ndarray:
    """The sub-tables of the stiffness tables c (..., 6, 6) as (6, ..., 3, 3)
    in VoigtBlocks order, contiguous so that each block multiplies through
    the same BLAS call as a single 3x3 matrix."""
    return np.ascontiguousarray(np.moveaxis(c[..., _ROW, _COL], -3, 0))


def voigt_blocks(stiff: StiffnessVoigt) -> VoigtBlocks:
    """The six 3x3 sub-tables of C entering the system matrix, read off the
    index table _VOIGT_INDEX."""
    return VoigtBlocks(*_gather_blocks(stiff.c))


_K = np.array([[0.0, -1.0, 0.0],
               [1.0, 0.0, 0.0],
               [0.0, 0.0, 0.0]])


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _ig_terms(c: np.ndarray, rho: np.ndarray, ctxs) -> np.ndarray:
    """P0, P1, P2 of i G = P0 + kz r P1 + r^2 P2 for every stiffness table
    of c (..., 6, 6) with its density in rho (...) and every context, as one
    array (3, ..., len(ctxs), 6, 6).

    G is assembled from the Voigt sub-tables:

        g1 = -qh^-1 (R kap) - i kz r qh^-1 P
        g2 = -qh^-1
        g3 = kap+ th kap - (R kap)+ qh^-1 (R kap) + i kz r (W - W+)
             + r^2 (kz^2 (mh - P.T qh^-1 P) - rho w^2 I)
        W  = P.T qh^-1 (R kap) - kap S,      kap = K + i n I

    and placed as i G = [[g1, i g2], [i g3, -g1+]].  Products with i are
    exact, so the terms summed in g_matrix's order round as the blocks
    would.
    """
    qh, th, mh, rm, p, s = _gather_blocks(c[..., None, :, :])
    try:
        qinv = np.linalg.inv(qh)
    except np.linalg.LinAlgError:
        raise MaterialSingular(
            "rr-face stiffness block not invertible") from None
    n = np.array([ctx.n for ctx in ctxs])[:, None, None]
    kz2 = np.array([ctx.kz ** 2 for ctx in ctxs])[:, None, None]
    w2 = np.array([ctx.omega ** 2 for ctx in ctxs])[:, None, None]
    kap = _K + 1j * n * np.eye(3)
    pt = p.swapaxes(-1, -2)
    rt = rm @ kap
    w = pt @ qinv @ rt - kap @ s
    g1a, g1b = -qinv @ rt, qinv @ p
    terms = np.zeros((3,) + rt.shape[:-2] + (6, 6), dtype=complex)
    terms[0, ..., :3, :3] = g1a
    terms[0, ..., :3, 3:] = 1j * -qinv
    terms[0, ..., 3:, :3] = 1j * (_ct(kap) @ th @ kap - _ct(rt) @ qinv @ rt)
    terms[0, ..., 3:, 3:] = -_ct(g1a)
    terms[1, ..., :3, :3] = -(1j * g1b)
    terms[1, ..., 3:, :3] = 1j * (1j * (w - _ct(w)))
    terms[1, ..., 3:, 3:] = _ct(1j * g1b)
    terms[2, ..., 3:, :3] = 1j * (kz2 * (mh - pt @ qinv @ p)
                                  - rho[..., None, None, None] * w2 * np.eye(3))
    return terms


def g_matrix(mp: MaterialPoint, ctx: WaveContext, r: float) -> np.ndarray:
    """The 6x6 G(r) with Q = (i/r) G; _ig_terms gives its formula.  Like
    q_matrix, it rebuilds every term of G per call."""
    if r <= 0:
        raise ValueError("g_matrix needs r > 0")
    t = _ig_terms(mp.stiffness.c, np.asarray(mp.rho, dtype=float), [ctx])[:, 0]
    return -1j * (t[0] + (ctx.kz * r) * t[1] + (r * r) * t[2])


# Indices of the in-plane (m=2) and axial-shear (m=1) subsystems of the
# 6x6 state ordering (u_r, u_th, u_z, v_r, v_th, v_z).
_INPLANE_IDX = np.array([0, 1, 3, 4])
_AXIAL_IDX = np.array([2, 5])

# Voigt pairs that must vanish for the z-normal mirror symmetry
_MONOCLINIC_ZERO = [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5),
                    (4, 6), (5, 6)]
_MIRROR_ROW, _MIRROR_COL = np.array(_MONOCLINIC_ZERO).T - 1


def _z_mirror(c: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Whether each stiffness table of c (..., 6, 6) has the z-normal mirror
    symmetry, to tol times its largest modulus (at least 1)."""
    scale = np.maximum(1.0, np.abs(c).max(axis=(-2, -1)))
    return (np.abs(c[..., _MIRROR_ROW, _MIRROR_COL])
            <= tol * scale[..., None]).all(axis=-1)


def has_z_mirror_symmetry(stiff: StiffnessVoigt, tol: float = 1e-12) -> bool:
    return bool(_z_mirror(stiff.c, tol))


def _check_reduction(c: np.ndarray, ctxs) -> None:
    """Refuse an m < 3 reduction where the motions do not decouple, for the
    stiffness tables c (..., 6, 6) and the contexts."""
    if any(ctx.kz != 0.0 for ctx in ctxs):
        raise DecouplingError("m<3 reduction requires kz = 0")
    if not _z_mirror(c).all():
        raise DecouplingError(
            "m<3 reduction requires z-normal mirror symmetry of the moduli")


def _state_index(m: int) -> np.ndarray:
    return _INPLANE_IDX if m == 2 else _AXIAL_IDX if m == 1 else np.arange(6)


def q_matrix(profile, ctx: WaveContext, r: float) -> SystemMatrix:
    """System matrix Q(r) = (i/r) G(r), reduced to 2m x 2m when ctx.m < 3.

    Reduction to the in-plane (m=2) or axial-shear (m=1) subsystem is only
    meaningful at kz=0 for materials with the z-normal mirror symmetry; any
    other request is refused.

    A profile object exposing ``q_at(r, ctx)`` is used directly (test hook
    for synthetic system matrices).  Each call rebuilds all terms of G, about
    110 us on a 2-core box; _q_sampler, which builds them once per layer or
    block for many radii and contexts, is the fast path.
    """
    q_at = getattr(profile, "q_at", None)
    if q_at is not None:
        q = np.asarray(q_at(r, ctx), dtype=complex)
        return SystemMatrix(q=q, r=float(r))

    mp = profile.material_at(r)
    g = g_matrix(mp, ctx, r)
    q6 = (1j / r) * g
    if ctx.m == 3:
        return SystemMatrix(q=q6, r=float(r))
    _check_reduction(mp.stiffness.c, [ctx])
    idx = _state_index(ctx.m)
    return SystemMatrix(q=q6[np.ix_(idx, idx)], r=float(r))


def _q_sampler(profile, ctxs, gauge=None):
    """Q at many radii for a stack of contexts that share m.

    Returns ``sample(r, layer)``, an array of shape
    r.shape + (len(ctxs), 2m, 2m) holding Q(r) for every radius and
    context in the profile's support, in a piecewise profile's layer
    ``layer`` at every radius (a smooth law and the ``q_at`` hook ignore
    it).  With a gauge g, an elementwise factor of +-1 and +-i, the samples
    are Q * g, in float64 where their imaginary parts are exactly zero.

    Samples are (1/r) (P0 + kz r P1 + r^2 P2) from _ig_terms' terms, equal
    to q_matrix's bit for bit.  A piecewise profile builds, gauges and
    demotes each layer's terms once, when the sampler is built; products
    with g are exact, so its samples are Q * g bit for bit, formed in
    float64 for lossless orthotropic layers.  Its sampler has two more
    functions of a layer, from those terms:

    * ``sample.bound(lo, hi, layer)``, per context an upper bound on the
      step guard's |D^-1 Q D|_2 at every radius in [lo, hi] of the layer
      (see cylwave.matricant), from the Frobenius norms of the terms' four
      m x m blocks, taken once;
    * ``sample.letters(layer)``, the layer's terms as the letters of
      Q(r) = P0 / r + kz P1 + r P2, one array (letters, len(ctxs), 2m, 2m):
      P0, kz P1 and P2, or P0 and P2 where every kz is 0.

    A smooth law, called once per radius, has the terms of all radii and
    contexts built in one pass; it and the ``q_at`` hook, which goes
    through q_matrix radius by radius, gauge and demote their samples.
    """
    def gauged(q):
        return q if gauge is None else _demoted(q * gauge)

    if getattr(profile, "q_at", None) is not None:
        def sample(r, layer):
            r = np.asarray(r, dtype=float)
            q = np.array([[q_matrix(profile, ctx, x).q for ctx in ctxs]
                          for x in r.ravel().tolist()])
            return gauged(q.reshape(r.shape + q.shape[1:]))
        return sample

    m = ctxs[0].m
    sub = (Ellipsis,) + np.ix_(_state_index(m), _state_index(m))
    kz = np.array([ctx.kz for ctx in ctxs])[:, None, None]

    def terms_of(mps):
        # (3, len(mps), len(ctxs), 2m, 2m)
        c = np.array([mp.stiffness.c for mp in mps])
        if m < 3:
            _check_reduction(c, ctxs)
        rho = np.array([mp.rho for mp in mps], dtype=float)
        return _ig_terms(c, rho, ctxs)[sub]

    def q_of(terms, r):
        rr = r[..., None, None, None]
        return (1 / rr) * (terms[0] + (kz * rr) * terms[1]
                           + (rr * rr) * terms[2])

    if getattr(profile, "layers", None) is None:
        def sample(r, layer):
            r = np.asarray(r, dtype=float)
            terms = terms_of([profile.material_at(x)
                              for x in r.ravel().tolist()])
            terms = terms.reshape(terms.shape[:1] + r.shape + terms.shape[2:])
            return gauged(q_of(terms, r))
        return sample

    # each layer's terms (3, len(ctxs), 2m, 2m); a context with kz = 0 adds
    # (kz r) P1 = 0, so its gauged P1 is zeroed lest it keep a real layer
    # complex
    terms = terms_of([mp for (_, _, mp) in profile.layers])
    if gauge is not None:
        terms = terms * gauge
        terms[1] *= kz != 0
    layer_terms = [t if gauge is None else _demoted(t)
                   for t in terms.swapaxes(0, 1)]
    # the Frobenius norms of the m x m blocks [[1, 2], [3, 4]] of each
    # layer's terms (layers, 3, 2, 2, len(ctxs)), P1's times |kz|; the
    # gauge keeps every |entry|
    norms = np.linalg.norm(terms.reshape(terms.shape[:-2] + (2, m, 2, m)),
                           axis=(-3, -1))
    norms[1] *= np.abs(kz)
    norms = norms.transpose(1, 0, 3, 4, 2)

    def sample(r, layer):
        return q_of(layer_terms[layer], np.asarray(r, dtype=float))

    def bound(lo, hi, layer):
        # with the guard's s^2 = |Q3|_F / |Q2|_F, |D^-1 Q D|_F^2 is |Q1|^2 +
        # |Q4|^2 + 2 |Q2| |Q3|, and |Q1|^2 + |Q4|^2 + |Q2|^2 where Q3 = 0
        # and s = 1 (Q2 = P0's block / r = -i qh^-1 / r is never 0).  Both
        # are at most F1^2 + F4^2 + F2^2 + 2 F2 F3, F_b = |P0_b| / r +
        # |kz P1_b| + r |P2_b| >= |Q_b(r)|_F, a sum of r^-2 .. r^2 with
        # nonnegative coefficients, so convex, and its largest value on
        # [lo, hi] is at an end
        c = norms[layer]

        def square(r):
            (f1, f2), (f3, f4) = c[0] / r + c[1] + r * c[2]
            return f1 * f1 + f4 * f4 + f2 * f2 + 2 * f2 * f3

        return np.sqrt(np.maximum(square(lo), square(hi)))

    def letters(layer):
        p0, p1, p2 = layer_terms[layer]
        return np.stack([p0, p2] if not kz.any() else [p0, kz * p1, p2])

    sample.bound = bound
    sample.letters = letters
    return sample


# ---------------------------------------------------------------------------
# JSON profile schema (consumed by the CLI)


def _is_number(x) -> bool:
    """A JSON number: int or float, not a boolean (which is an int)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_float(x, where: str, expected: str) -> float:
    """x as a float if it is a JSON number that a float can hold; else
    SchemaError at where."""
    if _is_number(x):
        try:
            return float(x)
        except OverflowError:  # an int past the float range
            pass
    raise SchemaError(f"{where}: expected {expected}")


def _material_from_json(node: dict, where: str) -> MaterialPoint:
    if not isinstance(node, dict):
        raise SchemaError(f"{where}: expected object")
    mtype = node.get("type")
    if mtype not in ("isotropic", "ti", "full"):
        raise SchemaError(f"{where}/type: expected 'isotropic', 'ti' or 'full'")
    rho = _json_float(node.get("rho"), f"{where}/rho",
                      "positive finite number")
    params = node.get("params")
    if not isinstance(params, dict):
        raise SchemaError(f"{where}/params: expected object")

    def modulus(key) -> float:
        at = f"{where}/params/{key}"
        value = _json_float(params[key], at, "finite number")
        if not math.isfinite(value):
            raise SchemaError(f"{at}: expected finite number")
        return value

    if mtype == "isotropic":
        if "lambda" in params and "mu" in params:
            lam, mu = modulus("lambda"), modulus("mu")
        elif "E" in params and "G" in params:
            e, g = modulus("E"), modulus("G")
            if 3 * g - e == 0:
                raise SchemaError(f"{where}/params: E = 3G is degenerate")
            mu = g
            lam = g * (e - 2 * g) / (3 * g - e)
            if not math.isfinite(lam):
                raise SchemaError(f"{where}/params: lambda from E, G "
                                  "is not finite")
        else:
            raise SchemaError(
                f"{where}/params: need ('lambda','mu') or ('E','G')")
        stiff = isotropic_stiffness(lam, mu)
    elif mtype == "ti":
        need = ("c11", "c12", "c13", "c33", "c44")
        if not all(k in params for k in need):
            raise SchemaError(f"{where}/params: need {need}")
        stiff = ti_stiffness(*(modulus(k) for k in need))
    else:
        c = np.zeros((6, 6))
        for i in range(1, 7):
            for j in range(i, 7):
                key = f"c{i}{j}"
                if key not in params:
                    raise SchemaError(f"{where}/params/{key}: missing")
                c[i - 1, j - 1] = c[j - 1, i - 1] = modulus(key)
        stiff = StiffnessVoigt(c)

    if not stiff.is_positive_definite():
        raise SchemaError(f"{where}/params: moduli not positive definite")
    try:
        return MaterialPoint(rho=rho, stiffness=stiff)
    except ValueError as exc:
        raise SchemaError(f"{where}/rho: {exc}") from None


def profile_from_json(source) -> RadialProfile:
    """Load a layered profile from a JSON file path, file object or dict."""
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or "layers" not in doc:
        raise SchemaError("/: expected object with 'layers'")
    layers = doc["layers"]
    if not isinstance(layers, list) or not layers:
        raise SchemaError("/layers: expected non-empty array")
    items = []
    for i, layer in enumerate(layers):
        if not isinstance(layer, dict):
            raise SchemaError(f"/layers/{i}: expected object")
        for key in ("r_in", "r_out", "material"):
            if key not in layer:
                raise SchemaError(f"/layers/{i}/{key}: missing")
        r_in, r_out = (_json_float(layer[key], f"/layers/{i}/{key}", "number")
                       for key in ("r_in", "r_out"))
        mp = _material_from_json(layer["material"], f"/layers/{i}/material")
        items.append((r_in, r_out, mp))
    try:
        return RadialProfile.piecewise(items)
    except ValueError as exc:
        raise SchemaError(f"/layers: {exc}") from None
