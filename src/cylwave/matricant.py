"""Single-step propagator approximations and global matricant composition.

Nine fixed-step schemes sample Q at nodes x_j of the step [r, r + h] and
combine the samples with one of three kernels; one private table gives each
tag its kernel and nodes.  The nodes are the midpoints (2j+1)/(2K) of K
equal sub-steps, except for ts1 (left end) and mg4 (the two Gauss nodes).

* dyson  -- ts1 (p = 1), ts2 (K = 1, p = 2), lp2, lp3, lp4 (K = p)
* exp    -- exp2a, exp2b, exp2c: exp((h/K) Q(r + x_j h)), K = 1, 2, 4,
            left-multiplied in node order
* magnus -- mg4, the two-point Gauss Magnus integrator

The dyson kernel sums the Dyson series of the Lagrange interpolant of Q
through the nodes up to total order p, the nominal order.  With
B_d = h sum_j c_dj Q(r + x_j h), where c_dj is the x^d coefficient of the
basis L_j on [0, 1] and B_d = 0 for d >= K, the step is M = S_0 + ... + S_p
with S_0 = I and S_e = (1/e) sum_(d<e) B_d S_(e-d-1).  So ts1 is I + hQ(r),
ts2 is I + hQ + (hQ)^2 / 2 at the midpoint, and for constant Q an lp step is
the exponential series truncated after (hQ)^p / p!.

The kernels and the step guard act on stacks: the samples arrive as one
array (nodes, *batch, 2m, 2m) and every step of the batch, over steps and
partial-wave orders alike, is computed in one pass.  The guard gives each
context its own StepTooLarge instead of raising, so the impedance march
drops just that entry; matricant_step is a batch of one and raises it.

No scheme needs derivatives of Q.  A node on an interface of a piecewise
profile takes the layer its step spans, so a ts1 step that starts on an
interface sees the outer layer; the other schemes sample only interior
abscissae of the step.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .elastodyn import _q_sampler
from .errors import DuplicatePoints, MatricantOverflow, OutOfSupport, StepTooLarge
from .numkernel import mat_exp

_SQ3 = np.sqrt(3.0)


@dataclass(frozen=True)
class Scheme:
    tag: str
    nominal_order: int


SCHEMES = {
    "ts1": Scheme("ts1", 1),
    "ts2": Scheme("ts2", 2),
    "exp2a": Scheme("exp2a", 2),
    "lp2": Scheme("lp2", 2),
    "exp2b": Scheme("exp2b", 2),
    "lp3": Scheme("lp3", 3),
    "lp4": Scheme("lp4", 4),
    "exp2c": Scheme("exp2c", 2),
    "mg4": Scheme("mg4", 4),
}

SCHEME_NAMES = tuple(SCHEMES)


def get_scheme(name: str | Scheme) -> Scheme:
    if isinstance(name, Scheme):
        return name
    try:
        return SCHEMES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; choose from {', '.join(SCHEMES)}") from None


@dataclass(frozen=True)
class Matricant:
    """Propagator M(r_to, r_from) of the state ODE, with block views."""

    m: np.ndarray
    r_from: float
    r_to: float
    half: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError("matricant must be square with even size")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "half", m.shape[0] // 2)

    @property
    def m1(self) -> np.ndarray:
        return self.m[:self.half, :self.half]

    @property
    def m2(self) -> np.ndarray:
        return self.m[:self.half, self.half:]

    @property
    def m3(self) -> np.ndarray:
        return self.m[self.half:, :self.half]

    @property
    def m4(self) -> np.ndarray:
        return self.m[self.half:, self.half:]

    @classmethod
    def identity(cls, size: int, r: float) -> "Matricant":
        return cls(np.eye(size, dtype=complex), r, r)


# ---------------------------------------------------------------------------
# Lagrange collocation weights


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    # floats like 1/6 round-trip exactly through limit_denominator
    return Fraction(x).limit_denominator(10 ** 9)


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _lagrange_basis(points) -> list:
    """Power-series coefficients [c_0, c_1, ...] of each Lagrange basis L_j."""
    pts = [_as_fraction(p) for p in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoints(f"abscissae must be distinct, got {points}")
    basis = []
    for j, xj in enumerate(pts):
        num = [Fraction(1)]
        den = Fraction(1)
        for i, xi in enumerate(pts):
            if i == j:
                continue
            num = _poly_mul(num, [-xi, Fraction(1)])
            den *= (xj - xi)
        basis.append([c / den for c in num])
    return basis


def lagrange_weights(points, k: int):
    """Weights L_j^(k) = k * integral_0^1 L_j(x) x^(k-1) dx, exact rationals.

    L_j is the Lagrange basis polynomial on the given abscissae in [0, 1].
    The weights of each order sum to 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # integral of c_m x^m * k x^(k-1) = k c_m / (m + k)
    return [sum(Fraction(k) * c / (m + k) for m, c in enumerate(cs))
            for cs in _lagrange_basis(points)]


@lru_cache(maxsize=None)
def _dyson_coefficients(nodes: tuple, p: int) -> np.ndarray:
    """c[d, j]: x^d coefficient of the Lagrange basis L_j, d < p (0 past K)."""
    basis = _lagrange_basis(nodes)
    return np.array([[float(cs[d]) if d < len(cs) else 0.0 for cs in basis]
                     for d in range(p)])


# ---------------------------------------------------------------------------
# single steps: three kernels over the samples qs[j] = Q(r + x_j h), each an
# array (*batch, s, s); the kernels return the propagators (*batch, s, s)


def _dyson(h: float, qs: np.ndarray, nodes: tuple, p: int) -> np.ndarray:
    # s[i] holds S_(i+1); the d = e-1 term B_(e-1) S_0 needs no product
    b = ((h * _dyson_coefficients(nodes, p)) @ qs.reshape(len(qs), -1)
         ).reshape((p,) + qs.shape[1:])
    s = [b[0]]
    m = np.eye(qs.shape[-1], dtype=complex) + b[0]
    for e in range(2, p + 1):
        se = b[e - 1].copy()
        for d in range(e - 1):
            se += b[d] @ s[e - d - 2]
        se /= e
        s.append(se)
        m += se
    return m


def _exp(h: float, qs: np.ndarray, nodes: tuple, p: int) -> np.ndarray:
    es = mat_exp(h / len(qs) * qs)
    m = es[0]
    for e in es[1:]:
        m = e @ m
    return m


def _magnus(h: float, qs: np.ndarray, nodes: tuple, p: int) -> np.ndarray:
    qa, qb = qs
    return mat_exp((0.5 * h) * (qa + qb)
                   + (_SQ3 * h * h / 12.0) * (qb @ qa - qa @ qb))


def _midpoints(k: int) -> tuple:
    return tuple((2 * j + 1) / (2 * k) for j in range(k))


# tag -> (kernel, sample nodes as fractions of the step)
_STEPS = {
    "ts1": (_dyson, (0.0,)),
    "ts2": (_dyson, _midpoints(1)),
    "lp2": (_dyson, _midpoints(2)),
    "lp3": (_dyson, _midpoints(3)),
    "lp4": (_dyson, _midpoints(4)),
    "exp2a": (_exp, _midpoints(1)),
    "exp2b": (_exp, _midpoints(2)),
    "exp2c": (_exp, _midpoints(4)),
    "mg4": (_magnus, (0.5 - _SQ3 / 6.0, 0.5 + _SQ3 / 6.0)),
}


def _step_kernel(scheme):
    """propagators(h, qs) of the scheme, and its sample nodes."""
    sch = get_scheme(scheme)
    kernel, nodes = _STEPS[sch.tag]

    def propagators(h, qs):
        return kernel(h, qs, nodes, sch.nominal_order)

    return propagators, nodes


def _check_span(profile, r: float, h: float) -> None:
    support = getattr(profile, "support", None)
    if support is not None:
        lo, hi = support
        if r < lo - 1e-12 or r + h > hi + 1e-12:
            raise OutOfSupport(
                f"step [{r}, {r + h}] outside profile support [{lo}, {hi}]")


def _bound(h: float, q: np.ndarray) -> np.ndarray:
    """h sqrt(|Q|_1 |Q|_inf) of each matrix, an upper bound on h |Q|_2."""
    aq = np.abs(q)
    return h * np.sqrt(aq.sum(axis=-2).max(axis=-1)
                       * aq.sum(axis=-1).max(axis=-1))


def _guard(h: float, q: np.ndarray) -> np.ndarray:
    # Each matrix's h |D^-1 Q D|_2, or 0 where its bounds show it below 20.
    # D = diag(I, sI) balances the off-diagonal blocks: at kz = 0 the U/V
    # scaling grows |Q|_2 as n^2 while the eigenvalues, which D keeps, stay
    # small.  The bound sqrt(|A|_1 |A|_inf) >= |A|_2, first of Q and then of
    # D^-1 Q D, spares the SVD wherever it already shows the norm below 20
    nrm = np.zeros(q.shape[:-2])
    over = _bound(h, q) > 20.0
    if not over.any():
        return nrm
    qo = q[over]
    k = q.shape[-1] // 2
    q2 = np.linalg.norm(qo[:, :k, k:], axis=(-2, -1))
    q3 = np.linalg.norm(qo[:, k:, :k], axis=(-2, -1))
    both = (q2 > 0) & (q3 > 0)
    s = np.sqrt(np.divide(q3, q2, out=np.ones_like(q2), where=both))
    d = np.concatenate([np.ones((len(qo), k)), np.repeat(s[:, None], k, 1)],
                       axis=1)
    qb = qo * d[:, None, :] / d[:, :, None]
    still = _bound(h, qb) > 20.0
    if still.any():
        nrm.flat[np.flatnonzero(over)[still]] = h * np.linalg.norm(
            qb[still], 2, axis=(-2, -1))
    return nrm


def _step_samples(sample, r: np.ndarray, h: float, nodes: tuple) -> tuple:
    """Q at the nodes of the steps [r, r + h] as (nodes, steps, contexts, s,
    s) from a _q_sampler, and per context its first StepTooLarge, or None."""
    x = r + (np.array(nodes) * h)[:, None]
    qs = sample(x, np.broadcast_to(r + 0.5 * h, x.shape))
    nrm = _guard(h, qs).max(axis=0)
    errors = np.full(qs.shape[2], None, dtype=object)
    for i in np.flatnonzero((nrm > 20.0).any(axis=0)):
        errors[i] = StepTooLarge(
            f"||h*Q|| = {nrm[nrm[:, i] > 20.0, i][0]:.3g} exceeds 20 (exp "
            "overflow guard); reduce the step or increase the step count")
    return qs, errors


def matricant_step(profile, ctx, r: float, h: float, scheme) -> Matricant:
    """One-step propagator M(r+h, r) for the chosen scheme."""
    if h <= 0:
        raise ValueError("step must be positive")
    _check_span(profile, r, h)
    propagators, nodes = _step_kernel(scheme)
    qs, (err,) = _step_samples(_q_sampler(profile, [ctx]), np.array([r]), h,
                               nodes)
    if err is not None:
        raise err
    return Matricant(propagators(h, qs)[0, 0], r, r + h)


def matricant_global(profile, ctx, r0: float, r1: float, steps: int,
                     scheme) -> Matricant:
    """Left-multiplied composition over equal subintervals.

    Emits a MatricantOverflow warning if any intermediate product entry
    exceeds 1e12 in magnitude (the growing-solution swamp at large n or kr;
    use the impedance marcher instead of a global matricant in that regime).
    """
    if not r0 < r1:
        raise ValueError("need r0 < r1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = (r1 - r0) / steps
    m = None
    warned = False
    for i in range(steps):
        step = matricant_step(profile, ctx, r0 + i * h, h, scheme)
        m = step.m if m is None else step.m @ m
        if not warned and np.max(np.abs(m)) > 1e12:
            warnings.warn(
                f"matricant entries exceed 1e12 at r={r0 + (i + 1) * h:.6g}; "
                "growing solutions dominate this span",
                MatricantOverflow,
                stacklevel=2,
            )
            warned = True
    return Matricant(m, r0, r1)
