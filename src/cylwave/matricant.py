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

In a layer of a piecewise profile Q(r) = P0 / r + kz P1 + r P2, so each B_d
is a sum of three letters with per-step weights: alpha_d =
h sum_j c_dj / r_j for P0, beta_d = h sum_j c_dj for kz P1 and gamma_d =
h sum_j c_dj r_j for P2, with r_j = r + x_j h; kz P1 is left out where
every kz is 0.  M - I is then a fixed polynomial in the letters, and the
dyson kernel of a layer forms it from the terms alone: on entering the
layer it builds the word tables, every product W_w of 1 to p letters, and
per block it runs the recursion for S_e on the words' coefficients
(steps, words), shared by every entry, and contracts them with the tables,
M = I + sum_w C_w W_w.  lp4 has 30 words at kz = 0 and 120 at kz != 0;
those zero in every entry (at m = 2 and 3, the 12 and 33 that hold
P2 P2) are left out.
Every sum of a step's numbers runs in a fixed order, node by node, word by
word, so a step's propagator does not depend on its block or its entry's
stack.  A smooth law and the q_at hook have no layer terms; their dyson
steps, like every exp and magnus step, come from the kernel on samples of
Q at the nodes.

One stepper forms every propagator of the package: the impedance march,
matricant_step and matricant_global.  Per block of steps it samples Q in
one loop over chunks of whole steps, each an array (nodes, steps, entries,
2m, 2m) of at most _BLOCK_SAMPLES samples and at least one step; in each
chunk the step guard gives each entry its own StepTooLarge, and an exp,
magnus or sampled dyson kernel forms the chunk's propagators from the same
samples.  The dyson kernel of a layer forms the whole block from the
layer's terms after the loop, which then samples Q only for the guard and
stops once no entry needs it.  A failed entry steps by the identity over
the whole block.  The march fuses each group of _GROUP_STEPS steps of a
_segments piece, counted from the piece's start, into one propagator, and
each run of _RUN_GROUPS groups into prefix products that one Moebius call
applies (see cylwave.impedance), so a block holds whole runs, at least
one, and as many as len(nodes) * _BLOCK_SAMPLES propagators (steps x
entries) allow, whatever the kernel; only a piece's last block may end in
a short run or group, and every block starts a run.  A one-ka solve (at
most 23 orders at 500 steps) steps each piece in one block, and a run
never straddles two blocks, whatever the stack.  A large stack's samples
stay within the budget, and its propagators within one run of its entries
where that passes len(nodes) times the budget.
The march hands its gauge to the stepper, which builds the sampler with it;
the guard and the kernels then see the gauged terms or samples, in float64
where they are real (see cylwave.impedance).  matricant_step and
matricant_global are stacks of one that raise their entry's error, take Q
ungauged, stay complex and multiply step by step.

The guard refuses a step where h |D^-1 Q D|_2 passes 20 at a sample, or
where a sample is not finite; D = diag(I, sI) with s^2 = |Q3|_F / |Q2|_F
balances the off-diagonal blocks.
In a layer of a piecewise profile the sampler bounds |D^-1 Q D|_2 from
the Frobenius norms of the m x m blocks of P0, kz P1 and P2, taken once per
layer and entry (see cylwave.elastodyn._q_sampler); the bound is convex in
r, so its larger value at a block's end radii covers every step of the
block.  An entry whose bound there, times h, is at most 20 (1 - 1e-12),
the margin covering round-off, passes every sample, and the guard, which
would give it 0, does not see it; every other entry goes through the
guard on its own samples, which are the only ones the terms' kernel
takes, so the verdicts and texts are those of the guard on every sample.
On aluminium (r 0.5-1) at 500 steps the bound times h is 0.054-0.16 for
ka 1-12, and only a march of about 5 steps passes 20.  A smooth law and
the q_at hook have no layer terms, and the guard sees all their samples.

No scheme needs derivatives of Q, but each interpolates Q within its step,
so no step may contain a jump in Q.  _segments cuts each span at the
interfaces of a piecewise profile inside it, and every piece is stepped in
its own layer, end radii included, with its own h: a march or product
keeps its nominal order.
"""
from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .elastodyn import _q_sampler
from .errors import (DuplicatePoints, EntryFaults, MatricantOverflow,
                     OutOfSupport, StepTooLarge)
from .numkernel import _mat_exp, _norm1

_SQ3 = np.sqrt(3.0)
# the march fuses each group of _GROUP_STEPS steps of a _segments piece,
# counted from the piece's start, into one propagator (see cylwave.impedance)
_GROUP_STEPS = 8
# the groups of a run, counted like them from each piece's start, whose
# prefix products one Moebius call applies to the run's starting w; a block
# holds whole runs (see _blocks), so every block starts one.  In
# 500-step lp4 solves of the aluminium cylinder the 32-step prefix products
# peak at 903 for ka <= 4 and pass the cap only at ka 4.5-5, where 64-step
# ones would reach 2890 already at ka = 3
_RUN_GROUPS = 4
# bounds a march's memory (see _blocks): the samples of Q (nodes x steps x
# entries) of a chunk of whole steps, at least one, and a block's
# propagators (steps x entries), at most len(nodes) times as many unless
# one run of every entry of the stack is more
_BLOCK_SAMPLES = 4096
# a term bound on h |D^-1 Q D|_2 at most this proves every sample of its
# entry below the guard's 20, with room for the rounding of both
_PROVEN = 20.0 * (1 - 1e-12)


@dataclass(frozen=True)
class Scheme:
    tag: str
    nominal_order: int


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
            # num (x - xi), coefficients in ascending powers
            num = [a - xi * b for a, b in zip([0] + num, num + [0])]
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
    m = np.eye(qs.shape[-1], dtype=qs.dtype) + b[0]
    for e in range(2, p + 1):
        se = b[e - 1].copy()
        for d in range(e - 1):
            se += b[d] @ s[e - d - 2]
        se /= e
        s.append(se)
        m += se
    return m


# ---------------------------------------------------------------------------
# the dyson kernel from a layer's terms, its letters P0, kz P1 and P2


def _weights(h: float, radii: np.ndarray, nodes: tuple, p: int,
             k: int) -> np.ndarray:
    """The letters' weights (D, k, steps) of each B_d, d < D = min(p, K),
    at the node radii (K, steps): alpha_d = h sum_j c_dj / r_j for P0,
    beta_d = h sum_j c_dj for kz P1 when k = 3, and gamma_d =
    h sum_j c_dj r_j for P2.  The Lagrange basis sums to 1, so beta_d is h
    at d = 0 and 0 above.  The sums run node by node, so a step's weights
    do not depend on its block."""
    c = _dyson_coefficients(nodes, p)[:len(nodes), :, None]
    alpha = h * reduce(operator.add,
                       (c[:, j] / x for j, x in enumerate(radii)))
    gamma = h * reduce(operator.add,
                       (c[:, j] * x for j, x in enumerate(radii)))
    if k == 2:
        return np.stack([alpha, gamma], axis=1)
    beta = np.zeros_like(alpha)
    beta[0] = h
    return np.stack([alpha, beta, gamma], axis=1)


def _series(b: np.ndarray, p: int) -> np.ndarray:
    """The coefficients (words, steps) of M - I = S_1 + ... + S_p over the
    words of _term_kernel, from the letter weights b (D, k, steps) of the B_d.
    S_e = sum_(d<e) (B_d / e) S_(e-d-1) runs on each length's coefficients:
    B_d times a word w of length l is the word (a, w) of length l + 1 with
    weight b[d, a] times w's.  A length's coefficients sum S_e's in the
    order of e; S_e's longest words, B_0 / e times S_(e-1)'s, are the first
    of their length and go straight into the result.  Every operation is
    elementwise, so a step's coefficients do not depend on its block."""
    k, steps = b.shape[1:]
    out = np.zeros((sum(k ** l for l in range(1, p + 1)), steps))
    c, at = [], 0
    for l in range(1, p + 1):
        c.append(out[at:at + k ** l])
        at += k ** l
    c[0] += b[0]
    # s[e][l - 1]: the coefficients of S_e's words of length l
    s = [None, [b[0]]]
    for e in range(2, p + 1):
        be = b / e
        se = [be[e - 1] if e <= len(b) else np.zeros((k, steps))]
        for l in range(2, e):
            se.append(reduce(np.add, [
                (be[d, :, None] * s[e - d - 1][l - 2]).reshape(-1, steps)
                for d in range(min(e - l + 1, len(b)))]))
        for x, y in zip(c, se):
            x += y
        np.multiply(be[0, :, None], s[e - 1][e - 2],
                    out=c[e - 1].reshape(k, -1, steps))
        if e < p:
            s.append(se + [c[e - 1].copy()])
    return out


def _term_kernel(letters: np.ndarray, nodes: tuple, p: int):
    """The dyson kernel of a layer whose letters (k, entries, s, s) are P0,
    [kz P1,] P2: step(h, radii), the propagators (steps, entries, s, s) of
    the steps whose node radii are radii (K, steps).

    The word tables, every product of l = 1 .. p letters, are built once:
    one real array (words, n), n the entries' s x s matrices flattened,
    real and imaginary parts side by side where the letters are complex.
    The lengths come in order and each length's words in the order of
    their letters, the first the most significant: word a k^(l-1) + w of
    length l is X_a times word w of length l - 1, as _series counts them.
    A word that is zero in every entry adds nothing and is left out: P2
    lies in the lower left block, so every word with P2 P2 in it is zero
    (at m = 2 and 3 lp4 keeps 18 of 30 words at kz = 0, 87 of 120 else).

    Per call M = I + sum_w C_w W_w, in chunks of whole groups of at most
    _GROUP_STEPS * _BLOCK_SAMPLES coefficients, so a long block with many
    words keeps its temporaries small.  The contraction writes straight
    into the chunk's rows of M, the table's columns innermost, so no
    temporary holds a one-block layer's propagators twice.  (The steps
    innermost need such a temporary and its transposed copy; on a 2-core
    box they were about 20 % faster with far more steps than columns, 16
    columns and 20000 steps, and slower for a one-ka solve's blocks of 500
    steps and 368 columns.)  numpy's einsum adds each element's words'
    products one by one, as a loop over the words would, so a step's
    propagator does not depend on its block, its chunk or its entry's
    stack."""
    k, entries, size = letters.shape[:3]
    tables = [letters]
    for _ in range(p - 1):
        tables.append((letters[:, None] @ tables[-1][None])
                      .reshape((-1,) + letters.shape[1:]))
    words = np.concatenate(tables).reshape(sum(map(len, tables)), -1)
    chunk = _GROUP_STEPS * max(1, _BLOCK_SAMPLES // len(words))
    kept = np.flatnonzero(words.any(axis=1))
    words = words[kept]
    if np.iscomplexobj(words):
        words = words.view(float)

    def step(h: float, radii: np.ndarray) -> np.ndarray:
        m = np.empty((radii.shape[1], words.shape[1]))
        for i in range(0, len(m), chunk):
            coef = _series(_weights(h, radii[:, i:i + chunk], nodes, p, k), p)
            np.einsum("ws,wn->sn", coef[kept], words, out=m[i:i + chunk])
        if np.iscomplexobj(letters):
            m = m.view(complex)
        m = m.reshape(len(m), entries, size, size)
        m += np.eye(size)
        return m

    return step


def _exp(h: float, qs: np.ndarray, nodes: tuple, p: int) -> np.ndarray:
    return reduce(lambda m, e: e @ m, _mat_exp(h / len(qs) * qs))


def _magnus(h: float, qs: np.ndarray, nodes: tuple, p: int) -> np.ndarray:
    qa, qb = qs
    return _mat_exp((0.5 * h) * (qa + qb)
                   + (_SQ3 * h * h / 12.0) * (qb @ qa - qa @ qb))


def _midpoints(k: int) -> tuple:
    return tuple((2 * j + 1) / (2 * k) for j in range(k))


# tag -> (kernel, sample nodes as fractions of the step, nominal order)
_TABLE = {
    "ts1": (_dyson, (0.0,), 1),
    "ts2": (_dyson, _midpoints(1), 2),
    "exp2a": (_exp, _midpoints(1), 2),
    "lp2": (_dyson, _midpoints(2), 2),
    "exp2b": (_exp, _midpoints(2), 2),
    "lp3": (_dyson, _midpoints(3), 3),
    "lp4": (_dyson, _midpoints(4), 4),
    "exp2c": (_exp, _midpoints(4), 2),
    "mg4": (_magnus, (0.5 - _SQ3 / 6.0, 0.5 + _SQ3 / 6.0), 4),
}

SCHEMES = {tag: Scheme(tag, order) for tag, (_, _, order) in _TABLE.items()}

SCHEME_NAMES = tuple(SCHEMES)


def get_scheme(name: str | Scheme) -> Scheme:
    if isinstance(name, Scheme):
        return name
    try:
        return SCHEMES[name.lower()]
    except (AttributeError, KeyError):
        raise ValueError(
            f"unknown scheme {name!r}; choose from {', '.join(SCHEMES)}") from None


def _count(value, name: str, least: int) -> int:
    """value as an int if operator.index takes it, it is >= least and it is
    not a boolean, which operator.index would read as 0 or 1."""
    try:
        if not isinstance(value, bool) and operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be >= {least} and integral: {value!r}")


def _segments(profile, r0: float, span: float, steps: int) -> list:
    """The pieces (start, h, steps, layer) that step [r0, r0 + span]: one
    per layer between the interfaces more than 1e-12 inside the span, the
    steps shared in proportion to length, at least one each and the rest by
    largest remainder (the earlier piece on a tie).  With no cut, as for a
    smooth law or q_at hook (layer 0), one piece with h = span / steps in
    the layer the span starts in, the outer one at an interface.  A step
    count that is not an integer >= 1 is a ValueError."""
    steps = _count(steps, "steps", 1)
    lo, hi = getattr(profile, "support", None) or (-np.inf, np.inf)
    if r0 < lo - 1e-12 or r0 + span > hi + 1e-12:
        raise OutOfSupport(
            f"step [{r0}, {r0 + span}] outside profile support [{lo}, {hi}]")
    cuts = [lay[1] for lay in (getattr(profile, "layers", None) or ())[:-1]]
    first = sum(c <= r0 + 1e-12 for c in cuts)
    inner = [c for c in cuts if r0 + 1e-12 < c < r0 + span - 1e-12]
    if not inner:
        return [(r0, span / steps, steps, first)]
    ends = [r0] + inner + [r0 + span]
    quota = [steps * (b - a) / span for a, b in zip(ends, ends[1:])]
    n = [max(1, int(q)) for q in quota]
    by_remainder = sorted(range(len(n)), key=lambda k: n[k] - quota[k])
    for k in by_remainder[:max(0, steps - sum(n))]:
        n[k] += 1
    return [(a, (b - a) / nk, nk, first + k)
            for k, (a, b, nk) in enumerate(zip(ends, ends[1:], n))]


def _bound(h: float, q: np.ndarray) -> np.ndarray:
    """h sqrt(|Q|_1 |Q|_inf) of each matrix, an upper bound on h |Q|_2.

    The 1-norms of Q and of its transpose sum and take maxima over slices
    (numkernel._norm1), which is bitwise equal to the axis form
    h sqrt(|Q|.sum(-2).max(-1) |Q|.sum(-1).max(-1)) and faster: numpy
    reduces over a 4- or 6-wide axis slowly."""
    return h * np.sqrt(_norm1(q) * _norm1(q.swapaxes(-1, -2)))


def _guard(h: float, q: np.ndarray) -> np.ndarray:
    # Each matrix's h |D^-1 Q D|_2, or 0 where its bounds show it below 20.
    # D = diag(I, sI) balances the off-diagonal blocks: at kz = 0 the U/V
    # scaling grows |Q|_2 as n^2 while the eigenvalues, which D keeps, stay
    # small.  The bound sqrt(|A|_1 |A|_inf) >= |A|_2, first of Q and then of
    # D^-1 Q D, spares the SVD wherever it already shows the norm below 20.
    # A matrix with a non-finite entry has a NaN or inf bound; it gets inf
    # and no SVD
    nrm = np.zeros(q.shape[:-2])
    over = ~(_bound(h, q) <= 20.0)
    if not over.any():
        return nrm
    at, qo = np.flatnonzero(over), q[over]
    finite = np.isfinite(qo).all(axis=(-2, -1))
    nrm.flat[at[~finite]] = np.inf
    at, qo = at[finite], qo[finite]
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
        nrm.flat[at[still]] = h * np.linalg.norm(
            qb[still], 2, axis=(-2, -1))
    return nrm


def _blocks(profile, ctxs, r0: float, span: float, steps: int, scheme,
            faults: EntryFaults, gauge=None):
    """Propagators of the steps of [r0, r0 + span] for every entry ctxs[j],
    in blocks within a _segments piece of whole runs of _RUN_GROUPS groups
    of _GROUP_STEPS steps, so a piece's runs never straddle a block and
    only its last block may end in a short run or group: per block the
    step-end radii and the propagators (steps, entries, s, s).  A block
    holds as many runs as len(nodes) * _BLOCK_SAMPLES propagators (steps x
    entries) hold, and at least one.  Each block samples Q in chunks of
    whole steps of at most _BLOCK_SAMPLES samples (nodes x steps x
    entries), at least one step.  In each chunk the guard sees the entries
    that the term bound over the block (on a piecewise profile) does not
    prove below 20; each sample's norm is its own, so the chunks change no
    verdict.  A sampled kernel then forms the chunk's propagators from the
    same samples, those of failed entries zeroed.  A dyson scheme on a
    piecewise profile forms the whole block from the layer's letters
    (_term_kernel) instead, building the word tables once per layer it
    enters, and samples only while an entry needs the guard.  An entry
    with an error in faults is not guarded, and it and an entry that trips
    the guard anywhere in the block, once it has its StepTooLarge, step by
    the identity over the block and keep their index; the stepper stops
    once every entry has failed.  With a gauge the sampler applies it, so
    the guard and the kernels see Q * gauge, float64 where real."""
    kernel, nodes, order = _TABLE[get_scheme(scheme).tag]
    sample = _q_sampler(profile, ctxs, gauge)
    bound = getattr(sample, "bound", None)
    letters = getattr(sample, "letters", None) if kernel is _dyson else None
    run = _GROUP_STEPS * _RUN_GROUPS
    size = run * max(1, _BLOCK_SAMPLES * len(nodes) // (len(ctxs) * run))
    chunk = max(1, _BLOCK_SAMPLES // (len(nodes) * len(ctxs)))
    blocks = [(a + np.arange(i, min(i + size, n)) * h, h, layer)
              for a, h, n, layer in _segments(profile, r0, span, steps)
              for i in range(0, n, size)]
    terms = None  # (layer, its _term_kernel)
    for r, h, layer in blocks:
        if not faults.ok.any():
            return
        radii = r + (np.array(nodes) * h)[:, None]
        # the entries that the layer's terms prove below 20 on the block
        proven = (h * bound(r[0], r[-1] + h, layer) <= _PROVEN
                  if bound is not None else np.zeros(len(ctxs), bool))
        mats = []
        for i in range(0, len(r), chunk):
            check = faults.ok & ~proven
            if letters is not None and not check.any():
                break
            qs = sample(radii[:, i:i + chunk], layer)
            nrm = _guard(h, qs[:, :, check]).max(0)
            for j, col in zip(np.flatnonzero(check), nrm.T):
                if (col > 20.0).any():
                    faults.errors[j] = StepTooLarge(
                        f"||h*Q|| = {float(col[col > 20.0][0])!r} exceeds 20 "
                        "(exp overflow guard); reduce the step or increase "
                        "the step count")
            if letters is None:
                # Past the guard h |D^-1 Q D|_2 <= 20 bounds an exp exponent
                # by 20, a Magnus one (nodes sharing D) by 20 + (sqrt(3)/6)
                # 20^2 ~ 135, so mat_exp stays below e^135 max(s, 1/s),
                # finite unless s > 1e249, and its Pade denominator is
                # regular: no entry needs an Overflow path.
                qs[:, :, ~faults.ok] = 0
                mats.append(kernel(h, qs, nodes, order))
            del qs  # no chunk's samples outlive it into the next
        if letters is None:
            mats = np.concatenate(mats)
        else:
            if terms is None or terms[0] != layer:
                terms = layer, _term_kernel(letters(layer), nodes, order)
            mats = terms[1](h, radii)
        mats[:, ~faults.ok] = np.eye(mats.shape[-1])
        yield r + h, mats
        del mats  # freed with the march's hold, before the next block


def matricant_step(profile, ctx, r: float, h: float, scheme) -> Matricant:
    """One-step propagator M(r+h, r) for the chosen scheme; over a span that
    contains an interface, the product of one step in each layer.

    Each call builds its own sampler, fault record and block stepper, and
    a dyson scheme its layer's word tables, so chaining it step by step
    (m = 3, kz != 0, 200 steps over two layers, on a 2-core box) costs
    about 40 to 50 times a step of matricant_global over the same span
    for a dyson scheme on a piecewise profile, whose one block per layer
    shares those costs, 10 to 30 times for the exp and magnus schemes, and
    3 to 20 times on a smooth law, whose calls per sample radius both pay.
    """
    if not h > 0:
        raise ValueError("step must be positive")
    faults = EntryFaults(1)
    blocks = _blocks(profile, [ctx], r, h, 1, scheme, faults)
    mats = [s for _, block in blocks for s in block[:, 0]]
    faults.check(0)
    return Matricant(reduce(lambda m, s: s @ m, mats), r, r + h)


def matricant_global(profile, ctx, r0: float, r1: float, steps: int,
                     scheme) -> Matricant:
    """Left-multiplied composition over the steps of _segments.

    Emits a MatricantOverflow warning if any intermediate product entry
    exceeds 1e12 in magnitude (the growing-solution swamp at large n or kr;
    use the impedance marcher instead of a global matricant in that regime).
    """
    if not r0 < r1:
        raise ValueError("need r0 < r1")
    faults, m, warned = EntryFaults(1), None, False
    for radii, mats in _blocks(profile, [ctx], r0, r1 - r0, steps, scheme,
                               faults):
        for rk, step in zip(radii, mats[:, 0]):
            m = step if m is None else step @ m
            if not warned and np.max(np.abs(m)) > 1e12:
                warned = True
                warnings.warn(f"matricant entries exceed 1e12 at r={rk:.6g};"
                              " growing solutions dominate this span",
                              MatricantOverflow, stacklevel=2)
    faults.check(0)
    return Matricant(m, r0, r1)
