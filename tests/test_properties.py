"""Physics invariants of the scattering solve over random lossless TI
stacks: unitarity, fold invariance and agreement of the two routes; the
layer-term bound that spares the march's step guard; the dyson steps formed
from the layer terms, which must be the sampled kernel's; and the one basis
pair of a closed-form layer, whose degenerate orders no other pair
rescues."""
import math
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cylwave as cw
from cylwave.elastodyn import _q_sampler
from cylwave.errors import AccuracyLoss, BasisDegenerate, CylwaveError
from cylwave.impedance import _gauge
from cylwave.matricant import _PROVEN, _TABLE, _dyson, _guard, _term_kernel


@st.composite
def lossless_stacks(draw):
    """1-3 lossless TI layers over [r_in, 1] and a ka in [0.5, 6].

    The moduli lie inside the positive-definite cone, with |c13| below the
    (c11 - c66) c33 coupling bound, so every radial wavenumber is real at
    kz = 0.
    """
    r_in = draw(st.floats(0.3, 0.6))
    # the interfaces fall anywhere in (r_in, 1), on no step grid; no layer
    # is thinner than 3 % of the stack
    weights = draw(st.lists(st.floats(0.2, 3.0), min_size=1, max_size=3))
    edges = r_in + (1.0 - r_in) * np.cumsum([0] + weights) / sum(weights)
    edges[-1] = 1.0
    layers = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        c11 = draw(st.floats(20.0, 90.0))
        c66 = draw(st.floats(4.0, min(30.0, 0.45 * c11)))
        c33 = draw(st.floats(20.0, 90.0))
        c44 = draw(st.floats(4.0, 30.0))
        c13 = draw(st.floats(-0.7, 0.7)) * math.sqrt((c11 - c66) * c33)
        rho = draw(st.floats(1.0, 8.0))
        layers.append(cw.LayerTI(float(lo), float(hi), rho, c11,
                                 c11 - 2.0 * c66, c13, c33, c44))
    return tuple(layers), draw(st.floats(0.5, 6.0))


# fixed draws keep the suite repeatable; no example database is written
_SETTINGS = dict(deadline=None, derandomize=True, database=None)


def _recursion(layers, ka):
    return cw.solve_scattering(cw.ScatteringConfig(layers, ka=ka,
                                                   method="recursion"))


@settings(max_examples=25, **_SETTINGS)
@given(lossless_stacks())
def test_unitarity(case):
    res = _recursion(*case)
    assert max(abs(abs(1 + 2 * bn) - 1) for bn in res.b) < 1e-10


@settings(max_examples=25, **_SETTINGS)
@given(lossless_stacks(), st.data())
def test_fold_invariance(case, data):
    layers, ka = case
    i = data.draw(st.integers(0, len(layers) - 1))
    cut = data.draw(st.floats(0.2, 0.8))
    lay = layers[i]
    mid = lay.r_inner + cut * (lay.r_outer - lay.r_inner)
    halves = tuple(cw.LayerTI(lo, hi, lay.rho, lay.c11, lay.c12, lay.c13,
                              lay.c33, lay.c44)
                   for lo, hi in ((lay.r_inner, mid), (mid, lay.r_outer)))
    whole = _recursion(layers, ka)
    split = _recursion(layers[:i] + halves + layers[i + 1:], ka)
    n = min(len(whole.b), len(split.b))
    assert np.max(np.abs(np.subtract(whole.b[:n], split.b[:n]))) < 1e-9


@settings(max_examples=8, **_SETTINGS)
@given(lossless_stacks())
def test_route_equivalence(case):
    layers, ka = case
    integ = cw.solve_scattering(cw.ScatteringConfig(layers, ka=ka))
    recur = _recursion(layers, ka)
    assert abs(integ.sigma_tot - recur.sigma_tot) <= 1e-8 * recur.sigma_tot


@st.composite
def layered_profiles(draw):
    """A piecewise profile over [r_in, 1] of 1-3 TI layers or of one layer
    of 21 independent moduli, its edges, contexts that share m (m = 1 or 2
    at kz = 0 for TI layers, m = 3 at kz = 0 or at kz drawn per context),
    and with or without the march's gauge."""
    r_in = draw(st.floats(0.05, 0.9))
    full = draw(st.booleans())
    weights = draw(st.lists(st.floats(0.2, 3.0), min_size=1,
                            max_size=1 if full else 3))
    edges = r_in + (1.0 - r_in) * np.cumsum([0] + weights) / sum(weights)
    edges[-1] = 1.0
    layers = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if full:
            # a positive definite table: L L^T plus a diagonal
            low = np.zeros((6, 6))
            low[np.tril_indices(6)] = draw(st.lists(
                st.floats(-3.0, 3.0), min_size=21, max_size=21))
            stiff = cw.StiffnessVoigt(low @ low.T + draw(st.floats(0.1, 50.0))
                                      * np.eye(6))
        else:
            c11 = draw(st.floats(1.0, 300.0))
            c66 = draw(st.floats(0.05, 0.45)) * c11
            c33 = draw(st.floats(1.0, 300.0))
            c13 = draw(st.floats(-0.7, 0.7)) * math.sqrt((c11 - c66) * c33)
            stiff = cw.ti_stiffness(c11, c11 - 2.0 * c66, c13, c33,
                                    draw(st.floats(0.05, 100.0)))
        layers.append((float(lo), float(hi),
                       cw.MaterialPoint(draw(st.floats(0.1, 20.0)), stiff)))
    profile = cw.RadialProfile.piecewise(layers)
    m = 3 if full else draw(st.sampled_from([1, 2, 3]))
    axial = m == 3 and draw(st.booleans())
    ctxs = [cw.WaveContext(omega=draw(st.floats(0.01, 200.0)),
                           n=draw(st.integers(0, 80)),
                           kz=draw(st.floats(-30.0, 30.0)) if axial else 0.0,
                           m=m)
            for _ in range(draw(st.integers(1, 4)))]
    gauge = _gauge(m)[0] if draw(st.booleans()) else None
    return profile, edges, ctxs, gauge


def _balanced(q):
    """|D^-1 Q D|_2 of each sample as the guard takes it, at a step so
    long that neither of its bounds spares the norm."""
    return _guard(1e9, q) / 1e9


@st.composite
def layered_samples(draw):
    """A profile, contexts and gauge of layered_profiles, a layer, a span
    [lo, hi] inside it and sample radii in the span, its ends among
    them."""
    profile, edges, ctxs, gauge = draw(layered_profiles())
    layer = draw(st.integers(0, len(edges) - 2))
    a, b = edges[layer], edges[layer + 1]
    t0, t1 = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                  max_size=2)))
    lo, hi = a + t0 * (b - a), a + t1 * (b - a)
    ts = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    radii = np.array([lo, hi] + [lo + t * (hi - lo) for t in ts])
    return profile, ctxs, gauge, layer, lo, hi, radii.clip(lo, hi)


@settings(max_examples=200, **_SETTINGS)
@given(layered_samples())
def test_term_bound_covers_every_sample(case):
    # the march's guard skips an entry whose term bound over a block,
    # times h, is at most _PROVEN; the bound must never be below a
    # sample's |D^-1 Q D|_2 as the guard takes it, nor below its own value
    # at a radius of the span, beyond round-off, and at the threshold the
    # guard must pass every sample.  (It may still take a norm there: its
    # 1/inf bounds on D^-1 Q D can pass 20 where the Frobenius norms this
    # bound sums do not.)
    profile, ctxs, gauge, layer, lo, hi, radii = case
    sample = _q_sampler(profile, ctxs, gauge)
    q = sample(radii, layer)
    bound = sample.bound(lo, hi, layer)
    assert (_balanced(q) <= bound * (1 + 1e-13)).all()
    for x in radii:
        assert (sample.bound(x, x, layer) <= bound * (1 + 1e-13)).all()
    for j, h in enumerate(_PROVEN / bound):
        assert (_guard(h, q[:, j]) <= 20.0).all()


@st.composite
def layered_steps(draw):
    """A profile, contexts and gauge of layered_profiles, a dyson scheme,
    a layer and a run of steps inside it: h |D^-1 Q D| up to 4 by the
    layer's term bound, or up to 19 by the guard's own norm at the
    layer's ends, where P0 / r and r P2 may cancel inside Q."""
    profile, edges, ctxs, gauge = draw(layered_profiles())
    scheme = draw(st.sampled_from(["ts1", "ts2", "lp2", "lp3", "lp4"]))
    layer = draw(st.integers(0, len(edges) - 2))
    a, b = edges[layer], edges[layer + 1]
    steps = draw(st.integers(1, 20))
    balanced = draw(st.booleans())
    reach = draw(st.floats(1e-3, 19.0 if balanced else 4.0))
    start = draw(st.floats(0.0, 1.0))
    return (profile, ctxs, gauge, scheme, layer, a, b, steps, balanced,
            reach, start)


@settings(max_examples=200, **_SETTINGS)
@given(layered_steps())
def test_term_kernel_equals_sampled_dyson(case):
    # the dyson steps formed from a layer's terms, M = I + sum_w C_w W_w
    # over the words in P0, kz P1 and P2, are the steps of the sampled
    # kernel to round-off: within 1e-13 of the largest |M| entry of a step
    (profile, ctxs, gauge, scheme, layer, a, b, steps, balanced, reach,
     start) = case
    _, nodes, p = _TABLE[scheme]
    sample = _q_sampler(profile, ctxs, gauge)
    if balanced:
        norm = _balanced(sample(np.array([[a, b]]), layer)).max()
    else:
        norm = sample.bound(a, b, layer).max()
    h = min((b - a) / steps, reach / norm)
    r = a + start * (b - a - steps * h) + np.arange(steps) * h
    radii = r + (np.array(nodes) * h)[:, None]
    qs = sample(radii, layer)
    assume(not (_guard(h, qs) > 20.0).any())
    want = _dyson(h, qs, nodes, p)
    got = _term_kernel(sample.letters(layer), nodes, p)(h, radii)
    assert got.shape == want.shape and got.dtype == want.dtype
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert (np.abs(got - want) <= 1e-13 * scale).all()


@st.composite
def layer_orders(draw):
    """A TI layer, lossless or lossy (moduli times 1 - 0.02i), thick or as
    thin as 0.001 of its outer radius, and a context with kz in [0, 5],
    omega in [0.05, 60] and n in 0..300."""
    c11 = draw(st.floats(1.0, 300.0))
    c66 = draw(st.floats(0.05, 0.45)) * c11
    c33 = draw(st.floats(1.0, 300.0))
    c13 = draw(st.floats(-0.7, 0.7)) * math.sqrt((c11 - c66) * c33)
    c44 = draw(st.floats(0.05, 100.0))
    moduli = [c11, c11 - 2.0 * c66, c13, c33, c44]
    if draw(st.booleans()):
        moduli = [c * (1 - 0.02j) for c in moduli]
    r_out = draw(st.floats(0.2, 2.0))
    thickness = draw(st.one_of(st.floats(0.05, 0.9),
                               st.floats(0.001, 0.05))) * r_out
    layer = cw.LayerTI(r_out - thickness, r_out,
                       draw(st.floats(0.1, 20.0)), *moduli)
    kz = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    return layer, cw.WaveContext(omega=draw(st.floats(0.05, 60.0)),
                                 n=draw(st.integers(0, 300)), kz=kz)


def _raised(layer, ctx, basis):
    """The error layer_twopoint raises in basis, or None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyLoss)
            cw.layer_twopoint(layer, ctx, basis=basis)
    except CylwaveError as exc:
        return exc
    return None


@settings(max_examples=300, **_SETTINGS)
@given(layer_orders())
def test_degenerate_in_every_basis_pair(case):
    # the displacement block [X(r0); X(r1)] is singular where the layer has
    # a clamped-clamped mode, in any basis of the same solution space, and
    # with its columns scaled H1 is iY wherever the block is badly
    # conditioned: an order degenerate in {J, H1} is degenerate in {J, Y}.
    # About half of the draws are degenerate in {J, H1}
    if isinstance(_raised(*case, (1, 3)), BasisDegenerate):
        assert isinstance(_raised(*case, (1, 2)), BasisDegenerate)
