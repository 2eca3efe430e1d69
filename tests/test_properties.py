"""Physics invariants of the scattering solve over random lossless TI
stacks: unitarity, fold invariance and agreement of the two routes."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cylwave as cw


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
