import numpy as np
import pytest

import cylwave as cw
from cylwave import impedance, matricant
from cylwave.tilayers import _wavenumbers


@pytest.fixture(scope="session")
def al():
    return cw.aluminium()


@pytest.fixture
def block_budgets(monkeypatch):
    """Runs a block-structure test's body at two sample budgets, each set in
    turn as matricant._BLOCK_SAMPLES while the test iterates: 0 first, which
    forces blocks of one run, matricant._RUN_GROUPS groups of
    matricant._GROUP_STEPS steps (32 steps), then the default.  Each pass
    yields a list that records the steps of every block formed in it."""
    stepper, lengths = matricant._blocks, []

    def counted(*args, **kwargs):
        for radii, mats in stepper(*args, **kwargs):
            lengths.append(len(radii))
            yield radii, mats

    monkeypatch.setattr(matricant, "_blocks", counted)
    monkeypatch.setattr(impedance, "_blocks", counted)

    def each():
        for budget in (0, matricant._BLOCK_SAMPLES):
            monkeypatch.setattr(matricant, "_BLOCK_SAMPLES", budget)
            lengths.clear()
            yield lengths
    return each()


@pytest.fixture(scope="session")
def al_layer(al):
    c = al.stiffness
    return cw.LayerTI(0.5, 1.0, al.rho, c[1, 1], c[1, 2], c[1, 3],
                      c[3, 3], c[4, 4])


@pytest.fixture(scope="session")
def al_profile(al):
    return cw.RadialProfile.uniform(al, 0.5, 1.0)


def random_lossless_ti(rng):
    """One random lossless TI layer in a propagating regime.

    Draws moduli inside the positive-definite cone (|c13| is kept below the
    (c11-c66)*c33 coupling bound) and rejects draws whose radial wavenumbers
    are not all real, so Hermiticity-type properties hold exactly.
    Returns (layer, omega, kz).
    """
    while True:
        c11 = rng.uniform(20.0, 90.0)
        c66 = rng.uniform(4.0, min(30.0, 0.45 * c11))
        c12 = c11 - 2.0 * c66
        c33 = rng.uniform(20.0, 90.0)
        c44 = rng.uniform(4.0, 30.0)
        c13 = rng.uniform(-0.7, 0.7) * np.sqrt((c11 - c66) * c33)
        rho = rng.uniform(1.0, 8.0)
        omega = rng.uniform(2.0, 8.0)
        kz = rng.uniform(0.0, 0.8) * omega * np.sqrt(rho / max(c33, c44))
        r_in = rng.uniform(0.3, 0.9)
        r_out = r_in + rng.uniform(0.2, 0.9)
        layer = cw.LayerTI(r_in, r_out, rho, c11, c12, c13, c33, c44)
        k1, k2, k3, _, _, a, b = _wavenumbers(layer, omega, kz)
        if a * a - b < 0:
            continue
        ks = np.array([k1 * k1, k2 * k2, k3 * k3])
        if np.any(ks.real <= 1e-6) or np.any(np.abs(ks.imag) > 0):
            continue
        return layer, omega, kz


@pytest.fixture(scope="session")
def ti_sampler():
    return random_lossless_ti


def random_t_unitary(rng, m=3, spread=1.0):
    """exp of a random T-skew generator: A+ = -T A T, so exp(A) is T-unitary."""
    def herm(k):
        x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return 0.5 * (x + x.conj().T)

    a1 = spread * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    a = np.zeros((2 * m, 2 * m), dtype=complex)
    a[:m, :m] = a1
    a[:m, m:] = 1j * spread * herm(m)
    a[m:, :m] = 1j * spread * herm(m)
    a[m:, m:] = -a1.conj().T
    return cw.mat_exp(a)


@pytest.fixture(scope="session")
def t_unitary_sampler():
    return random_t_unitary
