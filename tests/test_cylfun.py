import warnings

import mpmath
import numpy as np
import pytest

from cylwave import cyl_f, cyl_f_prime
from cylwave.cylfun import KIND_H1, KIND_H2, KIND_J, KIND_Y, Tables
from cylwave.errors import AccuracyLoss, DomainError

mpmath.mp.dps = 40

_MP_FUN = {
    KIND_J: mpmath.besselj,
    KIND_Y: mpmath.bessely,
    KIND_H1: mpmath.hankel1,
    KIND_H2: mpmath.hankel2,
}

# (n, x) pairs chosen so all four kinds stay well inside double range
_ORACLE_POINTS = [
    (0, 1e-6), (1, 1e-6), (2, 1e-6),
    (0, 0.3), (1, 0.3), (5, 0.3),
    (0, 1.7), (2, 1.7), (10, 1.7),
    (0, 11.8), (5, 11.8), (25, 11.8),
    (0, 39.0), (10, 39.0), (60, 39.0),
    (0, 150.0), (25, 150.0), (60, 150.0),
    (0, 200.0), (10, 200.0), (60, 200.0),
    (0, 1 + 2j), (1, 1 + 2j), (5, 1 + 2j),
    (0, 0.5 - 3j), (2, 0.5 - 3j), (8, 0.5 - 3j),
    (0, 30 + 5j), (10, 30 + 5j), (40, 30 + 5j),
]


def _mp(kind, n, x):
    return complex(_MP_FUN[kind](n, mpmath.mpmathify(x)))


@pytest.mark.parametrize("kind", [KIND_J, KIND_Y, KIND_H1, KIND_H2])
def test_values_against_mpmath(kind):
    for n, x in _ORACLE_POINTS:
        ref = _mp(kind, n, x)
        got = cyl_f(kind, n, x)
        assert abs(got - ref) <= 1e-12 * abs(ref), (kind, n, x)


@pytest.mark.parametrize("kind", [KIND_J, KIND_Y, KIND_H1, KIND_H2])
def test_primes_against_mpmath(kind):
    for n, x in _ORACLE_POINTS:
        lo = _mp(kind, n - 1, x) if n > 0 else -_mp(kind, 1, x)
        ref = 0.5 * (lo - _mp(kind, n + 1, x))
        got = cyl_f_prime(kind, n, x)
        assert abs(got - ref) <= 1e-11 * max(abs(ref), 1e-30), (kind, n, x)


def test_j_at_zero():
    assert cyl_f(KIND_J, 0, 0.0) == 1.0
    assert cyl_f(KIND_J, 1, 0.0) == 0.0
    assert cyl_f(KIND_J, 7, 0.0) == 0.0


def test_j_prime_at_zero():
    assert cyl_f_prime(KIND_J, 0, 0.0) == 0.0
    assert cyl_f_prime(KIND_J, 1, 0.0) == 0.5
    assert cyl_f_prime(KIND_J, 2, 0.0) == 0.0


def test_first_j0_zero():
    assert abs(cyl_f(KIND_J, 0, 2.404825557695773)) < 1e-12


def test_j0_prime_is_minus_j1():
    for x in (0.4, 3.0, 17.5, 2 + 1j):
        assert cyl_f_prime(KIND_J, 0, x) == -cyl_f(KIND_J, 1, x)


def test_hankel_combinations():
    for n, x in [(0, 2.2), (3, 5.5), (1, 1 + 1j)]:
        j = cyl_f(KIND_J, n, x)
        y = cyl_f(KIND_Y, n, x)
        assert abs(cyl_f(KIND_H1, n, x) - (j + 1j * y)) < 1e-14 * abs(j + 1j * y)
        assert abs(cyl_f(KIND_H2, n, x) - (j - 1j * y)) < 1e-14 * abs(j - 1j * y)


def test_real_hankel_tables_against_mpmath():
    # at a real argument H1 and H2 are J + iY and J - iY, from the J table
    # and one yn call: on a log grid of the validated range they hold 1e-13
    # of |H|, and where Y passes double range its -inf stays in the
    # imaginary part
    ns = np.array([0, 1, 2, 3, 5, 8, 13, 21, 34, 60])
    xs = np.logspace(-6, np.log10(200.0), 18)
    table = Tables(np.tile(ns, len(xs)),
                   np.repeat(np.arange(len(xs)), len(ns)))
    j = table(KIND_J, xs)[0]
    h1, h2 = table(KIND_H1, xs)[0], table(KIND_H2, xs)[0]
    assert np.array_equal(h1.real, j.real) and not j.imag.any()
    assert np.array_equal(h2, np.conj(h1))
    past = 0
    for kind, got in ((KIND_H1, h1), (KIND_H2, h2)):
        for v, n, x in zip(got, table.n.tolist(), xs[table.f].tolist()):
            ref = _MP_FUN[kind](n, mpmath.mpf(x))
            if abs(ref) > np.finfo(float).max:
                past += 1
                assert v.imag == (-np.inf if kind == KIND_H1 else np.inf)
            else:
                assert abs(v - complex(ref)) <= 1e-13 * abs(ref), (kind, n, x)
    assert 0 < past < len(j)


def test_hankel_table_writes_only_its_own_notes():
    # an H1 request evaluates the J values of its argument but writes only
    # H1's notes; a later J request writes J's, each once
    table = Tables([61])

    def kinds():
        return [note.split(",")[0] for note in table.faults.notes[0]]
    table(KIND_H1, 10.0)
    assert kinds() == ["cyl_f(kind=3"]
    table(KIND_J, 10.0)
    table(KIND_H1, 10.0)
    table(KIND_J, 10.0)
    assert kinds() == ["cyl_f(kind=3", "cyl_f(kind=1"]


def test_wronskian():
    # J_n(x) Y_n'(x) - J_n'(x) Y_n(x) = 2 / (pi x)
    for x in (0.1, 1.0, 5.0, 30.0, 150.0):
        for n in range(0, 21):
            w = (cyl_f(KIND_J, n, x) * cyl_f_prime(KIND_Y, n, x)
                 - cyl_f_prime(KIND_J, n, x) * cyl_f(KIND_Y, n, x))
            ref = 2.0 / (np.pi * x)
            assert abs(w - ref) <= 1e-10 * abs(ref), (n, x)


@pytest.mark.parametrize("kind", [KIND_J, KIND_Y, KIND_H1, KIND_H2])
@pytest.mark.parametrize("x", [7.3, 2 + 1.5j])
def test_three_term_recurrence(kind, x):
    for n in range(1, 11):
        lhs = cyl_f(kind, n - 1, x) + cyl_f(kind, n + 1, x)
        rhs = 2 * n / x * cyl_f(kind, n, x)
        scale = max(abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale, (n, x)


def test_j_conjugate_reflection():
    for n, x in [(0, 1 + 2j), (4, 0.5 - 3j), (12, 30 + 5j)]:
        assert cyl_f(KIND_J, n, np.conj(x)) == pytest.approx(
            np.conj(cyl_f(KIND_J, n, x)), rel=1e-14)


def test_prime_matches_finite_difference():
    h = 1e-6
    for kind in (KIND_J, KIND_Y, KIND_H1, KIND_H2):
        fd = (cyl_f(kind, 2, 1.7 + h) - cyl_f(kind, 2, 1.7 - h)) / (2 * h)
        assert abs(cyl_f_prime(kind, 2, 1.7) - fd) < 1e-8


def test_singular_kinds_reject_origin():
    for kind in (KIND_Y, KIND_H1, KIND_H2):
        with pytest.raises(DomainError):
            cyl_f(kind, 0, 0.0)
        with pytest.raises(DomainError):
            cyl_f_prime(kind, 3, 0.0)


def test_bad_kind_and_order():
    with pytest.raises(ValueError):
        cyl_f(5, 0, 1.0)
    with pytest.raises(ValueError):
        cyl_f(KIND_J, -1, 1.0)


def test_accuracy_loss_warnings():
    with pytest.warns(AccuracyLoss):
        cyl_f(KIND_J, 61, 10.0)
    with pytest.warns(AccuracyLoss):
        cyl_f(KIND_J, 0, 250.0)
    with pytest.warns(AccuracyLoss):
        cyl_f_prime(KIND_Y, 0, 1e-7)


def test_no_warning_inside_validated_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cyl_f(KIND_J, 60, 200.0)
        cyl_f(KIND_Y, 0, 1e-6)
