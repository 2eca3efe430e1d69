from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cylwave as cw
from cylwave.errors import (DegenerateSpan, EntryFaults, MatricantOverflow,
                            PoleCrossing, ResonantInner, SingularMatrix,
                            StepTooLarge)
from cylwave import impedance, matricant
from cylwave.elastodyn import _q_sampler, _state_index
from cylwave.impedance import _adjugate, _gauge, _march, _mobius, _verdict

AL_CTX = cw.WaveContext(omega=5.0, n=0)


def _rand_hermitian(rng, m=3, scale=3.0):
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return scale * 0.5 * (x + x.conj().T)


def _exact_z(al_layer, ctx, r):
    return cw.ti_conditional_impedance(1, al_layer, ctx, r)


class _ZeroQ:
    support = (0.0, 10.0)

    def q_at(self, r, ctx):
        return np.zeros((6, 6))


class _Turn:
    support = (0.0, 1.0)
    w = np.pi / 0.1

    def q_at(self, r, ctx):
        d = np.diag([self.w, 1.0])
        return np.block([[np.zeros((2, 2)), d], [-d, np.zeros((2, 2))]])


class _Mixed(_Turn):
    """Order 0 grows as e^(2000 r), order 3 shears, the others turn."""

    support = (0.0, 2.0)

    def q_at(self, r, ctx):
        if ctx.n == 0:
            return np.diag([-1e3, -1e3, 1e3, 1e3])
        if ctx.n == 3:  # gauged, M = [[I, I/8], [0, I]] exactly
            d = np.array([1.0, 1j, 1j, 1.0])
            q = np.zeros((4, 4))
            q[:2, 2:] = 8.0 * np.eye(2)
            return d[:, None] * q * d.conj()
        return super().q_at(r, ctx)


# order 3 starts from w = diag(-1, 0); its first group of 8 steps has the
# product [[I, I], [0, I]] exactly, so den = 1 + w = 0 at the group's end
_MIXED_ENTRIES = ([cw.WaveContext(omega=1.0, n=n, m=2) for n in range(4)],
                  [1e140 * np.eye(2, dtype=complex),
                   np.zeros((2, 2), dtype=complex), np.diag([-0.3j, 0.0]),
                   np.diag([-1.0, 0.0]) * _gauge(2)[1]])
# h = 1/64 over 100 steps: three runs of 32 steps and a short one
_MIXED_STEPS = 100
_MIXED_SPAN = (0.4, 0.4 + _MIXED_STEPS / 64)


def _climbing_law(r):
    """A smooth law whose density climbs steeply past r = 0.7."""
    return cw.MaterialPoint(2.0 + r + 1e5 * max(r - 0.7, 0.0) ** 2,
                            cw.isotropic_stiffness(3.0, 1.0 + r))


_CLIMBING_CTXS = [cw.WaveContext(omega=w, n=n, kz=0.4)
                  for w, n in ((3.0, 0), (3.0, 2), (300.0, 1))]


class _GaugedTurn(_Turn):
    """The turn as the gauge sees it: D^-1 Q D is _Turn's real Q."""

    def q_at(self, r, ctx):
        d = np.array([1.0, 1j, 1j, 1.0])
        return d[:, None] * super().q_at(r, ctx) * d.conj()


# the powers of i the state (u_r, u_th, u_z, v_r, v_th, v_z) carries
_D6 = np.array([1.0, 1j, 1j, 1j, 1.0, 1.0])
_VOIGT_PAIRS = np.array([[0, 0], [1, 1], [2, 2], [1, 2], [0, 2], [0, 1]])
_TENSOR_TO_VOIGT = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])


def _rotated(c: np.ndarray, ax: float, ay: float) -> np.ndarray:
    """The stiffness table c of a material turned by ax about x, then by ay
    about y: all 21 moduli become nonzero."""
    rx = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(ax), -np.sin(ax)],
                   [0.0, np.sin(ax), np.cos(ax)]])
    ry = np.array([[np.cos(ay), 0.0, np.sin(ay)], [0.0, 1.0, 0.0],
                   [-np.sin(ay), 0.0, np.cos(ay)]])
    rot = rx @ ry
    v = _TENSOR_TO_VOIGT
    t = np.einsum("ia,jb,kc,ld,abcd->ijkl", rot, rot, rot, rot,
                  c[v[:, :, None, None], v[None, None]])
    i, j = _VOIGT_PAIRS.T
    return t[i[:, None], j[:, None], i, j]


_FIBRE = cw.ti_stiffness(6.6, 3.2, 2.8, 64.8, 3.2)


def _rotated_law(r):
    """A coating that blends from the fibre composite at r = 0.6 to 1.3
    times it turned off every axis, as in the benchmark's graded march."""
    s = np.sin(0.5 * np.pi * (r - 0.6) / 0.4) ** 2
    dc = 1.3 * _rotated(_FIBRE.c, 0.6, 0.4) - _FIBRE.c
    return cw.MaterialPoint(1.6 * (1.0 + 0.5 * s),
                            cw.StiffnessVoigt(_FIBRE.c + s * dc))


class TestRiccatiRhs:
    def test_zero_impedance(self, al_profile):
        q = cw.q_matrix(al_profile, AL_CTX, 0.7)
        got = cw.riccati_rhs(np.zeros((3, 3)), q)
        assert_allclose(got, 1j * q.q3, atol=0)

    def test_zero_system(self):
        rng = np.random.default_rng(3)
        z = _rand_hermitian(rng)
        assert_allclose(cw.riccati_rhs(z, np.zeros((6, 6))), 0, atol=0)

    def test_exact_solution_satisfies_ode(self, al_layer, al_profile):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.4)
        h = 1e-6
        for r in (0.55, 0.8, 0.97):
            zp = _exact_z(al_layer, ctx, r + h).z
            zm = _exact_z(al_layer, ctx, r - h).z
            fd = (zp - zm) / (2 * h)
            rhs = cw.riccati_rhs(_exact_z(al_layer, ctx, r),
                                 cw.q_matrix(al_profile, ctx, r))
            assert np.max(np.abs(fd - rhs)) <= 1e-6 * max(np.max(np.abs(rhs)), 1.0)

    def test_accepts_wrapped_and_bare(self, al_profile):
        q = cw.q_matrix(al_profile, AL_CTX, 0.7)
        z = np.eye(3, dtype=complex)
        wrapped = cw.ConditionalImpedance(z, 0.7)
        assert_allclose(cw.riccati_rhs(wrapped, q), cw.riccati_rhs(z, q.q),
                        atol=0)


class TestAdmittanceRhs:
    def test_zero_admittance(self, al_profile):
        q = cw.q_matrix(al_profile, AL_CTX, 0.7)
        assert_allclose(cw.admittance_rhs(np.zeros((3, 3)), q), -1j * q.q2,
                        atol=0)

    def test_zero_system(self):
        rng = np.random.default_rng(5)
        a = _rand_hermitian(rng)
        assert_allclose(cw.admittance_rhs(a, np.zeros((6, 6))), 0, atol=0)

    def test_chain_rule_against_riccati(self, al_profile):
        # a = z^-1 implies da/dr = -z^-1 (dz/dr) z^-1, entry for entry
        rng = np.random.default_rng(7)
        q = cw.q_matrix(al_profile, cw.WaveContext(omega=5.0, n=2, kz=0.3),
                        0.8)
        for _ in range(10):
            z = _rand_hermitian(rng) + 0.5j * np.eye(3)
            zinv = cw.mat_inverse(z)
            lhs = cw.admittance_rhs(zinv, q)
            rhs = -zinv @ cw.riccati_rhs(z, q) @ zinv
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))

    def test_wrapper_type(self, al_profile):
        q = cw.q_matrix(al_profile, AL_CTX, 0.7)
        a = cw.Admittance(np.eye(3, dtype=complex), 0.7)
        assert_allclose(cw.admittance_rhs(a, q),
                        cw.admittance_rhs(np.eye(3), q), atol=0)


class TestMobiusStep:
    def test_identity_matricant(self):
        rng = np.random.default_rng(11)
        z = cw.ConditionalImpedance(_rand_hermitian(rng), 0.6)
        out = cw.mobius_step(z, cw.Matricant.identity(6, 0.6))
        assert_allclose(out.z, z.z, atol=1e-15)
        assert out.r == 0.6
        assert out.events == ()

    def test_hermitian_preservation(self, t_unitary_sampler):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            m = cw.Matricant(t_unitary_sampler(rng), 0.5, 0.6)
            z = cw.ConditionalImpedance(_rand_hermitian(rng), 0.5)
            out = cw.mobius_step(z, m)
            worst = max(worst, cw.hermitian_residual(out.z))
        assert worst < 1e-10

    def test_group_property(self, t_unitary_sampler):
        rng = np.random.default_rng(17)
        ma = cw.Matricant(t_unitary_sampler(rng, spread=0.5), 0.5, 0.6)
        mb = cw.Matricant(t_unitary_sampler(rng, spread=0.5), 0.6, 0.7)
        z = cw.ConditionalImpedance(_rand_hermitian(rng), 0.5)
        two = cw.mobius_step(cw.mobius_step(z, ma), mb)
        one = cw.mobius_step(z, cw.Matricant(mb.m @ ma.m, 0.5, 0.7))
        assert np.max(np.abs(two.z - one.z)) < 1e-12 * np.max(np.abs(one.z))

    def test_pole_crossing_recorded_and_finite(self):
        m = np.eye(4, dtype=complex)
        m[1, 1] = 1e-18  # denominator M1 - i M2 z = M1 is near-singular
        step = cw.Matricant(m, 0.5, 0.55)
        z = cw.ConditionalImpedance(np.zeros((2, 2)), 0.5)
        out = cw.mobius_step(z, step)
        assert np.all(np.isfinite(out.z))
        assert len(out.events) == 1
        ev = out.events[0]
        assert isinstance(ev, PoleCrossing)
        assert ev.r == 0.55
        assert ev.cond > 1e14

    def test_events_accumulate(self):
        ev0 = PoleCrossing(0.4, 1e15)
        z = cw.ConditionalImpedance(np.zeros((2, 2)), 0.5, events=(ev0,))
        out = cw.mobius_step(z, cw.Matricant.identity(4, 0.5))
        assert out.events == (ev0,)


class TestMobiusKernel:
    """The closed-form kernel: w' = (num adj(den)) * (1 / det(den)) for the
    1x1, 2x2 and 3x3 denominators den = M1 + M2 w."""

    @staticmethod
    def _draw(rng, dtype, *shape):
        x = rng.standard_normal(shape)
        if dtype == np.complex128:
            x = x + 1j * rng.standard_normal(shape)
        return x.astype(dtype)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_matches_lapack_inverse(self, k, dtype, layout):
        rng = np.random.default_rng(100 * k + 7)
        m = np.eye(2 * k) + 0.3 * self._draw(rng, dtype, 6, 2 * k, 2 * k)
        w = 0.5 * self._draw(rng, dtype, 6, k, k)
        if layout == "strided":  # the same values through transposed views
            m = np.ascontiguousarray(m.swapaxes(-1, -2)).swapaxes(-1, -2)
            w = np.ascontiguousarray(w.swapaxes(-1, -2)).swapaxes(-1, -2)
            assert not m.flags.c_contiguous
            assert k == 1 or not w.flags.c_contiguous
        uv = m[..., :k] + m[..., k:] @ w
        inv = np.linalg.inv(uv[..., :k, :])
        with np.errstate(all="raise"):
            wnew, den, adj, det = _mobius(w, m)
            cond, singular = _verdict(wnew, den, adj, det)
        assert wnew.dtype == adj.dtype == det.dtype == dtype
        assert_allclose(wnew, uv[..., k:, :] @ inv, rtol=1e-12, atol=1e-13)
        assert_allclose(det, np.linalg.det(uv[..., :k, :]), rtol=1e-12)
        assert_allclose(adj, inv * det[:, None, None], rtol=1e-12,
                        atol=1e-13)
        assert_allclose(cond, np.linalg.cond(uv[..., :k, :], 1), rtol=1e-12)
        assert not singular.any()
        # the adjugate of a strided view is the one of its contiguous copy
        view = uv[..., :k, :]
        assert not view.flags.c_contiguous
        assert np.array_equal(_adjugate(view),
                              _adjugate(np.ascontiguousarray(view)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_singular_members_stay_apart(self, k, dtype):
        # member 1's M1 and M2 are zero, so den and its determinant are
        # exactly 0; member 2's w holds a NaN; members 0 and 3 must come out
        # as they do alone, bit for bit
        rng = np.random.default_rng(k)
        m = np.eye(2 * k) + 0.3 * self._draw(rng, dtype, 4, 2 * k, 2 * k)
        w = 0.5 * self._draw(rng, dtype, 4, k, k)
        m[1, :k] = 0.0
        w[2, 0, -1] = np.nan
        with np.errstate(all="ignore"):
            out = _mobius(w, m)
            cond, singular = _verdict(*out)
            assert out[3][1] == 0
            assert list(singular) == [False, True, True, False]
            for j in (0, 3):
                alone = _mobius(w[j], m[j])
                assert np.array_equal(out[0][j], alone[0])
                assert np.array_equal(cond[j], _verdict(*alone)[0])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gauge_pair_rounds_alike(self, k):
        # the real march's (w, D^-1 M D) and the complex chain's (-i z, M)
        # of the same state give the same w' and condition numbers, bit for
        # bit: every complex product pairs a real or imaginary entry with a
        # real or imaginary one
        rng = np.random.default_rng(31 + k)
        gauge, to_z = _gauge(k)
        mr = np.eye(2 * k) + 0.3 * rng.standard_normal((5, 2 * k, 2 * k))
        wr = rng.standard_normal((5, k, k))
        # member 0's den is w, near-singular
        wr[0] = np.ones((k, k)) + 1e-6 * np.eye(k)
        mr[0, :k, :k], mr[0, :k, k:] = 0.0, np.eye(k)
        with np.errstate(all="raise"):
            real = _mobius(wr, mr)
            cplx = _mobius(-1j * (wr * to_z), mr * gauge.conj())
            cond_r, cond_c = _verdict(*real)[0], _verdict(*cplx)[0]
        assert real[0].dtype == np.float64
        assert np.array_equal(cplx[0], -1j * (real[0] * to_z))
        assert np.array_equal(cond_r, cond_c)


class TestIntegrate:
    def test_single_step_is_mobius(self, al_profile, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1)
        z0 = _exact_z(al_layer, ctx, 0.7)
        a = cw.integrate_impedance(al_profile, ctx, z0, 0.7, 0.72, 1, "lp4")
        m = cw.matricant_step(al_profile, ctx, 0.7, 0.02, "lp4")
        b = cw.mobius_step(z0, m)
        assert_allclose(a.z, b.z, atol=0)

    def test_matches_exact_solution(self, al_profile, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=0)
        z0 = _exact_z(al_layer, ctx, 0.5)
        got = cw.integrate_impedance(al_profile, ctx, z0, 0.5, 1.0, 2000,
                                     "exp2a")
        want = _exact_z(al_layer, ctx, 1.0)
        err = np.max(np.abs(got.z - want.z)) / np.max(np.abs(want.z))
        assert err < 1e-6

    def test_halving_follows_scheme_order(self, al_profile, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=0)
        z0 = _exact_z(al_layer, ctx, 0.5)
        want = _exact_z(al_layer, ctx, 1.0).z

        def err(steps):
            z = cw.integrate_impedance(al_profile, ctx, z0, 0.5, 1.0, steps,
                                       "exp2a").z
            return np.max(np.abs(z - want))

        ratio = err(250) / err(500)
        assert 4 / 1.6 < ratio < 4 * 1.6  # second order: ~2^2 per halving

    def test_pole_transparency(self, al_profile, al_layer):
        # a traction-free pole sits inside this span at ka=10; the marched
        # impedance must not care how the step grid lands around it
        ctx = cw.WaveContext(omega=10.0, n=0, m=2)
        z0 = cw.ConditionalImpedance(_exact_z(al_layer, ctx, 0.5).z[:2, :2],
                                     0.5)

        def final(steps):
            prof_z0 = cw.ConditionalImpedance(z0.z, 0.5)
            return cw.integrate_impedance(al_profile, ctx, prof_z0, 0.5, 1.0,
                                          steps, "lp4").z

        za, zb = final(2000), final(2001)
        assert np.max(np.abs(za - zb)) <= 1e-6 * np.max(np.abs(za))

    def test_argument_validation(self, al_profile):
        z = cw.ConditionalImpedance(np.zeros((3, 3)), 1.0)
        with pytest.raises(ValueError):
            cw.integrate_impedance(al_profile, AL_CTX, z, 1.0, 0.5, 10, "lp4")
        # matricant._segments owns the step count: a float or a boolean is
        # refused like a count below 1, never a TypeError from range
        for steps in (0, 10.0, np.float64(10.0), "10", True):
            with pytest.raises(ValueError, match="steps must be >= 1"):
                cw.integrate_impedance(al_profile, AL_CTX, z, 0.5, 1.0, steps,
                                       "lp4")

    def test_events_survive_marching(self, al_profile):
        ev = PoleCrossing(0.4, 2e15)
        z0 = cw.ConditionalImpedance(np.zeros((3, 3), dtype=complex), 0.5,
                                     events=(ev,))
        out = cw.integrate_impedance(al_profile, AL_CTX, z0, 0.5, 0.6, 5,
                                     "exp2a")
        assert out.events[0] is ev


    def test_stacked_march_keeps_events_per_entry(self):
        # Q = [[0, W], [-W, 0]] turns each channel by w h per step, a
        # quarter turn per group of 8 steps; from z0 = 0 the first channel
        # meets a pole at the first group's end, r = 0.55, while the second
        # entry starts off the grid of quarter turns and never lands on one
        prof = _Turn()
        ctx = cw.WaveContext(omega=1.0, m=2)
        z0s = [np.zeros((2, 2), dtype=complex), np.diag([-0.3j, 0.0])]
        faults = EntryFaults(2)
        events = [[], []]
        for r, z, found in _march(prof, [ctx, ctx], z0s, 0.5, 0.6, 16,
                                  "exp2a", faults):
            for j, ev in found:
                events[j].append(ev)
        assert faults.ok.all() and z.shape == (2, 2, 2)
        alone = [cw.integrate_impedance(prof, ctx, z0, 0.5, 0.6, 16, "exp2a")
                 for z0 in z0s]
        # the groups onto and off the pole both have a near-singular
        # denominator
        assert [e.r for e in alone[0].events] == pytest.approx([0.55, 0.6])
        assert not alone[1].events
        for got, zj, want in zip(events, z, alone):
            assert [(e.r, e.cond) for e in got] \
                == [(e.r, e.cond) for e in want.events]
            assert_allclose(zj, want.z, rtol=1e-13, atol=0)
            assert r == want.r

    def test_failures_stay_per_entry(self):
        # order 0 trips the step guard and order 1 starts from a NaN z0, so
        # its first Moebius denominator is singular; order 2 crosses the
        # pole of the turn and must march exactly as it does alone; order 3
        # failed before the march, starts from z = 0 and steps by the
        # identity.  Every entry stays on the stack; the failed ones keep
        # their first error and record no crossing
        class _PerOrder(_Turn):
            def q_at(self, r, ctx):
                return 1e6 * np.eye(4) if ctx.n == 0 else super().q_at(r, ctx)

        prof = _PerOrder()
        ctxs = [cw.WaveContext(omega=1.0, n=n, m=2) for n in range(4)]
        z0s = [np.zeros((2, 2), dtype=complex),
               np.full((2, 2), np.nan, dtype=complex),
               np.zeros((2, 2), dtype=complex),
               np.zeros((2, 2), dtype=complex)]
        faults = EntryFaults(4)
        inner = ResonantInner("failed before the march")
        faults.errors[3] = inner
        events, shapes = [[], [], [], []], set()
        for r, z, found in _march(prof, ctxs, z0s, 0.5, 0.6, 16, "exp2a",
                                  faults):
            shapes.add(z.shape)
            for j, ev in found:
                events[j].append(ev)
        assert isinstance(faults.errors[0], StepTooLarge)
        assert isinstance(faults.errors[1], SingularMatrix)
        assert faults.errors[2] is None and faults.errors[3] is inner
        assert shapes == {(4, 2, 2)} and not z[3].any()
        alone = cw.integrate_impedance(prof, ctxs[2], z0s[2], 0.5, 0.6, 16,
                                       "exp2a")
        assert len(alone.events) == 2
        assert [(e.r, e.cond) for e in events[2]] \
            == [(e.r, e.cond) for e in alone.events]
        assert not (events[0] or events[1] or events[3])
        assert np.array_equal(z[2], alone.z) and r == alone.r

    @pytest.mark.parametrize("scheme", cw.SCHEME_NAMES)
    def test_non_finite_q_trips_the_guard(self, scheme):
        # order 1's Q is NaN past r = 0.7: the step guard gives it the norm
        # inf, so it fails with its own StepTooLarge instead of a matrix
        # exponential of non-finite input or a singular denominator, and
        # the others march as they do alone
        class _Holed(_Turn):
            def q_at(self, r, ctx):
                q = super().q_at(r, ctx)
                return q * np.nan if ctx.n == 1 and r > 0.7 else q

        prof = _Holed()
        ctxs = [cw.WaveContext(omega=1.0, n=n, m=2) for n in range(3)]
        z0s = [np.zeros((2, 2), dtype=complex)] * 3
        faults = EntryFaults(3)
        for r, z, _ in _march(prof, ctxs, z0s, 0.5, 1.0, 40, scheme, faults):
            pass
        assert isinstance(faults.errors[1], StepTooLarge)
        assert "= inf exceeds 20" in str(faults.errors[1])
        assert faults.ok[[0, 2]].all()
        for j in (0, 2):
            alone = cw.integrate_impedance(prof, ctxs[j], z0s[j], 0.5, 1.0,
                                           40, scheme)
            assert np.array_equal(z[j], alone.z) and r == alone.r


    def test_guard_trips_mid_span(self, monkeypatch, block_budgets):
        # in blocks of one run, 32 steps, order 0 passes the step guard
        # over the first, [0.5, 0.55], and trips it in the second; at the
        # default budget the 64 steps are one block.  Order 1 crosses the
        # pole of the turn, order 2 does not, and both must march as they
        # do alone
        class _LateTrip(_Turn):
            def q_at(self, r, ctx):
                q = super().q_at(r, ctx)
                return 1e6 * q if ctx.n == 0 and r > 0.55 else q

        built = []
        sampler = matricant._q_sampler
        monkeypatch.setattr(matricant, "_q_sampler", lambda prof, ctxs, g: (
            built.append(len(ctxs)) or sampler(prof, ctxs, g)))
        prof = _LateTrip()
        ctxs = [cw.WaveContext(omega=1.0, n=n, m=2) for n in range(3)]
        z0s = [np.zeros((2, 2), dtype=complex)] * 2 + [np.diag([-0.3j, 0.0])]
        for lengths, blocks in zip(block_budgets, ([32, 32], [64])):
            built.clear()
            faults = EntryFaults(3)
            shapes, events = [], [[], [], []]
            for r, z, found in _march(prof, ctxs, z0s, 0.5, 0.6, 64,
                                      "exp2a", faults):
                shapes.append(z.shape)
                for j, ev in found:
                    events[j].append(ev)
            assert lengths == blocks
            assert isinstance(faults.errors[0], StepTooLarge)
            assert shapes == [(3, 2, 2)] * 8
            assert built == [3]
            for j in (1, 2):
                alone = cw.integrate_impedance(prof, ctxs[j], z0s[j], 0.5,
                                               0.6, 64, "exp2a")
                assert np.array_equal(z[j], alone.z) and r == alone.r
                assert [(e.r, e.cond) for e in events[j]] \
                    == [(e.r, e.cond) for e in alone.events]
            assert len(events[1]) == 2 and not events[2]
            with pytest.raises(StepTooLarge) as err:
                cw.matricant_global(prof, ctxs[0], 0.5, 0.6, 64, "exp2a")
            assert str(err.value) == str(faults.errors[0])

    def test_guard_trips_in_first_block(self, monkeypatch, block_budgets):
        # order 0 trips the step guard in the first block: of two, (32,
        # 18), in blocks of one run, and of one at the default budget.  The
        # sampler is still built once, order 0 then steps by the identity
        # from the z it had before that block, and the others march as they
        # do alone
        class _EarlyTrip(_Turn):
            def q_at(self, r, ctx):
                q = super().q_at(r, ctx)
                return 1e6 * q if ctx.n == 0 and r > 0.53 else q

        built = []
        sampler = matricant._q_sampler
        monkeypatch.setattr(matricant, "_q_sampler", lambda prof, ctxs, g: (
            built.append(len(ctxs)) or sampler(prof, ctxs, g)))
        prof = _EarlyTrip()
        ctxs = [cw.WaveContext(omega=1.0, n=n, m=2) for n in range(3)]
        z0s = [np.diag([0.1j, 0.0])] * 2 + [np.diag([-0.3j, 0.0])]
        for lengths, blocks in zip(block_budgets, ([32, 18], [50])):
            built.clear()
            faults = EntryFaults(3)
            zs, events = [], [[], [], []]
            for r, z, found in _march(prof, ctxs, z0s, 0.5, 0.75, 50,
                                      "exp2a", faults):
                zs.append(z)
                for j, ev in found:
                    events[j].append(ev)
            assert lengths == blocks
            assert isinstance(faults.errors[0], StepTooLarge)
            assert built == [3]
            assert [zk.shape for zk in zs] == [(3, 2, 2)] * 7
            assert all(np.array_equal(zk[0], z0s[0]) for zk in zs)
            assert not events[0]
            for j in (1, 2):
                alone = cw.integrate_impedance(prof, ctxs[j], z0s[j], 0.5,
                                               0.75, 50, "exp2a")
                assert np.array_equal(z[j], alone.z) and r == alone.r
                assert [(e.r, e.cond) for e in events[j]] \
                    == [(e.r, e.cond) for e in alone.events]

    def test_failures_mid_block(self, block_budgets):
        # h = 1/64.  Order 0's w grows by e^31.25 per step from 1e140, far
        # past the growth cap per group, so it takes its steps one at a
        # time; it overflows to inf at step 13, the fifth of group 2 (mid-
        # block in the first of four blocks of one run and in the one
        # block of the default budget), while its denominator stays
        # finite, and fails there.  Order 3's first channel meets an exact
        # pole at the end of group 1, where det(den) = 0 and the condition
        # number is inf; it fails and records no PoleCrossing.  Orders 1
        # and 2 march the turn, order 1 across its poles, and must give
        # what they give alone
        prof = _Mixed()
        ctxs, z0s = _MIXED_ENTRIES
        span, steps = _MIXED_SPAN, _MIXED_STEPS
        for lengths, blocks in zip(block_budgets,
                                   ([32, 32, 32, 4], [steps])):
            faults = EntryFaults(4)
            events, zs = [[], [], [], []], []
            for r, z, found in _march(prof, ctxs, z0s, *span, steps,
                                      "exp2a", faults):
                zs.append(z)
                for j, ev in found:
                    events[j].append(ev)
            assert lengths == blocks
            assert isinstance(faults.errors[0], SingularMatrix)
            assert isinstance(faults.errors[3], SingularMatrix)
            assert [zk.shape for zk in zs] == [(4, 2, 2)] * 13
            assert np.isfinite(zs[0][:3]).all()
            assert np.abs(zs[0][0]).max() > 1e248
            assert not np.isfinite(zs[1][0]).all()
            assert not np.isfinite(zs[0][3]).all()
            for j in (1, 2):
                alone = cw.integrate_impedance(prof, ctxs[j], z0s[j], *span,
                                               steps, "exp2a")
                assert np.array_equal(z[j], alone.z) and r == alone.r
                assert [(e.r, e.cond) for e in events[j]] \
                    == [(e.r, e.cond) for e in alone.events]
            assert events[1] and not (events[0] or events[2] or events[3])

    def test_yields_survive_later_steps(self, block_budgets):
        # two blocks of steps (32, 18) in blocks of one run, one at the
        # default budget, and no failure: what each group yields must not
        # be a buffer that a later group or block writes over
        ctxs = [cw.WaveContext(omega=1.0, n=n, m=2) for n in range(3)]
        z0s = [np.zeros((2, 2), dtype=complex), np.diag([-0.3j, 0.0]),
               np.diag([0.2j, -0.1j])]
        for lengths, blocks in zip(block_budgets, ([32, 18], [50])):
            faults = EntryFaults(3)
            kept, copies = [], []
            for r, z, _ in _march(_Turn(), ctxs, z0s, 0.5, 0.75, 50,
                                  "exp2a", faults):
                kept.append((r, z))
                copies.append((r, z.copy()))
            assert lengths == blocks
            assert faults.ok.all() and len(kept) == 7
            for (r, z), (r_c, z_c) in zip(kept, copies):
                assert type(r) is float and r == r_c
                assert z.shape == (3, 2, 2) and np.array_equal(z, z_c)
            # integrate_impedance keeps its own z, not a view of a block
            out = cw.integrate_impedance(_Turn(), ctxs[1], z0s[1], 0.5, 0.75,
                                         50, "exp2a")
            assert out.z.base is None
            assert np.array_equal(out.z, kept[-1][1][1])

    def test_smooth_law_called_once_per_sample_radius(self):
        # a stacked march samples a smooth law once per radius, however many
        # contexts share the stack
        radii = []

        def law(r):
            radii.append(r)
            return cw.MaterialPoint(2.0 + r, cw.isotropic_stiffness(3.0, 1.0 + r))

        prof = cw.RadialProfile.smooth(law, 0.5, 1.0)
        ctxs = [cw.WaveContext(omega=3.0, n=n, kz=0.4) for n in range(3)]
        z0s = [cw.ti_conditional_impedance(1, law(0.5), ctx, 0.5).z
               for ctx in ctxs]
        radii.clear()
        faults = EntryFaults(3)
        steps = 25
        for r, z, _ in _march(prof, ctxs, z0s, 0.5, 1.0, steps, "mg4",
                              faults):
            pass
        assert faults.ok.all() and z.shape == (3, 3, 3) and r == 1.0
        assert len(radii) == 2 * steps


    def test_guard_trip_keeps_the_block_samples(self, block_budgets):
        # the third order trips the step guard where the density climbs, in
        # block 2 of blocks of one run and in the one block of the default
        # budget; the others step on with the block's samples, so the law is
        # still called once per sample radius, and march as they do alone
        radii = []
        prof = cw.RadialProfile.smooth(
            lambda r: radii.append(r) or _climbing_law(r), 0.5, 1.0)
        ctxs = _CLIMBING_CTXS
        z0s = [cw.ti_conditional_impedance(1, _climbing_law(0.5), ctx, 0.5).z
               for ctx in ctxs]
        steps = 100
        for lengths, blocks in zip(block_budgets, ([32, 32, 32, 4], [100])):
            radii.clear()
            faults = EntryFaults(3)
            shapes = []
            for r, z, _ in _march(prof, ctxs, z0s, 0.5, 1.0, steps, "mg4",
                                  faults):
                shapes.append(z.shape)
            assert lengths == blocks
            assert len(radii) == 2 * steps
            assert isinstance(faults.errors[2], StepTooLarge)
            assert faults.ok[:2].all()
            assert shapes == [(3, 3, 3)] * 13
            for j in (0, 1):
                alone = cw.integrate_impedance(prof, ctxs[j], z0s[j], 0.5,
                                               1.0, steps, "mg4")
                assert np.array_equal(z[j], alone.z) and r == alone.r

    def test_march_keeps_the_callers_errstate(self):
        # test_failures_stay_per_entry's march, consumed under
        # errstate(all="raise"): the march's own errstate must not leak into
        # the loop body, and the faults must be the same
        class _PerOrder(_Turn):
            def q_at(self, r, ctx):
                return 1e6 * np.eye(4) if ctx.n == 0 else super().q_at(r, ctx)

        prof = _PerOrder()
        ctxs = [cw.WaveContext(omega=1.0, n=n, m=2) for n in range(3)]
        z0s = [np.zeros((2, 2), dtype=complex),
               np.full((2, 2), np.nan, dtype=complex),
               np.zeros((2, 2), dtype=complex)]
        faults = EntryFaults(3)
        yields = 0
        with np.errstate(all="raise"):
            outer = np.geterr()
            for r, z, found in _march(prof, ctxs, z0s, 0.5, 0.6, 16,
                                      "exp2a", faults):
                assert np.geterr() == outer
                yields += 1
        assert isinstance(faults.errors[0], StepTooLarge)
        assert isinstance(faults.errors[1], SingularMatrix)
        assert faults.errors[2] is None and z.shape == (3, 2, 2)
        alone = cw.integrate_impedance(prof, ctxs[2], z0s[2], 0.5, 0.6, 16,
                                       "exp2a")
        assert yields == 2 and np.array_equal(z[2], alone.z)
        assert r == alone.r


def test_outputs_do_not_depend_on_block_length(al, al_layer, block_budgets):
    # every output is the same bit for bit in blocks of one run and at the
    # default budget: each march's radii, crossings, error texts and the z
    # of the entries that end ok (a failed entry's rows mean nothing), the
    # aluminium B_n and a global matricant with its overflow radius.  Each
    # march and product spans more than one run
    def march(prof, ctxs, z0s, span, steps, scheme):
        faults = EntryFaults(len(ctxs))
        out = [(r, z.copy(), [(j, ev.r, ev.cond) for j, ev in found])
               for r, z, found in _march(prof, ctxs, z0s, *span, steps,
                                         scheme, faults)]
        return ([(r, z[faults.ok].tobytes(), found) for r, z, found in out],
                [str(e) for e in faults.errors])

    turn_z0s = [np.zeros((2, 2), dtype=complex), np.diag([-0.3j, 0.0]),
                np.diag([0.2j, -0.1j])]
    climbing = cw.RadialProfile.smooth(_climbing_law, 0.5, 1.0)
    steel = cw.MaterialPoint(7.85, cw.isotropic_stiffness(54.4, 37.0))
    two = cw.RadialProfile.piecewise([(0.5, 0.75, al), (0.75, 1.0, steel)])
    outs, blocks = [], []
    for lengths in block_budgets:
        out = [
            march(_Turn(), [cw.WaveContext(omega=1.0, n=n, m=2)
                            for n in range(3)], turn_z0s, (0.5, 0.75), 50,
                  "exp2a"),
            march(_Mixed(), *_MIXED_ENTRIES, _MIXED_SPAN, _MIXED_STEPS,
                  "exp2a"),
            march(climbing, _CLIMBING_CTXS,
                  [cw.ti_conditional_impedance(1, _climbing_law(0.5), ctx,
                                               0.5).z
                   for ctx in _CLIMBING_CTXS], (0.5, 1.0), 100, "mg4")]
        for ka in (1.0, 2.5, 5.0):
            out.append(np.array(cw.solve_scattering(cw.ScatteringConfig(
                (al_layer,), ka=ka, scheme="lp4")).b).tobytes())
        with pytest.warns(MatricantOverflow) as seen:
            m = cw.matricant_global(two, cw.WaveContext(omega=10.0, n=30),
                                    0.5, 1.0, 73, "lp4")
        out.append((m.m.tobytes(), [str(w.message) for w in seen]))
        outs.append(out)
        blocks.append(list(lengths))
    assert blocks[0] != blocks[1]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("scheme", ["lp4", "mg4", "exp2a"])
def test_entry_march_does_not_depend_on_its_stack(al, al_layer, scheme,
                                                  monkeypatch, block_budgets):
    # every entry's march, group end by group end, is the same bit for bit
    # on any stack that holds it, which the (frequency, order) stacks of a
    # solve rely on.  Under the default sample budget the subsets march in
    # blocks of other lengths than the whole stack, so this covers block
    # length too: 161 entries cut lp4's layers of 100 steps, whose
    # propagators come from the terms, into blocks of 96 and 4 steps, and
    # mg4 and exp2a, which sample Q at every node, into blocks of one run,
    # while each subset, the last 32 entries among them, takes longer
    # blocks.  The higher orders' group products pass the growth cap, so
    # some (group, entry) pairs take their steps one at a time and the
    # others share the fused update
    replayed = []
    stepwise = impedance._stepwise
    monkeypatch.setattr(impedance, "_stepwise", lambda w, mats: (
        replayed.append(len(w)) or stepwise(w, mats)))
    steel = cw.MaterialPoint(7.85, cw.isotropic_stiffness(54.4, 37.0))
    two = cw.RadialProfile.piecewise([(0.5, 0.75, al), (0.75, 1.0, steel)])
    ctxs = [cw.WaveContext(omega=w, n=n, m=2)
            for w in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0) for n in range(23)]
    z0s = [cw.ti_conditional_impedance(
        1, al_layer, cw.WaveContext(omega=c.omega, n=c.n, m=3), 0.5).z[:2, :2]
        for c in ctxs]

    def march(idx, lengths):
        lengths.clear()
        replayed.clear()
        faults = EntryFaults(len(idx))
        out = [(r, z.copy(), [(idx[j], ev.r, ev.cond) for j, ev in found])
               for r, z, found in _march(two, [ctxs[i] for i in idx],
                                         [z0s[i] for i in idx], 0.5, 1.0,
                                         200, scheme, faults)]
        return out, [str(e) for e in faults.errors], list(lengths)

    every = list(range(len(ctxs)))
    for lengths in block_budgets:
        whole, errors, whole_blocks = march(every, lengths)
        # each layer's 100 steps are 12 groups of 8 and one of 4
        assert len(ctxs) == 161 and len(whole) == 26
        assert 0 < sum(replayed) < 26 * 161
        long = scheme == "lp4" and matricant._BLOCK_SAMPLES > 0
        assert whole_blocks == ([96, 4] if long else [32, 32, 32, 4]) * 2
        for idx in (every[:10], every[129:], [17], every[::7]):
            part, part_errors, blocks = march(idx, lengths)
            assert (blocks != whole_blocks) == (matricant._BLOCK_SAMPLES > 0)
            assert part_errors == [errors[i] for i in idx]
            for (r, z, found), (rw, zw, foundw) in zip(part, whole):
                assert r == rw
                assert np.array_equal(z, zw[idx])
                assert found == [ev for ev in foundw if ev[0] in idx]


@pytest.mark.parametrize("m, kz", [(2, 0.0), (3, 0.9)])
def test_term_proof_changes_no_verdict(al, m, kz, monkeypatch,
                                       block_budgets):
    # a piecewise march guards only the entries that its layer's term
    # bound does not prove below the guard's 20 over the block; without
    # the proof the guard sees every entry.  Both must give the same
    # errors, texts, crossings and z bit for bit.  At 200 steps omega =
    # 10000 trips the guard in the soft outer layer, mid-span, and omega =
    # 50000 in the aluminium one, at once
    soft = cw.MaterialPoint(7.85, cw.isotropic_stiffness(5.44, 3.7))
    two = cw.RadialProfile.piecewise([(0.5, 0.75, al), (0.75, 1.0, soft)])
    omegas = (2.0, 20.0, 10000.0, 50000.0)
    ctxs = [cw.WaveContext(omega=w, n=n, kz=kz, m=m)
            for w in omegas for n in range(0, 41, 10)]
    z0s = [np.zeros((m, m))] * len(ctxs)
    sampler, guard = matricant._q_sampler, matricant._guard
    seen = []
    monkeypatch.setattr(matricant, "_guard", lambda h, q: (
        seen.append(q[..., 0, 0].size) or guard(h, q)))

    def unproven(prof, ctxs, g):
        sample = sampler(prof, ctxs, g)
        del sample.bound
        return sample

    def march():
        seen.clear()
        faults = EntryFaults(len(ctxs))
        out = [(r, z.tobytes(), [(j, ev.r, ev.cond) for j, ev in found])
               for r, z, found in _march(two, ctxs, z0s, 0.5, 1.0, 200,
                                         "lp4", faults)]
        return out, [str(e) for e in faults.errors], list(seen)

    for _ in block_budgets:
        proven = march()
        with monkeypatch.context() as patch:
            patch.setattr(matricant, "_q_sampler", unproven)
            every = march()
        assert proven[:2] == every[:2]
        assert {ctxs[j].omega for j, e in enumerate(proven[1]) if e != "None"
                } == {10000.0, 50000.0}
        assert "exceeds 20" in proven[1][-1]
        # the omega = 10000 entries march the aluminium layer, 100 steps in
        # 13 groups
        mid = np.frombuffer(proven[0][12][1], dtype=complex)
        assert proven[0][12][0] == 0.75
        assert mid.reshape(len(ctxs), -1)[10:15].any(axis=1).all()
        # the proof spares some of the entries that the guard still checks
        # without it, and the guard still sees some
        assert sum(proven[2]) < sum(every[2]) and sum(proven[2]) > 0


def _all_steps(monkeypatch):
    """Make every group one step and every run one group: the march of one
    Moebius update per step."""
    monkeypatch.setattr(matricant, "_GROUP_STEPS", 1)
    monkeypatch.setattr(matricant, "_RUN_GROUPS", 1)
    monkeypatch.setattr(impedance, "_GROUP_STEPS", 1)
    monkeypatch.setattr(impedance, "_RUN_GROUPS", 1)


def test_capped_groups_replay_their_steps(monkeypatch):
    # with a growth cap of 0 every (group, entry) pair takes its steps one
    # at a time: z at each group end is the all-step march's bit for bit,
    # and a group's crossing is its steps' largest condition number at the
    # group's end, here onto and off each pole of the turn
    ctxs = [cw.WaveContext(omega=1.0, n=n, m=2) for n in range(3)]
    z0s = [np.zeros((2, 2), dtype=complex), np.diag([-0.3j, 0.0]),
           np.diag([0.2j, -0.1j])]

    def march():
        faults = EntryFaults(3)
        out = [(r, z.copy(), [(j, ev.r, ev.cond) for j, ev in found])
               for r, z, found in _march(_Turn(), ctxs, z0s, 0.5, 0.75, 25,
                                         "exp2a", faults)]
        assert faults.ok.all()
        return out

    with monkeypatch.context() as patch:
        patch.setattr(impedance, "_GROWTH_CAP", 0.0)
        grouped = march()
    with monkeypatch.context() as patch:
        _all_steps(patch)
        steps = march()
    assert len(grouped) == 4 and len(steps) == 25
    for (r, z, found), k in zip(grouped, (7, 15, 23, 24)):
        assert r == steps[k][0] and np.array_equal(z, steps[k][1])
        first = 8 * (k // 8)
        want = {}
        for _, _, events in steps[first:k + 1]:
            for j, _, cond in events:
                want[j] = max(want.get(j, 0.0), cond)
        assert found == [(j, r, cond) for j, cond in sorted(want.items())]
    assert any(found for _, _, found in grouped)


@pytest.mark.parametrize("omega, n, steps", [(25.0, 40, 200), (5.0, 30, 60)])
def test_growth_cap_keeps_the_all_step_accuracy(al_profile, al_layer, omega,
                                                n, steps, monkeypatch):
    # few steps at a high order: every group product of the solid
    # cylinder's march passes the growth cap, and z(1) stays as close to
    # the closed form as the march of one update per step
    replayed = []
    stepwise = impedance._stepwise
    monkeypatch.setattr(impedance, "_stepwise", lambda w, mats: (
        replayed.append(len(mats)) or stepwise(w, mats)))
    ctx3 = cw.WaveContext(omega=omega, n=n, m=3)
    ctx = cw.WaveContext(omega=omega, n=n, m=2)
    z0 = _exact_z(al_layer, ctx3, 0.5).z[:2, :2]
    want = _exact_z(al_layer, ctx3, 1.0).z[:2, :2]

    def error():
        z = cw.integrate_impedance(al_profile, ctx, z0, 0.5, 1.0, steps,
                                   "lp4").z
        return np.abs(z - want).max() / np.abs(want).max()

    grouped = error()
    assert sum(replayed) == steps
    _all_steps(monkeypatch)
    assert grouped <= 2 * error()


def _counted_updates(monkeypatch):
    """Count the march's Moebius calls: {"run": updates of a run's prefix
    products, "group": a group's own update, "steps": groups taken step by
    step, "verdict": a block's pole test, every group's own update from the
    w before it}, leaving out the calls that _stepwise makes."""
    counts, inside = dict.fromkeys(("run", "group", "steps", "verdict"), 0), []
    mobius, stepwise = impedance._mobius, impedance._stepwise

    def counted_mobius(w, m):
        if w.ndim == 4:
            counts["verdict"] += 1
        elif not inside:
            counts["run" if m.ndim == 4 else "group"] += 1
        return mobius(w, m)

    def counted_stepwise(w, mats):
        counts["steps"] += 1
        inside.append(1)
        try:
            return stepwise(w, mats)
        finally:
            inside.pop()

    monkeypatch.setattr(impedance, "_mobius", counted_mobius)
    monkeypatch.setattr(impedance, "_stepwise", counted_stepwise)
    return counts


@pytest.mark.parametrize("case", ["mixed", "two-layer"])
def test_outputs_do_not_depend_on_run_blocks(al, al_layer, case,
                                             monkeypatch):
    # in blocks of 32, 64 and 96 steps, one to three runs of 4 groups of 8
    # steps, every entry's crossings and error texts, and the z of every
    # entry that ends ok, are those of the one-block march bit for bit,
    # and every block but a piece's last holds whole runs.  _Mixed's 100
    # steps hold crossings and two singular denominators; on the two
    # layers at 200 steps the highest orders' prefix products pass the
    # growth cap inside runs, some of their groups steps one at a time,
    # and omega = 10000 trips the step guard in the soft outer layer
    if case == "mixed":
        prof, (ctxs, z0s), span, steps, scheme = (
            _Mixed(), _MIXED_ENTRIES, _MIXED_SPAN, _MIXED_STEPS, "exp2a")
        # exp2a samples Q at one node: a block of k steps holds k x 4
        # samples
        sizes = {32: [32, 32, 32, 4], 64: [64, 36], 96: [96, 4],
                 None: [100]}
        per_step = len(ctxs)
    else:
        soft = cw.MaterialPoint(7.85, cw.isotropic_stiffness(5.44, 3.7))
        prof = cw.RadialProfile.piecewise([(0.5, 0.75, al),
                                           (0.75, 1.0, soft)])
        ctxs = [cw.WaveContext(omega=8.0, n=n, m=2) for n in range(0, 41, 5)]
        ctxs.append(cw.WaveContext(omega=10000.0, n=0, m=2))
        z0s = [np.zeros((2, 2))] * len(ctxs)
        span, steps, scheme = (0.5, 1.0), 200, "lp4"
        # lp4 forms its steps from the layer terms: a block of k steps
        # holds k x 10 propagators, and a budget b allows 4 b of them
        sizes = {32: [32, 32, 32, 4], 64: [64, 36], 96: [96, 4],
                 None: [100]}
        sizes = {k: v * 2 for k, v in sizes.items()}
        per_step = len(ctxs) / 4
    lengths = []
    stepper = impedance._blocks

    def counted(*args, **kwargs):
        for radii, mats in stepper(*args, **kwargs):
            lengths.append(len(radii))
            yield radii, mats

    monkeypatch.setattr(impedance, "_blocks", counted)
    counts = _counted_updates(monkeypatch)

    def march(size):
        lengths.clear()
        for key in counts:
            counts[key] = 0
        with monkeypatch.context() as patch:
            if size is not None:
                patch.setattr(matricant, "_BLOCK_SAMPLES",
                              int(size * per_step))
            faults = EntryFaults(len(ctxs))
            out = [(r, z.copy(), [(j, ev.r, ev.cond) for j, ev in found])
                   for r, z, found in _march(prof, ctxs, z0s, *span, steps,
                                             scheme, faults)]
        assert lengths == sizes[size]
        blocks = iter(lengths)
        run = matricant._GROUP_STEPS * matricant._RUN_GROUPS
        for *_, n, _ in matricant._segments(prof, span[0], span[1] - span[0],
                                            steps):
            piece = [next(blocks)]
            while sum(piece) < n:
                piece.append(next(blocks))
            assert all(k % run == 0 for k in piece[:-1])
        return ([(r, z[faults.ok].tobytes(), found) for r, z, found in out],
                [str(e) for e in faults.errors], dict(counts))

    whole, errors, seen = march(None)
    if case == "mixed":
        assert sum(map(len, (found for _, _, found in whole))) > 0
        assert [e.split(" ")[0] for e in errors] == [
            "Moebius", "None", "None", "Moebius"]
    else:
        assert "exceeds 20" in errors[-1] and errors[:-1] == ["None"] * 9
        assert seen["group"] > 0 and seen["steps"] > 0
    for size in (32, 64, 96):
        assert march(size)[:2] == (whole, errors)


class _Growing(_Turn):
    """Order 0 grows as e^(24 r) in both channels up to r = 0.675 and then
    decays as e^(-24 r): on h = 1/64 from r = 0.3 a group's product is
    diag(e^-3, e^-3, e^3, e^3) for the first three groups, its inverse
    after, to round-off."""

    def q_at(self, r, ctx):
        if ctx.n == 0:
            return np.diag([-24.0, -24.0, 24.0, 24.0]) * np.sign(0.675 - r)
        return super().q_at(r, ctx)


def test_run_falls_back_where_its_prefix_passes_the_cap(monkeypatch):
    # 40 steps of h = 1/64 are 5 groups, a run of 4 and one of 1.  Order
    # 0's prefix products have 1-norms of about e^3, e^6, e^9 and e^6: the
    # run's third passes the growth cap, so the run's update gives its
    # first two group ends, and from the third on, the fourth too though
    # its prefix is back within the cap, it takes one update per group from
    # the w before.  Order 1, which turns, takes the run's update at every
    # group end, and the second run starts afresh from the run's update.
    # The calls are the first run's, two group updates of order 0 and the
    # second run's
    ctxs = [cw.WaveContext(omega=1.0, n=n, m=2) for n in range(2)]
    z0s = [np.diag([0.1j, -0.2j]), np.diag([-0.3j, 0.0])]
    span = (0.3, 0.3 + 40 / 64)
    blocks = []
    stepper = impedance._blocks

    def kept(*args, **kwargs):
        for radii, mats in stepper(*args, **kwargs):
            blocks.append(mats)
            yield radii, mats

    monkeypatch.setattr(impedance, "_blocks", kept)
    calls = []
    mobius = impedance._mobius
    monkeypatch.setattr(impedance, "_mobius", lambda w, m: (
        calls.append((len(w), m.shape[:-2])) or mobius(w, m)))
    faults = EntryFaults(2)
    got = [z.copy() for _, z, _ in _march(_Growing(), ctxs, z0s, *span, 40,
                                          "exp2a", faults)]
    assert faults.ok.all() and len(blocks) == 1 and len(got) == 5
    assert calls == [(2, (4, 2)), (1, (1,)), (1, (1,)), (2, (1, 2)),
                     (5, (5, 2))]
    prods = impedance._fused(blocks[0])
    prefix = [prods[0]]
    for p in prods[1:4]:
        prefix.append(p @ prefix[-1])
    norms = impedance._norm1(np.array(prefix))[:, 0]
    assert (norms < impedance._GROWTH_CAP).tolist() == [True, True, False,
                                                        True]
    _, to_z = _gauge(2)
    w0 = np.array(z0s) * to_z.conj()
    want = [mobius(w0, c)[0] for c in prefix]
    w = want[1][:1]
    for k in (2, 3):
        w = mobius(w, prods[k, :1])[0]
        want[k][0] = w[0]
    want.append(mobius(want[3], prods[4])[0])
    for zk, wk in zip(got, want):
        assert np.array_equal(zk, wk * to_z)


def test_crossing_reads_its_groups_own_update(monkeypatch):
    # the turn meets a pole at every quarter turn, one per group of 8
    # steps of h = 1/160, and so at every group end of both runs of the
    # 64 steps from z0 = 0.  Each group end's crossing, in a run or at its
    # start, is the condition number of the group's own update from the w
    # of the group end before, bit for bit, not that of the run's update
    blocks = []
    stepper = impedance._blocks

    def kept(*args, **kwargs):
        for radii, mats in stepper(*args, **kwargs):
            blocks.append(mats)
            yield radii, mats

    monkeypatch.setattr(impedance, "_blocks", kept)
    ctx, faults = cw.WaveContext(omega=1.0, m=2), EntryFaults(1)
    rows = [(r, z.copy(), found)
            for r, z, found in _march(_Turn(), [ctx], [np.zeros((2, 2))],
                                      0.5, 0.9, 64, "exp2a", faults)]
    assert faults.ok.all() and len(blocks) == 1 and len(rows) == 8
    assert all(found for _, _, found in rows)
    prods = impedance._fused(blocks[0])
    to_w = _gauge(2)[1].conj()
    w = np.zeros((1, 2, 2))
    in_run = 0
    for k, (r, z, found) in enumerate(rows):
        with np.errstate(all="ignore"):
            cond = _verdict(*_mobius(w, prods[k]))[0]
        want = [(0, r, cond[0])] if cond[0] > impedance._POLE_COND else []
        assert [(j, ev.r, ev.cond) for j, ev in found] == want
        in_run += bool(want) and k % matricant._RUN_GROUPS > 0
        w = z * to_w
    assert in_run >= 4


@pytest.mark.xfail(strict=True, reason=(
    "a march records a PoleCrossing only where a group end lies on a pole, "
    "so a pole passed between group ends goes unreported; reporting it is "
    "ROADMAP item 4"))
def test_march_reports_the_pole_that_the_naive_integration_meets(
        al_layer, al_profile):
    # criterion 4's case: the naive Runge-Kutta integration of the Riccati
    # equation blows up at r = 0.81, where z passes a pole, and the march
    # passes it without a record
    ctx3 = cw.WaveContext(omega=10.0, n=0, m=3)
    ctx = cw.WaveContext(omega=10.0, n=0, m=2)
    z_in = cw.ti_conditional_impedance(1, al_layer, ctx3, 0.5).z[:2, :2]
    trace = impedance.naive_riccati_integrate(al_profile, ctx, z_in, 0.5,
                                              1.0, 500)
    assert trace.blowup_radius == pytest.approx(0.81)
    z = cw.integrate_impedance(al_profile, ctx, z_in, 0.5, 1.0, 500, "lp4")
    assert z.events


def test_golden_solve_takes_one_update_per_run(al_layer, monkeypatch):
    # the golden ka = 5 lp4 solve's 63 groups of 8 steps are 16 runs in one
    # block: one Moebius call per run, one per group that an order takes on
    # its own after its run's prefix passed the growth cap (one update per
    # group, 63 calls, before runs), and one pole test for the block
    counts = _counted_updates(monkeypatch)
    cw.solve_scattering(cw.ScatteringConfig((al_layer,), ka=5.0,
                                            scheme="lp4", steps=500))
    assert counts["run"] == 16 and counts["steps"] == 0
    assert counts["run"] + counts["group"] <= 19
    assert counts["verdict"] == 1


class TestInterfaces:
    """Each layer of a piecewise profile is stepped on its own grid, so a
    march keeps its scheme's order with an interface on no even grid."""

    @pytest.mark.parametrize("scheme", cw.SCHEME_NAMES)
    def test_two_layer_convergence_reaches_nominal_order(self, scheme):
        # against the closed-form fold of the two TI layers; before the
        # march cut its span at the interface, every scheme read about 1
        inner = cw.LayerTI(0.5, 2 / 3, 1.0, 20.0, 12.0, 0.0, 20.0, 4.0)
        outer = cw.LayerTI(2 / 3, 1.0, 2.0, 20.0, 12.0, 0.0, 20.0, 4.0)
        ctx = cw.WaveContext(omega=3.0, n=2)
        z_in = cw.ti_conditional_impedance(1, inner, ctx, 0.5)
        want = cw.conditional_from_twopoint(
            cw.global_twopoint([inner, outer], ctx), z_in).z
        prof = cw.RadialProfile.piecewise(
            [(lay.r_inner, lay.r_outer, lay.material())
             for lay in (inner, outer)])
        steps = np.array([50, 100, 200, 400])
        err = [np.abs(cw.integrate_impedance(prof, ctx, z_in, 0.5, 1.0, s,
                                             scheme).z - want).max()
               for s in steps]
        slope = -np.polyfit(np.log(steps), np.log(err), 1)[0]
        order = cw.get_scheme(scheme).nominal_order
        assert abs(slope - order) <= 0.3, f"{scheme}: slope {slope:.2f}"


class TestGauge:
    """The march steps with D^-1 Q D, D = diag(i^p), and advances
    w = -i D2^-1 z D1; lossless orthotropic samples are then real."""

    @pytest.mark.parametrize("m, kz", [(1, 0.0), (2, 0.0), (3, 0.0),
                                       (3, 0.7)])
    @pytest.mark.parametrize("material", ["isotropic", "ti"])
    def test_gauged_samples_are_exactly_real(self, al, m, kz, material):
        mp = al if material == "isotropic" else cw.MaterialPoint(1.6, _FIBRE)
        prof = cw.RadialProfile.uniform(mp, 0.5, 1.0)
        ctxs = [cw.WaveContext(omega=3.0, n=n, kz=kz, m=m) for n in (1, 2, 3)]
        r = np.linspace(0.5, 1.0, 7)
        q = _q_sampler(prof, ctxs)(r, 0)
        d = _D6[_state_index(m)]
        qt = d.conj()[:, None] * q * d
        assert np.iscomplexobj(q) and np.abs(q.imag).max() > 0
        assert not qt.imag.any()
        assert np.array_equal(_gauge(m)[0], d.conj()[:, None] * d)

    @pytest.mark.parametrize("kz", [0.0, 0.7])
    def test_rotated_law_stays_complex(self, kz):
        prof = cw.RadialProfile.smooth(_rotated_law, 0.6, 1.0)
        ctxs = [cw.WaveContext(omega=3.0, n=n, kz=kz) for n in (1, 2, 3)]
        r = np.linspace(0.7, 1.0, 4)
        qt = _q_sampler(prof, ctxs)(r, 0) * _gauge(3)[0]
        assert np.abs(qt.imag).max() > 1e-3 * np.abs(qt).max()

    def test_golden_solve_marches_in_float64(self, al_layer, monkeypatch):
        seen = set()
        mobius = impedance._mobius

        def spy(w, m):
            out = mobius(w, m)
            seen.add((w.dtype, m.dtype, out[0].dtype))
            return out

        monkeypatch.setattr(impedance, "_mobius", spy)
        res = cw.solve_scattering(cw.ScatteringConfig(
            (al_layer,), ka=5.0, scheme="lp4", steps=500))
        assert seen == {(np.dtype(np.float64),) * 3}
        assert res.sigma_tot == pytest.approx(2.4680822290702498, rel=1e-9)

    @pytest.mark.parametrize("case", ["three-layer", "rotated-law", "turn"])
    def test_march_equals_ungauged_step_chain(self, al_layer, case):
        # the march against matricant_step and mobius_step, which sample Q
        # itself and stay complex: one mobius_step per group of steps, on
        # the product of the group's matricant_step, with the same radii
        if case == "three-layer":
            layers = [(0.3, 0.6, al_layer.material()),
                      (0.6, 0.8, cw.MaterialPoint(1.6, _FIBRE)),
                      (0.8, 1.0, cw.MaterialPoint(
                          7.85, cw.isotropic_stiffness(37.0, 37.0)))]
            prof = cw.RadialProfile.piecewise(layers)
            ctxs = [cw.WaveContext(omega=2.5, n=n, m=2) for n in (0, 1, 3, 6)]
            z0s = [cw.ti_conditional_impedance(
                1, layers[0][2], cw.WaveContext(omega=2.5, n=c.n), 0.3).z[:2, :2]
                for c in ctxs]
            span, steps, scheme = (0.3, 1.0), 100, "lp4"
        elif case == "rotated-law":
            prof = cw.RadialProfile.smooth(_rotated_law, 0.6, 1.0)
            ctxs = [cw.WaveContext(omega=3.0, n=n, kz=0.8) for n in (0, 2)]
            z0s = [cw.ti_conditional_impedance(1, _rotated_law(0.6), c, 0.6).z
                   for c in ctxs]
            span, steps, scheme = (0.6, 1.0), 40, "mg4"
        else:
            prof = _GaugedTurn()
            ctxs = [cw.WaveContext(omega=1.0, m=2)] * 2
            z0s = [np.zeros((2, 2), dtype=complex), np.diag([-0.3, 0.0])]
            span, steps, scheme = (0.5, 0.6), 16, "exp2a"
        faults = EntryFaults(len(ctxs))
        events = [[] for _ in ctxs]
        for r, z, found in _march(prof, ctxs, z0s, *span, steps, scheme,
                                  faults):
            for j, ev in found:
                events[j].append(ev)
        assert faults.ok.all()
        grid = matricant._segments(prof, span[0], span[1] - span[0], steps)
        size = matricant._GROUP_STEPS
        crossed = 0
        for j, ctx in enumerate(ctxs):
            chain = cw.ConditionalImpedance(z0s[j], span[0])
            for a, h, n, _ in grid:
                for i in range(0, n, size):
                    group = [cw.matricant_step(prof, ctx, a + k * h, h, scheme)
                             for k in range(i, min(i + size, n))]
                    chain = cw.mobius_step(chain, cw.Matricant(
                        reduce(lambda m, s: s.m @ m, group[1:], group[0].m),
                        group[0].r_from, group[-1].r_to))
            scale = np.abs(chain.z).max()
            assert np.abs(z[j] - chain.z).max() <= 1e-13 * scale, j
            assert r == chain.r
            assert [e.r for e in events[j]] == [e.r for e in chain.events]
            # the turn's groups end on its poles, where a condition number
            # is the inverse of a rounding error, and the gauged real and
            # the complex products round apart
            assert all(e.cond > impedance._POLE_COND
                       for e in events[j] + list(chain.events))
            crossed += len(chain.events)
        assert crossed == (2 if case == "turn" else 0)


class TestTwoPointConversions:
    def test_roundtrip_from_matricant(self, t_unitary_sampler):
        rng = np.random.default_rng(19)
        for _ in range(20):
            m = cw.Matricant(t_unitary_sampler(rng), 0.5, 0.9)
            z = cw.twopoint_from_matricant(m)
            back = cw.matricant_from_twopoint(z)
            assert np.max(np.abs(back.m - m.m)) < 1e-10 * np.max(np.abs(m.m))

    def test_roundtrip_from_twopoint(self, t_unitary_sampler):
        rng = np.random.default_rng(23)
        z = cw.twopoint_from_matricant(
            cw.Matricant(t_unitary_sampler(rng), 0.5, 0.9))
        again = cw.twopoint_from_matricant(cw.matricant_from_twopoint(z))
        assert np.max(np.abs(again.z - z.z)) < 1e-10 * np.max(np.abs(z.z))

    def test_t_unitary_gives_hermitian_twopoint(self, t_unitary_sampler):
        rng = np.random.default_rng(29)
        for _ in range(20):
            m = cw.Matricant(t_unitary_sampler(rng), 0.5, 0.9)
            z = cw.twopoint_from_matricant(m)
            assert cw.hermitian_residual(z.z) < 1e-10

    def test_degenerate_span(self):
        with pytest.raises(DegenerateSpan):
            cw.twopoint_from_matricant(cw.Matricant.identity(6, 0.5))

    def test_block_views(self):
        z = np.arange(16, dtype=complex).reshape(4, 4)
        tp = cw.TwoPointImpedance(z, 0.5, 1.0)
        assert_allclose(tp.z1, [[0, 1], [4, 5]], atol=0)
        assert_allclose(tp.z4, [[10, 11], [14, 15]], atol=0)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            cw.TwoPointImpedance(np.zeros((3, 3)), 0.5, 1.0)


class TestConditionalFromTwoPoint:
    def test_agrees_with_mobius_action(self, t_unitary_sampler):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = cw.Matricant(t_unitary_sampler(rng), 0.5, 0.9)
            z0 = cw.ConditionalImpedance(_rand_hermitian(rng), 0.5)
            via_z = cw.conditional_from_twopoint(
                cw.twopoint_from_matricant(m), z0)
            via_m = cw.mobius_step(z0, m)
            scale = np.max(np.abs(via_m.z))
            assert np.max(np.abs(via_z.z - via_m.z)) < 1e-9 * scale
            assert via_z.r == 0.9

    def test_hermitian_in_hermitian_out(self, t_unitary_sampler):
        rng = np.random.default_rng(37)
        for _ in range(20):
            z = cw.twopoint_from_matricant(
                cw.Matricant(t_unitary_sampler(rng), 0.5, 0.9))
            out = cw.conditional_from_twopoint(z, _rand_hermitian(rng))
            assert cw.hermitian_residual(out.z) < 1e-9

    def test_resonant_inner(self, t_unitary_sampler):
        rng = np.random.default_rng(41)
        z = cw.twopoint_from_matricant(
            cw.Matricant(t_unitary_sampler(rng), 0.5, 0.9))
        with pytest.raises(ResonantInner):
            cw.conditional_from_twopoint(z, z.z1)


class TestFullSpanReconstruction:
    def test_identity_returns_inner_condition(self):
        rng = np.random.default_rng(43)
        z0 = cw.ConditionalImpedance(_rand_hermitian(rng), 0.5)
        out = cw.impedance_from_matricant(cw.Matricant.identity(6, 0.5), z0)
        assert_allclose(out.z, z0.z, atol=1e-15)

    def test_matches_marcher_on_short_span(self, al_profile, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1)
        z0 = _exact_z(al_layer, ctx, 0.7)
        m = cw.matricant_global(al_profile, ctx, 0.7, 0.75, 50, "exp2a")
        a = cw.impedance_from_matricant(m, z0)
        b = cw.integrate_impedance(al_profile, ctx, z0, 0.7, 0.75, 50, "exp2a")
        assert np.max(np.abs(a.z - b.z)) < 1e-9 * np.max(np.abs(b.z))


class TestNaiveRiccati:
    def test_constant_under_zero_system(self):
        rng = np.random.default_rng(47)
        z0 = _rand_hermitian(rng)
        trace = cw.naive_riccati_integrate(_ZeroQ(), AL_CTX, z0, 0.5, 1.0, 50)
        assert trace.blowup_radius is None
        assert_allclose(trace.values[-1], z0, atol=0)
        assert len(trace.radii) == 51

    def test_agrees_on_pole_free_span(self, al_profile, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=0)
        z0 = _exact_z(al_layer, ctx, 0.55)
        trace = cw.naive_riccati_integrate(al_profile, ctx, z0, 0.55, 0.62,
                                           200)
        assert trace.blowup_radius is None
        ref = cw.integrate_impedance(al_profile, ctx, z0, 0.55, 0.62, 200,
                                     "exp2a")
        err = np.max(np.abs(trace.values[-1] - ref.z)) / np.max(np.abs(ref.z))
        assert err < 1e-6

    def test_blows_up_at_interior_pole(self, al_profile, al_layer):
        ctx = cw.WaveContext(omega=10.0, n=0, m=2)
        z0 = _exact_z(al_layer, ctx, 0.5).z[:2, :2]
        trace = cw.naive_riccati_integrate(al_profile, ctx, z0, 0.5, 1.0, 400)
        assert trace.blowup_radius is not None
        assert 0.5 < trace.blowup_radius < 1.0
        assert trace.radii[-1] == trace.blowup_radius
        assert len(trace.values) == len(trace.radii)

    @pytest.mark.parametrize("steps",
                             [0, -1, 10.0, 2.5, np.float64(10.0), True],
                             ids=["0", "-1", "10.0", "2.5", "float64", "bool"])
    def test_rejects_step_count_below_one(self, al_profile, steps):
        z0 = np.zeros((3, 3), dtype=complex)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            cw.naive_riccati_integrate(al_profile, AL_CTX, z0, 0.5, 1.0,
                                       steps)


def test_conditional_impedance_validation():
    with pytest.raises(ValueError):
        cw.ConditionalImpedance(np.zeros((2, 3)), 0.5)
