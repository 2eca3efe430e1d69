import numpy as np
import pytest
from numpy.testing import assert_allclose

import cylwave as cw
from cylwave.errors import (DegenerateSpan, EntryFaults, PoleCrossing,
                            ResonantInner, SingularMatrix, StepTooLarge)
from cylwave.impedance import _march

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
        with pytest.raises(ValueError):
            cw.integrate_impedance(al_profile, AL_CTX, z, 0.5, 1.0, 0, "lp4")

    def test_events_survive_marching(self, al_profile):
        ev = PoleCrossing(0.4, 2e15)
        z0 = cw.ConditionalImpedance(np.zeros((3, 3), dtype=complex), 0.5,
                                     events=(ev,))
        out = cw.integrate_impedance(al_profile, AL_CTX, z0, 0.5, 0.6, 5,
                                     "exp2a")
        assert out.events[0] is ev


    def test_stacked_march_keeps_events_per_entry(self):
        # Q = [[0, W], [-W, 0]] turns each channel by w h per step; from
        # z0 = 0 the first channel meets a pole at r = 0.55, while
        # the second entry starts a quarter turn off and never lands on one
        prof = _Turn()
        ctx = cw.WaveContext(omega=1.0, m=2)
        z0s = [np.zeros((2, 2), dtype=complex), np.diag([-0.3j, 0.0])]
        faults = EntryFaults(2)
        events = [[], []]
        for r, live, z, found in _march(prof, [ctx, ctx], z0s, 0.5, 0.62, 12,
                                        "exp2a", faults):
            for j, ev in found:
                events[j].append(ev)
        assert faults.ok.all() and list(live) == [0, 1]
        alone = [cw.integrate_impedance(prof, ctx, z0, 0.5, 0.62, 12, "exp2a")
                 for z0 in z0s]
        # the steps onto and off the pole both have a near-singular
        # denominator
        assert [e.r for e in alone[0].events] == pytest.approx([0.55, 0.56])
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
        # failed before the march and must never be sampled
        class _PerOrder(_Turn):
            def q_at(self, r, ctx):
                assert ctx.n != 3
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
        events = []
        for r, live, z, found in _march(prof, ctxs, z0s, 0.5, 0.62, 12,
                                        "exp2a", faults):
            events += [ev for j, ev in found if j == 2]
        assert isinstance(faults.errors[0], StepTooLarge)
        assert isinstance(faults.errors[1], SingularMatrix)
        assert faults.errors[2] is None and faults.errors[3] is inner
        assert list(live) == [2]
        alone = cw.integrate_impedance(prof, ctxs[2], z0s[2], 0.5, 0.62, 12,
                                       "exp2a")
        assert len(alone.events) == 2
        assert [(e.r, e.cond) for e in events] \
            == [(e.r, e.cond) for e in alone.events]
        assert np.array_equal(z[0], alone.z) and r == alone.r


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


def test_conditional_impedance_validation():
    with pytest.raises(ValueError):
        cw.ConditionalImpedance(np.zeros((2, 3)), 0.5)
