import io
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cylwave as cw
from cylwave.elastodyn import _q_sampler, has_z_mirror_symmetry, voigt_blocks
from cylwave.errors import (DecouplingError, MaterialSingular, OutOfSupport,
                            SchemaError)
from cylwave.impedance import _gauge
from cylwave.numkernel import _demoted

AL_C44 = 26.0e9 / cw.MODULUS_SCALE
AL_C12 = 58.5e9 / cw.MODULUS_SCALE


def _counting_stiffness():
    # c_IJ = 10*min(I,J) + max(I,J): every entry names its own Voigt index,
    # so block transcription errors are visible as literal wrong digits
    c = np.zeros((6, 6))
    for i in range(1, 7):
        for j in range(1, 7):
            c[i - 1, j - 1] = 10 * min(i, j) + max(i, j)
    return cw.StiffnessVoigt(c)


def _random_symmetric_stiffness(rng, diag_shift=40.0):
    x = rng.uniform(-5.0, 5.0, size=(6, 6))
    c = 0.5 * (x + x.T) + diag_shift * np.eye(6)
    return cw.StiffnessVoigt(c)


# Voigt pairs that vanish under the z-normal mirror symmetry, 0-based
_MIRROR_ZERO = (np.array([0, 0, 1, 1, 2, 2, 3, 4]),
                np.array([3, 4, 3, 4, 3, 4, 5, 5]))


def _graded_law(mirror: bool):
    """A smooth law whose density and moduli all vary with r.  Without the
    mirror symmetry all 21 moduli are nonzero; with it the eight pairs of
    _MIRROR_ZERO vanish at every r."""
    rng = np.random.default_rng(43)
    x = rng.uniform(0.5, 2.0, size=(2, 6, 6))
    c0, dc = x + x.swapaxes(1, 2)
    c0 += 40.0 * np.eye(6)
    if mirror:
        for c in (c0, dc):
            c[_MIRROR_ZERO] = c[_MIRROR_ZERO[::-1]] = 0.0

    def law(r):
        return cw.MaterialPoint(2.0 + r, cw.StiffnessVoigt(c0 + r * dc))

    return law


class TestStiffness:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            cw.StiffnessVoigt(np.zeros((5, 5)))

    def test_rejects_asymmetry(self):
        c = np.eye(6)
        c[0, 1] = 1.0
        with pytest.raises(ValueError):
            cw.StiffnessVoigt(c)

    @pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (3, 5)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_moduli(self, i, j, bad):
        c = 10.0 * np.eye(6)
        c[i, j] = c[j, i] = bad
        with pytest.raises(ValueError, match="finite"):
            cw.StiffnessVoigt(c)

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_material_point_rejects_bad_density(self, rho):
        with pytest.raises(ValueError, match="density"):
            cw.MaterialPoint(rho, cw.isotropic_stiffness(2.0, 1.0))

    @pytest.mark.parametrize("make", [
        lambda: cw.ti_stiffness(30.0 * (1 - 0.02j), 6.0, 6.0, 30.0, 12.0),
        lambda: cw.isotropic_stiffness(6.0, 12.0 * (1 - 0.02j)),
        lambda: cw.StiffnessVoigt(np.eye(6) * (1 + 0j)),
    ], ids=["ti", "isotropic", "table"])
    def test_rejects_complex_moduli(self, make):
        # lossy moduli are a ValueError here, not a TypeError from a cast
        with pytest.raises(ValueError, match="real"):
            make()

    def test_one_based_lookup(self):
        c = _counting_stiffness()
        assert c[1, 1] == 11.0
        assert c[2, 5] == 25.0
        assert c[5, 2] == 25.0
        assert c[6, 6] == 66.0

    def test_isotropic_layout(self):
        lam, mu = 2.0, 0.75
        c = cw.isotropic_stiffness(lam, mu).c
        want = np.zeros((6, 6))
        want[:3, :3] = lam
        want[np.diag_indices(3)] = lam + 2 * mu
        want[3, 3] = want[4, 4] = want[5, 5] = mu
        assert_allclose(c, want, atol=0)

    def test_ti_layout(self):
        s = cw.ti_stiffness(50.0, 20.0, 13.0, 45.0, 11.0)
        assert s[1, 1] == s[2, 2] == 50.0
        assert s[1, 2] == 20.0
        assert s[1, 3] == s[2, 3] == 13.0
        assert s[3, 3] == 45.0
        assert s[4, 4] == s[5, 5] == 11.0
        assert s[6, 6] == pytest.approx(15.0)  # (c11 - c12) / 2
        assert s[1, 4] == s[1, 5] == s[1, 6] == 0.0

    def test_positive_definite(self):
        assert cw.aluminium().stiffness.is_positive_definite()
        bad = cw.ti_stiffness(10.0, 12.0, 0.0, 10.0, 5.0)  # c12 > c11
        assert not bad.is_positive_definite()

    def test_aluminium_constants(self, al):
        assert al.rho == 2.7
        assert al.stiffness[4, 4] == pytest.approx(AL_C44, rel=1e-15)
        assert al.stiffness[1, 2] == pytest.approx(AL_C12, rel=1e-15)
        assert al.stiffness[1, 1] == pytest.approx(AL_C12 + 2 * AL_C44,
                                                   rel=1e-15)


class TestVoigtBlocks:
    def test_counting_transcription(self):
        """Each block read off the index tables with self-naming entries."""
        vb = voigt_blocks(_counting_stiffness())
        assert_allclose(vb.qh, [[11, 16, 15], [16, 66, 56], [15, 56, 55]])
        assert_allclose(vb.th, [[66, 26, 46], [26, 22, 24], [46, 24, 44]])
        assert_allclose(vb.mh, [[55, 45, 35], [45, 44, 34], [35, 34, 33]])
        assert_allclose(vb.r, [[16, 12, 14], [66, 26, 46], [56, 25, 45]])
        assert_allclose(vb.p, [[15, 14, 13], [56, 46, 36], [55, 45, 35]])
        assert_allclose(vb.s, [[56, 46, 36], [25, 24, 23], [45, 44, 34]])

    def test_isotropic_blocks(self):
        lam, mu = 3.0, 1.25
        vb = voigt_blocks(cw.isotropic_stiffness(lam, mu))
        assert_allclose(vb.qh, np.diag([lam + 2 * mu, mu, mu]), atol=0)
        assert_allclose(vb.th, np.diag([mu, lam + 2 * mu, mu]), atol=0)
        assert_allclose(vb.mh, np.diag([mu, mu, lam + 2 * mu]), atol=0)
        assert_allclose(vb.r, [[0, lam, 0], [mu, 0, 0], [0, 0, 0]], atol=0)
        assert_allclose(vb.p, [[0, 0, lam], [0, 0, 0], [mu, 0, 0]], atol=0)
        assert_allclose(vb.s, [[0, 0, 0], [0, 0, lam], [0, mu, 0]], atol=0)

    def test_blocks_recover_all_21_constants(self):
        rng = np.random.default_rng(31)
        stiff = _random_symmetric_stiffness(rng)
        qh, th, mh, r, p, s = voigt_blocks(stiff)
        c = np.zeros((6, 6))

        def put(i, j, v):
            c[i - 1, j - 1] = c[j - 1, i - 1] = v

        put(1, 1, qh[0, 0]); put(1, 6, qh[0, 1]); put(1, 5, qh[0, 2])
        put(6, 6, qh[1, 1]); put(5, 6, qh[1, 2]); put(5, 5, qh[2, 2])
        put(2, 6, th[0, 1]); put(4, 6, th[0, 2]); put(2, 2, th[1, 1])
        put(2, 4, th[1, 2]); put(4, 4, th[2, 2])
        put(3, 5, mh[0, 2]); put(3, 4, mh[1, 2]); put(3, 3, mh[2, 2])
        put(4, 5, mh[0, 1])
        put(1, 2, r[0, 1]); put(1, 4, r[0, 2]); put(2, 5, r[2, 1])
        put(1, 3, p[0, 2]); put(3, 6, p[1, 2])
        put(2, 3, s[1, 2])
        assert_allclose(c, stiff.c, atol=0)


class TestGMatrix:
    def test_block_layout(self, al):
        ctx = cw.WaveContext(omega=5.0, n=2, kz=0.7)
        g = cw.g_matrix(al, ctx, 0.8)
        vb = voigt_blocks(al.stiffness)
        # upper-right block of G is g2 = -qh^-1 by construction
        assert_allclose(g[:3, 3:], -np.linalg.inv(vb.qh), atol=1e-14)

    def test_axisymmetric_reduces_to_k(self, al):
        # at n=0, kz=0 the angular operator is the bare K rotation generator
        ctx = cw.WaveContext(omega=3.0, n=0, kz=0.0)
        g = cw.g_matrix(al, ctx, 0.6)
        vb = voigt_blocks(al.stiffness)
        k = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        g1 = 1j * g[:3, :3]
        assert_allclose(g1, -np.linalg.inv(vb.qh) @ vb.r @ k, atol=1e-14)

    def test_symmetry_invariant_random(self, ti_sampler):
        rng = np.random.default_rng(37)
        t = cw.block_swap(3)
        worst = 0.0
        for i in range(100):
            if i % 2 == 0:
                layer, omega, kz = ti_sampler(rng)
                mp = layer.material()
                r = rng.uniform(*sorted((layer.r_inner, layer.r_outer)))
            else:
                mp = cw.MaterialPoint(rho=rng.uniform(1, 8),
                                      stiffness=_random_symmetric_stiffness(rng))
                omega = rng.uniform(2, 8)
                kz = rng.uniform(0, 2)
                r = rng.uniform(0.3, 1.5)
            ctx = cw.WaveContext(omega=omega, n=int(rng.integers(0, 9)), kz=kz)
            g = cw.g_matrix(mp, ctx, r)
            res = np.linalg.norm(g - t @ g.conj().T @ t) / np.linalg.norm(g)
            worst = max(worst, res)
        assert worst < 1e-12

    def test_omega_only_shifts_inertia_block(self, al):
        r = 0.65
        c1 = cw.WaveContext(omega=2.0, n=3, kz=0.9)
        c2 = cw.WaveContext(omega=4.0, n=3, kz=0.9)
        d = cw.g_matrix(al, c2, r) - cw.g_matrix(al, c1, r)
        want = np.zeros((6, 6), dtype=complex)
        want[3:, :3] = -al.rho * (16.0 - 4.0) * r * r * np.eye(3)
        assert_allclose(d, want, atol=1e-12 * np.abs(want).max())

    def test_cached_factors_follow_n_and_kz(self, al):
        # g_matrix caches its r-independent factors per (n, kz) on the
        # stiffness; interleaved calls must match a fresh, uncached copy
        keys = [(1, 0.3), (2, 0.3), (1, 0.0), (1, 0.3), (0, 0.3)]
        for n, kz in keys:
            fresh = cw.MaterialPoint(
                rho=al.rho, stiffness=cw.StiffnessVoigt(al.stiffness.c.copy()))
            ctx = cw.WaveContext(omega=3.0, n=n, kz=kz)
            assert_allclose(cw.g_matrix(al, ctx, 0.7),
                            cw.g_matrix(fresh, ctx, 0.7), atol=0)

    def test_quasistatic_block_hermitian_at_kz0(self, al):
        ctx = cw.WaveContext(omega=4.0, n=2, kz=0.0)
        r = 0.8
        g3 = cw.g_matrix(al, ctx, r)[3:, :3]
        # removing the inertia term leaves the elastostatic part, Hermitian
        # for real moduli
        stat = g3 + al.rho * ctx.omega ** 2 * r * r * np.eye(3)
        assert np.linalg.norm(stat - stat.conj().T) < 1e-12 * np.linalg.norm(stat)


class TestQMatrix:
    def test_scaling_with_radius(self, al, al_profile):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        for r in (0.55, 0.9):
            q = cw.q_matrix(al_profile, ctx, r)
            assert q.r == r
            assert_allclose(q.q, (1j / r) * cw.g_matrix(al, ctx, r), atol=0)

    def test_symmetry_invariant(self, al_profile):
        ctx = cw.WaveContext(omega=5.0, n=2, kz=0.0)
        q = cw.q_matrix(al_profile, ctx, 0.7).q
        t = cw.block_swap(3)
        assert np.linalg.norm(q.conj().T + t @ q @ t) < 1e-12 * np.linalg.norm(q)

    def test_block_views(self, al_profile):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.2)
        q = cw.q_matrix(al_profile, ctx, 0.7)
        vb = voigt_blocks(al_profile.material_at(0.7).stiffness)
        assert_allclose(q.q2, -1j * np.linalg.inv(vb.qh) / 0.7, atol=1e-14)
        assert_allclose(q.q, np.block([[q.q1, q.q2], [q.q3, q.q4]]), atol=0)

    def test_inplane_reduction_is_submatrix(self, al_profile):
        full = cw.q_matrix(al_profile, cw.WaveContext(omega=5.0, n=1), 0.7).q
        sub = cw.q_matrix(al_profile,
                          cw.WaveContext(omega=5.0, n=1, m=2), 0.7).q
        idx = np.array([0, 1, 3, 4])
        assert_allclose(sub, full[np.ix_(idx, idx)], atol=0)
        axial = cw.q_matrix(al_profile,
                            cw.WaveContext(omega=5.0, n=1, m=1), 0.7).q
        assert_allclose(axial, full[np.ix_([2, 5], [2, 5])], atol=0)

    def test_reduction_needs_kz0(self, al_profile):
        ctx = cw.WaveContext(omega=5.0, kz=0.4, m=2)
        with pytest.raises(DecouplingError):
            cw.q_matrix(al_profile, ctx, 0.7)
        with pytest.raises(DecouplingError):
            _q_sampler(al_profile, [cw.WaveContext(omega=5.0, m=2), ctx])

    def test_reduction_needs_mirror_symmetry(self):
        c = np.zeros((6, 6))
        c[np.diag_indices(6)] = [50, 50, 50, 10, 10, 10]
        c[0, 3] = c[3, 0] = 4.0  # c14 breaks the z-normal mirror
        mp = cw.MaterialPoint(rho=2.0, stiffness=cw.StiffnessVoigt(c))
        prof = cw.RadialProfile.uniform(mp, 0.5, 1.0)
        assert not has_z_mirror_symmetry(mp.stiffness)
        with pytest.raises(DecouplingError):
            cw.q_matrix(prof, cw.WaveContext(omega=5.0, m=2), 0.7)
        with pytest.raises(DecouplingError):
            _q_sampler(prof, [cw.WaveContext(omega=5.0, m=2)])

    @pytest.mark.parametrize("m, kz", [(1, 0.0), (2, 0.0), (3, 0.0), (3, 0.7)])
    def test_sampler_equals_q_matrix(self, al, m, kz):
        # the batched sampler is q_matrix at every (radius, order), bit for
        # bit, in the layer it is given, on the interface too
        steel = cw.MaterialPoint(7.85, cw.isotropic_stiffness(54.4, 37.0))
        prof = cw.RadialProfile.piecewise([(0.5, 0.75, al), (0.75, 1.0, steel)])
        ctxs = [cw.WaveContext(omega=4.0 + n, n=n, kz=kz, m=m)
                for n in range(4)]
        r = np.array([[0.5, 0.61, 0.75], [0.75, 0.9, 1.0]])
        sample = _q_sampler(prof, ctxs)
        for layer, mp in enumerate((al, steel)):
            q = sample(r, layer)
            assert q.shape == (2, 3, 4, 2 * m, 2 * m)
            one = cw.RadialProfile.uniform(mp, 0.5, 1.0)
            for i, j in np.ndindex(r.shape):
                for k, ctx in enumerate(ctxs):
                    assert np.array_equal(
                        q[i, j, k], cw.q_matrix(one, ctx, r[i, j]).q)

    @pytest.mark.parametrize("m, kz", [(1, 0.0), (2, 0.0), (3, 0.0), (3, 0.7)])
    def test_smooth_sampler_equals_q_matrix(self, m, kz):
        # a smooth law is sampled radius by radius into one stack of terms;
        # every (radius, order) must still be q_matrix's, bit for bit
        law = _graded_law(mirror=m < 3)
        assert (law(0.7).stiffness.c != 0).sum() == (20 if m < 3 else 36)
        assert has_z_mirror_symmetry(law(0.7).stiffness) == (m < 3)
        prof = cw.RadialProfile.smooth(law, 0.5, 1.0)
        ctxs = [cw.WaveContext(omega=4.0 + n, n=n, kz=kz, m=m)
                for n in range(4)]
        r = np.array([[0.5, 0.61, 0.75], [0.75, 0.9, 1.0]])
        q = _q_sampler(prof, ctxs)(r, 0)
        assert q.shape == (2, 3, 4, 2 * m, 2 * m)
        for i, j in np.ndindex(r.shape):
            for k, ctx in enumerate(ctxs):
                assert np.array_equal(q[i, j, k],
                                      cw.q_matrix(prof, ctx, r[i, j]).q)

    @pytest.mark.parametrize("m, kz, middle", [
        (1, 0.0, "fibre"), (2, 0.0, "fibre"), (3, 0.0, "fibre"),
        (3, 0.7, "fibre"), (3, 0.0, "c35"), (3, 0.7, "c35")])
    def test_gauged_sampler_on_three_layers(self, al, m, kz, middle):
        # a sampler built with the gauge g samples the ungauged one's Q * g
        # demoted, bit for bit and dtype for dtype, and the ungauged samples
        # are q_matrix's: in
        # each layer, on both of its ends and inside.  A c35 coupling leaves
        # the gauged P0 and P2 real and P1 complex, so at kz = 0 the samples
        # are real
        c = cw.ti_stiffness(6.6, 3.2, 2.8, 64.8, 3.2).c.copy()
        if middle == "c35":
            c[2, 4] = c[4, 2] = 0.5
        layers = [(0.3, 0.6, al), (0.6, 0.8, cw.MaterialPoint(
                      1.6, cw.StiffnessVoigt(c))),
                  (0.8, 1.0, cw.MaterialPoint(
                      7.85, cw.isotropic_stiffness(37.0, 37.0)))]
        prof = cw.RadialProfile.piecewise(layers)
        ctxs = [cw.WaveContext(omega=2.5, n=n, kz=kz, m=m) for n in (1, 2, 3)]
        sample = _q_sampler(prof, ctxs)
        gauge = _gauge(m)[0]
        gauged = _q_sampler(prof, ctxs, gauge)
        for layer, (lo, hi, mp) in enumerate(layers):
            r = np.array([[lo, hi], [0.5 * (lo + hi), 0.75 * lo + 0.25 * hi]])
            q = sample(r, layer)
            qg = gauged(r, layer)
            want = _demoted(q * gauge)
            assert qg.dtype == want.dtype and np.array_equal(qg, want)
            one = cw.RadialProfile.uniform(mp, 0.3, 1.0)
            for i in np.ndindex(r.shape):
                for k, ctx in enumerate(ctxs):
                    assert np.array_equal(q[i][k],
                                          cw.q_matrix(one, ctx, r[i]).q)
        real = middle == "fibre" or kz == 0.0
        assert (gauged(np.full((2, 3), 0.7), 1).dtype
                == np.float64) == real

    def test_smooth_sampler_refusals(self):
        r = np.array([0.6, 0.7])
        prof = cw.RadialProfile.smooth(_graded_law(mirror=False), 0.5, 1.0)
        with pytest.raises(DecouplingError):
            _q_sampler(prof, [cw.WaveContext(omega=5.0, m=2)])(r, 0)

        def singular(r):
            c = 10.0 * np.eye(6)
            c[0, 0] = 0.0  # qh = diag(c11, c66, c55) loses its first pivot
            return cw.MaterialPoint(2.0, cw.StiffnessVoigt(c))

        prof = cw.RadialProfile.smooth(singular, 0.5, 1.0)
        for m in (2, 3):
            with pytest.raises(MaterialSingular):
                _q_sampler(prof, [cw.WaveContext(omega=5.0, m=m)])(r, 0)

    def test_synthetic_q_at_hook(self):
        class Const:
            support = (0.1, 2.0)

            def q_at(self, r, ctx):
                return np.diag([1.0, -1.0])

        q = cw.q_matrix(Const(), cw.WaveContext(omega=1.0), 0.5)
        assert q.q.shape == (2, 2)
        assert q.half == 1


class TestProfiles:
    def test_uniform_lookup(self, al, al_profile):
        assert al_profile.material_at(0.5) is al
        assert al_profile.material_at(1.0) is al
        assert al_profile.support == (0.5, 1.0)

    def test_out_of_support(self, al_profile):
        with pytest.raises(OutOfSupport):
            al_profile.material_at(0.49)
        with pytest.raises(OutOfSupport):
            al_profile.material_at(1.01)

    def test_piecewise_selects_layer(self, al):
        soft = cw.MaterialPoint(rho=1.0, stiffness=cw.isotropic_stiffness(2.0, 1.0))
        prof = cw.RadialProfile.piecewise([(0.4, 0.7, soft), (0.7, 1.0, al)])
        assert prof.material_at(0.5) is soft
        assert prof.material_at(0.7) is soft
        assert prof.material_at(0.700001) is al

    def test_piecewise_requires_contiguity(self, al):
        with pytest.raises(ValueError):
            cw.RadialProfile.piecewise([(0.4, 0.6, al), (0.65, 1.0, al)])
        with pytest.raises(ValueError):
            cw.RadialProfile.piecewise([])

    def test_smooth_profile(self):
        def fn(r):
            return cw.MaterialPoint(rho=1.0 + r,
                                    stiffness=cw.isotropic_stiffness(2.0, 1.0))

        prof = cw.RadialProfile.smooth(fn, 0.2, 1.5)
        assert prof.material_at(0.9).rho == pytest.approx(1.9)

    @pytest.mark.parametrize("lo, hi", [(0.5, math.inf), (0.0, 1.0),
                                        (-0.5, 1.0), (1.0, 1.0), (1.0, 0.5),
                                        (math.nan, 1.0), (0.5, math.nan)])
    def test_layer_bounds_rule(self, al, lo, hi):
        # one rule, 0 < r_in < r_out < inf, with one message, for layers,
        # smooth laws and TI layers; an infinite outer radius was taken by
        # all three and failed only in a solve
        with pytest.raises(ValueError, match=r"^layer bounds must be "
                           r"0 < r_in < r_out < inf: \("):
            cw.RadialProfile.piecewise([(lo, hi, al)])
        with pytest.raises(ValueError, match="^layer bounds must be"):
            cw.RadialProfile.smooth(lambda r: al, lo, hi)
        with pytest.raises(ValueError, match="^layer bounds must be"):
            cw.LayerTI.isotropic(lo, hi, 2.7, 27.0, 12.0)


class TestWaveContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            cw.WaveContext(omega=0.0)
        with pytest.raises(ValueError):
            cw.WaveContext(omega=1.0, n=-2)
        with pytest.raises(ValueError):
            cw.WaveContext(omega=1.0, m=4)
        for omega, kz in ((np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan),
                          (1.0, -np.inf)):
            with pytest.raises(ValueError):
                cw.WaveContext(omega=omega, kz=kz)
        # Q takes omega^2 and kz^2: a finite value whose square is not is
        # refused too, and a tiny one whose square underflows is kept
        for omega, kz in ((1e160, 0.0), (1.0, 1e160), (1.0, -2e154)):
            with pytest.raises(ValueError, match="squares must be finite"):
                cw.WaveContext(omega=omega, kz=kz)
        cw.WaveContext(omega=1e-200, kz=1e154)

    @pytest.mark.parametrize("n", [np.inf, np.nan, 1.5, -1])
    def test_order_must_be_a_nonnegative_integer(self, n):
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            cw.WaveContext(omega=1.0, n=n)

    def test_block_swap(self):
        t = cw.block_swap(3)
        assert_allclose(t @ t, np.eye(6), atol=0)
        assert_allclose(t[:3, 3:], np.eye(3), atol=0)

    def test_system_matrix_rejects_odd_size(self):
        with pytest.raises(ValueError):
            cw.SystemMatrix(q=np.zeros((3, 3)), r=1.0)


class TestJsonProfiles:
    def _doc(self):
        return {
            "layers": [{
                "r_in": 0.5, "r_out": 1.0,
                "material": {"type": "isotropic", "rho": 2.7,
                             "params": {"lambda": AL_C12, "mu": AL_C44}},
            }],
        }

    def test_isotropic_roundtrip(self, al):
        prof = cw.profile_from_json(self._doc())
        assert prof.support == (0.5, 1.0)
        assert_allclose(prof.material_at(0.7).stiffness.c, al.stiffness.c,
                        rtol=1e-15)

    def test_young_shear_form_matches(self, al):
        doc = self._doc()
        doc["layers"][0]["material"]["params"] = {
            "E": 70.0e9 / cw.MODULUS_SCALE, "G": 26.0e9 / cw.MODULUS_SCALE}
        prof = cw.profile_from_json(doc)
        assert_allclose(prof.material_at(0.7).stiffness.c, al.stiffness.c,
                        rtol=1e-12)

    def test_ti_material(self):
        doc = self._doc()
        doc["layers"][0]["material"] = {
            "type": "ti", "rho": 4.5,
            "params": {"c11": 60.0, "c12": 20.0, "c13": 10.0,
                       "c33": 55.0, "c44": 15.0}}
        mp = cw.profile_from_json(doc).material_at(0.7)
        assert mp.stiffness[6, 6] == pytest.approx(20.0)

    def test_file_inputs(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(self._doc()))
        assert cw.profile_from_json(str(path)).support == (0.5, 1.0)
        with open(path) as fh:
            assert cw.profile_from_json(fh).support == (0.5, 1.0)
        buf = io.StringIO(json.dumps(self._doc()))
        assert cw.profile_from_json(buf).support == (0.5, 1.0)

    @pytest.mark.parametrize("mutate, pointer", [
        (lambda d: d.pop("layers"), "/"),
        (lambda d: d.__setitem__("layers", []), "/layers"),
        (lambda d: d["layers"][0].pop("r_out"), "/layers/0/r_out"),
        (lambda d: d["layers"][0]["material"].__setitem__("type", "foo"),
         "/layers/0/material/type"),
        (lambda d: d["layers"][0]["material"].__setitem__("rho", -1),
         "/layers/0/material/rho"),
        pytest.param(
            lambda d: d["layers"][0]["material"].__setitem__("rho", np.nan),
            "/layers/0/material/rho", id="nan-density"),
        pytest.param(
            lambda d: d["layers"][0]["material"]["params"].__setitem__(
                "mu", np.inf), "/layers/0/material/params", id="inf-modulus"),
        (lambda d: d["layers"][0]["material"]["params"].pop("mu"),
         "/layers/0/material/params"),
        # JSON booleans are ints to Python; none is taken as 1.0
        pytest.param(lambda d: d["layers"][0].__setitem__("r_out", True),
                     "/layers/0/r_out", id="bool-radius"),
        pytest.param(
            lambda d: d["layers"][0]["material"].__setitem__("rho", True),
            "/layers/0/material/rho", id="bool-density"),
        pytest.param(
            lambda d: d["layers"][0]["material"]["params"].__setitem__(
                "mu", True), "/layers/0/material/params/mu",
            id="bool-modulus"),
        pytest.param(
            lambda d: d["layers"][0]["material"]["params"].__setitem__(
                "lambda", "x"), "/layers/0/material/params/lambda",
            id="string-modulus"),
    ])
    def test_schema_errors_carry_pointers(self, mutate, pointer):
        doc = self._doc()
        mutate(doc)
        with pytest.raises(SchemaError) as exc:
            cw.profile_from_json(doc)
        assert pointer in str(exc.value)

    @pytest.mark.parametrize("where, pointer", [
        (lambda d: d["layers"][0]["material"], "/layers/0/material/rho"),
        (lambda d: d["layers"][0]["material"]["params"],
         "/layers/0/material/params/mu"),
        (lambda d: d["layers"][0], "/layers/0/r_in"),
        (lambda d: d["layers"][0], "/layers/0/r_out"),
    ], ids=["rho", "mu", "r_in", "r_out"])
    def test_integer_past_the_float_range(self, where, pointer):
        # a JSON integer that no float holds is a SchemaError at its
        # pointer, not an OverflowError
        doc = self._doc()
        where(doc)[pointer.rsplit("/", 1)[1]] = 10 ** 400
        with pytest.raises(SchemaError, match=f"^{pointer}: expected"):
            cw.profile_from_json(doc)

    def test_rejects_indefinite_moduli(self):
        doc = self._doc()
        doc["layers"][0]["material"] = {
            "type": "ti", "rho": 1.0,
            "params": {"c11": 10.0, "c12": 12.0, "c13": 0.0,
                       "c33": 10.0, "c44": 5.0}}
        with pytest.raises(SchemaError):
            cw.profile_from_json(doc)

    def test_rejects_gapped_layers(self, tmp_path):
        doc = self._doc()
        doc["layers"].append({
            "r_in": 1.2, "r_out": 1.5,
            "material": doc["layers"][0]["material"]})
        with pytest.raises(SchemaError):
            cw.profile_from_json(doc)

    def test_full_anisotropic_needs_every_constant(self):
        doc = self._doc()
        params = {}
        c = _counting_stiffness()
        for i in range(1, 7):
            for j in range(i, 7):
                params[f"c{i}{j}"] = 60.0 * np.eye(6)[i - 1, j - 1] + 1.0
        doc["layers"][0]["material"] = {"type": "full", "rho": 1.0,
                                        "params": params}
        prof = cw.profile_from_json(doc)
        assert prof.material_at(0.7).stiffness[1, 2] == 1.0
        del c
        params.pop("c23")
        with pytest.raises(SchemaError) as exc:
            cw.profile_from_json(doc)
        assert "c23" in str(exc.value)
