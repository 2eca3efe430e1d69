import math
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

import cylwave as cw
from cylwave import impedance, matricant, scatter
from cylwave.errors import (AccuracyLoss, BasisDegenerate, DomainError,
                            InteriorPoint, ModeResonance, StepTooLarge,
                            TangentialResonance)

GOLDEN_SIGMA_KA5 = 2.4680822290702498


def _three_layer_stack(al_layer):
    """Aluminium, fibre composite and steel, as in the benchmark's sweep."""
    return (cw.LayerTI(0.3, 0.6, al_layer.rho, al_layer.c11, al_layer.c12,
                       al_layer.c13, al_layer.c33, al_layer.c44),
            cw.LayerTI(0.6, 0.8, 1.6, 6.6, 3.2, 2.8, 64.8, 3.2),
            cw.LayerTI.isotropic(0.8, 1.0, 7.85, 37.0, 37.0))


@pytest.fixture(scope="module")
def ka5_integrate(al_layer):
    return cw.solve_scattering(cw.ScatteringConfig(
        layers=(al_layer,), ka=5.0, scheme="lp4", steps=500))


@pytest.fixture(scope="module")
def ka5_recursion(al_layer):
    return cw.solve_scattering(cw.ScatteringConfig(
        layers=(al_layer,), ka=5.0, method="recursion"))


class TestScalarImpedance:
    def test_diagonal_passthrough(self):
        z = np.diag([4.2 + 0.3j, 1.0, 2.0])
        assert cw.scalar_impedance_z0(z) == pytest.approx(4.2 + 0.3j)

    def test_scalar_block(self):
        assert cw.scalar_impedance_z0(np.array([[7.0 + 1j]])) == 7.0 + 1j

    def test_hermitian_gives_real(self):
        rng = np.random.default_rng(73)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = 0.5 * (x + x.conj().T)
        assert abs(cw.scalar_impedance_z0(h).imag) < 1e-12

    def test_axial_decoupling_reduces_to_inplane(self, al_layer):
        # at kz=0 the 3x3 impedance is block diagonal, so the Schur
        # complement only sees the in-plane 2x2
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.0)
        z3 = cw.ti_conditional_impedance(1, al_layer, ctx, 1.0).z
        a = cw.scalar_impedance_z0(z3)
        b = cw.scalar_impedance_z0(z3[:2, :2])
        assert a == pytest.approx(b, rel=1e-12)

    def test_tangential_resonance(self):
        z = np.zeros((3, 3), dtype=complex)
        z[0, 0] = 1.0
        z[0, 1] = z[1, 0] = 1.0
        with pytest.raises(TangentialResonance):
            cw.scalar_impedance_z0(z)

    def test_accepts_wrapper(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=0, kz=0.0)
        zc = cw.ti_conditional_impedance(1, al_layer, ctx, 1.0)
        assert cw.scalar_impedance_z0(zc) == pytest.approx(
            cw.scalar_impedance_z0(zc.z))


class TestCoefficient:
    def test_pressure_release_limit(self):
        for n, ka in [(0, 0.5), (2, 5.0)]:
            want = -(cw.cyl_f(cw.KIND_J, n, ka) / cw.cyl_f(cw.KIND_H1, n, ka))
            assert cw.scattering_coefficient(n, ka, 1.0, 0.0) \
                == pytest.approx(want, rel=1e-14)

    def test_rigid_limit(self):
        for n, ka in [(0, 1.0), (3, 5.0)]:
            want = -(cw.cyl_f_prime(cw.KIND_J, n, ka)
                     / cw.cyl_f_prime(cw.KIND_H1, n, ka))
            got = cw.scattering_coefficient(n, ka, 1.0, 1e12)
            assert got == pytest.approx(want, rel=1e-6)

    def test_unitarity_for_real_impedance(self):
        # |1 + 2B| = 1 whenever z0 is real (lossless surface)
        for z0 in (0.0, 1e-6, 3.7, -12.0, 1e8):
            for n, ka in [(0, 1.0), (4, 7.0)]:
                b = cw.scattering_coefficient(n, ka, 1.0, z0)
                assert abs(abs(1 + 2 * b) - 1) < 1e-12

    def test_rejects_bad_ka(self):
        for ka in (0.0, -1.0, math.nan, math.inf):
            for call in (lambda: cw.scattering_coefficient(0, ka, 1.0, 0.0),
                         lambda: cw.form_function(0.0, (0.1,), ka),
                         lambda: cw.total_cross_section((0.1,), ka)):
                with pytest.raises(ValueError,
                                   match="^ka must be positive and finite$"):
                    call()


class TestFormFunction:
    def test_empty_sum(self):
        assert cw.form_function(0.3, (), 5.0) == 0.0

    def test_monopole_is_isotropic(self):
        b0 = 0.2 - 0.1j
        th = np.linspace(0, np.pi, 7)
        f = cw.form_function(th, (b0,), 4.0)
        assert_allclose(f, -1j * b0 / 2.0, atol=1e-15)

    def test_angular_weighting(self):
        b = (0.0, 0.5)
        f = cw.form_function(np.array([0.0, np.pi / 2, np.pi]), b, 1.0)
        assert f[1] == pytest.approx(0.0, abs=1e-16)
        assert f[0] == pytest.approx(-f[2])

    def test_scalar_input_scalar_output(self):
        out = cw.form_function(0.0, (0.1,), 2.0)
        assert isinstance(out, complex)


class TestPressureField:
    def test_plane_wave_jacobi_anger(self):
        # with no scatterer the field is K k exp(i k r cos theta); the
        # reference is its Jacobi-Anger series sum_n eps_n i^n J_n(kr)
        # cos(n theta), summed here to 200 orders past kr, where J_n(kr)
        # is far below the rounding of the sum
        ka = 0.8
        for kr in (1.0, 3.7, 10.0, 55.0, 300.0, 1000.0, 2000.0):
            r = kr / ka
            x = ka * r  # the argument pressure_field forms
            n = np.arange(int(x) + 200)
            jn = special.jv(n, x)
            assert abs(jn[-1]) < 1e-20
            series = np.where(n == 0, 1.0, 2.0) * np.array(
                [1, 1j, -1, -1j])[n % 4] * jn
            for th in (0.0, 1.1, 2.5, np.pi, -0.4):
                terms = series * np.cos(n * th)
                want = ka * complex(math.fsum(terms.real),
                                    math.fsum(terms.imag))
                got = cw.pressure_field((r, th), (), ka)
                assert abs(got - want) < 1e-12 * abs(want), (kr, th)

    def test_interior_rejected(self):
        with pytest.raises(InteriorPoint):
            cw.pressure_field((0.8, 0.0), (), 2.0)

    @pytest.mark.parametrize("point, ka, text", [
        ((math.nan, 0.0), 2.0, "points must be finite"),
        ((math.inf, 0.0), 2.0, "points must be finite"),
        ((1.5, math.nan), 2.0, "points must be finite"),
        ((1.5, 0.0), -1.0, "ka must be positive and finite"),
        ((1.5, 0.0), math.nan, "ka must be positive and finite"),
        ((1.5, 0.0), 0.0, "ka must be positive and finite")])
    def test_refuses_what_it_cannot_evaluate(self, ka5_recursion, point, ka,
                                             text):
        # refused before the interior test, never evaluated to NaN
        for pts in (point, [(0.8, 0.0), point]):
            with pytest.raises(ValueError, match=text):
                cw.pressure_field(pts, ka5_recursion.b, ka)

    def test_point_and_batch_shapes(self):
        single = cw.pressure_field((1.5, 0.3), (), 2.0)
        batch = cw.pressure_field([(1.5, 0.3), (2.0, 0.0)], (), 2.0)
        assert np.isscalar(single) or single.shape == ()
        assert batch.shape == (2,)
        assert batch[0] == pytest.approx(single)

    def test_far_field_matches_form_function(self, ka5_recursion):
        b = ka5_recursion.b
        ka = ka5_recursion.ka

        def check(kr, thetas, tol):
            r = kr / ka
            pts = [(r, th) for th in thetas]
            total = cw.pressure_field(pts, b, ka)
            incident = cw.pressure_field(pts, (), ka)
            scat = np.abs(total - incident)
            f = np.abs(cw.form_function(np.array(thetas), b, ka))
            want = ka * math.sqrt(2.0 / (math.pi * kr)) * math.sqrt(ka) * f
            assert np.max(np.abs(scat - want) / want) < tol

        check(400.0, [0.0], 0.01)
        check(2000.0, [0.0, np.pi / 3, np.pi], 0.01)


class TestSolve:
    def test_golden_cross_section(self, ka5_integrate):
        assert ka5_integrate.ka == 5.0
        assert ka5_integrate.sigma_tot == pytest.approx(GOLDEN_SIGMA_KA5,
                                                        abs=1e-9)

    def test_scheme_insensitivity(self, al_layer, ka5_integrate):
        alt = cw.solve_scattering(cw.ScatteringConfig(
            layers=(al_layer,), ka=5.0, scheme="exp2a", steps=500))
        assert abs(alt.sigma_tot - ka5_integrate.sigma_tot) < 1e-4

    def test_routes_agree(self, ka5_integrate, ka5_recursion):
        assert abs(ka5_recursion.sigma_tot - ka5_integrate.sigma_tot) < 1e-6
        n = min(len(ka5_recursion.b), len(ka5_integrate.b))
        db = np.abs(np.array(ka5_recursion.b[:n])
                    - np.array(ka5_integrate.b[:n]))
        assert db.max() < 1e-6

    def test_routes_agree_past_the_norm_guard(self, al_layer):
        # the tail orders at ka = 6 have h*|Q|_2 > 20 at the default steps;
        # the balanced guard lets the march through them
        integ = cw.solve_scattering(cw.ScatteringConfig((al_layer,), ka=6.0))
        recur = cw.solve_scattering(cw.ScatteringConfig(
            (al_layer,), ka=6.0, method="recursion"))
        assert integ.sigma_tot == pytest.approx(recur.sigma_tot, rel=1e-9)

    @pytest.mark.parametrize("scheme", ["lp4", "exp2a", "mg4"])
    @pytest.mark.parametrize("stack", ["solid", "three-layer"])
    def test_stacked_orders_equal_per_order_marches(self, al_layer, stack,
                                                    scheme):
        # the integrate route marches all orders in one stack; each B_n must
        # be what a march of that order alone gives
        if stack == "solid":
            layers, ka = (al_layer,), 5.0
        else:
            layers, ka = _three_layer_stack(al_layer), 2.5
        res = cw.solve_scattering(cw.ScatteringConfig(layers, ka=ka,
                                                      scheme=scheme))
        profile = cw.RadialProfile.piecewise(
            [(lay.r_inner, lay.r_outer, lay.material()) for lay in layers])
        for n, bn in enumerate(res.b):
            z_in = cw.ti_conditional_impedance(
                1, layers[0], cw.WaveContext(omega=ka, n=n, m=3),
                layers[0].r_inner).z[:2, :2]
            za = cw.integrate_impedance(
                profile, cw.WaveContext(omega=ka, n=n, m=2), z_in,
                layers[0].r_inner, 1.0, 500, scheme)
            want = cw.scattering_coefficient(n, ka, 1.0,
                                             cw.scalar_impedance_z0(za))
            assert abs(bn - want) <= 1e-13, n

    @pytest.mark.parametrize("ka", [1.0, 3.0])
    def test_three_layer_routes_agree(self, al_layer, ka):
        # the default 500 lp4 steps put neither interface on an even grid;
        # each layer's own grid keeps the march at fourth order
        layers = _three_layer_stack(al_layer)
        integ = cw.solve_scattering(cw.ScatteringConfig(layers, ka=ka))
        recur = cw.solve_scattering(cw.ScatteringConfig(layers, ka=ka,
                                                        method="recursion"))
        assert integ.sigma_tot == pytest.approx(recur.sigma_tot, rel=1e-9)

    @pytest.mark.parametrize("steps, n_max, n_bad, error, sigma", [
        # order 20 on fails the step guard at h = 0.25
        (2, 60, 20, StepTooLarge, 3.6093494578422787),
        # order 185 on fails the step guard at h = 0.025, and orders past
        # 60 warn about the Bessel range
        (20, 200, 200, StepTooLarge, 3.609350637714381),
    ])
    def test_orders_past_the_stop_never_fail(self, al_layer, monkeypatch,
                                             steps, n_max, n_bad, error,
                                             sigma):
        # with the estimate at the cap the integrate route marches every
        # order up to n_max, but the walk stops after n = 8 and must raise
        # and warn for none past it
        monkeypatch.setattr(scatter, "_estimate", lambda ka, cap: cap)
        profile = cw.RadialProfile.uniform(al_layer.material(), 0.5, 1.0)
        with pytest.raises(error), warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyLoss)
            z_in = cw.ti_conditional_impedance(
                1, al_layer, cw.WaveContext(omega=1.0, n=n_bad, m=3), 0.5).z
            cw.integrate_impedance(profile,
                                   cw.WaveContext(omega=1.0, n=n_bad, m=2),
                                   z_in[:2, :2], 0.5, 1.0, steps, "lp4")
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyLoss)
            res = cw.solve_scattering(cw.ScatteringConfig(
                (al_layer,), ka=1.0, steps=steps, n_max=n_max))
        assert len(res.b) == 9
        assert res.sigma_tot == pytest.approx(sigma, rel=1e-12)

    def test_recursion_orders_past_the_stop_never_fail(self, al_layer,
                                                       monkeypatch):
        # with the estimate at the cap the recursion route also computes
        # every order up to n_max: orders past 60 warn about the Bessel
        # range, and from order 107 on the {J, H1} displacement blocks are
        # degenerate, as they are in any basis pair
        monkeypatch.setattr(scatter, "_estimate", lambda ka, cap: cap)
        with pytest.raises(BasisDegenerate), warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyLoss)
            cw.global_twopoint([al_layer], cw.WaveContext(omega=1.0, n=200))
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyLoss)
            res = cw.solve_scattering(cw.ScatteringConfig(
                (al_layer,), ka=1.0, n_max=200, method="recursion"))
        assert len(res.b) == 9
        assert res.sigma_tot == pytest.approx(3.6093506376373337, rel=1e-12)

    @pytest.mark.parametrize("ka", [1.3, 3.7, 6.1, 8.9, 11.4])
    def test_stacked_recursion_equals_per_order_composition(self, al_layer,
                                                            ka):
        layers = _three_layer_stack(al_layer)
        res = cw.solve_scattering(cw.ScatteringConfig(layers, ka=ka,
                                                      method="recursion"))
        scale = max(abs(bn) for bn in res.b)
        for n, bn in enumerate(res.b):
            ctx = cw.WaveContext(omega=ka, n=n)
            z_in = cw.ti_conditional_impedance(1, layers[0], ctx, 0.3)
            z = cw.conditional_from_twopoint(cw.global_twopoint(layers, ctx),
                                             z_in)
            want = cw.scattering_coefficient(n, ka, 1.0,
                                             cw.scalar_impedance_z0(z))
            assert abs(bn - want) <= 1e-13 * scale, n

    def test_axial_moduli_do_not_scatter(self):
        # at kz = 0 only c11, c12 and c66 reach the in-plane motion; with
        # c44 > c11 the kz = 0 paths once took the axial wavenumber for the
        # in-plane one
        want = None
        for c13, c44 in ((0.0, 4.0), (0.0, 21.0), (5.0, 30.0)):
            layer = cw.LayerTI(0.5, 1.0, 1.0, 20.0, 12.0, c13, 20.0, c44)
            for method in ("recursion", "integrate"):
                got = cw.solve_scattering(cw.ScatteringConfig(
                    (layer,), ka=1.0, method=method)).sigma_tot
                want = got if want is None else want
                assert got == pytest.approx(want, rel=1e-12), (c44, method)

    def test_lossy_moduli_refused_on_integrate(self):
        # all moduli scaled by (1 - 0.02i): dissipative under e^{-i omega t};
        # the recursion route takes them, the integrate route refuses them
        # with a typed error before any work
        layers = (cw.LayerTI.isotropic(0.5, 1.0, 2.7, 30.0 * (1 - 0.02j),
                                       12.0 * (1 - 0.02j)),)
        with pytest.raises(DomainError, match='method="recursion"'):
            cw.solve_scattering(cw.ScatteringConfig(layers, ka=3.0))
        res = cw.solve_scattering(cw.ScatteringConfig(layers, ka=3.0,
                                                      method="recursion"))
        assert res.sigma_tot == pytest.approx(6.6348, abs=1e-4)
        gains = [abs(1 + 2 * bn) for bn in res.b]
        assert max(gains) <= 1.0 + 1e-12 and min(gains) < 0.999

    def test_failure_of_a_reached_order_is_raised(self, al_layer):
        with pytest.raises(StepTooLarge):
            cw.solve_scattering(cw.ScatteringConfig(
                (al_layer,), ka=100.0, steps=1, n_max=3))

    def test_unitarity_of_solution(self, ka5_recursion):
        for bn in ka5_recursion.b:
            assert abs(abs(1 + 2 * bn) - 1) < 1e-10

    @pytest.mark.parametrize("ka", [1.0, 5.0])
    def test_optical_theorem(self, al_layer, ka):
        res = cw.solve_scattering(cw.ScatteringConfig(
            layers=(al_layer,), ka=ka, method="recursion"))
        # sigma from Im f(0) vs the partial-wave power sum
        s2 = 4 * math.pi / (ka * math.sqrt(ka)) * sum(
            (1.0 if n == 0 else 2.0) * abs(bn) ** 2
            for n, bn in enumerate(res.b))
        assert res.sigma_tot == pytest.approx(s2, rel=1e-8)

    def test_truncation_stability(self, al_layer, ka5_recursion):
        longer = cw.solve_scattering(cw.ScatteringConfig(
            layers=(al_layer,), ka=5.0, method="recursion",
            n_max=2 * math.ceil(5.0) + 17))
        assert abs(longer.sigma_tot - ka5_recursion.sigma_tot) < 1e-8

    def test_f_samples_layout(self, ka5_recursion):
        angles = [s[0] for s in ka5_recursion.f_samples]
        assert angles == [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4,
                          math.pi]
        f0 = cw.form_function(0.0, ka5_recursion.b, 5.0)
        assert ka5_recursion.f_samples[0][1] == pytest.approx(f0)

    def test_pressure_release_core(self, al_layer):
        res = cw.solve_scattering(cw.ScatteringConfig(
            layers=(al_layer,), ka=2.0, method="recursion", inner_impedance=0.0))
        assert res.sigma_tot > 0
        for bn in res.b:
            assert abs(abs(1 + 2 * bn) - 1) < 1e-9

    @pytest.mark.filterwarnings("ignore::cylwave.errors.AccuracyLoss")
    def test_quasi_fluid_layer_matches_fluid_column(self):
        """A vanishing-shear annulus must scatter like a fluid shell.

        Pressure-release inner surface at r=b; the closed-form column
        impedance follows from a J/Y pressure ansatz in the shell.
        """
        lam, rho, b_in = 2.25, 1.0, 0.5
        omega = 3.0
        layer = cw.LayerTI.isotropic(b_in, 1.0, rho, lam, 1e-8)
        res = cw.solve_scattering(cw.ScatteringConfig(
            layers=(layer,), ka=omega, method="recursion",
            inner_impedance=0.0, n_max=6))

        kc = omega / math.sqrt(lam / rho)
        for n in range(3):
            a_c = cw.cyl_f(cw.KIND_Y, n, kc * b_in)
            c_c = -cw.cyl_f(cw.KIND_J, n, kc * b_in)
            num = a_c * cw.cyl_f(cw.KIND_J, n, kc) \
                + c_c * cw.cyl_f(cw.KIND_Y, n, kc)
            den = a_c * cw.cyl_f_prime(cw.KIND_J, n, kc) \
                + c_c * cw.cyl_f_prime(cw.KIND_Y, n, kc)
            z0 = lam * kc * num / den
            want = cw.scattering_coefficient(n, omega, 1.0, z0)
            assert abs(res.b[n] - want) < 1e-4 * max(abs(want), 1e-3), n

    def test_inner_impedance_shapes(self, al_layer):
        two = cw.solve_scattering(cw.ScatteringConfig(
            layers=(al_layer,), ka=1.0, method="recursion",
            inner_impedance=np.zeros((2, 2)), n_max=3))
        assert len(two.b) >= 1
        with pytest.raises(ValueError):
            cw.solve_scattering(cw.ScatteringConfig(
                layers=(al_layer,), ka=1.0, method="recursion",
                inner_impedance=np.zeros((4, 4)), n_max=3))

    def test_config_validation(self, al_layer):
        with pytest.raises(ValueError):
            cw.ScatteringConfig(layers=(), ka=1.0)
        with pytest.raises(ValueError):
            cw.ScatteringConfig(layers=(al_layer,), ka=0.0)
        with pytest.raises(ValueError):
            cw.ScatteringConfig(layers=(al_layer,), ka=1.0, steps=0)
        for ka in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cw.ScatteringConfig(layers=(al_layer,), ka=ka)
        with pytest.raises(ValueError):
            cw.ScatteringConfig(layers=(al_layer,), ka=1.0, method="magic")

    @pytest.mark.parametrize("method", ["integrate", "recursion"])
    @pytest.mark.parametrize("bad, match", [
        (dict(gap=1e-10), "layers must be contiguous"),
        (dict(steps=2.5), "steps must be >= 1"),
        (dict(steps=np.float64(10.0)), "steps must be >= 1"),
        (dict(n_max=2.5), "n_max must be >= 0"),
        (dict(n_max=-1), "n_max must be >= 0"),
        (dict(scheme="nope"), "unknown scheme"),
        *((dict(layer=dict(rho=rho)), "density must be positive and finite")
          for rho in (math.nan, math.inf, 0.0, -1.0)),
        (dict(layer=dict(c44=math.nan)), "stiffness moduli must be finite"),
        (dict(layer=dict(c11=math.inf)), "stiffness moduli must be finite"),
    ], ids=["gap", "float-steps", "float64-steps", "float-n_max",
            "negative-n_max", "scheme", "rho-nan", "rho-inf", "rho-zero",
            "rho-negative", "c44-nan", "c11-inf"])
    def test_config_refuses_what_a_route_fails_on(self, al_layer, method,
                                                  bad, match):
        # both routes refuse the same settings, with one message, before
        # either solves: a layer whose density is not positive and finite or
        # whose moduli are not finite, a gap past RadialProfile.piecewise's
        # 1e-12, a step count or order cap that is not an integer in range,
        # an unknown scheme
        bad = dict(bad)
        gap = bad.pop("gap", 0.0)
        layer = bad.pop("layer", {})
        with pytest.raises(ValueError, match=match):
            inner = replace(al_layer, r_outer=0.75, **layer)
            outer = replace(al_layer, r_inner=0.75 + gap)
            cw.ScatteringConfig((inner, outer), ka=1.0, method=method, **bad)

    @pytest.mark.parametrize("method", ["integrate", "recursion"])
    def test_config_takes_numpy_integers(self, al_layer, method):
        want = cw.solve_scattering(cw.ScatteringConfig(
            (al_layer,), ka=1.0, steps=40, n_max=4, method=method))
        got = cw.solve_scattering(cw.ScatteringConfig(
            (al_layer,), ka=1.0, steps=np.int64(40), n_max=np.int32(4),
            method=method))
        assert got == want

    def test_fluid_halfspace_validation(self):
        for k in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError,
                               match="wavenumber must be positive and finite"):
                cw.FluidHalfSpace(k=k)
        assert cw.FluidHalfSpace(k=2.0).K == 1.0


class TestStackedSweep:
    """solve_sweep puts every (ka, n) of a run of consecutive ka on one
    stack; each ka must come out as solve_scattering at that ka alone."""

    @pytest.mark.parametrize("method", ["recursion", "integrate"])
    @pytest.mark.parametrize("case", ["three-layer", "n_max", "two-stacks"])
    def test_each_ka_equals_its_own_solve(self, al_layer, method, case):
        steps = 500
        if case == "three-layer":  # n_cap differs from ka to ka
            layers, kas, n_max = (_three_layer_stack(al_layer),
                                  np.linspace(0.5, 12.0, 10), None)
        elif case == "n_max":
            layers, kas, n_max = (al_layer,), np.linspace(1.0, 6.0, 5), 20
        else:
            layers, kas, n_max = (al_layer,), np.linspace(0.5, 20.0, 30), None
            steps = 100
        config = cw.ScatteringConfig(layers, ka=1.0, method=method,
                                     steps=steps, n_max=n_max)
        # runs are formed from the estimated orders 0..n_est of each ka
        caps = [n_max or 2 * math.ceil(ka) + 12 for ka in kas]
        runs = list(scatter._runs([scatter._estimate(ka, cap) + 1
                                   for ka, cap in zip(kas, caps)]))
        assert len(runs) == (1 if case != "two-stacks" else 2)
        got = cw.solve_sweep(config, kas)
        assert [res.ka for res in got] == list(kas)
        for ka, res in zip(kas, got):
            want = cw.solve_scattering(replace(config, ka=ka))
            assert res.b == want.b, ka
            assert res.sigma_tot == want.sigma_tot, ka
            assert res.f_samples == want.f_samples, ka

    @pytest.mark.parametrize("method", ["recursion", "integrate"])
    def test_first_failing_ka_raises(self, al_layer, method):
        # ka = 0.001 meets a spurious in-plane pole at its inner surface;
        # at ka = 100 one step trips the step guard on the integrate route
        config = cw.ScatteringConfig((al_layer,), ka=1.0, method=method,
                                     steps=1, n_max=3)
        with pytest.raises(ModeResonance):
            cw.solve_sweep(config, [0.5, 0.001])
        with pytest.raises(ModeResonance):
            cw.solve_sweep(config, [0.001, 100.0])
        if method == "integrate":
            with pytest.raises(StepTooLarge):
                cw.solve_sweep(config, [100.0, 0.001])

    @pytest.mark.parametrize("solve", [
        lambda config: cw.solve_scattering(config),
        lambda config: cw.solve_sweep(config, [1.0, config.ka])],
        ids=["solve_scattering", "solve_sweep"])
    def test_deferred_warnings_point_at_the_caller(self, al_layer, solve):
        # ka = 250 is past the validated argument range of the fluid's
        # tables; the walk's warnings name the line that called the solve
        with pytest.warns(AccuracyLoss) as record:
            solve(cw.ScatteringConfig(
                (al_layer,), ka=250.0, method="recursion", n_max=3))
        assert {w.filename for w in record} == {__file__}

    @pytest.mark.parametrize("method, steps", [("recursion", 500),
                                               ("integrate", 20)])
    def test_orders_past_each_stop_never_fail(self, al_layer, monkeypatch,
                                              method, steps):
        # with the estimate at the cap both ka share a stack of 402
        # entries; orders past 60 warn, and from 107 (recursion) or 185
        # (integrate, 20 steps) they fail, but each walk stops after n = 8
        monkeypatch.setattr(scatter, "_estimate", lambda ka, cap: cap)
        config = cw.ScatteringConfig((al_layer,), ka=1.0, method=method,
                                     steps=steps, n_max=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyLoss)
            got = cw.solve_sweep(config, [1.0, 1.0])
            want = cw.solve_scattering(config)
        assert got == [want, want]
        assert len(want.b) == 9


class TestTwoPasses:
    """A solve first solves orders 0..n_est of each ka on one stack, n_est
    the estimated stop of its walk (scatter._estimate), then orders
    n_est+1..cap of each ka whose walk has not stopped by n_est.  It must
    give what one stack of every order up to the cap gives, bit for bit."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The lowest order of each ka of every stack solved."""
        stacked, lows = scatter._stacked, []
        monkeypatch.setattr(scatter, "_stacked", lambda config, spans: (
            lows.append([lo for _, lo, _ in spans]) or stacked(config, spans)))
        return lows

    @pytest.mark.parametrize("method", ["recursion", "integrate"])
    @pytest.mark.parametrize("case", ["aluminium", "three-layer", "n_max"])
    @pytest.mark.parametrize("estimate", ["own", "forced-pass-2"])
    def test_equals_every_order_on_one_stack(self, al_layer, monkeypatch,
                                             passes, method, case, estimate):
        if case == "aluminium":
            layers, kas, n_max = (al_layer,), [0.3, 1.51, 3.7, 8.0], None
        elif case == "three-layer":  # as one sweep
            layers, kas, n_max = (_three_layer_stack(al_layer),
                                  np.linspace(0.5, 12.0, 10), None)
        else:
            layers, kas, n_max = (al_layer,), [1.0, 4.0, 6.0], 12
        config = cw.ScatteringConfig(layers, ka=1.0, method=method,
                                     n_max=n_max)

        def solve():
            if case == "three-layer":
                return cw.solve_sweep(config, kas)
            return [cw.solve_scattering(replace(config, ka=ka)) for ka in kas]

        with monkeypatch.context() as patch:
            patch.setattr(scatter, "_estimate", lambda ka, cap: cap)
            want = solve()
        passes.clear()
        if estimate == "forced-pass-2":
            monkeypatch.setattr(scatter, "_estimate",
                                lambda ka, cap: min(2, cap))
        got = solve()
        for res, ref in zip(got, want):
            assert res.b == ref.b and len(res.b) > 3, res.ka
            assert res.sigma_tot == ref.sigma_tot, res.ka
            assert res.f_samples == ref.f_samples, res.ka
        # with its own estimate no walk reads past n_est here; at n_est = 2
        # every walk does
        second = [lo for lo in passes if any(lo)]
        assert len(second) == (0 if estimate == "own" else len(passes) // 2)
        if estimate == "forced-pass-2":
            assert all(lo == [3] * len(lo) for lo in second)

    @pytest.mark.parametrize("method", ["recursion", "integrate"])
    def test_estimate_covers_the_walk(self, al_layer, method):
        # the walk stops at or before the estimate, which the soft and rigid
        # cylinders' |B_n| set from the fluid side alone: from ka = 0.05 to
        # 12 it asks for 0-2 orders more than the walk reads
        for ka in (0.05, 0.3, 1.0, 1.51, 2.3, 3.7, 5.0, 8.0, 12.0):
            cap = 2 * math.ceil(ka) + 12
            est = scatter._estimate(ka, cap)
            res = cw.solve_scattering(cw.ScatteringConfig(
                (al_layer,), ka=ka, method=method))
            assert len(res.b) <= est + 1 <= len(res.b) + 2 < cap, ka
        # no order n >= 1 up to the cap qualifies: the cap
        assert scatter._estimate(30.0, 5) == 5
        assert scatter._estimate(1.0, 0) == 0

    @pytest.mark.parametrize("method", ["recursion", "integrate"])
    def test_estimate_scans_the_default_cap_first(self, al_layer,
                                                  monkeypatch, method):
        # an n_max of 10**5 at ka = 1 asks scipy for the orders up to the
        # default cap, 14, which hold the stop, and no further
        config = cw.ScatteringConfig((al_layer,), ka=1.0, method=method)
        want = cw.solve_scattering(config)
        asked = []

        def recorded(fn):
            return lambda n, x: asked.append(np.array(n)) or fn(n, x)
        monkeypatch.setattr(scatter, "special", types.SimpleNamespace(**{
            name: recorded(getattr(special, name))
            for name in ("jv", "hankel1", "jvp", "h1vp")}))
        got = cw.solve_scattering(replace(config, n_max=10 ** 5))
        assert len(asked) == 4
        assert all(np.array_equal(n, np.arange(15)) for n in asked)
        assert got == want

    @pytest.mark.parametrize("tail", [1e-10, 1e-40])
    def test_estimate_equals_one_scan_to_the_cap(self, monkeypatch, tail):
        # caps below, at and past the default cap (14 at ka = 1, 22 at
        # ka = 5); with a tail of 1e-40 the stop lies past the default cap
        # (20 at ka = 1, 33 at ka = 5), so the scan goes on to the cap
        monkeypatch.setattr(scatter, "_B_TAIL", tail)
        for ka in (0.05, 1.0, 5.0):
            for cap in (0, 1, 3, 9, 13, 14, 15, 21, 22, 40, 60):
                n = np.arange(cap + 1)
                with np.errstate(all="ignore"):
                    b = np.maximum(
                        np.abs(special.jv(n, ka) / special.hankel1(n, ka)),
                        np.abs(special.jvp(n, ka) / special.h1vp(n, ka)))
                stop = scatter._stop(b, tail / 100)
                want = cap if stop is None else stop
                assert scatter._estimate(ka, cap) == want, (ka, cap)
        assert scatter._estimate(1.0, 60) == (20 if tail < 1e-10 else 9)

    def test_error_past_the_estimate_raised_only_when_reached(
            self, al_layer, monkeypatch):
        # at 2 steps orders 20 on fail the step guard (see TestSolve); with
        # n_est = 5 the walk does not stop in the first pass, so they are
        # marched in the second.  The walk stops after n = 8 and raises
        # nothing; with a tail of 0 it never stops, reads orders 0..19 to
        # a cap of 19 and raises order 20's error, as a march of order 20
        # alone does, to a cap of 30
        monkeypatch.setattr(scatter, "_estimate", lambda ka, cap: 5)
        config = cw.ScatteringConfig((al_layer,), ka=1.0, steps=2, n_max=30)
        assert len(cw.solve_scattering(config).b) == 9
        z_in = cw.ti_conditional_impedance(
            1, al_layer, cw.WaveContext(omega=1.0, n=20, m=3), 0.5).z
        with pytest.raises(StepTooLarge) as alone:
            cw.integrate_impedance(
                cw.RadialProfile.uniform(al_layer.material(), 0.5, 1.0),
                cw.WaveContext(omega=1.0, n=20, m=2), z_in[:2, :2], 0.5, 1.0,
                2, "lp4")
        monkeypatch.setattr(scatter, "_B_TAIL", 0.0)
        assert len(cw.solve_scattering(replace(config, n_max=19)).b) == 20
        with pytest.raises(StepTooLarge) as err:
            cw.solve_scattering(config)
        assert str(err.value) == str(alone.value)


def _sweep_stack(al_layer):
    """The benchmark sweep's stack: aluminium, fibre composite and steel
    with E = 200 GPa and G = 80 GPa."""
    steel = 80.0e9 / cw.MODULUS_SCALE
    return _three_layer_stack(al_layer)[:2] + (
        cw.LayerTI.isotropic(0.8, 1.0, 7.85, steel, steel),)


class TestGroupedMarch:
    """The march fuses each group of 8 steps into one Moebius update; the
    B_n of the integrate route keep their distance from the recursion
    route."""

    # max |B_n - B_n(recursion)| of lp4 at 500 steps when the march ran one
    # Moebius update per step: aluminium over the benchmark's ka range of
    # one-ka solves, and the benchmark sweep's stack
    @pytest.mark.parametrize("stack, ka, per_step", [
        ("aluminium", 1.0, 2.162e-14), ("aluminium", 1.7, 2.892e-15),
        ("aluminium", 2.6, 7.242e-15), ("aluminium", 3.4, 4.038e-14),
        ("aluminium", 4.3, 4.073e-13), ("aluminium", 5.0, 2.372e-12),
        ("sweep", 0.5, 8.645e-15), ("sweep", 1.0, 5.362e-14),
        ("sweep", 2.0, 5.749e-12), ("sweep", 4.0, 6.760e-10),
        ("sweep", 8.0, 3.823e-09), ("sweep", 12.0, 9.078e-09)])
    def test_distance_from_recursion(self, al_layer, stack, ka, per_step):
        layers = (al_layer,) if stack == "aluminium" else _sweep_stack(
            al_layer)
        march, closed = (cw.solve_scattering(cw.ScatteringConfig(
            layers, ka=ka, scheme="lp4", steps=500, method=method)).b
            for method in ("integrate", "recursion"))
        assert len(march) == len(closed)
        distance = max(abs(x - y) for x, y in zip(march, closed))
        # below 1e-14 a distance is the rounding of B_n, |B_n| <= 1
        assert distance <= max(2 * per_step, 1e-14)

    def test_growth_cap_keeps_the_all_step_distance(self, al_layer,
                                                    monkeypatch):
        # at ka = 25 the highest orders' group products pass the growth
        # cap, and those (group, order) pairs take their steps one at a
        # time; B_n stay as close to the recursion route as they do with
        # one Moebius update per step
        replayed = []
        stepwise = impedance._stepwise
        monkeypatch.setattr(impedance, "_stepwise", lambda w, mats: (
            replayed.append(len(w)) or stepwise(w, mats)))
        closed = cw.solve_scattering(cw.ScatteringConfig(
            (al_layer,), ka=25.0, method="recursion")).b

        def distance():
            march = cw.solve_scattering(cw.ScatteringConfig(
                (al_layer,), ka=25.0, scheme="lp4", steps=500)).b
            assert len(march) == len(closed)
            return max(abs(x - y) for x, y in zip(march, closed))

        grouped = distance()
        assert replayed
        monkeypatch.setattr(matricant, "_GROUP_STEPS", 1)
        monkeypatch.setattr(impedance, "_GROUP_STEPS", 1)
        assert grouped <= 2 * distance()
