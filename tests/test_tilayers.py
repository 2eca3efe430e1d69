import math
import types
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special
from scipy.special import jn_zeros

import cylwave as cw
from cylwave import cylfun, scatter
from cylwave.elastodyn import _ti_moduli
from cylwave.errors import (AccuracyLoss, BasisDegenerate, DomainError,
                            InterfaceResonance, KzZeroCoupling, ModeResonance)
from cylwave.tilayers import OrderStack, _layer_stack, _wavenumbers


def _ti_layer_b(r_in=0.75, r_out=1.0):
    return cw.LayerTI(r_in, r_out, 4.0, c11=60.0, c12=20.0, c13=12.0,
                      c33=55.0, c44=14.0)


class TestWavenumbers:
    def test_scalar_type_does_not_change_the_numbers(self):
        # a lossy layer's complex divisions round the same whether omega,
        # kz, r and the moduli come as Python or numpy scalars
        lam, mu = 26.7 * (1 - 0.02j), 11.8 * (1 - 0.02j)
        layer = cw.LayerTI.isotropic(0.5, 1.0, 2.7, lam, mu)
        solve = [cw.solve_scattering(cw.ScatteringConfig(
            (layer,), ka=ka, method="recursion"))
            for ka in (0.5, np.float64(0.5))]
        assert solve[0] == solve[1]
        layer64 = cw.LayerTI(*(np.asarray(getattr(layer, f))[()]
                               for f in ("r_inner", "r_outer", "rho", "c11",
                                         "c12", "c13", "c33", "c44")))
        assert isinstance(layer64.c11, np.complex128)
        assert isinstance(layer64.rho, np.float64)
        z = [cw.ti_conditional_impedance(1, lay, cw.WaveContext(
            omega=w, n=2, kz=kz), r).z
            for lay, w, kz, r in ((layer, 2.0, 0.7, 0.8),
                                  (layer64, np.float64(2.0), np.float64(0.7),
                                   np.float64(0.8)))]
        assert np.array_equal(z[0], z[1])

    def test_vieta_relations(self, ti_sampler):
        rng = np.random.default_rng(53)
        for _ in range(25):
            layer, omega, kz = ti_sampler(rng)
            wn = cw.ti_wavenumbers(layer, omega, kz)
            w2 = layer.rho * omega * omega
            c11, c44 = layer.c11, layer.c44
            prod = (w2 - layer.c33 * kz * kz) * (w2 - c44 * kz * kz) / (c11 * c44)
            summ = wn.a_aux / (c11 * c44)
            k1s, k2s = wn.k1 ** 2, wn.k2 ** 2
            assert abs(k1s * k2s - prod) <= 1e-10 * abs(prod)
            assert abs(k1s + k2s - summ) <= 1e-10 * abs(summ)
            k3s_want = (w2 - c44 * kz * kz) / layer.c66
            assert abs(wn.k3 ** 2 - k3s_want) <= 1e-12 * abs(k3s_want)

    def test_isotropic_dispersion(self):
        lam, mu, rho = 3.2, 1.1, 2.0
        layer = cw.LayerTI.isotropic(0.5, 1.0, rho, lam, mu)
        omega, kz = 4.0, 1.3
        wn = cw.ti_wavenumbers(layer, omega, kz)
        kp2 = rho * omega ** 2 / (lam + 2 * mu) - kz ** 2
        ks2 = rho * omega ** 2 / mu - kz ** 2
        assert wn.k1 ** 2 == pytest.approx(kp2, rel=1e-12)
        assert wn.k2 ** 2 == pytest.approx(ks2, rel=1e-12)
        assert wn.k3 ** 2 == pytest.approx(ks2, rel=1e-12)
        # coupling numbers carry one power of kz in this normalization
        assert wn.kappa1 == pytest.approx(kz, rel=1e-12)
        assert wn.kappa2 == pytest.approx(-ks2 / kz, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason="kappa here is kz-weighted; the "
                       "dimensionless convention would give kappa1 = 1")
    def test_isotropic_coupling_dimensionless_convention(self):
        layer = cw.LayerTI.isotropic(0.5, 1.0, 2.0, 3.2, 1.1)
        wn = cw.ti_wavenumbers(layer, 4.0, 1.3)
        assert wn.kappa1 == pytest.approx(1.0, rel=1e-12)

    def test_kz_zero_raises(self, al_layer):
        with pytest.raises(KzZeroCoupling):
            cw.ti_wavenumbers(al_layer, 5.0, 0.0)

    def test_kz_zero_limit(self, al_layer):
        wn = cw.ti_wavenumbers(al_layer, 5.0, 1e-9)
        w2 = al_layer.rho * 25.0
        assert wn.k1 ** 2 == pytest.approx(w2 / al_layer.c11, rel=1e-6)
        assert wn.k2 ** 2 == pytest.approx(w2 / al_layer.c44, rel=1e-6)
        assert wn.k3 ** 2 == pytest.approx(w2 / al_layer.c66, rel=1e-6)

    def test_evanescent_branch(self, al_layer):
        # kz beyond the shear branch: radial wavenumbers turn imaginary
        # with Im >= 0
        wn = cw.ti_wavenumbers(al_layer, 2.0, 2.0)
        for k in (wn.k1, wn.k2, wn.k3):
            assert k.imag >= 0
            if k.imag == 0:
                assert k.real > 0


class TestDisplacementMatrix:
    def test_third_column_has_no_axial_part(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=2, kz=0.6)
        x = cw.ti_displacement_matrix(1, al_layer, ctx, 0.8)
        assert x[2, 2] == 0.0

    def test_axisymmetric_zeros(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=0, kz=0.6)
        x = cw.ti_displacement_matrix(1, al_layer, ctx, 0.8)
        assert x[0, 2] == 0.0
        assert x[1, 0] == 0.0
        assert x[1, 1] == 0.0

    def test_kz0_column_structure(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=3, kz=0.0)
        x = cw.ti_displacement_matrix(1, al_layer, ctx, 0.8)
        assert x[0, 1] == 0.0 and x[1, 1] == 0.0
        assert x[2, 0] == 0.0 and x[2, 2] == 0.0
        assert x[2, 1] != 0.0

    @pytest.mark.parametrize("l", [1, 3])
    @pytest.mark.parametrize("kz", [0.0, 0.45])
    def test_basis_satisfies_state_ode(self, al_layer, al_profile, l, kz):
        """(X, Y) columns solve d/dr (U, V) = Q (U, V)."""
        ctx = cw.WaveContext(omega=5.0, n=2, kz=kz)
        h = 1e-6

        def state(r):
            return np.vstack([
                cw.ti_displacement_matrix(l, al_layer, ctx, r),
                cw.ti_traction_matrix(l, al_layer, ctx, r)])

        for r in (0.6, 0.9):
            fd = (state(r + h) - state(r - h)) / (2 * h)
            rhs = cw.q_matrix(al_profile, ctx, r).q @ state(r)
            assert np.max(np.abs(fd - rhs)) <= 1e-6 * np.max(np.abs(rhs))

    def test_traction_is_impedance_times_displacement(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        x = cw.ti_displacement_matrix(3, al_layer, ctx, 0.9)
        y = cw.ti_traction_matrix(3, al_layer, ctx, 0.9)
        z = cw.ti_conditional_impedance(3, al_layer, ctx, 0.9)
        assert_allclose(y + 1j * z.z @ x, 0, atol=1e-12 * np.max(np.abs(y)))


class TestConditionalImpedance:
    def test_hermitian_lossless(self, ti_sampler):
        rng = np.random.default_rng(59)
        worst = 0.0
        for _ in range(30):
            layer, omega, kz = ti_sampler(rng)
            ctx = cw.WaveContext(omega=omega, n=int(rng.integers(0, 6)), kz=kz)
            z = cw.ti_conditional_impedance(1, layer, ctx, layer.r_outer)
            worst = max(worst, cw.hermitian_residual(z.z))
        assert worst < 1e-9

    def test_hermitian_evanescent_orders(self, al_layer):
        # high orders at moderate ka: deeply evanescent partial waves
        ctx = cw.WaveContext(omega=5.0, n=12, kz=0.5)
        z = cw.ti_conditional_impedance(1, al_layer, ctx, 1.0)
        assert cw.hermitian_residual(z.z) < 1e-9

    def test_kz0_axial_decoupling(self, al_layer):
        ctx = cw.WaveContext(omega=6.0, n=2, kz=0.0)
        z = cw.ti_conditional_impedance(1, al_layer, ctx, 0.9).z
        assert z[0, 2] == 0.0 and z[2, 0] == 0.0
        assert z[1, 2] == 0.0 and z[2, 1] == 0.0
        assert z[2, 2] != 0.0

    def test_kz_continuation(self, al_layer):
        # the kz=0 branch is the limit of the generic one
        ctx0 = cw.WaveContext(omega=6.0, n=2, kz=0.0)
        ctx1 = cw.WaveContext(omega=6.0, n=2, kz=1e-6)
        z0 = cw.ti_conditional_impedance(1, al_layer, ctx0, 0.9).z
        z1 = cw.ti_conditional_impedance(1, al_layer, ctx1, 0.9).z
        assert np.max(np.abs(z1 - z0)) <= 1e-6 * np.max(np.abs(z0))

    def test_riccati_consistency(self, al_layer, al_profile):
        ctx = cw.WaveContext(omega=5.0, n=0, kz=0.0)
        h = 1e-6
        r = 0.75
        zp = cw.ti_conditional_impedance(1, al_layer, ctx, r + h).z
        zm = cw.ti_conditional_impedance(1, al_layer, ctx, r - h).z
        rhs = cw.riccati_rhs(cw.ti_conditional_impedance(1, al_layer, ctx, r),
                             cw.q_matrix(al_profile, ctx, r))
        assert np.max(np.abs((zp - zm) / (2 * h) - rhs)) \
            <= 1e-6 * np.max(np.abs(rhs))

    def test_mode_resonance_at_inplane_pole(self):
        # with k1 * r pinned to the first zero of J0' the n=0 in-plane
        # denominator x1 x3 vanishes
        layer = cw.LayerTI.isotropic(0.5, 1.0, 1.0, 0.5, 0.25)
        omega = jn_zeros(1, 1)[0]  # k1 = omega at unit dilatational speed
        ctx = cw.WaveContext(omega=float(omega), n=0, kz=0.0)
        with pytest.raises(ModeResonance):
            cw.ti_conditional_impedance(1, layer, ctx, 1.0)

    def test_mode_resonance_at_function_zero(self, al_layer, monkeypatch):
        # every cylinder-function value zero; k1 r < n = 1 reads as an
        # underflow, but k2 r and k3 r > n are true zeros
        monkeypatch.setattr("cylwave.cylfun._values",
                            lambda kind, orders, x: np.zeros(len(orders),
                                                             dtype=complex))
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        with pytest.raises(ModeResonance):
            cw.ti_conditional_impedance(1, al_layer, ctx, 0.9)

    def test_underflowed_bessel_orders(self, al_layer):
        # scipy's J_n(k r) underflows to 0 from n = 103 at omega = 1,
        # r = 0.5, where the true value is about 1.6e-292; z needs only
        # x J_n'/J_n, which the ratio J_(n+1)/J_n carries through.  The
        # reference evaluates the kz = 0 closed form in 30 digits
        for n in range(103, 201):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AccuracyLoss)
                z = cw.ti_conditional_impedance(
                    1, al_layer, cw.WaveContext(omega=1.0, n=n), 0.5).z
            with mpmath.workdps(30):
                xs = [mpmath.mpf(k.real) * mpmath.mpf(0.5)
                      for k in _wavenumbers(al_layer, 1.0, 0.0)[:3]]
                c44, c66 = mpmath.mpf(al_layer.c44), mpmath.mpf(al_layer.c66)
                x1, x2, x3 = (x * mpmath.besselj(n, x, derivative=1)
                              / mpmath.besselj(n, x) for x in xs)
                e = c66 * xs[2] ** 2 / (x1 * x3 - n * n)
                want = np.array([
                    [2 * c66 + x3 * e, 1j * n * (2 * c66 + e), 0],
                    [-1j * n * (2 * c66 + e), 2 * c66 + x1 * e, 0],
                    [0, 0, -c44 * x2]], dtype=object).astype(complex)
            assert np.max(np.abs(z - want)) <= 1e-12 * np.max(np.abs(want))
            assert cw.hermitian_residual(z) < 1e-12


class TestLayerTwoPoint:
    def test_hermitian_lossless(self, ti_sampler):
        rng = np.random.default_rng(61)
        worst = 0.0
        for _ in range(30):
            layer, omega, kz = ti_sampler(rng)
            ctx = cw.WaveContext(omega=omega, n=int(rng.integers(0, 6)), kz=kz)
            zz = cw.layer_twopoint(layer, ctx)
            worst = max(worst, cw.hermitian_residual(zz.z))
        assert worst < 1e-9

    def test_against_matricant_route(self, al_layer, al_profile):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        direct = cw.layer_twopoint(al_layer, ctx)
        m = cw.matricant_global(al_profile, ctx, 0.5, 1.0, 2000, "exp2a")
        via_m = cw.twopoint_from_matricant(m)
        err = np.max(np.abs(direct.z - via_m.z)) / np.max(np.abs(direct.z))
        assert err < 1e-7

    def test_column_scaling_invariance(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        base = cw.layer_twopoint(al_layer, ctx, basis=(1, 3))
        rng = np.random.default_rng(67)
        d = rng.uniform(0.1, 10.0, size=6)
        xx = np.block([
            [cw.ti_displacement_matrix(1, al_layer, ctx, 0.5),
             cw.ti_displacement_matrix(3, al_layer, ctx, 0.5)],
            [cw.ti_displacement_matrix(1, al_layer, ctx, 1.0),
             cw.ti_displacement_matrix(3, al_layer, ctx, 1.0)]]) * d
        yy = np.block([
            [cw.ti_traction_matrix(1, al_layer, ctx, 0.5),
             cw.ti_traction_matrix(3, al_layer, ctx, 0.5)],
            [-cw.ti_traction_matrix(1, al_layer, ctx, 1.0),
             -cw.ti_traction_matrix(3, al_layer, ctx, 1.0)]]) * d
        scaled = 1j * (yy @ cw.mat_inverse(xx))
        assert np.max(np.abs(scaled - base.z)) < 1e-9 * np.max(np.abs(base.z))

    def test_basis_choice_is_immaterial(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=2, kz=0.4)
        a = cw.layer_twopoint(al_layer, ctx, basis=(1, 3))
        b = cw.layer_twopoint(al_layer, ctx, basis=(1, 2))
        assert np.max(np.abs(a.z - b.z)) < 1e-8 * np.max(np.abs(a.z))

    def test_high_order_uses_fallback_transparently(self, al_layer):
        # at n=25 the J columns are tiny against H1; the column scaling of
        # the {J, H1} block keeps the default entry point's result finite
        # and Hermitian
        ctx = cw.WaveContext(omega=10.0, n=25, kz=0.0)
        zz = cw.layer_twopoint(al_layer, ctx)
        assert np.all(np.isfinite(zz.z))
        assert cw.hermitian_residual(zz.z) < 1e-8

    def test_each_bessel_table_evaluated_once(self, al_layer, monkeypatch):
        # a recursion solve makes one scipy call per (kind, argument
        # vector), an argument holding one value per ka of the stack; the
        # call covers orders 0..n_est+1 of each ka and no more, where
        # n_est = 15 is the estimated stop of the walk, which stops by then
        # and so needs no orders past it
        calls = []

        def counted(name):
            fn = getattr(special, name)

            def wrapper(orders, x):
                calls.append((name, np.array(orders), np.array(x)))
                return fn(orders, x)
            return wrapper

        fake = types.SimpleNamespace(**{
            name: counted(name) for name in ("jv", "yv", "yn", "hankel1",
                                             "hankel2")})
        monkeypatch.setattr(cylfun, "special", fake)
        hankel, kinds = cylfun._hankel, []
        monkeypatch.setattr(cylfun, "_hankel", lambda kind, j, y: (
            kinds.append(kind) or hankel(kind, j, y)))
        layers = (cw.LayerTI(0.3, 0.6, al_layer.rho, al_layer.c11,
                             al_layer.c12, al_layer.c13, al_layer.c33,
                             al_layer.c44),
                  cw.LayerTI(0.6, 0.8, 1.6, 6.6, 3.2, 2.8, 64.8, 3.2),
                  cw.LayerTI.isotropic(0.8, 1.0, 7.85, 37.0, 37.0))
        config = cw.ScatteringConfig(layers, ka=4.0, method="recursion")
        assert scatter._estimate(4.0, 20) == 15
        assert len(cw.solve_scattering(config).b) <= 16
        keys = [(name, x.tobytes()) for name, _, x in calls]
        assert len(set(keys)) == len(keys)
        assert all(np.array_equal(orders, np.arange(17))
                   for _, orders, _ in calls)
        assert all(np.all(x == x[0]) for _, _, x in calls)
        # J and H1 at each layer's wavenumbers and radii, and at ka, H1 as
        # J + iY from the J table and one yn call; never Y or H2, as the
        # recursion route builds every layer from {J, H1}
        want = {4.0 + 0j}
        for lay in layers:
            want |= {k * r for k in _wavenumbers(lay, 4.0, 0.0)[:3]
                     for r in (lay.r_inner, lay.r_outer)}
        args = {name: {complex(x[0]) for kind, _, x in calls if kind == name}
                for name in ("jv", "yv", "yn", "hankel1", "hankel2")}
        assert args["jv"] == args["yn"] == want
        assert not args["yv"] and not args["hankel1"] and not args["hankel2"]
        assert kinds == [cylfun.KIND_H1] * len(want)

        # the 10 ka of a benchmark window on one stack: as many calls as
        # about one ka alone, where solving them one by one costs ten times
        kas = np.linspace(0.5, 12.0, 10)
        one_by_one = 0
        for ka in kas:
            calls.clear()
            cw.solve_scattering(replace(config, ka=ka))
            one_by_one += len(calls)
        calls.clear()
        cw.solve_sweep(config, kas)
        keys = [(name, x.tobytes()) for name, _, x in calls]
        assert len(set(keys)) == len(keys)
        # orders 0..n_est+1 of each ka; no walk passes its n_est
        pairs = np.concatenate([
            np.arange(scatter._estimate(ka, 2 * math.ceil(ka) + 12) + 2)
            for ka in kas])
        assert all(np.array_equal(orders, pairs) for _, orders, _ in calls)
        assert 8 * len(calls) <= one_by_one

    def test_degenerate_basis_pair_rejected(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        with pytest.raises(BasisDegenerate):
            cw.layer_twopoint(al_layer, ctx, basis=(1, 1))

    def test_cutoff_is_a_domain_error(self):
        # rho omega^2 = c44 kz^2 puts k1 at 0: the kz != 0 columns divide by
        # it, and H1 and Y are singular at k r = 0
        layer = cw.LayerTI(0.5, 1.0, 1.0, 1.0, 0.5, 0.0, 1.0, 1.0)
        ctx = cw.WaveContext(omega=1.0, n=0, kz=1.0)
        assert _wavenumbers(layer, 1.0, 1.0)[0] == 0
        for basis in ((1, 3), (1, 2)):
            with pytest.raises(DomainError):
                cw.layer_twopoint(layer, ctx, basis=basis)
        with pytest.raises(DomainError, match="cutoff"):
            cw.ti_displacement_matrix(1, layer, ctx, 0.7)

    def test_cutoff_fails_only_its_frequency(self):
        # the cutoff layer at omega = 1 and kz = 1 (k1 = k3 = 0) on one
        # stack with omega = 2: the omega = 1 entries get the cutoff's
        # DomainError, and the others are what a stack of omega = 2 alone
        # gives, bit for bit
        layer = cw.LayerTI(0.5, 1.0, 1.0, 1.0, 0.5, 0.0, 1.0, 1.0)
        orders = [0, 1, 2, 0, 1, 2]
        for basis in ((1, 3), (1, 2)):
            both = OrderStack([1.0, 2.0], 1.0, orders, [0, 0, 0, 1, 1, 1])
            alone = OrderStack([2.0], 1.0, orders[3:])
            got = _layer_stack(layer, both, basis)
            want = _layer_stack(layer, alone, basis)
            assert all(isinstance(e, DomainError)
                       for e in both.faults.errors[:3])
            assert list(both.faults.errors[3:]) == [None] * 3
            assert list(alone.faults.errors) == [None] * 3
            assert np.array_equal(got[3:], want)

    def test_zero_argument_fails_only_its_frequency(self):
        # one table over two frequencies, the first at x = 0: the singular
        # kinds fail its entries alone, J fails none, and the second
        # frequency's values are those of its own table
        for kind in (cw.KIND_J, cw.KIND_Y, cw.KIND_H1, cw.KIND_H2):
            both = cylfun.Tables([0, 3, 0, 3], [0, 0, 1, 1])
            alone = cylfun.Tables([0, 3])
            f, fp = both(kind, [0.0, 1.7])
            want = alone(kind, [1.7])
            assert np.array_equal(f[2:], want[0])
            assert np.array_equal(fp[2:], want[1])
            failed = [e is not None for e in both.faults.errors]
            assert failed == [kind != cw.KIND_J] * 2 + [False] * 2
            assert not alone.faults.errors.any()

    def test_c13_equal_to_minus_c44_is_a_domain_error(self):
        # the coupling numbers divide by (c13 + c44) kz: a valid TI layer
        # with c13 = -c44 is refused with a typed error at kz != 0 and
        # solved at kz = 0
        layer = cw.LayerTI(0.5, 1.0, 1.0, 3.0, 1.0, -1.0, 3.0, 1.0)
        assert layer.material().stiffness.is_positive_definite()
        ctx = cw.WaveContext(omega=2.0, n=1, kz=0.5)
        with pytest.raises(DomainError, match=r"c13 \+ c44 = 0"):
            cw.layer_twopoint(layer, ctx)
        with pytest.raises(DomainError, match=r"c13 \+ c44 = 0"):
            cw.ti_conditional_impedance(1, layer, ctx, 0.7)
        flat = cw.WaveContext(omega=2.0, n=1, kz=0.0)
        assert np.isfinite(cw.layer_twopoint(layer, flat).z).all()
        assert np.isfinite(
            cw.ti_conditional_impedance(1, layer, flat, 0.7).z).all()

    def test_thin_layer_coupling_scales_inversely(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        prods = []
        for h in (1e-3, 1e-4, 1e-5):
            thin = cw.LayerTI(0.9, 0.9 + h, al_layer.rho, al_layer.c11,
                              al_layer.c12, al_layer.c13, al_layer.c33,
                              al_layer.c44)
            zz = cw.layer_twopoint(thin, ctx)
            prods.append(np.linalg.norm(zz.z2) * h)
        prods = np.array(prods)
        assert np.all(prods > 0)
        assert prods.max() / prods.min() < 1.5


class TestJoin:
    def _split(self, al_layer, ctx, r_mid):
        a = cw.LayerTI(0.5, r_mid, al_layer.rho, al_layer.c11, al_layer.c12,
                       al_layer.c13, al_layer.c33, al_layer.c44)
        b = cw.LayerTI(r_mid, 1.0, al_layer.rho, al_layer.c11, al_layer.c12,
                       al_layer.c13, al_layer.c33, al_layer.c44)
        return cw.layer_twopoint(a, ctx), cw.layer_twopoint(b, ctx)

    def test_split_and_join_recovers_whole(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        whole = cw.layer_twopoint(al_layer, ctx)
        za, zb = self._split(al_layer, ctx, 0.75)
        joined = cw.join_twopoint(za, zb)
        assert np.max(np.abs(joined.z - whole.z)) \
            < 1e-8 * np.max(np.abs(whole.z))
        assert (joined.r_from, joined.r_to) == (0.5, 1.0)

    def test_join_preserves_hermiticity(self, al_layer):
        ctx = cw.WaveContext(omega=7.0, n=3, kz=0.5)
        za, zb = self._split(al_layer, ctx, 0.8)
        assert cw.hermitian_residual(cw.join_twopoint(za, zb).z) < 1e-9

    def test_join_is_associative(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        cuts = [0.5, 0.65, 0.82, 1.0]
        parts = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            sub = cw.LayerTI(lo, hi, al_layer.rho, al_layer.c11, al_layer.c12,
                             al_layer.c13, al_layer.c33, al_layer.c44)
            parts.append(cw.layer_twopoint(sub, ctx))
        left = cw.join_twopoint(cw.join_twopoint(parts[0], parts[1]), parts[2])
        right = cw.join_twopoint(parts[0], cw.join_twopoint(parts[1], parts[2]))
        assert np.max(np.abs(left.z - right.z)) < 1e-8 * np.max(np.abs(left.z))

    def test_rejects_gap(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        za, _ = self._split(al_layer, ctx, 0.7)
        _, zb = self._split(al_layer, ctx, 0.75)
        with pytest.raises(ValueError):
            cw.join_twopoint(za, zb)

    def test_gap_rule_matches_the_profile(self, al_layer):
        # join_twopoint and global_twopoint refuse a gap past 1e-12 with
        # RadialProfile.piecewise's message, and compose one of 1e-13
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        for gap, joins in ((1e-10, False), (1e-13, True)):
            layers = [replace(al_layer, r_outer=0.75),
                      replace(al_layer, r_inner=0.75 + gap)]
            parts = [cw.layer_twopoint(lay, ctx) for lay in layers]
            if joins:
                joined = cw.join_twopoint(*parts)
                whole = cw.global_twopoint(layers, ctx)
                assert np.array_equal(joined.z, whole.z)
                assert (whole.r_from, whole.r_to) == (0.5, 1.0)
                continue
            with pytest.raises(ValueError, match="layers must be contiguous"):
                cw.join_twopoint(*parts)
            with pytest.raises(ValueError, match="layers must be contiguous"):
                cw.global_twopoint(layers, ctx)
            with pytest.raises(ValueError, match="layers must be contiguous"):
                cw.RadialProfile.piecewise([(lay.r_inner, lay.r_outer,
                                             lay.material())
                                            for lay in layers])

    def test_interface_resonance(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        za = cw.TwoPointImpedance(x, 0.5, 0.7)
        y = x.copy()
        y[:3, :3] = -za.z4  # makes D = Z4a + Z1b vanish
        zb = cw.TwoPointImpedance(y, 0.7, 1.0)
        with pytest.raises(InterfaceResonance):
            cw.join_twopoint(za, zb)


class TestGlobal:
    def _subdivide(self, al_layer, k):
        edges = np.linspace(0.5, 1.0, k + 1)
        return [cw.LayerTI(lo, hi, al_layer.rho, al_layer.c11, al_layer.c12,
                           al_layer.c13, al_layer.c33, al_layer.c44)
                for lo, hi in zip(edges[:-1], edges[1:])]

    def test_single_layer_passthrough(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        a = cw.global_twopoint([al_layer], ctx)
        b = cw.layer_twopoint(al_layer, ctx)
        assert_allclose(a.z, b.z, atol=0)

    def test_eight_sublayers(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        whole = cw.layer_twopoint(al_layer, ctx)
        split = cw.global_twopoint(self._subdivide(al_layer, 8), ctx)
        assert np.max(np.abs(split.z - whole.z)) \
            < 1e-8 * np.max(np.abs(whole.z))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cw.global_twopoint([], cw.WaveContext(omega=5.0))

    def test_conditional_matches_exact(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        z_in = cw.ti_conditional_impedance(1, al_layer, ctx, 0.5)
        zz = cw.global_twopoint(self._subdivide(al_layer, 4), ctx)
        got = cw.conditional_from_twopoint(zz, z_in)
        want = cw.ti_conditional_impedance(1, al_layer, ctx, 1.0)
        assert np.max(np.abs(got.z - want.z)) < 1e-7 * np.max(np.abs(want.z))

    def test_bilayer_against_integration(self, al_layer):
        layer_a = cw.LayerTI(0.5, 0.75, al_layer.rho, al_layer.c11,
                             al_layer.c12, al_layer.c13, al_layer.c33,
                             al_layer.c44)
        layer_b = _ti_layer_b()
        ctx = cw.WaveContext(omega=5.0, n=1, kz=0.3)
        z_in = cw.ti_conditional_impedance(1, layer_a, ctx, 0.5)
        via_join = cw.conditional_from_twopoint(
            cw.global_twopoint([layer_a, layer_b], ctx), z_in)
        prof = cw.RadialProfile.piecewise([
            (0.5, 0.75, layer_a.material()),
            (0.75, 1.0, layer_b.material())])
        via_march = cw.integrate_impedance(prof, ctx, z_in, 0.5, 1.0, 2000,
                                           "exp2a")
        err = np.max(np.abs(via_join.z - via_march.z)) \
            / np.max(np.abs(via_join.z))
        assert err < 1e-6


class TestLayerType:
    def test_validation(self):
        with pytest.raises(ValueError):
            cw.LayerTI(1.0, 0.5, 1.0, 50.0, 20.0, 10.0, 45.0, 12.0)
        with pytest.raises(ValueError):
            cw.LayerTI(0.5, 1.0, -1.0, 50.0, 20.0, 10.0, 45.0, 12.0)
        # non-finite moduli are refused, complex (lossy) ones taken
        for bad in (dict(c13=math.nan), dict(c33=-math.inf),
                    dict(c12=complex(math.inf, 0.0))):
            with pytest.raises(ValueError,
                               match="^stiffness moduli must be finite$"):
                replace(_ti_layer_b(), **bad)
        replace(_ti_layer_b(), c11=60.0 * (1 - 0.02j))

    def test_c66(self):
        layer = _ti_layer_b()
        assert layer.c66 == pytest.approx(20.0)

    def test_material_roundtrip(self):
        layer = _ti_layer_b()
        mp = layer.material()
        assert mp.rho == layer.rho
        assert mp.stiffness[6, 6] == pytest.approx(layer.c66)
        assert mp.stiffness[1, 3] == pytest.approx(layer.c13)

    def test_isotropic_constructor(self):
        layer = cw.LayerTI.isotropic(0.5, 1.0, 2.7, 27.0, 12.0)
        assert layer.c11 == pytest.approx(51.0)
        assert layer.c12 == layer.c13 == pytest.approx(27.0)
        assert layer.c33 == layer.c11
        assert layer.c66 == pytest.approx(12.0)

    def test_twopoint_accepts_direct_basis_objects(self, al_layer):
        ctx = cw.WaveContext(omega=5.0, n=0, kz=0.2)
        a = cw.layer_twopoint(al_layer, ctx, basis=[1, 3])
        b = cw.layer_twopoint(al_layer, ctx)
        assert_allclose(a.z, b.z, atol=0)


# the benchmark's fibre composite: carbon-epoxy with fibres along z
FIBRE = (1.6, 6.6, 3.2, 2.8, 64.8, 3.2)


def _perturbed(table_edit):
    """The fibre material with its Voigt table edited in place by
    table_edit(c), 0-based, kept symmetric."""
    c = cw.ti_stiffness(*FIBRE[1:]).c.copy()
    table_edit(c)
    return cw.MaterialPoint(FIBRE[0], cw.StiffnessVoigt(0.5 * (c + c.T)))


class TestTIMaterialPoint:
    """A MaterialPoint stands in for a TI layer only if its table is the TI
    one of its own moduli, the test the command line applies to a profile."""

    @pytest.mark.parametrize("edit", [
        lambda c: c.__setitem__((0, 5), 0.4),  # c16
        lambda c: c.__setitem__((5, 5), c[5, 5] * 1.1),  # c66
    ], ids=["c16", "c66"])
    @pytest.mark.parametrize("call", [
        lambda mp, ctx: cw.ti_conditional_impedance(1, mp, ctx, 0.6),
        lambda mp, ctx: cw.ti_displacement_matrix(1, mp, ctx, 0.6),
        lambda mp, ctx: cw.ti_wavenumbers(mp, ctx.omega, ctx.kz),
    ], ids=["impedance", "displacement", "wavenumbers"])
    def test_non_ti_table_refused(self, edit, call):
        mp = _perturbed(edit)
        with pytest.raises(DomainError, match="not transversely isotropic"):
            call(mp, cw.WaveContext(omega=3.0, n=2, kz=1.2))

    def test_fibre_core_is_bitwise_its_layer(self):
        # the core of the benchmark's graded march: the TI test keeps the
        # table's own moduli, c66 included, so z is that of the LayerTI
        core = cw.MaterialPoint(FIBRE[0], cw.ti_stiffness(*FIBRE[1:]))
        assert _ti_moduli(core) == FIBRE[1:]
        layer = cw.LayerTI(0.3, 0.6, *FIBRE)
        for kz in (0.0, 1.7):
            ctx = cw.WaveContext(omega=4.2, n=3, kz=kz)
            got = cw.ti_conditional_impedance(1, core, ctx, 0.6).z
            want = cw.ti_conditional_impedance(1, layer, ctx, 0.6).z
            assert got.tobytes() == want.tobytes()


class TestNotes:
    """A stack's cylinder-function table writes each (kind, argument)'s
    AccuracyLoss notes into its record once, and the public functions warn
    them at their caller's line."""

    ISO = cw.LayerTI.isotropic(0.5, 1.0, 2.7, 1.2, 0.5)

    @staticmethod
    def _warned(call) -> list:
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            call()
        return [w for w in record if w.category is AccuracyLoss]

    @pytest.mark.parametrize("call, count", [
        (lambda lay, ctx: cw.layer_twopoint(lay, ctx), 8),
        (lambda lay, ctx: cw.global_twopoint([lay], ctx), 8),
        (lambda lay, ctx: cw.ti_conditional_impedance(1, lay, ctx, 0.7), 2),
        (lambda lay, ctx: cw.ti_displacement_matrix(1, lay, ctx, 0.7), 2),
        (lambda lay, ctx: cw.ti_traction_matrix(1, lay, ctx, 0.7), 2),
    ], ids=["layer_twopoint", "global_twopoint", "impedance",
            "displacement", "traction"])
    def test_one_warning_per_kind_and_argument(self, call, count):
        # n = 61 is past the validated orders; at kz = 0 the isotropic
        # layer's k2 and k3 are one argument, so a layer reads J and H1 at
        # two arguments on each of its two radii, 8 notes, and the
        # functions of one radius read J at two.  Each note is warned once,
        # under the "always" filter too, and names this file
        record = self._warned(lambda: call(
            self.ISO, cw.WaveContext(omega=5.0, n=61)))
        assert len(record) == count
        assert len({str(w.message) for w in record}) == count
        assert {w.filename for w in record} == {__file__}

    def test_layer_stack_notes_each_argument_once(self, al_layer):
        stack = OrderStack([5.0], 0.0, [61, 62])
        _layer_stack(al_layer, stack)
        for notes in stack.faults.notes:
            assert notes
            assert len(set(notes)) == len(notes)

    def test_traction_matrix_calls_scipy_once_per_argument(self,
                                                           monkeypatch):
        # the impedance and the displacement basis of one stack share its
        # tables: J at k1 r, k2 r and k3 r of a TI layer, one scipy call
        # each
        calls = []
        jv = special.jv
        monkeypatch.setattr(cylfun, "special", types.SimpleNamespace(
            jv=lambda n, x: calls.append(np.array(x).tobytes()) or jv(n, x)))
        cw.ti_traction_matrix(1, _ti_layer_b(),
                              cw.WaveContext(omega=5.0, n=2, kz=0.3), 0.9)
        assert len(calls) == len(set(calls)) == 3
