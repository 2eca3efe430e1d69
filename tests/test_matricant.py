import re
import warnings
from fractions import Fraction as F

import numpy as np
import numpy.linalg._linalg as linalg_impl
import pytest
from numpy.testing import assert_allclose

import cylwave as cw
from cylwave import impedance, matricant
from cylwave.errors import (DuplicatePoints, EntryFaults, MatricantOverflow,
                            OutOfSupport, StepTooLarge)
from cylwave.matricant import _blocks, _bound, _guard, _segments

NOMINAL_ORDER = {"ts1": 1, "ts2": 2, "exp2a": 2, "lp2": 2, "exp2b": 2,
                 "lp3": 3, "lp4": 4, "exp2c": 2, "mg4": 4}

H_GRID = np.logspace(np.log10(2e-3), np.log10(0.2), 7)


class _ConstQ:
    support = (0.0, 100.0)

    def __init__(self, q):
        self.q0 = np.asarray(q, dtype=complex)

    def q_at(self, r, ctx):
        return self.q0


class _LinearQ:
    """Q(r) = A + r B with [A, B] != 0, to expose sampling order."""

    support = (0.0, 100.0)

    def __init__(self, seed=41):
        rng = np.random.default_rng(seed)
        self.a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    def q_at(self, r, ctx):
        return self.a + r * self.b


def _rand_q(seed, size=4, scale=1.0):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return scale * q / np.linalg.norm(q, 2)


CTX = cw.WaveContext(omega=1.0)


class TestSchemeTable:
    def test_names_and_orders(self):
        assert set(cw.SCHEME_NAMES) == set(NOMINAL_ORDER)
        for tag, p in NOMINAL_ORDER.items():
            assert cw.SCHEMES[tag].nominal_order == p

    def test_get_scheme(self):
        assert cw.get_scheme("LP4") is cw.SCHEMES["lp4"]
        assert cw.get_scheme(cw.SCHEMES["mg4"]) is cw.SCHEMES["mg4"]
        with pytest.raises(ValueError):
            cw.get_scheme("rk4")


class TestLagrangeWeights:
    def test_two_point_rows(self):
        pts = (F(1, 4), F(3, 4))
        assert cw.lagrange_weights(pts, 1) == [F(1, 2), F(1, 2)]
        assert cw.lagrange_weights(pts, 2) == [F(1, 6), F(5, 6)]

    def test_three_point_rows(self):
        pts = (F(1, 6), F(1, 2), F(5, 6))
        assert cw.lagrange_weights(pts, 1) == [F(3, 8), F(1, 4), F(3, 8)]
        assert cw.lagrange_weights(pts, 2) == [F(1, 8), F(1, 4), F(5, 8)]
        assert cw.lagrange_weights(pts, 3) == [F(3, 40), F(1, 10), F(33, 40)]

    def test_four_point_rows(self):
        pts = (F(1, 8), F(3, 8), F(5, 8), F(7, 8))
        assert cw.lagrange_weights(pts, 1) == [
            F(13, 48), F(11, 48), F(11, 48), F(13, 48)]
        assert cw.lagrange_weights(pts, 2) == [
            F(23, 720), F(67, 240), F(43, 240), F(367, 720)]
        assert cw.lagrange_weights(pts, 3) == [
            F(-1, 48), F(19, 80), F(7, 80), F(167, 240)]
        assert cw.lagrange_weights(pts, 4) == [
            F(-23, 560), F(389, 1680), F(-67, 1680), F(1427, 1680)]

    def test_rows_sum_to_one(self):
        for pts, kmax in [((F(1, 4), F(3, 4)), 2),
                          ((F(1, 6), F(1, 2), F(5, 6)), 3),
                          ((F(1, 8), F(3, 8), F(5, 8), F(7, 8)), 4)]:
            for k in range(1, kmax + 1):
                assert sum(cw.lagrange_weights(pts, k)) == 1

    def test_duplicate_points(self):
        with pytest.raises(DuplicatePoints):
            cw.lagrange_weights((F(1, 4), F(1, 4)), 1)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            cw.lagrange_weights((F(1, 4), F(3, 4)), 0)


class TestConstantCoefficients:
    """With Q independent of r every scheme has a closed form."""

    def setup_method(self):
        self.q = _rand_q(19, size=4, scale=2.0)
        self.prof = _ConstQ(self.q)
        self.h = 0.37

    def _step(self, scheme):
        return cw.matricant_step(self.prof, CTX, 1.0, self.h, scheme).m

    def test_taylor_schemes_are_truncated_series(self):
        hq = self.h * self.q
        assert_allclose(self._step("ts1"), np.eye(4) + hq, atol=0)
        assert_allclose(self._step("ts2"), np.eye(4) + hq + 0.5 * hq @ hq,
                        atol=1e-15)

    @pytest.mark.parametrize("scheme", ["exp2a", "exp2b", "exp2c", "mg4"])
    def test_exponential_schemes_collapse(self, scheme):
        ref = cw.mat_exp(self.h * self.q)
        assert_allclose(self._step(scheme), ref, atol=1e-13)

    @pytest.mark.parametrize("scheme,terms", [("lp2", 2), ("lp3", 3),
                                              ("lp4", 4)])
    def test_lp_schemes_are_truncated_exponentials(self, scheme, terms):
        hq = self.h * self.q
        want = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, terms + 1):
            term = hq @ term / k
            want = want + term
        assert_allclose(self._step(scheme), want, atol=1e-14)


class TestSamplingOrder:
    def test_exp2b_factor_order(self):
        prof = _LinearQ()
        r, h = 2.0, 0.3
        m = cw.matricant_step(prof, CTX, r, h, "exp2b").m
        qa = prof.q_at(r + 0.25 * h, CTX)
        qb = prof.q_at(r + 0.75 * h, CTX)
        want = cw.mat_exp(0.5 * h * qb) @ cw.mat_exp(0.5 * h * qa)
        swapped = cw.mat_exp(0.5 * h * qa) @ cw.mat_exp(0.5 * h * qb)
        assert_allclose(m, want, atol=1e-14)
        assert np.max(np.abs(m - swapped)) > 1e-6  # the order matters

    def test_exp2c_factor_order(self):
        prof = _LinearQ(seed=43)
        r, h = 1.5, 0.4
        m = cw.matricant_step(prof, CTX, r, h, "exp2c").m
        want = np.eye(4, dtype=complex)
        for x in (0.125, 0.375, 0.625, 0.875):
            want = cw.mat_exp(0.25 * h * prof.q_at(r + x * h, CTX)) @ want
        assert_allclose(m, want, atol=1e-14)

    def test_mg4_commutator_term(self):
        prof = _LinearQ(seed=47)
        r, h = 1.0, 0.25
        m = cw.matricant_step(prof, CTX, r, h, "mg4").m
        s3 = np.sqrt(3.0)
        qa = prof.q_at(r + h * (0.5 - s3 / 6), CTX)
        qb = prof.q_at(r + h * (0.5 + s3 / 6), CTX)
        omega = 0.5 * h * (qa + qb) + s3 * h * h / 12 * (qb @ qa - qa @ qb)
        assert_allclose(m, cw.mat_exp(omega), atol=1e-14)


class TestComposition:
    def test_single_step_equals_global(self, al_profile):
        ctx = cw.WaveContext(omega=5.0, n=1)
        a = cw.matricant_step(al_profile, ctx, 0.6, 0.2, "lp4")
        b = cw.matricant_global(al_profile, ctx, 0.6, 0.8, 1, "lp4")
        assert_allclose(a.m, b.m, atol=0)
        assert (a.r_from, a.r_to) == (0.6, 0.8)

    @pytest.mark.parametrize("scheme", list(NOMINAL_ORDER))
    def test_split_at_midpoint(self, al_profile, scheme):
        ctx = cw.WaveContext(omega=5.0, n=2)
        whole = cw.matricant_global(al_profile, ctx, 0.5, 0.9, 8, scheme)
        lo = cw.matricant_global(al_profile, ctx, 0.5, 0.7, 4, scheme)
        hi = cw.matricant_global(al_profile, ctx, 0.7, 0.9, 4, scheme)
        assert_allclose(whole.m, hi.m @ lo.m, rtol=1e-12, atol=1e-12)

    def test_identity(self):
        ident = cw.Matricant.identity(6, 0.7)
        assert_allclose(ident.m, np.eye(6), atol=0)
        assert ident.r_from == ident.r_to == 0.7
        assert ident.m1.shape == (3, 3)

    def test_block_views(self):
        m = np.arange(16, dtype=complex).reshape(4, 4)
        mt = cw.Matricant(m, 0.0, 1.0)
        assert_allclose(mt.m2, [[2, 3], [6, 7]], atol=0)
        assert_allclose(mt.m3, [[8, 9], [12, 13]], atol=0)


@pytest.fixture(scope="module")
def order_data(al_profile):
    """Single-step errors against a fine mg4 reference on a shared h grid.

    64 fourth-order substeps put the reference error near roundoff at every
    h; a second-order reference would be about 6e-12 off at h = 2e-3, which
    is as large as the lp4 error it is meant to resolve.
    """
    ctx = cw.WaveContext(omega=5.0, n=0)
    refs = {}
    for h in H_GRID:
        refs[h] = cw.matricant_global(al_profile, ctx, 0.5, 0.5 + h, 64,
                                      "mg4").m
    errs = {}
    for tag in NOMINAL_ORDER:
        errs[tag] = np.array([
            np.max(np.abs(cw.matricant_step(al_profile, ctx, 0.5, h, tag).m
                          - refs[h]))
            for h in H_GRID])
    return errs


def _slope(h, e):
    return np.polyfit(np.log(h), np.log(e), 1)[0]


@pytest.mark.parametrize("scheme", list(NOMINAL_ORDER))
def test_local_order(order_data, scheme):
    got = _slope(H_GRID, order_data[scheme])
    want = NOMINAL_ORDER[scheme] + 1
    assert abs(got - want) <= 0.35, f"{scheme}: slope {got:.2f}, want {want}"


@pytest.fixture(scope="module")
def t_residuals(al_profile):
    """||M^-1 - T M+ T|| / ||M^-1|| over the h grid, per scheme."""
    ctx = cw.WaveContext(omega=5.0, n=0)
    t = cw.block_swap(3)
    out = {}
    for tag in NOMINAL_ORDER:
        rs = []
        for h in H_GRID:
            m = cw.matricant_step(al_profile, ctx, 0.5, h, tag).m
            minv = cw.mat_inverse(m)
            rs.append(np.linalg.norm(minv - t @ m.conj().T @ t)
                      / np.linalg.norm(minv))
        out[tag] = np.array(rs)
    return out


@pytest.mark.parametrize("scheme", ["exp2a", "exp2b", "exp2c", "mg4"])
def test_exponential_schemes_preserve_t_unitarity(t_residuals, scheme):
    # exact for exponentials of T-skew generators, any step size
    assert t_residuals[scheme].max() < 1e-12


@pytest.mark.parametrize("scheme", ["ts1", "ts2", "lp2", "lp3", "lp4"])
def test_series_schemes_restore_t_unitarity_with_rate(t_residuals, scheme):
    got = _slope(H_GRID, t_residuals[scheme])
    assert got >= NOMINAL_ORDER[scheme] + 1 - 0.35, f"{scheme}: {got:.2f}"


def test_determinant_matches_trace_exponential(al_profile):
    ctx = cw.WaveContext(omega=5.0, n=1)
    for h in (0.05, 0.2):
        m = cw.matricant_step(al_profile, ctx, 0.6, h, "exp2a")
        q = cw.q_matrix(al_profile, ctx, 0.6 + 0.5 * h).q
        assert_allclose(np.linalg.det(m.m), np.exp(h * np.trace(q)),
                        rtol=1e-10)


def test_mg4_determinant(al_profile):
    ctx = cw.WaveContext(omega=5.0, n=1)
    h = 0.1
    m = cw.matricant_step(al_profile, ctx, 0.6, h, "mg4")
    s3 = np.sqrt(3.0)
    tr = sum(np.trace(cw.q_matrix(al_profile, ctx, 0.6 + h * x).q)
             for x in (0.5 - s3 / 6, 0.5 + s3 / 6))
    assert_allclose(np.linalg.det(m.m), np.exp(0.5 * h * tr), rtol=1e-10)


@pytest.mark.xfail(strict=True, reason="growth from 0.5 to 1.0 at ka=10, "
                   "n=15 peaks near 5e7, well under the 1e12 warning bar")
def test_overflow_warning_moderate_order(al_profile):
    ctx = cw.WaveContext(omega=10.0, n=15)
    with pytest.warns(MatricantOverflow):
        cw.matricant_global(al_profile, ctx, 0.5, 1.0, 500, "exp2a")


def test_overflow_warning_high_order(al_profile):
    # n=30 growing solutions gain ~13 decades over the span; the warning
    # must fire and the entries must still be finite
    ctx = cw.WaveContext(omega=10.0, n=30)
    with pytest.warns(MatricantOverflow):
        m = cw.matricant_global(al_profile, ctx, 0.5, 1.0, 3000, "exp2a")
    assert np.all(np.isfinite(m.m))
    assert np.max(np.abs(m.m)) > 1e12


def test_global_equals_per_step_product(al, block_budgets):
    # the blocked composition is the product of single steps over each
    # layer's grid, bit for bit, and warns at the same radius; in blocks of
    # one run, 32 steps, 73 steps leave a partial last block in each
    # layer, and at the default budget each layer is one block
    steel = cw.MaterialPoint(7.85, cw.isotropic_stiffness(54.4, 37.0))
    prof = cw.RadialProfile.piecewise([(0.5, 0.75, al), (0.75, 1.0, steel)])
    ctx = cw.WaveContext(omega=10.0, n=30)
    for lengths, blocks in zip(block_budgets, ([32, 5, 32, 4], [37, 36])):
        for scheme, steps in (("exp2a", 73), ("lp4", 73), ("mg4", 20)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                lengths.clear()
                got = cw.matricant_global(prof, ctx, 0.5, 1.0, steps, scheme)
            if steps == 73:
                assert lengths == blocks
            want, warn_at = np.eye(6), None
            for a, h, n, _ in _segments(prof, 0.5, 0.5, steps):
                for i in range(n):
                    want = cw.matricant_step(prof, ctx, a + i * h, h,
                                             scheme).m @ want
                    if warn_at is None and np.max(np.abs(want)) > 1e12:
                        warn_at = f"r={a + (i + 1) * h:.6g};"
            assert np.array_equal(got.m, want)
            assert warn_at is not None and len(seen) == 1
            assert seen[0].category is MatricantOverflow
            assert warn_at in str(seen[0].message)


def test_global_equals_per_step_product_at_kz(al):
    # at kz != 0 the dyson schemes' terms have three letters, P0, kz P1 and
    # P2; the blocked composition is still the product of single steps,
    # bit for bit, in blocks of one group and of the default budget, and
    # lp4's agrees with mg4's, which samples Q.  At 600 steps each of
    # lp4's blocks of 300 steps holds more than one chunk of coefficients
    # (272 steps at 120 words), so _term_kernel writes its rows of M in two
    # contractions
    steel = cw.MaterialPoint(7.85, cw.isotropic_stiffness(54.4, 37.0))
    prof = cw.RadialProfile.piecewise([(0.5, 0.75, al), (0.75, 1.0, steel)])
    ctx = cw.WaveContext(omega=6.0, n=4, kz=1.3)
    mg4 = cw.matricant_global(prof, ctx, 0.5, 1.0, 200, "mg4").m
    lp4 = cw.matricant_global(prof, ctx, 0.5, 1.0, 200, "lp4").m
    assert np.abs(lp4 - mg4).max() < 1e-8 * np.abs(mg4).max()
    default = matricant._BLOCK_SAMPLES
    for budget, steps, schemes in ((0, 57, ("ts1", "ts2", "lp3", "lp4")),
                                   (default, 57, ("ts1", "ts2", "lp3", "lp4")),
                                   (default, 600, ("lp4",))):
        for scheme in schemes:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(matricant, "_BLOCK_SAMPLES", budget)
                got = cw.matricant_global(prof, ctx, 0.5, 1.0, steps, scheme)
            want = np.eye(6)
            for a, h, n, _ in _segments(prof, 0.5, 0.5, steps):
                for i in range(n):
                    want = cw.matricant_step(prof, ctx, a + i * h, h,
                                             scheme).m @ want
            assert np.array_equal(got.m, want), (budget, steps, scheme)


@pytest.mark.parametrize("scheme, entries, steps, want", [
    ("lp4", 1, 40000, [16384, 3616]), ("lp4", 23, 3000, [704, 704, 92]),
    ("lp4", 512, 200, [32, 32, 32, 4]), ("mg4", 1, 5000, [2500])],
    ids=["lp4-1", "lp4-23", "lp4-512", "mg4-1"])
def test_blocks_fit_the_sample_budget(al, scheme, entries, steps, want):
    # the blocks of each _segments piece step its grid in order and never
    # cross into the next piece; a block holds whole runs of _RUN_GROUPS
    # groups of _GROUP_STEPS steps, as many propagators (steps x entries)
    # as len(nodes) * _BLOCK_SAMPLES allow unless it is one run or less,
    # and all but a piece's last are as long as that rule allows, whether
    # the kernel samples Q (mg4, 2 nodes) or forms the steps from the layer
    # terms (lp4, 4 nodes); so a one-ka lp4 solve (at most 23 entries)
    # steps a layer of 500 steps in one block
    steel = cw.MaterialPoint(7.85, cw.isotropic_stiffness(54.4, 37.0))
    prof = cw.RadialProfile.piecewise([(0.5, 0.75, al), (0.75, 1.0, steel)])
    ctxs = [cw.WaveContext(omega=2.0, n=3, m=2)] * entries
    # propagators per step, and a block's budget of them
    samples = entries
    budget = len(matricant._TABLE[scheme][1]) * matricant._BLOCK_SAMPLES
    blocks = iter([radii for radii, _ in _blocks(
        prof, ctxs, 0.5, 0.5, steps, scheme, EntryFaults(entries))])
    pieces = _segments(prof, 0.5, 0.5, steps)
    assert len(pieces) == 2
    for a, h, n, _ in pieces:
        ends, lengths = [], []
        while len(ends) < n:
            radii = next(blocks)
            ends += radii.tolist()
            lengths.append(len(radii))
        assert ends == (a + np.arange(n) * h + h).tolist()
        assert lengths == want
        run = matricant._GROUP_STEPS * matricant._RUN_GROUPS
        for k, size in enumerate(lengths):
            assert size * samples <= budget or size <= run
            if k < len(lengths) - 1:
                assert size % run == 0
                assert (size + run) * samples > budget
    assert next(blocks, None) is None


def test_segments_cut_at_interfaces(al):
    # one piece, h = span / steps, where no interface lies inside the span;
    # otherwise a piece per layer, the steps shared by largest remainder
    steel = cw.MaterialPoint(7.85, cw.isotropic_stiffness(54.4, 37.0))
    fibre = cw.MaterialPoint(1.6, cw.ti_stiffness(6.6, 3.2, 2.8, 64.8, 3.2))
    prof = cw.RadialProfile.piecewise([(0.3, 0.6, al), (0.6, 0.8, fibre),
                                       (0.8, 1.0, steel)])
    assert _segments(prof, 0.3, 0.7, 500) == [
        (0.3, (0.6 - 0.3) / 214, 214, 0), (0.6, (0.8 - 0.6) / 143, 143, 1),
        (0.8, (0.3 + 0.7 - 0.8) / 143, 143, 2)]
    assert _segments(prof, 0.6, 0.2, 7) == [(0.6, 0.2 / 7, 7, 1)]
    assert _segments(prof, 0.35, 0.25, 9) == [(0.35, 0.25 / 9, 9, 0)]
    assert [n for _, _, n, _ in _segments(prof, 0.3, 0.7, 2)] == [1, 1, 1]
    assert [n for _, _, n, _ in _segments(prof, 0.59, 0.41, 10)] == [1, 5, 4]
    smooth = cw.RadialProfile.smooth(lambda r: al, 0.5, 1.0)
    assert _segments(smooth, 0.5, 0.5, 57) == [(0.5, 0.5 / 57, 57, 0)]
    with pytest.raises(OutOfSupport):
        _segments(prof, 0.2, 0.5, 10)


@pytest.mark.parametrize("scheme", cw.SCHEME_NAMES)
def test_step_across_interface_is_product_of_layer_steps(al, scheme):
    steel = cw.MaterialPoint(7.85, cw.isotropic_stiffness(54.4, 37.0))
    prof = cw.RadialProfile.piecewise([(0.5, 0.75, al), (0.75, 1.0, steel)])
    ctx = cw.WaveContext(omega=5.0, n=2, kz=0.4)
    r, h = 0.71, 0.09
    whole = cw.matricant_step(prof, ctx, r, h, scheme)
    inner = cw.matricant_step(prof, ctx, r, 0.75 - r, scheme)
    outer = cw.matricant_step(prof, ctx, 0.75, (r + h) - 0.75, scheme)
    assert np.array_equal(whole.m, outer.m @ inner.m)
    assert (whole.r_from, whole.r_to) == (r, r + h)


def test_step_guard(al_profile):
    big = _ConstQ(1e6 * np.eye(4))
    with pytest.raises(StepTooLarge):
        cw.matricant_step(big, CTX, 1.0, 1.0, "ts1")
    # fine grids at high order pass the guard
    ctx = cw.WaveContext(omega=10.0, n=16)
    cw.matricant_step(al_profile, ctx, 0.5, 1e-3, "lp4")
    # at kz = 0, h*|Q|_2 = 26.6 here while max|eig(hQ)| = 0.04
    ctx = cw.WaveContext(omega=8.0, n=19, m=2)
    cw.matricant_step(al_profile, ctx, 0.5, 1e-3, "lp4")


@pytest.mark.parametrize("norm", [20.04, 20.0000001])
def test_step_guard_names_a_norm_past_20(norm):
    # the tripped norm is printed in full, so it never reads as the bound
    # itself ("20 exceeds 20" under three significant digits)
    with pytest.raises(StepTooLarge) as err:
        cw.matricant_step(_ConstQ(norm * np.eye(4)), CTX, 1.0, 1.0, "ts1")
    printed = re.fullmatch(r"\|\|h\*Q\|\| = (\S+) exceeds 20 \(exp overflow "
                           r"guard\); reduce the step or increase the step "
                           r"count", str(err.value)).group(1)
    assert float(printed) == norm > 20.0


def test_golden_solve_guard_takes_no_svd(al_layer, monkeypatch):
    # the balanced 1/inf-norm bound clears every sample that trips the
    # plain one, so the guard never needs the spectral norm here
    calls = []
    svd = linalg_impl.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(linalg_impl, "svd", counted)
    cw.solve_scattering(cw.ScatteringConfig((al_layer,), ka=5.0,
                                            scheme="lp4", steps=500))
    assert not calls


def test_golden_solve_samples_q_only_where_terms_prove_nothing(
        al_layer, monkeypatch):
    # the dyson kernel forms its steps from the layer terms, so Q is
    # sampled only for the guard, for the entries that the term bound does
    # not prove below it: none in the golden solve at 500 and 1000 steps
    # or in a 200-point sweep over ka 0.1-10; a smooth law's march still
    # samples every step
    calls = []
    sampler = matricant._q_sampler

    def counted_sampler(profile, ctxs, gauge=None):
        sample = sampler(profile, ctxs, gauge)

        def counted(r, layer):
            calls.append([ctx.n for ctx in ctxs])
            return sample(r, layer)

        counted.__dict__.update(sample.__dict__)
        return counted

    monkeypatch.setattr(matricant, "_q_sampler", counted_sampler)
    for steps in (500, 1000):
        cw.solve_scattering(cw.ScatteringConfig((al_layer,), ka=5.0,
                                                scheme="lp4", steps=steps))
    cw.solve_sweep(cw.ScatteringConfig((al_layer,), ka=1.0, scheme="lp4",
                                       steps=500), np.linspace(0.1, 10, 200))
    assert calls == []
    smooth = cw.RadialProfile.smooth(lambda r: al_layer.material(), 0.5,
                                     1.0)
    cw.matricant_global(smooth, cw.WaveContext(omega=5.0, n=2), 0.5, 1.0,
                        10, "lp4")
    assert calls == [[2]]


def test_one_ka_solve_steps_its_layer_in_one_block(al_layer, block_budgets):
    # a one-ka lp4 solve at ka in [1, 5] stacks at most 23 orders, whose
    # 500 steps of the layer terms one block holds at the default budget;
    # its B_n, sigma_tot and f(theta) are those of blocks of one run, 15 of
    # 32 steps and one of 20, bit for bit
    outs, blocks = [], []
    for lengths in block_budgets:
        outs.append([])
        for ka in np.linspace(1.0, 5.0, 9):
            res = cw.solve_scattering(cw.ScatteringConfig(
                (al_layer,), ka=ka, scheme="lp4", steps=500))
            outs[-1].append((np.array(res.b).tobytes(), res.sigma_tot,
                             np.array(res.f_samples).tobytes()))
        blocks.append(list(lengths))
    assert set(blocks[0]) == {32, 20}
    assert blocks[1] and set(blocks[1]) == {500}
    assert outs[0] == outs[1]


def test_guard_samples_fit_the_sample_budget(al_layer, monkeypatch):
    # a sweep over ka 18-20 at 5 steps stacks about 500 entries, of which
    # the highest orders' term bound over the layer's one block passes 20,
    # so the guard samples the block, in chunks of whole steps of every
    # entry, more than one per block, no call taking more than
    # _BLOCK_SAMPLES matrices
    calls, stacks, blocks = [], [], []
    sampler, stepper = matricant._q_sampler, matricant._blocks

    def counted_sampler(profile, ctxs, gauge=None):
        sample = sampler(profile, ctxs, gauge)
        stacks.append(len(ctxs))

        def counted(r, layer):
            q = sample(r, layer)
            calls.append(q.shape[:3])
            return q

        counted.__dict__.update(sample.__dict__)
        return counted

    def counted_blocks(*args, **kwargs):
        for radii, mats in stepper(*args, **kwargs):
            blocks.append(len(radii))
            yield radii, mats

    monkeypatch.setattr(matricant, "_q_sampler", counted_sampler)
    monkeypatch.setattr(impedance, "_blocks", counted_blocks)
    cw.solve_sweep(cw.ScatteringConfig((al_layer,), ka=20.0, scheme="lp4",
                                       steps=5), np.linspace(18, 20, 13))
    assert len(stacks) == 1 and 480 < stacks[0] <= 512
    assert blocks == [5]
    assert all(c[2] == stacks[0] for c in calls)
    assert sum(c[1] for c in calls) == 5
    assert len(calls) > len(blocks)
    assert max(np.prod(c) for c in calls) <= matricant._BLOCK_SAMPLES


@pytest.mark.parametrize("scheme", ["mg4", "exp2c"])
def test_sampled_kernel_fits_the_sample_budget(al_layer, monkeypatch,
                                               scheme):
    # an mg4 (2 nodes) or exp2c (4 nodes) sweep over ka 8-12 at 200 steps
    # stacks about 360 entries, so one run of 32 steps of every entry holds
    # 23,000 or 46,000 samples; the sampler takes chunks of whole steps, and
    # no array it returns and no call of the sampled kernel holds more than
    # _BLOCK_SAMPLES samples (nodes x steps x entries)
    calls, kernels, stacks = [], [], []
    sampler = matricant._q_sampler
    kernel, nodes, order = matricant._TABLE[scheme]

    def counted_sampler(profile, ctxs, gauge=None):
        sample = sampler(profile, ctxs, gauge)
        stacks.append(len(ctxs))

        def counted(r, layer):
            q = sample(r, layer)
            calls.append(q.shape[:3])
            return q

        counted.__dict__.update(sample.__dict__)
        return counted

    def counted_kernel(h, qs, *args):
        kernels.append(qs.shape[:3])
        return kernel(h, qs, *args)

    monkeypatch.setattr(matricant, "_q_sampler", counted_sampler)
    monkeypatch.setitem(matricant._TABLE, scheme,
                        (counted_kernel, nodes, order))
    cw.solve_sweep(cw.ScatteringConfig((al_layer,), ka=12.0, scheme=scheme,
                                       steps=200), np.linspace(8, 12, 14))
    assert len(stacks) == 1 and 350 < stacks[0] <= 512
    assert kernels and all(c[0] == len(nodes) for c in kernels)
    assert sum(c[1] for c in kernels) == 200
    assert calls == kernels
    assert max(np.prod(c) for c in calls) <= matricant._BLOCK_SAMPLES


def test_golden_solve_term_steps_equal_sampled_steps(al_layer, monkeypatch):
    # every block formed from the layer terms equals the sampled kernel's
    # to round-off, within 1e-13 of each step's largest |M| entry: the
    # golden solve's, and at ka = 20 and 5 steps those of the highest
    # orders, whose term bound is past the guard's 20 and which only the
    # guard's own norm admits
    samplers, past = [], set()
    sampler, kernel = matricant._q_sampler, matricant._term_kernel

    def kept_sampler(profile, ctxs, gauge=None):
        samplers.append((sampler(profile, ctxs, gauge), ctxs))
        return samplers[-1][0]

    def checked_kernel(letters, nodes, p):
        step = kernel(letters, nodes, p)
        sample, ctxs = samplers[-1]

        def checked(h, radii):
            got = step(h, radii)
            want = matricant._dyson(h, sample(radii, 0), nodes, p)
            scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
            assert (np.abs(got - want) <= 1e-13 * scale).all()
            lo = radii[0, 0] - nodes[0] * h
            hi = radii[-1, -1] + (1 - nodes[-1]) * h
            past.update(ctxs[i].n for i in np.flatnonzero(
                h * sample.bound(lo, hi, 0) > matricant._PROVEN))
            return got

        return checked

    monkeypatch.setattr(matricant, "_q_sampler", kept_sampler)
    monkeypatch.setattr(matricant, "_term_kernel", checked_kernel)
    for ka, steps, orders in ((5.0, 500, set()),
                             (20.0, 5, set(range(34, 39)))):
        past.clear()
        cw.solve_scattering(cw.ScatteringConfig((al_layer,), ka=ka,
                                                scheme="lp4", steps=steps))
        assert past == orders


def test_ts1_step_on_interface_uses_outer_layer(al):
    # the step [0.75, 0.75 + h] spans the outer layer, so its left-end
    # sample must come from there, not from the inner layer ending at 0.75
    steel = cw.MaterialPoint(7.85, cw.isotropic_stiffness(54.4, 37.0))
    prof = cw.RadialProfile.piecewise([(0.5, 0.75, al), (0.75, 1.0, steel)])
    ctx = cw.WaveContext(omega=5.0, n=2)
    h = 0.01
    m = cw.matricant_step(prof, ctx, 0.75, h, "ts1").m
    q = cw.q_matrix(cw.RadialProfile.uniform(steel, 0.5, 1.0), ctx, 0.75).q
    assert_allclose(m, np.eye(6) + h * q, rtol=0, atol=1e-15)


def test_step_outside_support(al_profile):
    ctx = cw.WaveContext(omega=5.0)
    with pytest.raises(OutOfSupport):
        cw.matricant_step(al_profile, ctx, 0.9, 0.2, "exp2a")
    with pytest.raises(OutOfSupport):
        cw.matricant_global(al_profile, ctx, 0.4, 0.9, 10, "exp2a")


def test_global_argument_validation(al_profile):
    ctx = cw.WaveContext(omega=5.0)
    with pytest.raises(ValueError):
        cw.matricant_global(al_profile, ctx, 0.9, 0.6, 10, "exp2a")
    for steps in (0, 10.0, True):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            cw.matricant_global(al_profile, ctx, 0.5, 1.0, steps, "exp2a")
    for h in (-0.1, 0.0, float("nan")):
        with pytest.raises(ValueError, match="step must be positive"):
            cw.matricant_step(al_profile, ctx, 0.6, h, "exp2a")


@pytest.mark.parametrize("size", [2, 4, 6])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_bound_equals_axis_sums(size, kind):
    # the guard's bound sums rows and columns slice by slice; it must equal
    # the axis sums bit for bit
    rng = np.random.default_rng(size)
    shape = (4, 10, 7, size, size)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    if kind == "complex":
        a = a + 1j * rng.standard_normal(shape)
    for stack in (a, a[0, 0, :1]):
        want = 0.3 * np.sqrt(np.abs(stack).sum(-2).max(-1)
                             * np.abs(stack).sum(-1).max(-1))
        assert np.array_equal(_bound(0.3, stack), want)


def _guard_reference(h, q):
    # the guard's formula with axis sums and np.linalg.norm's Frobenius norms
    def bound(x):
        ax = np.abs(x)
        return h * np.sqrt(ax.sum(-2).max(-1) * ax.sum(-1).max(-1))

    nrm = np.zeros(q.shape[:-2])
    over = bound(q) > 20.0
    if not over.any():
        return nrm
    qo = q[over]
    k = q.shape[-1] // 2
    q2 = np.linalg.norm(qo[:, :k, k:], axis=(-2, -1))
    q3 = np.linalg.norm(qo[:, k:, :k], axis=(-2, -1))
    both = (q2 > 0) & (q3 > 0)
    s = np.sqrt(np.divide(q3, q2, out=np.ones_like(q2), where=both))
    d = np.concatenate([np.ones((len(qo), k)), np.repeat(s[:, None], k, 1)],
                       axis=1)
    qb = qo * d[:, None, :] / d[:, :, None]
    still = bound(qb) > 20.0
    if still.any():
        nrm.flat[np.flatnonzero(over)[still]] = h * np.linalg.norm(
            qb[still], 2, axis=(-2, -1))
    return nrm


@pytest.mark.parametrize("size", [4, 6])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_guard_equals_reference(size, kind):
    # samples that pass the first bound, that fail it but pass the balanced
    # one (off-diagonal blocks scaled by 1e4 and 1e-4, as at kz = 0), and
    # that trip the guard (everything large, or a zero off-diagonal block)
    rng = np.random.default_rng(size)
    shape = (3, 10, 9, size, size)
    q = rng.standard_normal(shape) * 10.0 ** rng.uniform(-1, 1, shape)
    if kind == "complex":
        q = q + 1j * rng.standard_normal(shape)
    k = size // 2
    case = rng.integers(0, 4, shape[:-2])
    q[..., :k, k:] *= np.where(case == 1, 1e4, 1.0)[..., None, None]
    q[..., k:, :k] *= np.where(case == 1, 1e-4, 1.0)[..., None, None]
    q *= np.where(case >= 2, 1e5, 1.0)[..., None, None]
    q[..., k:, :k] *= np.where(case == 3, 0.0, 1.0)[..., None, None]
    h = 0.01
    got = _guard(h, q)
    assert np.array_equal(got, _guard_reference(h, q))
    first = _bound(h, q) > 20.0
    assert (~first).any()  # passes the first bound
    assert (first & (got == 0)).any()  # passes the balanced one
    assert (got > 20.0).any()  # trips the guard


def test_guard_gives_a_non_finite_sample_inf():
    # a NaN or an inf anywhere in a matrix makes its norm inf, with no SVD
    # of it, and leaves every other matrix's norm as it was
    rng = np.random.default_rng(7)
    q = rng.standard_normal((2, 5, 4, 4)) * 10.0
    want = _guard(0.5, q)
    q[0, 1, 2, 3] = np.nan
    q[1, 4, 0, 0] = np.inf
    q[1, 2] = np.nan
    got = _guard(0.5, q)
    holed = np.zeros(q.shape[:2], bool)
    holed[0, 1] = holed[1, 4] = holed[1, 2] = True
    assert (got[holed] == np.inf).all()
    assert np.array_equal(got[~holed], want[~holed])
