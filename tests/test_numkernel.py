import numpy as np
import pytest
from numpy.testing import assert_allclose

from cylwave import hermitian_residual, mat_exp, mat_inverse
from cylwave.errors import Overflow, SingularMatrix
from cylwave.numkernel import _inverse_each, _mat_exp, _norm1


class TestInverse:
    def test_identity(self):
        assert_allclose(mat_inverse(np.eye(3)), np.eye(3), atol=0)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0j])
        assert_allclose(mat_inverse(a), np.diag([0.5, -0.25j]), atol=1e-16)

    def test_random_residual(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = a @ mat_inverse(a) - np.eye(6)
        assert np.max(np.abs(r)) < 1e-12

    def test_involution(self):
        # inv(inv(A)) recovers A on well-conditioned input
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            if np.linalg.cond(a) > 1e6:
                continue
            assert_allclose(mat_inverse(mat_inverse(a)), a,
                            rtol=1e-10, atol=1e-10)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix) as exc:
            mat_inverse(a)
        assert exc.value.cond is None or exc.value.cond > 1e12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_inverse(np.ones((2, 3)))

    def test_stack_equals_loop(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 5, 4, 4)) \
            + 1j * rng.standard_normal((3, 5, 4, 4))
        got = mat_inverse(a)
        for i in np.ndindex(a.shape[:2]):
            assert np.array_equal(got[i], mat_inverse(a[i]))

    def test_stack_with_singular_member_raises(self):
        a = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])])
        with pytest.raises(SingularMatrix):
            mat_inverse(a)

    def test_real_stack_with_singular_member_stays_real(self):
        # the batched inverse fails on the singular member and the stack is
        # inverted matrix by matrix; that must not make the result complex
        a = np.stack([2.0 * np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]]),
                      np.diag([4.0, -1.0])])
        b, singular = _inverse_each(a)
        assert b.dtype == np.float64
        assert list(singular) == [False, True, False]
        assert np.array_equal(b[0], 0.5 * np.eye(2))
        assert np.array_equal(b[2], np.diag([0.25, -1.0]))

    def test_real_input_gives_complex(self):
        a = np.array([[2.0, 1.0], [0.0, 4.0]])
        got = mat_inverse(a)
        assert got.dtype == np.complex128
        assert_allclose(got @ a, np.eye(2), atol=1e-15)


class TestExp:
    def test_zero(self):
        assert_allclose(mat_exp(np.zeros((6, 6))), np.eye(6), atol=0)

    def test_diagonal_phase(self):
        a = np.diag([1j * np.pi, 0.0])
        assert_allclose(mat_exp(a), np.diag([-1.0 + 0j, 1.0]), atol=1e-14)

    def test_nilpotent(self):
        n = np.zeros((3, 3))
        n[0, 1] = 2.0
        n[1, 2] = -1.0
        e = mat_exp(n)
        # exp of a nilpotent matrix is the truncated series I + N + N^2/2
        assert_allclose(e, np.eye(3) + n + 0.5 * (n @ n), atol=1e-15)

    def test_exp_of_negative_is_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            a *= 5.0 / np.linalg.norm(a)
            p = mat_exp(a) @ mat_exp(-a)
            assert_allclose(p, np.eye(5), atol=1e-12)

    def test_commuting_diagonal_pair(self):
        rng = np.random.default_rng(5)
        d1 = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        d2 = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert_allclose(mat_exp(d1) @ mat_exp(d2), mat_exp(d1 + d2),
                        rtol=1e-12, atol=1e-12)

    def test_det_equals_exp_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            a *= 5.0 / np.linalg.norm(a)
            assert_allclose(np.linalg.det(mat_exp(a)), np.exp(np.trace(a)),
                            rtol=1e-10)

    def test_large_norm_against_scipy(self):
        from scipy.linalg import expm
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            a *= rng.uniform(1.0, 30.0) / np.linalg.norm(a, 1)
            mine = mat_exp(a)
            ref = expm(a)
            assert np.max(np.abs(mine - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_overflow_raises(self):
        with pytest.raises(Overflow):
            mat_exp(np.diag([800.0, 800.0]))
        # a 1-norm near the float limit leaves no power of two to scale by
        with pytest.raises(Overflow):
            mat_exp(np.diag([1e308, 0.0]))

    def test_stack_equals_loop(self):
        # each matrix keeps its own scaling: the norms span 1e-3 to 40
        rng = np.random.default_rng(37)
        a = rng.standard_normal((4, 6, 4, 4)) \
            + 1j * rng.standard_normal((4, 6, 4, 4))
        a *= np.geomspace(1e-3, 40.0, 24).reshape(4, 6, 1, 1) \
            / np.abs(a).sum(axis=-2).max(axis=-1)[..., None, None]
        a[0, 0] = 0.0
        got = mat_exp(a)
        for i in np.ndindex(a.shape[:2]):
            assert np.array_equal(got[i], mat_exp(a[i]))

    def test_stack_with_overflowing_member_raises(self):
        with pytest.raises(Overflow):
            mat_exp(np.stack([np.eye(2), np.diag([800.0, 800.0])]))

    def test_nonfinite_rejected(self):
        a = np.zeros((2, 2))
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            mat_exp(a)

    def test_real_input_gives_complex(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        got = mat_exp(a)
        assert got.dtype == np.complex128
        assert_allclose(got, [[np.cos(1), np.sin(1)], [-np.sin(1), np.cos(1)]],
                        atol=1e-15)

    def test_private_kernel_keeps_real_dtype(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((5, 4, 4))
        got = _mat_exp(a)
        assert got.dtype == np.float64
        assert_allclose(got, mat_exp(a).real, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("shape", [
    (10, 7, 1, 1), (10, 7, 2, 2), (10, 7, 3, 3), (10, 7, 4, 4), (10, 7, 6, 6),
    # the march's verdict, graded march's verdict and _mat_exp, tilayers
    (10, 13, 2, 2), (10, 1, 3, 3), (10, 1, 6, 6), (266, 6, 6)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_norm1_equals_axis_reduction(shape, kind):
    # _norm1 sums and maximises over slices; it must equal the axis form bit
    # for bit, NaN, inf and all-zero members included
    rng = np.random.default_rng(shape[0] * shape[-1])
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    if kind == "complex":
        a = a + 1j * rng.standard_normal(shape)
    a[0] = 0.0
    a[1].flat[-1] = np.nan
    a[2].flat[0] = np.inf
    a[3].flat[-1] = -np.inf
    want = np.abs(a).sum(-2).max(-1)
    got = _norm1(a)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[1]).any() and np.isinf(got[2]).any()
    assert not got[0].any()


def test_hermitian_residual_hermitian_is_zero():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = 0.5 * (x + x.conj().T)
    assert hermitian_residual(h) < 1e-15


def test_hermitian_residual_shift():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(hermitian_residual(a), np.sqrt(2.0), rtol=1e-15)


def test_hermitian_residual_skew():
    rng = np.random.default_rng(29)
    s = rng.standard_normal((4, 4))
    s = s + s.T
    assert_allclose(hermitian_residual(1j * s), 2.0, rtol=1e-15)
