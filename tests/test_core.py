"""Dense kernel contracts: factor/solve, QR, eigen, SVD."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rfom2 import (
    NoConvergence,
    RankDeficient,
    SingularMatrix,
    SingularPencil,
    eig_dense,
    generalized_eig,
    lu_solve,
    qr_orthonormalize,
    svd_values,
)


class TestLuSolve:
    def test_identity(self):
        B = np.arange(6.0).reshape(3, 2) + 1j
        X = lu_solve(np.eye(3), B)
        assert np.allclose(X, B, rtol=0, atol=0)

    def test_diagonal(self):
        X = lu_solve(np.diag([2.0, 4.0]), np.array([1.0, 1.0]))
        assert np.allclose(X, [0.5, 0.25], rtol=0, atol=1e-15)

    def test_residual_random(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        M += 8 * np.eye(8)  # keep it well conditioned
        B = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        X = lu_solve(M, B)
        assert np.linalg.norm(M @ X - B) <= 1e-12 * np.linalg.norm(B)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular(self):
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            lu_solve(M, np.ones(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            lu_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))

    def test_exactly_singular_raises_without_a_warning(self):
        # an exactly zero pivot raises SingularMatrix with no warning first;
        # under the suite's filterwarnings = error, scipy's LinAlgWarning
        # would be raised in its place
        with pytest.raises(SingularMatrix):
            lu_solve(np.zeros((3, 3)), np.ones(3))

    @pytest.mark.one_blas_thread
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 24), complex_m=st.booleans(), complex_b=st.booleans(),
           n_rhs=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy_lu_factor_and_solve(self, n, complex_m, complex_b, n_rhs, seed):
        # one gesv call gives scipy's getrf-then-getrs result bit for bit,
        # for a vector B (n_rhs = 0) and a block B, in every dtype pairing
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        B = rng.standard_normal((n, n_rhs) if n_rhs else n)
        if complex_m:
            M = M + 1j * rng.standard_normal((n, n))
        if complex_b:
            B = B + 1j * rng.standard_normal(B.shape)
        X = lu_solve(M, B)
        ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), B)
        assert X.shape == ref.shape and X.dtype == ref.dtype
        assert np.array_equal(X, ref)


class TestQr:
    def test_orthonormal_input(self):
        Q0 = np.eye(4)[:, :2]
        Q, R = qr_orthonormalize(Q0)
        # Q equals the input up to column phases; R diagonal unit-modulus
        assert np.allclose(np.abs(np.diag(R)), 1.0, atol=1e-14)
        assert np.allclose(np.abs(Q.conj().T @ Q0), np.eye(2), atol=1e-14)

    def test_span(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        M = np.column_stack([e1, e1 + e2])
        Q, _ = qr_orthonormalize(M)
        # span(Q) = span{e1, e2}: e3 components vanish
        assert np.allclose(Q[2, :], 0.0, atol=1e-14)
        proj = Q @ (Q.conj().T @ e2)
        assert np.allclose(proj, e2, atol=1e-13)

    def test_orthogonality_random(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((20, 5)) + 1j * rng.standard_normal((20, 5))
        Q, R = qr_orthonormalize(M)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(5)) <= 1e-12
        assert np.linalg.norm(Q @ R - M) <= 1e-12 * np.linalg.norm(M)

    def test_orthogonality_tall(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((1000, 50))
        Q, _ = qr_orthonormalize(M)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(50), "fro") <= 1e-12

    def test_rank_deficient(self):
        M = np.column_stack([np.ones(4), 2 * np.ones(4)])
        with pytest.raises(RankDeficient):
            qr_orthonormalize(M)


class TestEig:
    def test_hermitian_diag(self):
        w, Q = eig_dense(np.diag([3.0, 1.0, 2.0]), hermitian=True)
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-14)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(3)) <= 1e-10

    def test_swap(self):
        w, _ = eig_dense(np.array([[0.0, 1.0], [1.0, 0.0]]), hermitian=True)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_trace_identity(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        M = M + M.conj().T
        w, Q = eig_dense(M, hermitian=True)
        assert abs(np.sum(w) - np.trace(M).real) <= 1e-10 * np.linalg.norm(M)
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(50)) <= 1e-10

    def test_general_residual(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        w, P = eig_dense(M, hermitian=False)
        scale = np.linalg.norm(M)
        for i in range(12):
            r = M @ P[:, i] - w[i] * P[:, i]
            assert np.linalg.norm(r) <= 1e-10 * scale

    def test_hermitian_flag_checked(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            eig_dense(M, hermitian=True)


class TestGeneralizedEig:
    def test_diagonal_pencil(self):
        w, _ = generalized_eig(np.diag([2.0, 6.0]), np.diag([1.0, 2.0]))
        assert np.allclose(sorted(w.real), [2.0, 3.0], atol=1e-12)
        assert np.allclose(w.imag, 0.0, atol=1e-12)

    def test_identity_reduces_to_eig(self):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((8, 8))
        wg, _ = generalized_eig(M, np.eye(8))
        we, _ = eig_dense(M, hermitian=False)
        key = lambda z: (round(z.real, 6), round(z.imag, 6))
        assert np.allclose(sorted(wg, key=key), sorted(we, key=key), atol=1e-8)

    def test_residual_random(self):
        rng = np.random.default_rng(22)
        A = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        B = rng.standard_normal((10, 10)) + 5 * np.eye(10)
        values, vectors = generalized_eig(A, B)
        nA, nB = np.linalg.norm(A), np.linalg.norm(B)
        for i in range(10):
            g = vectors[:, i]
            r = A @ g - values[i] * (B @ g)
            assert np.linalg.norm(r) <= 1e-8 * (nA + abs(values[i]) * nB) * np.linalg.norm(g)

    def test_singular_pencil(self):
        with pytest.raises(SingularPencil):
            generalized_eig(np.eye(3), np.zeros((3, 3)))


class TestSvd:
    def test_diag(self):
        assert np.allclose(svd_values(np.diag([3.0, -4.0])), [4.0, 3.0])

    def test_rank_one(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        s = svd_values(np.outer(u, v.conj()))
        assert np.allclose(s[0], np.linalg.norm(u) * np.linalg.norm(v), atol=1e-12)
        assert np.allclose(s[1:], 0.0, atol=1e-12)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(33)
        M = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        s = svd_values(M)
        assert abs(np.sum(s**2) - np.linalg.norm(M, "fro") ** 2) <= 1e-12 * np.linalg.norm(M, "fro") ** 2
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
