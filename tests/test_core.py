"""Dense kernel contracts: factor/solve, eigen, SVD, norm, Hermitian test."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rfom2 import (
    NoConvergence,
    SingularMatrix,
    SingularPencil,
    eig_dense,
    generalized_eig,
    lu_solve,
    svd_values,
)
from rfom2.core import is_hermitian, norm


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


def norm_inputs(cplx):
    """A dense vector, a dense matrix and a canonical CSR matrix."""
    rng = np.random.default_rng(0)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if cplx else x

    S = scipy.sparse.csr_matrix(np.where(rng.random((30, 20)) < 0.2, draw((30, 20)), 0.0))
    return draw(40), draw((30, 20)), S


class TestNorm:
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 2.0**530, 2.0**-530])
    def test_scale_past_sqrt_range(self, cplx, scale):
        # at 2^530 sqrt(x.x) overflows and at 2^-530 it underflows; nrm2
        # gives the unscaled norm times the scale
        for X in norm_inputs(cplx):
            got = norm(X * scale)
            want = norm(X) * scale
            assert type(got) is float and abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("cplx", [False, True])
    def test_sparse_reads_the_stored_entries(self, cplx):
        S = norm_inputs(cplx)[2]
        dense = S.toarray()
        assert abs(norm(S) - norm(dense)) <= 1e-15 * norm(dense)
        assert abs(norm(S) - np.linalg.norm(dense)) <= 1e-14 * norm(dense)


class TestIsHermitian:
    def test_entries_past_sqrt_range(self):
        # at 1e160 both Frobenius norms overflow as sqrt(x.x); nrm2 keeps
        # them finite, so the test still tells the two matrices apart
        for c in (1.0, 1e160, 1e-160):
            assert not is_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]) * c)
            assert is_hermitian(np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]]) * c)

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_sparse_reads_the_stored_entries(self, fmt):
        # rtol = 0 is exact equality; 1e-10 takes a 1e-12 relative defect
        # but not a 1e-9 one; and a 1e160 scale overflows neither norm
        M = scipy.sparse.random(30, 30, density=0.2, random_state=0, format="csr")
        M = M + M.T + scipy.sparse.identity(30)
        for c in (1.0, 1e160):
            S = (M * c).asformat(fmt)
            assert is_hermitian(S, 0) and not is_hermitian(S * (1.0 + 1.0j), 0)
            D = scipy.sparse.coo_matrix(([1.0], ([0], [1])), shape=(30, 30)) * c
            norm = scipy.sparse.linalg.norm(M)
            assert not is_hermitian(S + 1e-12 * norm * D, 0)
            assert is_hermitian(S + 1e-12 * norm * D, 1e-10)
            assert not is_hermitian(S + 1e-9 * norm * D, 1e-10)


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
