"""Harmonic Ritz subspace updates and principal angles."""

import numpy as np
import pytest
import scipy.linalg

from rfom2 import (
    RecycleSubspace,
    arnoldi,
    as_operator,
    augmented_basis,
    gen_graded_hermitian,
    generalized_eig,
    harmonic_ritz_pencil,
    harmonic_ritz_update,
    subspace_angle,
    svd_values,
)
from rfom2.core import RankDeficient, is_hermitian
from rfom2.problems import gen_convection_diffusion_2d, gen_laplacian_2d


def eig_update(dec, rec, op, k):
    """Reference for `harmonic_ritz_update`: one general eig of
    `harmonic_ritz_pencil` for every problem, Hermitian or not, with the
    same selection and column clean-up, applied to
    C = A V_hat g = C g_U + V_{j+1} (Hbar g_V) as to U = V_hat g."""
    Vhat, AVhat = augmented_basis(dec, rec)
    m = Vhat.shape[1] - dec.j
    values, vectors = scipy.linalg.eig(*harmonic_ritz_pencil(dec, rec), check_finite=False)
    order = np.argsort(np.abs(values))
    finite = [i for i in order if np.isfinite(values[i])]
    g = vectors[:, finite[:k]]
    U, C = Vhat @ g, AVhat[:, :m] @ g[:m] + dec.V @ (dec.Hbar @ g[m:])
    norms = np.linalg.norm(U, axis=0)
    keep = norms > 1e-14 * np.max(norms)
    U, C = U[:, keep] / norms[keep], C[:, keep] / norms[keep]
    sv = svd_values(U)
    if sv[-1] < 1e-12 * sv[0]:
        Q, R = np.linalg.qr(U)
        diag = np.abs(np.diag(R))
        keep = diag > 1e-12 * np.max(diag)
        norms = np.linalg.norm(U[:, keep], axis=0)
        U, C = U[:, keep] / norms, C[:, keep] / norms
    return RecycleSubspace(U=U, C=C)


class TestSubspaceAngle:
    def test_same_subspace(self):
        U = np.random.default_rng(0).standard_normal((8, 3))
        assert subspace_angle(U, U) <= 1e-12

    def test_orthogonal(self):
        e1 = np.eye(4)[:, :1]
        e2 = np.eye(4)[:, 1:2]
        assert abs(subspace_angle(e1, e2) - np.pi / 2) <= 1e-12

    def test_forty_five_degrees(self):
        e1 = np.eye(4)[:, :1]
        mix = (np.eye(4)[:, 0] + np.eye(4)[:, 1]).reshape(-1, 1) / np.sqrt(2)
        assert abs(subspace_angle(e1, mix) - np.pi / 4) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            subspace_angle(np.zeros((4, 0)), np.eye(4)[:, :1])


class TestHarmonicRitz:
    def test_k_zero_is_empty(self):
        A = np.diag(np.arange(1.0, 21.0))
        dec = arnoldi(A, np.ones(20), 6)
        rec = RecycleSubspace.empty(20)
        out = harmonic_ritz_update(dec, rec, A, 0)
        assert out.k == 0

    def test_update_properties(self):
        A = np.diag(np.arange(1.0, 101.0))
        dec = arnoldi(A, np.ones(100), 20)
        rec = RecycleSubspace.empty(100)
        out = harmonic_ritz_update(dec, rec, A, 5)
        assert out.k == 5
        # C = A U, unit columns
        assert np.linalg.norm(A @ out.U - out.C, "fro") \
            <= 1e-10 * np.linalg.norm(out.C, "fro")
        assert np.allclose(np.linalg.norm(out.U, axis=0), 1.0, atol=1e-12)

    def test_pencil_residuals(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((60, 60))
        A = M + M.T + 60 * np.eye(60)
        b = rng.standard_normal(60)
        dec = arnoldi(A, b, 12)
        U = rng.standard_normal((60, 4)).astype(complex)
        rec = RecycleSubspace(U=U, C=A @ U)
        lhs, rhs = harmonic_ritz_pencil(dec, rec)
        values, vectors = generalized_eig(lhs, rhs)
        nL, nR = np.linalg.norm(lhs), np.linalg.norm(rhs)
        for i in range(values.size):
            if not np.isfinite(values[i]):
                continue
            g = vectors[:, i]
            r = lhs @ g - values[i] * (rhs @ g)
            assert np.linalg.norm(r) <= 1e-8 * (nL + abs(values[i]) * nR) * np.linalg.norm(g)

    def test_smallest_eigenvalue_approximation_improves(self):
        # fixed diagonal matrix: the recycled subspace tracks the smallest
        # eigenvectors, and a second pass through the sequence tightens it
        n, j, k = 100, 20, 5
        A = np.diag(np.arange(1.0, n + 1.0))
        rng = np.random.default_rng(2)
        Z = np.eye(n)[:, :k]  # exact smallest eigenvectors

        rec = RecycleSubspace.empty(n)
        dec = arnoldi(A, np.ones(n), j)
        rec = harmonic_ritz_update(dec, rec, A, k)
        angle1 = subspace_angle(rec.U, Z)

        dec = arnoldi(A, rng.standard_normal(n), j)
        rec = harmonic_ritz_update(dec, rec, A, k)
        angle2 = subspace_angle(rec.U, Z)
        assert angle2 < angle1
        # harmonic Ritz values of the final pencil approximate 1..k
        lhs, rhs = harmonic_ritz_pencil(arnoldi(A, rng.standard_normal(n), j), rec)
        values, _ = generalized_eig(lhs, rhs)
        values = values[np.isfinite(values)]
        theta = np.sort(np.abs(values))[:k]
        assert np.allclose(theta, np.arange(1.0, k + 1.0), rtol=0.1)

    def test_exhaustion(self):
        # k + j = n with a nonsingular pencil: harmonic Ritz values are
        # the eigenvalues of A as a multiset
        rng = np.random.default_rng(3)
        n, k, j = 20, 4, 16
        M = rng.standard_normal((n, n))
        A = M + M.T + n * np.eye(n)
        U = rng.standard_normal((n, k)).astype(complex)
        rec = RecycleSubspace(U=U, C=A @ U)
        dec = arnoldi(A, rng.standard_normal(n), j)
        lhs, rhs = harmonic_ritz_pencil(dec, rec)
        values, _ = generalized_eig(lhs, rhs)
        theta = np.sort(values.real)
        w = np.sort(np.linalg.eigvalsh(A))
        assert np.allclose(theta, w, atol=1e-6 * np.linalg.norm(A))
        assert np.max(np.abs(values.imag)) <= 1e-6 * np.linalg.norm(A)

    def test_update_with_operator_only(self):
        # the update needs A only through matrix-vector products
        A = np.diag(np.arange(1.0, 31.0))
        op = as_operator(A)
        dec = arnoldi(op, np.ones(30), 10)
        rec = harmonic_ritz_update(dec, RecycleSubspace.empty(30), op, 3)
        assert rec.k == 3
        assert np.linalg.norm(A @ rec.U - rec.C) <= 1e-10 * np.linalg.norm(rec.C)


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_no_finite_harmonic_ritz_value(self):
        # entries near 1e160: lhs = (A V_hat)^* A V_hat overflows, so no
        # harmonic Ritz value is finite and there is nothing to select
        A = gen_laplacian_2d(6).toarray() * 1e160
        dec = arnoldi(A, np.random.default_rng(0).standard_normal(36), 10)
        with pytest.raises(RankDeficient):
            harmonic_ritz_update(dec, RecycleSubspace.empty(36), A, 2)


class TestHermitianUpdate:
    """The eigh path of the update, on Hermitian problems, against the
    general eig it replaces, and the problems that keep eig."""

    # Largest angle between the eigh and eig updates over graded seeds
    # 0-999 (n = 200, j = 30, k = 8, four recycled problems each): 7.0e-10.
    ANGLE_TOL = 1e-8

    def test_eigh_selects_the_eig_subspace(self):
        n, j, k = 200, 30, 8
        for seed in range(3):
            op = as_operator(gen_graded_hermitian(n, seed=seed))
            rng = np.random.default_rng(seed)
            rec = RecycleSubspace.empty(n)
            for _ in range(4):
                dec = arnoldi(op, rng.standard_normal(n), j)
                assert is_hermitian(harmonic_ritz_pencil(dec, rec)[1])
                new = harmonic_ritz_update(dec, rec, op, k)
                assert new.k == k
                assert subspace_angle(new.U, eig_update(dec, rec, op, k).U) <= self.ANGLE_TOL
                rec = new

    def test_non_hermitian_update_is_unchanged(self):
        A = gen_convection_diffusion_2d(10, convection=5.0)
        op = as_operator(A)
        rng = np.random.default_rng(22)
        rec = RecycleSubspace.empty(100)
        for _ in range(3):
            dec = arnoldi(op, rng.standard_normal(100), 15)
            assert not is_hermitian(harmonic_ritz_pencil(dec, rec)[1])
            new, ref = harmonic_ritz_update(dec, rec, op, 4), eig_update(dec, rec, op, 4)
            assert np.array_equal(new.U, ref.U) and np.array_equal(new.C, ref.C)
            rec = new

    def test_singular_lhs_falls_back_to_eig(self):
        # U in the null space of A: C = 0, so lhs = (A V_hat)^* A V_hat is
        # singular and eigh's Cholesky factorisation fails; eig takes over
        A = np.diag(np.concatenate([np.zeros(2), np.linspace(1.0, 9.0, 48)]))
        b = np.concatenate([np.zeros(2), np.random.default_rng(13).standard_normal(48)])
        dec = arnoldi(A, b, 10)
        rec = RecycleSubspace.from_basis(A, np.eye(50)[:, :2])
        lhs, rhs = harmonic_ritz_pencil(dec, rec)
        assert is_hermitian(rhs)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.eigh(rhs, lhs)
        new, ref = harmonic_ritz_update(dec, rec, A, 4), eig_update(dec, rec, A, 4)
        assert np.array_equal(new.U, ref.U) and np.array_equal(new.C, ref.C)
