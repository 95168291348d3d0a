"""Arnoldi decomposition invariants and shifted FOM solves."""

import numpy as np
import pytest

from rfom2 import ZeroRhs, arnoldi, as_operator, gen_laplacian_2d, shifted_fom_solve


def relation_residual(A, dec):
    return np.linalg.norm(A @ dec.Vj - dec.V @ dec.Hbar, "fro")


class TestArnoldi:
    def test_identity_breaks_down(self):
        b = np.array([1.0, 2.0, 3.0])
        dec = arnoldi(np.eye(3), b, 2)
        assert dec.breakdown and dec.j == 1
        assert np.allclose(dec.H, [[1.0]], atol=1e-14)

    def test_hermitian_gives_tridiagonal(self):
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        dec = arnoldi(A, np.full(4, 0.5), 3)
        H = dec.H
        assert np.linalg.norm(H - H.conj().T) <= 1e-12
        assert np.linalg.norm(np.triu(H, 2)) <= 1e-12
        assert np.linalg.norm(H.imag) <= 1e-12

    def test_relation_and_orthogonality(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((100, 100))
        b = rng.standard_normal(100)
        dec = arnoldi(A, b, 30)
        assert relation_residual(A, dec) <= 1e-10 * np.linalg.norm(dec.Hbar, "fro")
        VhV = dec.V.conj().T @ dec.V
        assert np.linalg.norm(VhV - np.eye(31), "fro") <= 1e-10
        assert np.allclose(dec.V[:, 0], b / np.linalg.norm(b))
        assert np.linalg.norm(np.tril(dec.Hbar, -2)) == 0.0

    def test_reorthogonalization_graded(self):
        # graded spectrum where single-pass Gram-Schmidt loses orthogonality
        rng = np.random.default_rng(6)
        n = 150
        lam = np.geomspace(1e-8, 1.0, n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * lam) @ Q.T
        dec = arnoldi(A, rng.standard_normal(n), 100, reorth=True)
        VhV = dec.V.conj().T @ dec.V
        assert np.linalg.norm(VhV - np.eye(dec.j + 1)) <= 1e-12

    def test_entries_past_sqrt_range(self):
        # sqrt(x.x) overflows once entries pass about 1e154; the norms of
        # b and of each new vector must not. Scaling A and b by c scales
        # Hbar and beta by c and keeps V, up to the rounding of c A (V
        # moved by 6e-15 here)
        A = gen_laplacian_2d(6)
        b = np.random.default_rng(8).standard_normal(36)
        dec, big = arnoldi(A, b, 10), arnoldi(A * 1e160, b * 1e160, 10)
        assert np.isfinite(big.Hbar).all()
        assert np.linalg.norm(big.Hbar / 1e160 - dec.Hbar) <= 1e-13 * np.linalg.norm(dec.Hbar)
        assert np.linalg.norm(big.V - dec.V) <= 1e-13
        assert abs(big.beta / 1e160 - dec.beta) <= 1e-14 * dec.beta

    def test_zero_rhs(self):
        with pytest.raises(ZeroRhs):
            arnoldi(np.eye(4), np.zeros(4), 2)


class TestShiftedFom:
    def test_exhaustion_gives_exact_inverse(self):
        # b confined to a 5-dim invariant subspace: the Krylov space
        # exhausts, and the sigma = 0 solve of (sigma I - A) x = b is -inv(A) b
        rng = np.random.default_rng(8)
        A = np.diag(np.arange(1.0, 13.0))
        b = np.concatenate([rng.standard_normal(5), np.zeros(7)])
        dec = arnoldi(A, b, 10)
        assert dec.breakdown and dec.j == 5
        x = shifted_fom_solve(dec, 0.0)
        exact = -np.linalg.solve(A, b)
        assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_galerkin_orthogonality(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((60, 60))
        A = M + M.T
        b = rng.standard_normal(60)
        dec = arnoldi(A, b, 15)
        sigma = 200.0  # real shift outside the spectrum
        x = shifted_fom_solve(dec, sigma)
        r = b - (sigma * x - A @ x)
        assert np.linalg.norm(dec.Vj.conj().T @ r) <= 1e-10 * np.linalg.norm(b)

    def test_dominant_shift_asymptotics(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((40, 40))
        b = rng.standard_normal(40)
        dec = arnoldi(A, b, 10)
        sigma = 1e8
        x = shifted_fom_solve(dec, sigma)
        ratio = np.linalg.norm(x) * sigma / np.linalg.norm(b)
        assert abs(ratio - 1.0) <= 1e-6

    def test_shift_invariance(self):
        # one basis serves all shifts: compare against FOM run on sigma I - A
        rng = np.random.default_rng(13)
        A = rng.standard_normal((50, 50))
        b = rng.standard_normal(50)
        j = 20
        dec = arnoldi(A, b, j)
        for sigma in (50.0, -30.0, 25.0 + 10.0j):
            x = shifted_fom_solve(dec, sigma)
            dec2 = arnoldi(sigma * np.eye(50) - A, b, j)
            e1 = np.zeros(dec2.j)
            e1[0] = 1.0
            y = np.linalg.solve(dec2.H, e1)
            x2 = dec2.beta * (dec2.Vj @ y)
            assert np.linalg.norm(x - x2) <= 1e-8 * np.linalg.norm(x2)


def test_operator_wrapper():
    A = np.diag([1.0, 2.0, 3.0])
    op = as_operator(A)
    assert op.dim == 3
    assert np.allclose(op.apply(np.ones(3)), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        as_operator(np.ones((2, 3)))
