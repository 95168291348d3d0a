"""Arnoldi decomposition invariants and shifted FOM solves."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from rfom2 import (
    QuadratureRule,
    ZeroRhs,
    arnoldi,
    arnoldi_quad,
    as_operator,
    function_catalog,
    gen_convection_diffusion_2d,
    gen_graded_hermitian,
    gen_laplacian_2d,
)
from rfom2.arnoldi import BREAKDOWN_TOL


def relation_residual(A, dec):
    return np.linalg.norm(A @ dec.Vj - dec.V @ dec.Hbar, "fro")


def numpy_cgs2(op, b, j):
    """Reference for `arnoldi` with reorth on: its CGS2 loop as numpy
    products on a row-major V, with a conjugate copy of V per projection.
    Returns (V, Hbar, j, breakdown)."""
    op = as_operator(op)
    b = np.asarray(b).reshape(-1)
    beta = scipy.linalg.norm(b, check_finite=False)
    v = b / beta
    w = op.apply(v)
    V = np.zeros((op.dim, j + 1), dtype=np.result_type(v, w))
    Hbar = np.zeros((j + 1, j), dtype=V.dtype)
    V[:, 0] = v
    for ell in range(j):
        if ell:
            w = op.apply(V[:, ell])
        h = V[:, : ell + 1].conj().T @ w
        w = w - V[:, : ell + 1] @ h
        h2 = V[:, : ell + 1].conj().T @ w
        w = w - V[:, : ell + 1] @ h2
        h = h + h2
        Hbar[: ell + 1, ell] = h
        hnext = scipy.linalg.norm(w, check_finite=False)
        if hnext < BREAKDOWN_TOL * max(np.max(np.abs(Hbar)), 1e-300):
            jt = ell + 1
            return V[:, : jt + 1].copy(), Hbar[: jt + 1, :jt].copy(), jt, True
        Hbar[ell + 1, ell] = hnext
        V[:, ell + 1] = w / hnext
    return V, Hbar, j, False


def complex_hermitian(A, rng):
    """D A D^H for a random unit-modulus diagonal D, symmetrized: a complex
    Hermitian matrix with A's spectrum, Hermitian to the bit."""
    phase = np.exp(2j * np.pi * rng.uniform(size=A.shape[0]))
    B = (phase[:, None] * A) * phase.conj()[None, :]
    return 0.5 * (B + B.conj().T)


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


def shifted_fom_solve(dec, sigma):
    """The FOM iterate x_j(sigma) = ||b|| V_j (sigma I - H_j)^{-1} e_1 for
    (sigma I - A) x = b: `arnoldi_quad` on the one-node rule at sigma, whose
    Stieltjes kind multiplies the solve by its weight 1 alone."""
    rule = QuadratureRule(nodes=[sigma], weights=[1.0], kind="stieltjes")
    return arnoldi_quad(dec, function_catalog("inverse"), rule)


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


class TestCgs2AgainstNumpyLoop:
    """`arnoldi` runs CGS2 as BLAS gemv on a column-major V; `numpy_cgs2`
    is the loop it replaced. Both read the same operator, so the gaps are
    CGS2's rounding alone. Over seeds 0-199 of these inputs at j = 20 the
    largest gaps were 2.8e-13 in V and 4.5e-15 relative in Hbar."""

    V_TOL, HBAR_RTOL = 1e-11, 1e-13

    @staticmethod
    def inputs(name, rng):
        n = 120
        if name == "breakdown":  # b in a 5-dim invariant subspace
            return np.diag(np.arange(1.0, n + 1)), \
                np.concatenate([rng.standard_normal(5), np.zeros(n - 5)])
        real = name.startswith("real")
        b = rng.standard_normal(n) if real else rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if name.endswith("hermitian dense"):
            G = gen_graded_hermitian(n, seed=int(rng.integers(1000)))
            return (G if real else complex_hermitian(G, rng)), b
        if name.endswith(" dense"):
            M = rng.standard_normal((n, n))
            return (M if real else M + 1j * rng.standard_normal((n, n))), b
        b = np.append(b, b[0])  # the 11 x 11 grids have n = 121
        if name == "real hermitian csr":
            return gen_laplacian_2d(11), b
        A = gen_convection_diffusion_2d(11, 1.0)
        return (A if real else (A + 1j * scipy.sparse.diags(np.linspace(0.0, 1.0, 121))).tocsr()), b

    @pytest.mark.parametrize("name", [
        "real hermitian dense", "complex hermitian dense", "real dense", "complex dense",
        "real hermitian csr", "real csr", "complex csr", "breakdown"])
    def test_matches_the_numpy_loop(self, name):
        A, b = self.inputs(name, np.random.default_rng(0))
        op = as_operator(A)
        dec = arnoldi(op, b, 20)
        V, Hbar, j, breakdown = numpy_cgs2(op, b, 20)
        assert (dec.j, dec.breakdown) == (j, breakdown)
        assert breakdown == (name == "breakdown")
        assert dec.V.flags.c_contiguous
        assert dec.V.dtype == V.dtype and dec.Hbar.dtype == Hbar.dtype
        assert np.linalg.norm(dec.V - V) <= self.V_TOL
        assert np.linalg.norm(dec.Hbar - Hbar) <= self.HBAR_RTOL * np.linalg.norm(Hbar)


class TestHermitianOperator:
    """An exactly Hermitian C-ordered float64/complex128 A applies a vector
    of its own dtype by BLAS symv/hemv; over seeds 0-999 of these inputs
    the gap to A @ v read at most 7.7e-17 of ||A||_F ||v||."""

    APPLY_RTOL = 1e-15

    @staticmethod
    def hermitian(complex_, rng, n=60):
        M = rng.standard_normal((n, n))
        if complex_:
            M = M + 1j * rng.standard_normal((n, n))
        return M + M.conj().T

    @staticmethod
    def vector(dtype, rng, n=60):
        v = rng.standard_normal(n)
        return v + 1j * rng.standard_normal(n) if dtype == np.complex128 else v.astype(dtype)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_vector_apply_matches_matmul(self, complex_):
        rng = np.random.default_rng(0)
        A = self.hermitian(complex_, rng)
        v = self.vector(A.dtype, rng)
        out = as_operator(A).apply(v)
        assert out.dtype == A.dtype
        assert np.linalg.norm(out - A @ v) \
            <= self.APPLY_RTOL * np.linalg.norm(A) * np.linalg.norm(v)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_other_inputs_are_matmul_to_the_bit(self, complex_):
        rng = np.random.default_rng(1)
        A = self.hermitian(complex_, rng)
        off = A.copy()  # one off-diagonal entry moved by one ulp
        off.real[3, 7] = np.nextafter(off.real[3, 7], np.inf)
        other = np.float64 if complex_ else np.complex128
        cases = [
            (A, rng.standard_normal((60, 4))),    # a block
            (A, self.vector(other, rng)),          # a vector of another dtype
            (np.asfortranarray(A), self.vector(A.dtype, rng)),
            (off, self.vector(A.dtype, rng)),
        ]
        if not complex_:
            cases.append((A.astype(np.float32), self.vector(np.float32, rng)))
        for M, v in cases:
            assert np.array_equal(as_operator(M).apply(v), M @ v)


def test_operator_wrapper():
    A = np.diag([1.0, 2.0, 3.0])
    op = as_operator(A)
    assert op.dim == 3
    assert np.allclose(op.apply(np.ones(3)), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        as_operator(np.ones((2, 3)))
