"""Harmonic Ritz subspace updates and principal angles."""

import copy

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rfom2 import engines
from rfom2.core import RankDeficient, is_hermitian
from rfom2.engines import _decompose, rfom_v2
from rfom2.problems import function_catalog, gen_convection_diffusion_2d, gen_laplacian_2d
from rfom2.quadrature import guarded_contour, trapezoid_contour
from rfom2 import recycling
from rfom2.recycling import TIE_RTOL, _independent, _selected_pairs


def reference_pairs(lhs, rhs, k, reduced=False, untie=True):
    """(vectors, selected): the pencil lhs g = theta rhs g solved by one
    general eig (QZ) or, with reduced, by the Cholesky factor lhs = L L^*,
    the complex Schur form L^{-1} rhs L^{-*} = Z T Z^* and one eig of the
    triangular T, whose eigenvalues are nu = 1/theta and eigenvectors Y,
    with g = L^{-*} Z Y; the k smallest finite |theta|, smallest first, less,
    with untie, each one whose magnitude ties the first left out to TIE_RTOL."""
    if reduced:
        L = scipy.linalg.cholesky(lhs.astype(complex), lower=True)
        LinvR = scipy.linalg.solve_triangular(L, rhs, lower=True)
        M = scipy.linalg.solve_triangular(L, LinvR.conj().T, lower=True).conj().T
        T, Z = scipy.linalg.schur(M, output="complex")
        nu, Y = np.linalg.eig(T)
        vectors = scipy.linalg.solve_triangular(L, Z @ Y, lower=True, trans="C")
        order = [i for i in np.argsort(-np.abs(nu)) if nu[i] != 0.0]
        size = np.abs(nu)
    else:
        values, vectors = scipy.linalg.eig(lhs, rhs, check_finite=False)
        order = [i for i in np.argsort(np.abs(values)) if np.isfinite(values[i])]
        size = np.abs(values)
    selected = order[:k]
    if untie and len(order) > k:
        cut = size[order[k]]
        selected = [i for i in selected if abs(size[i] - cut) > TIE_RTOL * cut]
    return vectors, selected


def eig_update(dec, rec, k, reduced=False, untie=True):
    """Reference for `harmonic_ritz_update`: `reference_pairs` of
    `harmonic_ritz_pencil`, QZ for every problem, Hermitian or not, unless
    reduced, and the same column clean-up, applied to
    C = A V_hat g = C g_U + V_{j+1} (Hbar g_V) as to U = V_hat g."""
    Vhat, AVhat = augmented_basis(dec, rec)
    m = Vhat.shape[1] - dec.j
    vectors, selected = reference_pairs(*harmonic_ritz_pencil(dec, rec), k, reduced, untie)
    g = vectors[:, selected]
    U, C = Vhat @ g, AVhat[:, :m] @ g[:m] + dec.V @ (dec.Hbar @ g[m:])
    norms = np.linalg.norm(U, axis=0)
    keep = norms > 1e-14 * np.max(norms)
    U, C = U[:, keep] / norms[keep], C[:, keep] / norms[keep]
    keep = svd_then_qr_keep(U)
    if not keep.all():
        norms = np.linalg.norm(U[:, keep], axis=0)
        U, C = U[:, keep] / norms, C[:, keep] / norms
    return RecycleSubspace(U=U, C=C)


def svd_then_qr_keep(U):
    """The columns of U to keep, decided as the update once did: every one
    when cond_2(U) <= 1e12 by an SVD, else those with |R_ii| > 1e-12
    max |R_ii| on the unpivoted QR."""
    sv = svd_values(U)
    if sv[-1] >= 1e-12 * sv[0]:
        return np.ones(U.shape[1], dtype=bool)
    diag = np.abs(np.diag(np.linalg.qr(U)[1]))
    return diag > 1e-12 * np.max(diag)


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
        # a span of no dimension, though the array has columns
        with pytest.raises(ValueError):
            subspace_angle(np.zeros((4, 2)), np.eye(4)[:, :1])

    def test_rank_deficient(self):
        # dependent columns add nothing to the span: U spans e1 and e2
        I = np.eye(6)
        U = np.column_stack([I[:, 0], I[:, 1], I[:, 0] - 2.0 * I[:, 1]])
        Z = np.column_stack([I[:, 0], np.cos(0.3) * I[:, 1] + np.sin(0.3) * I[:, 2]])
        for X, Y in ((U, Z), (Z, U)):
            assert abs(subspace_angle(X, Y) - 0.3) <= 1e-14

    @pytest.mark.parametrize("theta", [1e-9, 0.3, 1.2])
    def test_unequal_dimensions(self, theta):
        # the smaller span's principal angles, in either order: span(Z) lies
        # at theta to span(U), and e1, in both, at no angle to the other
        I = np.eye(6)
        U = I[:, :3]
        Z = np.column_stack([I[:, 0], np.cos(theta) * I[:, 1] + np.sin(theta) * I[:, 4]])
        for X, Y in ((U, Z), (Z, U)):
            assert abs(subspace_angle(X, Y) - theta) <= 1e-14
            assert subspace_angle(X, Y[:, :1]) <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(cplx=st.booleans(), extra=st.integers(0, 6),
           thetas=st.lists(st.floats(1e-12, np.pi / 2), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_prescribed_angles(self, cplx, extra, thetas, seed):
        # Z = U cos(Theta) + W sin(Theta), with U and W orthonormal and
        # orthogonal to each other, is at the principal angles Theta to
        # span(U); each basis is mixed by a well-conditioned matrix. Angles
        # near pi/2 beside small ones are where taking every angle from its
        # sine, once the largest cosine passes 1/sqrt(2), loses digits
        rng = np.random.default_rng(seed)
        k = len(thetas)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if cplx else x

        def mixed(X):
            return X @ (np.linalg.qr(draw(k, k))[0] * rng.uniform(0.5, 2.0, k))

        Q = np.linalg.qr(draw(2 * k + extra, 2 * k))[0]
        U, W = Q[:, :k], Q[:, k:]
        theta = np.array(thetas)
        Z = U * np.cos(theta) + W * np.sin(theta)
        for X, Y in ((U, Z), (Z, U)):
            assert abs(subspace_angle(mixed(X), mixed(Y)) - theta.max()) <= 1e-13


class TestHarmonicRitz:
    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_scale_of_a(self, scale):
        # harmonic Ritz vectors of c A are those of A; past 2^500 (below
        # 2^-500) (A V_hat)^* A V_hat would overflow (underflow), so the
        # pencil is scaled by a power of two: a second update, from a
        # carried subspace, keeps the unscaled k and span
        A = gen_laplacian_2d(6)
        rng = np.random.default_rng(3)
        b1, b2 = rng.standard_normal(36), rng.standard_normal(36)

        def updates(c):
            op = as_operator(A * c)
            rec = harmonic_ritz_update(arnoldi(op, b1, 10), RecycleSubspace.empty(36), op, 2)
            return rec, harmonic_ritz_update(arnoldi(op, b2, 10), rec, op, 2)

        for plain, scaled in zip(updates(1.0), updates(scale)):
            assert scaled.k == plain.k == 2
            assert subspace_angle(scaled.U, plain.U) <= 1e-10

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
        # a nilpotent A, the down shift, from b = e_1: V_{j+1} = I[:, :j+1],
        # lhs = Hbar^* Hbar = I and rhs = H^* is nilpotent too, so every
        # harmonic Ritz value is infinite and there is nothing to select
        A = np.eye(36, k=-1)
        dec = arnoldi(A, np.eye(36)[:, 0], 10)
        with pytest.raises(RankDeficient):
            harmonic_ritz_update(dec, RecycleSubspace.empty(36), A, 2)


class TestDependentColumns:
    """The update drops each selected vector nearly in the span of the ones
    before it, by one unpivoted QR."""

    def test_a_repeated_vector_is_dropped(self, monkeypatch):
        # a selection that names one pair twice gives U two equal columns
        A = np.diag(np.arange(1.0, 101.0))
        op = as_operator(A)
        dec = arnoldi(op, np.ones(100), 20)
        selected_pairs = recycling._selected_pairs

        def repeated(lhs, rhs, k):
            vectors, selected = selected_pairs(lhs, rhs, k)
            return vectors, np.append(selected, selected[0])

        monkeypatch.setattr(recycling, "_selected_pairs", repeated)
        out = harmonic_ritz_update(dec, RecycleSubspace.empty(100), op, 5)
        monkeypatch.undo()
        want = harmonic_ritz_update(dec, RecycleSubspace.empty(100), op, 5)
        # the repeat is dropped; the kept columns, renormalized, move by rounding
        assert out.k == want.k == 5
        assert np.linalg.norm(out.U - want.U) <= 1e-14 * np.linalg.norm(want.U)
        assert np.linalg.norm(out.C - want.C) <= 1e-14 * np.linalg.norm(want.C)

    @settings(max_examples=300, deadline=None)
    @given(cplx=st.booleans(), m=st.integers(5, 40), k=st.integers(1, 8),
           d=st.floats(0.0, 17.0), dependent=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_qr_keeps_what_svd_then_qr_kept(self, cplx, m, k, d, dependent, seed):
        # full rank, or one column another combination plus 10^-d noise:
        # min |R_ii| >= sigma_min(U) and max |R_ii| <= sigma_max(U), so where
        # the SVD kept every column the QR does too
        rng = np.random.default_rng(seed)
        k = min(k, m)
        U = rng.standard_normal((m, k))
        if cplx:
            U = U + 1j * rng.standard_normal((m, k))
        if dependent and k > 1:
            i = int(rng.integers(1, k))
            U[:, i] = U[:, :i] @ rng.standard_normal(i) + 10.0 ** -d * rng.standard_normal(m)
        U /= np.linalg.norm(U, axis=0)
        assert np.array_equal(_independent(U), svd_then_qr_keep(U))


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
                assert subspace_angle(new.U, eig_update(dec, rec, k).U) <= self.ANGLE_TOL
                rec = new

    def test_non_hermitian_update_is_unchanged(self):
        A = gen_convection_diffusion_2d(10, convection=5.0)
        op = as_operator(A)
        rng = np.random.default_rng(22)
        rec = RecycleSubspace.empty(100)
        for _ in range(3):
            dec = arnoldi(op, rng.standard_normal(100), 15)
            assert not is_hermitian(harmonic_ritz_pencil(dec, rec)[1])
            new = harmonic_ritz_update(dec, rec, op, 4)
            ref = eig_update(dec, rec, 4, reduced=True)
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
        new, ref = harmonic_ritz_update(dec, rec, A, 4), eig_update(dec, rec, 4)
        assert np.array_equal(new.U, ref.U) and np.array_equal(new.C, ref.C)


def convdiff_sequence(kind, seed, n_problems, j, k):
    """The updates of a recycled sequence on the real convection-diffusion
    matrix, n = 100, or on it plus i diag(u): (dec, rec, new) per problem."""
    A = gen_convection_diffusion_2d(10, convection=1.0)
    rng = np.random.default_rng(seed)
    if kind == "complex":
        A = A + 1j * np.diag(rng.uniform(size=100))
    op, rec = as_operator(A), RecycleSubspace.empty(100)
    for _ in range(n_problems):
        dec = arnoldi(op, rng.standard_normal(100), j)
        new = harmonic_ritz_update(dec, rec, op, k)
        yield dec, rec, new
        rec = new


class TestReducedUpdate:
    """The update's Cholesky-reduced route on non-Hermitian pencils against
    QZ, and QZ where the Cholesky factor fails."""

    # Largest angle between the reduced and QZ updates over seeds 0-199 of
    # `convdiff_sequence` (j = 20, k = 6, four problems, real and complex):
    # 7.6e-7, with the same k on all 1,600 updates. On that update (real,
    # seed 198, problem 3) QZ's subspace is 6.4e-7 from a 40-digit one and
    # the reduced route's 1.2e-7; the next largest angle is 1.1e-7.
    ANGLE_TOL = 1e-6

    def test_reduced_selects_the_qz_subspace(self):
        for kind in ["real", "complex"]:
            for seed in range(3):
                for dec, rec, new in convdiff_sequence(kind, seed, 4, 20, 6):
                    assert not is_hermitian(harmonic_ritz_pencil(dec, rec)[1])
                    ref = eig_update(dec, rec, 6)
                    assert new.k == ref.k > 0
                    assert subspace_angle(new.U, ref.U) <= self.ANGLE_TOL, (kind, seed)

    # Largest angle between the two selections over 3,000 such draws: 4.5e-13.
    @settings(max_examples=60, deadline=None)
    @given(cplx=st.booleans(), m=st.integers(4, 12), k=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_reduced_and_qz_select_the_same_span(self, cplx, m, k, seed):
        # lhs Hermitian positive definite and well conditioned, rhs a random
        # non-normal matrix; a real pair of them has conjugate pairs of theta
        rng = np.random.default_rng(seed)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if cplx else x

        B = draw(m, m)
        lhs, rhs = B.conj().T @ B + m * np.eye(m), draw(m, m)
        vectors, selected = _selected_pairs(lhs, rhs, k)
        ref_vectors, ref = reference_pairs(lhs, rhs, k)
        assert selected.size == len(ref) <= k
        if ref:
            assert subspace_angle(vectors[:, selected], ref_vectors[:, ref]) <= 1e-11

    def test_singular_lhs_falls_back_to_qz(self):
        # U in the null space of a non-symmetric A: C = 0, so lhs is singular
        # and its Cholesky factor fails, while rhs is not Hermitian
        A = scipy.linalg.block_diag(np.zeros((2, 2)), gen_convection_diffusion_2d(7, 1.0).toarray())
        b = np.concatenate([np.zeros(2), np.random.default_rng(13).standard_normal(49)])
        dec = arnoldi(A, b, 10)
        rec = RecycleSubspace.from_basis(A, np.eye(51)[:, :2])
        lhs, rhs = harmonic_ritz_pencil(dec, rec)
        assert not is_hermitian(rhs)
        with pytest.raises(np.linalg.LinAlgError):
            _decompose(lhs, rhs)
        new, ref = harmonic_ritz_update(dec, rec, A, 4), eig_update(dec, rec, 4)
        assert new.k > 0 and np.array_equal(new.U, ref.U) and np.array_equal(new.C, ref.C)


class TestTieAtTheCut:
    """The selection drops the pairs tied with the first one left out, so a
    conjugate pair of a real A is kept whole or not at all."""

    def test_cut_inside_a_conjugate_pair(self):
        # real pencil: the 4th and 5th smallest |theta| are a conjugate pair
        A = gen_convection_diffusion_2d(8, convection=1.0)
        dec = arnoldi(A, np.random.default_rng(31).standard_normal(64), 12)
        rec = RecycleSubspace.empty(64)
        theta = np.sort(np.abs(scipy.linalg.eigvals(*harmonic_ritz_pencil(dec, rec))))
        assert theta[4] - theta[3] <= 1e-14 * theta[4] < theta[4] - theta[2]
        for new in (harmonic_ritz_update(dec, rec, A, 4), eig_update(dec, rec, 4),
                    eig_update(dec, rec, 4, reduced=True)):
            assert new.k == 3
            assert subspace_angle(new.U, new.U.conj()) <= 1e-13

    def test_real_sequence_keeps_whole_pairs(self):
        # later pencils are complex, as U is, but span(U) stays closed under
        # conjugation, so their pairs still tie. Largest angle between
        # span(U) and its conjugate over seeds 0-199 (four problems): 5.4e-10
        for seed in range(3):
            for _, _, new in convdiff_sequence("real", seed, 4, 20, 6):
                assert 0 < new.k <= 6
                assert subspace_angle(new.U, new.U.conj()) <= 1e-8

    def test_all_k_tied_gives_an_empty_subspace(self):
        # k = 1 on a pencil whose smallest |theta| is a conjugate pair
        A = gen_convection_diffusion_2d(8, convection=1.0)
        dec = arnoldi(A, np.random.default_rng(31).standard_normal(64), 12)
        lhs, rhs = harmonic_ritz_pencil(dec, RecycleSubspace.empty(64))
        theta = np.sort(np.abs(scipy.linalg.eigvals(lhs, rhs)))
        assert theta[1] - theta[0] <= 1e-14 * theta[1]
        assert harmonic_ritz_update(dec, RecycleSubspace.empty(64), A, 1).k == 0

    def test_no_tie_is_the_plain_selection(self):
        # complex A: no pair, every cut gap far above TIE_RTOL, so the
        # update is bit for bit the first k of the ranking
        for dec, rec, new in convdiff_sequence("complex", 5, 3, 20, 6):
            assert new.k == 6
            ref = eig_update(dec, rec, 6, reduced=True, untie=False)
            assert np.array_equal(new.U, ref.U) and np.array_equal(new.C, ref.C)


class TestMemo:
    """The update reads the pencil that an engine built on the same
    decomposition and subspace, and gets the bits of a fresh build."""

    @staticmethod
    def problem():
        rng = np.random.default_rng(43)
        A = gen_convection_diffusion_2d(8, 1.0) + 1j * np.diag(rng.uniform(size=64))
        op = as_operator(A)
        rec = harmonic_ritz_update(arnoldi(op, rng.standard_normal(64), 12),
                                   RecycleSubspace.empty(64), op, 4)
        return op, arnoldi(op, rng.standard_normal(64), 12), rec

    def test_update_reads_the_engines_pencil(self, monkeypatch):
        op, dec, rec = self.problem()
        fresh = copy.deepcopy((dec, rec))
        built, build = [], engines._build_pencil
        monkeypatch.setattr(engines, "_build_pencil",
                            lambda *args: built.append(args[1]) or build(*args))
        fun = function_catalog("log")
        rule = trapezoid_contour(
            guarded_contour(np.linalg.eigvals(dec.H), 0.1, fun.singularity), 100)
        rfom_v2(dec, rec, fun, rule)
        new = harmonic_ritz_update(dec, rec, op, 4)
        assert built == [rec]
        alone = harmonic_ritz_update(*fresh, op, 4)
        assert np.array_equal(new.U, alone.U) and np.array_equal(new.C, alone.C)

    def test_replaced_c_gives_a_new_pencil(self):
        # a subspace without an operator whose C is replaced by a new array
        op, dec, rec = self.problem()
        rec = RecycleSubspace(U=rec.U, C=rec.C)
        lhs, rhs = harmonic_ritz_pencil(dec, rec)
        rec.C = rec.C + 0.5 * rec.U
        fresh = copy.deepcopy((dec, rec))
        lhs2, rhs2 = harmonic_ritz_pencil(dec, rec)
        assert not np.allclose(rhs, rhs2)
        for x, y in zip((lhs2, rhs2), harmonic_ritz_pencil(*fresh)):
            assert np.array_equal(x, y)
