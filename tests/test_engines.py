"""The five f(A)b engines and their reduction/equivalence identities."""

import copy
import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rfom2 import (
    CircleContour,
    FunctionSpec,
    QuadratureRule,
    RecycleSubspace,
    arnoldi,
    arnoldi_direct,
    arnoldi_quad,
    as_operator,
    augmented_basis,
    guarded_contour,
    harmonic_ritz_pencil,
    harmonic_ritz_update,
    rfom_v1,
    rfom_v2,
    rfom_v3,
    stieltjes_invsqrt,
    svd_values,
    trapezoid_contour,
)
from rfom2 import engines
from rfom2.cli import ENGINES, ExperimentConfig, sweep_quadrature
from rfom2.core import (
    IllConditionedEigenbasis,
    RFOMError,
    SingularMatrix,
    SingularProjector,
    SingularShift,
    SingularSystem,
    is_hermitian,
    lu_solve,
)
from rfom2.engines import (
    _augmented_pencil,
    _folded_nodes,
    _node_factor,
    _node_weights,
)
from rfom2.problems import (
    function_catalog,
    gen_convection_diffusion_2d,
    gen_graded_hermitian,
    oracle_funm,
)


def relerr(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def spd_problem(n=50, seed=0, lam_min=1.0, lam_max=9.0):
    rng = np.random.default_rng(seed)
    lam = np.linspace(lam_min, lam_max, n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * lam) @ Q.T
    b = rng.standard_normal(n)
    return A, b, lam, Q


def smw_v3(dec, rec, fun, rule):
    """Reference v3: closed-form f(G) term minus a per-node
    Sherman-Morrison-Woodbury correction through an explicit inverse.

    It runs on the paper's shifted form of the augmented relation,
    (z I - A) V_hat = W_hat (z I - G) + R(z), with V_hat = [U, V_j] from
    `augmented_basis`, W_hat = [C, V_j], G = blockdiag(I_k, H) and
    R(z) = [z (U - C), -h v_{j+1} e_j^T], h = Hbar[j, j-1].
    """
    Vhat, AVhat = augmented_basis(dec, rec)
    j = dec.j
    kj = Vhat.shape[1]
    k = kj - j
    U, C = Vhat[:, :k], AVhat[:, :k]
    What = np.concatenate([C, dec.Vj], axis=1)
    G = np.zeros((kj, kj), dtype=np.complex128)
    G[:k, :k] = np.eye(k)
    G[k:, k:] = dec.H
    tail = -dec.Hbar[j, j - 1] * dec.V[:, j]

    def R(z):
        out = np.zeros(Vhat.shape, dtype=np.complex128)
        out[:, :k] = z * (U - C)
        out[:, kj - 1] = tail
        return out

    Vhb = Vhat.conj().T @ dec.b
    VhWh = Vhat.conj().T @ What
    I = np.eye(kj, dtype=np.complex128)
    fG = np.zeros((kj, kj), dtype=np.complex128)
    if k:
        fG[:k, :k] = fun.dense_f(G[:k, :k])
    fG[k:, k:] = fun.dense_f(dec.H)
    closed = Vhat @ (fG @ lu_solve(VhWh, Vhb))
    t = np.zeros(kj, dtype=np.complex128)
    factor = _node_factor(fun, rule)
    for z, w in zip(rule.nodes, rule.weights):
        B = Vhat.conj().T @ R(z)
        Gzinv = lu_solve(VhWh @ (z * I - G), I)
        s = lu_solve(I + B @ Gzinv, B @ (Gzinv @ Vhb))
        t += w * factor(z) * (Gzinv @ s)
    return closed - Vhat @ t


def svd_deflate(dec, rec):
    """Reference for `_augmented_pencil`'s deflation from its Gram block:
    U' = U X, C' = C X, with X the right singular vectors of
    (I - V_j V_j^*) U above DEFLATION_TOL ||U||_2; rec when X keeps all."""
    if rec.k == 0:
        return rec
    U = rec.U
    _, s, Xh = np.linalg.svd(U - dec.Vj @ (dec.Vj.conj().T @ U), full_matrices=False)
    keep = s > engines.DEFLATION_TOL * svd_values(U)[0]
    if keep.all():
        return rec
    X = Xh[keep].conj().T
    return RecycleSubspace(U=U @ X, C=rec.C @ X, op=rec.op)


def loop_rfom_v1(dec, rec, fun, rule):
    """Reference for `rfom_v1`: its per-node loop with the projector
    factored by getrf and solved by two scipy.linalg.lu_solve calls, one
    per right-hand side, then the j x j system by `lu_solve`."""
    j, k = dec.j, rec.k
    U, C = rec.U, rec.C
    b = dec.b
    Ij = np.eye(j, dtype=np.complex128)
    e1 = np.zeros(j, dtype=np.complex128)
    e1[0] = 1.0

    UU = U.conj().T @ U
    UC = U.conj().T @ C
    VjU = dec.Vj.conj().T @ U
    VjC = dec.Vj.conj().T @ C
    M = U.conj().T @ dec.V
    MH = M @ dec.Hbar
    Ub = U.conj().T @ b
    Vjb = dec.beta * e1

    t1 = np.zeros(j, dtype=np.complex128)
    t2 = np.zeros(k, dtype=np.complex128)
    nodes, weights, folded = _folded_nodes(fun, rule, dec, rec)
    for z, mu in zip(nodes, weights):
        if k:
            Mbar = z * M[:, :j] - MH
            P = z * UU - UC
            getrf, = scipy.linalg.get_lapack_funcs(("getrf",), (P,))
            lu, piv, _ = getrf(P)
            scale = np.max(np.abs(P))
            if scale == 0.0 or np.min(np.abs(np.diag(lu))) < 1e-14 * scale:
                raise SingularProjector(f"projector block singular at node {z}")
            K = z * VjU - VjC
            LM = scipy.linalg.lu_solve((lu, piv), Mbar, check_finite=False)
            Lub = scipy.linalg.lu_solve((lu, piv), Ub, check_finite=False)
            coeff = z * Ij - dec.H - K @ LM
            rhs = Vjb - K @ Lub
        else:
            coeff = z * Ij - dec.H
            rhs = Vjb
        try:
            y = lu_solve(coeff, rhs)
        except SingularMatrix as exc:
            raise SingularShift(f"inner system singular at node {z}") from exc
        t1 += mu * y
        if k:
            t2 += mu * (Lub - LM @ y)
    out = dec.Vj @ t1
    if k:
        out = out + U @ t2
    return out.real if folded else out


def loop_arnoldi_quad(dec, fun, rule):
    """Reference for `arnoldi_quad`: one LU solve of (z I - H_j) per node,
    accumulated in ascending node order with the per-node w * factor(z)."""
    j = dec.j
    rhs = np.zeros(j, dtype=np.complex128)
    rhs[0] = dec.beta  # V_j^* b exactly, since v_1 = b/||b||
    Ij = np.eye(j, dtype=np.complex128)
    acc = np.zeros(j, dtype=np.complex128)
    factor = _node_factor(fun, rule)
    for z, w in zip(rule.nodes, rule.weights):
        mu = w * factor(z)
        try:
            y = lu_solve(z * Ij - dec.H, rhs)
        except SingularMatrix as exc:
            raise SingularShift(f"quadrature node {z} hits the spectrum of H_j") from exc
        acc += mu * y
    return dec.Vj @ acc


def pencil_arnoldi_quad(dec, fun, rule):
    """Reference for `arnoldi_quad` as an engine of its own: the node sum
    over the pencil (I_j, H_j) with right-hand side beta e_1, folded where
    the problem allows, back-projected by V_j."""
    beta_e1 = dec.beta * np.eye(dec.j, 1)[:, 0]
    nodes, mu, folded = _folded_nodes(fun, rule, dec)
    y = pencil_node_sum(np.eye(dec.j), dec.H, beta_e1, nodes, mu)
    return dec.Vj @ (y.real if folded else y)


def v2_plus_krylov_error(dec, rec, fun, rule):
    """v3's identity: v2 plus the plain Krylov quadrature error, with the
    quadrature summed by the per-node loop rather than by `arnoldi_quad`."""
    return rfom_v2(dec, rec, fun, rule) + arnoldi_direct(dec, fun) \
        - loop_arnoldi_quad(dec, fun, rule)


def pencil_node_sum(E, F, rhs, nodes, mu):
    """sum_l mu_l (z_l E - F)^{-1} rhs for every node at once: the engines'
    node sum over the pencil's decomposition, on a pencil of the test's own."""
    return engines._node_sum(engines._decompose(E, F), rhs, nodes, mu)


def loop_node_terms(E, F, rhs, nodes, mu):
    """Reference for the node-sum kernel: the terms mu_l (z_l E - F)^{-1} rhs,
    one LU solve per node."""
    return np.array([w * lu_solve(z * E - F, rhs) for z, w in zip(nodes, mu)])


def eigvec_subspace(A, Q, k):
    U = Q[:, :k].astype(np.complex128)
    return RecycleSubspace(U=U, C=np.asarray(A @ U))


class TestArnoldiDirect:
    def test_polynomial_exactness(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((30, 30))
        b = rng.standard_normal(30)
        ident = FunctionSpec(name="id", scalar_f=lambda z: z, dense_f=lambda M: M,
                             singularity=None)
        dec = arnoldi(A, b, 5)
        x = arnoldi_direct(dec, ident)
        assert np.linalg.norm(x - A @ b) <= 1e-12 * np.linalg.norm(A @ b)

    def test_exp_of_zero_matrix(self):
        b = np.array([1.0, -2.0, 0.5])
        dec = arnoldi(np.zeros((3, 3)), b, 2)
        x = arnoldi_direct(dec, function_catalog("exp"))
        assert np.allclose(x, b, atol=1e-14)

    def test_real_eigenvalues_of_a_real_h_keep_f_real(self):
        # K_2(A, e_2) is invariant, H_2 = [[3, 0], [1, 2]]: real, not
        # Hermitian, with real eigenvalues, so log(H_2) is real
        A = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 5.0]])
        b = np.array([0.0, 1.0, 0.0])
        dec = arnoldi(A, b, 2)
        fun = function_catalog("log")
        x = arnoldi_direct(dec, fun)
        assert x.dtype == np.float64
        assert np.array_equal(x, dec.beta * (dec.Vj @ fun.dense_f(dec.H)[:, 0]))
        w, P = np.linalg.eig(A)
        assert relerr(x, (P * np.log(w)) @ np.linalg.solve(P, b)) <= 1e-14

    def test_exhaustion_equals_inverse(self):
        rng = np.random.default_rng(2)
        A = np.diag(np.linspace(1.0, 5.0, 12))
        b = np.concatenate([rng.standard_normal(6), np.zeros(6)])
        dec = arnoldi(A, b, 11)  # invariant subspace: exhaustion at j = 6
        assert dec.breakdown
        x = arnoldi_direct(dec, function_catalog("inverse"))
        exact = np.linalg.solve(A, b)
        assert relerr(x, exact) <= 1e-8


class TestArnoldiQuad:
    def test_agrees_with_direct_exp(self):
        A, b, lam, _ = spd_problem(seed=3)
        dec = arnoldi(A, b, 20)
        rule = trapezoid_contour(CircleContour(5.0 + 0.0j, 5.0), 200)
        fun = function_catalog("exp")
        xq = arnoldi_quad(dec, fun, rule)
        xd = arnoldi_direct(dec, fun)
        assert relerr(xq, xd) <= 1e-10

    def test_doubling_shrinks_gap(self):
        A, b, lam, _ = spd_problem(seed=4)
        dec = arnoldi(A, b, 20)
        fun = function_catalog("exp")
        xd = arnoldi_direct(dec, fun)
        gaps = []
        for n in (8, 16, 32, 64):
            rule = trapezoid_contour(CircleContour(5.0 + 0.0j, 5.0), n)
            gaps.append(relerr(arnoldi_quad(dec, fun, rule), xd))
        for a, b2 in zip(gaps, gaps[1:]):
            assert b2 < a or a <= 1e-14

    def test_cauchy_inverse(self):
        A, b, lam, _ = spd_problem(seed=5)
        dec = arnoldi(A, b, 15)
        rule = trapezoid_contour(CircleContour(5.0 + 0.0j, 4.6), 400)
        x = arnoldi_quad(dec, function_catalog("inverse"), rule)
        e1 = np.zeros(15)
        e1[0] = 1.0
        exact = dec.beta * (dec.Vj @ np.linalg.solve(dec.H, e1))
        assert relerr(x, exact) <= 1e-10


class TestReductions:
    """k = 0: the recycled engines collapse onto the plain baselines."""

    def setup_method(self):
        self.A, self.b, _, _ = spd_problem(seed=6)
        self.dec = arnoldi(self.A, self.b, 18)
        self.rec = RecycleSubspace.empty(50)
        self.fun = function_catalog("inverse")
        self.rule = trapezoid_contour(CircleContour(5.2 + 0.0j, 4.9), 600)

    def test_v1_bit_for_bit(self):
        # a real problem on a real-centred circle: v1 sums the folded nodes,
        # so it is the loop over them, real part taken, bit for bit; a
        # Stieltjes-kind rule makes the loop's per-node factor 1, so it
        # takes the folded coefficients mu as its weights unchanged
        x1 = rfom_v1(self.dec, self.rec, self.fun, self.rule)
        nodes, mu, folded = _folded_nodes(self.fun, self.rule, self.dec, self.rec)
        assert folded and nodes.size == 301
        half = QuadratureRule(nodes=nodes, weights=mu, kind="stieltjes")
        assert np.array_equal(x1, loop_arnoldi_quad(self.dec, self.fun, half).real)
        assert relerr(x1, loop_arnoldi_quad(self.dec, self.fun, self.rule)) <= 1e-13

    def test_v2_matches_quad(self):
        x2 = rfom_v2(self.dec, self.rec, self.fun, self.rule)
        xq = arnoldi_quad(self.dec, self.fun, self.rule)
        assert np.linalg.norm(x2 - xq) <= 1e-12 * np.linalg.norm(xq)

    def test_all_versions_pairwise(self):
        outs = [
            arnoldi_quad(self.dec, self.fun, self.rule),
            rfom_v1(self.dec, self.rec, self.fun, self.rule),
            rfom_v2(self.dec, self.rec, self.fun, self.rule),
            rfom_v3(self.dec, self.rec, self.fun, self.rule),
        ]
        for i in range(4):
            for l in range(i + 1, 4):
                assert relerr(outs[i], outs[l]) <= 1e-12


class TestQuadIsV2OnEmptySubspace:
    """arnoldi_quad is rfom_v2 on an empty subspace, bit for bit equal to
    the node sum over its own pencil (I_j, H_j)."""

    @staticmethod
    def problem(kind):
        rng = np.random.default_rng(23)
        if kind == "real hermitian":  # eigh kernel, folded
            A, b, _, _ = spd_problem(seed=23)
        else:  # Schur kernel; the real problem folds, the complex one does not
            A = gen_convection_diffusion_2d(8, convection=1.0)
            if kind == "complex":
                A = A + 1j * np.diag(rng.uniform(size=64))
            b = rng.standard_normal(A.shape[0])
        return arnoldi(A, b, 12)

    @pytest.mark.parametrize("stieltjes", [False, True], ids=["circle", "stieltjes"])
    @pytest.mark.parametrize("kind", ["real hermitian", "real convdiff", "complex"])
    def test_bit_for_bit(self, kind, stieltjes):
        dec = self.problem(kind)
        if stieltjes:
            fun, rule = function_catalog("invsqrt"), stieltjes_invsqrt(30)
        else:
            fun = function_catalog("log")
            rule = trapezoid_contour(
                guarded_contour(np.linalg.eigvals(dec.H), 0.1, fun.singularity), 200)
        assert _folded_nodes(fun, rule, dec)[2] == (kind != "complex")
        assert np.array_equal(arnoldi_quad(dec, fun, rule),
                              pencil_arnoldi_quad(dec, fun, rule))

    def test_v2_pencil_of_empty_subspace(self):
        dec = self.problem("complex")
        sub, E, F, Vhb = _augmented_pencil(dec, RecycleSubspace.empty(64))
        assert np.array_equal(np.concatenate([sub.U, dec.Vj], axis=1), dec.Vj)
        assert np.array_equal(E, np.eye(dec.j))
        assert np.array_equal(F, dec.H)
        assert np.array_equal(Vhb, dec.beta * np.eye(dec.j, 1)[:, 0])


class TestV1IsTheLuLoop:
    """rfom_v1, one gesv per node system, is bit for bit the loop that
    factors its projector by getrf and solves each right-hand side apart,
    on real Hermitian (folded), real convection-diffusion (complex
    harmonic Ritz U, unfolded at k > 0) and complex problems, at k = 0 and
    k > 0, under a circle and a Stieltjes rule."""

    @staticmethod
    def problem(kind, k):
        rng = np.random.default_rng(31)
        if kind == "real hermitian":  # real U: folded
            A, b, _, _ = spd_problem(seed=31)
            return arnoldi(A, b, 12), RecycleSubspace.from_basis(A, rng.standard_normal((50, k)))
        A = gen_convection_diffusion_2d(8, convection=1.0)
        if kind == "complex":
            A = A + 1j * np.diag(rng.uniform(size=64))
        dec = arnoldi(A, rng.standard_normal(64), 12)
        # harmonic Ritz vectors, complex on both matrices: nothing folds at
        # k > 0. On the real matrix the 4th and 5th |theta| are a conjugate
        # pair, which the update does not split, so it keeps 3 columns
        rec = harmonic_ritz_update(dec, RecycleSubspace.empty(64), A, k)
        kept = k - 1 if kind == "real convdiff" and k else k
        assert rec.k == kept and (k == 0 or np.iscomplexobj(rec.U))
        return arnoldi(A, rng.standard_normal(64), 12), rec

    @pytest.mark.one_blas_thread
    def test_bit_for_bit(self):
        for kind, k, stieltjes in itertools.product(
                ["real hermitian", "real convdiff", "complex"], [0, 4], [False, True]):
            case = f"{kind}, k = {k}, {'stieltjes' if stieltjes else 'circle'}"
            dec, rec = self.problem(kind, k)
            if stieltjes:
                fun, rule = function_catalog("invsqrt"), stieltjes_invsqrt(30)
            else:
                fun = function_catalog("log")
                rule = trapezoid_contour(
                    guarded_contour(np.linalg.eigvals(dec.H), 0.1, fun.singularity), 200)
            folds = kind == "real hermitian" or (kind == "real convdiff" and k == 0)
            assert _folded_nodes(fun, rule, dec, rec)[2] == folds, case
            x, ref = rfom_v1(dec, rec, fun, rule), loop_rfom_v1(dec, rec, fun, rule)
            assert x.dtype == ref.dtype and np.array_equal(x, ref), case


class TestRecycledEngines:
    """Equivalence identities, on a well-conditioned augmented basis.

    A random U keeps [U, V_j] far from rank deficiency; eigenvector-based
    subspaces make the augmented basis nearly dependent once Arnoldi
    partially converges to the same eigenvectors, which floors any
    agreement at eps * cond and is exercised separately below.
    """

    def setup_method(self):
        self.A = gen_graded_hermitian(80, small_count=8, small_range=(1.5, 1.7),
                                      bulk_range=(20.0, 100.0), seed=7)
        rng = np.random.default_rng(8)
        self.b = rng.standard_normal(80)
        self.lam, self.Q = np.linalg.eigh(self.A)
        self.dec = arnoldi(self.A, self.b, 14)
        U = rng.standard_normal((80, 8)) + 1j * rng.standard_normal((80, 8))
        self.rec = RecycleSubspace(U=U, C=self.A @ U)
        self.fun = function_catalog("inverse")
        contour = guarded_contour(self.lam.astype(complex), 0.1, singularity=0.0)
        self.rule = trapezoid_contour(contour, 3000)

    def test_v1_equals_v2(self):
        x1 = rfom_v1(self.dec, self.rec, self.fun, self.rule)
        x2 = rfom_v2(self.dec, self.rec, self.fun, self.rule)
        assert relerr(x1, x2) <= 1e-10

    def test_v3_converges_to_v2(self):
        contour = self.rule.contour
        gaps = []
        for n in (400, 800, 1600, 3200):
            rule = trapezoid_contour(contour, n)
            x2 = rfom_v2(self.dec, self.rec, self.fun, rule)
            x3 = rfom_v3(self.dec, self.rec, self.fun, rule)
            gaps.append(relerr(x3, x2))
        assert gaps[-1] <= 1e-8
        assert gaps[-1] <= gaps[0]

    def test_v3_matches_smw_reference(self):
        for fun, rule in ((self.fun, self.rule),
                          (function_catalog("invsqrt"), stieltjes_invsqrt(5))):
            x3 = rfom_v3(self.dec, self.rec, fun, rule)
            assert relerr(x3, smw_v3(self.dec, self.rec, fun, rule)) <= 1e-12

    def test_v3_deflates_u_inside_krylov_space(self):
        # U on or within 1e-9 of K_j is deflated away entirely, so v3 runs
        # on K_j alone instead of failing its V_hat^* W_hat guard
        x0 = rfom_v3(self.dec, RecycleSubspace.empty(80), self.fun, self.rule)
        noise = np.random.default_rng(12).standard_normal((80, 4))
        for shift in (0.0, 1e-9):
            rec = RecycleSubspace.from_basis(self.A, self.dec.Vj[:, :4] + shift * noise)
            assert relerr(rfom_v3(self.dec, rec, self.fun, self.rule), x0) <= 1e-13

    def test_v3_with_zero_c_follows_v2(self):
        # U in the null space of A and orthogonal to K_j: C = 0, nothing is
        # deflated, and 0, the eigenvalue of the pencil's U block, is a
        # node of the radius 5 circle, so v2 and v3 raise alike; on the
        # radius 4.9 circle both succeed and v3 is v2 plus the Krylov error
        A = np.diag(np.concatenate([np.zeros(2), np.linspace(1.0, 9.0, 48)]))
        b = np.concatenate([np.zeros(2), np.random.default_rng(13).standard_normal(48)])
        dec = arnoldi(A, b, 10)
        rec = RecycleSubspace.from_basis(A, np.eye(50)[:, :2])
        assert np.array_equal(rec.C, np.zeros((50, 2)))
        fun = function_catalog("exp")
        rule = trapezoid_contour(CircleContour(5.0 + 0.0j, 5.0), 64)
        for engine in (rfom_v2, rfom_v3):
            with pytest.raises(SingularSystem):
                engine(dec, rec, fun, rule)
        rule = trapezoid_contour(CircleContour(5.0 + 0.0j, 4.9), 64)
        x3 = rfom_v3(dec, rec, fun, rule)
        assert np.all(np.isfinite(x3))
        assert relerr(x3, v2_plus_krylov_error(dec, rec, fun, rule)) <= 1e-12

    def test_v2_deflates_u_inside_krylov_space(self):
        # U on or within 1e-9 of K_j: V_hat^* V_hat has 4 null directions
        # to working precision, v2 drops them and so matches the plain
        # quadrature on K_j, up to what the 1e-9 shift of span(V_hat) moves
        xq = arnoldi_quad(self.dec, self.fun, self.rule)
        noise = np.random.default_rng(12).standard_normal((80, 4))
        for shift, tol in ((0.0, 1e-12), (1e-9, 1e-7)):
            rec = RecycleSubspace.from_basis(self.A, self.dec.Vj[:, :4] + shift * noise)
            assert relerr(rfom_v2(self.dec, rec, self.fun, self.rule), xq) <= tol

    @pytest.mark.parametrize("normal", [True, False], ids=["hermitian", "non-normal"])
    def test_v2_on_badly_scaled_basis(self, normal):
        # columns of U scaled up to ~800 long against unit V_j columns, on
        # the Hermitian A (eigh branch) and on a non-normal complex A (Schur
        # branch): both are invariant under column scaling, so v2 does not
        # balance its pencil
        rng = np.random.default_rng(19)
        A, dec = self.A, self.dec
        if not normal:  # the same eigenvalues, with a complex Schur form
            N = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
            A = self.Q @ (np.diag(self.lam) + np.triu(N, 1)) @ self.Q.T
            dec = arnoldi(A, self.b, 14)
        for _ in range(3):
            U = rng.standard_normal((80, 8)) + 1j * rng.standard_normal((80, 8))
            U = U * (rng.uniform(1.0, 60.0, 8) * np.exp(2j * np.pi * rng.uniform(size=8)))
            rec = RecycleSubspace(U=U, C=A @ U)
            sub, E, F, Vhb = _augmented_pencil(dec, rec)
            assert is_hermitian(F) == normal
            terms = loop_node_terms(E, F, Vhb, self.rule.nodes,
                                    _node_weights(self.fun, self.rule))
            ref = np.concatenate([sub.U, dec.Vj], axis=1) @ terms.sum(axis=0)
            assert relerr(rfom_v2(dec, rec, self.fun, self.rule), ref) <= 1e-13

    def test_d_scaling_invariance(self):
        # the engines depend on U only through span(U): scaling its columns
        # by a diagonal d, U d with C d, leaves v2 and v3 unchanged
        base2 = rfom_v2(self.dec, self.rec, self.fun, self.rule)
        base3 = rfom_v3(self.dec, self.rec, self.fun, self.rule)
        rng = np.random.default_rng(9)
        for d in (2.0 * np.ones(8), rng.uniform(0.5, 3.0, 8)):
            rec = RecycleSubspace(U=self.rec.U * d, C=self.rec.C * d)
            assert relerr(rfom_v2(self.dec, rec, self.fun, self.rule), base2) <= 1e-10
            assert relerr(rfom_v3(self.dec, rec, self.fun, self.rule), base3) <= 1e-10

    def test_v1_beats_plain_arnoldi(self):
        # U = exact eigenvectors of the small cluster: the augmented
        # approximation removes the slow cluster modes entirely
        rec = eigvec_subspace(self.A, self.Q, 8)
        exact = oracle_funm(self.A, self.fun, self.b, hermitian=True)
        e_plain = relerr(arnoldi_quad(self.dec, self.fun, self.rule), exact)
        e_rec = relerr(rfom_v1(self.dec, rec, self.fun, self.rule), exact)
        assert e_rec < 0.1 * e_plain

    def test_v3_beats_v1_at_small_nquad(self):
        # inverse square root via 5 Stieltjes nodes: the closed-form
        # f(H) term makes v3 the more accurate engine at equal nodes
        dec = arnoldi(self.A, self.b, 10)
        rec = eigvec_subspace(self.A, self.Q, 8)
        fun = function_catalog("invsqrt")
        rule = stieltjes_invsqrt(5)
        exact = oracle_funm(self.A, fun, self.b, hermitian=True)
        e1 = relerr(rfom_v1(dec, rec, fun, rule), exact)
        e3 = relerr(rfom_v3(dec, rec, fun, rule), exact)
        assert e3 < e1

    def test_field_of_values_guard(self):
        # circle strictly enclosing [lam_min, lam_max]: the projected
        # shifted block stays nonsingular at every node
        rng = np.random.default_rng(10)
        n = 100
        lam = np.linspace(0.5, 20.0, n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * lam) @ Q.T
        U = rng.standard_normal((n, 10)) + 1j * rng.standard_normal((n, 10))
        C = A @ U
        center = (lam[0] + lam[-1]) / 2
        rule = trapezoid_contour(CircleContour(center, (lam[-1] - lam[0]) / 2 + 1.0), 64)
        UU = U.conj().T @ U
        UC = U.conj().T @ C
        smin = min(svd_values(z * UU - UC)[-1] for z in rule.nodes)
        assert smin > 0

    def test_augmented_arnoldi_relation(self):
        # A [U, V_j] = [C, V_{j+1} Hbar], with no mat-vec behind the right side
        Vhat, AVhat = augmented_basis(self.dec, self.rec)
        assert Vhat.shape == AVhat.shape == (80, 8 + 14)
        res = np.linalg.norm(self.A @ Vhat - AVhat, "fro")
        assert res <= 1e-10 * np.linalg.norm(self.A) * np.linalg.norm(Vhat)

    def test_subspace_invariants(self):
        assert np.linalg.norm(self.A @ self.rec.U - self.rec.C, "fro") \
            <= 1e-10 * np.linalg.norm(self.rec.C, "fro")
        sv = svd_values(self.rec.U)
        assert sv[-1] > 1e-12 * sv[0]
        assert self.rec.k == 8


class TestDeflation:
    """The one rank decision of [U, V_j]: U deflated against K_j."""

    def setup_method(self):
        self.A, b, lam, _ = spd_problem(seed=16)
        self.dec = arnoldi(self.A, b, 12)
        self.fun = function_catalog("inverse")
        contour = guarded_contour(lam.astype(complex), 0.1, singularity=0.0)
        self.rule = trapezoid_contour(contour, 400)

    @settings(max_examples=30, deadline=None)
    @given(n_in=st.integers(1, 4), n_rand=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_drops_exactly_the_krylov_columns(self, n_in, n_rand, seed):
        # U = [columns on K_j, random columns], its columns scaled at random:
        # the deflated subspace keeps one column per random column, stays
        # consistent (A U' = C') and gives v1 and v2 the Galerkin result on
        # span[U, V_j], which v1 also computes from the random columns alone
        rng = np.random.default_rng(seed)
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        R = cplx(50, n_rand)
        U = np.concatenate([self.dec.Vj @ cplx(12, n_in), R], axis=1) \
            * rng.uniform(0.5, 3.0, n_in + n_rand)
        rec = RecycleSubspace(U=U, C=self.A @ U)
        out = _augmented_pencil(self.dec, rec)[0]
        assert out.k == n_rand
        assert np.linalg.norm(self.A @ out.U - out.C) <= 1e-12 * np.linalg.norm(out.C)
        x1 = rfom_v1(self.dec, RecycleSubspace.from_basis(self.A, R), self.fun, self.rule)
        assert relerr(rfom_v2(self.dec, rec, self.fun, self.rule), x1) <= 1e-10
        assert relerr(rfom_v1(self.dec, rec, self.fun, self.rule), x1) <= 1e-10

    def test_full_rank_subspace_is_kept(self):
        rng = np.random.default_rng(17)
        rec = RecycleSubspace.from_basis(self.A, rng.standard_normal((50, 4)))
        assert _augmented_pencil(self.dec, rec)[0] is rec

    def test_v1_matches_v2_on_a_trimmed_sequence(self):
        # a fixed matrix and a new right-hand side per problem: the carried
        # harmonic Ritz subspace converges into K_j, and the pencil trims it
        # from 8 to 6 columns on the last two problems; v1 reads the same
        # deflated blocks as v2 (largest gap 2.7e-12, on problem 5). The
        # Gram-block cut keeps svd_deflate's k, and v2 on either subspace
        # agrees to 5.8e-11 at worst over seeds 0-199 of this shape (equal k
        # on all 800 recycled problems); the kept spans themselves may differ
        # in directions nearly inside K_j, so the results are compared
        n, j, k = 120, 30, 8
        A = gen_graded_hermitian(n, small_count=10, seed=0)
        op, rng = as_operator(A), np.random.default_rng(0)
        rec, trimmed = RecycleSubspace.empty(n), 0
        for _ in range(5):
            dec = arnoldi(op, rng.standard_normal(n), j)
            rule = trapezoid_contour(guarded_contour(np.linalg.eigvals(dec.H), 0.1, 0.0), 400)
            out, ref = _augmented_pencil(dec, rec)[0], svd_deflate(dec, rec)
            assert out.k == ref.k
            assert _augmented_pencil(dec, out)[0] is out
            trimmed += out.k < rec.k
            x2 = rfom_v2(dec, rec, self.fun, rule)
            assert relerr(x2, rfom_v2(dec, ref, self.fun, rule)) <= 1e-9
            assert relerr(rfom_v1(dec, rec, self.fun, rule), x2) <= 1e-10
            rec = harmonic_ritz_update(dec, rec, op, k)
        assert trimmed == 2


# Largest relative gap between the block-built pencils and the products of
# the explicit pair from `augmented_basis`, over 3000 draws of
# TestAugmentedPencil's problems: 1.1e-15.
PENCIL_TOL = 1e-13


class TestAugmentedPencil:
    """`_augmented_pencil` and `harmonic_ritz_pencil`, built from small
    blocks, against the products of the explicit V_hat and A V_hat."""

    @settings(max_examples=60, deadline=None)
    @given(cplx=st.booleans(), hermitian=st.booleans(), j=st.integers(2, 12),
           n_in=st.integers(1, 3), n_rand=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_augmented_basis(self, cplx, hermitian, j, n_in, n_rand, seed):
        # U = [columns on K_j, random columns], scaled at random, so that
        # the deflation keeps only the random ones
        rng = np.random.default_rng(seed)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if cplx else x

        if hermitian:
            Q = np.linalg.qr(draw(40, 40))[0]
            A = (Q * rng.uniform(0.5, 10.0, 40)) @ Q.conj().T
            A = 0.5 * (A + A.conj().T)
        else:
            A = 5.0 * np.eye(40) + 2.0 * draw(40, 40) / np.sqrt(40)
        dec = arnoldi(A, draw(40), j)
        U = np.concatenate([dec.Vj @ draw(j, n_in), draw(40, n_rand)], axis=1) \
            * rng.uniform(0.5, 3.0, n_in + n_rand)
        rec = RecycleSubspace(U=U, C=A @ U)
        sub, E, F, Vhb = _augmented_pencil(dec, rec)
        Vhat, AVhat = augmented_basis(dec, rec)
        assert sub.k == n_rand and Vhat.shape[1] == n_rand + j
        Vh, AVh = Vhat.conj().T, AVhat.conj().T
        assert relerr(E, Vh @ Vhat) <= PENCIL_TOL
        assert relerr(F, Vh @ AVhat) <= PENCIL_TOL
        assert relerr(Vhb, Vh @ dec.b) <= PENCIL_TOL
        lhs, rhs = harmonic_ritz_pencil(dec, rec)
        assert relerr(lhs, AVh @ AVhat) <= PENCIL_TOL
        assert relerr(rhs, AVh @ Vhat) <= PENCIL_TOL

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_e_is_hermitian_to_the_bit(self, cplx):
        # the benchmark's shape: n = 900, j = 50, k = 20 harmonic Ritz
        # vectors carried to a new right-hand side. Both eigh and v1 read E,
        # the one its lower triangle and the other its upper block rows, so
        # its off-diagonal blocks must be adjoints to the bit. The U^*U block is
        # one BLAS product, which BLAS does not promise to be Hermitian
        rng = np.random.default_rng(17)
        A = gen_graded_hermitian(900, seed=3)
        if cplx:
            d = np.exp(2j * np.pi * rng.uniform(size=900))
            A = (d[:, None] * A) * d.conj()[None, :]
            A = 0.5 * (A + A.conj().T)

        def draw():
            b = rng.standard_normal(900)
            return b + 1j * rng.standard_normal(900) if cplx else b

        op = as_operator(A)
        rec = harmonic_ritz_update(arnoldi(op, draw(), 50), RecycleSubspace.empty(900), op, 20)
        sub, E, _, _ = _augmented_pencil(arnoldi(op, draw(), 50), rec)
        assert sub.k == 20 and E.dtype == A.dtype
        assert np.array_equal(E[20:, :20], E[:20, 20:].conj().T)


class TestV3Identity:
    """rfom_v3 = rfom_v2 + V_j (f(H) - q(H)) beta e_1 against the SMW reference."""

    def setup_method(self):
        self.A, b, lam, _ = spd_problem(seed=18)
        self.dec = arnoldi(self.A, b, 12)
        self.contour = guarded_contour(lam.astype(complex), 0.1, singularity=0.0)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 6), circle=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_smw(self, k, circle, seed):
        # unit columns, as the harmonic Ritz update makes them, scaled by
        # complex factors drawn around the contour's centre
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((50, k)) + 1j * rng.standard_normal((50, k))
        U /= np.linalg.norm(U, axis=0)
        c = self.contour
        U = U * (c.center + 0.5 * c.radius * rng.uniform(0.0, 1.0, k)
                 * np.exp(2j * np.pi * rng.uniform(size=k)))
        rec = RecycleSubspace(U=U, C=self.A @ U)
        if circle:
            fun = function_catalog(("inverse", "exp", "log", "sqrt")[rng.integers(4)])
            rule = trapezoid_contour(c, int(rng.integers(16, 129)))
        else:
            fun = function_catalog("invsqrt")
            rule = stieltjes_invsqrt(int(rng.integers(1, 31)))
        x3 = rfom_v3(self.dec, rec, fun, rule)
        assert relerr(x3, smw_v3(self.dec, rec, fun, rule)) <= 1e-12


def random_unitary(rng, m):
    X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return np.linalg.qr(X)[0]


class TestPencilKernel:
    """The node-sum kernel, of v2's pencil and of arnoldi_quad's (I, H),
    against a per-node LU loop, and the eigenpairs read off its form."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 12), n_nodes=st.integers(1, 24),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_lu_loop(self, m, n_nodes, seed):
        # E Hermitian positive definite, as v2's pencil has it, with
        # eigenvalues in [0.5, 2], singular values of F in [0, 2], nodes with
        # 6 <= |z| <= 10: every z E - F has condition number at most 22
        rng = np.random.default_rng(seed)
        W = random_unitary(rng, m)
        E = (W * rng.uniform(0.5, 2.0, m)) @ W.conj().T
        F = (random_unitary(rng, m) * rng.uniform(0.0, 2.0, m)) @ random_unitary(rng, m)
        rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        nodes = rng.uniform(6.0, 10.0, n_nodes) * np.exp(2j * np.pi * rng.uniform(size=n_nodes))
        mu = rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes)
        terms = loop_node_terms(E, F, rhs, nodes, mu)
        got = pencil_node_sum(E, F, rhs, nodes, mu)
        # relative to the sum of the terms' sizes, which bounds its rounding
        scale = np.linalg.norm(terms, axis=1).sum()
        assert np.linalg.norm(got - terms.sum(axis=0)) <= 1e-12 * scale

    # b = e_1 on tridiag(1, 2, 1): Arnoldi reproduces the leading 5 x 5
    # block exactly as H, whose middle eigenvalue is exactly 2
    node_on_ritz_value = QuadratureRule(nodes=[2.5 + 1.0j, 2.0], weights=[1.0, 1.0])

    def tridiag_problem(self):
        A = np.zeros((40, 40))
        A[:20, :20] = 2.0 * np.eye(20) + np.eye(20, k=1) + np.eye(20, k=-1)
        A[20:, 20:] = np.diag(np.linspace(3.0, 9.0, 20))
        dec = arnoldi(A, np.eye(40)[:, 0], 5)
        assert np.array_equal(dec.H, A[:5, :5])
        return A, dec

    @pytest.mark.parametrize("engine", [
        lambda dec, rec, fun, rule: arnoldi_quad(dec, fun, rule), rfom_v2, rfom_v3,
    ], ids=["arnoldi_quad", "rfom_v2", "rfom_v3"])
    def test_v2_node_on_ritz_value_k0(self, engine):
        _, dec = self.tridiag_problem()
        with pytest.raises(SingularSystem):
            engine(dec, RecycleSubspace.empty(40), function_catalog("inverse"),
                   self.node_on_ritz_value)

    @pytest.mark.parametrize("k", [0, 4])
    def test_v1_node_on_ritz_value(self, k):
        # U in the second invariant block, or empty: the j x j system is
        # exactly z I - H, singular at the node 2.0, while the projector
        # U*(z I - A)U is definite there; v1 raises only its own error
        A, dec = self.tridiag_problem()
        rng = np.random.default_rng(15)
        U = np.zeros((40, k))
        U[20:] = rng.standard_normal((20, k))
        with pytest.raises(SingularShift):
            rfom_v1(dec, RecycleSubspace.from_basis(A, U), function_catalog("inverse"),
                    self.node_on_ritz_value)

    # Largest ratio of the residual to the bound's scale over 3,000 such
    # draws: 4.6e-16.
    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 30), cplx=st.booleans(), hermitian=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_eigenpairs_solve_the_pencil(self, m, cplx, hermitian, seed):
        # E Hermitian positive definite with eigenvalues in [0.5, 2], F
        # Hermitian (the eigh branch) or general (the Schur branch)
        rng = np.random.default_rng(seed)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if cplx else x

        W = np.linalg.qr(draw(m, m))[0]
        E = (W * rng.uniform(0.5, 2.0, m)) @ W.conj().T
        F = draw(m, m)
        if hermitian:
            F = F + F.conj().T
        w, X = engines._eigenpairs(engines._decompose(E, F))
        scale = np.linalg.norm(F) + np.linalg.norm(E) * np.max(np.abs(w))
        assert np.linalg.norm(F @ X - E @ X * w) <= 1e-14 * scale * np.linalg.norm(X)

    def test_v2_node_on_ritz_value_k4(self):
        # U in the second invariant block: V_j is orthogonal to U and C, so
        # the node matrix is block upper triangular with z I - H in its
        # lower right block and singular at every Ritz value
        A, dec = self.tridiag_problem()
        rng = np.random.default_rng(14)
        U = np.zeros((40, 4), dtype=np.complex128)
        U[20:] = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        rec = RecycleSubspace.from_basis(A, U)
        with pytest.raises(SingularSystem):
            rfom_v2(dec, rec, function_catalog("inverse"), self.node_on_ritz_value)


# Largest relative gaps over 1500 random draws of TestHermitianKernel's
# problems: 1.7e-14 between the eigh branch and the per-node LU loop on
# v2's pencil, 1.1e-14 between rfom_v2 and rfom_v1, 1.5e-14 between
# arnoldi_quad and its per-node LU loop.
HERMITIAN_KERNEL_TOL = 1e-12


def no_schur(*args, **kwargs):
    raise AssertionError("a Hermitian F left the eigh branch")


class TestHermitianKernel:
    """The eigh branch of the node-sum kernel, for Hermitian F, against the
    per-node loops and the Schur branch, and the pencils that take the
    Schur branch."""

    @settings(max_examples=40, deadline=None)
    @given(j=st.integers(4, 15), k=st.integers(1, 6), circle=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_qz_and_loops(self, j, k, circle, seed):
        # random complex Hermitian A with spectrum in [0.5, 10], complex U
        # with unit columns, as the harmonic Ritz update makes them
        rng = np.random.default_rng(seed)
        n = 50
        lam = rng.uniform(0.5, 10.0, n)
        Q = random_unitary(rng, n)
        A = (Q * lam) @ Q.conj().T
        A = 0.5 * (A + A.conj().T)
        dec = arnoldi(A, rng.standard_normal(n) + 1j * rng.standard_normal(n), j)
        U = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        U /= np.linalg.norm(U, axis=0)
        rec = RecycleSubspace(U=U, C=A @ U)
        if circle:
            fun = function_catalog(("inverse", "exp", "log", "sqrt")[rng.integers(4)])
            contour = guarded_contour(lam.astype(complex), 0.1, singularity=0.0)
            rule = trapezoid_contour(contour, int(rng.integers(16, 129)))
        else:
            fun = function_catalog("invsqrt")
            rule = stieltjes_invsqrt(int(rng.integers(1, 31)))
        mu = _node_weights(fun, rule)
        _, E, F, Vhb = _augmented_pencil(dec, rec)
        assert is_hermitian(E) and is_hermitian(F)
        loop = loop_node_terms(E, F, Vhb, rule.nodes, mu).sum(axis=0)
        assert relerr(pencil_node_sum(E, F, Vhb, rule.nodes, mu), loop) <= HERMITIAN_KERNEL_TOL
        x1 = rfom_v1(dec, rec, fun, rule)
        assert relerr(rfom_v2(dec, rec, fun, rule), x1) <= HERMITIAN_KERNEL_TOL
        xq = loop_arnoldi_quad(dec, fun, rule)
        assert relerr(arnoldi_quad(dec, fun, rule), xq) <= HERMITIAN_KERNEL_TOL

    def pencil(self, m=8, seed=20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        F = X + X.conj().T
        rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        nodes = 12.0 * np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
        return F, rhs, nodes, rng.standard_normal(16) + 0j

    def test_indefinite_e_raises(self):
        # no engine builds an indefinite E; both branches reject it
        F, rhs, nodes, mu = self.pencil()
        E = np.diag([1.0, -1.0, 2.0, 1.0, 1.0, -3.0, 1.0, 1.0])
        K = np.triu(np.ones((8, 8)), 1)
        for G in (F, F + K):
            with pytest.raises(np.linalg.LinAlgError):
                pencil_node_sum(E, G, rhs, nodes, mu)
        # on a definite E, a node on an eigenvalue of the pencil raises in
        # both branches: D and D + K have the eigenvalues 1, ..., 8
        E = np.diag([1.0, 0.5, 2.0, 1.0, 1.0, 3.0, 1.0, 1.0])
        D = E * np.arange(1.0, 9.0)
        for G in (D, D + K):
            with pytest.raises(SingularSystem):
                pencil_node_sum(E, G, rhs, np.array([12.0j, 2.0]), mu[:2])

    def test_asymmetry_above_the_hermitian_test_falls_back_to_qz(self):
        F, rhs, nodes, mu = self.pencil()
        E = np.eye(8)
        # F + r K / 2 with K skew and ||K|| = ||F||: ||M - M^*|| = r ||F||
        K = np.triu(np.ones((8, 8)), 1)
        K = (K - K.T) * np.linalg.norm(F) / np.linalg.norm(K - K.T)
        below, above = F + 0.45e-12 * K, F + 0.55e-12 * K
        assert is_hermitian(below) and not is_hermitian(above)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy.linalg, "schur", no_schur)
            eigh = pencil_node_sum(E, below, rhs, nodes, mu)
        schur = pencil_node_sum(E, above, rhs, nodes, mu)
        assert relerr(schur, eigh) <= HERMITIAN_KERNEL_TOL

    def test_non_hermitian_pencil_keeps_qz(self):
        # real convection-diffusion: neither (I, H) nor v2's pencil is
        # Hermitian, so every engine runs the Schur branch
        A = gen_convection_diffusion_2d(10, convection=5.0)
        rng = np.random.default_rng(21)
        dec = arnoldi(A, rng.standard_normal(100), 15)
        rec = RecycleSubspace.from_basis(A, rng.standard_normal((100, 4)))
        _, E, F, Vhb = _augmented_pencil(dec, rec)
        assert not is_hermitian(F) and not is_hermitian(dec.H)
        fun = function_catalog("exp")
        rule = trapezoid_contour(guarded_contour(np.linalg.eigvals(dec.H), 0.1, None), 64)
        mu = _node_weights(fun, rule)
        loop = loop_node_terms(E, F, Vhb, rule.nodes, mu).sum(axis=0)
        assert relerr(pencil_node_sum(E, F, Vhb, rule.nodes, mu), loop) <= HERMITIAN_KERNEL_TOL
        for engine in (rfom_v2, rfom_v3):
            assert np.all(np.isfinite(engine(dec, rec, fun, rule)))


# Largest relative gap between a folded engine and the unfolded sum on the
# same inputs cast to complex128, over 1500 random draws of
# TestConjugateFold's problems: 6.0e-14 (v2 and v3 on a non-normal A).
FOLD_TOL = 1e-12
QUADRATURE_ENGINES = {name: ENGINES[name] for name in ("arnoldi_q", "v1", "v2", "v3")}


def complex_cast(dec, rec):
    """The same problem in complex128, on which no engine folds."""
    return (dataclasses.replace(dec, V=dec.V.astype(np.complex128),
                                Hbar=dec.Hbar.astype(np.complex128)),
            RecycleSubspace(U=rec.U.astype(np.complex128), C=rec.C.astype(np.complex128)))


def unfolded(fun, rule, dec, rec=None):
    """`_folded_nodes` with the fold withheld: every node keeps its mu."""
    return rule.nodes, _node_weights(fun, rule), False


def real_matrix(rng, hermitian, n=40):
    """Symmetric with spectrum in [0.5, 10], or non-normal with eigenvalues
    in conjugate pairs within about 2 of 5."""
    if hermitian:
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = (Q * rng.uniform(0.5, 10.0, n)) @ Q.T
        return 0.5 * (A + A.T)
    return 5.0 * np.eye(n) + 2.0 * rng.standard_normal((n, n)) / np.sqrt(n)


class TestConjugateFold:
    """Real problems solve each conjugate node pair once and take twice the
    real part; the complex-cast problem sums every node."""

    @settings(max_examples=40, deadline=None)
    @given(hermitian=st.booleans(), j=st.integers(4, 12), k=st.integers(0, 4),
           circle=st.booleans(), odd=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_unfolded_sum(self, hermitian, j, k, circle, odd, seed):
        rng = np.random.default_rng(seed)
        A = real_matrix(rng, hermitian)
        dec = arnoldi(A, rng.standard_normal(40), j)
        U = rng.standard_normal((40, k))
        rec = RecycleSubspace(U=U, C=A @ U)
        if circle:
            fun = function_catalog(("inverse", "exp", "log", "sqrt")[rng.integers(4)])
            contour = guarded_contour(np.linalg.eigvals(dec.H), 0.1, fun.singularity)
            rule = trapezoid_contour(contour, 2 * int(rng.integers(8, 64)) + odd)
        else:
            fun = function_catalog("invsqrt")
            rule = stieltjes_invsqrt(2 * int(rng.integers(0, 15)) + 1 + odd)
        nodes, _, folded = _folded_nodes(fun, rule, dec, rec)
        # a circle keeps theta = 0, theta = pi for even n_quad, and the
        # nodes strictly above the real axis; Stieltjes nodes are all real
        assert folded and nodes.size == (rule.n_quad // 2 + 1 if circle else rule.n_quad)
        decc, recc = complex_cast(dec, rec)
        for name, engine in QUADRATURE_ENGINES.items():
            x, xc = engine(dec, rec, fun, rule), engine(decc, recc, fun, rule)
            assert relerr(x, xc) <= FOLD_TOL, name
            if name != "v3":  # v3 adds arnoldi_direct, complex where f(H) is
                assert x.dtype == np.float64, name

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(["complex A", "complex centre", "f = 1j/z"]),
           k=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_does_not_engage(self, case, k, seed):
        # the result is the engine's with the fold withheld, bit for bit;
        # the complex-cast path is not that reference here, because a real
        # U gives v1 and v2 real one-time products, which differ from the
        # complex ones in the last bits without any fold
        rng = np.random.default_rng(seed)
        A = real_matrix(rng, hermitian=False)
        if case == "complex A":
            A = A + 1j * np.diag(rng.uniform(size=40))
        dec = arnoldi(A, rng.standard_normal(40), 10)
        U = rng.standard_normal((40, k))
        rec = RecycleSubspace(U=U, C=A @ U)
        fun = function_catalog("inverse")
        contour = guarded_contour(np.linalg.eigvals(dec.H), 0.1, fun.singularity)
        if case == "complex centre":
            contour = CircleContour(contour.center + 0.3j * contour.radius, 1.5 * contour.radius)
        if case == "f = 1j/z":
            fun = FunctionSpec(name="i/z", scalar_f=lambda z: 1j / z,
                               dense_f=lambda M: 1j * np.linalg.inv(M))
        rule = trapezoid_contour(contour, 64)
        assert not _folded_nodes(fun, rule, dec, rec)[2]
        outputs = {name: engine(dec, rec, fun, rule)
                   for name, engine in QUADRATURE_ENGINES.items()}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engines, "_folded_nodes", unfolded)
            for name, engine in QUADRATURE_ENGINES.items():
                assert np.array_equal(outputs[name], engine(dec, rec, fun, rule)), name

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_complex_harmonic_ritz_subspace_does_not_engage(self, seed):
        # the harmonic Ritz update of a real non-normal pencil selects
        # complex vectors; the engines that read U must not fold on it
        # (folding v2 there anyway was off by up to 0.77 over 50 draws).
        # arnoldi_quad, and so v3's Krylov part, read no U and still fold.
        rng = np.random.default_rng(seed)
        A = real_matrix(rng, hermitian=False)
        dec = arnoldi(A, rng.standard_normal(40), 10)
        rec = harmonic_ritz_update(dec, RecycleSubspace.empty(40), A, 4)
        if np.isrealobj(rec.U):
            return  # every selected harmonic Ritz value was real
        dec = arnoldi(A, rng.standard_normal(40), 10)
        fun = function_catalog("inverse")
        rule = trapezoid_contour(guarded_contour(np.linalg.eigvals(dec.H), 0.1, 0.0), 64)
        assert not _folded_nodes(fun, rule, dec, rec)[2]
        assert _folded_nodes(fun, rule, dec)[2]
        decc, recc = complex_cast(dec, rec)
        for engine in (rfom_v1, rfom_v2):
            x = engine(dec, rec, fun, rule)
            assert np.array_equal(x, engine(decc, recc, fun, rule))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engines, "_folded_nodes", unfolded)
                assert np.array_equal(x, engine(dec, rec, fun, rule))


def test_v1_singular_projector_raises_without_a_warning():
    # U = e_1, e_2 with C = U N, N = [[z0, 1], [0, z0]], z0 the first node:
    # the projector z0 U*U - U*C = [[0, -1], [0, 0]] has an exactly zero
    # pivot, and v1 raises only its own error
    A, b, _, _ = spd_problem(seed=22)
    dec = arnoldi(A, b, 8)
    rule = trapezoid_contour(CircleContour(5.0 + 0.0j, 4.5), 32)
    z0 = rule.nodes[0]
    U = np.eye(50)[:, :2]
    rec = RecycleSubspace(U=U, C=U @ np.array([[z0.real, 1.0], [0.0, z0.real]]))
    with pytest.raises(SingularProjector):
        rfom_v1(dec, rec, function_catalog("inverse"), rule)


@pytest.fixture
def builds(monkeypatch):
    """Every pencil build, as ("pencil", rec), and every pencil
    decomposition, as ("form", size), in the order they happen."""
    calls = []
    build, decompose = engines._build_pencil, engines._decompose

    def counted_build(dec, rec):
        calls.append(("pencil", rec))
        return build(dec, rec)

    def counted_decompose(E, F):
        calls.append(("form", E.shape[0]))
        return decompose(E, F)

    monkeypatch.setattr(engines, "_build_pencil", counted_build)
    monkeypatch.setattr(engines, "_decompose", counted_decompose)
    return calls


def run_engine(name, dec, rec, fun, rule, op=None):
    """An engine's output, the update's (U, C) with name "update", or the
    name of the error either raises."""
    try:
        if name == "update":
            new = harmonic_ritz_update(dec, rec, op, 3)
            return new.U, new.C
        return ENGINES[name](dec, rec, fun, rule)
    except (RFOMError, ValueError) as exc:
        return type(exc).__name__


def same_bits(x, y):
    if isinstance(x, tuple):
        return isinstance(y, tuple) and all(map(same_bits, x, y))
    if isinstance(x, str) or isinstance(y, str):
        return x == y
    return x.dtype == y.dtype and np.array_equal(x, y)


class TestMemo:
    """Each projected pencil is built, and decomposed, once per Arnoldi
    decomposition and subspace, whatever reads it and in whatever order,
    and a memo read gives the bits of a fresh build."""

    @staticmethod
    def problem(k=4):
        # complex non-normal: the Schur kernel, and a harmonic Ritz U
        rng = np.random.default_rng(41)
        A = gen_convection_diffusion_2d(8, convection=1.0) + 1j * np.diag(rng.uniform(size=64))
        op = as_operator(A)
        rec = harmonic_ritz_update(arnoldi(op, rng.standard_normal(64), 12),
                                   RecycleSubspace.empty(64), op, k)
        dec = arnoldi(op, rng.standard_normal(64), 12)
        fun = function_catalog("log")
        rule = trapezoid_contour(
            guarded_contour(np.linalg.eigvals(dec.H), 0.1, fun.singularity), 200)
        return op, dec, rec, fun, rule

    def test_update_and_five_engines_build_each_pencil_once(self, builds):
        op, dec, rec, fun, rule = self.problem()
        builds.clear()
        assert rec.k == 4
        for name in ("update", "arnoldi", "arnoldi_q", "v1", "v2", "v3"):
            assert not isinstance(run_engine(name, dec, rec, fun, rule, op), str), name
        pencils = [r for kind, r in builds if kind == "pencil"]
        assert len(pencils) == 2 and pencils[0] is rec and pencils[1].k == 0
        assert sorted(size for kind, size in builds if kind == "form") == [12, 16]

    def test_empty_subspace_once_per_decomposition(self, builds):
        _, dec, _, fun, rule = self.problem()
        builds.clear()
        for name in ("arnoldi", "arnoldi_q", "v1", "v2", "v3"):
            ENGINES[name](dec, RecycleSubspace.empty(64), fun, rule)
        assert builds == [("pencil", builds[0][1]), ("form", 12)]
        arnoldi_quad(arnoldi(dec.op, dec.b, 12), fun, rule)  # a new decomposition
        assert [kind for kind, _ in builds] == ["pencil", "form"] * 2

    def test_new_subspace_builds_anew(self, builds):
        _, dec, rec, fun, rule = self.problem()
        builds.clear()
        x = rfom_v2(dec, rec, fun, rule)
        same = RecycleSubspace(U=rec.U, C=rec.C, op=rec.op)
        assert np.array_equal(rfom_v2(dec, same, fun, rule), x)
        assert [r for kind, r in builds if kind == "pencil"] == [rec, same]

    def test_replaced_c_builds_anew(self, builds):
        # a subspace without an operator, whose C is then replaced by a new
        # array: the same rec and U on the same decomposition
        _, dec, rec, fun, rule = self.problem()
        builds.clear()
        rec = RecycleSubspace(U=rec.U, C=rec.C)
        x = rfom_v1(dec, rec, fun, rule)
        rec.C = 2.0 * rec.C
        fresh = copy.deepcopy((dec, rec))
        y = rfom_v1(dec, rec, fun, rule)
        assert not np.allclose(x, y)
        assert np.array_equal(y, rfom_v1(*fresh, fun, rule))
        assert [kind for kind, _ in builds].count("pencil") == 3

    def test_new_decomposition_builds_anew(self, builds):
        op, dec, rec, fun, rule = self.problem()
        builds.clear()
        rfom_v2(dec, rec, fun, rule)
        rfom_v2(arnoldi(op, dec.b, 12), rec, fun, rule)
        assert [kind for kind, _ in builds] == ["pencil", "form"] * 2

    def test_sweep_builds_each_pencil_once(self, builds, tmp_path):
        # three node counts, one decomposition: the empty subspace's pencil
        # and that of the oracle's eigenvectors
        cfg = ExperimentConfig(problem="graded_hermitian", n=120, small_count=6,
                               small_min=1.0, small_max=1.2, bulk_min=15.0,
                               bulk_max=60.0, function="invsqrt", quad_kind="stieltjes",
                               j=10, k=6, engines="arnoldi,arnoldi_q,v1,v2,v3", seed=2,
                               output=str(tmp_path / "out.csv"))
        report = sweep_quadrature(cfg, [5, 10, 20])
        assert len(report.rows) == 15 and not report.has_failures
        assert sorted(r.k for kind, r in builds if kind == "pencil") == [0, 6]
        assert sorted(size for kind, size in builds if kind == "form") == [10, 16]

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["real hermitian", "real non-normal",
                                 "complex hermitian", "complex non-normal"]),
           k=st.integers(0, 4),
           order=st.permutations(["update", "arnoldi", "arnoldi_q", "v1", "v2", "v3"]),
           seed=st.integers(0, 2**32 - 1))
    def test_shared_memo_gives_the_bits_of_fresh_copies(self, kind, k, order, seed):
        rng = np.random.default_rng(seed)
        A = real_matrix(rng, kind.endswith("hermitian"))
        if kind == "complex hermitian":
            S = 0.05 * rng.standard_normal((40, 40)) / np.sqrt(40)
            A = A + 1j * (S - S.T)
        elif kind == "complex non-normal":
            A = A + 1j * np.diag(rng.uniform(size=40))
        dec = arnoldi(A, rng.standard_normal(40), 10)
        U = rng.standard_normal((40, k))
        # C belongs to another wrapper of A, so the first read refreshes it
        rec = RecycleSubspace.from_basis(A, U if kind.startswith("real") else U + 1j * U[::-1])
        fun = function_catalog("log")
        rule = trapezoid_contour(
            guarded_contour(np.linalg.eigvals(dec.H), 0.1, fun.singularity), 64)
        fresh = {name: copy.deepcopy((dec, rec)) for name in order}
        shared = {name: run_engine(name, dec, rec, fun, rule, A) for name in order}
        for name in order:
            alone = run_engine(name, *fresh[name], fun, rule, A)
            assert same_bits(shared[name], alone), (name, order)


class TestEigenbasisCut:
    """f(H) through an eigenbasis P is refused when cond(P) reaches 1e10;
    inverse goes through LU and is not."""

    @staticmethod
    def nearly_defective():
        # the block [[2, 1], [0, 2 + 1e-12]] has an eigenvector condition
        # near 2e12, and K_2(A, e_2) is its invariant subspace
        A = np.array([[2.0, 1.0, 0.0], [0.0, 2.0 + 1e-12, 0.0], [0.0, 0.0, 5.0]])
        b = np.array([0.0, 1.0, 0.0])
        return A, b, arnoldi(A, b, 2)

    def test_log_raises(self):
        _, _, dec = self.nearly_defective()
        assert dec.j == 2 and not is_hermitian(dec.H)
        with pytest.raises(IllConditionedEigenbasis):
            arnoldi_direct(dec, function_catalog("log"))

    def test_inverse_goes_through_lu(self):
        A, b, dec = self.nearly_defective()
        x = arnoldi_direct(dec, function_catalog("inverse"))
        assert relerr(x, np.linalg.solve(A, b)) <= 1e-14


class TestEigenbasisCheck:
    """`_check_eigenbasis(P, limit)` passes P on the QR bound
    ||P||_F ||R^{-1}||_F below limit, and otherwise decides on cond_2(P)
    as np.linalg.cond computes it."""

    @staticmethod
    def with_condition(n, cond, complex_, seed=0):
        # U diag(s) W^* with half the singular values 1 and half 1 / cond:
        # cond_2 is cond, and the bound reads about n cond / 2, so from
        # n = 8 a P below the limit by half still needs the SVD
        rng = np.random.default_rng(seed)

        def unitary():
            M = rng.standard_normal((n, n))
            return np.linalg.qr(M + 1j * rng.standard_normal((n, n)) if complex_ else M)[0]

        s = np.where(np.arange(n) < n // 2, 1.0, 1.0 / cond)
        return (unitary() * s) @ unitary().conj().T

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), complex_=st.booleans(), seed=st.integers(0, 2**32 - 1),
           dependence=st.none() | st.integers(0, 10), scale=st.integers(-30, 30))
    def test_bound_is_above_the_condition(self, n, complex_, seed, dependence, scale):
        # with dependence, one column is another plus 10^-dependence times
        # a random vector: cond_2 reaches about 1e14
        rng = np.random.default_rng(seed)

        def draw(*shape):
            X = rng.standard_normal(shape)
            return X + 1j * rng.standard_normal(shape) if complex_ else X

        P = draw(n, n)
        if dependence is not None and n > 1:
            i, j = rng.choice(n, 2, replace=False)
            P[:, j] = P[:, i] + 10.0 ** -dependence * draw(n)
        P *= 2.0 ** scale
        assert engines._eigenbasis_bound(P) >= np.linalg.cond(P) * (1 - 1e-10)

    @pytest.mark.parametrize("limit", [1e8, 1e10])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("factor", [0.5, 0.999, 1.001, 2.0])
    def test_fallback_decides_as_the_svd(self, monkeypatch, limit, complex_, factor):
        P = self.with_condition(8, factor * limit, complex_)
        cond = np.linalg.cond(P)
        assert (cond < limit) == (factor < 1)
        assert engines._eigenbasis_bound(P) >= limit
        calls = []
        svd_cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda M: calls.append(M) or svd_cond(M))
        if factor < 1:
            engines._check_eigenbasis(P, limit)
        else:
            with pytest.raises(IllConditionedEigenbasis) as info:
                engines._check_eigenbasis(P, limit)
            assert str(info.value) == f"eigenvector condition {cond:.2e}"
        assert len(calls) == 1 and calls[0] is P

    @pytest.mark.parametrize("complex_", [False, True])
    def test_a_bound_below_the_limit_makes_no_svd(self, monkeypatch, complex_):
        P = self.with_condition(8, 1e3, complex_)
        monkeypatch.setattr(np.linalg, "cond", lambda M: pytest.fail("cond called"))
        engines._check_eigenbasis(P, 1e8)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("entry", [np.inf, -np.inf, "zero column"])
    def test_singular_or_infinite_p_raises(self, complex_, entry):
        # an infinite entry gives a NaN bound and cond_2 = inf; a zero
        # column gives an exactly singular R, which ?trtri reports
        P = self.with_condition(6, 10.0, complex_)
        if entry == "zero column":
            P[:, 2] = 0.0
        else:
            P[1, 3] = entry
        assert not engines._eigenbasis_bound(P) < 1e10
        with pytest.raises(IllConditionedEigenbasis):
            engines._check_eigenbasis(P, 1e10)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_nan_p_raises_without_the_svd(self, monkeypatch, complex_):
        # a NaN entry gives a NaN bound, and np.linalg.cond's SVD would
        # not converge on it (LinAlgError): the check takes cond_2 = inf,
        # as the SVD reads for an infinite entry, and makes no SVD
        P = self.with_condition(6, 10.0, complex_)
        P[1, 3] = np.nan
        monkeypatch.setattr(np.linalg, "cond", lambda M: pytest.fail("cond called"))
        with pytest.raises(IllConditionedEigenbasis, match="eigenvector condition inf"):
            engines._check_eigenbasis(P, 1e10)

    def test_singular_r_goes_to_the_svd(self, monkeypatch):
        # a zero column: R is exactly singular, the bound is inf, and the
        # SVD's cond_2 decides
        P = self.with_condition(6, 10.0, False)
        P[:, 2] = 0.0
        calls = []
        svd_cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda M: calls.append(M) or svd_cond(M))
        with pytest.raises(IllConditionedEigenbasis):
            engines._check_eigenbasis(P, 1e10)
        assert len(calls) == 1 and calls[0] is P
