"""The five f(A)b engines and their reduction/equivalence identities."""

import numpy as np
import pytest
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
    augmented_quantities,
    guarded_contour,
    rfom_v1,
    rfom_v2,
    rfom_v3,
    stieltjes_invsqrt,
    svd_values,
    trapezoid_contour,
)
from rfom2.core import SingularMatrix, SingularShift, SingularSystem, lu_solve
from rfom2.engines import _deflate, _node_factor, _node_weights, _pencil_node_sum, _v2_pencil
from rfom2.problems import function_catalog, gen_graded_hermitian, oracle_funm


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
    Sherman-Morrison-Woodbury correction through an explicit inverse."""
    aug, _, _, Vhb = _v2_pencil(dec, rec)
    VhWh = aug.Vhat.conj().T @ aug.What
    k, kj = aug.k, aug.k + aug.j
    I = np.eye(kj, dtype=np.complex128)
    fG = np.zeros((kj, kj), dtype=np.complex128)
    if k:
        fG[:k, :k] = fun.dense_f(aug.G[:k, :k])
    fG[k:, k:] = fun.dense_f(dec.H)
    closed = aug.Vhat @ (fG @ lu_solve(VhWh, Vhb))
    t = np.zeros(kj, dtype=np.complex128)
    factor = _node_factor(fun, rule)
    for z, w in zip(rule.nodes, rule.weights):
        B = aug.Vhat.conj().T @ aug.R(z)
        Gzinv = lu_solve(VhWh @ (z * I - aug.G), I)
        s = lu_solve(I + B @ Gzinv, B @ (Gzinv @ Vhb))
        t += w * factor(z) * (Gzinv @ s)
    return closed - aug.Vhat @ t


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


def v2_plus_krylov_error(dec, rec, fun, rule):
    """v3's identity: v2 plus the plain Krylov quadrature error, with the
    quadrature summed by the per-node loop rather than by `arnoldi_quad`."""
    return rfom_v2(dec, rec, fun, rule) + arnoldi_direct(dec, fun) \
        - loop_arnoldi_quad(dec, fun, rule)


def loop_node_terms(E, F, rhs, nodes, mu):
    """Reference for the QZ kernel: the terms mu_l (z_l E - F)^{-1} rhs,
    one LU solve per node."""
    return np.array([w * lu_solve(z * E - F, rhs) for z, w in zip(nodes, mu)])


def eigvec_subspace(A, Q, k):
    U = Q[:, :k].astype(np.complex128)
    return RecycleSubspace(U=U, C=np.asarray(A @ U), D=np.eye(k, dtype=np.complex128))


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
        x1 = rfom_v1(self.dec, self.rec, self.fun, self.rule)
        assert np.array_equal(x1, loop_arnoldi_quad(self.dec, self.fun, self.rule))

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


class TestRecycledEngines:
    """Equivalence identities, on a well-conditioned augmented basis.

    A random U keeps [U, V_j] far from rank deficiency; eigenvector-based
    subspaces make the augmented basis nearly dependent once Arnoldi
    partially converges to the same eigenvectors, which floors any
    agreement at eps * cond and is exercised separately below.
    """

    def setup_method(self):
        self.A = gen_graded_hermitian(80, small_count=8, small_range=(1.5, 1.7),
                                      bulk_range=(20.0, 100.0), seed=7).toarray()
        rng = np.random.default_rng(8)
        self.b = rng.standard_normal(80)
        self.lam, self.Q = np.linalg.eigh(self.A)
        self.dec = arnoldi(self.A, self.b, 14)
        U = rng.standard_normal((80, 8)) + 1j * rng.standard_normal((80, 8))
        self.rec = RecycleSubspace(U=U, C=self.A @ U, D=np.eye(8, dtype=complex))
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

    def test_v2_balances_badly_scaled_basis(self):
        # columns of U D up to ~800 long against unit V_j columns: QZ on the
        # unbalanced pencil lost up to 8e-11 against the per-node LU loop
        rng = np.random.default_rng(19)
        for _ in range(3):
            U = rng.standard_normal((80, 8)) + 1j * rng.standard_normal((80, 8))
            d = rng.uniform(1.0, 60.0, 8) * np.exp(2j * np.pi * rng.uniform(size=8))
            rec = RecycleSubspace(U=U, C=self.A @ U, D=np.diag(d))
            aug, E, F, Vhb = _v2_pencil(self.dec, rec)
            terms = loop_node_terms(E, F, Vhb, self.rule.nodes, _node_weights(self.fun, self.rule))
            ref = aug.Vhat @ terms.sum(axis=0)
            assert relerr(rfom_v2(self.dec, rec, self.fun, self.rule), ref) <= 1e-13

    def test_d_scaling_invariance(self):
        base2 = rfom_v2(self.dec, self.rec, self.fun, self.rule)
        base3 = rfom_v3(self.dec, self.rec, self.fun, self.rule)
        rng = np.random.default_rng(9)
        for D in (2.0 * np.eye(8), np.diag(rng.uniform(0.5, 3.0, 8))):
            rec = RecycleSubspace(U=self.rec.U, C=self.rec.C, D=D.astype(complex))
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
        aug = augmented_quantities(self.dec, self.rec)
        rng = np.random.default_rng(11)
        nA = np.linalg.norm(self.A)
        for sigma in rng.standard_normal(5) * 30 + 1j * rng.standard_normal(5):
            lhs = (sigma * np.eye(80) - self.A) @ aug.Vhat
            rhs = aug.What @ (sigma * np.eye(aug.k + aug.j) - aug.G) + aug.R(sigma)
            res = np.linalg.norm(lhs - rhs, "fro")
            assert res <= 1e-10 * (abs(sigma) + nA) * np.linalg.norm(aug.Vhat)

    def test_subspace_invariants(self):
        assert np.linalg.norm(self.A @ self.rec.U - self.rec.C, "fro") \
            <= 1e-10 * np.linalg.norm(self.rec.C, "fro")
        sv = svd_values(self.rec.U)
        assert sv[-1] > 1e-12 * sv[0]
        assert self.rec.k == 8


class TestDeflation:
    """The one rank decision of [U D, V_j]: U deflated against K_j."""

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
        # U = [columns on K_j, random columns] with a random diagonal D:
        # the deflated subspace keeps one column per random column, stays
        # consistent (A U' = C') and gives v2 the Galerkin result on
        # span[U, V_j], which v1 computes from the random columns alone
        # (v1 on the raw U meets an exactly singular system)
        rng = np.random.default_rng(seed)
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        R = cplx(50, n_rand)
        U = np.concatenate([self.dec.Vj @ cplx(12, n_in), R], axis=1)
        D = np.diag(rng.uniform(0.5, 3.0, n_in + n_rand)).astype(np.complex128)
        rec = RecycleSubspace(U=U, C=self.A @ U, D=D)
        out = _deflate(self.dec, rec)
        assert out.k == n_rand
        assert np.linalg.norm(self.A @ out.U - out.C) <= 1e-12 * np.linalg.norm(out.C)
        x1 = rfom_v1(self.dec, RecycleSubspace.from_basis(self.A, R), self.fun, self.rule)
        assert relerr(rfom_v2(self.dec, rec, self.fun, self.rule), x1) <= 1e-10

    def test_full_rank_subspace_is_kept(self):
        rng = np.random.default_rng(17)
        rec = RecycleSubspace.from_basis(self.A, rng.standard_normal((50, 4)))
        assert _deflate(self.dec, rec) is rec


class TestV3Identity:
    """rfom_v3 = rfom_v2 + V_j (f(H) - q(H)) beta e_1 against the SMW reference."""

    def setup_method(self):
        self.A, b, lam, _ = spd_problem(seed=18)
        self.dec = arnoldi(self.A, b, 12)
        self.contour = guarded_contour(lam.astype(complex), 0.1, singularity=0.0)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 6), circle=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_smw(self, k, circle, seed):
        # U with unit columns, as the harmonic Ritz update makes it, and a
        # complex diagonal D within half the radius of the contour's centre,
        # so the SMW reference's z I - G stays regular at every node
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((50, k)) + 1j * rng.standard_normal((50, k))
        U /= np.linalg.norm(U, axis=0)
        c = self.contour
        d = c.center + 0.5 * c.radius * rng.uniform(0.0, 1.0, k) \
            * np.exp(2j * np.pi * rng.uniform(size=k))
        rec = RecycleSubspace(U=U, C=self.A @ U, D=np.diag(d))
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
    """The QZ node-sum kernel, of v2's pencil and of arnoldi_quad's (I, H),
    against a per-node LU loop."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 12), n_nodes=st.integers(1, 24),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_lu_loop(self, m, n_nodes, seed):
        # singular values of E in [0.5, 2] and of F in [0, 2], nodes with
        # 6 <= |z| <= 10: every z E - F has condition number at most 22
        rng = np.random.default_rng(seed)
        E = (random_unitary(rng, m) * rng.uniform(0.5, 2.0, m)) @ random_unitary(rng, m)
        F = (random_unitary(rng, m) * rng.uniform(0.0, 2.0, m)) @ random_unitary(rng, m)
        rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        nodes = rng.uniform(6.0, 10.0, n_nodes) * np.exp(2j * np.pi * rng.uniform(size=n_nodes))
        mu = rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes)
        terms = loop_node_terms(E, F, rhs, nodes, mu)
        got = _pencil_node_sum(E, F, rhs, nodes, mu)
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

    def test_v3_node_on_eigenvalue_of_d(self):
        # G = blockdiag(D, H): a node on an entry of D leaves v2's pencil
        # regular, and v3 never solves with z I - G, since D drops out
        A, b, _, _ = spd_problem(seed=15)
        rng = np.random.default_rng(15)
        U = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        D = np.diag([0.5, 2.0, 3.0]).astype(np.complex128)
        rec = RecycleSubspace(U=U, C=A @ U, D=D)
        dec = arnoldi(A, b, 10)
        rule = QuadratureRule(nodes=[2.0 + 1.0j, 2.0], weights=[1.0, 1.0])
        fun = function_catalog("exp")
        assert np.all(np.isfinite(rfom_v2(dec, rec, fun, rule)))
        x3 = rfom_v3(dec, rec, fun, rule)
        assert np.all(np.isfinite(x3))
        assert relerr(x3, v2_plus_krylov_error(dec, rec, fun, rule)) <= 1e-12
