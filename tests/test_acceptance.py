"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every criterion is exercised end to end against the dense oracle (or
engine-vs-engine where the criterion is an identity) with the tolerances
stated inline. The suite is deterministic: all randomness is seeded.
"""

import contextlib
import statistics
import time

import numpy as np
import pytest

from rfom2 import (
    RecycleSubspace,
    arnoldi,
    arnoldi_direct,
    arnoldi_quad,
    augmented_basis,
    generalized_eig,
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
from rfom2.cli import ExperimentConfig, run_experiment
from rfom2.problems import (
    function_catalog,
    gen_convection_diffusion_2d,
    gen_graded_hermitian,
    gen_laplacian_2d,
    oracle_funm,
)


def relerr(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


@contextlib.contextmanager
def criterion(num, desc):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num}: FAIL - {desc} [{time.time() - t0:.1f}s]")
        raise
    print(f"\nCRITERION {num}: PASS - {desc} [{time.time() - t0:.1f}s]")


def auto_rule(dec, n_quad, extra=()):
    ritz = np.linalg.eigvals(dec.H)
    est = np.concatenate([ritz, np.asarray(extra, dtype=complex)])
    return trapezoid_contour(guarded_contour(est, 0.1, singularity=0.0), n_quad)


def harmonic_prep(A, j, k, seed):
    """One plain pass plus a harmonic Ritz update, then a fresh decomposition.

    This reproduces the state the sequence driver is in from the second
    problem on: U comes from the previous solve, D = I.
    """
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    dec1 = arnoldi(A, rng.standard_normal(n), j)
    rec = harmonic_ritz_update(dec1, RecycleSubspace.empty(n), A, k)
    dec = arnoldi(A, rng.standard_normal(n), j)
    return dec, rec


class TestCriterion1:
    def test_reduction_identity(self):
        with criterion(1, "k=0 reduction: arnoldi_quad, v1, v2, v3 pairwise <= 1e-12"):
            t0 = time.time()
            A = gen_laplacian_2d(20).toarray()
            w, Q = np.linalg.eigh(A)
            rng = np.random.default_rng(0)
            # right-hand side restricted to the eigenvalues >= 1.5: the
            # Ritz values then stay away from the origin, so 500 nodes
            # already put the quadrature error below 1e-12 and the
            # closed-form v3 agrees with the quadrature-based engines
            mask = w >= 1.5
            b = Q[:, mask] @ rng.standard_normal(int(mask.sum()))
            dec = arnoldi(A, b, 30)
            rule = auto_rule(dec, 500)
            fun = function_catalog("inverse")
            rec = RecycleSubspace.empty(400)
            outs = [
                arnoldi_quad(dec, fun, rule),
                rfom_v1(dec, rec, fun, rule),
                rfom_v2(dec, rec, fun, rule),
                rfom_v3(dec, rec, fun, rule),
            ]
            for a in range(4):
                for c in range(a + 1, 4):
                    assert relerr(outs[a], outs[c]) <= 1e-12
            assert time.time() - t0 < 10.0


class TestCriterion2:
    def test_version_equivalence(self):
        with criterion(2, "v1 = v2 to 1e-10 at matched nodes; v3 within 1e-8 at stagnation"):
            t0 = time.time()
            cases = [
                (gen_laplacian_2d(20).toarray(), 30, 8, "inverse", 500, 3500),
                (gen_convection_diffusion_2d(40, convection=1.0).toarray(),
                 40, 20, "log", 2000, 4000),
                (gen_graded_hermitian(900, seed=11).toarray(),
                 50, 20, "inverse", 1000, 2500),
            ]
            for A, j, k, fname, nq, nq_stag in cases:
                dec, rec = harmonic_prep(A, j, k, seed=5)
                fun = function_catalog(fname)
                rule = auto_rule(dec, nq)
                assert relerr(rfom_v1(dec, rec, fun, rule),
                              rfom_v2(dec, rec, fun, rule)) <= 1e-10
                rule_s = auto_rule(dec, nq_stag)
                x1 = rfom_v1(dec, rec, fun, rule_s)
                x2 = rfom_v2(dec, rec, fun, rule_s)
                x3 = rfom_v3(dec, rec, fun, rule_s)
                assert relerr(x3, x2) <= 1e-8
                assert relerr(x3, x1) <= 1e-8
            # the Stieltjes rule: matched nodes and stagnation coincide
            # (30 Gauss points already put the rule error below the
            # j=50 subspace error on this spectrum)
            A = gen_graded_hermitian(900, seed=11).toarray()
            dec, rec = harmonic_prep(A, 50, 20, seed=5)
            fun = function_catalog("invsqrt")
            rule = stieltjes_invsqrt(30)
            x1 = rfom_v1(dec, rec, fun, rule)
            x2 = rfom_v2(dec, rec, fun, rule)
            x3 = rfom_v3(dec, rec, fun, rule)
            assert relerr(x1, x2) <= 1e-10
            assert relerr(x3, x2) <= 1e-8
            assert relerr(x3, x1) <= 1e-8
            assert time.time() - t0 < 60.0


class TestCriterion3:
    def test_convection_diffusion_log(self):
        with criterion(3, "conv-diff log, j=40, k=20 eigenvector U: rFOM2 >= 10x better"):
            t0 = time.time()
            A = gen_convection_diffusion_2d(40, convection=1.0).toarray()
            n = A.shape[0]
            rng = np.random.default_rng(0)
            b = rng.standard_normal(n)
            # dense-eigendecomposition oracle
            w, V = np.linalg.eig(A)
            exact = V @ (np.log(w) * np.linalg.solve(V, b.astype(complex)))
            idx = np.argsort(np.abs(w))[:20]
            U = V[:, idx]
            rec = RecycleSubspace(U=U, C=A @ U)
            dec = arnoldi(A, b, 40)
            fun = function_catalog("log")
            e_arnoldi = relerr(arnoldi_direct(dec, fun), exact)
            rule = auto_rule(dec, 4000, extra=w[idx])
            e_rfom = relerr(rfom_v2(dec, rec, fun, rule), exact)
            assert e_rfom <= e_arnoldi / 10.0
            assert time.time() - t0 < 120.0


class TestCriterion4:
    def test_fixed_matrix_changing_rhs(self):
        with criterion(4, "graded Hermitian, N=10, f=inverse: recycling beats Arnoldi"):
            t0 = time.time()
            cfg = ExperimentConfig(problem="graded_hermitian", n=900,
                                   function="inverse", j=50, k=20, n_quad=1000,
                                   n_problems=10, engines="arnoldi_q,v2",
                                   seed=11, output="/tmp/rfom2_acc4.csv")
            report = run_experiment(cfg)
            assert not report.has_failures
            e_arn, e_rec = [], []
            for i in range(1, 11):
                e_arn.append(report.select(engine="arnoldi_q", problem_index=i)[0]["rel_error"])
                e_rec.append(report.select(engine="v2", problem_index=i)[0]["rel_error"])
            for i in range(1, 10):
                assert e_rec[i] < e_arn[i]
            assert statistics.median(e_rec[5:]) < statistics.median(e_rec[:5])
            assert time.time() - t0 < 300.0


@pytest.fixture(scope="module")
def invsqrt_sequence_reports():
    """The two criterion-5 sequence runs (shared with criterion 7)."""
    reports = {}
    for eps in (0.0, 1e-4):
        cfg = ExperimentConfig(problem="graded_hermitian", n=900,
                               function="invsqrt", quad_kind="stieltjes",
                               j=50, k=20, n_quad=30, n_problems=30, eps=eps,
                               engines="arnoldi_q,v2", seed=11,
                               track_angle=True,
                               output=f"/tmp/rfom2_acc5_{eps:g}.csv")
        reports[eps] = run_experiment(cfg)
    return reports


class TestCriterion5:
    def test_invsqrt_sequences(self, invsqrt_sequence_reports):
        with criterion(5, "invsqrt Stieltjes sequences (eps 0 and 1e-4): recycling beats Arnoldi"):
            t0 = time.time()
            for eps, report in invsqrt_sequence_reports.items():
                assert not report.has_failures
                e_arn, e_rec = [], []
                for i in range(1, 31):
                    e_arn.append(report.select(engine="arnoldi_q", problem_index=i)[0]["rel_error"])
                    e_rec.append(report.select(engine="v2", problem_index=i)[0]["rel_error"])
                for i in range(1, 30):
                    assert e_rec[i] < e_arn[i]
                assert statistics.median(e_rec[5:10]) < statistics.median(e_rec[:5])
            assert time.time() - t0 < 600.0


class TestCriterion6:
    def test_negative_eigenvalue_failure_rows(self):
        with criterion(6, "eps=1e-2 drift: FunctionUndefined rows recorded, sequence continues"):
            cfg = ExperimentConfig(problem="graded_hermitian", n=400,
                                   small_min=0.05, small_max=0.2,
                                   function="invsqrt", quad_kind="stieltjes",
                                   j=50, k=20, n_quad=30, n_problems=10,
                                   eps=1e-2, engines="arnoldi_q,v2", seed=11,
                                   output="/tmp/rfom2_acc6.csv")
            report = run_experiment(cfg)
            assert report.has_failures
            fail_idx = {r["problem_index"] for r in report.rows
                        if r["engine"] == "oracle"
                        and r["status"].startswith("error:FunctionUndefined")}
            assert fail_idx  # the drift pushed an eigenvalue below zero
            first = min(fail_idx)
            # isolation: every later problem still produced engine rows
            for i in range(first, 11):
                engines = {r["engine"] for r in report.rows
                           if r["problem_index"] == i and r["status"] == "ok"}
                assert {"arnoldi_q", "v2"} <= engines


class TestCriterion7:
    def test_subspace_angle_improves(self, invsqrt_sequence_reports):
        with criterion(7, "theta(U, Z) at i=5 below i=1 in the eps=0 sequence"):
            report = invsqrt_sequence_reports[0.0]
            a1 = report.select(engine="v2", problem_index=1)[0]["subspace_angle"]
            a5 = report.select(engine="v2", problem_index=5)[0]["subspace_angle"]
            assert a5 < a1


class TestCriterion8:
    def test_quadrature_unit_properties(self):
        with criterion(8, "quadrature unit properties (trapezoid identities, Stieltjes values)"):
            t0 = time.time()
            from rfom2 import CircleContour
            # resolvent at the center: exact for any node count
            c = 1.5 + 0.5j
            for n in (2, 16, 101):
                rule = trapezoid_contour(CircleContour(c, 2.0), n)
                val = np.sum(rule.weights / (rule.nodes - c))
                assert abs(val - 1.0) <= 1e-14
            # exp(z)/z -> 1 with >= 10x drop per doubling until <= 1e-13
            errs = []
            for n in (8, 16, 32, 64):
                rule = trapezoid_contour(CircleContour(0.0 + 0.0j, 1.0), n)
                errs.append(abs(np.sum(rule.weights * np.exp(rule.nodes) / rule.nodes) - 1.0))
            for a, b in zip(errs, errs[1:]):
                assert b <= a / 10.0 or a <= 1e-13
            assert errs[-1] <= 1e-13
            # Stieltjes scalar checks at 64 nodes
            rule = stieltjes_invsqrt(64)
            for z, expect in ((1.0, 1.0), (4.0, 0.5), (2.0, 2.0 ** -0.5)):
                val = np.sum(rule.weights / (rule.nodes - z))
                assert abs(val - expect) <= 1e-8
            assert time.time() - t0 < 1.0


class TestCriterion9:
    def test_structural_invariants(self):
        with criterion(9, "structural invariants (Arnoldi/augmented relations, pencil, exhaustion)"):
            t0 = time.time()
            rng = np.random.default_rng(42)

            # Arnoldi relation residual
            M = rng.standard_normal((100, 100))
            A = M + M.T + 100 * np.eye(100)
            b = rng.standard_normal(100)
            dec = arnoldi(A, b, 20)
            res = np.linalg.norm(A @ dec.Vj - dec.V @ dec.Hbar)
            assert res <= 1e-12 * np.linalg.norm(A)
            assert np.linalg.norm(dec.V.conj().T @ dec.V - np.eye(21)) <= 1e-12

            # shift-invariance cross-check: the same basis serves all shifts
            for sigma in (0.5, 3.0 + 1.0j):
                S = sigma * np.eye(100) - A
                res = np.linalg.norm(S @ dec.Vj - dec.V @ (sigma * np.eye(21, 20) - dec.Hbar))
                assert res <= 1e-10 * np.linalg.norm(S)

            # augmented relation A [U, V_j] = [C, V_{j+1} Hbar], unshifted and at
            # sampled shifts, + column-scaling invariance (v2 depends on U only
            # through span(U))
            U = rng.standard_normal((100, 6)) + 1j * rng.standard_normal((100, 6))
            rec = RecycleSubspace(U=U, C=A @ U)
            Vhat, AVhat = augmented_basis(dec, rec)
            assert Vhat.shape == (100, 26)
            for sigma in np.concatenate([[0.0], rng.standard_normal(5) * 50
                                         + 1j * rng.standard_normal(5)]):
                lhs = (sigma * np.eye(100) - A) @ Vhat
                assert np.linalg.norm(lhs - (sigma * Vhat - AVhat)) <= \
                    1e-10 * (abs(sigma) + np.linalg.norm(A)) * np.linalg.norm(Vhat)
            fun = function_catalog("inverse")
            rule = auto_rule(dec, 600)
            base = rfom_v2(dec, rec, fun, rule)
            d = rng.uniform(0.5, 2.0, 6)
            scaled = RecycleSubspace(U=rec.U * d, C=rec.C * d)
            assert relerr(rfom_v2(dec, scaled, fun, rule), base) <= 1e-10

            # field-of-values nonsingularity guard along the contour
            UU = U.conj().T @ U
            UC = U.conj().T @ (A @ U)
            smin = min(svd_values(z * UU - UC)[-1] for z in rule.nodes)
            assert smin > 0.0

            # harmonic Ritz pencil residuals
            lhs, rhs = harmonic_ritz_pencil(dec, rec)
            values, vectors = generalized_eig(lhs, rhs)
            nL, nR = np.linalg.norm(lhs), np.linalg.norm(rhs)
            for i in range(values.size):
                if not np.isfinite(values[i]):
                    continue
                g = vectors[:, i]
                r = lhs @ g - values[i] * (rhs @ g)
                assert np.linalg.norm(r) <= \
                    1e-8 * (nL + abs(values[i]) * nR) * np.linalg.norm(g)

            # exhaustion at k + j = n on a 20x20 Hermitian instance
            n, k, j = 20, 4, 16
            M = rng.standard_normal((n, n))
            A20 = M + M.T + n * np.eye(n)
            U20 = rng.standard_normal((n, k)).astype(complex)
            rec20 = RecycleSubspace(U=U20, C=A20 @ U20)
            dec20 = arnoldi(A20, rng.standard_normal(n), j)
            lhs, rhs = harmonic_ritz_pencil(dec20, rec20)
            values, _ = generalized_eig(lhs, rhs)
            theta = np.sort(values.real)
            w = np.sort(np.linalg.eigvalsh(A20))
            assert np.allclose(theta, w, atol=1e-6 * np.linalg.norm(A20))
            assert time.time() - t0 < 60.0
