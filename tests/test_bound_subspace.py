"""A recycle subspace is bound to the operator its C = A U belongs to.

The engines replace a C computed for another operator (once, in place),
the update's C costs no mat-vec, and `rfom2 run` pays one block apply per
changed matrix and none on a fixed one.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import rfom2.cli
from rfom2 import (
    LinearOperator,
    ProblemSequence,
    RecycleSubspace,
    arnoldi,
    as_operator,
    augmented_basis,
    function_catalog,
    gen_convection_diffusion_2d,
    gen_graded_hermitian,
    gen_perturbation_sequence,
    guarded_contour,
    harmonic_ritz_update,
    rfom_v1,
    rfom_v2,
    rfom_v3,
    stieltjes_invsqrt,
    trapezoid_contour,
)
from rfom2.cli import ExperimentConfig, run_experiment

RECYCLED_ENGINES = (rfom_v1, rfom_v2, rfom_v3)


def counting_operator(A, blocks):
    """LinearOperator over A that appends the column count of every block
    apply to blocks."""
    def apply(v):
        if np.ndim(v) == 2:
            blocks.append(v.shape[1])
        return A @ v
    return LinearOperator(A.shape[0], apply)


def hermitian_sequence():
    base = gen_graded_hermitian(150, 8, (1.0, 1.2), (15.0, 60.0), seed=3)
    seq = ProblemSequence(base=base, length=4, eps=1e-3, seed=3, hermitian=True)
    return seq, function_catalog("invsqrt"), lambda dec: stieltjes_invsqrt(30)


def convdiff_sequence():
    seq = ProblemSequence(base=gen_convection_diffusion_2d(12, convection=1.0),
                          length=4, eps=1e-3, seed=5)
    fun = function_catalog("log")
    return seq, fun, lambda dec: trapezoid_contour(
        guarded_contour(np.linalg.eigvals(dec.H), 0.1, fun.singularity), 64)


def solve_pass(seq, fun, rule_for, j, k, refresh, operator=as_operator):
    """The recycled engines and the update over a sequence, through the public
    API, with a new operator wrapper per problem. With refresh, C = A U is
    recomputed by `from_basis` before Arnoldi; without, the subspace arrives
    as the previous problem's update left it, as in `rfom2 run`."""
    rec = RecycleSubspace.empty(seq.base.shape[0])
    out = []
    for A, b in gen_perturbation_sequence(seq):
        op = operator(A)
        if refresh and rec.k:
            rec = RecycleSubspace.from_basis(op, rec.U)
        dec = arnoldi(op, b, j)
        rule = rule_for(dec)
        xs = [engine(dec, rec, fun, rule) for engine in RECYCLED_ENGINES]
        rec = harmonic_ritz_update(dec, rec, op, k)
        out.append((xs, rec.U, rec.C))
    return out


class TestStaleC:
    @pytest.mark.parametrize("sequence", [hermitian_sequence, convdiff_sequence])
    def test_engines_refresh_c_of_another_operator(self, sequence, monkeypatch):
        # the update's C belongs to the previous matrix; every recycled
        # engine and the next update must see C of the current one, bit for
        # bit as if the caller had refreshed it
        seq, fun, rule_for = sequence()
        if seq.hermitian:
            # a C of the current matrix keeps v2's pencil and the harmonic
            # Ritz pencil Hermitian, so neither leaves its eigh path
            def no_general_solver(*args, **kwargs):
                raise AssertionError("a Hermitian problem left its eigh path")
            monkeypatch.setattr(scipy.linalg, "schur", no_general_solver)
            monkeypatch.setattr(scipy.linalg, "eig", no_general_solver)
        refreshed = solve_pass(seq, fun, rule_for, 20, 8, refresh=True)
        bare = solve_pass(seq, fun, rule_for, 20, 8, refresh=False)
        # on the real convdiff matrix the cut falls inside a conjugate pair on
        # problems 2 and 4, and the update drops the pair's selected member
        ks = [8] * 4 if seq.hermitian else [8, 7, 8, 7]
        assert [U.shape[1] for (_, U, _) in bare] == ks
        for (xs, U, C), (xs_ref, U_ref, C_ref) in zip(bare, refreshed):
            for x, x_ref in zip(xs, xs_ref):
                assert np.array_equal(x, x_ref)
            assert np.array_equal(U, U_ref) and np.array_equal(C, C_ref)

    def test_explicit_c_is_trusted(self):
        # a C supplied without an operator is used as it stands
        A = np.diag(np.arange(1.0, 41.0))
        U = np.eye(40)[:, :3]
        rec = RecycleSubspace(U=U, C=2.0 * A @ U)
        augmented_basis(arnoldi(A, np.ones(40), 8), rec)
        assert rec.op is None and np.array_equal(rec.C, 2.0 * A @ U)


class TestBlockApplies:
    """Column counts of the k-column applies C = A U."""

    def cli_blocks(self, tmp_path, monkeypatch, eps):
        blocks = []
        monkeypatch.setattr(rfom2.cli, "as_operator", lambda A: counting_operator(A, blocks))
        cfg = ExperimentConfig(problem="graded_hermitian", n=120, small_count=8,
                               small_min=1.0, small_max=1.2, bulk_min=15.0,
                               bulk_max=60.0, function="invsqrt",
                               quad_kind="stieltjes", j=20, k=6, n_quad=30,
                               n_problems=4, eps=eps, engines="v1,v2,v3", seed=2,
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        assert not report.has_failures
        return blocks, [r["k"] for r in report.select(engine="v2")]

    def test_run_on_a_changing_matrix_applies_once_per_problem(self, tmp_path, monkeypatch):
        blocks, ks = self.cli_blocks(tmp_path, monkeypatch, 1e-3)
        assert ks == [0, 6, 6, 6] and blocks == ks[1:]

    def test_run_on_a_fixed_matrix_applies_none(self, tmp_path, monkeypatch):
        blocks, ks = self.cli_blocks(tmp_path, monkeypatch, 0.0)
        assert ks == [0, 6, 6, 6] and blocks == []

    def test_update_applies_none(self):
        rng = np.random.default_rng(4)
        blocks = []
        op = counting_operator(gen_graded_hermitian(100, seed=4), blocks)
        dec = arnoldi(op, rng.standard_normal(100), 15)
        rec = RecycleSubspace.from_basis(op, rng.standard_normal((100, 5)))
        del blocks[:]
        new = harmonic_ritz_update(dec, rec, op, 5)
        assert new.k == 5 and new.op is op and blocks == []

    @pytest.mark.parametrize("sequence", [hermitian_sequence, convdiff_sequence])
    def test_solve_pass_applies_once_per_problem(self, sequence):
        # a new operator per problem, changing matrix or not: the first
        # recycled engine refreshes C once, the others and the update reuse it
        seq, fun, rule_for = sequence()
        blocks = []
        out = solve_pass(seq, fun, rule_for, 20, 8, refresh=False,
                         operator=lambda A: counting_operator(A, blocks))
        assert blocks == [U.shape[1] for (_, U, _) in out[:-1]]


def free_c_error(seed, complex_, hermitian, breakdown, n_in, n_rand, k):
    """||C - A U||_F / (||A||_F ||U||_F) of the update's C on one random
    problem. Relative to ||A U|| alone the error is unbounded: U can lie
    near the null space of A, and the product A @ U then carries the same
    absolute error.

    U carries n_in columns inside K_j, which the deflation drops, and
    n_rand random ones. With breakdown, b lies in an invariant subspace of
    dimension m < j, so Arnoldi stops after m steps.
    """
    rng = np.random.default_rng(seed)
    draw = (lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)) \
        if complex_ else (lambda *s: rng.standard_normal(s))
    n = int(rng.integers(12, 41))
    j = int(rng.integers(3, n // 2))
    A, b = draw(n, n), draw(n)
    if hermitian:
        A = A + A.conj().T
    if breakdown:
        m = int(rng.integers(1, j))
        A[m:, :m] = A[:m, m:] = 0.0
        b[m:] = 0.0
    op = as_operator(A)
    dec = arnoldi(op, b, j)
    assert dec.breakdown == breakdown
    U = np.concatenate([dec.Vj @ draw(dec.j, n_in), draw(n, n_rand)], axis=1)
    rec = RecycleSubspace.from_basis(op, U)
    assert augmented_basis(dec, rec)[0].shape[1] < n_in + n_rand + dec.j
    new = harmonic_ritz_update(dec, rec, op, k)
    if new.k == 0:  # the k selected pairs all tied with the first one left out
        return 0.0
    assert new.op is op
    return np.linalg.norm(new.C - A @ new.U) / (np.linalg.norm(A) * np.linalg.norm(new.U))


# Largest free_c_error over seeds 0-29999, each with all eight
# (complex_, hermitian, breakdown) cases and random n_in, n_rand and k
# (240,000 draws): 2.3e-16, so the bound has a margin of 44.
FREE_C_TOL = 1e-14


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), complex_=st.booleans(), hermitian=st.booleans(),
       breakdown=st.booleans(), n_in=st.integers(1, 3), n_rand=st.integers(0, 3),
       k=st.integers(1, 6))
def test_update_c_is_a_u(seed, complex_, hermitian, breakdown, n_in, n_rand, k):
    assert free_c_error(seed, complex_, hermitian, breakdown, n_in, n_rand, k) <= FREE_C_TOL
