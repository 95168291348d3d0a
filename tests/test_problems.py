"""Generators, Matrix Market I/O, the dense oracle, and the function catalog."""

import cmath
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfom2 import (
    FunctionUndefined,
    ParseError,
    ProblemSequence,
    UnknownFunction,
    UnsupportedFormat,
    arnoldi,
    as_operator,
    function_catalog,
    gen_convection_diffusion_2d,
    gen_graded_hermitian,
    gen_laplacian_2d,
    gen_perturbation_sequence,
    load_matrix_market,
    oracle_funm,
    save_matrix_market,
    subspace_angle,
)
from rfom2.problems import oracle_apply, oracle_eig


def eigh_apply(scalar_f, w, V, b):
    """f(A) b from numpy's eigh pairs (w, V) of A: the reference the
    Hermitian oracle, which never forms V, is checked against."""
    B = b.reshape(len(b), -1)
    return (V @ (scalar_f(w)[:, None] * (V.conj().T @ B))).reshape(b.shape)


class TestMatrixMarket:
    def test_tiny_diag(self, tmp_path):
        p = tmp_path / "d.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 2\n1 1 1.0\n2 2 2.0\n")
        A = load_matrix_market(p)
        assert np.allclose(A.toarray(), np.diag([1.0, 2.0]))

    def test_hermitian_mirroring(self, tmp_path):
        p = tmp_path / "h.mtx"
        p.write_text("%%MatrixMarket matrix coordinate complex hermitian\n"
                     "2 2 2\n1 1 3.0 0.0\n2 1 1.0 2.0\n")
        A = load_matrix_market(p).toarray()
        assert A[0, 1] == np.conj(A[1, 0]) == 1.0 - 2.0j
        assert np.linalg.norm(A - A.conj().T) == 0.0

    def test_symmetric_mirroring(self, tmp_path):
        p = tmp_path / "s.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                     "3 3 2\n2 1 5.0\n3 3 1.0\n")
        A = load_matrix_market(p).toarray()
        assert A[0, 1] == A[1, 0] == 5.0

    def test_round_trip(self, tmp_path):
        # real, complex, integer-valued float and int64 matrices read back
        # equal entry for entry; the int64 one in the real field, which the
        # reader takes, not the integer field, which it refuses
        rng = np.random.default_rng(0)
        A = scipy.sparse.random(15, 15, density=0.2, random_state=rng,
                                dtype=np.float64)
        Z = A + 1j * scipy.sparse.random(15, 15, density=0.2, random_state=rng)
        N = scipy.sparse.random(15, 15, density=0.2, random_state=rng,
                                data_rvs=lambda size: rng.integers(-2**40, 2**40, size) * 1.0)
        p = tmp_path / "r.mtx"
        for M, field in ((A, "real"), (Z, "complex"), (N, "real"),
                         (N.astype(np.int64), "real")):
            save_matrix_market(p, M)
            assert p.read_text().split()[3] == field
            B = load_matrix_market(p)
            assert B.dtype == np.result_type(M.dtype, np.float64)
            assert (M.tocsr() != B).nnz == 0

    def test_writes_the_path_it_is_given(self, tmp_path):
        save_matrix_market(tmp_path / "plain", gen_laplacian_2d(3))
        assert [f.name for f in tmp_path.iterdir()] == ["plain"]
        assert (load_matrix_market(tmp_path / "plain") != gen_laplacian_2d(3)).nnz == 0

    def test_parse_error_line_number(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n1 1 not_a_number\n")
        with pytest.raises(ParseError, match=":3"):
            load_matrix_market(p)

    def test_unsupported_kinds(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n")
        with pytest.raises(UnsupportedFormat):
            load_matrix_market(p)
        p.write_text("%%MatrixMarket matrix coordinate pattern general\n")
        with pytest.raises(UnsupportedFormat):
            load_matrix_market(p)


class TestGenerators:
    def test_laplacian_eigenvalues(self):
        m = 4
        A = gen_laplacian_2d(m).toarray()
        w = np.sort(np.linalg.eigvalsh(A))
        grid = np.arange(1, m + 1) * np.pi / (m + 1)
        expect = np.sort((4 - 2 * np.cos(grid)[:, None]
                          - 2 * np.cos(grid)[None, :]).ravel())
        assert np.allclose(w, expect, atol=1e-12)
        assert w[0] > 0

    def test_laplacian_interior_row_sums(self):
        m = 5
        A = gen_laplacian_2d(m).toarray()
        sums = A.sum(axis=1)
        # nodes whose four neighbours all lie in the grid sum to zero
        for p in range(1, m - 1):
            for q in range(1, m - 1):
                assert abs(sums[p * m + q]) <= 1e-14

    def test_convdiff_zero_convection(self):
        A = gen_convection_diffusion_2d(6, 0.0)
        L = gen_laplacian_2d(6)
        assert (abs(A - L) > 0).nnz == 0

    def test_convdiff_nonsymmetric_right_half_plane(self):
        A = gen_convection_diffusion_2d(10, 1.0).toarray()
        assert np.linalg.norm(A - A.T) > 0
        w = np.linalg.eigvals(A)
        assert np.min(w.real) > 0

    def test_graded_hermitian(self):
        A = gen_graded_hermitian(60, small_count=6, small_range=(0.5, 2.0),
                                 bulk_range=(10.0, 30.0), seed=5).toarray()
        assert np.linalg.norm(A - A.T) <= 1e-12 * np.linalg.norm(A)
        w = np.sort(np.linalg.eigvalsh(A))
        assert np.allclose(np.sort(w[:6]), np.geomspace(0.5, 2.0, 6), atol=1e-10)
        assert np.all(w[6:] >= 10.0 - 1e-10) and np.all(w[6:] <= 30.0 + 1e-10)
        B = gen_graded_hermitian(60, small_count=6, small_range=(0.5, 2.0),
                                 bulk_range=(10.0, 30.0), seed=5).toarray()
        assert np.array_equal(A, B)


class TestPerturbationSequence:
    def base(self):
        return gen_laplacian_2d(6)

    def test_eps_zero_identical(self):
        seq = ProblemSequence(base=self.base(), length=4, eps=0.0, seed=1)
        ops = [A for A, _ in gen_perturbation_sequence(seq)]
        for A in ops[1:]:
            assert (abs(A - ops[0]) > 0).nnz == 0

    def test_determinism(self):
        seq = ProblemSequence(base=self.base(), length=3, eps=1e-3, seed=2)
        run1 = [(A.toarray(), b) for A, b in gen_perturbation_sequence(seq)]
        run2 = [(A.toarray(), b) for A, b in gen_perturbation_sequence(seq)]
        for (A1, b1), (A2, b2) in zip(run1, run2):
            assert np.array_equal(A1, A2) and np.array_equal(b1, b2)

    def test_hermitian_flag(self):
        seq = ProblemSequence(base=self.base(), length=4, eps=1e-2, seed=3,
                              hermitian=True)
        for A, _ in gen_perturbation_sequence(seq):
            D = A.toarray()
            assert np.linalg.norm(D - D.conj().T) <= 1e-12 * np.linalg.norm(D)

    def test_perturbation_scale(self):
        base = self.base()
        seq = ProblemSequence(base=base, length=2, eps=1e-3, seed=4)
        ops = [A for A, _ in gen_perturbation_sequence(seq)]
        diff = (ops[1] - ops[0]).toarray()
        base_fro = np.linalg.norm(base.toarray(), "fro")
        assert abs(np.linalg.norm(diff, "fro") - 1e-3 * base_fro) <= 1e-12 * base_fro

    def test_fixed_rhs(self):
        seq = ProblemSequence(base=self.base(), length=3, eps=0.0, seed=5,
                              rhs_policy="fixed")
        rhs = [b for _, b in gen_perturbation_sequence(seq)]
        assert np.array_equal(rhs[0], rhs[1]) and np.array_equal(rhs[1], rhs[2])



def csr_sequence(seq):
    """The sequence as a CSR loop on every base: the reference that the
    dense storage path must reproduce to the bit."""
    rng = np.random.default_rng(seq.seed)
    A = scipy.sparse.csr_matrix(seq.base)
    n = A.shape[0]
    base_fro = scipy.linalg.norm(A.data)
    pattern = A.copy()
    pattern.data = np.ones_like(pattern.data)
    is_real = bool(np.all(A.data.imag == 0.0))

    def random_rhs():
        if is_real:
            return rng.standard_normal(n)
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)

    fixed_b = random_rhs()
    current = A
    for i in range(seq.length):
        if i > 0 and seq.eps != 0.0:
            E = pattern.copy()
            if is_real:
                E.data = rng.standard_normal(E.data.size)
            else:
                E.data = (rng.standard_normal(E.data.size)
                          + 1j * rng.standard_normal(E.data.size))
            E = E.tocsr()
            if seq.hermitian:
                E = ((E + E.conj().T) * 0.5).tocsr()
            fro = scipy.linalg.norm(E.data)
            if fro > 0:
                E = E * (base_fro / fro)
            current = (current + seq.eps * E).tocsr()
        b = random_rhs() if seq.rhs_policy == "random_each" else fixed_b
        yield current, b


def graded_base(kind):
    """A fully stored graded base: real, real-valued complex128, or complex
    Hermitian (imaginary part +1 above the diagonal, -1 below)."""
    A = gen_graded_hermitian(60, small_count=6, small_range=(0.5, 2.0),
                             bulk_range=(10.0, 30.0), seed=5)
    if kind == "real":
        return A
    A = A.astype(np.complex128)
    if kind == "complex":
        ones = np.ones((60, 60))
        A = A + 1j * scipy.sparse.csr_matrix(np.triu(ones, 1) - np.tril(ones, -1))
    return A.tocsr()


class TestStorageRule:
    """A base whose CSR form stores every entry runs dense."""

    @pytest.mark.parametrize("kind", ["real", "astype_complex", "complex"])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("rhs_policy", ["random_each", "fixed"])
    def test_fully_stored_base_runs_dense(self, kind, eps, hermitian, rhs_policy):
        base = graded_base(kind)
        assert base.nnz == 60 * 60
        seq = ProblemSequence(base=base, length=4, eps=eps, rhs_policy=rhs_policy,
                              seed=9, hermitian=hermitian)
        got = list(gen_perturbation_sequence(seq))
        want = list(csr_sequence(seq))
        assert len(got) == len(want) == 4
        for (A, b), (R, rb) in zip(got, want):
            assert type(A) is np.ndarray and A.dtype == R.dtype
            assert np.array_equal(A, R.toarray())
            assert b.dtype == rb.dtype and np.array_equal(b, rb)
        if eps == 0.0:
            assert all(A is got[0][0] for A, _ in got)
        else:
            assert not np.array_equal(got[0][0], got[1][0])

    @pytest.mark.parametrize("kind", ["graded_less_one_entry", "stencil"])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_other_bases_stay_csr(self, kind, eps, hermitian):
        if kind == "stencil":
            base = gen_convection_diffusion_2d(6, 1.0)
        else:
            base = graded_base("real").tolil()
            base[3, 7] = 0.0
            base = base.tocsr()
            base.eliminate_zeros()
            assert base.nnz == 60 * 60 - 1
        seq = ProblemSequence(base=base, length=3, eps=eps, seed=9, hermitian=hermitian)
        got = list(gen_perturbation_sequence(seq))
        for (A, b), (R, rb) in zip(got, csr_sequence(seq)):
            # entry for entry the reference loop's CSR matrix
            assert scipy.sparse.issparse(A) and A.format == "csr"
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(A, part), getattr(R, part))
            assert np.array_equal(b, rb)
        if eps == 0.0:
            assert all(A is got[0][0] for A, _ in got)


def dense(A):
    return A.toarray() if scipy.sparse.issparse(A) else A


class TestSequenceScale:
    """A base scaled by a power of two scales every matrix of the sequence
    by it and keeps the right-hand sides; past 1e154 sqrt(x.x) norms break
    this, as 2^530 overflows them and 2^-530 underflows them."""

    @pytest.mark.parametrize("kind", ["graded", "graded_complex", "stencil",
                                      "stencil_complex"])
    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("scale", [2.0**530, 2.0**-530])
    def test_power_of_two_scale(self, kind, hermitian, scale):
        if kind.startswith("graded"):
            base = graded_base("complex" if kind.endswith("complex") else "real")
        else:
            base = gen_convection_diffusion_2d(6, 1.0)
            if kind.endswith("complex"):
                base = base + 1j * scipy.sparse.diags(np.linspace(0.0, 1.0, 36))
            base = base.tocsr()
        seq = ProblemSequence(base=base, length=3, eps=1e-3, seed=9, hermitian=hermitian)
        scaled = dataclasses.replace(seq, base=base * scale)
        pairs = list(zip(gen_perturbation_sequence(seq),
                         gen_perturbation_sequence(scaled), strict=True))
        assert len(pairs) == 3
        for (A, b), (S, c) in pairs:
            assert type(S) is type(A) and np.array_equal(b, c)
            A, S = dense(A), dense(S)
            assert np.all(np.isfinite(S))
            # dividing by a power of two is exact on these entries
            assert np.linalg.norm(S / scale - A) <= 1e-15 * np.linalg.norm(A)


def traced_peak(fun, *args):
    """The peak of tracemalloc's traced memory during fun(*args), above what
    was traced when it started, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fun(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestGradedStorage:
    """One copy of a graded matrix: the generator's CSR is built on its
    dense array, and the sequence runs on that array."""

    @pytest.mark.parametrize("n", [2, 60, 300])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_csr_is_csr_matrix_of_the_array(self, n, seed):
        A = gen_graded_hermitian(n, small_count=1 if n == 2 else 20, seed=seed)
        R = scipy.sparse.csr_matrix(A.toarray())
        assert A.has_canonical_format and A.nnz == n * n
        for part in ("data", "indices", "indptr"):
            got, want = getattr(A, part), getattr(R, part)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_generator_peak(self):
        # Q, Q diag(lam) and their product: 3.2 n^2 doubles; converting
        # the array to CSR reads 5.0, and keeping R past the product 4.0
        n = 300
        assert traced_peak(gen_graded_hermitian, n) <= 4 * n * n * 8

    def test_oracle_peak(self):
        # the copy ?sytrd overwrites, the reflector block and Z: 3.0 n^2
        n = 300
        A, _ = next(gen_perturbation_sequence(ProblemSequence(
            base=gen_graded_hermitian(n, seed=1), length=1)))
        assert traced_peak(oracle_eig, A, True) <= 3.5 * n * n * 8

    @pytest.mark.parametrize("kind", ["real", "astype_complex", "complex"])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_first_matrix_is_the_base_storage(self, kind, eps):
        base = graded_base(kind)
        kept = base.data.copy()
        base.data.flags.writeable = False  # any stage writing into it raises
        seq = ProblemSequence(base=base, length=3, eps=eps, seed=9, hermitian=True)
        got = list(gen_perturbation_sequence(seq))
        A, b = got[0]
        assert np.shares_memory(A, base.data)
        if eps == 0.0:
            assert all(M is A for M, _ in got)
        else:
            assert not any(np.shares_memory(M, base.data) for M, _ in got[1:])
        arnoldi(as_operator(A), b, 10)
        oracle_apply(function_catalog("exp"), oracle_eig(A, hermitian=True), b,
                     hermitian=True)
        assert np.array_equal(base.data, kept)


class TestOracle:
    def test_inverse_diag(self):
        fun = function_catalog("inverse")
        x = oracle_funm(np.diag([2.0, 4.0]), fun, np.array([1.0, 1.0]),
                        hermitian=True)
        assert np.allclose(x, [0.5, 0.25], atol=1e-14)

    def test_invsqrt_scaled_identity(self):
        fun = function_catalog("invsqrt")
        b = np.array([1.0, -3.0, 2.0])
        x = oracle_funm(4.0 * np.eye(3), fun, b, hermitian=True)
        assert np.allclose(x, b / 2.0, atol=1e-13)

    def test_exp_vs_taylor_series(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((50, 50))
        A = (M + M.T) / 10
        b = rng.standard_normal(50)
        x = oracle_funm(A, function_catalog("exp"), b, hermitian=True)
        # independent oracle: 50-term Taylor series applied to b
        term = b.astype(complex)
        series = term.copy()
        for p in range(1, 51):
            term = A @ term / p
            series += term
        assert np.linalg.norm(x - series) <= 1e-10 * np.linalg.norm(series)

    def test_inverse_residual(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((30, 30))
        A = M @ M.T + 30 * np.eye(30)
        b = rng.standard_normal(30)
        x = oracle_funm(A, function_catalog("inverse"), b, hermitian=True)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_negative_eigenvalue_invsqrt(self):
        with pytest.raises(FunctionUndefined):
            oracle_funm(np.diag([-1.0, 2.0]), function_catalog("invsqrt"),
                        np.ones(2), hermitian=True)

    # Against the eigh reference below, over 3,000 draws of this strategy:
    # eigenvalues bit for bit, f(A)b within 2.6e-14 (exp) and 1.6e-15
    # (inverse), and the smallest-|lambda| spans within 2.0e-15 rad
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), cplx=st.booleans(),
           ncols=st.integers(0, 3), k=st.integers(1, 40))
    @example(seed=0, n=1, cplx=False, ncols=0, k=1)
    @example(seed=1, n=1, cplx=True, ncols=2, k=1)
    @example(seed=2, n=2, cplx=False, ncols=2, k=1)
    @example(seed=3, n=2, cplx=True, ncols=0, k=1)
    def test_hermitian_path_against_eigh(self, seed, n, cplx, ncols, k):
        # |lambda| at least 0.5 apart, signs mixed: every smallest-|lambda|
        # span is well separated and inverse is defined; ncols = 0 is a vector b
        rng = np.random.default_rng(seed)
        mags = 0.5 + np.cumsum(rng.uniform(0.5, 1.5, n))
        lam = rng.permutation(mags * rng.choice([-1.0, 1.0], n))
        M = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
        Q = np.linalg.qr(M)[0]
        A = (Q * lam) @ Q.conj().T
        A = 0.5 * (A + A.conj().T)
        b = rng.standard_normal(n) if ncols == 0 else rng.standard_normal((n, ncols))
        k = min(k, n)

        eig = oracle_eig(A, hermitian=True)
        w, V = np.linalg.eigh(A)
        assert np.abs(eig.w - w).max() <= 1e-15 * np.abs(w).max()
        idx = np.argsort(np.abs(w), kind="stable")[:k]
        assert subspace_angle(eig.smallest(k), V[:, idx]) <= 1e-13
        for name in ("exp", "inverse"):
            fun = function_catalog(name)
            ref = eigh_apply(fun.scalar_f, w, V, b)
            x = oracle_apply(fun, eig, b, hermitian=True)
            assert x.shape == b.shape
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref), name
            assert x.dtype == (np.complex128 if cplx else np.float64)
        assert eig.Z.dtype == np.float64
        assert eig.reflectors.dtype == eig.tau.dtype == (np.complex128 if cplx else np.float64)
        bad = A.astype(complex)
        bad[0, -1] += 1e-6j * np.abs(lam).max()
        with pytest.raises(ValueError):
            oracle_eig(bad, hermitian=True)

    def test_general_path(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((20, 20)) + 20 * np.eye(20)
        b = rng.standard_normal(20)
        x = oracle_funm(A, function_catalog("inverse"), b, hermitian=False)
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


class TestFunctionCatalog:
    def test_scalar_values(self):
        assert abs(function_catalog("invsqrt").scalar_f(9.0) - 1.0 / 3.0) <= 1e-14
        assert abs(function_catalog("sqrt").scalar_f(9.0) - 3.0) <= 1e-14
        assert abs(function_catalog("inverse").scalar_f(4.0) - 0.25) <= 1e-15

    def test_log_dense(self):
        fun = function_catalog("log")
        F = fun.dense_f(np.diag([1.0, np.e]))
        assert np.allclose(F, np.diag([0.0, 1.0]), atol=1e-12)

    def test_sign(self):
        fun = function_catalog("sign_via_invsqrt")
        F = fun.dense_f(np.diag([-2.0, 3.0]))
        assert np.allclose(F, np.diag([-1.0, 1.0]), atol=1e-12)
        assert abs(fun.scalar_f(-5.0) + 1.0) <= 1e-12

    def test_unknown(self):
        with pytest.raises(UnknownFunction):
            function_catalog("cosh")

    def test_diag_consistency(self):
        lam = np.array([1.0, 2.5, 7.0])
        for name in ("inverse", "invsqrt", "sqrt", "log", "exp"):
            fun = function_catalog(name)
            F = fun.dense_f(np.diag(lam))
            expect = np.diag([fun.scalar_f(x) for x in lam])
            assert np.linalg.norm(F - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_dense_vs_eigendecomposition(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((10, 10)) + 10 * np.eye(10)
        w, P = np.linalg.eig(A)
        fun = function_catalog("exp")
        expect = (P * np.exp(w)) @ np.linalg.inv(P)
        F = fun.dense_f(A)
        assert np.linalg.norm(F - expect) <= 1e-8 * np.linalg.norm(expect)

    def test_branch_cut_raises(self):
        with pytest.raises(FunctionUndefined):
            function_catalog("log").scalar_f(-1.0)
        with pytest.raises(FunctionUndefined):
            function_catalog("inverse").scalar_f(0.0)


# Per-element references for the array-valued catalog.
CMATH = {
    "inverse": lambda z: 1 / z,
    "invsqrt": lambda z: 1 / cmath.sqrt(z),
    "sqrt": cmath.sqrt,
    "log": cmath.log,
    "exp": cmath.exp,
    "sign_via_invsqrt": lambda z: z / cmath.sqrt(z * z),
}
# Bound on |scalar_f(z) - cmath value| in units of eps |cmath value|. Over
# 1.2e6 points per function (magnitudes 1e-150 to 1e150, real and complex,
# within 1e-3 to 1e-15 of z = 1, and just off the cut) the largest was 2.0,
# on sign_via_invsqrt; log read 1.96, the others at most 1.
CATALOG_ULPS = 4


def undefined(name, z):
    """Whether the catalog's f (other than sign_via_invsqrt) is undefined
    at the one point z."""
    origin = abs(z) < 1e-300
    cut = z.real < 0 and abs(z.imag) < 1e-14 * max(abs(z), 1.0)
    return {"inverse": origin, "invsqrt": origin or cut, "sqrt": cut,
            "log": origin or cut, "exp": False}[name]


@st.composite
def catalog_points(draw, name):
    """An array of points: random ones, bounded so that no value
    overflows, plus some placed at the origin, on the cut, on the
    imaginary axis (where z^2 is on the cut) and just inside and outside
    the cut's 1e-14 edge; real-valued or complex."""
    bound = 700.0 if name == "exp" else 1e150
    part = st.floats(-bound, bound)
    z = draw(st.lists(st.builds(complex, part, part), min_size=1, max_size=6))
    x = draw(st.floats(1e-3, 1e3))
    edge = 1e-14 * max(x, 1.0)
    placed = [0.0, -x, 1j * x, complex(-x, (1 - 1e-9) * edge),
              complex(-x, -(1 + 1e-9) * edge)]
    for point in draw(st.lists(st.sampled_from(placed), max_size=3)):
        z.insert(draw(st.integers(0, len(z))), point)
    z = np.array(z)
    return z.real.copy() if draw(st.booleans()) else z


class TestArrayCatalog:
    """scalar_f on arrays against cmath, point by point."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(CMATH)))
    def test_matches_cmath(self, data, name):
        z = data.draw(catalog_points(name))
        fun = function_catalog(name)
        # sign_via_invsqrt is undefined where invsqrt is at z^2, rounded as
        # the array arithmetic rounds it: at |z^2| < 1e-14 next to the
        # imaginary axis, the sign of a rounding error in Re z^2 decides
        domain, at = ("invsqrt", z ** 2) if name == "sign_via_invsqrt" else (name, z)
        if any(undefined(domain, complex(p)) for p in at):
            with pytest.raises(FunctionUndefined):
                fun.scalar_f(z)
            return
        got = fun.scalar_f(z)
        assert got.shape == z.shape and np.isrealobj(got) == np.isrealobj(z)
        want = np.array([CMATH[name](complex(p)) for p in z])
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(got - want) <= CATALOG_ULPS * eps * np.abs(want))

    @pytest.mark.parametrize("name", ["invsqrt", "sqrt", "log"])
    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 2.0, 1e3])
    def test_cut_edge(self, name, x):
        # |Im z| against 1e-14 max(|z|, 1), resolved to 1e-9 relative
        edge = 1e-14 * max(x, 1.0)
        inside = complex(-x, (1 - 1e-9) * edge)
        outside = complex(-x, -(1 + 1e-9) * edge)
        fun = function_catalog(name)
        assert np.isfinite(fun.scalar_f(np.array([2.0, outside]))).all()
        with pytest.raises(FunctionUndefined):
            fun.scalar_f(np.array([2.0, outside, inside]))
