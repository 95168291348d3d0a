"""Test problem generators, Matrix Market ingestion, the dense oracle
and the function catalog."""

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse

from .core import (
    FunctionUndefined,
    IllConditionedEigenbasis,
    NoConvergence,
    ParseError,
    SingularMatrix,
    UnknownFunction,
    UnsupportedFormat,
    eig_dense,
    is_hermitian,
    lu_solve,
    norm,
)
from .engines import FunctionSpec, _eigen_apply

# rfom2 run computes no oracle above ORACLE_MAX_N, and oracle_eig takes
# no non-Hermitian matrix above ORACLE_GENERAL_MAX_N
ORACLE_MAX_N = 3200
ORACLE_GENERAL_MAX_N = 1500


# ---------------------------------------------------------------------------
def read_lines(path):
    """A text file's lines; ParseError naming the file if unreadable or not text."""
    try:
        with open(path) as fh:
            return fh.readlines()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file") from exc


# Matrix Market exchange format (coordinate; real/complex;
# general/symmetric/hermitian)

def load_matrix_market(path):
    """Read a coordinate-format Matrix Market file into CSR form.

    Symmetric/hermitian files store one triangle; the loader mirrors the
    (conjugated) entries. A file that cannot be read or is not text, a bad
    header (UnsupportedFormat for array, pattern and integer files) and a
    malformed or non-finite entry raise ParseError naming file and line.
    """
    lines = read_lines(path)
    if not lines:
        raise ParseError(f"{path}:1: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise ParseError(f"{path}:1: malformed MatrixMarket header")
    fmt, field, symmetry = (h.lower() for h in header[2:5])
    if fmt != "coordinate":
        raise UnsupportedFormat(f"{path}:1: unsupported format {fmt!r} (only coordinate)")
    if field not in ("real", "complex"):
        raise UnsupportedFormat(f"{path}:1: unsupported field {field!r} (only real/complex)")
    if symmetry not in ("general", "symmetric", "hermitian"):
        raise UnsupportedFormat(f"{path}:1: unsupported symmetry {symmetry!r}")

    lineno = 1
    rows = cols = nnz = None
    i_idx, j_idx, vals = [], [], []
    want = 3 if field == "real" else 4
    for raw in lines[1:]:
        lineno += 1
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if rows is None:
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 'rows cols nnz'")
            try:
                rows, cols, nnz = (int(p) for p in parts)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad size line") from exc
            continue
        if len(parts) != want:
            raise ParseError(f"{path}:{lineno}: expected {want} fields per entry")
        try:
            i = int(parts[0])
            j = int(parts[1])
            if field == "real":
                v = float(parts[2])
            else:
                v = complex(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad entry") from exc
        if not cmath.isfinite(v):
            raise ParseError(f"{path}:{lineno}: entry is not finite")
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParseError(f"{path}:{lineno}: index out of range")
        i_idx.append(i - 1)
        j_idx.append(j - 1)
        vals.append(v)
    if rows is None:
        raise ParseError(f"{path}:{lineno}: missing size line")
    if len(vals) != nnz:
        raise ParseError(f"{path}:{lineno}: expected {nnz} entries, got {len(vals)}")

    i_idx = np.asarray(i_idx, dtype=np.int64)
    j_idx = np.asarray(j_idx, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64 if field == "real" else np.complex128)
    if symmetry in ("symmetric", "hermitian"):
        off = i_idx != j_idx
        mirror = vals[off].conj() if symmetry == "hermitian" else vals[off]
        i_idx, j_idx = (np.concatenate([i_idx, j_idx[off]]),
                        np.concatenate([j_idx, i_idx[off]]))
        vals = np.concatenate([vals, mirror])
    A = scipy.sparse.coo_matrix((vals, (i_idx, j_idx)), shape=(rows, cols))
    return A.tocsr()


def save_matrix_market(path, A):
    """Write a sparse matrix to path as coordinate general, full precision
    (`scipy.io.mmwrite`): a complex matrix in the complex field, any other
    in the real one, which `load_matrix_market` reads back entry for entry."""
    A = scipy.sparse.coo_matrix(A)
    A = A.astype(np.result_type(A.dtype, np.float64), copy=False)
    with open(path, "wb") as fh:  # a path, not a name: mmwrite would append .mtx
        scipy.io.mmwrite(fh, A, symmetry="general", precision=17)


# ---------------------------------------------------------------------------
# Finite difference generators

def gen_laplacian_2d(m):
    """Five-point discrete Laplacian on an m x m interior grid (Dirichlet)."""
    T = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    I = scipy.sparse.identity(m)
    return (scipy.sparse.kron(I, T) + scipy.sparse.kron(T, I)).tocsr()


def gen_convection_diffusion_2d(m, convection=0.0):
    """Laplacian plus a central-difference convection term in one coordinate."""
    A = gen_laplacian_2d(m)
    if convection != 0.0:
        Cd = scipy.sparse.diags([-0.5, 0.5], [-1, 1], shape=(m, m))
        I = scipy.sparse.identity(m)
        A = (A + convection * scipy.sparse.kron(I, Cd)).tocsr()
    return A


def gen_graded_hermitian(n, small_count=20, small_range=(1.5, 5.0),
                         bulk_range=(20.0, 100.0), seed=0):
    """Hermitian matrix with a graded spectrum: a few small outlying
    eigenvalues below a well-separated bulk.

    Built as Q diag(lam) Q^T with a random orthogonal Q, the Q factor of
    a Gaussian matrix (R is never kept); the small cluster is
    logarithmically spaced. Returned in CSR form like every other input:
    a CSR built on the symmetrized array's own buffer, which stores all
    n^2 entries, an exact zero included, so `gen_perturbation_sequence`
    runs the matrix dense on that buffer. On a matrix with no zero entry
    it equals `csr_matrix` of the array entry for entry. The traced peak
    is about 3 n^2 doubles: Q, Q diag(lam) and their product.
    """
    rng = np.random.default_rng(seed)
    small = np.geomspace(small_range[0], small_range[1], small_count)
    bulk = np.sort(rng.uniform(bulk_range[0], bulk_range[1], n - small_count))
    lam = np.concatenate([small, bulk])
    Q = scipy.linalg.qr(rng.standard_normal((n, n)), mode="economic",
                        overwrite_a=True, check_finite=False)[0]
    A = (Q * lam) @ Q.T
    del Q
    A = 0.5 * (A + A.T)
    # the index dtype csr_matrix picks for n^2 stored entries
    index = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    return scipy.sparse.csr_matrix(
        (A.ravel(), np.tile(np.arange(n, dtype=index), n),
         np.arange(0, n * n + 1, n, dtype=index)), shape=(n, n))


# ---------------------------------------------------------------------------
# Problem sequences

@dataclass
class ProblemSequence:
    base: object            # A^(1): a sparse matrix or anything CSR takes
    length: int
    eps: float = 0.0
    rhs_policy: str = "random_each"
    seed: int = 0
    hermitian: bool = False


def gen_perturbation_sequence(seq):
    """Yield (matrix, rhs) pairs with on-pattern random perturbations.

    Each step adds eps * E where E lives on the sparsity pattern of the
    base matrix and is Frobenius-normalized to ||A^(1)||_F, both norms
    `core.norm`'s, so a base with entries past 1e154 gives finite
    matrices; with the hermitian flag E is symmetrized first. All
    randomness comes from one seeded generator so identical parameters
    reproduce the sequence.
    The matrices keep the base matrix's dtype, and a real-valued base
    gets real right-hand sides and perturbations. With eps = 0 every
    problem gets the same matrix object.

    Storage: when the base's CSR form stores every entry, the sequence
    runs on its dense array and yields ndarrays, since CSR indexing buys
    nothing there; any other base yields CSR matrices. Canonical CSR data
    is in row-major order, so both forms draw E from the generator in the
    same order, and the dense matrices equal the CSR ones to the bit.
    The first dense matrix is that row-major data itself, reshaped, not a
    copy: it shares the base's storage (a graded base's is the
    generator's array), so nothing may write into it.
    """
    if seq.rhs_policy not in ("random_each", "fixed"):
        raise ValueError(f"unknown rhs policy {seq.rhs_policy!r}")
    rng = np.random.default_rng(seq.seed)
    A = scipy.sparse.csr_matrix(seq.base)
    A.sum_duplicates()  # canonical: sorted indices, no duplicate entries
    n = A.shape[0]
    base_fro = norm(A)
    is_real = np.isrealobj(A.data) or not A.data.imag.any()
    dense = A.nnz == A.shape[0] * A.shape[1]
    current = A.data.reshape(A.shape) if dense else A

    def random_values(shape):
        if is_real:
            return rng.standard_normal(shape)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def random_rhs():
        b = random_values(n)
        return b if is_real else b / np.sqrt(2)

    fixed_b = random_rhs()
    for i in range(seq.length):
        if i > 0 and seq.eps != 0.0:
            if dense:
                E = random_values(A.shape)
            else:
                E = A.copy()
                E.data = random_values(A.nnz)
            if seq.hermitian:
                E = (E + E.conj().T) * 0.5
            fro = norm(E)
            if fro > 0:
                E = E * (base_fro / fro)
            current = current + seq.eps * E
        b = random_rhs() if seq.rhs_policy == "random_each" else fixed_b
        yield current, b


# ---------------------------------------------------------------------------
# Dense oracle and function catalog

@dataclass
class HermitianEig:
    """The Hermitian oracle's eigendecomposition A = Q Z diag(w) Z^T Q^*.

    T = Q^* A Q is real symmetric tridiagonal, with T = Z diag(w) Z^T: w
    ascends and Z is real orthogonal. Q stays as LAPACK's Householder
    reflectors (`?sytrd`/`?hetrd`, lower): `reflectors` holds them, in one
    Fortran-order (n-1) x (n-1) block that `?ormqr`/`?unmqr` read in place
    (a block of A's dtype meets a B of its own), and `tau` their scalars. Q Z, A's eigenvector matrix, is never
    formed; that product is about 2n^3 of `?syevd`'s ~4.7n^3 flops. A real
    A keeps real factors throughout. Building it takes a transient of
    about 3 n^2 entries beside A (`_hermitian_eig`).
    """

    w: np.ndarray
    Z: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray

    def q_apply(self, B, adjoint=False):
        """Q B, or Q^* B with adjoint, for a vector or a block of columns B."""
        B = np.asarray(B)
        X = np.array(B.reshape(B.shape[0], -1), order="F",
                     dtype=np.result_type(B, self.reflectors))
        if self.tau.size:  # n = 1 has no reflector: Q = I
            ormqr, = scipy.linalg.get_lapack_funcs(("ormqr",), (self.reflectors, X))
            trans = ("C" if np.iscomplexobj(X) else "T") if adjoint else "N"
            # the blocked ?ormqr builds a triangular factor per panel of
            # reflectors, which costs more than it saves below 8 columns
            # (n = 900: 0.3 against 0.8 ms on a vector, 1.6 against 1.1 ms
            # on 12 columns); 64 (m + 65) is its optimal workspace or more
            m = X.shape[1]
            lwork = m if m < 8 else 64 * (m + 65)
            X[1:] = ormqr("L", trans, self.reflectors, self.tau, X[1:], lwork)[0]
        return X.reshape(B.shape)

    def smallest(self, k):
        """A's eigenvectors of the k smallest |lambda|, a stable sort of |w|
        breaking ties towards the more negative eigenvalue."""
        return self.q_apply(self.Z[:, np.argsort(np.abs(self.w), kind="stable")[:k]])


def _hermitian_eig(A):
    """A's `HermitianEig`; ValueError unless A is Hermitian to 1e-10.

    Beside A the transient is about 3 n^2 entries: the copy that
    `?sytrd`/`?hetrd` overwrite and the reflector block cut from it, then,
    with the copy dropped, the block, Z and `dstevd`'s n^2 workspace.
    """
    A = np.asarray_chkfinite(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not is_hermitian(A, 1e-10):
        raise ValueError("matrix is not Hermitian to tolerance")
    n = A.shape[0]
    a = np.array(A, dtype=np.result_type(A, np.float64), order="F")
    name = "hetrd" if np.iscomplexobj(a) else "sytrd"
    trd, trd_lwork = scipy.linalg.get_lapack_funcs((name, name + "_lwork"), (a,))
    lwork = int(trd_lwork(n, lower=1)[0].real)
    a, d, e, tau, _ = trd(a, lower=1, lwork=lwork, overwrite_a=1)
    # cut the reflector block and free the full factor before dstevd
    # allocates Z and its workspace
    reflectors = np.asfortranarray(a[1:, :-1])
    del a
    # ?sytrd/?hetrd leave T real; dstevd is the divide and conquer that
    # ?syevd runs on it, and its wrapper takes e of length max(n - 1, 1)
    w, Z, info = scipy.linalg.lapack.dstevd(d, e if n > 1 else np.zeros(1))
    if info:
        raise NoConvergence(f"tridiagonal eigensolver did not converge (info {info})")
    return HermitianEig(w, Z, reflectors, tau)


def oracle_eig(A, hermitian=False):
    """Dense eigendecomposition of A for the reference oracle.

    The Hermitian path takes A, Hermitian to 1e-10 relative (else
    ValueError), to a `HermitianEig`; the general path returns (w, V)
    from `eig_dense`, guarded by a size cap and a cut on cond(V).
    """
    A = A.toarray() if scipy.sparse.issparse(A) else np.asarray(A)
    if hermitian:
        return _hermitian_eig(A)
    if A.shape[0] > ORACLE_GENERAL_MAX_N:
        raise ValueError(f"general oracle capped at n = {ORACLE_GENERAL_MAX_N}")
    w, V = eig_dense(A)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond >= 1e8:
        raise IllConditionedEigenbasis(f"eigenvector condition {cond:.2e}")
    return w, V


def oracle_apply(fun, eig, b, hermitian=False):
    """f(A) b from A's oracle_eig decomposition, b a vector or a block of
    columns: on the Hermitian path Q f(T) Q^* b, f(T) through the same
    eigen-apply as the general path's V f(diag(w)) V^{-1} b.

    Eigenvalues at a singularity of f raise FunctionUndefined.
    """
    if hermitian:
        y = _eigen_apply(fun.scalar_f, eig.w, eig.Z, eig.q_apply(b, adjoint=True),
                         unitary=True)
        return eig.q_apply(y)
    return _eigen_apply(fun.scalar_f, *eig, b, unitary=False)


def oracle_funm(A, fun, b, hermitian=False):
    """Reference f(A) b through a dense eigendecomposition."""
    return oracle_apply(fun, oracle_eig(A, hermitian), b, hermitian)


def _dense_inverse(M):
    M = np.asarray(M)
    try:
        return lu_solve(M, np.eye(M.shape[0]))
    except SingularMatrix as exc:
        raise FunctionUndefined("matrix has an eigenvalue at 0") from exc


# f on scalars and arrays, whether f is undefined at the origin
# (|z| < 1e-300) and on the cut (-inf, 0) of the principal branch
# (Re z < 0 and |Im z| < 1e-14 max(|z|, 1)), and its dense_f: None is the
# eigen route on scalar_f (`engines._EigenRoute`)
_CATALOG = {
    "inverse": (lambda z: 1.0 / z, True, False, _dense_inverse),
    "invsqrt": (lambda z: 1.0 / np.sqrt(z), True, True, None),
    "sqrt": (np.sqrt, False, True, None),
    "log": (np.log, True, True, None),
    "exp": (np.exp, False, False, None),
}


def function_catalog(name):
    """FunctionSpec for one of: inverse, invsqrt, sqrt, log, exp,
    sign_via_invsqrt. scalar_f raises FunctionUndefined when some point is
    where f is undefined."""
    if name == "sign_via_invsqrt":
        invsqrt = function_catalog("invsqrt")
        return FunctionSpec(name=name, scalar_f=lambda z: z * invsqrt.scalar_f(z ** 2))
    if name not in _CATALOG:
        raise UnknownFunction(name)
    f, origin, cut, dense_f = _CATALOG[name]

    def scalar_f(z):
        z = np.asarray(z)
        r = np.abs(z)
        bad = (origin & (r < 1e-300)) \
            | (cut & (z.real < 0) & (np.abs(z.imag) < 1e-14 * np.maximum(r, 1.0)))
        if np.any(bad):
            raise FunctionUndefined(f"{name} undefined at {z[bad].flat[0]}")
        return f(z)

    return FunctionSpec(name=name, scalar_f=scalar_f, dense_f=dense_f,
                        singularity=None if name == "exp" else 0.0 + 0.0j)
