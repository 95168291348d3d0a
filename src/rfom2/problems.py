"""Test problem generators, Matrix Market ingestion, the dense oracle
and the function catalog."""

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .core import (
    FunctionUndefined,
    IllConditionedEigenbasis,
    ParseError,
    SingularMatrix,
    UnknownFunction,
    UnsupportedFormat,
    eig_dense,
    is_hermitian,
    lu_solve,
)
from .engines import FunctionSpec

# rfom2 run computes no oracle above ORACLE_MAX_N, and oracle_eig takes
# no non-Hermitian matrix above ORACLE_GENERAL_MAX_N
ORACLE_MAX_N = 3200
ORACLE_GENERAL_MAX_N = 1500


# ---------------------------------------------------------------------------
# Matrix Market exchange format (coordinate; real/complex;
# general/symmetric/hermitian)

def load_matrix_market(path):
    """Read a coordinate-format Matrix Market file into CSR form.

    Symmetric/hermitian files store one triangle; the loader mirrors the
    (conjugated) entries. A file that cannot be read or is not text, a bad
    header (UnsupportedFormat for array, pattern and integer files) and a
    malformed or non-finite entry raise ParseError naming file and line.
    """
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file") from exc
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
    """Write a sparse matrix as coordinate general, full precision: a real
    matrix in the real field, a complex one in the complex field."""
    A = scipy.sparse.coo_matrix(A)
    field = "complex" if np.iscomplexobj(A.data) else "real"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        fh.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for i, j, v in zip(A.row, A.col, A.data):
            value = f"{v.real:.17g} {v.imag:.17g}" if field == "complex" else f"{v:.17g}"
            fh.write(f"{i + 1} {j + 1} {value}\n")


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

    Built as Q diag(lam) Q^T with a random orthogonal Q; the small
    cluster is logarithmically spaced. Returned in CSR form like every
    other input; no entry is zero, so the CSR stores all n^2 of them and
    `gen_perturbation_sequence` runs the matrix dense.
    """
    rng = np.random.default_rng(seed)
    small = np.geomspace(small_range[0], small_range[1], small_count)
    bulk = np.sort(rng.uniform(bulk_range[0], bulk_range[1], n - small_count))
    lam = np.concatenate([small, bulk])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    return scipy.sparse.csr_matrix(A)


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
    base matrix and is Frobenius-normalized to ||A^(1)||_F; with the
    hermitian flag E is symmetrized first. All randomness comes from one
    seeded generator so identical parameters reproduce the sequence.
    The matrices keep the base matrix's dtype, and a real-valued base
    gets real right-hand sides and perturbations. With eps = 0 every
    problem gets the same matrix object.

    Storage: when the base's CSR form stores every entry, the sequence
    runs on its dense array and yields ndarrays, since CSR indexing buys
    nothing there; any other base yields CSR matrices. Canonical CSR data
    is in row-major order, so both forms draw E from the generator in the
    same order, and the dense matrices equal the CSR ones to the bit.
    """
    if seq.rhs_policy not in ("random_each", "fixed"):
        raise ValueError(f"unknown rhs policy {seq.rhs_policy!r}")
    rng = np.random.default_rng(seq.seed)
    A = scipy.sparse.csr_matrix(seq.base)
    A.sum_duplicates()  # canonical: sorted indices, no duplicate entries
    n = A.shape[0]
    base_fro = scipy.sparse.linalg.norm(A, "fro")
    is_real = bool(np.all(A.data.imag == 0.0))
    dense = A.nnz == A.shape[0] * A.shape[1]
    current = A.toarray() if dense else A
    norm = np.linalg.norm if dense else scipy.sparse.linalg.norm

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
            fro = norm(E, "fro")
            if fro > 0:
                E = E * (base_fro / fro)
            current = current + seq.eps * E
        b = random_rhs() if seq.rhs_policy == "random_each" else fixed_b
        yield current, b


# ---------------------------------------------------------------------------
# Dense oracle and function catalog

def oracle_eig(A, hermitian=False):
    """Dense eigendecomposition (w, V) of A for the reference oracle.

    The Hermitian path diagonalizes unitarily; the general path guards
    against a size cap and an ill-conditioned eigenbasis.
    """
    A = A.toarray() if scipy.sparse.issparse(A) else np.asarray(A)
    if not hermitian and A.shape[0] > ORACLE_GENERAL_MAX_N:
        raise ValueError(f"general oracle capped at n = {ORACLE_GENERAL_MAX_N}")
    w, V = eig_dense(A, hermitian=hermitian)
    if not hermitian:
        cond = np.linalg.cond(V)
        if not np.isfinite(cond) or cond >= 1e8:
            raise IllConditionedEigenbasis(f"eigenvector condition {cond:.2e}")
    return w, V


def oracle_apply(fun, eig, b, hermitian=False):
    """f(A) b from A's oracle_eig decomposition, b a vector or a block of
    columns.

    Eigenvalues at a singularity of f raise FunctionUndefined.
    """
    w, V = eig
    fw = fun.scalar_f(w).reshape((-1,) + (1,) * (np.ndim(b) - 1))
    if hermitian:
        return V @ (fw * (V.conj().T @ b))
    return V @ (fw * np.linalg.solve(V, b))


def oracle_funm(A, fun, b, hermitian=False):
    """Reference f(A) b through a dense eigendecomposition."""
    return oracle_apply(fun, oracle_eig(A, hermitian), b, hermitian)


def _dense_via_eig(fun, M):
    """f(M) for a small dense M via (symmetry-aware) eigendecomposition."""
    M = np.asarray(M)
    if M.shape[0] == 0:
        return M.copy()
    hermitian = is_hermitian(M)
    w, P = eig_dense(M, hermitian=hermitian)
    if not hermitian:
        cond = np.linalg.cond(P)
        if not np.isfinite(cond) or cond >= 1e10:
            raise IllConditionedEigenbasis(f"eigenvector condition {cond:.2e}")
    return oracle_apply(fun, (w, P), np.eye(M.shape[0]), hermitian)


def _dense_inverse(M):
    M = np.asarray(M)
    try:
        return lu_solve(M, np.eye(M.shape[0]))
    except SingularMatrix as exc:
        raise FunctionUndefined("matrix has an eigenvalue at 0") from exc


# f on scalars and arrays, and whether f is undefined at the origin
# (|z| < 1e-300) and on the cut (-inf, 0) of the principal branch
# (Re z < 0 and |Im z| < 1e-14 max(|z|, 1))
_CATALOG = {
    "inverse": (lambda z: 1.0 / z, True, False),
    "invsqrt": (lambda z: 1.0 / np.sqrt(z), True, True),
    "sqrt": (np.sqrt, False, True),
    "log": (np.log, True, True),
    "exp": (np.exp, False, False),
}


def function_catalog(name):
    """FunctionSpec for one of: inverse, invsqrt, sqrt, log, exp,
    sign_via_invsqrt. scalar_f raises FunctionUndefined when some point is
    where f is undefined."""
    if name == "sign_via_invsqrt":
        invsqrt = function_catalog("invsqrt")
        return FunctionSpec(name=name, scalar_f=lambda z: z * invsqrt.scalar_f(z ** 2),
                            dense_f=lambda M: M @ invsqrt.dense_f(M @ M))
    if name not in _CATALOG:
        raise UnknownFunction(name)
    f, origin, cut = _CATALOG[name]

    def scalar_f(z):
        z = np.asarray(z)
        r = np.abs(z)
        bad = (origin & (r < 1e-300)) \
            | (cut & (z.real < 0) & (np.abs(z.imag) < 1e-14 * np.maximum(r, 1.0)))
        if np.any(bad):
            raise FunctionUndefined(f"{name} undefined at {z[bad].flat[0]}")
        return f(z)

    fun = FunctionSpec(name=name, scalar_f=scalar_f, dense_f=_dense_inverse,
                       singularity=None if name == "exp" else 0.0 + 0.0j)
    if name != "inverse":
        fun.dense_f = lambda M: _dense_via_eig(fun, M)
    return fun
