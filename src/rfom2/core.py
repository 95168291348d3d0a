"""Dense linear algebra kernels shared by all modules.

Everything operates on plain numpy arrays and keeps their dtype, so real
inputs give real results wherever the mathematics allows. These are thin
contracts over LAPACK (via numpy/scipy) with explicit finiteness /
singularity / rank / convergence checks so that callers get meaningful
exceptions instead of silent garbage.
"""

import numpy as np
import scipy.linalg


class RFOMError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(RFOMError):
    pass


class RankDeficient(RFOMError):
    pass


class NoConvergence(RFOMError):
    pass


class SingularPencil(RFOMError):
    pass


class ZeroRhs(RFOMError):
    pass


class SingularShift(RFOMError):
    pass


class SingularProjector(RFOMError):
    pass


class SingularSystem(RFOMError):
    pass


class FunctionUndefined(RFOMError):
    pass


class IllConditionedEigenbasis(RFOMError):
    pass


class ParseError(RFOMError, ValueError):
    """Malformed input file or config, located by line or by key."""


class UnsupportedFormat(ParseError):
    """A well-formed input file in a format the reader does not take."""


class UnknownFunction(RFOMError):
    pass


class NoSeparatingContour(RFOMError, ValueError):
    """No circle encloses the spectrum estimates and excludes the singularity."""


def lu_solve(M, B):
    """Solve M X = B for square M via LU with partial pivoting.

    Raises SingularMatrix when a pivot falls below 1e-14 * max|M|. The
    result is scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), B) bit for bit.
    """
    M = np.asarray_chkfinite(M)
    B = np.asarray_chkfinite(B)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    if B.shape[0] != M.shape[0]:
        raise ValueError("dimension mismatch between M and B")
    return gesv_solve(M, B)


def gesv_solve(M, B):
    """`lu_solve` without its finiteness and shape checks, in one LAPACK
    gesv (getrf, then getrs); an exactly zero pivot raises with no warning.
    """
    if M.shape[0] == 0:
        return B.copy()
    if np.isrealobj(M) and np.iscomplexobj(B):
        # a real getrf and a complex getrs, as scipy does: zgesv would round
        # the factors of the complex cast differently
        lu, piv, _ = scipy.linalg.get_lapack_funcs(("getrf",), (M,))[0](M)
        X = None
    else:
        lu, piv, X, _ = scipy.linalg.get_lapack_funcs(("gesv",), (M, B))[0](M, B)
    scale = np.abs(M).max()
    if scale == 0.0 or np.abs(lu.diagonal()).min() < 1e-14 * scale:
        raise SingularMatrix("pivot below 1e-14 * max|M|")
    return scipy.linalg.lu_solve((lu, piv), B, check_finite=False) if X is None else X


def qr_orthonormalize(M):
    """Thin QR factorization M = Q R with orthonormal columns in Q.

    Raises RankDeficient when a diagonal entry of R is below 1e-12 * ||M||.
    """
    M = np.asarray_chkfinite(M)
    if M.ndim != 2 or M.shape[1] > M.shape[0]:
        raise ValueError("M must be tall (cols <= rows)")
    Q, R = np.linalg.qr(M)
    norm = np.linalg.norm(M, 2) if min(M.shape) > 0 else 0.0
    if M.shape[1] > 0 and np.min(np.abs(np.diag(R))) < 1e-12 * norm:
        raise RankDeficient("matrix is numerically rank deficient")
    return Q, R


def is_hermitian(M, rtol=1e-12):
    """True when ||M - M^*||_F <= rtol ||M||_F; a zero matrix is Hermitian."""
    M = np.asarray(M)
    return bool(np.linalg.norm(M - M.conj().T) <= rtol * np.linalg.norm(M))


def eig_dense(M, hermitian=False):
    """Eigendecomposition of a square dense matrix.

    Hermitian path returns real ascending eigenvalues and unitary
    eigenvectors. The general path uses the QR algorithm on the
    Hessenberg form (LAPACK geev).
    """
    M = np.asarray_chkfinite(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    try:
        if hermitian:
            if not is_hermitian(M, 1e-10):
                raise ValueError("matrix is not Hermitian to tolerance")
            values, vectors = np.linalg.eigh(M)
            return values, vectors
        values, vectors = np.linalg.eig(M)
        return values, vectors
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"dense eigensolver did not converge: {exc}") from exc


def generalized_eig(Amat, Bmat):
    """Solve the pencil A g = theta B g for all eigenpairs.

    Raises SingularPencil when B is numerically singular (smallest
    singular value below 1e-12 * ||B||).
    """
    Amat = np.asarray_chkfinite(Amat)
    Bmat = np.asarray_chkfinite(Bmat)
    if Amat.shape != Bmat.shape or Amat.ndim != 2 or Amat.shape[0] != Amat.shape[1]:
        raise ValueError("A and B must be square of the same size")
    if Amat.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128), np.zeros((0, 0), dtype=np.complex128)
    sv = np.linalg.svd(Bmat, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise SingularPencil("right-hand matrix of the pencil is numerically singular")
    try:
        values, vectors = scipy.linalg.eig(Amat, Bmat, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(f"QZ iteration failed: {exc}") from exc
    return values, vectors


def svd_values(M):
    """Singular values of M, nonnegative and descending."""
    M = np.asarray_chkfinite(M)
    try:
        return np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(f"SVD did not converge: {exc}") from exc
