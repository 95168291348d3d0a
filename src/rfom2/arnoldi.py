"""Arnoldi process with reorthogonalization."""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .core import ZeroRhs, norm

BREAKDOWN_TOL = 1e-12


class LinearOperator:
    """Square linear operator accessed only through matrix-vector products.

    `apply` takes a vector of length dim or an n x k block of vectors, and
    returns A v with the input's shape, so the callback must accept both.
    The wrappers of `as_operator` compute A @ v, which does; on an exactly
    Hermitian dense A a vector of A's dtype goes through BLAS symv/hemv
    instead, equal to A @ v up to rounding. The result keeps the callback's
    dtype; for those wrappers that is numpy's promotion of A's and v's
    dtypes, so a real A on a real v stays real.
    """

    def __init__(self, dim, apply):
        self.dim = dim
        self._apply = apply

    def apply(self, v):
        out = self._apply(v)
        return np.asarray(out).reshape(np.shape(v))


# BLAS kernels that read one triangle of a Hermitian matrix
_ONE_TRIANGLE = {np.dtype(np.float64): scipy.linalg.blas.dsymv,
                 np.dtype(np.complex128): scipy.linalg.blas.zhemv}


def as_operator(A):
    """Wrap an ndarray, sparse matrix or LinearOperator uniformly.

    The wrapper computes A @ v, except that a nonempty C-ordered float64 or
    complex128 ndarray that is exactly Hermitian applies a vector of its
    own dtype by BLAS symv/hemv on the Fortran view A.T, which reads one
    triangle of A instead of all of it. Blocks, vectors of another dtype,
    sparse, F-ordered and non-Hermitian matrices go through A @ v.
    """
    if isinstance(A, LinearOperator):
        return A
    if scipy.sparse.issparse(A):
        n = A.shape[0]
        return LinearOperator(n, lambda v: A @ v)
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be square")
    mv = _ONE_TRIANGLE.get(A.dtype)
    if (mv is None or A.size == 0 or not A.flags.c_contiguous
            or not scipy.linalg.ishermitian(A, atol=0, rtol=0)):
        return LinearOperator(A.shape[0], lambda v: A @ v)
    At = A.T  # conj(A), Hermitian too

    def apply(v):
        if not (isinstance(v, np.ndarray) and v.dtype == A.dtype and v.shape == A.shape[:1]):
            return A @ v
        # A v = conj(conj(A) conj(v)); on real data the conjugations do nothing
        y = mv(1.0, At, v.conj())
        return np.conjugate(y, out=y)

    return LinearOperator(A.shape[0], apply)


@dataclass
class ArnoldiDecomposition:
    """Krylov basis V (n x (j+1)), Hessenberg Hbar ((j+1) x j) and metadata.

    Satisfies A V[:, :j] = V Hbar with V[:, 0] = b / ||b||. On breakdown
    the decomposition is truncated: the subdiagonal tail of Hbar and the
    trailing column of V are zero. `op` is the LinearOperator of A that
    built it, which the recycled engines compare with a subspace's.

    `_memo` holds the projected pencils, and their decompositions, that
    the engines and the harmonic Ritz update build on this decomposition
    (`engines._projection`), so each is built once. V and Hbar are not
    written in place once an engine has read them; a changed
    decomposition is a new object, with an empty memo.
    """

    V: np.ndarray
    Hbar: np.ndarray
    j: int
    beta: float
    breakdown: bool = False
    op: LinearOperator | None = field(default=None, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def H(self):
        return self.Hbar[: self.j, :]

    @property
    def Vj(self):
        return self.V[:, : self.j]

    @property
    def b(self):
        return self.beta * self.V[:, 0]


def arnoldi(op, b, j, reorth=True):
    """Build an orthonormal basis of K_j(A, b) by classical Gram-Schmidt.

    With reorth on, the classical pass is applied twice per new vector
    (CGS2, "twice is enough"). Each pass is two BLAS gemv products on a
    column-major V, h = V^H w and w - V h, so no conjugate copy of V is
    made; the returned V is C-ordered, on breakdown too. Breakdown
    truncates the decomposition. V and Hbar take the dtype of b and of the
    first product A v_1, so a real operator and a real b give a real
    decomposition. The norms are `core.norm`'s, so A and b may have entries
    past 1e154.
    """
    op = as_operator(op)
    b = np.asarray(b).reshape(-1)
    if b.shape[0] != op.dim:
        raise ValueError("rhs length does not match operator dimension")
    if not (1 <= j < op.dim):
        raise ValueError("need 1 <= j < operator dimension")
    beta = norm(b)
    if beta == 0.0:
        raise ZeroRhs("right-hand side is the zero vector")

    v = b / beta
    w = op.apply(v)
    V = np.zeros((op.dim, j + 1), dtype=np.result_type(v, w), order="F")
    Hbar = np.zeros((j + 1, j), dtype=V.dtype)
    V[:, 0] = v
    gemv = scipy.linalg.blas.get_blas_funcs("gemv", (V,))
    adjoint = 2 if np.iscomplexobj(V) else 1  # gemv's trans: V^H, or V^T

    for ell in range(j):
        if ell:
            w = op.apply(V[:, ell])
        Vl = V[:, : ell + 1]
        h = gemv(1.0, Vl, w, trans=adjoint)
        # the first pass writes a new array, so an operator's output is
        # never overwritten
        w = gemv(-1.0, Vl, h, beta=1.0, y=w)
        if reorth:
            h2 = gemv(1.0, Vl, w, trans=adjoint)
            w = gemv(-1.0, Vl, h2, beta=1.0, y=w, overwrite_y=True)
            h = h + h2
        Hbar[: ell + 1, ell] = h
        hnext = norm(w)
        breakdown = bool(hnext < BREAKDOWN_TOL * max(np.max(np.abs(Hbar)), 1e-300))
        if breakdown:
            break
        Hbar[ell + 1, ell] = hnext
        V[:, ell + 1] = w / hnext

    jt = ell + 1
    return ArnoldiDecomposition(V=np.ascontiguousarray(V[:, : jt + 1]),
                                Hbar=np.ascontiguousarray(Hbar[: jt + 1, :jt]), j=jt,
                                beta=beta, breakdown=breakdown, op=op)
