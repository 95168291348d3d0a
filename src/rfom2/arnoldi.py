"""Arnoldi process with reorthogonalization, and shifted FOM solves."""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .core import SingularMatrix, SingularShift, ZeroRhs, lu_solve

BREAKDOWN_TOL = 1e-12


class LinearOperator:
    """Square linear operator accessed only through matrix-vector products.

    `apply` takes a vector of length dim or an n x k block of vectors, and
    returns A v with the input's shape, so the callback must accept both.
    The wrappers of `as_operator` compute A @ v, which does. The result
    keeps the callback's dtype; for those wrappers that is numpy's
    promotion of A's and v's dtypes, so a real A on a real v stays real.
    """

    def __init__(self, dim, apply):
        self.dim = dim
        self._apply = apply

    def apply(self, v):
        out = self._apply(v)
        return np.asarray(out).reshape(np.shape(v))


def as_operator(A):
    """Wrap an ndarray, sparse matrix or LinearOperator uniformly."""
    if isinstance(A, LinearOperator):
        return A
    if scipy.sparse.issparse(A):
        n = A.shape[0]
        return LinearOperator(n, lambda v: A @ v)
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be square")
    return LinearOperator(A.shape[0], lambda v: A @ v)


@dataclass
class ArnoldiDecomposition:
    """Krylov basis V (n x (j+1)), Hessenberg Hbar ((j+1) x j) and metadata.

    Satisfies A V[:, :j] = V Hbar with V[:, 0] = b / ||b||. On breakdown
    the decomposition is truncated: the subdiagonal tail of Hbar and the
    trailing column of V are zero. `op` is the LinearOperator of A that
    built it, which the recycled engines compare with a subspace's.
    """

    V: np.ndarray
    Hbar: np.ndarray
    j: int
    beta: float
    breakdown: bool = False
    op: LinearOperator | None = field(default=None, repr=False, compare=False)

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
    (CGS2, "twice is enough"). Breakdown truncates the decomposition. V
    and Hbar take the dtype of b and of the first product A v_1, so a
    real operator and a real b give a real decomposition.
    """
    op = as_operator(op)
    b = np.asarray(b).reshape(-1)
    if b.shape[0] != op.dim:
        raise ValueError("rhs length does not match operator dimension")
    if not (1 <= j < op.dim):
        raise ValueError("need 1 <= j < operator dimension")
    beta = np.linalg.norm(b)
    if beta == 0.0:
        raise ZeroRhs("right-hand side is the zero vector")

    v = b / beta
    w = op.apply(v)
    V = np.zeros((op.dim, j + 1), dtype=np.result_type(v, w))
    Hbar = np.zeros((j + 1, j), dtype=V.dtype)
    V[:, 0] = v

    for ell in range(j):
        if ell:
            w = op.apply(V[:, ell])
        h = V[:, : ell + 1].conj().T @ w
        w = w - V[:, : ell + 1] @ h
        if reorth:
            h2 = V[:, : ell + 1].conj().T @ w
            w = w - V[:, : ell + 1] @ h2
            h = h + h2
        Hbar[: ell + 1, ell] = h
        hnext = np.linalg.norm(w)
        if hnext < BREAKDOWN_TOL * max(np.max(np.abs(Hbar)), 1e-300):
            jt = ell + 1
            return ArnoldiDecomposition(
                V=V[:, : jt + 1].copy(),
                Hbar=Hbar[: jt + 1, :jt].copy(),
                j=jt,
                beta=float(beta),
                breakdown=True,
                op=op,
            )
        Hbar[ell + 1, ell] = hnext
        V[:, ell + 1] = w / hnext

    return ArnoldiDecomposition(V=V, Hbar=Hbar, j=j, beta=float(beta), op=op)


def shifted_fom_solve(dec, sigma):
    """FOM iterate for (sigma I - A) x = b from an existing decomposition.

    Returns x_j(sigma) = ||b|| V_j (sigma I - H_j)^{-1} e_1. Works for any
    shift from the one basis built on (A, b) by shift invariance of
    Krylov subspaces.
    """
    j = dec.j
    M = sigma * np.eye(j) - dec.H
    try:
        y = lu_solve(M, np.eye(j, 1)[:, 0])
    except SingularMatrix as exc:
        raise SingularShift(f"shift {sigma} is an eigenvalue of H_j") from exc
    return dec.beta * (dec.Vj @ y)
