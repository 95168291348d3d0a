"""Harmonic Ritz update of the recycle subspace, and subspace angles."""

import numpy as np
import scipy.linalg

from .arnoldi import as_operator
from .core import RankDeficient, is_hermitian, qr_orthonormalize, svd_values
from .engines import RecycleSubspace, augmented_basis


def harmonic_ritz_pencil(dec, rec):
    """Left and right matrices of the harmonic Ritz eigenproblem.

    On the pair (V_hat, A V_hat) of `augmented_basis`, the pairs
    (theta, g) make A V_hat g - theta V_hat g orthogonal to A V_hat:
    (A V_hat)^* A V_hat g = theta (A V_hat)^* V_hat g, the condition of
    recycled GMRES (GCRO-DR) written with the non-orthonormal columns of
    A V_hat directly.
    """
    return _pencil(*augmented_basis(dec, rec))


def _pencil(Vhat, AVhat):
    AVh = AVhat.conj().T
    return AVh @ AVhat, AVh @ Vhat


def harmonic_ritz_update(dec, rec, op, k):
    """New recycle subspace from the k smallest-magnitude harmonic Ritz pairs.

    Selecting the smallest |theta| targets functions whose singularity
    sits at the origin. The pencil is built on the basis with U deflated
    against K_j; infinite or NaN pairs are skipped. lhs = (A V_hat)^* A V_hat
    is positive definite. When rhs = (A V_hat)^* V_hat is Hermitian to
    `is_hermitian`'s 1e-12, as it is for Hermitian A, one `eigh` solves
    rhs g = nu lhs g with nu = 1/theta: the smallest |theta| are the largest
    |nu|, and nu = 0 is an infinite theta. Otherwise, or when `eigh` fails,
    a general `eig` solves the pencil as it stands. The returned U has
    unit columns, and numerically dependent selected vectors are dropped
    (the actual k may shrink). Raises RankDeficient when no harmonic Ritz
    value is finite or the selected vectors are zero.

    C = A U would be one block apply; the update makes none. U = V_hat g
    gives A U = (A V_hat) g, and A V_hat is already built, so C takes the
    same columns and scaling as U and is bound to dec's operator (see
    `RecycleSubspace`). op is A's operator, used only for the dimension
    of an empty subspace.
    """
    if k == 0:
        return RecycleSubspace.empty(as_operator(op).dim)
    Vhat, AVhat = augmented_basis(dec, rec)
    lhs, rhs = _pencil(Vhat, AVhat)
    vectors, ranked = _ranked_pairs(lhs, rhs)
    if ranked.size == 0:
        raise RankDeficient("no harmonic Ritz value is finite")
    g = vectors[:, ranked[:k]]
    U, C = Vhat @ g, AVhat @ g
    norms = np.linalg.norm(U, axis=0)
    if np.max(norms) == 0.0:
        raise RankDeficient("harmonic Ritz vectors are numerically zero")
    keep = norms > 1e-14 * np.max(norms)
    U, C = U[:, keep] / norms[keep], C[:, keep] / norms[keep]
    sv = svd_values(U)
    if sv[-1] < 1e-12 * sv[0]:
        # drop dependent columns via a rank-revealing QR of the selection
        Q, R = np.linalg.qr(U)
        diag = np.abs(np.diag(R))
        keep = diag > 1e-12 * np.max(diag)
        norms = np.linalg.norm(U[:, keep], axis=0)
        U, C = U[:, keep] / norms, C[:, keep] / norms
    return RecycleSubspace(U=U, C=C, op=dec.op)


def _ranked_pairs(lhs, rhs):
    """Eigenvectors of lhs g = theta rhs g and the indices of the finite
    theta, smallest |theta| first; see `harmonic_ritz_update`."""
    if is_hermitian(rhs):
        try:
            nu, vectors = scipy.linalg.eigh(rhs, lhs, check_finite=False)
        except scipy.linalg.LinAlgError:
            pass  # lhs is not numerically positive definite
        else:
            order = np.argsort(-np.abs(nu))
            return vectors, order[nu[order] != 0.0]
    values, vectors = scipy.linalg.eig(lhs, rhs, check_finite=False)
    order = np.argsort(np.abs(values))
    return vectors, order[np.isfinite(values[order])]


def subspace_angle(U, Z):
    """Largest principal angle (radians) between the column spans of U and Z."""
    U = np.asarray(U)
    Z = np.asarray(Z)
    if U.shape[1] == 0 or Z.shape[1] == 0:
        raise ValueError("subspace_angle needs nonempty subspaces")
    Qu, _ = qr_orthonormalize(U)
    Qz, _ = qr_orthonormalize(Z)
    M = Qu.conj().T @ Qz
    smin = float(np.clip(np.min(svd_values(M)), 0.0, 1.0))
    if smin < np.sqrt(0.5):
        return float(np.arccos(smin))
    # small angles: the cosine saturates at 1, so switch to the sine
    # of the largest principal angle, which stays well conditioned
    sines = svd_values(Qz - Qu @ M)
    smax = float(np.clip(np.max(sines) if sines.size else 0.0, 0.0, 1.0))
    return float(np.arcsin(smax))
