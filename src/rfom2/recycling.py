"""Harmonic Ritz update of the recycle subspace, and subspace angles."""

import numpy as np
import scipy.linalg

from .arnoldi import as_operator
from .core import RankDeficient, is_hermitian, qr_orthonormalize, svd_values
from .engines import RecycleSubspace, _augmented_pencil, _cholesky_reduced


# Relative tie between two harmonic Ritz magnitudes at the selection's cut.
# The members of a conjugate pair of a real A differ by rounding: at most
# 1.7e-8 over 26,392 pairs of 1,440 convdiff2d pencils (m 8-20, convection
# 0.5-3, four problems each, the later pencils complex like U). Distinct
# magnitudes at the cut were at least 4.5e-4 apart on those pencils, 8.2e-5
# on 300 complex-nonherm benchmark pencils and 1.4e-2 on the Hermitian ones.
TIE_RTOL = 1e-6


def harmonic_ritz_pencil(dec, rec):
    """(lhs, rhs) = ((A V_hat)^* A V_hat, (A V_hat)^* V_hat) on V_hat = [U, V_j],
    U deflated against K_j: the pairs lhs g = theta rhs g make
    A V_hat g - theta V_hat g orthogonal to A V_hat, the condition of
    recycled GMRES (GCRO-DR). A V_hat = [C, V Hbar], V = V_{j+1}, is not
    formed: V^* V = I gives lhs = [[C^*C, (C^*V) Hbar], [Hbar^*(V^*C), Hbar^*Hbar]],
    and rhs = F^*, with F = V_hat^* A V_hat from `_augmented_pencil`.
    """
    return _ritz_pencil(dec, rec)[1:]


def _ritz_pencil(dec, rec):
    """`harmonic_ritz_pencil`, with the deflated subspace first."""
    rec, _, F, _ = _augmented_pencil(dec, rec)
    CVH = (rec.C.conj().T @ dec.V) @ dec.Hbar
    lhs = np.block([[rec.C.conj().T @ rec.C, CVH], [CVH.conj().T, dec.Hbar.conj().T @ dec.Hbar]])
    return rec, lhs, F.conj().T


def harmonic_ritz_update(dec, rec, op, k):
    """New recycle subspace from the k smallest-magnitude harmonic Ritz pairs
    of `harmonic_ritz_pencil`.

    Selecting the smallest |theta| targets functions whose singularity
    sits at the origin; infinite or NaN pairs are skipped. lhs is positive
    definite, so the pencil is solved for nu = 1/theta, rhs g = nu lhs g:
    the smallest |theta| are the largest |nu|, and nu = 0 is an infinite
    theta. When rhs is Hermitian to `is_hermitian`'s 1e-12, as it is for
    Hermitian A, one `eigh` solves it. Otherwise the Cholesky factor
    lhs = L L^* reduces it to one standard `eig` of L^{-1} rhs L^{-*}, as
    v2's node sum reduces its pencil (`engines._cholesky_reduced`). Where
    `eigh` or the factor fails, a general `eig` (QZ) solves lhs g = theta rhs g
    as it stands.

    The selection never splits a tie: when the k-th and the (k+1)-th |theta|
    agree to TIE_RTOL, as the two members of a conjugate pair of a real A
    do, every selected pair tied with the (k+1)-th is dropped. The returned
    U has unit columns, and numerically dependent selected vectors are
    dropped, so the actual k may shrink, to 0 when all k tie with the
    first pair left out. Raises RankDeficient when no harmonic Ritz value
    is finite or the selected vectors are zero.

    The update makes no block apply: U = V_hat g with g = [g_U; g_V] gives
    C = A U = C g_U + V_{j+1} (Hbar g_V), with U's columns and scaling, bound
    to dec's operator (see `RecycleSubspace`). op is A's operator, used
    only for the dimension of an empty subspace.
    """
    if k == 0:
        return RecycleSubspace.empty(as_operator(op).dim)
    rec, lhs, rhs = _ritz_pencil(dec, rec)
    vectors, selected = _selected_pairs(lhs, rhs, k)
    if selected.size == 0:
        return RecycleSubspace.empty(as_operator(op).dim)
    g = vectors[:, selected]
    U = np.concatenate([rec.U, dec.Vj], axis=1) @ g
    C = rec.C @ g[:rec.k] + dec.V @ (dec.Hbar @ g[rec.k:])
    norms = np.linalg.norm(U, axis=0)
    if np.max(norms) == 0.0:
        raise RankDeficient("harmonic Ritz vectors are numerically zero")
    keep = norms > 1e-14 * np.max(norms)
    U, C = U[:, keep] / norms[keep], C[:, keep] / norms[keep]
    sv = svd_values(U)
    if sv[-1] < 1e-12 * sv[0]:
        # unpivoted QR: drop each column nearly in the span of the ones before it
        Q, R = np.linalg.qr(U)
        diag = np.abs(np.diag(R))
        keep = diag > 1e-12 * np.max(diag)
        norms = np.linalg.norm(U[:, keep], axis=0)
        U, C = U[:, keep] / norms, C[:, keep] / norms
    return RecycleSubspace(U=U, C=C, op=dec.op)


def _selected_pairs(lhs, rhs, k):
    """(vectors, selected): the eigenvectors of lhs g = theta rhs g and the
    indices of the at most k finite theta that `harmonic_ritz_update`
    selects, smallest |theta| first, with no tie at the cut. Raises
    RankDeficient when no theta is finite."""
    try:
        if is_hermitian(rhs):
            nu, vectors = scipy.linalg.eigh(rhs, lhs, check_finite=False)
        else:
            solve_l, M = _cholesky_reduced(lhs, rhs)
            nu, h = scipy.linalg.eig(M, check_finite=False)
            vectors = solve_l(h, trans="C")
    except scipy.linalg.LinAlgError:  # lhs is not numerically positive definite
        theta, vectors = scipy.linalg.eig(lhs, rhs, check_finite=False)
        ranked = np.argsort(np.abs(theta))
        ranked, size = ranked[np.isfinite(theta[ranked])], np.abs(theta)
    else:
        ranked = np.argsort(-np.abs(nu))
        ranked, size = ranked[nu[ranked] != 0.0], np.abs(nu)
    if ranked.size == 0:
        raise RankDeficient("no harmonic Ritz value is finite")
    if ranked.size <= k:
        return vectors, ranked
    # size is monotone along ranked, so the tied pairs end the selection
    cut = size[ranked[k]]
    return vectors, ranked[:k][np.abs(size[ranked[:k]] - cut) > TIE_RTOL * cut]


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
