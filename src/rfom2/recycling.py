"""Harmonic Ritz update of the recycle subspace, and subspace angles."""

import numpy as np
import scipy.linalg

from .arnoldi import as_operator
from .core import RankDeficient, svd_values
from .engines import RecycleSubspace, _augmented_pencil, _decompose, _eigenpairs


# Relative tie between two harmonic Ritz magnitudes at the selection's cut.
# The members of a conjugate pair of a real A differ by rounding, and on
# later pencils, complex like U, by span(U)'s drift from its conjugate: at
# most 9.5e-13 on the first and 3.9e-7 on all of 1,440 convdiff2d pencils
# (m 8-20, convection 0.5-3 but not 2, j 15/40, k 4/10, fixed and perturbed,
# four problems each), among the k+1 largest |nu|. Distinct magnitudes at
# the cut were at least 2.0e-4 apart there, 8.2e-5 on 300 complex-nonherm
# benchmark pencils and 1.4e-2 on Hermitian ones. At convection 2 a stencil
# off-diagonal vanishes, A is defective, and pairs differed by up to 9.7e-6.
TIE_RTOL = 1e-6


def harmonic_ritz_pencil(dec, rec):
    """(lhs, rhs) = ((A V_hat)^* A V_hat, (A V_hat)^* V_hat) on V_hat = [U, V_j],
    U deflated against K_j: the pairs lhs g = theta rhs g make
    A V_hat g - theta V_hat g orthogonal to A V_hat, the condition of
    recycled GMRES (GCRO-DR). A V_hat = [C, V Hbar], V = V_{j+1}, is not
    formed: V^* V = I gives lhs = [[C^*C, (C^*V) Hbar], [Hbar^*(V^*C), Hbar^*Hbar]],
    and rhs = F^*, with F = V_hat^* A V_hat from `_augmented_pencil`.

    When max(|C|, |Hbar|) leaves [2^-500, 2^500], where lhs would overflow
    or underflow, the pencil is that of 2^-e A, with 2^e the power of two
    that brings the maximum into [1/2, 1): C, Hbar and F scale exactly, the
    vectors g are A's, and theta is 2^-e times A's. Inside that range lhs
    and rhs are A's own, and theta are A's harmonic Ritz values.
    """
    return _ritz_pencil(dec, rec)[1:]


def _ritz_pencil(dec, rec):
    """`harmonic_ritz_pencil`, with the deflated subspace first."""
    rec, _, F, _ = _augmented_pencil(dec, rec)
    C, Hbar = rec.C, dec.Hbar
    top = max(np.max(np.abs(C), initial=0.0), np.max(np.abs(Hbar), initial=0.0))
    if top > 2.0 ** 500 or 0.0 < top < 2.0 ** -500:
        scale = np.ldexp(1.0, -np.frexp(top)[1])
        C, Hbar, F = scale * C, scale * Hbar, scale * F
    CVH = (C.conj().T @ dec.V) @ Hbar
    lhs = np.block([[C.conj().T @ C, CVH], [CVH.conj().T, Hbar.conj().T @ Hbar]])
    return rec, lhs, F.conj().T


def harmonic_ritz_update(dec, rec, op, k):
    """New recycle subspace from the k smallest-magnitude harmonic Ritz pairs
    of `harmonic_ritz_pencil`.

    Selecting the smallest |theta| targets functions whose singularity
    sits at the origin; infinite or NaN pairs are skipped. lhs is positive
    definite, so the pencil is solved for nu = 1/theta, rhs g = nu lhs g:
    the smallest |theta| are the largest |nu|, and nu = 0 is an infinite
    theta. Its pairs come from `engines._eigenpairs(_decompose(lhs, rhs))`,
    as z E - F's: one `eigh` when rhs is Hermitian to `is_hermitian`'s 1e-12,
    as it is for Hermitian A, else the Cholesky factor lhs = L L^* and one
    complex Schur form of L^{-1} rhs L^{-*}. Where `eigh` or the factor
    fails, a general `eig` (QZ) solves lhs g = theta rhs g as it stands.

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
    keep = _independent(U)
    if not keep.all():
        norms = np.linalg.norm(U[:, keep], axis=0)
        U, C = U[:, keep] / norms, C[:, keep] / norms
    return RecycleSubspace(U=U, C=C, op=dec.op)


def _independent(U):
    """The columns of U that are not nearly in the span of the ones before
    them: |R_ii| > 1e-12 max |R_ii| on U's unpivoted QR. The |R_ii| lie
    between U's extreme singular values, so with cond_2(U) below 1e12
    every column is kept."""
    diag = np.abs(np.diag(np.linalg.qr(U, mode="r")))
    return diag > 1e-12 * np.max(diag)


def _selected_pairs(lhs, rhs, k):
    """(vectors, selected): the eigenvectors of lhs g = theta rhs g and the
    indices of the at most k finite theta that `harmonic_ritz_update`
    selects, smallest |theta| first, with no tie at the cut. Raises
    RankDeficient when no theta is finite."""
    try:
        nu, vectors = _eigenpairs(_decompose(lhs, rhs))
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
    """Largest principal angle (radians) between the column spans of U and Z.

    On orthonormal bases (`scipy.linalg.orth`) it is the arccosine of the
    smallest cosine, or, where that cosine is at least 1/sqrt(2), the
    arcsine of the largest sine, so small and large angles both stay
    accurate (Knyazev and Argentati, 2002). `scipy.linalg.subspace_angles`
    takes the sines for every angle once the largest cosine passes
    1/sqrt(2), which lost 1.1e-11 on a largest angle of pi/2 - 1e-5 beside
    one of 1e-12.

    The spans are those of `orth`'s bases, so numerically dependent columns
    add nothing, and a span of no dimension raises ValueError. Of spans of
    different dimensions, the smaller one's principal angles are taken.
    """
    Qu, Qz = scipy.linalg.orth(U), scipy.linalg.orth(Z)
    if Qu.shape[1] == 0 or Qz.shape[1] == 0:
        raise ValueError("subspace_angle needs nonempty subspaces")
    if Qz.shape[1] > Qu.shape[1]:
        Qu, Qz = Qz, Qu
    M = Qu.conj().T @ Qz
    cos = float(np.min(svd_values(M)))
    if cos < np.sqrt(0.5):
        return float(np.arccos(cos))
    # Qz has the fewer columns, so the sines of its part outside span(Qu)
    # are those of the principal angles
    return float(np.arcsin(min(np.max(svd_values(Qz - Qu @ M)), 1.0)))
