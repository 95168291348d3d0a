"""The five approximation engines for f(A) b.

`arnoldi_direct` and `arnoldi_quad` are the plain Krylov baselines; the
three recycled engines consume an additional augmentation subspace U
with C = A U carried across problems. All engines are pure functions of
(decomposition, subspace, function, rule). Only `rfom_v1`, the
independent reference, accumulates its quadrature sum node by node, in
ascending node order. `arnoldi_quad` and `rfom_v2` reduce their node
systems to triangular form with one QZ decomposition and sum over all
nodes at once. `rfom_v3` is `rfom_v2` plus the plain Krylov quadrature
error `arnoldi_direct - arnoldi_quad`.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .arnoldi import ArnoldiDecomposition, as_operator
from .core import (
    NoConvergence,
    SingularMatrix,
    SingularProjector,
    SingularShift,
    SingularSystem,
    lu_solve,
    svd_values,
)
from .quadrature import QuadratureRule


@dataclass
class FunctionSpec:
    """Scalar and small-dense evaluators of one matrix function."""

    name: str
    scalar_f: callable
    dense_f: callable
    singularity: complex | None = 0.0 + 0.0j


@dataclass
class RecycleSubspace:
    """Augmentation subspace U with its image C = A U and diagonal scaling D."""

    U: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def k(self):
        return self.U.shape[1]

    @classmethod
    def empty(cls, n):
        z = np.zeros((n, 0), dtype=np.complex128)
        return cls(U=z, C=z.copy(), D=np.zeros((0, 0), dtype=np.complex128))

    @classmethod
    def from_basis(cls, op, U):
        """Build a subspace with D = I from basis columns; C = A U is one block apply."""
        op = as_operator(op)
        U = np.asarray(U, dtype=np.complex128)
        return cls(U=U, C=op.apply(U), D=np.eye(U.shape[1], dtype=np.complex128))


@dataclass
class AugmentedQuantities:
    """Augmented basis matrices and the shifted residual-term builder.

    Satisfies (sigma I - A) Vhat = What (sigma I - G) + R(sigma) for all
    shifts, where Vhat = [U D, V_j], What = [C, V_j] and
    G = blockdiag(D, H_j).
    """

    Vhat: np.ndarray
    What: np.ndarray
    G: np.ndarray
    Gbar: np.ndarray
    UmC: np.ndarray = field(repr=False)
    tail: np.ndarray = field(repr=False)
    j: int = 0
    k: int = 0

    def R(self, sigma):
        n = self.Vhat.shape[0]
        out = np.zeros((n, self.k + self.j), dtype=np.complex128)
        out[:, : self.k] = sigma * self.UmC
        out[:, self.k + self.j - 1] = self.tail
        return out


# Relative cut, against ||U D||_2, on the singular values of U D's part
# outside K_j. The condition numbers of v2's pencil E = V_hat^* V_hat and
# of the harmonic Ritz pencil grow like the inverse square of the smallest
# kept singular value. On 3 recycled graded n=900 sequences (j=50, k=20,
# 4 problems each) they stayed at or below 1.3e10 and 1.7e10 with 1e-5;
# with 1e-6 they reached 1.2e12 and 2.2e12.
DEFLATION_TOL = 1e-5


def _deflate(dec, rec):
    """U' = U D X, C' = C D X, D' = I, with X the right singular vectors of
    (I - V_j V_j^*) U D above DEFLATION_TOL ||U D||_2; rec when X keeps all.
    """
    if rec.k == 0:
        return rec
    Us = rec.U @ rec.D
    _, s, Xh = np.linalg.svd(Us - dec.Vj @ (dec.Vj.conj().T @ Us), full_matrices=False)
    keep = s > DEFLATION_TOL * svd_values(Us)[0]
    if keep.all():
        return rec
    X = Xh[keep].conj().T
    return RecycleSubspace(U=Us @ X, C=rec.C @ (rec.D @ X),
                           D=np.eye(X.shape[1], dtype=np.complex128))


def augmented_quantities(dec, rec):
    """Assemble the augmented basis, with U deflated against K_j first."""
    rec = _deflate(dec, rec)
    j, k = dec.j, rec.k
    Us = rec.U @ rec.D
    Vhat = np.concatenate([Us, dec.Vj], axis=1)
    What = np.concatenate([rec.C, dec.Vj], axis=1)
    G = np.zeros((k + j, k + j), dtype=np.complex128)
    G[:k, :k] = rec.D
    G[k:, k:] = dec.H
    Gbar = np.zeros((k + j + 1, k + j), dtype=np.complex128)
    Gbar[:k, :k] = rec.D
    Gbar[k:, k:] = dec.Hbar
    tail = -dec.h_tail * dec.V[:, j]
    return AugmentedQuantities(
        Vhat=Vhat, What=What, G=G, Gbar=Gbar,
        UmC=Us - rec.C, tail=tail, j=j, k=k,
    )


def _node_factor(fun, rule):
    """Per-node scalar multiplying the resolvent term.

    Contour rules integrate f(z) against the resolvent; Stieltjes rules
    already absorb the density of f into their weights.
    """
    if rule.kind == "stieltjes":
        return lambda z: 1.0
    return fun.scalar_f


def arnoldi_direct(dec, fun):
    """||b|| V_j f(H_j) e_1, with f evaluated densely on the Hessenberg matrix."""
    fH = fun.dense_f(dec.H)
    return dec.beta * (dec.Vj @ fH[:, 0])


def arnoldi_quad(dec, fun, rule):
    """Quadrature form of the Arnoldi approximation (the "Arnoldi (q)" baseline),
    V_j q(H_j) beta e_1, with the node sum over the pencil (I_j, H_j)."""
    beta_e1 = dec.beta * np.eye(dec.j, 1, dtype=np.complex128)[:, 0]  # V_j^* b
    return dec.Vj @ _pencil_node_sum(np.eye(dec.j, dtype=np.complex128), dec.H, beta_e1,
                                     rule.nodes, _node_weights(fun, rule))


def rfom_v1(dec, rec, fun, rule):
    """Split-correction recycled approximation (Krylov and U parts separate).

    Per node solves the projected j x j system for the Krylov
    coefficients and back-substitutes the subspace coefficients through
    the one-time products U*U, U*C, V_j*U, V_j*C and U*V_{j+1}.
    """
    j, k = dec.j, rec.k
    U, C = rec.U, rec.C
    b = dec.b
    Ij = np.eye(j, dtype=np.complex128)
    e1 = np.zeros(j, dtype=np.complex128)
    e1[0] = 1.0

    UU = U.conj().T @ U
    UC = U.conj().T @ C
    VjU = dec.Vj.conj().T @ U
    VjC = dec.Vj.conj().T @ C
    M = U.conj().T @ dec.V
    Ub = U.conj().T @ b
    Vjb = dec.beta * e1  # V_j^* b exactly, since v_1 = b/||b||

    t1 = np.zeros(j, dtype=np.complex128)
    t2 = np.zeros(k, dtype=np.complex128)
    factor = _node_factor(fun, rule)
    for z, w in zip(rule.nodes, rule.weights):
        mu = w * factor(z)
        if k:
            Mbar = z * M[:, :j] - M @ dec.Hbar
            try:
                F = scipy.linalg.lu_factor(z * UU - UC, check_finite=False)
            except scipy.linalg.LinAlgError as exc:
                raise SingularProjector(f"projector block singular at node {z}") from exc
            if np.min(np.abs(np.diag(F[0]))) < 1e-14 * max(np.max(np.abs(z * UU - UC)), 1e-300):
                raise SingularProjector(f"projector block singular at node {z}")
            K = z * VjU - VjC
            LM = scipy.linalg.lu_solve(F, Mbar, check_finite=False)
            Lub = scipy.linalg.lu_solve(F, Ub, check_finite=False)
            coeff = z * Ij - dec.H - K @ LM
            rhs = Vjb - K @ Lub
        else:
            coeff = z * Ij - dec.H
            rhs = Vjb
        try:
            y = lu_solve(coeff, rhs)
        except SingularMatrix as exc:
            raise SingularShift(f"inner system singular at node {z}") from exc
        t1 += mu * y
        if k:
            t2 += mu * (Lub - LM @ y)
    out = dec.Vj @ t1
    if k:
        out = out + U @ t2
    return out


def _pencil_node_sum(E, F, rhs, nodes, mu):
    """sum_l mu_l (z_l E - F)^{-1} rhs from one complex QZ of the pencil.

    With F = Q T Z^* and E = Q S Z^* (T, S upper triangular), every node
    system becomes the triangular (z_l S - T) y_l = Q^* rhs. Back
    substitution runs over the m rows for all nodes at once, and the sum
    is Z sum_l mu_l y_l. A node is singular when a diagonal entry
    |z_l S_ii - T_ii| is not above 1e-14 (|z_l| max|E| + max|F|), the
    scale of z_l E - F.
    """
    m = E.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.complex128)
    try:
        T, S, Q, Z = scipy.linalg.qz(F, E, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(f"QZ iteration failed: {exc}") from exc
    diag = nodes * np.diag(S)[:, None] - np.diag(T)[:, None]
    scale = 1e-14 * (np.abs(nodes) * np.max(np.abs(E)) + np.max(np.abs(F)))
    singular = ~(np.abs(diag) > scale).all(axis=0)
    if singular.any():
        z = nodes[np.argmax(singular)]
        raise SingularSystem(f"pencil z E - F singular at node {z}")
    Y = np.empty((m, nodes.size), dtype=np.complex128)
    c = Q.conj().T @ rhs
    for i in range(m - 1, -1, -1):
        Yi = Y[i + 1:]
        Y[i] = (c[i] - nodes * (S[i, i + 1:] @ Yi) + T[i, i + 1:] @ Yi) / diag[i]
    return Z @ (Y @ mu)


def _node_weights(fun, rule):
    """mu_l = w_l * factor(z_l), the coefficient of node l's solve."""
    factor = _node_factor(fun, rule)
    return rule.weights * np.array([factor(z) for z in rule.nodes], dtype=np.complex128)


def _v2_pencil(dec, rec):
    """v2's node matrix V_hat^* W_hat (z I - G) + V_hat^* R_z as z E - F.

    V_hat^* R_z = z P + N, with P = V_hat^* (U D - C) in the first k
    columns and N = (U D)^* tail in rows :k of the last column (V_j^* tail
    vanishes), so E = V_hat^* W_hat + P = V_hat^* V_hat and
    F = V_hat^* W_hat G - N = V_hat^* A V_hat, on the deflated basis of
    `aug`. Returns (aug, E, F, V_hat^* b).
    """
    aug = augmented_quantities(dec, rec)
    k, j = aug.k, aug.j
    Us, C = aug.Vhat[:, :k], aug.What[:, :k]
    # V_hat^* W_hat, with the orthonormal V_j blocks filled analytically
    VhWh = np.zeros((k + j, k + j), dtype=np.complex128)
    VhWh[:k, :k] = Us.conj().T @ C
    VhWh[:k, k:] = Us.conj().T @ dec.Vj
    VhWh[k:, :k] = dec.Vj.conj().T @ C
    VhWh[k:, k:] = np.eye(j)
    E = VhWh.copy()
    E[:, :k] = aug.Vhat.conj().T @ Us
    F = VhWh @ aug.G
    F[:k, k + j - 1] -= Us.conj().T @ aug.tail
    Vhb = np.concatenate([Us.conj().T @ dec.b, dec.beta * np.eye(j, 1, dtype=np.complex128)[:, 0]])
    return aug, E, F, Vhb


def rfom_v2(dec, rec, fun, rule):
    """Compact recycled approximation: one (k+j) system per quadrature node.

    The node systems form the pencil z E - F of `_v2_pencil`; one QZ
    reduction serves all of them. QZ loses digits when the columns of
    V_hat differ widely in length, so the pencil is balanced first by the
    exact power-of-two diagonal s = 2^-round(log2 sqrt(diag E)); unit
    columns, every V_j column among them, get s = 1.
    """
    aug, E, F, Vhb = _v2_pencil(dec, rec)
    s = 2.0 ** -np.round(np.log2(np.sqrt(np.diag(E).real)))
    y = _pencil_node_sum(s[:, None] * E * s, s[:, None] * F * s, s * Vhb,
                         rule.nodes, _node_weights(fun, rule))
    return aug.Vhat @ (s * y)


def rfom_v3(dec, rec, fun, rule):
    """rfom_v2 plus the plain Krylov quadrature error V_j (f(H) - q(H)) beta e_1.

    The paper's v3 evaluates f(G) y0 in closed form, y0 = (V_hat^* W_hat)^{-1}
    V_hat^* b, and leaves a correction to the quadrature:

        v3 = v2 + V_hat (f(G) y0 - sum_l mu_l (z_l I - G)^{-1} y0).

    Arnoldi starts from b, so V_hat^* W_hat [0; beta e_1] = V_hat^* b and
    y0 = [0; beta e_1]: its U block vanishes, D drops out, and the
    correction is V_j (f(H) - q(H)) beta e_1 = arnoldi_direct - arnoldi_quad,
    with q(H) the quadrature of f on H. So v3 gains over v2 only in the
    Krylov part, and it fails only where v2, arnoldi_quad or f(H) fails.
    """
    return rfom_v2(dec, rec, fun, rule) + arnoldi_direct(dec, fun) - arnoldi_quad(dec, fun, rule)
