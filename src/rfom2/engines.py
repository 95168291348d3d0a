"""The five approximation engines for f(A) b.

`arnoldi_direct` and `arnoldi_quad` are the plain Krylov baselines; the
three recycled engines consume an additional augmentation subspace U
with C = A U carried across problems, and `arnoldi_quad` is `rfom_v2` on
an empty one. All engines are pure functions of (decomposition,
subspace, function, rule), apart from one in-place refresh: a subspace
whose C was computed for another operator than the decomposition's gets
C = A U for the decomposition's operator, once, the first time any
engine or the harmonic Ritz update reads it (`_current`); `rfom2 run`
relies on this for its one refresh per changed matrix. Only `rfom_v1`,
the independent reference, accumulates its quadrature sum node by node,
in ascending node order. `rfom_v2`, and through it `arnoldi_quad` and
`rfom_v3`, sums over all nodes at once from one decomposition of its
pencil z E - F, whose E is Hermitian positive definite: one `eigh` when
F is Hermitian, as it is for Hermitian A, and otherwise the Cholesky
factor E = L L^* and one complex Schur form of L^{-1} F L^{-*}.
`rfom_v3` is `rfom_v2` plus the plain Krylov quadrature error
`arnoldi_direct - arnoldi_quad`.

On a real problem (real V, Hbar, U and C) whose nodes and coefficients
come in conjugate pairs, as on a trapezoid circle with a real centre, the
solve at conj(z) is the conjugate of the solve at z. `rfom_v1` and
`rfom_v2` then solve one node of each pair with twice its weight and
return the real part of their sum (the "imag" form of Hale, Higham and
Trefethen, 2008), so their results are float64 and `arnoldi_quad` and
`rfom_v3` share the fold through `rfom_v2`. Complex problems, and rules
or functions without that symmetry, sum every node.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg

from .arnoldi import ArnoldiDecomposition, LinearOperator, as_operator
from .core import (
    SingularMatrix,
    SingularProjector,
    SingularShift,
    SingularSystem,
    gesv_solve,
    is_hermitian,
    lu_solve,
    svd_values,
)
from .quadrature import CONJUGATE_RTOL


@dataclass
class FunctionSpec:
    """Evaluators of one matrix function: scalar_f at every point of a
    scalar or an array, dense_f on a small square array."""

    name: str
    scalar_f: callable
    dense_f: callable
    singularity: complex | None = 0.0 + 0.0j


@dataclass
class RecycleSubspace:
    """Augmentation subspace U with its image C = A U.

    The recycled engines depend on U only through span(U), so its columns
    may have any lengths. `op` is the operator C belongs to: `from_basis`
    and `harmonic_ritz_update` set it, and an engine run on a
    decomposition of another operator first replaces C, in place, by that
    operator applied to U (one block apply per subspace and operator). A C
    supplied without `op` is trusted as it stands.
    """

    U: np.ndarray
    C: np.ndarray
    op: LinearOperator | None = field(default=None, repr=False, compare=False)

    @property
    def k(self):
        return self.U.shape[1]

    @classmethod
    def empty(cls, n):
        z = np.zeros((n, 0))
        return cls(U=z, C=z.copy())

    @classmethod
    def from_basis(cls, op, U):
        """Build a subspace from basis columns; C = A U is one block apply."""
        U, op = np.asarray(U), as_operator(op)
        return cls(U=U, C=op.apply(U), op=op)


def _current(dec, rec):
    """rec, with C made A U for dec's operator if it belongs to another.

    The comparison is by identity, so a new wrapper of the same matrix
    counts as another operator. A C without an operator, or a decomposition
    without one, is left as it is.
    """
    if rec.k and rec.op is not None and dec.op is not None and rec.op is not dec.op:
        rec.C, rec.op = dec.op.apply(rec.U), dec.op
    return rec


# Relative cut, against ||U||_2, on the singular values of U's part
# outside K_j. The condition numbers of v2's pencil E = V_hat^* V_hat and
# of the harmonic Ritz pencil grow like the inverse square of the smallest
# kept singular value. On 3 recycled graded n=900 sequences (j=50, k=20,
# 4 problems each) they stayed at or below 1.3e10 and 1.7e10 with 1e-5;
# with 1e-6 they reached 1.2e12 and 2.2e12.
DEFLATION_TOL = 1e-5


def _deflate(dec, rec):
    """U' = U X, C' = C X, with X the right singular vectors of
    (I - V_j V_j^*) U above DEFLATION_TOL ||U||_2; rec when X keeps all.
    """
    if rec.k == 0:
        return rec
    U = rec.U
    _, s, Xh = np.linalg.svd(U - dec.Vj @ (dec.Vj.conj().T @ U), full_matrices=False)
    keep = s > DEFLATION_TOL * svd_values(U)[0]
    if keep.all():
        return rec
    X = Xh[keep].conj().T
    return RecycleSubspace(U=U @ X, C=rec.C @ X, op=rec.op)


def augmented_basis(dec, rec):
    """(V_hat, A V_hat) = ([U, V_j], [C, V_{j+1} Hbar]), with U deflated
    against K_j first.

    C = A U and the Arnoldi relation A V_j = V_{j+1} Hbar give A V_hat
    without a mat-vec. The harmonic Ritz update reads this pair; v2's
    pencil reads the same deflated U and C but forms only V_hat.
    """
    rec = _deflate(dec, _current(dec, rec))
    return (np.concatenate([rec.U, dec.Vj], axis=1),
            np.concatenate([rec.C, dec.V @ dec.Hbar], axis=1))


def _node_factor(fun, rule):
    """Per-node scalar multiplying the resolvent term, at one node or many.

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
    V_j q(H_j) beta e_1: `rfom_v2` on an empty subspace, whose pencil is
    (I_j, H_j) with right-hand side beta e_1."""
    return rfom_v2(dec, RecycleSubspace.empty(dec.V.shape[0]), fun, rule)


def rfom_v1(dec, rec, fun, rule):
    """Split-correction recycled approximation (Krylov and U parts separate).

    Per node it makes two LU solves, one LAPACK gesv each. The k x k
    projector z U*U - U*C solves its two right-hand sides as one block,
    z [M_j, 0] - [M Hbar, -U*b] = [z M_j - M Hbar, U*b] with M = U*V_{j+1},
    giving L = [L_M, L_b]. The projected j x j system
    (z I - H - K L_M) y = beta e_1 - K L_b, K = z V_j*U - V_j*C, gives the
    Krylov coefficients y, and L_b - L_M y the subspace coefficients. All
    products with U, C and V are formed once. At k = 0 the projector is
    empty and the j x j system is z I - H.
    """
    j, k = dec.j, rec.k
    U, C = rec.U, _current(dec, rec).C
    Uh, Vjh = U.conj().T, dec.Vj.conj().T
    M = Uh @ dec.V
    P1 = np.concatenate([Uh @ U, M[:, :j], np.zeros((k, 1))], axis=1)
    P0 = np.concatenate([Uh @ C, M @ dec.Hbar, -(Uh @ dec.b)[:, None]], axis=1)
    Q1 = np.concatenate([np.eye(j, dtype=np.complex128), Vjh @ U], axis=1)
    Q0 = np.concatenate([dec.H, Vjh @ C], axis=1)
    Vjb = dec.beta * Q1[:, 0]  # V_j^* b exactly, since v_1 = b/||b||

    t1 = np.zeros(j, dtype=np.complex128)
    t2 = np.zeros(k, dtype=np.complex128)
    nodes, weights, folded = _folded_nodes(fun, rule, dec, rec)
    for z, mu in zip(nodes, weights):
        P = z * P1 - P0  # [z U*U - U*C, z M_j - M Hbar, U*b]
        try:
            L = gesv_solve(P[:, :k], P[:, k:])
        except SingularMatrix as exc:
            raise SingularProjector(f"projector block singular at node {z}") from exc
        Q = z * Q1 - Q0  # [z I - H, K]
        K = Q[:, j:]
        try:
            y = lu_solve(Q[:, :j] - K @ L[:, :j], Vjb - K @ L[:, j])
        except SingularMatrix as exc:
            raise SingularShift(f"inner system singular at node {z}") from exc
        t1 += mu * y
        t2 += mu * (L[:, j] - L[:, :j] @ y)
    out = dec.Vj @ t1 + U @ t2
    return out.real if folded else out


def _pencil_node_sum(E, F, rhs, nodes, mu):
    """sum_l mu_l (z_l E - F)^{-1} rhs for every node at once. E must be
    Hermitian positive definite (else LinAlgError), and a node on the
    pencil's spectrum raises SingularSystem (`_check_nodes`).

    F Hermitian to `is_hermitian`'s 1e-12: one `eigh` gives F X = E X Lambda
    with X^* E X = I, so the sum is X (c * (R mu)), c = X^* rhs and
    R_il = 1/(z_l - lambda_i). Otherwise E = L L^* and the complex Schur
    form L^{-1} F L^{-*} = Z T Z^* turn every node system into the
    triangular (z_l I - T) y_l = Z^* L^{-1} rhs, back-substituted for all
    nodes at once, and the sum is L^{-*} Z sum_l mu_l y_l. L is complex
    like T and Z, so a real pencil and its complex cast share L, T and Z
    and the conjugate fold changes only the node sum.
    """
    if is_hermitian(F):
        lam, X = scipy.linalg.eigh(F, E, check_finite=False)
        gap = _check_nodes(nodes, lam)
        return X @ ((X.conj().T @ rhs) * ((1.0 / gap) @ mu))
    L = scipy.linalg.cholesky(E.astype(np.complex128), lower=True)
    solve_l = partial(scipy.linalg.solve_triangular, L, lower=True, check_finite=False)
    T, Z = scipy.linalg.schur(solve_l(solve_l(F).conj().T).conj().T, output="complex")
    gap = _check_nodes(nodes, np.diag(T))
    Y = np.empty((T.shape[0], nodes.size), dtype=np.complex128)
    c = Z.conj().T @ solve_l(rhs)
    for i in range(T.shape[0] - 1, -1, -1):
        Y[i] = (c[i] + T[i, i + 1:] @ Y[i + 1:]) / gap[i]
    return solve_l(Z @ (Y @ mu), trans="C")


def _check_nodes(nodes, lam):
    """The gaps z_l - lambda_i, indexed [i, l], with lambda the pencil's
    eigenvalues; SingularSystem at the first node with some |z_l - lambda_i|
    not above 1e-14 (|z_l| + max|lambda|)."""
    gap = nodes - lam[:, None]
    scale = np.abs(nodes) + np.max(np.abs(lam))
    singular = ~(np.abs(gap) > 1e-14 * scale).all(axis=0)
    if singular.any():
        z = nodes[np.argmax(singular)]
        raise SingularSystem(f"pencil z E - F singular at node {z}")
    return gap


def _node_weights(fun, rule):
    """mu_l = w_l * factor(z_l), the coefficient of node l's solve."""
    return rule.weights * _node_factor(fun, rule)(rule.nodes)


def _folded_nodes(fun, rule, dec, rec=None):
    """(nodes, mu, folded): the nodes and coefficients an engine sums over.

    When every array the engine reads is real (V, and so b = beta V[:, 0],
    Hbar, and U and C when k > 0) and the pairs (z_l, mu_l) are closed
    under conjugation to CONJUGATE_RTOL, the solve at conj(z) is the
    conjugate of the solve at z, so the sum is real: a node that is its
    own partner keeps mu, every other node with Im z > 0 keeps 2 mu, and
    its partner is dropped; the engine then takes the real part of its sum
    (folded is True). Otherwise all nodes keep mu (folded is False).
    """
    mu = _node_weights(fun, rule)
    arrays = [dec.V, dec.Hbar]
    if rec is not None and rec.k:
        arrays += [rec.U, _current(dec, rec).C]
    partner = rule.conjugate_partner if all(np.isrealobj(a) for a in arrays) else None
    if partner is None \
            or np.max(np.abs(mu[partner] - mu.conj())) > CONJUGATE_RTOL * np.max(np.abs(mu)):
        return rule.nodes, mu, False
    z = rule.nodes
    alone = partner == np.arange(z.size)
    keep = alone | (z.imag > z.imag[partner])
    return z[keep], np.where(alone, mu, 2.0 * mu)[keep], True


def _v2_pencil(dec, rec):
    """v2's node matrix V_hat^* (z I - A) V_hat as z E - F, V_hat = [U, V_j]
    with U deflated against K_j.

    E = V_hat^* V_hat and F = V_hat^* A V_hat, from C = A U and with the
    V_j blocks filled analytically: V_j^* V_j = I and
    V_j^* A V_j = V_j^* V_{j+1} Hbar = H. Returns (V_hat, E, F, V_hat^* b),
    where V_j^* b = beta e_1.
    """
    rec = _deflate(dec, _current(dec, rec))
    U, C, j = rec.U, rec.C, dec.j
    Uh, Vjh = U.conj().T, dec.Vj.conj().T
    UV = Uh @ dec.V
    E = np.block([[Uh @ U, UV[:, :j]], [Vjh @ U, np.eye(j)]])
    F = np.block([[Uh @ C, UV @ dec.Hbar], [Vjh @ C, dec.H]])
    Vhb = np.concatenate([Uh @ dec.b, dec.beta * np.eye(j, 1)[:, 0]])
    return np.concatenate([U, dec.Vj], axis=1), E, F, Vhb


def rfom_v2(dec, rec, fun, rule):
    """Compact recycled approximation: one (k+j) system per quadrature node.

    The node systems form the pencil z E - F of `_v2_pencil`, and one
    `eigh`, or one Cholesky factor and complex Schur form, of it serves
    all of them (`_pencil_node_sum`).
    """
    Vhat, E, F, Vhb = _v2_pencil(dec, rec)
    nodes, mu, folded = _folded_nodes(fun, rule, dec, rec)
    y = _pencil_node_sum(E, F, Vhb, nodes, mu)
    return Vhat @ (y.real if folded else y)


def rfom_v3(dec, rec, fun, rule):
    """rfom_v2 plus the plain Krylov quadrature error V_j (f(H) - q(H)) beta e_1.

    The paper's v3 evaluates f in closed form on y0, the coefficients of
    b in the augmented basis, and leaves only a correction to the
    quadrature. Arnoldi starts from b, so b = V_j beta e_1 has no U
    component: y0 = [0; beta e_1], the U block drops out, and the
    correction is V_j (f(H) - q(H)) beta e_1 = arnoldi_direct - arnoldi_quad,
    with q(H) the quadrature of f on H. So v3 is two v2 node sums, on U
    and on the empty subspace, and one dense f(H); it gains over v2 only
    in the Krylov part, and it fails only where v2 or f(H) fails.
    """
    return rfom_v2(dec, rec, fun, rule) + arnoldi_direct(dec, fun) - arnoldi_quad(dec, fun, rule)
