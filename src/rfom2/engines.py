"""The five approximation engines for f(A) b.

`arnoldi_direct` and `arnoldi_quad` are the plain Krylov baselines; the
three recycled engines consume an additional augmentation subspace U
with C = A U carried across problems, and `arnoldi_quad` is `rfom_v2` on
an empty one. All engines are pure functions of (decomposition,
subspace, function, rule), apart from one in-place refresh: a subspace
whose C was computed for another operator than the decomposition's gets
C = A U for the decomposition's operator, once, the first time any
engine reads it (`_current`). Only `rfom_v1`, the independent
reference, accumulates its quadrature sum node by node, in ascending node
order. `rfom_v2`, and through it `arnoldi_quad` and `rfom_v3`, sums over
all nodes at once from one decomposition of its pencil z E - F: one
`eigh` when the pencil is Hermitian-definite, as it is for Hermitian A,
and one complex QZ otherwise. `rfom_v3` is `rfom_v2` plus the plain
Krylov quadrature error `arnoldi_direct - arnoldi_quad`.

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

import numpy as np
import scipy.linalg

from .arnoldi import ArnoldiDecomposition, LinearOperator, as_operator
from .core import (
    NoConvergence,
    SingularMatrix,
    SingularProjector,
    SingularShift,
    SingularSystem,
    is_hermitian,
    lu_factor,
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
    (I_j, H_j) with right-hand side beta e_1 and balancing s = 1."""
    return rfom_v2(dec, RecycleSubspace.empty(dec.V.shape[0]), fun, rule)


def rfom_v1(dec, rec, fun, rule):
    """Split-correction recycled approximation (Krylov and U parts separate).

    Per node solves the projected j x j system for the Krylov
    coefficients and back-substitutes the subspace coefficients through
    the one-time products U*U, U*C, V_j*U, V_j*C and U*V_{j+1}.
    """
    j, k = dec.j, rec.k
    U, C = rec.U, _current(dec, rec).C
    b = dec.b
    Ij = np.eye(j, dtype=np.complex128)
    e1 = np.zeros(j, dtype=np.complex128)
    e1[0] = 1.0

    UU = U.conj().T @ U
    UC = U.conj().T @ C
    VjU = dec.Vj.conj().T @ U
    VjC = dec.Vj.conj().T @ C
    M = U.conj().T @ dec.V
    MH = M @ dec.Hbar
    Ub = U.conj().T @ b
    Vjb = dec.beta * e1  # V_j^* b exactly, since v_1 = b/||b||

    t1 = np.zeros(j, dtype=np.complex128)
    t2 = np.zeros(k, dtype=np.complex128)
    nodes, weights, folded = _folded_nodes(fun, rule, dec, rec)
    for z, mu in zip(nodes, weights):
        if k:
            Mbar = z * M[:, :j] - MH
            try:
                F = lu_factor(z * UU - UC)
            except SingularMatrix as exc:
                raise SingularProjector(f"projector block singular at node {z}") from exc
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
    return out.real if folded else out


def _pencil_node_sum(E, F, rhs, nodes, mu):
    """sum_l mu_l (z_l E - F)^{-1} rhs for every node at once.

    A Hermitian-definite pencil, E and F Hermitian to `is_hermitian`'s
    1e-12 and E positive definite, goes through one `eigh`; any other
    pencil, and any on which `eigh` fails, through one complex QZ.
    """
    if is_hermitian(E) and is_hermitian(F):
        try:
            return _eigh_node_sum(E, F, rhs, nodes, mu)
        except scipy.linalg.LinAlgError:
            pass  # E is not positive definite
    return _qz_node_sum(E, F, rhs, nodes, mu)


def _check_nodes(diag, nodes, scale):
    """Raise SingularSystem at the first node l with some
    |diag_il| <= 1e-14 scale_l, scale_l being the size of z_l E - F."""
    singular = ~(np.abs(diag) > 1e-14 * scale).all(axis=0)
    if singular.any():
        z = nodes[np.argmax(singular)]
        raise SingularSystem(f"pencil z E - F singular at node {z}")


def _eigh_node_sum(E, F, rhs, nodes, mu):
    """The node sum of a Hermitian-definite pencil from one `eigh`.

    F X = E X Lambda with X^* E X = I gives
    (z E - F)^{-1} = X (z - Lambda)^{-1} X^*, so the sum is
    X (c * (R mu)) with c = X^* rhs and R_il = 1/(z_l - lambda_i): O(m)
    per node. A node is singular when some |z_l - lambda_i| is not above
    1e-14 (|z_l| + max|lambda|). Raises LinAlgError when E is not positive
    definite.
    """
    lam, X = scipy.linalg.eigh(F, E, check_finite=False)
    gap = nodes - lam[:, None]
    _check_nodes(gap, nodes, np.abs(nodes) + np.max(np.abs(lam)))
    return X @ ((X.conj().T @ rhs) * ((1.0 / gap) @ mu))


def _qz_node_sum(E, F, rhs, nodes, mu):
    """The node sum of any pencil from one complex QZ.

    With F = Q T Z^* and E = Q S Z^* (T, S upper triangular), every node
    system becomes the triangular (z_l S - T) y_l = Q^* rhs. Back
    substitution runs over the m rows for all nodes at once, and the sum
    is Z sum_l mu_l y_l. A node is singular when a diagonal entry
    |z_l S_ii - T_ii| is not above 1e-14 (|z_l| max|E| + max|F|).
    """
    m = E.shape[0]
    try:
        T, S, Q, Z = scipy.linalg.qz(F, E, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(f"QZ iteration failed: {exc}") from exc
    diag = nodes * np.diag(S)[:, None] - np.diag(T)[:, None]
    _check_nodes(diag, nodes, np.abs(nodes) * np.max(np.abs(E)) + np.max(np.abs(F)))
    Y = np.empty((m, nodes.size), dtype=np.complex128)
    c = Q.conj().T @ rhs
    for i in range(m - 1, -1, -1):
        Yi = Y[i + 1:]
        Y[i] = (c[i] - nodes * (S[i, i + 1:] @ Yi) + T[i, i + 1:] @ Yi) / diag[i]
    return Z @ (Y @ mu)


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

    The node systems form the pencil z E - F of `_v2_pencil`; one `eigh`
    or QZ of it serves all of them. QZ loses digits when the columns of
    V_hat differ widely in length, so the pencil is balanced first by the
    exact power-of-two diagonal s = 2^-round(log2 sqrt(diag E)); unit
    columns, every V_j column among them, get s = 1.
    """
    Vhat, E, F, Vhb = _v2_pencil(dec, rec)
    s = 2.0 ** -np.round(np.log2(np.sqrt(np.diag(E).real)))
    nodes, mu, folded = _folded_nodes(fun, rule, dec, rec)
    y = _pencil_node_sum(s[:, None] * E * s, s[:, None] * F * s, s * Vhb, nodes, mu)
    return Vhat @ (s * (y.real if folded else y))


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
