"""The five approximation engines for f(A) b.

`arnoldi_direct` and `arnoldi_quad` are the plain Krylov baselines; the
three recycled engines consume an additional augmentation subspace U with
C = A U carried across problems, and `arnoldi_quad` is `rfom_v2` on an
empty one. All engines are pure functions of (decomposition, subspace,
function, rule), apart from one in-place refresh and one memo. The
refresh: a subspace whose C was computed for another operator than the
decomposition's gets C = A U for the decomposition's operator, once, the
first time any engine or the harmonic Ritz update reads it (`_current`);
`rfom2 run` calls `_current` itself, right after Arnoldi, for its one
refresh per changed matrix. The
memo: each projected pencil, and its decomposition, is built once per
decomposition and kept in it (`_projection`), so the engines and the
update read it in any order and get the bits of a fresh build. It rests
on a contract: a decomposition's V and Hbar and a subspace's U and C are
not written in place once an engine has read them; a new C is a new
array, as `_current` makes it. Every engine but `arnoldi_direct`, and
the harmonic Ritz update, reads one projection of A onto [U, V_j], U
deflated against K_j by the eigenvalues of its k x k Gram block
(`_augmented_pencil`); `arnoldi_direct` reads the empty subspace's
decomposition, one of H_j, for a function evaluated through eigenvalues.
Only `rfom_v1`, the independent reference, accumulates its quadrature sum
node by node, in ascending node order. `rfom_v2`, and through it
`arnoldi_quad` and `rfom_v3`, sums over all nodes at once from one
decomposition of its pencil z E - F, whose E is Hermitian positive
definite: one `eigh` when F is Hermitian, as it is for Hermitian A, and
otherwise the Cholesky factor E = L L^* and one complex Schur form of
L^{-1} F L^{-*}. `_decompose` reduces every pencil, `arnoldi_direct` and
the harmonic Ritz update read eigenpairs off its form (`_eigenpairs`), and
`rfom_v3` is `rfom_v2` plus the Krylov quadrature error `arnoldi_direct -
arnoldi_quad`.

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

from .arnoldi import LinearOperator, as_operator
from .core import (
    IllConditionedEigenbasis,
    SingularMatrix,
    SingularProjector,
    SingularShift,
    SingularSystem,
    eig_dense,
    gesv_solve,
    is_hermitian,
    lu_solve,
    norm,
)
from .quadrature import CONJUGATE_RTOL


def _eigen_apply(scalar_f, w, P, B, unitary):
    """P f(diag(w)) P^{-1} B, with f = scalar_f on the eigenvalues w and B a
    vector or a block of columns; P^{-1} is P^* when P is unitary."""
    fw = scalar_f(w).reshape((-1,) + (1,) * (np.ndim(B) - 1))
    if unitary:
        return P @ (fw * (P.conj().T @ B))
    return P @ (fw * np.linalg.solve(P, B))


def _eigenbasis_bound(P):
    """An upper bound on cond_2(P), inf when P's R factor is singular.

    With P = Q R, cond_2(P) = ||P||_2 ||R^{-1}||_2 <= ||P||_F ||R^{-1}||_F
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 15):
    one QR and one triangular inverse (`?trtri`), where cond_2 itself takes
    an SVD. At n = 400, complex, they cost about 15 against 35 ms.
    """
    R = scipy.linalg.qr(P, mode="r", check_finite=False)[0]
    trtri, = scipy.linalg.get_lapack_funcs(("trtri",), (R,))
    R_inv, info = trtri(R, overwrite_c=1)
    return norm(P) * norm(R_inv) if info == 0 else np.inf


def _check_eigenbasis(P, limit):
    """Raise IllConditionedEigenbasis unless cond_2(P) < limit.

    A bound below limit (`_eigenbasis_bound`) passes P without an SVD.
    Otherwise, a bound at or above limit, a singular R or a bound that is
    not finite, np.linalg.cond(P) decides, and the error carries its value,
    so every decision is cond_2's own. A P with an entry that is not
    finite has cond_2 = inf without an SVD, whose LAPACK call does not
    converge on a NaN. The oracle's eigenvector matrix (cut at 1e8) and
    H_j's (`_EigenRoute`, 1e10) are checked here.
    """
    if _eigenbasis_bound(P) < limit:
        return
    cond = np.linalg.cond(P) if np.isfinite(P).all() else np.inf
    if not np.isfinite(cond) or cond >= limit:
        raise IllConditionedEigenbasis(f"eigenvector condition {cond:.2e}")


class _EigenRoute:
    """dense_f through an eigendecomposition M = P diag(w) P^{-1}, scalar_f
    on the eigenvalues: `eigh` when M is Hermitian to `is_hermitian`'s
    1e-12, else `eig`, which raises IllConditionedEigenbasis unless cond(P)
    is below 1e10 (`_check_eigenbasis`). `arnoldi_direct` evaluates it from
    the memo's decomposition of H_j instead of decomposing H_j again."""

    def __init__(self, scalar_f):
        self.scalar_f = scalar_f

    def __call__(self, M):
        M = np.asarray(M)
        hermitian = is_hermitian(M)
        w, P = eig_dense(M, hermitian=hermitian)
        return self.apply(w, P, np.eye(M.shape[0]), unitary=hermitian)

    def apply(self, w, P, B, unitary):
        """f(M) B from M = P diag(w) P^{-1}, with P checked against the 1e10
        cut when it is not unitary."""
        if not unitary:
            _check_eigenbasis(P, 1e10)
        return _eigen_apply(self.scalar_f, w, P, B, unitary)


@dataclass
class FunctionSpec:
    """Evaluators of one matrix function: scalar_f at every point of a
    scalar or an array, dense_f on a small square array. A dense_f left at
    None becomes the `_EigenRoute` of scalar_f."""

    name: str
    scalar_f: callable
    dense_f: callable = None
    singularity: complex | None = 0.0 + 0.0j

    def __post_init__(self):
        if self.dense_f is None:
            self.dense_f = _EigenRoute(self.scalar_f)


@dataclass
class RecycleSubspace:
    """Augmentation subspace U with its image C = A U.

    The recycled engines depend on U only through span(U), so its columns
    may have any lengths. `op` is the operator C belongs to: `from_basis`
    and `harmonic_ritz_update` set it, and an engine run on a
    decomposition of another operator first replaces C, in place, by that
    operator applied to U (one block apply per subspace and operator). A C
    supplied without `op` is trusted as it stands. U and C are not written
    in place once an engine has read them: a decomposition's memo keys its
    pencil on their identity, so a changed C must be a new array.
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


# Relative cut on U's part outside K_j: the eigenvalues of its Gram matrix
# S = U^*U - (V_j^*U)^*(V_j^*U) above DEFLATION_TOL^2 lambda_max(U^*U), i.e.
# its singular values above DEFLATION_TOL ||U||_2. The condition numbers of
# E = V_hat^* V_hat and of the harmonic Ritz pencil grow like the inverse
# square of the smallest kept singular value: on 3 recycled graded n=900
# sequences (j=50, k=20, 4 problems each), at most 1.3e10 and 1.7e10 with
# 1e-5, and 1.2e12 and 2.2e12 with 1e-6, measured with an SVD of that part
# that kept the same k.
DEFLATION_TOL = 1e-5


def augmented_basis(dec, rec):
    """(V_hat, A V_hat) = ([U', V_j], [C', V_{j+1} Hbar]), (U', C') deflated by
    `_augmented_pencil`: the explicit pair, which no engine reads, that the
    tests check `_augmented_pencil` and `harmonic_ritz_pencil` against."""
    rec = _augmented_pencil(dec, rec)[0]
    return (np.concatenate([rec.U, dec.Vj], axis=1),
            np.concatenate([rec.C, dec.V @ dec.Hbar], axis=1))


def arnoldi_direct(dec, fun):
    """||b|| V_j f(H_j) e_1, with f evaluated densely on the Hessenberg matrix.

    An `_EigenRoute` f reads H_j's eigenpairs off the memo (`_eigenpairs`):
    the empty subspace's pencil is (I_j, H_j), which `arnoldi_quad`
    decomposes too, so Hermitian H_j gives H_j = X diag(lambda) X^* with X
    unitary, and otherwise the Cholesky factor of I_j is I_j and the
    eigenvectors P = Z Y come from the complex Schur form H_j = Z T Z^*.
    Any other dense_f, and a real non-Hermitian H_j, whose real `eig` keeps
    f(H_j) real where its eigenvalues are and a complex Schur form would
    not, call dense_f on H_j.
    """
    if not isinstance(fun.dense_f, _EigenRoute) \
            or (np.isrealobj(dec.Hbar) and not is_hermitian(dec.H)):
        return dec.beta * (dec.Vj @ fun.dense_f(dec.H)[:, 0])
    form = _projection(dec, RecycleSubspace.empty(dec.V.shape[0])).form()
    w, P = _eigenpairs(form)
    y = fun.dense_f.apply(w, P, np.eye(dec.j, 1)[:, 0], unitary=form[2] is None)
    return dec.beta * (dec.Vj @ y)


def arnoldi_quad(dec, fun, rule):
    """Quadrature form of the Arnoldi approximation (the "Arnoldi (q)" baseline),
    V_j q(H_j) beta e_1: `rfom_v2` on an empty subspace, whose pencil is
    (I_j, H_j) with right-hand side beta e_1."""
    return rfom_v2(dec, RecycleSubspace.empty(dec.V.shape[0]), fun, rule)


def rfom_v1(dec, rec, fun, rule):
    """Split-correction recycled approximation (Krylov and U parts separate).

    It reads `_augmented_pencil`'s blocks and per node makes two LU
    solves, one LAPACK gesv each. The k x k projector z U*U - U*C solves
    its two right-hand sides, the rest of the top rows of z E - F and
    U*b, as one block, giving L = [L_M, L_b]. The projected j x j system
    (z I - H - K L_M) y = beta e_1 - K L_b, K = z V_j*U - V_j*C, gives the
    Krylov coefficients y, and L_b - L_M y the subspace coefficients. At
    k = 0 the projector is empty, nothing is subtracted, and the j x j
    system is z I - H.
    """
    rec, E, F, Vhb = _augmented_pencil(dec, rec)
    j, k = dec.j, rec.k
    P1 = np.concatenate([E[:k], np.zeros((k, 1))], axis=1)
    P0 = np.concatenate([F[:k], -Vhb[:k, None]], axis=1)
    t1 = np.zeros(j, dtype=np.complex128)
    t2 = np.zeros(k, dtype=np.complex128)
    nodes, weights, folded = _folded_nodes(fun, rule, dec, rec)
    for z, mu in zip(nodes, weights):
        Q = z * E[k:] - F[k:]  # [K, z I - H]
        M, r = Q[:, k:], Vhb[k:]
        if k:
            P = z * P1 - P0  # [z U*U - U*C, z U*V_j - U*V Hbar, U*b]
            try:
                L = gesv_solve(P[:, :k], P[:, k:])
            except SingularMatrix as exc:
                raise SingularProjector(f"projector block singular at node {z}") from exc
            K = Q[:, :k]
            M, r = M - K @ L[:, :j], r - K @ L[:, j]
        try:
            y = lu_solve(M, r)
        except SingularMatrix as exc:
            raise SingularShift(f"inner system singular at node {z}") from exc
        t1 += mu * y
        if k:
            t2 += mu * (L[:, j] - L[:, :j] @ y)
    out = dec.Vj @ t1 + rec.U @ t2
    return out.real if folded else out


def _decompose(E, F):
    """(T, Z, solve_l), the one decomposition of a pencil z E - F: v2's,
    H_j's or the harmonic Ritz update's, read by `_node_sum` and
    `_eigenpairs`. E must be Hermitian positive definite (else LinAlgError).

    F Hermitian to `is_hermitian`'s 1e-12: one `eigh` gives F Z = E Z T
    with Z^* E Z = I and T the vector of eigenvalues, and solve_l is None.
    Otherwise E = L L^* and the complex Schur form L^{-1} F L^{-*} = Z T Z^*,
    with solve_l(X) = L^{-1} X and solve_l(X, trans="C") = L^{-*} X. L is
    complex like T and Z, so a real pencil and its complex cast share L, T
    and Z and the conjugate fold changes only the node sum.
    """
    if is_hermitian(F):
        lam, X = scipy.linalg.eigh(F, E, check_finite=False)
        return lam, X, None
    L = scipy.linalg.cholesky(E.astype(np.complex128), lower=True)
    solve_l = partial(scipy.linalg.solve_triangular, L, lower=True, check_finite=False)
    T, Z = scipy.linalg.schur(solve_l(solve_l(F).conj().T).conj().T, output="complex")
    return T, Z, solve_l


def _eigenpairs(form):
    """(w, X) with F X = E X diag(w), from the `_decompose` form of z E - F:
    `eigh`'s pairs, with X^* E X = I, or, from the Schur form, the
    eigenvalues w and eigenvectors Y of the triangular T and X = L^{-*} Z Y."""
    T, Z, solve_l = form
    if solve_l is None:
        return T, Z
    w, Y = eig_dense(T)
    return w, solve_l(Z @ Y, trans="C")


def _node_sum(form, rhs, nodes, mu):
    """sum_l mu_l (z_l E - F)^{-1} rhs from the pencil's `_decompose` form;
    a node on the pencil's spectrum raises SingularSystem (`_check_nodes`).

    Hermitian: the sum is Z (c * (R mu)), c = Z^* rhs and
    R_il = 1/(z_l - T_i). Otherwise every node system becomes the
    triangular (z_l I - T) y_l = Z^* L^{-1} rhs, back-substituted for all
    nodes at once, and the sum is L^{-*} Z sum_l mu_l y_l.
    """
    T, Z, solve_l = form
    if solve_l is None:
        gap = _check_nodes(nodes, T)
        return Z @ ((Z.conj().T @ rhs) * ((1.0 / gap) @ mu))
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
    """mu_l, the coefficient of node l's solve: w_l f(z_l) on a contour
    rule, and w_l on a Stieltjes rule, whose weights absorb f's density."""
    if rule.kind == "stieltjes":
        return rule.weights
    return rule.weights * fun.scalar_f(rule.nodes)


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


def _augmented_pencil(dec, rec):
    """(rec', E, F, V_hat^* b): A projected onto V_hat = [U', V_j], with
    rec' = (U', C') the subspace deflated against K_j, as the pencil
    V_hat^* (z I - A) V_hat = z E - F, from the memo (`_projection`). E,
    F and V_hat^* b are read-only."""
    return _projection(dec, rec).pencil


class _Projection:
    """A memo entry: the pencil of one subspace on one decomposition, and
    the `_decompose` form of that pencil once an engine reads it."""

    def __init__(self, source, pencil):
        self.source, self.pencil, self._form = source, pencil, None
        for a in pencil[1:]:
            a.flags.writeable = False

    def form(self):
        if self._form is None:
            self._form = _decompose(*self.pencil[1:3])
            for a in self._form[:2]:
                a.flags.writeable = False
        return self._form


def _projection(dec, rec):
    """The memo entry of rec on dec, built on the first read.

    The key is the identity of rec, rec.U and rec.C, after `_current` has
    made C A U for dec's operator, so a replaced C, a new subspace or a new
    decomposition builds anew. The entry holds those three objects, so a
    key in the memo names the same three objects while it lives. Every
    empty subspace of one dtype shares one entry: `RecycleSubspace.empty`
    makes a new object on each call.
    """
    rec = _current(dec, rec)
    source = (rec, rec.U, rec.C)
    key = (rec.U.dtype, rec.C.dtype) if rec.k == 0 else tuple(map(id, source))
    entry = dec._memo.get(key)
    if entry is None:
        entry = dec._memo[key] = _Projection(source, _build_pencil(dec, rec))
    return entry


def _build_pencil(dec, rec):
    """`_augmented_pencil`, built: the blocks come from C = A U, the V_j
    blocks filled analytically: V_j^* V_j = I,
    V_j^* A V_j = V_j^* V_{j+1} Hbar = H and V_j^* b = beta e_1. A caller
    that needs V_hat forms [U', V_j]. The deflation reads the k x k blocks:
    X, the eigenvectors of S = U^*U - (U^*V_j)(U^*V_j)^* that pass
    `DEFLATION_TOL`'s cut, gives U' = U X, C' = C X and the U blocks'
    congruence by X; rec' is rec when X keeps every column.
    """
    U, C, j = rec.U, rec.C, dec.j
    Uh = U.conj().T
    UU, UV, UC, VjC, Ub = Uh @ U, Uh @ dec.V, Uh @ C, dec.Vj.conj().T @ C, Uh @ dec.b
    if rec.k:
        lam, X = np.linalg.eigh(UU - UV[:, :j] @ UV[:, :j].conj().T)
        keep = lam > DEFLATION_TOL ** 2 * np.linalg.eigvalsh(UU)[-1]
        if not keep.all():
            X, Xh = X[:, keep], X[:, keep].conj().T
            rec = RecycleSubspace(U=U @ X, C=C @ X, op=rec.op)
            UU, UV, UC, Ub = Xh @ UU @ X, Xh @ UV, Xh @ UC @ X, Xh @ Ub
            VjC = VjC @ X
    # V_j^*U is the adjoint of U^*V_j, not a product of its own, so E's
    # off-diagonal blocks are adjoints to the bit
    E = np.block([[UU, UV[:, :j]], [UV[:, :j].conj().T, np.eye(j)]])
    F = np.block([[UC, UV @ dec.Hbar], [VjC, dec.H]])
    Vhb = np.concatenate([Ub, dec.beta * np.eye(j, 1)[:, 0]])
    return rec, E, F, Vhb


def rfom_v2(dec, rec, fun, rule):
    """Compact recycled approximation: one (k+j) system per quadrature node.

    The node systems form the pencil z E - F of `_augmented_pencil`, and
    one `eigh`, or one Cholesky factor and complex Schur form, of it serves
    all of them (`_node_sum`); the memo keeps that decomposition for the
    next engine on the same subspace.
    """
    entry = _projection(dec, rec)
    rec, _, _, Vhb = entry.pencil
    nodes, mu, folded = _folded_nodes(fun, rule, dec, rec)
    y = _node_sum(entry.form(), Vhb, nodes, mu)
    return np.concatenate([rec.U, dec.Vj], axis=1) @ (y.real if folded else y)


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
