"""The real path against the complex path it replaces.

Arithmetic keeps the input's dtype, so a real problem stays float64 up to
the quadrature nodes. The same sequence with its base matrix cast to
complex128 runs every stage in complex arithmetic; both paths draw the
same random numbers, so they solve the same problems and must agree to
rounding.
"""

import numpy as np
import pytest

from rfom2 import (
    ProblemSequence,
    RecycleSubspace,
    arnoldi,
    as_operator,
    function_catalog,
    gen_graded_hermitian,
    gen_perturbation_sequence,
    guarded_contour,
    harmonic_ritz_update,
    stieltjes_invsqrt,
    subspace_angle,
    trapezoid_contour,
)
from rfom2.cli import ENGINES
from rfom2.problems import oracle_apply, oracle_eig

# Largest relative gap between the paths over graded seeds 0, 1, 2, 4, 7, 11
# is 1.4e-13 for any engine or the oracle; the two paths' recycled
# subspaces came up to 2.5e-10 apart in angle (5.6e-12 on the seed used here).
VECTOR_TOL = 1e-12
ANGLE_TOL = 1e-10


def relerr(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def rule_for(function, dec, fun):
    if function == "invsqrt":
        return stieltjes_invsqrt(30)
    estimates = np.linalg.eigvals(dec.H)
    return trapezoid_contour(guarded_contour(estimates, 0.1, fun.singularity), 64)


@pytest.mark.parametrize("eps", [0.0, 1e-4])
def test_real_path_matches_complex_path(eps):
    n, j, k = 200, 30, 8
    base = gen_graded_hermitian(n, seed=0)
    paths = [gen_perturbation_sequence(ProblemSequence(base=B, length=4, eps=eps,
                                                       seed=0, hermitian=True))
             for B in (base, base.astype(np.complex128))]
    functions = {name: function_catalog(name) for name in ("invsqrt", "inverse", "log")}
    U = np.zeros((n, 0))
    for (A, b), (Ac, bc) in zip(*paths):
        assert A.dtype == b.dtype == np.float64
        assert Ac.dtype == np.complex128
        # both paths recycle the same U, so the engines meet the same input
        op, opc = as_operator(A), as_operator(Ac)
        rec, recc = RecycleSubspace.from_basis(op, U), RecycleSubspace.from_basis(opc, U)
        dec, decc = arnoldi(op, b, j), arnoldi(opc, bc, j)
        assert dec.V.dtype == dec.Hbar.dtype == np.float64
        eig, eigc = oracle_eig(A, hermitian=True), oracle_eig(Ac, hermitian=True)
        assert eig.Z.dtype == eig.reflectors.dtype == eig.tau.dtype == np.float64
        for name, fun in functions.items():
            ref = oracle_apply(fun, eigc, bc)
            assert relerr(oracle_apply(fun, eig, b), ref) <= VECTOR_TOL
            rule, rulec = rule_for(name, dec, fun), rule_for(name, decc, fun)
            for engine, call in ENGINES.items():
                x, xc = call(dec, rec, fun, rule), call(decc, recc, fun, rulec)
                assert relerr(x, xc) <= VECTOR_TOL, (name, engine)
        new, newc = harmonic_ritz_update(dec, rec, op, k), harmonic_ritz_update(decc, recc, opc, k)
        assert new.C.dtype == np.float64 and new.k == newc.k == k
        assert subspace_angle(new.U, newc.U) <= ANGLE_TOL
        U = new.U
