"""Contour and Stieltjes quadrature rules."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfom2 import (
    CircleContour,
    QuadratureRule,
    arnoldi,
    arnoldi_quad,
    eig_dense,
    function_catalog,
    guarded_contour,
    stieltjes_invsqrt,
    suggest_contour,
    trapezoid_contour,
)
from rfom2.engines import _folded_nodes
from rfom2.quadrature import CONJUGATE_RTOL
from rfom2.problems import gen_convection_diffusion_2d, gen_laplacian_2d


def contour_sum(rule, g):
    return np.sum(rule.weights * g(rule.nodes))


class TestTrapezoid:
    def test_resolvent_at_center_exact(self):
        c = 1.5 + 0.5j
        for n in (2, 3, 16, 101):
            rule = trapezoid_contour(CircleContour(c, 2.0), n)
            val = contour_sum(rule, lambda z: 1.0 / (z - c))
            assert abs(val - 1.0) <= 1e-14

    def test_exp_over_z(self):
        contour = CircleContour(0.0 + 0.0j, 1.0)
        errs = []
        for n in (8, 16, 32):
            rule = trapezoid_contour(contour, n)
            val = contour_sum(rule, lambda z: np.exp(z) / z)
            errs.append(abs(val - 1.0))
        # exponential convergence: >= 10x drop per doubling until the floor
        for a, b in zip(errs, errs[1:]):
            assert b <= a / 10 or a <= 1e-14

    def test_pole_outside_is_zero(self):
        rule = trapezoid_contour(CircleContour(0.0 + 0.0j, 1.0), 64)
        val = contour_sum(rule, lambda z: 1.0 / (z - 3.0))
        assert abs(val) <= 1e-14

    def test_weight_sum_zero(self):
        for n in (2, 7, 64):
            rule = trapezoid_contour(CircleContour(2.0 + 1.0j, 0.7), n)
            assert abs(np.sum(rule.weights)) <= 1e-14

    def test_node_layout(self):
        rule = trapezoid_contour(CircleContour(1.0 + 0.0j, 2.0), 4)
        assert rule.n_quad == 4
        assert np.allclose(rule.nodes, [3.0, 1.0 + 2.0j, -1.0, 1.0 - 2.0j], atol=1e-14)
        assert np.allclose(rule.weights, [0.5, 0.5j, -0.5, -0.5j], atol=1e-14)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            trapezoid_contour(CircleContour(0.0, 1.0), 1)


class TestStieltjes:
    def test_scalar_values(self):
        rule = stieltjes_invsqrt(64)
        for z, expect in ((1.0, 1.0), (4.0, 0.5), (2.0, 0.7071067811865476)):
            val = np.sum(rule.weights / (rule.nodes - z))
            assert abs(val - expect) <= 1e-8

    def test_nodes_negative(self):
        rule = stieltjes_invsqrt(40)
        assert np.all(rule.nodes.real < 0)
        assert np.allclose(rule.nodes.imag, 0.0)
        assert rule.kind == "stieltjes"

    def test_built_once_per_node_count(self):
        # the rule is shared between callers, so its arrays are read-only
        rule = stieltjes_invsqrt(30)
        assert stieltjes_invsqrt(30) is rule
        for a in (rule.nodes, rule.weights, rule.conjugate_partner):
            with pytest.raises(ValueError):
                a[0] = 0


class TestContourSuggestion:
    def test_single_point(self):
        c = suggest_contour([5.0 + 0.0j], 0.1)
        assert c.center == 5.0 and abs(c.radius - 0.5) <= 1e-14

    def test_two_points(self):
        c = suggest_contour([1.0, 3.0], 0.1)
        assert abs(c.center - 2.0) <= 1e-14
        assert abs(c.radius - 1.1) <= 1e-14

    def test_encloses_laplacian_spectrum(self):
        from rfom2 import arnoldi

        # random rhs excites all 10 distinct eigenvalues; the Krylov space
        # exhausts and the Ritz values reach the spectrum's edges
        A = gen_laplacian_2d(4).toarray()
        rng = np.random.default_rng(0)
        dec = arnoldi(A, rng.standard_normal(16), 12)
        ritz, _ = eig_dense(dec.H, hermitian=False)
        c = suggest_contour(ritz, 0.1)
        w, _ = eig_dense(A, hermitian=True)
        assert np.all(np.abs(w - c.center) < c.radius)

    def test_guarded_excludes_singularity(self):
        est = np.array([0.5, 2.0, 8.0], dtype=complex)
        c = guarded_contour(est, 0.1, singularity=0.0)
        assert np.all(np.abs(est - c.center) < c.radius)
        assert abs(0.0 - c.center) > c.radius

    def test_guarded_single_point(self):
        # one estimate whose plain circle holds the singularity: the guarded
        # circle still has a positive radius that separates the two
        c = guarded_contour([0.015], 0.1, singularity=0.0)
        assert abs(0.015 - c.center) < c.radius < abs(0.0 - c.center)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_guarded_radius_outside_the_float_range(self, scale):
        # need * avail overflows at 1e160 and underflows at 1e-170: the
        # radius is still the scaled radius of the unscaled estimates
        est = scale * np.array([1.0, 8.0], dtype=complex)
        c = guarded_contour(est, 1.0, singularity=0.0)
        assert 0.0 < c.radius < np.inf
        assert np.all(np.abs(est - c.center) < c.radius) and abs(c.center) > c.radius
        assert c.radius == pytest.approx(scale * np.sqrt(3.5 * 4.5), rel=1e-15)

    def test_guarded_no_singularity_falls_back(self):
        est = [1.0, 3.0]
        assert guarded_contour(est, 0.1, singularity=None) == suggest_contour(est, 0.1)

    def test_guarded_inseparable(self):
        with pytest.raises(ValueError):
            guarded_contour([-1.0, 1.0], 0.1, singularity=0.0)


class TestConjugatePartner:
    """Each node's conjugate among the nodes, matched by distance."""

    @pytest.mark.parametrize("n_quad", [2, 3, 8, 9, 1000, 1001])
    def test_trapezoid_circle_with_real_centre(self, n_quad):
        # the theta = 0 node and, for even n_quad, the theta = pi node
        # (Im z = r sin pi, not 0) are their own partners; node l pairs
        # with node n_quad - l
        rule = trapezoid_contour(CircleContour(50.75 + 0.0j, 49.3), n_quad)
        if n_quad % 2 == 0:
            assert rule.nodes[n_quad // 2].imag != 0.0
        expected = -np.arange(n_quad) % n_quad
        assert np.array_equal(rule.conjugate_partner, expected)

    def test_stieltjes_nodes_are_their_own_partners(self):
        rule = stieltjes_invsqrt(7)
        assert np.array_equal(rule.conjugate_partner, np.arange(7))

    def test_unpaired_nodes_have_none(self):
        assert trapezoid_contour(CircleContour(5.0 + 0.5j, 4.0), 16).conjugate_partner is None
        rule = QuadratureRule(nodes=[1.0 + 1.0j, 2.0 - 1.0j], weights=[1.0, 1.0])
        assert rule.conjugate_partner is None


def assert_conjugate_pairing(rule):
    """The pairing a constructor sets is an involution that maps every node
    and every weight to its conjugate, to CONJUGATE_RTOL."""
    p = rule.conjugate_partner
    assert np.array_equal(p[p], np.arange(rule.n_quad))
    for a in (rule.nodes, rule.weights):
        assert np.max(np.abs(a.conj() - a[p])) <= CONJUGATE_RTOL * np.max(np.abs(a))


class TestConstructorPairing:
    """The engines fold on the constructors' pairing without checking the
    nodes; these are the checks."""

    @settings(max_examples=200, deadline=None)
    @given(center=st.floats(-1e3, 1e3), radius=st.floats(1e-3, 1e3),
           n_quad=st.integers(2, 5000))
    @example(center=50.75, radius=49.3, n_quad=2)
    @example(center=0.1, radius=1.0, n_quad=5000)
    @example(center=-1e3, radius=1e-3, n_quad=4999)
    def test_trapezoid_circle_with_real_centre(self, center, radius, n_quad):
        assert_conjugate_pairing(trapezoid_contour(CircleContour(complex(center), radius),
                                                   n_quad))

    @pytest.mark.parametrize("n_quad", [1, 2, 7, 30, 1000])
    def test_stieltjes(self, n_quad):
        assert_conjugate_pairing(stieltjes_invsqrt(n_quad))


class TestRealCentre:
    def test_real_nonsymmetric_h_gets_a_real_centre(self):
        # the Ritz values of a real H come in exact conjugate pairs, whose
        # imaginary parts need not average to 0 in floating point; the
        # centre is real, so arnoldi_quad folds its conjugate node pairs
        A = gen_convection_diffusion_2d(20, 1.0)
        dec = arnoldi(A, np.random.default_rng(0).standard_normal(400), 50)
        est = np.linalg.eigvals(dec.H)
        assert np.any(est.imag != 0.0)
        fun = function_catalog("inverse")
        assert suggest_contour(est, 0.1).center.imag == 0.0
        contour = guarded_contour(est, 0.1, singularity=fun.singularity)
        assert contour.center.imag == 0.0
        rule = trapezoid_contour(contour, 200)
        assert _folded_nodes(fun, rule, dec)[2]
        assert arnoldi_quad(dec, fun, rule).dtype == np.float64

    def test_estimates_not_closed_keep_their_mean(self):
        est = np.array([1.0 + 1.0j, 3.0 + 0.5j])
        assert suggest_contour(est, 0.1).center == 2.0 + 0.75j
        assert guarded_contour(est, 0.1, singularity=0.0).center.imag == 0.75
