"""Quadrature rules for the Cauchy contour and the Stieltjes interval.

Weights carry all constant prefactors (1/(2*pi*i) for contours, -1/pi for
the inverse square root) so that every consumer uniformly computes
sum_l w_l * f(z_l) * x(z_l).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import NoSeparatingContour

# Relative tolerance, against max|mu|, to which a node sum's coefficients
# mu_l = w_l f(z_l) must be closed under the rule's conjugate pairing for
# the engines to fold the pairs; the rules' own nodes are paired by
# construction. Over trapezoid circles with 2 to 5000 nodes, centres 0.1
# to 1000 and radii 1 to 49.3, the pairs matched to 6.4e-16 in z and to
# 4.0e-14 in mu for inverse, invsqrt, sqrt, log and exp (the largest
# where the circle passes 1.45 from the singularity of 1/z).
CONJUGATE_RTOL = 1e-12


@dataclass(frozen=True)
class CircleContour:
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("contour radius must be positive")


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    kind: str = "contour"
    contour: CircleContour | None = field(default=None, compare=False)
    # partner[l], the index of the node at conj(z_l), set by the
    # constructors that pair their nodes; None for unpaired nodes
    conjugate_partner: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=np.complex128))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.complex128))
        if self.nodes.shape != self.weights.shape or self.nodes.size < 1:
            raise ValueError("nodes and weights must be nonempty and of equal length")

    @property
    def n_quad(self):
        return self.nodes.size


def trapezoid_contour(contour, n_quad):
    """Trapezoidal rule on a circle; exponentially accurate for analytic g.

    Nodes z_l = r e^{i th_l} + c at equidistant angles; the weight
    (r e^{i th_l}) / n_quad absorbs the 1/(2*pi*i) prefactor and the
    Jacobian of the parameterization, so sum_l w_l g(z_l) approximates
    the mean-value contour integral of g.
    """
    if n_quad < 2:
        raise ValueError("need at least 2 nodes on a closed contour")
    theta = 2.0 * np.pi * np.arange(n_quad) / n_quad
    ring = contour.radius * np.exp(1j * theta)
    # on a real centre node l pairs with node n - l (theta_{n-l} = 2 pi -
    # theta_l); the theta = 0 and theta = pi nodes pair with themselves
    partner = -np.arange(n_quad) % n_quad if np.imag(contour.center) == 0 else None
    return QuadratureRule(
        nodes=ring + contour.center,
        weights=ring / n_quad,
        kind="contour",
        contour=contour,
        conjugate_partner=partner,
    )


@functools.lru_cache(maxsize=64)
def stieltjes_invsqrt(n_quad):
    """Quadrature rule for z^{-1/2} on the interval (-inf, 0].

    Built by substituting sigma = -t^2 (so z^{-1/2} = (2/pi) times the
    integral of (t^2 + z)^{-1} over t in [0, inf)), then mapping
    t = (1 - u) / (1 + u) onto u in (-1, 1] and applying Gauss-Legendre.
    Nodes are negative reals; weights fold in all prefactors so that
    sum_l w_l / (sigma_l - z) approximates z^{-1/2}. The rule depends on
    n_quad alone, so it is built once per node count and shared; its
    arrays are read-only.
    """
    if n_quad < 1:
        raise ValueError("need at least one node")
    u, w = np.polynomial.legendre.leggauss(n_quad)
    t = (1.0 - u) / (1.0 + u)
    sigma = -(t**2)
    weights = -(2.0 / np.pi) * w * 2.0 / (1.0 + u) ** 2
    rule = QuadratureRule(nodes=sigma, weights=weights, kind="stieltjes",
                          conjugate_partner=np.arange(n_quad))
    for a in (rule.nodes, rule.weights, rule.conjugate_partner):
        a.flags.writeable = False
    return rule


def _centre_imag(est, mean_imag):
    """The centre's imaginary part: exactly 0 when the estimates are closed
    under conjugation, as LAPACK returns the eigenvalues of a real matrix
    (their mean imaginary part can read 1e-18), else mean_imag."""
    if np.array_equal(np.sort_complex(est), np.sort_complex(est.conj())):
        return 0.0
    return float(mean_imag)


def suggest_contour(spectrum_estimates, margin):
    """Circle at the estimates' centroid enclosing them with a margin."""
    est = np.asarray(spectrum_estimates, dtype=np.complex128).reshape(-1)
    if est.size == 0:
        raise ValueError("need at least one spectrum estimate")
    mean = np.mean(est)
    center = complex(mean.real, _centre_imag(est, mean.imag))
    maxdist = float(np.max(np.abs(est - center)))
    if maxdist == 0.0:
        radius = margin * max(abs(center), 1.0)
    else:
        radius = (1.0 + margin) * maxdist
    return CircleContour(center=center, radius=radius)


def guarded_contour(spectrum_estimates, margin, singularity=None):
    """Enclosing circle that additionally keeps a singular point outside.

    Falls back to suggest_contour when no singularity is given or the
    plain circle already excludes it. Otherwise the trapezoid error on
    the circle decays like (need/avail)^(n/2), where need is the
    spectral radius about the center and avail the distance from the
    center to the singularity; the center that maximizes avail/need for
    real estimates is the midpoint of their real range, and the
    geometric-mean radius sqrt(need * avail) balances the inner and
    outer clearance of the annulus of analyticity. The radius then
    exceeds the enclosing minimum by sqrt(avail/need), which is the
    margin (the explicit margin argument only shapes the fallback); a
    single point (need = 0) gets the radius avail / 2. Where need * avail
    leaves the float range, the radius is sqrt(need) sqrt(avail).
    Raises NoSeparatingContour when no such circle exists.
    """
    contour = suggest_contour(spectrum_estimates, margin)
    if singularity is None:
        return contour
    s = complex(singularity)
    if abs(s - contour.center) > contour.radius * (1.0 + 1e-9):
        return contour
    est = np.asarray(spectrum_estimates, dtype=np.complex128).reshape(-1)
    re = est.real
    lo, hi = float(np.min(re)), float(np.max(re))
    center = complex((lo + hi) / 2.0, _centre_imag(est, np.mean(est.imag)))
    need = float(np.max(np.abs(est - center)))
    avail = abs(s - center)
    if avail <= need:
        raise NoSeparatingContour(
            "cannot separate the singularity from the spectrum estimates with a circle"
        )
    radius = float(np.sqrt(need * avail)) if need > 0.0 else 0.5 * avail
    if not 0.0 < radius < np.inf:  # need * avail left the float range
        radius = float(np.sqrt(need) * np.sqrt(avail))
    return CircleContour(center=center, radius=radius)
