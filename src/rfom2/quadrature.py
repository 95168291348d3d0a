"""Quadrature rules for the Cauchy contour and the Stieltjes interval.

Weights carry all constant prefactors (1/(2*pi*i) for contours, -1/pi for
the inverse square root) so that every consumer uniformly computes
sum_l w_l * f(z_l) * x(z_l).
"""

from dataclasses import dataclass, field

import numpy as np

from .core import NoSeparatingContour


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
    return QuadratureRule(
        nodes=ring + contour.center,
        weights=ring / n_quad,
        kind="contour",
        contour=contour,
    )


def stieltjes_invsqrt(n_quad):
    """Quadrature rule for z^{-1/2} on the interval (-inf, 0].

    Built by substituting sigma = -t^2 (so z^{-1/2} = (2/pi) times the
    integral of (t^2 + z)^{-1} over t in [0, inf)), then mapping
    t = (1 - u) / (1 + u) onto u in (-1, 1] and applying Gauss-Legendre.
    Nodes are negative reals; weights fold in all prefactors so that
    sum_l w_l / (sigma_l - z) approximates z^{-1/2}.
    """
    if n_quad < 1:
        raise ValueError("need at least one node")
    u, w = np.polynomial.legendre.leggauss(n_quad)
    t = (1.0 - u) / (1.0 + u)
    sigma = -(t**2)
    weights = -(2.0 / np.pi) * w * 2.0 / (1.0 + u) ** 2
    return QuadratureRule(nodes=sigma, weights=weights, kind="stieltjes")


def suggest_contour(spectrum_estimates, margin):
    """Circle at the estimates' centroid enclosing them with a margin."""
    est = np.asarray(spectrum_estimates, dtype=np.complex128).reshape(-1)
    if est.size == 0:
        raise ValueError("need at least one spectrum estimate")
    center = complex(np.mean(est))
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
    margin (the explicit margin argument only shapes the fallback).
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
    center = complex((lo + hi) / 2.0, float(np.mean(est.imag)))
    need = float(np.max(np.abs(est - center)))
    avail = abs(s - center)
    if avail <= need:
        raise NoSeparatingContour(
            "cannot separate the singularity from the spectrum estimates with a circle"
        )
    radius = float(np.sqrt(need * avail))
    return CircleContour(center=center, radius=radius)
