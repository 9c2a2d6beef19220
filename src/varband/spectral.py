"""Spectral sets on the positive half-axis and quadrature rules on their square roots.

All frequency-domain integrals in this package are performed after the
substitution lambda = omega**2, i.e. over the set
``Lambda^{1/2} = {omega >= 0 : omega**2 in Lambda}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SpectralSetError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralSet:
    """Finite union of disjoint closed intervals ``[a, b]`` with ``a >= 0``."""

    intervals: tuple

    def __init__(self, intervals):
        ivs = [(float(a), float(b)) for a, b in intervals]
        ivs.sort()
        for a, b in ivs:
            if a < 0:
                raise SpectralSetError(f"interval [{a}, {b}] extends below 0")
            if b < a:
                raise SpectralSetError(f"interval [{a}, {b}] is reversed")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 <= b0:
                raise SpectralSetError("intervals overlap or touch")
        object.__setattr__(self, "intervals", tuple(ivs))

    @property
    def measure(self):
        return sum(b - a for a, b in self.intervals)

    @property
    def lambda_max(self):
        return self.intervals[-1][1]

    @property
    def sqrt_intervals(self):
        """Intervals of ``Lambda^{1/2}`` in the omega variable."""
        return tuple((np.sqrt(a), np.sqrt(b)) for a, b in self.intervals)

    @property
    def sqrt_measure(self):
        return sum(b - a for a, b in self.sqrt_intervals)


@dataclass(frozen=True)
class SpectralQuadrature:
    """Nodes/weights discretizing ``int_{Lambda^{1/2}} . d omega``.

    Nodes lie strictly inside the omega intervals (omega = 0 is always
    excluded); for Gauss rules the weights sum to ``|Lambda^{1/2}|`` up to
    roundoff, for the window-matched uniform rule the covered measure may be
    slightly truncated (see `uniform_quadrature`).
    """

    sset: SpectralSet
    nodes: np.ndarray
    weights: np.ndarray
    order: int
    covered_measure: float = field(default=0.0)

    def __post_init__(self):
        if self.nodes.size == 0:
            raise SpectralSetError("empty spectral quadrature")
        if np.any(self.weights <= 0):
            raise SpectralSetError("quadrature weights must be positive")

    def __len__(self):
        return self.nodes.size


def gauss_legendre_quadrature(sset, x_max=10.0):
    """Composite 8-point Gauss-Legendre rule on Lambda^{1/2}.

    Panel width is capped at ``pi / (8 x_max)`` so that the oscillation of
    exp(i omega x) is resolved for |x| <= x_max.
    """
    order = 8
    gx, gw = np.polynomial.legendre.leggauss(order)
    max_panel = np.pi / (8.0 * x_max)
    nodes, weights = [], []
    for a, b in sset.sqrt_intervals:
        if b <= a:
            continue
        n_panels = max(1, int(np.ceil((b - a) / max_panel)))
        edges = np.linspace(a, b, n_panels + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            nodes.append(0.5 * (lo + hi) + half * gx)
            weights.append(half * gw)
    if not nodes:
        raise SpectralSetError(f"spectral set {sset.intervals} has zero measure")
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    return SpectralQuadrature(sset, nodes, weights, order, float(weights.sum()))


def uniform_quadrature(sset, spacing):
    """Midpoint rule with fixed node spacing, for window-matched discretizations.

    With ``spacing = pi / W`` the plane waves exp(+-i omega_l x) attached to the
    nodes are orthogonal over ``[-W, W]``, which makes the discretized sampling
    problem an honest finite model of the window.  A sliver of measure less
    than ``spacing`` may be dropped at the top of each interval.
    """
    nodes, weights = [], []
    for a, b in sset.sqrt_intervals:
        n = int(np.floor((b - a) / spacing + 1e-12))
        if n == 0:
            continue
        nodes.append(a + (np.arange(n) + 0.5) * spacing)
        weights.append(np.full(n, spacing))
    if not nodes:
        raise SpectralSetError(
            f"spacing {spacing} too coarse for spectral set {sset.intervals}"
        )
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    return SpectralQuadrature(sset, nodes, weights, 1, float(weights.sum()))
