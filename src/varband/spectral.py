"""Spectral sets on the positive half-axis and quadrature rules on their square roots.

All frequency-domain integrals in this package are performed after the
substitution lambda = omega**2, i.e. over the set
``Lambda^{1/2} = {omega >= 0 : omega**2 in Lambda}``.

Each rule builds its nodes as block sums omega = o_k + d_j of two short
lists, non-negative shifts o_k and offsets d_j, and records that
factorisation; the nodes are defined as the sums, so it holds bit for bit.
`SpectralQuadrature.waves` uses it to tabulate the plane waves
(cos omega t, sin omega t) by angle addition, with sin and cos evaluated
only on the rows of shifts and of offsets.

The Gauss-Legendre rule takes no resolution setting: given the largest phase
its plane waves reach, it uses the widest panels whose classical remainder
meets u = 2**-53 per unit measure, and records that remainder as
``error_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isqrt

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


@dataclass(frozen=True, eq=False)
class SpectralQuadrature:
    """Nodes/weights discretizing ``int_{Lambda^{1/2}} . d omega``.

    Nodes lie strictly inside the omega intervals (omega = 0 is always
    excluded). ``covered_measure`` is the sum of the weights: ``|Lambda^{1/2}|``
    up to roundoff for Gauss rules, possibly slightly less for the
    window-matched uniform rule (see `uniform_quadrature`).

    ``blocks`` factorises the nodes: one ``(shifts, offsets, count)`` triple
    per run of nodes, whose nodes are the first ``count`` of the sums
    ``shifts[k] + offsets[j]``, k major, with every shift and offset >= 0.
    Without it the nodes are their own offsets behind the one shift 0.

    ``error_bound`` is the Gauss-Legendre rule's guaranteed remainder for a
    unit plane wave of the frequencies it was sized for (see
    `gauss_legendre_quadrature`); it is None for the midpoint rule. Two
    quadratures compare and hash by identity.
    """

    sset: SpectralSet
    nodes: np.ndarray
    weights: np.ndarray
    order: int
    blocks: tuple = None
    error_bound: float = None

    def __post_init__(self):
        if self.nodes.size == 0:
            raise SpectralSetError("empty spectral quadrature")
        if np.any(self.weights <= 0):
            raise SpectralSetError("quadrature weights must be positive")
        if self.blocks is None:
            object.__setattr__(self, "blocks", ((np.zeros(1), self.nodes, self.nodes.size),))
        if (any(np.any(o < 0) or np.any(d < 0) for o, d, _ in self.blocks)
                or not np.array_equal(_block_sums(self.blocks), self.nodes)):
            raise SpectralSetError("nodes are not the sums of non-negative shifts and offsets")

    def __len__(self):
        return self.nodes.size

    @property
    def covered_measure(self):
        return float(self.weights.sum())

    def waves(self, t):
        """(cos omega t, sin omega t) at every node and point, float64 of shape (2, n, m).

        With omega = o + d from ``blocks``, angle addition gives

            cos omega t = cos(o t) cos(d t) - sin(o t) sin(d t)
            sin omega t = sin(o t) cos(d t) + cos(o t) sin(d t),

        so sin and cos run only on the rows of shifts and offsets (2 ceil(sqrt n)
        rows for a uniform rule, n/16 + 16 for a Gauss-Legendre rule, instead of
        n), and each block's products are written straight into the output
        through one block-sized scratch: no (n, m) temporary is formed.

        Bound: every entry is within 8u (1 + omega |t|) of the exact value at
        the float64 node and t, u = 2**-53. Since o, d >= 0, the rounding of
        the two phases o t and d t adds up to at most u omega |t|, as in the
        one phase of the direct cos(omega t); centred offsets (d < 0) would
        add u (|o| + |d|) |t| instead, about 30u (1 + omega |t|) at the lowest
        Gauss nodes.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((2, self.nodes.size, t.size))
        cos, sin = out
        row = 0
        for shifts, offsets, count in self.blocks:
            co, so = _cos_sin(shifts, t)
            ci, si = _cos_sin(offsets, t)
            scratch = np.empty_like(ci)
            for k in range(shifts.size):
                j = min(offsets.size, count - k * offsets.size)
                c, s, tmp = cos[row:row + j], sin[row:row + j], scratch[:j]
                np.multiply(ci[:j], co[k], out=c)
                c -= np.multiply(si[:j], so[k], out=tmp)
                np.multiply(si[:j], co[k], out=s)
                s += np.multiply(ci[:j], so[k], out=tmp)
                row += j
        return out


_GL_ORDER = 16  # points per Gauss-Legendre panel
_GL_TOLERANCE = 2.0**-53  # remainder allowed per unit measure of Lambda^{1/2}
_GL_CONSTANT = factorial(_GL_ORDER) ** 4 / ((2 * _GL_ORDER + 1) * factorial(2 * _GL_ORDER) ** 3)
# the widest panel phase H s whose remainder c_q (H s)^(2q) meets the tolerance
_GL_PANEL_PHASE = (_GL_TOLERANCE / _GL_CONSTANT) ** (1.0 / (2 * _GL_ORDER))


def _cos_sin(freqs, t):
    """cos and sin of the outer product freqs t, as two (len(freqs), len(t)) arrays."""
    phase = np.multiply.outer(freqs, t)
    return np.cos(phase), np.sin(phase, out=phase)


def _block_sums(blocks):
    """The nodes a factorisation defines: per triple, the first count of shifts[k] + offsets[j]."""
    return np.concatenate([np.add.outer(o, d).ravel()[:count] for o, d, count in blocks])


def gauss_legendre_quadrature(sset, t_max=10.0):
    """Composite 16-point Gauss-Legendre rule on Lambda^{1/2}, sized by its error bound.

    ``t_max`` is the largest phase |t| of the tables exp(i omega t) the rule
    integrates, so every kernel, a product of two tables, is a sum of plane
    waves of frequency at most s = 2 t_max; tables of larger phase are
    outside the bound, and the rule loses accuracy fast past it. On a panel of width H the
    q-point rule integrates f with error at most c_q H^(2q+1) max |f^(2q)|,
    c_q = (q!)^4 / ((2q + 1) ((2q)!)^3) (its Peano kernel has one sign, so
    this holds for complex f too), which is H c_q (H s)^(2q) for a unit plane
    wave. Each interval gets the fewest equal panels with
    c_q (H s)^(2q) <= u = 2**-53, i.e. H s <= (u / c_q)^(1/(2q)), about 16.0
    at q = 16; ``error_bound`` is the resulting |Lambda^{1/2}| c_q (H s)^(2q),
    summed over the intervals. The nodes of an interval are its panels' left
    edges (the shifts) plus the sixteen offsets h (1 + x_j) (h the half panel
    width, x_j the Legendre roots), which are non-negative, unlike the
    centred h x_j. A rule of more nodes than an array can index raises
    `SpectralSetError`.
    """
    gx, gw = np.polynomial.legendre.leggauss(_GL_ORDER)
    s = 2.0 * float(t_max)
    blocks, weights, bound = [], [], 0.0
    for a, b in sset.sqrt_intervals:
        if b <= a:
            continue
        panels = float(np.ceil((b - a) * s / _GL_PANEL_PHASE))
        # checked before anything is allocated; also refuses an infinite phase
        if not _GL_ORDER * panels <= np.iinfo(np.intp).max:
            raise SpectralSetError(f"a Gauss-Legendre rule for phases up to {t_max:g} needs "
                                   f"{_GL_ORDER * panels:g} nodes, more than an array can index")
        n_panels = max(1, int(panels))
        h = 0.5 * (b - a) / n_panels
        edges = np.linspace(a, b, n_panels + 1)
        blocks.append((edges[:-1], h * (1.0 + gx), _GL_ORDER * n_panels))
        weights.append(((0.5 * np.diff(edges))[:, None] * gw).ravel())
        bound += (b - a) * _GL_CONSTANT * (2.0 * h * s) ** (2 * _GL_ORDER)
    if not blocks:
        raise SpectralSetError(f"spectral set {sset.intervals} has zero measure")
    return SpectralQuadrature(sset, _block_sums(blocks), np.concatenate(weights), _GL_ORDER,
                              tuple(blocks), bound)


def uniform_quadrature(sset, spacing):
    """Midpoint rule with fixed node spacing, for window-matched discretizations.

    With ``spacing = pi / W`` the plane waves exp(+-i omega_l x) attached to the
    nodes are orthogonal over ``[-W, W]``, which makes the discretized sampling
    problem an honest finite model of the window.  A sliver of measure less
    than ``spacing`` may be dropped at the top of each interval. The n nodes
    of an interval [a, b] come in blocks of B = ceil(sqrt(n)): offsets
    a + (j + 1/2) spacing for j < B, shifted by q B spacing.
    """
    blocks, weights = [], []
    for a, b in sset.sqrt_intervals:
        n = int(np.floor((b - a) / spacing + 1e-12))
        if n == 0:
            continue
        size = isqrt(n - 1) + 1
        blocks.append((np.arange(-(-n // size)) * (size * spacing),
                       a + (np.arange(size) + 0.5) * spacing, n))
        weights.append(np.full(n, spacing))
    if not blocks:
        raise SpectralSetError(
            f"spacing {spacing} too coarse for spectral set {sset.intervals}"
        )
    return SpectralQuadrature(sset, _block_sums(blocks), np.concatenate(weights), 1,
                              tuple(blocks))
