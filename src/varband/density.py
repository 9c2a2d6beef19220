"""Beurling densities adapted to the bandwidth profile, on finite windows.

All counting happens in the warped coordinate z = zeta(x), where an interval
of mu_p-length r is an ordinary interval of length r.  Finite windows only
allow finite-r surrogates of the asymptotic densities; reports always carry
the scanned r values and never claim the true limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profile import _unpack
from .sampling import _points, frame_bounds_estimate
from .spectral import SpectralSet, _physical_memory, uniform_quadrature


class DensityError(ValueError):
    pass


@dataclass
class DensityReport:
    r_values: list
    lower: list  # inf count / r per r
    upper: list  # sup count / r per r

    @property
    def d_minus(self):
        return self.lower[-1]

    @property
    def d_plus(self):
        return self.upper[-1]


def _warped_points(profile, X):
    return np.sort(np.atleast_1d(profile.zeta(_points(X))))


def sliding_counts(z, window_z, r):
    """(min, max) of #(z in [t, t+r)) over t in [a, b - r], exact for sorted z.

    The count changes only where t or t + r meets a point, so it is constant
    between consecutive candidates {a, b - r, z_i, z_i - r}; the candidates
    inside [a, b - r] and the midpoints between them see every value, the
    midpoints even where t + r rounds across a point.
    """
    a, b = window_z
    if b - a < r:
        raise DensityError(f"window of warped length {b - a:g} too small for r={r:g}")
    c = np.concatenate(([a, b - r], z, z - r))
    c = np.unique(c[(c >= a) & (c <= b - r)])
    t = np.concatenate((c, 0.5 * (c[:-1] + c[1:])))
    counts = np.searchsorted(z, t + r, side="left") - np.searchsorted(z, t, side="left")
    return int(counts.min()), int(counts.max())


def beurling_density(profile, X, r_list, window):
    """Finite-window estimates of the adapted lower/upper Beurling densities."""
    z = _warped_points(profile, X)
    a, b = _unpack(window)
    wz = (float(profile.zeta(a)), float(profile.zeta(b)))
    r_list = sorted(float(r) for r in r_list)
    if r_list and r_list[-1] > (wz[1] - wz[0]) / 4:
        raise DensityError("largest r exceeds a quarter of the warped window")
    lower, upper = [], []
    for r in r_list:
        cmin, cmax = sliding_counts(z, wz, r)
        lower.append(cmin / r)
        upper.append(cmax / r)
    return DensityReport(r_list, lower, upper)


def separation(profile, X):
    """(min consecutive mu_p gap, relative-separation constant n0).

    n0 is the max number of points in a half-open unit mu_p interval [t, t+1).
    Sliding t up to the next point never loses one, so the maximum is attained
    with t at a point and is exact.
    """
    z = _warped_points(profile, X)
    if z.size < 2:
        raise DensityError("need at least two points")
    min_gap = float(np.min(np.diff(z)))
    n0 = np.max(np.searchsorted(z, z + 1.0, side="left") - np.arange(z.size))
    return min_gap, int(n0)


def gap_density_bound(profile, X, window=None):
    """Max-gap eta and the induced density lower bound.

    Returns (eta, 1/eta, measured D_p^-, holds). D_p^- is counted on windows
    of mu_p-length r_max, a quarter of the warped window (the span of the
    points when ``window`` is None), and the inequality is checked with the
    finite-window slack 3 / r_max.
    """
    eta = profile.max_gap_delta(_points(X))
    z = _warped_points(profile, X)
    if window is None:
        wz = (float(z[0]), float(z[-1]))
    else:
        a, b = _unpack(window)
        wz = (float(profile.zeta(a)), float(profile.zeta(b)))
    r_max = (wz[1] - wz[0]) / 4
    cmin, _ = sliding_counts(z, wz, r_max)
    d_minus = cmin / r_max
    holds = bool(d_minus >= 1.0 / eta - 3.0 / r_max)
    return float(eta), 1.0 / float(eta), float(d_minus), holds


# float64 per point of a quasi-uniform set: the lattice, its points and zeta_inv's temporaries
_POINT_FLOATS = 8


def quasi_uniform_set(profile, density, window):
    """Points with exact mu_p-density: zeta_inv of a uniform lattice.

    A set whose tables would not fit in physical memory raises
    `DensityError` before any of them is allocated.
    """
    a, b = _unpack(window)
    za, zb = float(profile.zeta(a)), float(profile.zeta(b))
    n = np.floor((zb - za) * density)
    if not n >= 2:
        raise DensityError("window too small for the requested density")
    need, memory = 8.0 * _POINT_FLOATS * n, _physical_memory()
    if need > memory:
        raise DensityError(f"a set of density {density:g} on the window has {n:.3g} points, "
                           f"which need {need:.3g} bytes, more than the {memory:.3g} bytes "
                           "of physical memory")
    zs = za + (np.arange(int(n)) + 0.5) / density
    return np.asarray(profile.zeta_inv(zs), dtype=float)


@dataclass
class LandauSweepResult:
    densities: list
    windows: list
    a_table: np.ndarray  # (n_density, n_window)
    b_table: np.ndarray
    gram_min_table: np.ndarray
    threshold_low: float
    threshold_high: float
    critical: float


def landau_sweep(model_builder, profile, sset, density_grid, window_halfwidths):
    """Empirical frame-bound sweep over target mu_p-densities.

    ``model_builder(warped_halfwidth)`` must return a spectral model whose
    quadrature is matched to the warped window (spacing pi / W keeps the
    degrees of freedom honest).  For each density the sample set is quasi
    uniform in warped coordinates.  A density cell counts as degenerating if
    A_est / B_est at the largest window has dropped below 0.2 times its
    value at the smallest; the reported bracket is the last degenerating and
    first stabilizing density.  Finite-window estimate only.
    """
    if not isinstance(sset, SpectralSet):
        sset = SpectralSet(sset)
    densities = sorted(float(d) for d in density_grid)
    windows = sorted(float(w) for w in window_halfwidths)
    nd, nw = len(densities), len(windows)
    A = np.zeros((nd, nw))
    B = np.zeros((nd, nw))
    Gm = np.zeros((nd, nw))
    for j, wz in enumerate(windows):
        model = model_builder(wz)
        x_lo = float(profile.zeta_inv(-wz))
        x_hi = float(profile.zeta_inv(wz))
        for i, d in enumerate(densities):
            X = quasi_uniform_set(profile, d, (x_lo, x_hi))
            a_est, b_est = frame_bounds_estimate(model, X, window=(x_lo, x_hi))
            A[i, j], B[i, j] = a_est, b_est
            # interpolation-side diagnostic: smallest eigenvalue of the
            # normalized Gram of the kernel sections
            K = model.kernel_matrix(X, X)
            dk = np.sqrt(np.clip(np.diag(K), 1e-300, None))
            Gm[i, j] = float(np.linalg.eigvalsh(K / np.outer(dk, dk)).min())
    ratios = (A[:, -1] / np.maximum(B[:, -1], 1e-300)) / np.maximum(
        A[:, 0] / np.maximum(B[:, 0], 1e-300), 1e-300
    )
    degenerating = ratios < 0.2
    thr_low = max((d for d, bad in zip(densities, degenerating) if bad), default=float("nan"))
    thr_high = min((d for d, bad in zip(densities, degenerating) if not bad), default=float("nan"))
    critical = sset.sqrt_measure / np.pi
    return LandauSweepResult(densities, windows, A, B, Gm, thr_low, thr_high, critical)


def matched_free_model_builder(sset):
    """Standard builder for `landau_sweep` on the unwarped free case."""
    from .kernel import free_model

    if not isinstance(sset, SpectralSet):
        sset = SpectralSet(sset)

    def build(wz):
        return free_model(sset, quad=uniform_quadrature(sset, np.pi / wz))

    return build
