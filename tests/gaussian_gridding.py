"""Gaussian gridding of the lattice transforms: the reference for the ES-kernel plan.

`GaussianGridding` is a `spectral._Gridding` whose window is the periodic
Gaussian g(x) = sum_k sqrt(tau / pi) exp(-tau k^2) exp(i k x) instead of the
exponential of semicircle: 2w taps of exp(-x^2 / (4 tau)) and deconvolution
by 1 / g_k = sqrt(pi / tau) exp(tau k^2) (Greengard and Lee, SIAM Review 46,
2004). It needs w <= 17, 34 taps, for the 8u remainder that the
exponential of semicircle meets with 18. Tests substitute it for
`spectral._Gridding` to compare the two plans.
"""

from functools import lru_cache

import numpy as np

from varband import spectral

U = 2.0**-53


@lru_cache(maxsize=64)
def gaussian_sizing(top):
    """(half-width w, grid size M, Gaussian variance tau, remainder) for modes |k| <= top.

    M is the smallest 5-smooth number at or above max(4 (top + 1), 2w). Both
    transforms are within eps sum |input| of the exact sums, where

        eps = sum_{p != 0} exp(-tau ((K + p M)^2 - K^2))                (aliasing)
            + sqrt(pi / tau) exp(tau K^2) / M
              * 2 sum_{j >= w} exp(-(j h)^2 / (4 tau))                  (truncation)

    at K = top and h = 2 pi / M. tau is Greengard and Lee's balance
    pi w / (M (M - K)), and w the smallest half-width with eps <= 8u. The
    sums keep |p| <= 3 and 40 terms of j; the terms left out are below 1e-40
    of the first.
    """
    p = np.array([-3, -2, -1, 1, 2, 3])
    for width in range(1, 64):
        size = spectral._five_smooth(max(4 * (top + 1), 2 * width))
        tau = np.pi * width / (size * (size - top))
        alias = np.exp(-tau * ((top + p * size) ** 2 - top**2)).sum()
        j = np.arange(width, width + 40)
        tail = 2 * np.exp(-(j * (2 * np.pi / size)) ** 2 / (4 * tau)).sum()
        remainder = alias + np.sqrt(np.pi / tau) * np.exp(tau * top**2) * tail / size
        if remainder <= 8 * U:
            return width, size, tau, float(remainder)
    raise ValueError(f"no Gaussian gridding of modes up to {top} meets 8u")


class GaussianGridding(spectral._Gridding):
    """A `spectral._Gridding` with the Gaussian window of `gaussian_sizing`."""

    def __init__(self, first, spacing, count, t, grid, n_grids):
        width, size, tau, self.remainder = gaussian_sizing(count)
        self.count, self.size, self.n_grids = count, size, n_grids
        phase = np.exp(1j * first * t)
        if 2 * first == spacing:
            self.prephase = phase[None]
        else:
            self.prephase = np.stack((phase, np.exp(1j * (spacing - first) * t)))
        k = np.arange(count) + np.arange(2)[:, None]  # |mode|: l and l + 1
        self.deconvolve = np.exp(k * k * tau) * np.sqrt(np.pi / tau)
        steps = (spacing * size / (2 * np.pi)) * t
        below = np.floor(steps)
        taps = np.arange(1 - width, width + 1)
        self.index = grid[:, None] * size + (below.astype(np.intp)[:, None] + taps) % size
        gap = (steps - below)[:, None] - taps
        self.weights = np.exp(-(gap * (2 * np.pi / size)) ** 2 / (4 * tau))
