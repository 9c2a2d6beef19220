"""Fundamental solutions of -(p phi')' = lambda phi and the two-plateau spectral measure.

The first-order system used throughout is u = (phi, p phi'); both components
are continuous across jumps of p, so carrying the state vector through a
breakpoint IS the matching condition.  One fixed-step RK4 integrator for linear
2x2 systems, with mandatory breakpoint nodes and coefficients tabulated once
per segment, is shared with the scattering module.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .profile import CubicHermite, _unpack


class IntegrationError(RuntimeError):
    pass


class SpectralDensityError(ValueError):
    pass


def rk4_segments(x0, x1, step, breakpoints=()):
    """Segments (start, end, n_steps) of a fixed-step run from x0 to x1.

    Points of `breakpoints` strictly between x0 and x1 become segment edges,
    so no step straddles a coefficient discontinuity; each segment takes the
    fewest equal steps no longer than `step`.
    """
    if step <= 0:
        raise IntegrationError("step must be positive")
    lo, hi = min(x0, x1), max(x0, x1)
    inner = sorted(b for b in breakpoints if lo < b < hi)
    edges = [x0] + (inner if x1 > x0 else inner[::-1]) + [x1]
    return [(a, b, max(1, int(np.ceil(abs(b - a) / step))))
            for a, b in zip(edges[:-1], edges[1:])]


def rk4_linear(a, b, c, x0, x1, y0, step, breakpoints=(), path=False):
    """Classical RK4 for u0' = a(x) u1, u1' = (b(x) - c) u0 from x0 to x1.

    y0 has shape (2, ...) and c broadcasts over the trailing axes, so a whole
    frequency sweep (c = omega^2) or a single eigenvalue (c = lambda)
    integrates in one pass.  The stage abscissae do not depend on c: per
    segment of `rk4_segments`, the coefficients a and b are tabulated at all
    nodes, half-steps and end-steps by one vectorised call each, strictly
    inside the open segment so that stages at a breakpoint never pick the
    wrong one-sided limit.  Returns the final state, or with ``path=True``
    (grid, states) with grid in integration order and states of shape
    (len(grid), 2, ...).
    """
    segments = rk4_segments(x0, x1, step, breakpoints)
    y = np.asarray(y0, dtype=complex)
    xs, ys = [np.array([x0])], [y[None, ...]]
    if x1 == x0:
        return (xs[0], ys[0]) if path else y
    for start, end, n in segments:
        h = (end - start) / n
        nodes = start + h * np.arange(n)
        eps = 1e-9 * abs(h)
        stages = np.clip(np.stack([nodes, nodes + h / 2, nodes + h]),
                         min(start, end) + eps, max(start, end) - eps)
        A = np.broadcast_to(np.asarray(a(stages), dtype=float), stages.shape)
        B = np.broadcast_to(np.asarray(b(stages), dtype=float), stages.shape)
        out = np.empty((n,) + y.shape, dtype=complex) if path else None
        u, v = y
        for i in range(n):
            a1, a2, a4 = A[0, i], A[1, i], A[2, i]
            g1, g2, g4 = B[0, i] - c, B[1, i] - c, B[2, i] - c
            k1u, k1v = a1 * v, g1 * u
            k2u, k2v = a2 * (v + (h / 2) * k1v), g2 * (u + (h / 2) * k1u)
            k3u, k3v = a2 * (v + (h / 2) * k2v), g2 * (u + (h / 2) * k2u)
            k4u, k4v = a4 * (v + h * k3v), g4 * (u + h * k3u)
            u = u + (h / 6) * (k1u + 2 * k2u + 2 * k3u + k4u)
            v = v + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
            if path:
                out[i, 0], out[i, 1] = u, v
        y = np.stack([u, v])
        if path:
            seg = start + h * np.arange(1, n + 1)
            seg[-1] = end
            xs.append(seg)
            ys.append(out)
    return (np.concatenate(xs), np.concatenate(ys)) if path else y


def _default_step(profile, lam, step):
    # resolve the plateau wavelength 2 pi sqrt(p / lambda)
    if lam > 0:
        wavelength = 2 * np.pi * np.sqrt(profile.lower / lam)
        return min(step, wavelength / 50.0)
    return step


@dataclass
class EigenSolution:
    """Sampled (phi, p phi') along a grid, with cubic Hermite interpolation."""

    lam: float
    profile: object
    grid: np.ndarray
    states: np.ndarray  # shape (n, 2)

    def __post_init__(self):
        order = np.argsort(self.grid)
        self.grid = self.grid[order]
        self.states = self.states[order]
        # drop duplicated nodes produced by two-sided integration
        keep = np.concatenate(([True], np.diff(self.grid) > 0))
        self.grid = self.grid[keep]
        self.states = self.states[keep]
        self._splines = self._build_splines()

    def _build_splines(self):
        # phi' = (p phi')/p jumps where p jumps, so interpolate per smooth piece
        bp = getattr(self.profile, "breakpoints", np.array([]))
        cuts = [b for b in np.atleast_1d(bp) if self.grid[0] < b < self.grid[-1]]
        edges = np.concatenate(([self.grid[0]], cuts, [self.grid[-1]]))
        splines = []
        for a, b in zip(edges[:-1], edges[1:]):
            sel = (self.grid >= a - 1e-14) & (self.grid <= b + 1e-14)
            x = self.grid[sel]
            if x.size < 2:
                splines.append((a, b, None))
                continue
            if getattr(self.profile, "is_smooth", False):
                p_here = np.atleast_1d(np.asarray(self.profile.eval_p(x), dtype=float))
            else:
                # p is constant on the open piece; the midpoint value avoids
                # picking up the wrong one-sided limit at the edges
                p_here = np.full(x.size, float(self.profile.eval_p(0.5 * (a + b))))
            dphi = self.states[sel, 1] / p_here
            splines.append((a, b, CubicHermite(x, self.states[sel, 0], dphi)))
        return splines

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        flat_x = np.atleast_1d(x)
        flat_o = np.atleast_1d(out)
        for a, b, sp in self._splines:
            if sp is None:
                continue
            sel = (flat_x >= a) & (flat_x <= b)
            flat_o[sel] = sp(flat_x[sel])
        return flat_o.reshape(x.shape) if x.ndim else complex(flat_o[0])

    def pdphi(self, x):
        """Interpolated p(x) phi'(x)."""
        x = np.asarray(x, dtype=float)
        flat_x = np.atleast_1d(x)
        flat_o = np.zeros(flat_x.shape, dtype=complex)
        for a, b, sp in self._splines:
            if sp is None:
                continue
            sel = (flat_x >= a) & (flat_x <= b)
            pv = np.atleast_1d(np.asarray(self.profile.eval_p(flat_x[sel]), dtype=float))
            flat_o[sel] = sp.derivative(flat_x[sel]) * pv
        return flat_o.reshape(x.shape) if x.ndim else complex(flat_o[0])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "re_phi", "im_phi", "re_pdphi", "im_pdphi"])
            for x, (u, v) in zip(self.grid, self.states):
                w.writerow([x, u.real, u.imag, v.real, v.imag])


def solve_eigen(profile, lam, init, x0, span, step=1e-3):
    """Integrate (phi, p phi') across `span` from initial data at x0.

    x0 must lie in span; integration proceeds to both endpoints.
    """
    a, b = _unpack(span)
    if not (a <= x0 <= b):
        raise IntegrationError(f"x0={x0} outside span [{a}, {b}]")
    h = _default_step(profile, lam, step)
    bp = np.atleast_1d(getattr(profile, "breakpoints", np.array([])))

    def inv_p(x):
        return 1.0 / np.asarray(profile.eval_p(x), dtype=float)

    grids, states = [], []
    for target in (a, b):
        if target == x0:
            continue
        g, s = rk4_linear(inv_p, np.zeros_like, lam, x0, target, init, h, bp, path=True)
        grids.append(g)
        states.append(s)
    if not grids:
        raise IntegrationError("degenerate span")
    grid = np.concatenate(grids)
    st = np.concatenate(states)
    return EigenSolution(float(lam), profile, grid, st)


def wronskian(sol1, sol2, x):
    """W_p(phi1, phi2)(x) = (p phi1') phi2 - phi1 (p phi2')."""
    return sol1.pdphi(x) * sol2.phi(x) - sol1.phi(x) * sol2.pdphi(x)


def toy_fundamental(p_minus, p_plus, lam, x):
    """Closed-form fundamental pair (phi_plus, phi_minus) for the step profile.

    phi_plus is the solution that is a pure right-moving wave e^{i kappa_+ x}
    on the right plateau; phi_minus the mirrored left one.  Vectorized in x.
    """
    if lam <= 0:
        raise SpectralDensityError("closed forms require lambda > 0")
    x = np.asarray(x, dtype=float)
    km = np.sqrt(lam / p_minus)
    kp = np.sqrt(lam / p_plus)
    right = x > 0
    phi_p = np.where(
        right,
        np.exp(1j * kp * x),
        np.cos(km * x) + 1j * np.sqrt(p_plus / p_minus) * np.sin(km * x),
    )
    phi_m = np.where(
        right,
        np.cos(kp * x) - 1j * np.sqrt(p_minus / p_plus) * np.sin(kp * x),
        np.exp(-1j * km * x),
    )
    if x.ndim:
        return phi_p, phi_m
    return complex(phi_p), complex(phi_m)


def toy_spectral_density(p_minus, p_plus, lam):
    """Diagonal density of the step-profile spectral measure at lambda > 0."""
    if lam <= 0:
        raise SpectralDensityError("spectral density has a 1/sqrt(lambda) endpoint at 0")
    sm, sp = np.sqrt(p_minus), np.sqrt(p_plus)
    c = 1.0 / (np.pi * (sm + sp) ** 2 * np.sqrt(lam))
    return np.diag([sm * c, sp * c])


def toy_wronskian_value(p_minus, p_plus, lam):
    """W_p(phi_plus, phi_minus) of the closed-form pair, constant in x."""
    return 1j * np.sqrt(lam) * (np.sqrt(p_plus) + np.sqrt(p_minus))
