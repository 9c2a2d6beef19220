"""The RK4 driver for linear 2x2 systems and the two-plateau closed forms.

For -(p phi')' = lambda phi the first-order system is u = (phi, p phi');
both components are continuous across jumps of p, so carrying the state
vector through a breakpoint IS the matching condition.  `rk4_linear` is the
package's one fixed-step RK4 integrator, with mandatory breakpoint nodes and
coefficients tabulated once per segment; the scattering module runs it on
-psi'' + q psi = omega^2 psi.  The closed forms of the step profile (its
fundamental pair, Wronskian and spectral density) are the references for
the quadrature models.
"""

from __future__ import annotations

import numpy as np


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
