"""Scattering theory for -psi'' + q psi = omega^2 psi with compactly supported q.

Transmission/reflection coefficients are obtained by integrating the purely
transmitted wave across the support [-a, a] and reading off the incoming and
reflected amplitudes on the far side.  A whole frequency sweep is integrated
in one vectorized RK4 pass; since q is real, the conjugate of that solution
is the mirrored one, so a single pass gives both coefficients and both
fundamental solutions.  The interior solution is kept as one Hermite spline,
so pointwise evaluation stays cheap inside kernel quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .profile import CubicHermite
from .sturm import rk4_linear, rk4_segments


class MatchingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScatteringData:
    """One frequency of a sweep, with its row of `ScatteringSweep.defects`."""

    omega: float
    T: complex
    R1: complex
    R2: complex
    unitarity_defect: float


class ScatteringSweep:
    """Fundamental scattering solutions Phi = (Phi1, Phi2) on a frequency grid.

    Phi1 is e^{i omega x} + R1 e^{-i omega x} left of the support and
    T e^{i omega x} right of it; Phi2 is the mirrored solution.  ``q = None``
    means the free particle and everything collapses to plane waves.  ``q``
    must be real and vectorised: it is tabulated once per RK4 segment at every
    stage abscissa.  ``breakpoints`` are the points of (-a, a) where q is not
    smooth; RK4 steps end there instead of straddling them.

    One RK4 pass runs leftward from +a with the solution u that is e^{i omega x}
    right of the support.  For real q and omega > 0, conj(u) is the solution
    that is e^{-i omega x} there, so Phi1 = T u and Phi2 = conj(u) + R2 u.
    The sweep reads u out as the real pair U = (Re u, Im u), which is
    (cos omega x, sin omega x) right of the support and comes from one stored
    interpolant of u inside it, and ``mix`` is the M with Phi = M U.  Inside
    the support Phi2 is a difference of two solutions of size 1/|T|, so its
    relative error grows like 1/|T|^2 times the integrator's; the Liouville
    potential of an admissible profile keeps |T| bounded below.  ``step`` and
    ``n_steps`` record the largest RK4 step taken and the step count of the
    pass (0 in the free case).
    """

    def __init__(self, q, support_radius, omegas, breakpoints=(), store_interior=True):
        self.omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        if np.any(self.omegas <= 0):
            raise MatchingError("scattering requires omega > 0")
        self.a = float(support_radius)
        self.q = q
        n = self.omegas.size
        self._spline = None
        if q is None or self.a == 0.0:
            self.q = None
            self.a = 0.0
            self.T = np.ones(n, dtype=complex)
            self.R1 = np.zeros(n, dtype=complex)
            self.R2 = np.zeros(n, dtype=complex)
            self.step, self.n_steps = 0.0, 0
            return
        w, a = self.omegas, self.a
        h = min(1e-3, 2 * np.pi / (50.0 * max(np.max(w), 1e-6)))  # 50 steps per wavelength
        segments = rk4_segments(a, -a, h, breakpoints)
        self.step = max(abs(end - start) / k for start, end, k in segments)
        self.n_steps = sum(k for _, _, k in segments)

        def q_support(x):
            # clip stage abscissae into the support: rounding can push them an
            # epsilon past +-a where a compactly supported q drops to zero
            return q(np.clip(x, -a, a))

        # u = e^{i omega x} right of the support, integrated leftward
        y0 = np.stack([np.exp(1j * w * a), 1j * w * np.exp(1j * w * a)])
        run = rk4_linear(np.ones_like, q_support, w**2, a, -a, y0, h, breakpoints,
                         path=store_interior)
        if store_interior:
            grid, states = run
            y, dy = states[-1]
            self._spline = CubicHermite(grid[::-1], states[::-1, 0], states[::-1, 1])
        else:
            y, dy = run
        # u = alpha e^{i omega x} + beta e^{-i omega x} left of the support
        alpha = 0.5 * (y + dy / (1j * w)) * np.exp(1j * w * a)
        beta = 0.5 * (y - dy / (1j * w)) * np.exp(-1j * w * a)
        if np.any(np.abs(alpha) < 1e-12):
            raise MatchingError("ill-conditioned matching system (omega too small?)")
        self.T = 1.0 / alpha
        self.R1 = beta / alpha
        self.R2 = -beta.conj() / alpha

    def __len__(self):
        return self.omegas.size

    def data(self, i):
        return ScatteringData(float(self.omegas[i]), complex(self.T[i]),
                              complex(self.R1[i]), complex(self.R2[i]),
                              float(self.defects[i]))

    @cached_property
    def defects(self):
        """max |S^* S - I| of the scattering matrix S = [[T, R1], [R2, T]], per omega."""
        S = np.empty((self.omegas.size, 2, 2), dtype=complex)
        S[:, 0, 0] = S[:, 1, 1] = self.T
        S[:, 0, 1] = self.R1
        S[:, 1, 0] = self.R2
        return np.max(np.abs(S.conj().transpose(0, 2, 1) @ S - np.eye(2)), axis=(1, 2))

    def unitarity_defect(self):
        """Max of `defects` over the grid."""
        return float(np.max(self.defects))

    @property
    def mix(self):
        """M with Phi = M U at each omega, shape (2, 2, n_omega).

        U = (Re u, Im u) for the solution u of the pass, so Phi1 = T u and
        Phi2 = conj(u) + R2 u give M = [[T, i T], [1 + R2, i (R2 - 1)]].
        """
        T, R2 = self.T, self.R2
        return np.array([[T, 1j * T], [1 + R2, 1j * (R2 - 1)]])

    def _regions(self, x):
        """Masks left of, inside and right of the support; free: no inside, 0 is right."""
        mid = (np.abs(x) <= self.a) & (self.q is not None)
        return (x < 0) & ~mid, mid, (x >= 0) & ~mid

    def _waves(self, x, primitive):
        """(cos omega x, sin omega x), or its primitive (sin, -cos) / omega; shape (2, n, n_x)."""
        wx = self.omegas[:, None] * x
        if primitive:
            return np.stack([np.sin(wx), -np.cos(wx)]) / self.omegas[:, None]
        return np.stack([np.cos(wx), np.sin(wx)])

    def _left(self, waves):
        """U left of the support from (cos, sin) there, or the same map on their primitive.

        u = alpha e^{i omega x} + beta e^{-i omega x} there, with alpha = 1/T and
        beta = R1/T, so u = (alpha + beta) cos + i (alpha - beta) sin: a real
        2x2 map of (cos, sin) per omega. Right of the support U = (cos, sin).
        """
        plus, minus = (1 + self.R1) / self.T, (1 - self.R1) / self.T
        L = np.array([[plus.real, -minus.imag], [plus.imag, minus.real]])[:, :, :, None]
        return L[:, 0] * waves[0] + L[:, 1] * waves[1]

    def _interior(self, x, of):
        """(Re v, Im v) for v = of(spline of u)(x), shape (2, n_omega, n_x)."""
        if self._spline is None:
            raise MatchingError(
                "interior solutions were not stored; rebuild with store_interior=True"
            )
        v = of(self._spline)(x).T
        return np.stack([v.real, v.imag])

    def basis(self, x):
        """U = (Re u, Im u) at x, float64 of shape (2, n_omega, n_x).

        u is e^{i omega x} right of the support, so there U = (cos, sin).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        left, mid, right = self._regions(x)
        out = np.empty((2, self.omegas.size, x.size))
        out[:, :, left] = self._left(self._waves(x[left], False))
        out[:, :, right] = self._waves(x[right], False)
        if np.any(mid):
            out[:, :, mid] = self._interior(x[mid], lambda spline: spline)
        return out

    def basis_antiderivative(self, x):
        """int_{-a}^x U(omega, y) dy, float64 of shape (2, n_omega, n_x).

        Plane-wave primitives on the tails; inside the support the exact
        integral of the stored Hermite interpolant, so any point right of -a
        needs ``store_interior=True``.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        left, mid, right = self._regions(x)
        out = np.empty((2, self.omegas.size, x.size))
        out[:, :, left] = self._left(self._waves(x[left], True) - self._waves(-self.a, True))
        across = 0.0
        if self.q is not None and np.any(mid | right):
            # the stored interpolants' first knot is -a, where their antiderivatives start
            inner = self._interior(np.append(x[mid], self.a), lambda spline: spline.antiderivative)
            out[:, :, mid], across = inner[:, :, :-1], inner[:, :, -1:]
        out[:, :, right] = (self._waves(x[right], True) - self._waves(self.a, True)) + across
        return out


def scattering_coeffs(q, support_radius, omega):
    """Single-frequency ScatteringData for potential q supported in [-a, a]."""
    return ScatteringSweep(q, support_radius, [omega]).data(0)
