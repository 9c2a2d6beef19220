"""Scattering theory for -(p u')' + q u = omega^2 u, with p constant and q zero off [-a, a].

There the solutions are p+-^(-1/4) e^(+-i omega zeta(x)), zeta the warp of
p, so T, R1 and R2 are those of the Liouville transform, read off without
forming it: the purely transmitted wave is integrated across the support
and the incoming and reflected amplitudes read off on the far side.  A
whole frequency sweep is integrated in one vectorized RK4 pass; since p and
q are real, the conjugate of that solution is the mirrored one, so a single
pass gives both coefficients and both fundamental solutions.  The interior
solution is kept as one Hermite spline, so pointwise evaluation stays cheap
inside kernel quadratures.  The default p = 1 has zeta(x) = x and makes
every factor of p exactly 1.  Every sweep has a support of radius a > 0:
the free space is not a sweep but the step profile at p = 1
(`kernel.free_model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .profile import CubicHermite, PiecewiseConstantProfile
from .sturm import rk4_linear, rk4_segments

_UNIT = PiecewiseConstantProfile([], [1.0])  # p = 1, whose zeta(x) = x exactly


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

    With e = e^{i omega zeta(x)}, Phi1 is p-^(-1/4) (e + R1 conj(e)) left of
    the support and p+^(-1/4) T e right of it; Phi2 is the mirrored solution.
    ``q`` must be real and vectorised: it and 1/p are tabulated once per RK4
    segment at every stage abscissa.  ``breakpoints`` are the points of
    (-a, a) where q or p is not smooth; RK4 steps end there instead of
    straddling them.  ``profile`` must be constant outside [-a, a].

    One RK4 pass of (u, p u') runs leftward from +a with the solution u that
    is p+^(-1/4) e right of the support.  For real p, q and omega > 0,
    conj(u) is the solution that is p+^(-1/4) conj(e) there, so Phi1 = T u
    and Phi2 = conj(u) + R2 u.  The sweep reads u out as the real pair
    U = (Re u, Im u), from one stored interpolant of u inside the support,
    and ``mix`` is the M with Phi = M U.  Inside the support Phi2 is a
    difference of two solutions of size 1/|T|, so its relative error grows
    like 1/|T|^2 times the integrator's; an admissible profile keeps |T|
    bounded below.  The step is at most 1e-3 and 1/50 of the shortest local
    wavelength 2 pi sqrt(p) / omega; ``step`` and ``n_steps`` record the
    largest RK4 step taken and the step count of the pass.  Without
    ``store_interior`` the pass returns only its final state, interpolated
    in omega^2 when the grid has more frequencies than the interpolant
    needs, a count set before the pass from its phase (the warped length for
    q = 0) and the range of omega^2 - q (see `rk4_linear`); ``rk4_points``
    records the number of omega^2 values integrated, and
    ``interpolation_tail`` the interpolant's accepted relative tail, or 0
    when nothing was interpolated.
    """

    def __init__(self, q, support_radius, omegas, breakpoints=(), store_interior=True,
                 profile=_UNIT):
        self.omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        if np.any(self.omegas <= 0):
            raise MatchingError("scattering requires omega > 0")
        self.a = float(support_radius)
        if not self.a > 0:
            raise MatchingError("scattering requires a support radius a > 0")
        self.q, self.profile = q, profile
        self._spline = None
        w, a = self.omegas, self.a
        h = min(1e-3, 2 * np.pi * np.sqrt(profile.lower) / (50.0 * max(np.max(w), 1e-6)))
        segments = rk4_segments(a, -a, h, breakpoints)
        self.step = max(abs(end - start) / k for start, end, k in segments)
        self.n_steps = sum(k for _, _, k in segments)
        # the ends of the support in the warped coordinate, and p-^(1/4), p+^(1/4)
        self._ends = profile.zeta(np.array([-a, a]))
        self._roots = np.array([profile.p_minus, profile.p_plus]) ** 0.25
        (z_left, z_right), (r_left, r_right) = self._ends, self._roots

        def q_support(x):
            # clip stage abscissae into the support: rounding can push them an
            # epsilon past +-a where a compactly supported q drops to zero
            return q(np.clip(x, -a, a))

        # (u, p u') with u = p+^(-1/4) e right of the support, integrated leftward
        e = np.exp(1j * w * z_right)
        y0 = np.stack([e / r_right, 1j * w * r_right * e])
        record = {}
        run = rk4_linear(lambda x: 1.0 / profile.eval_p(x), q_support, w**2, a, -a, y0, h,
                         breakpoints, path=store_interior, record=record)
        self.rk4_points, self.interpolation_tail = record["points"], record["tail"]
        if store_interior:
            grid, states = run
            y, dy = np.array(states[-1])  # a copy: p u' is scaled to u' in place below
            states[:, 1] /= profile.eval_p(grid)[:, None]
            self._spline = CubicHermite(grid[::-1], states[::-1, 0], states[::-1, 1])
        else:
            y, dy = run
        # u = p-^(-1/4) (alpha e + beta conj(e)) left of the support
        y, dy = y * r_left, dy / r_left
        alpha = 0.5 * (y + dy / (1j * w)) * np.exp(-1j * w * z_left)
        beta = 0.5 * (y - dy / (1j * w)) * np.exp(1j * w * z_left)
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
        """Masks left of, inside and right of the support."""
        mid = np.abs(x) <= self.a
        return (x < 0) & ~mid, mid, (x >= 0) & ~mid

    def _waves(self, z, primitive):
        """(cos omega z, sin omega z), or its primitive (sin, -cos) / omega; shape (2, n, n_z)."""
        wz = self.omegas[:, None] * z
        if primitive:
            return np.stack([np.sin(wz), -np.cos(wz)]) / self.omegas[:, None]
        return np.stack([np.cos(wz), np.sin(wz)])

    def _left(self, waves):
        """U left of the support from (cos, sin) there, or the same map on their primitive.

        u = p-^(-1/4) (alpha e + beta conj(e)) there, with alpha = 1/T and
        beta = R1/T, so p-^(1/4) u = (alpha + beta) cos + i (alpha - beta) sin:
        a real 2x2 map of (cos, sin) per omega. Right of the support
        p+^(1/4) U = (cos, sin).
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

        Right of the support U = p+^(-1/4) (cos, sin) of omega zeta(x).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        left, mid, right = self._regions(x)
        (r_left, r_right), z = self._roots, self.profile.zeta(x)
        out = np.empty((2, self.omegas.size, x.size))
        out[:, :, left] = self._left(self._waves(z[left], False)) / r_left
        out[:, :, right] = self._waves(z[right], False) / r_right
        if np.any(mid):
            out[:, :, mid] = self._interior(x[mid], lambda spline: spline)
        return out

    def basis_antiderivative(self, x):
        """int_{-a}^x U(omega, y) dy, float64 of shape (2, n_omega, n_x).

        On the tails dx = p+-^(1/2) d zeta, so the primitives are p+-^(1/4)
        times the plane-wave primitives in zeta; inside the support the exact
        integral of the stored Hermite interpolant, so any point right of -a
        needs ``store_interior=True``.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        left, mid, right = self._regions(x)
        (z_left, z_right), (r_left, r_right) = self._ends, self._roots
        z = self.profile.zeta(x)
        out = np.empty((2, self.omegas.size, x.size))
        left_primitive = self._waves(z[left], True) - self._waves(z_left, True)
        out[:, :, left] = self._left(left_primitive) * r_left
        across = 0.0
        if np.any(mid | right):
            # the stored interpolants' first knot is -a, where their antiderivatives start
            inner = self._interior(np.append(x[mid], self.a), lambda spline: spline.antiderivative)
            out[:, :, mid], across = inner[:, :, :-1], inner[:, :, -1:]
        right_primitive = self._waves(z[right], True) - self._waves(z_right, True)
        out[:, :, right] = right_primitive * r_right + across
        return out


def scattering_coeffs(q, support_radius, omega):
    """Single-frequency ScatteringData for potential q supported in [-a, a]."""
    return ScatteringSweep(q, support_radius, [omega]).data(0)
