"""Scattering theory for -psi'' + q psi = omega^2 psi with compactly supported q.

Transmission/reflection coefficients are obtained by integrating plane-wave
data across the support [-a, a] and reading off the incoming/outgoing
amplitudes on the far side.  A whole frequency sweep is integrated in one
vectorized RK4 pass and the interior solutions are kept as Hermite splines,
so pointwise evaluation stays cheap inside kernel quadratures.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .profile import CubicHermite
from .sturm import rk4_linear, rk4_segments


class MatchingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScatteringData:
    omega: float
    T: complex
    R1: complex
    R2: complex

    @property
    def matrix(self):
        return np.array([[self.T, self.R1], [self.R2, self.T]])

    @property
    def unitarity_defect(self):
        S = self.matrix
        return float(np.max(np.abs(S.conj().T @ S - np.eye(2))))


class ScatteringSweep:
    """Fundamental scattering solutions Phi = (Phi1, Phi2) on a frequency grid.

    Phi1 is e^{i omega x} + R1 e^{-i omega x} left of the support and
    T e^{i omega x} right of it; Phi2 is the mirrored solution.  ``q = None``
    means the free particle and everything collapses to plane waves.  ``q``
    must be vectorised: it is tabulated once per direction at every RK4 stage
    abscissa.  ``step`` and ``n_steps`` record the RK4 step taken across
    [-a, a] and the step count over both directions (0 in the free case).
    """

    def __init__(self, q, support_radius, omegas, step=1e-3, store_interior=True):
        self.omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        if np.any(self.omegas <= 0):
            raise MatchingError("scattering requires omega > 0")
        self.a = float(support_radius)
        self.q = q
        n = self.omegas.size
        if q is None or self.a == 0.0:
            self.q = None
            self.a = 0.0
            self.T = np.ones(n, dtype=complex)
            self.R1 = np.zeros(n, dtype=complex)
            self.R2 = np.zeros(n, dtype=complex)
            self._spline1 = self._spline2 = None
            self.step, self.n_steps = 0.0, 0
            return
        w = self.omegas
        h = min(step, 2 * np.pi / (50.0 * max(np.max(w), 1e-6)))  # 50 steps per wavelength
        [(_, _, n_dir)] = rk4_segments(self.a, -self.a, h)
        self.step, self.n_steps = 2 * self.a / n_dir, 2 * n_dir

        def q_support(x):
            # clip stage abscissae into the support: rounding can push them an
            # epsilon past +-a where a compactly supported q drops to zero
            return q(np.clip(x, -self.a, self.a))

        def integrate(x0, x1, y0):
            return rk4_linear(np.ones_like, q_support, w**2, x0, x1, y0, h,
                              path=store_interior)

        # Phi1 candidate: pure transmitted wave at +a, integrated leftward
        y0 = np.stack([np.exp(1j * w * self.a), 1j * w * np.exp(1j * w * self.a)])
        if store_interior:
            g1, s1 = integrate(self.a, -self.a, y0)
            y, dy = s1[-1, 0], s1[-1, 1]
        else:
            y, dy = integrate(self.a, -self.a, y0)
        alpha = 0.5 * (y + dy / (1j * w)) * np.exp(1j * w * self.a)
        beta = 0.5 * (y - dy / (1j * w)) * np.exp(-1j * w * self.a)
        if np.any(np.abs(alpha) < 1e-12):
            raise MatchingError("ill-conditioned matching system (omega too small?)")
        self.T = 1.0 / alpha
        self.R1 = beta / alpha

        # Phi2 candidate: pure transmitted wave at -a, integrated rightward
        z0 = np.stack([np.exp(1j * w * self.a), -1j * w * np.exp(1j * w * self.a)])
        if store_interior:
            g2, s2 = integrate(-self.a, self.a, z0)
            z, dz = s2[-1, 0], s2[-1, 1]
        else:
            z, dz = integrate(-self.a, self.a, z0)
        delta = 0.5 * (z + dz / (1j * w)) * np.exp(-1j * w * self.a)
        gamma = 0.5 * (z - dz / (1j * w)) * np.exp(1j * w * self.a)
        if np.any(np.abs(gamma) < 1e-12):
            raise MatchingError("ill-conditioned matching system (omega too small?)")
        self.R2 = delta / gamma
        # by construction 1/gamma equals T up to integrator error; keep T from
        # the first pass and use gamma only for normalizing Phi2
        self._gamma = gamma
        self._alpha = alpha

        if store_interior:
            o1 = np.argsort(g1)
            self._spline1 = CubicHermite(g1[o1], s1[o1, 0, :], s1[o1, 1, :])
            self._spline2 = CubicHermite(g2, s2[:, 0, :], s2[:, 1, :])
        else:
            self._spline1 = self._spline2 = None

    def __len__(self):
        return self.omegas.size

    def data(self, i):
        return ScatteringData(float(self.omegas[i]), complex(self.T[i]),
                              complex(self.R1[i]), complex(self.R2[i]))

    def unitarity_defect(self):
        """Max over the grid of the scattering-matrix unitarity defect."""
        S = np.empty((self.omegas.size, 2, 2), dtype=complex)
        S[:, 0, 0] = S[:, 1, 1] = self.T
        S[:, 0, 1] = self.R1
        S[:, 1, 0] = self.R2
        G = np.einsum("nji,njk->nik", S.conj(), S)
        return float(np.max(np.abs(G - np.eye(2))))

    def _regions(self, x):
        """Masks left of, inside and right of the support; free: no inside, 0 is right."""
        mid = (np.abs(x) <= self.a) & (self.q is not None)
        return (x < 0) & ~mid, mid, (x >= 0) & ~mid

    def _tails(self, e, right):
        """Phi1 and Phi2 on one tail as combinations of e and conj(e).

        With e = exp(i omega x) this is Phi; with e = exp(i omega x) / (i omega),
        a primitive of exp(i omega x), it is a primitive of Phi.
        """
        T, R1, R2 = self.T[:, None], self.R1[:, None], self.R2[:, None]
        if right:
            return np.stack([T * e, e.conj() + R2 * e])
        return np.stack([e + R1 * e.conj(), T * e.conj()])

    def _interior(self, x, of):
        """of(spline)(x) for both stored interior solutions, normalised as Phi."""
        if self._spline1 is None:
            raise MatchingError(
                "interior solutions were not stored; rebuild with store_interior=True"
            )
        return np.stack([(of(self._spline1)(x) / self._alpha).T,
                         (of(self._spline2)(x) / self._gamma).T])

    def phi(self, x):
        """Phi(omega, x), shape (2, n_omega, n_x)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        left, mid, right = self._regions(x)
        ex = np.exp(1j * self.omegas[:, None] * x)
        out = np.empty((2, self.omegas.size, x.size), dtype=complex)
        out[:, :, left] = self._tails(ex[:, left], right=False)
        out[:, :, right] = self._tails(ex[:, right], right=True)
        if np.any(mid):
            out[:, :, mid] = self._interior(x[mid], lambda spline: spline)
        return out

    def antiderivative(self, x):
        """int_{-a}^x Phi(omega, y) dy, shape (2, n_omega, n_x).

        Plane-wave primitives on the tails; inside the support the exact
        integral of the stored Hermite interpolant, so any point right of -a
        needs ``store_interior=True``.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        left, mid, right = self._regions(x)
        w = self.omegas[:, None]

        def primitive(u):
            return np.exp(1j * w * u) / (1j * w)

        out = np.empty((2, self.omegas.size, x.size), dtype=complex)
        out[:, :, left] = (self._tails(primitive(x[left]), right=False)
                           - self._tails(primitive(-self.a), right=False))
        across = 0.0
        if self.q is not None and np.any(mid | right):
            # the stored interpolants' first knot is -a, where their antiderivatives start
            inner = self._interior(np.append(x[mid], self.a), lambda spline: spline.antiderivative)
            out[:, :, mid], across = inner[:, :, :-1], inner[:, :, -1:]
        out[:, :, right] = (self._tails(primitive(x[right]), right=True)
                            - self._tails(primitive(self.a), right=True) + across)
        return out

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["omega", "re_T", "im_T", "re_R1", "im_R1",
                         "re_R2", "im_R2", "unitarity_defect"])
            for i in range(len(self)):
                d = self.data(i)
                wr.writerow([d.omega, d.T.real, d.T.imag, d.R1.real, d.R1.imag,
                             d.R2.real, d.R2.imag, d.unitarity_defect])


def scattering_coeffs(q, support_radius, omega, step=1e-3):
    """Single-frequency ScatteringData for potential q supported in [-a, a]."""
    return ScatteringSweep(q, support_radius, [omega], step=step).data(0)
