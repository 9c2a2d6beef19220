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
from .sturm import IntegrationError, rk4_linear, rk4_segments


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


def _interior_step(omegas, step):
    return min(step, 2 * np.pi / (50.0 * max(np.max(omegas), 1e-6)))


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
        h = _interior_step(w, step)
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

    def phi(self, x):
        """Phi(omega, x), shape (2, n_omega, n_x)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        w = self.omegas[:, None]
        out = np.empty((2, self.omegas.size, x.size), dtype=complex)
        ex = np.exp(1j * w * x[None, :])
        if self.q is None:
            out[0] = ex
            out[1] = ex.conj()
            return out
        left = x < -self.a
        right = x > self.a
        mid = ~(left | right)
        out[0, :, left.nonzero()[0]] = (ex + self.R1[:, None] * ex.conj()).T[left]
        out[0, :, right.nonzero()[0]] = (self.T[:, None] * ex).T[right]
        out[1, :, right.nonzero()[0]] = (ex.conj() + self.R2[:, None] * ex).T[right]
        out[1, :, left.nonzero()[0]] = (self.T[:, None] * ex.conj()).T[left]
        if np.any(mid):
            if self._spline1 is None:
                raise MatchingError(
                    "interior solutions were not stored; rebuild with store_interior=True"
                )
            xm = x[mid]
            out[0, :, mid.nonzero()[0]] = (self._spline1(xm) / self._alpha[None, :])
            out[1, :, mid.nonzero()[0]] = (self._spline2(xm) / self._gamma[None, :])
        return out

    def cell_integral(self, lo, hi):
        """int_lo^hi Phi(omega, y) dy per component, shape (2, n_omega).

        Closed form on the plane-wave tails, Gauss-Legendre inside the
        support.  Conjugate externally when building transforms.
        """
        lo, hi = float(lo), float(hi)
        if hi < lo:
            raise IntegrationError("reversed cell")
        total = np.zeros((2, self.omegas.size), dtype=complex)
        pieces = []
        if self.a > 0:
            if lo < -self.a:
                pieces.append(("tail", lo, min(hi, -self.a)))
            if hi > self.a:
                pieces.append(("tail", max(lo, self.a), hi))
            ilo, ihi = max(lo, -self.a), min(hi, self.a)
            if ihi > ilo:
                pieces.append(("interior", ilo, ihi))
        else:
            pieces.append(("tail", lo, hi))
        w = self.omegas
        for kind, a, b in pieces:
            if b <= a:
                continue
            if kind == "interior":
                gx, gw = np.polynomial.legendre.leggauss(12)
                n_pan = max(1, int(np.ceil((b - a) / max(_interior_step(w, 1.0) * 50, 1e-9))))
                edges = np.linspace(a, b, n_pan + 1)
                for plo, phi_ in zip(edges[:-1], edges[1:]):
                    half = 0.5 * (phi_ - plo)
                    pts = 0.5 * (plo + phi_) + half * gx
                    vals = self.phi(pts)
                    total += half * np.einsum("cnk,k->cn", vals, gw)
            else:
                E = lambda c, u: np.exp(1j * c * w * u)
                I_plus = (E(1, b) - E(1, a)) / (1j * w)
                I_minus = (E(-1, b) - E(-1, a)) / (-1j * w)
                if b <= -self.a or self.a == 0.0:
                    # left tail (or the whole line in the free case, R = 0, T = 1)
                    total[0] += I_plus + self.R1 * I_minus
                    total[1] += self.T * I_minus
                else:
                    total[0] += self.T * I_plus
                    total[1] += I_minus + self.R2 * I_plus
        return total

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


def scattering_solution(q, support_radius, omega, x, step=1e-3):
    """Phi(omega, x) as a 2-vector for scalar omega (x may be an array)."""
    sweep = ScatteringSweep(q, support_radius, [omega], step=step)
    out = sweep.phi(x)
    return out[:, 0, :] if np.ndim(x) else out[:, 0, 0]
