"""Scattering theory for -(p u')' + q u = omega^2 u, with p constant and q zero off [-a, a].

There the solutions are p+-^(-1/4) e^(+-i omega zeta(x)), zeta the warp of
p, so T, R1 and R2 are those of the Liouville transform, read off without
forming it: the purely transmitted wave is integrated across the support
and the incoming and reflected amplitudes read off on the far side.  A
whole frequency sweep is one RK4 run's map, interpolated in omega^2; since
p and q are real, the conjugate of that solution is the mirrored one, so
one pass gives T, R1, R2 and the mix.  Inside the support a second pass at
the same omega^2, on first use, keeps the solutions and their integrals
every 64 steps and reaches any x from there (`ScatteringSweep.solution`);
off it `kernel.SpectralModel` evaluates U, a plane wave in zeta, as for
every model.  The default p = 1
has zeta(x) = x and makes every factor of p exactly 1.  Every sweep has a
support of radius a > 0: the free space is not a sweep but the step
profile at p = 1 (`kernel.free_model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .profile import PiecewiseConstantProfile
from .sturm import rk4_linear

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
    segment at every stage abscissa, each within [-a, a] (`sturm._step_table`
    keeps the stages inside their segment).  ``breakpoints`` are the points of
    (-a, a) where q or p is not smooth; RK4 steps end there instead of
    straddling them.  ``profile`` must be constant outside [-a, a].

    One RK4 pass of (u, p u') runs leftward from +a with the solution u that
    is p+^(-1/4) e right of the support.  For real p, q and omega > 0,
    conj(u) is the solution that is p+^(-1/4) conj(e) there, so Phi1 = T u
    and Phi2 = conj(u) + R2 u.  ``mix`` is the M with Phi = M U for the real
    pair U = (Re u, Im u).  Inside the support Phi2 is a difference of two
    solutions of size 1/|T|, so its relative error grows like 1/|T|^2 times
    the integrator's; an admissible profile keeps |T| bounded below.  The
    step is at most 1e-3 and 1/50 of the shortest local wavelength
    2 pi sqrt(p) / omega; ``step`` and ``n_steps`` record the largest RK4
    step taken and the step count of the pass.  The pass keeps only its
    map, interpolated in omega^2 when the grid has more frequencies than the
    interpolant needs, a count set before the pass from its phase (the
    warped length for q = 0) and the range of omega^2 - q (see
    `rk4_linear`); ``rk4_points`` records the number of omega^2 values the
    map is tabulated at, which `solution`'s pass shares, and
    ``interpolation_tail`` the accepted relative tail, 0 when nothing was
    interpolated.  That second pass, the interior path, runs on the first
    call of `solution` and keeps (u, p u', int u) every 64 RK4 steps, not
    every step.
    """

    def __init__(self, q, support_radius, omegas, breakpoints=(), profile=_UNIT):
        self.omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        if np.any(self.omegas <= 0):
            raise MatchingError("scattering requires omega > 0")
        self.a = float(support_radius)
        if not self.a > 0:
            raise MatchingError("scattering requires a support radius a > 0")
        self.q, self.profile, self.breakpoints = q, profile, breakpoints
        w, a = self.omegas, self.a
        h = min(1e-3, 2 * np.pi * np.sqrt(profile.lower) / (50.0 * max(np.max(w), 1e-6)))
        # the ends of the support in the warped coordinate, and p-^(1/4), p+^(1/4)
        z_left, z_right = profile.zeta(np.array([-a, a]))
        r_left, r_right = np.array([profile.p_minus, profile.p_plus]) ** 0.25

        # (u, p u') with u = p+^(-1/4) e right of the support, integrated leftward
        e = np.exp(1j * w * z_right)
        self._start = np.stack([e / r_right, 1j * w * r_right * e])
        self._run = partial(rk4_linear, lambda x: 1.0 / profile.eval_p(x), q,
                            x0=a, x1=-a, step=h, breakpoints=breakpoints)
        record = {}
        y, dy = self._run(w**2, y0=self._start, record=record)
        self.step, self.n_steps = record["step"], record["n_steps"]
        self.rk4_points, self.interpolation_tail = record["points"], record["tail"]
        self._interpolation = record["interpolation"]  # the map's omega^2 nodes, back to omega
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

    @cached_property
    def _interior(self):
        """The path of the solutions from the unit starts, and its map to every omega^2.

        One path pass (see `sturm.rk4_linear`) at the final map's omega^2
        values, from the starts (1, 0) and (0, 1) of (u, p u'): it keeps
        (u, p u', int u) at every 64th step, shape (start, point) each, and
        the map is the one the final pass recorded.
        """
        nodes, at_omegas = self._interpolation
        return self._run(nodes, y0=np.eye(2)[:, :, None], path=True), at_omegas

    def solution(self, x, integrated=False):
        """(Re u, Im u) of the pass's solution inside the support, shape (2, n_omega, n_x).

        The path's u at x, or with ``integrated`` its integral from -a, the
        end of the pass, taken to every omega^2 and then from the unit starts
        to u's.
        """
        path, at_omegas = self._interior
        states = path(x)
        v = states[:, 2] - path.ends[2, -1] if integrated else states[:, 0]
        u = np.einsum("sl,...sl->l...", self._start, at_omegas(v))
        return np.stack([u.real, u.imag])


def liouville_sweep(profile, omegas):
    """The sweep of -(p u')' = omega^2 u for a smooth profile p: q = 0, one pass over [-R, R]."""
    return ScatteringSweep(np.zeros_like, profile.R, omegas, profile=profile)


def scattering_coeffs(q, support_radius, omega):
    """Single-frequency ScatteringData for potential q supported in [-a, a]."""
    return ScatteringSweep(q, support_radius, [omega]).data(0)
