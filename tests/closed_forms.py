"""Closed forms of the two-plateau step profile, the references for its tests.

For p = p_minus left of 0 and p_plus right of it: the fundamental pair of
-(p phi')' = lambda phi, its Wronskian and the diagonal spectral density.
`phi` forms the complex fundamental pair Phi = M U of any model from its
real pair and its mix, for tests that compare against Phi, and
`sweep_model` puts a bare scattering sweep into a model on its own nodes,
and `PerNodeSweep` is a sweep's pass integrated at every node.
"""

import numpy as np

from varband.kernel import ScatteringModel
from varband.profile import PiecewiseConstantProfile
from varband.spectral import SpectralQuadrature, SpectralSet
from varband.sturm import rk4_linear


def phi(model, x, integrated=False):
    """Phi = mix U at every node, or its antiderivative mix int U; shape (2, n, n_x).

    ``model`` is anything with ``mix`` and ``basis``; with ``integrated`` the
    antiderivative is anchored where its ``basis_antiderivative`` is.
    """
    table = model.basis_antiderivative(x) if integrated else model.basis(x)
    return np.einsum("cal,alk->clk", model.mix, table)


def sweep_model(sweep):
    """The `ScatteringModel` of a sweep, on a unit-weight rule of the sweep's own frequencies."""
    sset = SpectralSet([(0.0, float(np.max(sweep.omegas)) ** 2 + 1.0)])
    quad = SpectralQuadrature(sset, sweep.omegas, np.ones(len(sweep)))
    return ScatteringModel(quad, sweep)


class PerNodeSweep:
    """The one-pass sweep with its path integrated at every node: T, R1, R2 and the interior u.

    One ``path=True`` run from the start of `ScatteringSweep`'s pass, u =
    p+^(-1/4) e right of the support, at every omega^2 with the sweep's step
    rule and breakpoints; T, R1 and R2 come from its last state, and u and
    its integral inside from the path. Nothing is interpolated in omega^2.
    """

    def __init__(self, q, a, omegas, breakpoints=(), profile=PiecewiseConstantProfile([], [1.0])):
        w = np.asarray(omegas, dtype=float)
        z_left, z_right = profile.zeta(np.array([-a, a]))
        r_left, r_right = profile.p_minus ** 0.25, profile.p_plus ** 0.25
        h = min(1e-3, 2 * np.pi * np.sqrt(profile.lower) / (50.0 * np.max(w)))
        e = np.exp(1j * w * z_right)
        self.path = rk4_linear(lambda x: 1.0 / profile.eval_p(x),
                               lambda x: q(np.clip(x, -a, a)), w**2, a, -a,
                               np.stack([e / r_right, 1j * w * r_right * e]), h, breakpoints,
                               path=True)
        self.end = self.path(np.array([-a]))[0]
        y, dy = self.end[0] * r_left, self.end[1] / r_left
        alpha = 0.5 * (y + dy / (1j * w)) * np.exp(-1j * w * z_left)
        beta = 0.5 * (y - dy / (1j * w)) * np.exp(1j * w * z_left)
        self.T, self.R1, self.R2 = 1.0 / alpha, beta / alpha, -beta.conj() / alpha

    def solutions(self, x):
        """(Re u, Im u) inside the support and its integral from -a, as the sweep's `solution`.

        Both of shape (2, n_omega, n_x), from one evaluation of the path.
        """
        states = self.path(x)
        return tuple(np.stack([v.real, v.imag])
                     for v in (states[:, 0].T, (states[:, 2] - self.end[2]).T))


class SpectralDensityError(ValueError):
    pass


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
