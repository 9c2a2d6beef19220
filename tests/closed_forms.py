"""Closed forms of the two-plateau step profile, the references for its tests.

For p = p_minus left of 0 and p_plus right of it: the fundamental pair of
-(p phi')' = lambda phi, its Wronskian and the diagonal spectral density.
`phi` forms the complex fundamental pair Phi = M U of any model or sweep
from its real pair and its mix, for tests that compare against Phi.
"""

import numpy as np


def phi(model, x, integrated=False):
    """Phi = mix U at every node, or its antiderivative mix int U; shape (2, n, n_x).

    ``model`` is anything with ``mix`` and ``basis``; with ``integrated`` the
    antiderivative is anchored where its ``basis_antiderivative`` is.
    """
    table = model.basis_antiderivative(x) if integrated else model.basis(x)
    return np.einsum("cal,alk->clk", model.mix, table)


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
