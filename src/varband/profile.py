"""Bandwidth-parametrizing functions p and the scalar quantities derived from them.

A profile knows how to evaluate p, the adapted measure ``mu_p(I) = int_I
p^{-1/2}``, the warp ``zeta(x) = int_0^x p^{-1/2}`` and its inverse, the
first-order warp ``eta(x) = int_0^x 1/p``, the Schrodinger potential obtained
from the Liouville transform, and gap statistics of sample sets measured
against ``sqrt(p)``.

Two families are supported: piecewise-constant profiles (all integrals in
closed form) and smooth eventually-constant profiles given by evaluators for
(p, p', p'') that are exactly constant outside ``[-R, R]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicHermiteSpline


class ProfileError(ValueError):
    pass


class UnsupportedProfileError(ProfileError):
    """Raised when an operation needs derivatives a profile cannot supply."""


class QuadratureError(RuntimeError):
    pass


class RootFindError(RuntimeError):
    pass


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if self.b < self.a:
            raise ProfileError(f"interval [{self.a}, {self.b}] is reversed")

    @property
    def length(self):
        return self.b - self.a


@dataclass
class AdmissibilityReport:
    passed: bool
    reasons: list
    lower: float
    upper: float


class BandwidthProfile:
    """Common interface; see `PiecewiseConstantProfile` and `SmoothProfile`."""

    is_smooth = False

    def __call__(self, x):
        return self.eval_p(x)

    # -- warped coordinates -------------------------------------------------

    def _warp(self, x, power):
        """int_0^x p**power."""
        raise NotImplementedError

    def _warp_inv(self, z, power):
        """The x with _warp(x, power) = z."""
        raise NotImplementedError

    def zeta(self, x):
        return self._warp(x, -0.5)

    def zeta_inv(self, z):
        return self._warp_inv(z, -0.5)

    def eta(self, x):
        return self._warp(x, -1.0)

    def eta_inv(self, t):
        return self._warp_inv(t, -1.0)

    def mu(self, interval):
        """mu_p of an `Interval` (or (a, b) pair)."""
        a, b = _unpack(interval)
        return float(self.zeta(b) - self.zeta(a))

    # -- gap statistics -----------------------------------------------------

    def inf_p(self, a, b):
        """Essential infimum of p over each gap (a, b); a and b may be arrays."""
        raise NotImplementedError

    def max_gap_delta(self, points):
        """sup_i (x_{i+1} - x_i) / inf_{(x_i, x_{i+1})} sqrt(p)."""
        x = np.asarray(points, dtype=float)
        if x.size < 2:
            raise ProfileError("need at least two sample points")
        if np.any(np.diff(x) <= 0):
            raise ProfileError("sample points must be strictly increasing")
        return float(np.max(np.diff(x) / np.sqrt(self.inf_p(x[:-1], x[1:]))))


class PiecewiseConstantProfile(BandwidthProfile):
    """Step profile; the value at a breakpoint is the right-limit value."""

    def __init__(self, breakpoints, values):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.size != self.breakpoints.size + 1:
            raise ProfileError("need one more plateau value than breakpoints")
        if self.breakpoints.size and np.any(np.diff(self.breakpoints) <= 0):
            raise ProfileError("breakpoints must be strictly increasing")
        if np.any(self.values <= 0):
            raise ProfileError("plateau values must be positive")
        self.lower = float(self.values.min())
        self.upper = float(self.values.max())
        self.p_minus = float(self.values[0])
        self.p_plus = float(self.values[-1])
        self.plateau_radius = float(np.abs(self.breakpoints).max()) if self.breakpoints.size else 0.0
        # knot table of the warps: int_0^k p**power at each knot k, so that
        # zeta = int p^{-1/2} and eta = int 1/p are its linear interpolants
        self._knots = np.union1d(self.breakpoints, [0.0])
        self._warp_at_knots = {power: self._integrals(power) for power in (-0.5, -1.0)}

    def _integrals(self, power):
        k = self._knots
        piece = np.diff(k) * self.eval_p(k[:-1]) ** power
        i0 = np.searchsorted(k, 0.0)
        # summed outward from 0, so every entry keeps its relative precision
        return np.concatenate((-np.cumsum(piece[:i0][::-1])[::-1], [0.0], np.cumsum(piece[i0:])))

    def eval_p(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="right")
        out = self.values[idx]
        return out if out.ndim else float(out)

    def _warp(self, x, power):
        return _extended_interp(x, self._knots, self._warp_at_knots[power], self.values[[0, -1]] ** power)

    def _warp_inv(self, z, power):
        return _extended_interp(z, self._warp_at_knots[power], self._knots, self.values[[0, -1]] ** -power)

    def inf_p(self, a, b):
        a, b = _gap_ends(a, b)
        bp = self.breakpoints
        # the open gap (a, b) meets the plateaus first..last; one padding entry
        # keeps last + 1 a valid reduceat index when last is the final plateau
        first = np.searchsorted(bp, a, side="right")
        last = np.searchsorted(bp, b, side="left")
        bounds = np.column_stack((first.ravel(), last.ravel() + 1)).ravel()
        out = np.minimum.reduceat(np.append(self.values, np.inf), bounds)[::2].reshape(a.shape)
        return out if out.ndim else float(out)

    def potential_q(self, x):
        raise UnsupportedProfileError(
            "the Liouville potential of a piecewise-constant profile is distributional"
        )


def toy_profile(p_minus, p_plus):
    """The two-plateau step profile with its jump at the origin."""
    return PiecewiseConstantProfile([0.0], [p_minus, p_plus])


class SmoothProfile(BandwidthProfile):
    """Profile given by evaluators (p, p', p'') with plateaus outside [-R, R]."""

    is_smooth = True

    def __init__(self, p, dp, ddp, R, p_minus, p_plus, check_derivatives=True):
        if R <= 0:
            raise ProfileError("plateau radius must be positive")
        if p_minus <= 0 or p_plus <= 0:
            raise ProfileError("plateau values must be positive")
        self.p_func, self.dp_func, self.ddp_func = p, dp, ddp
        self.R = float(R)
        self.p_minus, self.p_plus = float(p_minus), float(p_plus)
        self.plateau_radius = self.R
        xs = np.linspace(-self.R, self.R, 2001)
        ps = np.asarray(p(xs), dtype=float)
        if np.any(ps <= 0):
            raise ProfileError("profile is not bounded below by a positive constant")
        self.lower = float(min(ps.min(), p_minus, p_plus))
        self.upper = float(max(ps.max(), p_minus, p_plus))
        if not (np.isclose(p(-self.R), p_minus, rtol=1e-10, atol=1e-12)
                and np.isclose(p(self.R), p_plus, rtol=1e-10, atol=1e-12)):
            raise ProfileError("p does not attain its plateau values at +-R")
        if check_derivatives:
            self._check_derivatives()
        self._zeta_spline = None
        self._eta_spline = None

    def _check_derivatives(self):
        # guard user-supplied derivatives against the evaluator for p
        xs = np.linspace(-0.95 * self.R, 0.95 * self.R, 17)
        h = 1e-5 * max(1.0, self.R)
        fd1 = (self.p_func(xs + h) - self.p_func(xs - h)) / (2 * h)
        fd2 = (self.p_func(xs + h) - 2 * self.p_func(xs) + self.p_func(xs - h)) / h**2
        scale1 = np.max(np.abs(fd1)) + 1.0
        scale2 = np.max(np.abs(fd2)) + 1.0
        if np.max(np.abs(self.dp_func(xs) - fd1)) > 1e-4 * scale1:
            raise ProfileError("supplied p' is inconsistent with p")
        if np.max(np.abs(self.ddp_func(xs) - fd2)) > 1e-3 * scale2:
            raise ProfileError("supplied p'' is inconsistent with p")

    def eval_p(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(
            x < -self.R, self.p_minus,
            np.where(x > self.R, self.p_plus, np.asarray(self.p_func(x), dtype=float)),
        )
        return out if out.ndim else float(out)

    def _build_spline(self, power):
        n = 1601
        edges = np.linspace(-self.R, self.R, n)
        w = self.eval_p(edges) ** power
        # cumulative integral of p**power by per-panel Gauss-Legendre
        gx, gw = np.polynomial.legendre.leggauss(10)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        pts = mid[:, None] + half * gx[None, :]
        vals = self.eval_p(pts.ravel()).reshape(pts.shape) ** power
        panel = half * vals @ gw
        cum = np.concatenate(([0.0], np.cumsum(panel)))
        # anchor at x = 0
        i0 = (n - 1) // 2
        cum -= cum[i0] if edges[i0] == 0.0 else np.interp(0.0, edges, cum)
        fwd = CubicHermiteSpline(edges, cum, w)
        inv = CubicHermiteSpline(cum, edges, 1.0 / w)
        return fwd, inv, cum[0], cum[-1]

    def _warp_pair(self, power):
        attr = "_zeta_spline" if power == -0.5 else "_eta_spline"
        if getattr(self, attr) is None:
            setattr(self, attr, self._build_spline(power))
        return getattr(self, attr)

    def _warp(self, x, power):
        fwd, _, zlo, zhi = self._warp_pair(power)
        x = np.asarray(x, dtype=float)
        out = np.where(
            x < -self.R, zlo + (x + self.R) * self.p_minus**power,
            np.where(x > self.R, zhi + (x - self.R) * self.p_plus**power, fwd(np.clip(x, -self.R, self.R))),
        )
        return out if out.ndim else float(out)

    def _warp_inv(self, z, power):
        fwd, inv, zlo, zhi = self._warp_pair(power)
        z = np.asarray(z, dtype=float)
        inside = inv(np.clip(z, zlo, zhi))
        # two Newton passes against the forward spline tighten the inverse
        for _ in range(2):
            w = self.eval_p(np.clip(inside, -self.R, self.R)) ** power
            inside = np.clip(inside - (fwd(np.clip(inside, -self.R, self.R)) - np.clip(z, zlo, zhi)) / w,
                             -self.R, self.R)
        out = np.where(
            z < zlo, -self.R + (z - zlo) / self.p_minus**power,
            np.where(z > zhi, self.R + (z - zhi) / self.p_plus**power, inside),
        )
        return out if out.ndim else float(out)

    def mu(self, interval):
        """Adaptive-quadrature mu_p (Gauss-Kronrod on the blend region)."""
        a, b = _unpack(interval)
        if b <= a:
            return 0.0
        total = 0.0
        lo, hi = max(a, -self.R), min(b, self.R)
        if a < -self.R:
            total += (min(b, -self.R) - a) / np.sqrt(self.p_minus)
        if b > self.R:
            total += (b - max(a, self.R)) / np.sqrt(self.p_plus)
        if hi > lo:
            val, err = integrate.quad(
                lambda u: self.eval_p(u) ** -0.5, lo, hi, epsabs=1e-10, epsrel=1e-8, limit=200,
            )
            if err > 1e-6 * (1 + abs(val)):
                raise QuadratureError(f"mu_p quadrature residual {err:g}")
            total += val
        return float(total)

    def inf_p(self, a, b):
        a, b = _gap_ends(a, b)
        out = np.minimum(self.eval_p(a), self.eval_p(b))
        out = np.where(a < -self.R, np.minimum(out, self.p_minus), out)
        out = np.where(b > self.R, np.minimum(out, self.p_plus), out)
        # 129 samples of p over each gap's part of the blend region [-R, R]
        lo, hi = np.maximum(a, -self.R), np.minimum(b, self.R)
        blend = hi > lo
        samples = self.eval_p(np.linspace(lo[blend], hi[blend], 129, axis=-1))
        out[blend] = np.minimum(out[blend], samples.min(axis=-1))
        return out if out.ndim else float(out)

    def potential_q(self, x):
        """Liouville potential evaluated at the warped point zeta(x)."""
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < self.R
        xc = np.where(inside, x, 0.0)
        q = np.asarray(self.ddp_func(xc), dtype=float) / 4.0 - np.asarray(
            self.dp_func(xc), dtype=float
        ) ** 2 / (16.0 * np.asarray(self.p_func(xc), dtype=float))
        out = np.where(inside, q, 0.0)
        return out if out.ndim else float(out)

    def potential_q_warped(self, s):
        """Potential as a function of the Schrodinger coordinate s = zeta(x)."""
        return self.potential_q(self.zeta_inv(s))

    @property
    def warped_support_radius(self):
        """Radius a with supp q inside [-a, a] in the warped coordinate."""
        return float(max(abs(self.zeta(-self.R)), abs(self.zeta(self.R))))


def blend_profile(p_minus, p_plus, R=1.0, kind="quintic"):
    """Smooth eventually-constant profile interpolating p_minus -> p_plus on [-R, R].

    ``quintic`` gives a C^2 profile (continuous Liouville potential);
    ``cubic`` is C^1 with a bounded, jump-discontinuous potential.
    """
    dpv = p_plus - p_minus

    def t_of(x):
        return (np.asarray(x, dtype=float) + R) / (2 * R)

    if kind == "cubic":
        s = lambda t: 3 * t**2 - 2 * t**3
        s1 = lambda t: 6 * t - 6 * t**2
        s2 = lambda t: 6 - 12 * t
    elif kind == "quintic":
        s = lambda t: 10 * t**3 - 15 * t**4 + 6 * t**5
        s1 = lambda t: 30 * t**2 - 60 * t**3 + 30 * t**4
        s2 = lambda t: 60 * t - 180 * t**2 + 120 * t**3
    else:
        raise ProfileError(f"unknown blend kind {kind!r}")

    def clip01(t):
        return np.clip(t, 0.0, 1.0)

    p = lambda x: p_minus + dpv * s(clip01(t_of(x)))
    dp = lambda x: np.where(np.abs(np.asarray(x, float)) < R, dpv * s1(clip01(t_of(x))) / (2 * R), 0.0)
    ddp = lambda x: np.where(np.abs(np.asarray(x, float)) < R, dpv * s2(clip01(t_of(x))) / (2 * R) ** 2, 0.0)
    return SmoothProfile(p, dp, ddp, R, p_minus, p_plus)


def constant_profile(value=1.0, R=1.0):
    """p identically equal to ``value`` (smooth path; q vanishes)."""
    return blend_profile(value, value, R=R)


def admissibility_check(profile):
    """Report on 0 < c <= p <= C, eventual constancy and divergence of int 1/p."""
    reasons = []
    if profile.lower <= 0:
        reasons.append("not bounded below by a positive constant")
    if not np.isfinite(profile.upper):
        reasons.append("not bounded above")
    R = profile.plateau_radius
    probe = np.array([-3 * R - 1.0, -2 * R - 1.0, 2 * R + 1.0, 3 * R + 1.0])
    pv = np.atleast_1d(profile.eval_p(probe))
    if not (np.allclose(pv[:2], profile.p_minus) and np.allclose(pv[2:], profile.p_plus)):
        reasons.append("not eventually constant")
    # P(x) = int_0^x 1/p grows linearly for eventually constant p, hence is
    # not square integrable at either infinity: the self-adjointness criterion
    # holds automatically once the checks above pass.
    return AdmissibilityReport(not reasons, reasons, profile.lower, profile.upper)


def profile_from_config(cfg):
    """Build a profile from the experiment-config block.

    Piecewise: {"kind": "piecewise", "breakpoints": [...], "values": [...]}
    Smooth:    {"kind": "smooth_blend", "R": .., "p_minus": .., "p_plus": ..,
                "blend": "cubic"|"quintic"}
    """
    kind = cfg.get("kind")
    if kind == "piecewise":
        return PiecewiseConstantProfile(cfg["breakpoints"], cfg["values"])
    if kind == "smooth_blend":
        return blend_profile(
            cfg["p_minus"], cfg["p_plus"], R=cfg.get("R", 1.0), kind=cfg.get("blend", "quintic")
        )
    raise ProfileError(f"unknown profile kind {kind!r}")


def _unpack(interval):
    if isinstance(interval, Interval):
        return interval.a, interval.b
    a, b = interval
    return float(a), float(b)


def _gap_ends(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(b <= a):
        raise ProfileError("empty gap")
    return a, b


def _extended_interp(x, xp, fp, end_slopes):
    """Linear interpolant through (xp, fp), extended past both ends with the given slopes.

    The table passes through (0, 0). Points left of 0 are interpolated on the
    mirrored table, so that every point is reached from the knot nearer to 0
    and a value near 0 keeps its relative precision.
    """
    x = np.asarray(x, dtype=float)
    inner = np.where(x < 0, -np.interp(-x, -xp[::-1], -fp[::-1]), np.interp(x, xp, fp))
    out = np.where(
        x < xp[0], fp[0] + (x - xp[0]) * end_slopes[0],
        np.where(x > xp[-1], fp[-1] + (x - xp[-1]) * end_slopes[1], inner),
    )
    return out if out.ndim else float(out)
