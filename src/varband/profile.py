"""Bandwidth-parametrizing functions p and the scalar quantities derived from them.

A profile knows how to evaluate p, the adapted measure ``mu_p(I) = int_I
p^{-1/2}``, the warp ``zeta(x) = int_0^x p^{-1/2}`` and its inverse, the
Schrodinger potential obtained from the Liouville transform, and gap
statistics of sample sets measured against ``sqrt(p)``.

Two families are supported: piecewise-constant profiles (all integrals in
closed form) and smooth eventually-constant profiles, the blends of two
plateaus by a cubic or quintic smoothstep over ``[-R, R]`` (`BlendProfile`),
whose p, p' and p'' are polynomials in closed form.

`CubicHermite`, the package's one cubic Hermite interpolant, lives here; the
scattering layer keeps its interior solution in it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import REQUIRED, Table, choice, number, numbers


class ProfileError(ValueError):
    pass


class UnsupportedProfileError(ProfileError):
    """Raised when an operation needs derivatives a profile cannot supply."""


class CubicHermite:
    """Piecewise cubic through knots x (strictly increasing) with values y and slopes dydx.

    y and dydx have shape (len(x), ...); the trailing axes are carried through,
    so a call at points of shape s returns shape s + y.shape[1:]. Only the knot
    data is held, as given (no copy of an array is made): each call forms the
    power-basis coefficients in (t - x_i) of the pieces its points fall in.
    Points outside [x_0, x_-1] continue the end pieces.
    """

    def __init__(self, x, y, dydx):
        self.x = np.asarray(x, dtype=float)
        self.y, self.dydx = np.asarray(y), np.asarray(dydx)

    def _local(self, t):
        """Piece index i, offset s = t - x_i, and the piece's coefficients of s^3, ..., s^0."""
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        col = t.shape + (1,) * (self.y.ndim - 1)
        s = (t - self.x[i]).reshape(col)
        h = (self.x[i + 1] - self.x[i]).reshape(col)
        y0, m0 = self.y[i], self.dydx[i]
        slope = (self.y[i + 1] - y0) / h
        c = (m0 + self.dydx[i + 1] - 2 * slope) / h
        return i, s, (c / h, (slope - m0) / h - c, m0, y0)

    def __call__(self, t):
        _, s, (c3, c2, c1, c0) = self._local(t)
        return ((c3 * s + c2) * s + c1) * s + c0

    @cached_property
    def _at_knots(self):
        """Integral from the first knot to each knot; a piece adds h (y0 + y1)/2 + h^2 (m0 - m1)/12."""
        y, m = self.y, self.dydx
        h = np.diff(self.x).reshape((-1,) + (1,) * (y.ndim - 1))
        out = np.zeros(y.shape, dtype=np.result_type(y, m, float))
        np.add(y[:-1], y[1:], out=out[1:])
        out[1:] *= h / 2
        ends = m[:-1] - m[1:]
        ends *= h * h / 12
        out[1:] += ends
        return np.cumsum(out, axis=0, out=out)

    def antiderivative(self, t):
        """Integral of the interpolant from the first knot to t, exact.

        Past the ends it integrates the continued end pieces, as the
        evaluation does.
        """
        i, s, (c3, c2, c1, c0) = self._local(t)
        return (((c3 * s / 4 + c2 / 3) * s + c1 / 2) * s + c0) * s + self._at_knots[i]


class BandwidthProfile:
    """Common interface; see `PiecewiseConstantProfile` and `BlendProfile`."""

    is_smooth = False

    def __call__(self, x):
        return self.eval_p(x)

    # -- warped coordinates -------------------------------------------------

    def zeta(self, x):
        """int_0^x p^{-1/2}."""
        raise NotImplementedError

    def zeta_inv(self, z):
        """The x with zeta(x) = z."""
        raise NotImplementedError

    def mu(self, interval):
        """mu_p of an (a, b) pair: zeta(b) - zeta(a), for both families."""
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
        # knot table of the warp: zeta(k) = int_0^k p^{-1/2} at each knot k,
        # so that zeta is its linear interpolant; summed outward from 0, so
        # every entry keeps its relative precision. The breakpoints are sorted
        # and distinct, so 0 joins them by a sort: np.union1d would load
        # numpy.ma on import, where `schrodinger` builds the unit profile
        bp = self.breakpoints
        k = self._knots = bp if 0.0 in bp else np.sort(np.append(bp, 0.0))
        piece = np.diff(k) * self.eval_p(k[:-1]) ** -0.5
        i0 = np.searchsorted(k, 0.0)
        self._zeta_at_knots = np.concatenate(
            (-np.cumsum(piece[:i0][::-1])[::-1], [0.0], np.cumsum(piece[i0:])))

    def eval_p(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="right")
        out = self.values[idx]
        return out if out.ndim else float(out)

    def zeta(self, x):
        return _extended_interp(x, self._knots, self._zeta_at_knots, self.values[[0, -1]] ** -0.5)

    def zeta_inv(self, z):
        return _extended_interp(z, self._zeta_at_knots, self._knots, self.values[[0, -1]] ** 0.5)

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


class BlendProfile(BandwidthProfile):
    """p = p_minus on x <= -R, p_plus on x >= R, and p- + (p+ - p-) s(t) between.

    t = (x + R) / (2R) and s is the cubic smoothstep 3t^2 - 2t^3 (C^1 p,
    potential with jumps at +-R) or the quintic 10t^3 - 15t^4 + 6t^5 (C^2,
    continuous potential), so p, p' and p'' are polynomials in t, evaluated
    by Horner's rule.  s increases from 0 to 1, so p is monotone and its
    bounds are exact: ``lower`` and ``upper`` are the plateaus, and inf p
    over a gap is the smaller of p at its ends, clipped to the plateaus.
    zeta(+-R) are Gauss-Legendre sums over [-R, 0] and [0, R] of the size
    `_warp_points` sets, computed on first use and kept; beyond them zeta is
    affine.  Inside, zeta and its inverse are cubic Hermite splines on 1601
    knots, built only when a point inside is asked for and anchored to
    those ends; the inverse is tightened by two Newton passes against the
    forward spline.  A radius that is not positive and finite, a plateau
    that is not positive, a plateau ratio that overflows and a blend whose
    warp needs more than `_WARP_POINTS_MAX` points raise `ProfileError`.
    """

    is_smooth = True
    _SMOOTHSTEPS = {"cubic": (0.0, 0.0, 3.0, -2.0), "quintic": (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)}
    _WARP_POINTS_MAX = 1024  # Gauss-Legendre points of a warp sum; more are refused

    def __init__(self, p_minus, p_plus, R=1.0, kind="quintic"):
        if kind not in self._SMOOTHSTEPS:
            raise ProfileError(f"unknown blend kind {kind!r}")
        if not 0 < R < np.inf:
            raise ProfileError(f"plateau radius must be positive and finite, got {R:g}")
        if not (p_minus > 0 and p_plus > 0):
            raise ProfileError("plateau values must be positive")
        self.R, self.kind = float(R), kind
        self.p_minus, self.p_plus = float(p_minus), float(p_plus)
        self.lower, self.upper = min(self.p_minus, self.p_plus), max(self.p_minus, self.p_plus)
        if not self.upper / self.lower < np.inf:
            raise ProfileError(f"the plateau ratio {self.p_plus:g} / {self.p_minus:g} overflows")
        # p in t, coefficients of t^0, t^1, ...
        self._coefs = np.array(self._SMOOTHSTEPS[kind]) * (self.p_plus - self.p_minus)
        self._coefs[0] += self.p_minus
        self._points = _warp_points(self._coefs, self.upper)
        if self._points > self._WARP_POINTS_MAX:
            raise ProfileError(
                f"the {kind} blend from {self.p_minus:g} to {self.p_plus:g} is too steep: "
                f"its warp needs {self._points} Gauss-Legendre points, more than "
                f"{self._WARP_POINTS_MAX}")

    def _t(self, x):
        return np.clip((np.asarray(x, dtype=float) + self.R) / (2 * self.R), 0.0, 1.0)

    def eval_p(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < -self.R, self.p_minus,
                       np.where(x > self.R, self.p_plus, _horner(self._coefs, self._t(x))))
        return out if out.ndim else float(out)

    p_func = eval_p  # p on the whole line, by the name independent reference solvers call

    @cached_property
    def _ends(self):
        """zeta(-R) and zeta(R), the `_warp_points`-point Gauss-Legendre sums over [-R, 0] and [0, R]."""
        nodes, weights = np.polynomial.legendre.leggauss(self._points)
        half = 0.5 * np.array([-self.R, self.R])
        return tuple((half * (self.eval_p(half[:, None] * (1.0 + nodes)) ** -0.5 @ weights)).tolist())

    @cached_property
    def _zeta_spline(self):
        """Forward and inverse splines of zeta on [-R, R], anchored to `_ends`; built on first use.

        The 1600 panels between 1601 knots, symmetric about 0, are each
        integrated by 10-point Gauss-Legendre and summed outward from 0, and
        each half is scaled to meet its end exactly.
        """
        e = np.linspace(0.0, self.R, 801)
        gx, gw = np.polynomial.legendre.leggauss(10)
        h, mid = 0.5 * np.diff(e), 0.5 * (e[1:] + e[:-1])
        halves = []
        for sign, end in zip((-1.0, 1.0), self._ends):
            run = np.cumsum(h * (self.eval_p(sign * (mid[:, None] + h[:, None] * gx)) ** -0.5 @ gw))
            halves.append(run * (end / run[-1]))
        knots = np.concatenate((-e[:0:-1], e))
        cum = np.concatenate((halves[0][::-1], [0.0], halves[1]))
        w = self.eval_p(knots) ** -0.5
        return CubicHermite(knots, cum, w), CubicHermite(cum, knots, 1.0 / w)

    def zeta(self, x):
        x = np.asarray(x, dtype=float)
        (zlo, zhi), R = self._ends, self.R
        out = np.where(x < 0, zlo + (x + R) * self.p_minus**-0.5,
                       zhi + (x - R) * self.p_plus**-0.5)
        inside = np.abs(x) < R
        if inside.any():
            out[inside] = self._zeta_spline[0](x[inside])
        return out if out.ndim else float(out)

    def zeta_inv(self, z):
        z = np.asarray(z, dtype=float)
        (zlo, zhi), R = self._ends, self.R
        out = np.where(z < 0, -R + (z - zlo) * self.p_minus**0.5,
                       R + (z - zhi) * self.p_plus**0.5)
        inside = (zlo < z) & (z < zhi)
        if inside.any():
            fwd, inv = self._zeta_spline
            target = z[inside]
            x = inv(target)
            for _ in range(2):  # two Newton passes against the forward spline tighten the inverse
                x = np.clip(x - (fwd(x) - target) * self.eval_p(x) ** 0.5, -R, R)
            out[inside] = x
        return out if out.ndim else float(out)

    def inf_p(self, a, b):
        a, b = _gap_ends(a, b)
        # p is monotone and constant beyond +-R: its infimum is at an end of the gap
        out = np.minimum(self.eval_p(a), self.eval_p(b))
        return out if out.ndim else float(out)

    def potential_q(self, x):
        """Liouville potential p''/4 - p'^2 / (16 p) at x, 0 outside (-R, R)."""
        x = np.asarray(x, dtype=float)
        t = self._t(x)
        scale = 1.0 / (2 * self.R)
        d1 = np.arange(1, self._coefs.size) * self._coefs[1:] * scale
        d2 = np.arange(1, d1.size) * d1[1:] * scale
        p, dp, ddp = (_horner(c, t) for c in (self._coefs, d1, d2))
        out = np.where(np.abs(x) < self.R, ddp / 4.0 - dp**2 / (16.0 * p), 0.0)
        return out if out.ndim else float(out)

    def potential_q_warped(self, s):
        """Potential as a function of the Schrodinger coordinate s = zeta(x)."""
        return self.potential_q(self.zeta_inv(s))

    @property
    def warped_support_radius(self):
        """Radius a with supp q inside [-a, a] in the warped coordinate."""
        return float(max(-self._ends[0], self._ends[1]))


def _horner(coefs, t):
    """The polynomial with coefficients of t^0, t^1, ... at t, by Horner's rule."""
    out = np.full(np.shape(t), coefs[-1])
    for c in coefs[-2::-1]:
        out = out * t + c
    return out


def _warp_points(coefs, p_max):
    """Gauss-Legendre points for int p^(-1/2) over [0, 1/2] and [1/2, 1] to a relative 2^-53.

    p has coefficients ``coefs`` of t^0, t^1, ..., and 0 < p <= p_max on
    [0, 1].  On a half, t = c + tau / 4, and f = p^(-1/2) is analytic in the
    Bernstein ellipse E_rho for rho below every rho_i = |tau_i +
    sqrt(tau_i^2 - 1)| > 1 of the roots tau_i of p.  With tau = (w + 1/w) / 2,
    |w| = rho, on its boundary, and tau_i = (v + 1/v) / 2, |tau - tau_i| =
    |w - v| |1 - 1 / (w v)| / 2 >= (rho_i - rho) (1 - 1 / (rho rho_i)) / 2,
    so |p| >= |lead| 4^-degree times their product there, and inside, 1/p
    being analytic: |f| <= M_rho.  The n-point rule's error on [-1, 1] is
    at most (64/15) M_rho rho^(-2n) / (rho^2 - 1) (Trefethen, Approximation
    Theory and Approximation Practice, Thm 19.3), and the integral at least
    2 p_max^(-1/2).  Returns the fewest n that meet 2^-53 of it on both
    halves, minimised over 32 rho spread evenly below min(rho_i, 1e3).
    The sums use numpy's `leggauss`, whose own rounding grows with n: against
    30-digit quadrature they missed by at most 12u at n <= 45, up to 380u
    at n = 116 to 159, and 2.8e4 u at n = 541 (a cubic blend of ratio 1e6).
    """
    desc = np.trim_zeros(np.asarray(coefs[::-1], dtype=float), "f")
    tau = 4.0 * (np.roots(desc) - np.array([[0.25], [0.75]]))
    root = np.sqrt(tau * tau - 1 + 0j)
    rho_i = np.maximum(np.abs(tau + root), np.abs(tau - root))[:, None, :]
    top = np.minimum(rho_i.min(axis=2, initial=np.inf), 1e3)
    rho = 1.0 + (top - 1.0) * np.arange(1, 33) / 33
    least = abs(desc[0]) * 0.25 ** (desc.size - 1) * np.prod(
        0.5 * (rho_i - rho[..., None]) * (1.0 - 1.0 / (rho[..., None] * rho_i)), axis=2)
    n = np.log(64 / 15 * (p_max / least) ** 0.5 / (2 * 2.0**-53 * (rho**2 - 1))) / (2 * np.log(rho))
    return max(1, int(np.ceil(n.min(axis=1).max())))


blend_profile = BlendProfile  # blend_profile(p_minus, p_plus, R=1.0, kind="quintic")


def constant_profile(value=1.0, R=1.0):
    """p identically equal to ``value`` (smooth path; q vanishes)."""
    return blend_profile(value, value, R=R)


# the format of a config's profile block: one table per kind
PROFILE_FIELDS = {
    "piecewise": Table({"kind": (choice("piecewise"), REQUIRED),
                        "breakpoints": (numbers(empty=True), REQUIRED),
                        "values": (numbers(), REQUIRED)}),
    "smooth_blend": Table({"kind": (choice("smooth_blend"), REQUIRED),
                           "p_minus": (number, REQUIRED), "p_plus": (number, REQUIRED),
                           "R": (number, 1.0), "blend": (choice("cubic", "quintic"), "quintic")}),
}


def profile_from_config(cfg):
    """Build a profile from a config's profile block, read through `PROFILE_FIELDS`.

    Piecewise: {"kind": "piecewise", "breakpoints": [...], "values": [...]}
    Smooth:    {"kind": "smooth_blend", "R": .., "p_minus": .., "p_plus": ..,
                "blend": "cubic"|"quintic"}

    An unknown, missing or mistyped key raises `ProfileError`.
    """
    if not isinstance(cfg, dict):
        raise ProfileError(f"profile must hold a JSON object, not a {type(cfg).__name__}")
    kind = cfg.get("kind")
    if not (isinstance(kind, str) and kind in PROFILE_FIELDS):
        raise ProfileError(f"unknown profile kind {kind!r}, not 'piecewise' or 'smooth_blend'")
    c = PROFILE_FIELDS[kind](cfg, "profile", ProfileError)
    if kind == "piecewise":
        return PiecewiseConstantProfile(c.breakpoints, c.values)
    return blend_profile(c.p_minus, c.p_plus, R=c.R, kind=c.blend)


def _unpack(interval):
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
