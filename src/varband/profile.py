"""Bandwidth-parametrizing functions p and the scalar quantities derived from them.

A profile knows how to evaluate p, the adapted measure ``mu_p(I) = int_I
p^{-1/2}``, the warp ``zeta(x) = int_0^x p^{-1/2}`` and its inverse, the
Schrodinger potential obtained from the Liouville transform, and gap
statistics of sample sets measured against ``sqrt(p)``.

Two families are supported: piecewise-constant profiles (all integrals in
closed form) and smooth eventually-constant profiles given by evaluators for
(p, p', p'') that are exactly constant outside ``[-R, R]``.

`CubicHermite`, the cubic Hermite interpolant behind the smooth warp, lives
here so that the scattering layer can share it.
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
    """Common interface; see `PiecewiseConstantProfile` and `SmoothProfile`."""

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


class SmoothProfile(BandwidthProfile):
    """Profile given by evaluators (p, p', p'') with plateaus outside [-R, R]."""

    is_smooth = True

    def __init__(self, p, dp, ddp, R, p_minus, p_plus):
        if R <= 0:
            raise ProfileError("plateau radius must be positive")
        if p_minus <= 0 or p_plus <= 0:
            raise ProfileError("plateau values must be positive")
        self.p_func, self.dp_func, self.ddp_func = p, dp, ddp
        self.R = float(R)
        self.p_minus, self.p_plus = float(p_minus), float(p_plus)
        xs = np.linspace(-self.R, self.R, 2001)
        ps = np.asarray(p(xs), dtype=float)
        if np.any(ps <= 0):
            raise ProfileError("profile is not bounded below by a positive constant")
        self.lower = float(min(ps.min(), p_minus, p_plus))
        self.upper = float(max(ps.max(), p_minus, p_plus))
        if not (np.isclose(p(-self.R), p_minus, rtol=1e-10, atol=1e-12)
                and np.isclose(p(self.R), p_plus, rtol=1e-10, atol=1e-12)):
            raise ProfileError("p does not attain its plateau values at +-R")
        self._verify_derivatives()

    def _verify_derivatives(self):
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

    @cached_property
    def _zeta_spline(self):
        """Forward and inverse splines of zeta on [-R, R] and zeta(-R), zeta(R); built on first use."""
        n = 1601
        edges = np.linspace(-self.R, self.R, n)
        w = self.eval_p(edges) ** -0.5
        # cumulative integral of p^{-1/2} by per-panel Gauss-Legendre
        gx, gw = np.polynomial.legendre.leggauss(10)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        pts = mid[:, None] + half * gx[None, :]
        vals = self.eval_p(pts.ravel()).reshape(pts.shape) ** -0.5
        panel = half * vals @ gw
        cum = np.concatenate(([0.0], np.cumsum(panel)))
        # anchor at x = 0
        i0 = (n - 1) // 2
        cum -= cum[i0] if edges[i0] == 0.0 else np.interp(0.0, edges, cum)
        fwd = CubicHermite(edges, cum, w)
        inv = CubicHermite(cum, edges, 1.0 / w)
        return fwd, inv, cum[0], cum[-1]

    def zeta(self, x):
        fwd, _, zlo, zhi = self._zeta_spline
        x = np.asarray(x, dtype=float)
        out = np.where(
            x < -self.R, zlo + (x + self.R) * self.p_minus**-0.5,
            np.where(x > self.R, zhi + (x - self.R) * self.p_plus**-0.5, fwd(np.clip(x, -self.R, self.R))),
        )
        return out if out.ndim else float(out)

    def zeta_inv(self, z):
        fwd, inv, zlo, zhi = self._zeta_spline
        z = np.asarray(z, dtype=float)
        inside = inv(np.clip(z, zlo, zhi))
        # two Newton passes against the forward spline tighten the inverse
        for _ in range(2):
            w = self.eval_p(np.clip(inside, -self.R, self.R)) ** -0.5
            inside = np.clip(inside - (fwd(np.clip(inside, -self.R, self.R)) - np.clip(z, zlo, zhi)) / w,
                             -self.R, self.R)
        out = np.where(
            z < zlo, -self.R + (z - zlo) / self.p_minus**-0.5,
            np.where(z > zhi, self.R + (z - zhi) / self.p_plus**-0.5, inside),
        )
        return out if out.ndim else float(out)

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
