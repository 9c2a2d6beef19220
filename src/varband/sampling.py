"""Nonuniform sampling: gap tests, frame bounds, certified reconstruction.

The reconstruction operator is R f = P (sum_i f(x_i) chi_i) with chi_i the
midpoint cells of the sample set and P the spectral projection; iterating
h <- (I - R) h sums to the original function with a geometric certificate
gamma^(n+1) (pi + delta sqrt(Omega)) / (pi - delta sqrt(Omega)) ||f||, where
gamma = delta sqrt(Omega) / pi and delta is the max gap in local units.

The operator holds two (2 n_nodes, n_samples) tables of the model's real
basis U (Phi = mix U at each node): U at the samples and the integrals of U
over the cells. Both are float64 for every model, so every iteration reads
real tables; the mix, the weights and the transform prefactor act on the
(2, n_nodes) coefficients.

Where gamma >= 1 no certificate exists: the norm surrogate and the certified
bounds are then None (null in the JSON report), not infinities.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .kernel import _as_matrix, _sinc, toy_kernel
from .paleywiener import VarBandFunction
from .profile import _unpack


class SamplingError(ValueError):
    pass


@dataclass(frozen=True)
class SampleSet:
    points: np.ndarray

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise SamplingError("need a one-dimensional point sequence")
        if np.any(np.diff(pts) <= 0):
            raise SamplingError("sample points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.size


def _points(X):
    """The points of a `SampleSet`, or any point sequence as a float array."""
    return X.points if isinstance(X, SampleSet) else np.asarray(X, dtype=float)


def gap_condition(profile, X, omega_max):
    """(delta, passes): delta from the profile-weighted max gap, pass iff
    delta < pi / sqrt(omega_max)."""
    delta = profile.max_gap_delta(_points(X))
    return delta, bool(delta < np.pi / np.sqrt(omega_max))


def midpoint_partition(points, window):
    """Cell breakpoints: window edge, consecutive midpoints, window edge."""
    pts = np.asarray(points, dtype=float)
    a, b = _unpack(window)
    if pts[0] < a or pts[-1] > b:
        raise SamplingError("sample points escape the window")
    mids = 0.5 * (pts[:-1] + pts[1:])
    return np.concatenate(([a], mids, [b]))


@dataclass
class ReconstructionReport:
    delta: float
    gamma: float
    passes: bool
    norm_surrogate: float | None
    residuals: list = field(default_factory=list)
    certified: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False
    diagnosis: str = ""
    window: tuple = (0.0, 0.0)

    def to_json_dict(self):
        return {
            "delta": self.delta,
            "gamma": self.gamma,
            "gap_condition_passes": self.passes,
            "norm_surrogate": self.norm_surrogate,
            "residuals": list(map(float, self.residuals)),
            "certified_bounds": [None if c is None else float(c) for c in self.certified],
            "errors_vs_truth": list(map(float, self.errors)),
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            "diagnosis": self.diagnosis,
            "window": list(self.window),
        }


class ReconstructionOperator:
    """Precomputed R for a fixed model, sample set and window."""

    def __init__(self, model, X, window):
        self.model = model
        self.points = _points(X)
        self.window = _unpack(window)
        edges = midpoint_partition(self.points, self.window)
        # cells first, so their antiderivative table is freed before U is built
        self.cells = _as_matrix(np.diff(model.basis_antiderivative(edges), axis=-1))
        self.basis = _as_matrix(model.basis(self.points))

    def sample(self, f):
        return self.model.synthesize(f.F, self.basis)

    def from_values(self, values):
        return VarBandFunction(self.model, self.model.analyze(values, self.cells))

    def apply(self, f):
        return self.from_values(self.sample(f))


def reconstruct_iterative(model, profile, X, samples, omega_max, window,
                          n_max=40, tol=0.0, ground_truth=None):
    """Iterative reconstruction from samples with the geometric certificate.

    samples are the values f(x_i); ground_truth (a VarBandFunction) is only
    used to log true errors in the report.
    """
    X = X if isinstance(X, SampleSet) else SampleSet(X)
    delta, passes = gap_condition(profile, X, omega_max)
    gamma = delta * np.sqrt(omega_max) / np.pi
    R = ReconstructionOperator(model, X, window)
    h = R.from_values(samples)
    certify = gamma < 1
    surrogate = None
    if certify:
        cert_const = (np.pi + delta * np.sqrt(omega_max)) / (np.pi - delta * np.sqrt(omega_max))
        surrogate = float(h.norm() / (1.0 - gamma))
    report = ReconstructionReport(
        delta=float(delta), gamma=float(gamma), passes=passes,
        norm_surrogate=surrogate, window=R.window,
    )
    if not passes:
        report.diagnosis = "max-gap condition fails; convergence not certified"
    f_acc = h
    grow = 0
    for n in range(n_max):
        resid = h.norm()
        report.residuals.append(resid)
        report.certified.append(gamma ** (n + 1) * cert_const * surrogate if certify else None)
        if ground_truth is not None:
            report.errors.append((f_acc - ground_truth).norm())
        report.n_iterations = n + 1
        if len(report.residuals) >= 2 and resid > report.residuals[-2]:
            grow += 1
            if grow >= 3:
                report.diagnosis = (
                    "residual grew for 3 consecutive iterations; the sampling "
                    "operator is not a contraction here (check the gap condition "
                    "and window coverage)"
                )
                return f_acc, report
        else:
            grow = 0
        if tol > 0 and certify and report.certified[-1] < tol:
            report.converged = True
            break
        h = h - R.apply(h)
        f_acc = f_acc + h
    else:
        report.converged = bool(tol <= 0 or (certify and report.certified
                                             and report.certified[-1] < tol))
    return f_acc, report


def shannon_basis_toy(p_minus, p_plus, omega_max, j_max):
    """Nodes and weights of the step-profile orthonormal interpolation basis.

    x_j = pi j sqrt(p_minus) / sqrt(Omega) for j < 0, 0 at j = 0 and the
    mirrored form on the right; weights are sqrt(p_-), sqrt(p_+), with the
    average at the origin.
    """
    j = np.arange(-j_max, j_max + 1)
    sm, sp = np.sqrt(p_minus), np.sqrt(p_plus)
    scale = np.pi / np.sqrt(omega_max)
    nodes = np.where(j < 0, j * sm, j * sp) * scale
    weights = np.where(j < 0, sm, np.where(j > 0, sp, 0.5 * (sm + sp)))
    return nodes, weights


def shannon_expand(p_minus, p_plus, omega_max, sample_values, x):
    """f(x) = (pi / sqrt(Omega)) sum_j w_j f(x_j) k(x_j, x), from the 2 j_max + 1 values f(x_j)."""
    values = np.asarray(sample_values, dtype=complex)
    nodes, weights = shannon_basis_toy(p_minus, p_plus, omega_max, (values.size - 1) // 2)
    if values.size != nodes.size:
        raise SamplingError("sample count does not match the node range")
    scalar = not np.ndim(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    K = toy_kernel(p_minus, p_plus, omega_max, nodes[:, None], x[None, :])
    out = (np.pi / np.sqrt(omega_max)) * np.einsum("j,j,jk->k", weights, values, K)
    return complex(out[0]) if scalar else out


def _shannon_normalized(p_minus, p_plus, omega_max, j_max):
    """Nodes x_j and the norms sqrt(pi w_j / sqrt(Omega)) that make k(x_j, .) orthonormal."""
    nodes, weights = shannon_basis_toy(p_minus, p_plus, omega_max, j_max)
    return nodes, np.sqrt(np.pi * weights / np.sqrt(omega_max))


def shannon_gram(p_minus, p_plus, omega_max, j_max):
    """Gram matrix c_i k(x_i, x_j) c_j of the normalized basis: the identity if orthonormal."""
    nodes, c = _shannon_normalized(p_minus, p_plus, omega_max, j_max)
    K = toy_kernel(p_minus, p_plus, omega_max, nodes[:, None], nodes[None, :])
    return c[:, None] * K * c[None, :]


def halfline_expansion(omega_max, sample_values, x):
    """Sampling series on the half line from values at pi j / sqrt(Omega), j >= 1."""
    values = np.asarray(sample_values, dtype=complex)
    J = values.size
    u = np.sqrt(omega_max)
    scalar = not np.ndim(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = u * x
    j = np.arange(1, J + 1, dtype=float)
    # sin(z) 2 pi j / (z^2 - (pi j)^2) = (2 pi j / (z + pi j)) sinc(z - pi j)
    # times (-1)^j absorbed by shifting the sine; removable at the nodes
    terms = (2 * np.pi * j[:, None] / (z[None, :] + np.pi * j[:, None])) * _sinc(
        z[None, :] - np.pi * j[:, None]
    )
    out = np.einsum("j,jk->k", values, terms)
    return complex(out[0]) if scalar else out


def frame_bounds_estimate(model, X, window):
    """Smallest/largest squared singular values of the sampling map.

    Exact frame bounds for the discretized space spanned by the quadrature
    nodes (a finite surrogate for the continuum statement; the estimate is
    labeled as such in CLI output).  Rows are scaled by the lengths of the
    midpoint cells of the window.
    """
    pts = _points(X)
    if pts.size == 0:
        raise SamplingError("empty sample set")
    phiX = model.phi(pts)  # (2, n, N)
    col = np.sqrt(model._weights())  # (2, n)
    M = (phiX * col[:, :, None]).reshape(-1, pts.size).T  # (N, 2n)
    M = M * np.sqrt(np.diff(midpoint_partition(pts, window)))[:, None]
    s = np.linalg.svd(M, compute_uv=False)
    n_dof = M.shape[1]
    smin = s[n_dof - 1] if s.size >= n_dof else 0.0
    return float(smin**2), float(s[0] ** 2)


def _write_csv(path, header, table, fmt="%s"):
    """Write a header and the rows of a 2-D table as CSV: comma-separated, CRLF line ends.

    The default ``"%s"`` renders each float64 as its shortest round-trip
    repr, the text the csv module writes for a float; ``fmt`` may also be
    one format for every column, or a list of one format per column.
    """
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


def samples_to_csv(path, points, values):
    values = np.asarray(values, dtype=complex)
    _write_csv(path, ["x", "re_value", "im_value"],
               np.column_stack([points, values.real, values.imag]))


def samples_from_csv(path):
    pts, vals = [], []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r, None)
        for row in r:
            try:
                pts.append(float(row[0]))
                vals.append(float(row[1]) + 1j * float(row[2]))
            except (ValueError, IndexError) as exc:
                raise SamplingError(f"malformed samples file {path}, line {r.line_num}: "
                                    f"{exc}") from None
    return np.asarray(pts), np.asarray(vals)
