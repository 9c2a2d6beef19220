"""Nonuniform sampling: gap tests, frame bounds, certified reconstruction.

The reconstruction operator is R f = P (sum_i f(x_i) chi_i) with chi_i the
midpoint cells of the sample set and P the spectral projection; iterating
h <- (I - R) h sums to the original function with a geometric certificate
gamma^(n+1) (pi + delta sqrt(Omega)) / (pi - delta sqrt(Omega)) ||f||, where
gamma = delta sqrt(Omega) / pi and delta is the max gap in local units.

The operator needs two products with the model's real basis U (Phi = mix U
at each node): with U at the samples, and with the integrals of U over the
cells; the mix and the weights act on the (2, n_nodes) coefficients. Both
run on the model's `plan` (`kernel._Plan`): off the model's interior,
where U is plane-wave tails (everywhere for the step profile and p = 1),
on a window-matched lattice rule, as nonuniform FFTs in the warp z
(`spectral.LatticeTransform`, remainder 2.0e-16) on one grid per side,
with the per-side maps, the mix, the weights and the deconvolution folded
into two per-node tables; inside [-a, a], and everywhere on a Gauss rule,
from float64 tables of U that every iteration reads. The same plan
evaluates the reconstruction on an output grid (`VarBandFunction.evaluate`),
on the tails within its remainder times the l1 norm of the coefficients of
exp(+-i omega z), plus rounding. The frame bounds are read off U as well
(see `frame_bounds_estimate`).

Where gamma >= 1 no certificate exists: the norm surrogate and the certified
bounds are then None (null in the JSON report), not infinities.
"""

from __future__ import annotations

import csv
import time
import warnings
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .config import read_text
from .kernel import _sinc, toy_kernel
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
    # how R ran: its plan's kind, remainder, taps and FFT lengths, under report.json's names
    operator: dict = field(default_factory=dict)
    operator_seconds: float = 0.0  # time to build R; a timing, left out of the JSON

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
    """Precomputed R for a fixed model, sample set and window.

    R runs on the model's `plan` of the samples and the cell edges
    (`kernel._Plan`): nonuniform FFTs for U on the tails of a lattice rule,
    real tables of U elsewhere. The plan's ``kind``, ``remainder``, ``taps``
    and ``fft_lengths`` say how; `reconstruct_iterative` reports them.
    """

    def __init__(self, model, X, window):
        self.model = model
        self.points = _points(X)
        self.window = _unpack(window)
        self.plan = model.plan(self.points, midpoint_partition(self.points, self.window))

    def sample(self, f):
        return self.plan.at_points(f.F)

    def from_values(self, values):
        return VarBandFunction(self.model, self.plan.over_cells(values))

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
    start = time.perf_counter()
    R = ReconstructionOperator(model, X, window)
    built = time.perf_counter() - start
    h = R.from_values(samples)
    certify = gamma < 1
    surrogate = None
    if certify:
        cert_const = (np.pi + delta * np.sqrt(omega_max)) / (np.pi - delta * np.sqrt(omega_max))
        surrogate = float(h.norm() / (1.0 - gamma))
    report = ReconstructionReport(
        delta=float(delta), gamma=float(gamma), passes=passes,
        norm_surrogate=surrogate, window=R.window,
        operator={"sampling_operator": R.plan.kind,
                  "sampling_operator_remainder": R.plan.remainder,
                  "sampling_operator_taps": R.plan.taps,
                  "sampling_operator_fft_lengths": R.plan.fft_lengths},
        operator_seconds=built,
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
    labeled as such in CLI output).  The real N x 2n matrix
    sqrt(cell) U(x)^T L, with L the per-node Cholesky factor of the model's
    ``sigma``, has M M^T = sqrt(cell) k(x_i, x_j) sqrt(cell): the singular
    values of the complex matrix of sqrt(cell w rho) Phi, up to the sweep's
    unitarity defect, from a real SVD.  The cells are the midpoint cells of
    the window.
    """
    pts = _points(X)
    if pts.size == 0:
        raise SamplingError("empty sample set")
    L = np.linalg.cholesky(model.sigma.transpose(2, 0, 1))  # (n, 2, 2)
    M = np.einsum("alk,lab->kbl", model.basis(pts), L).reshape(pts.size, -1)  # (N, 2n)
    M *= np.sqrt(np.diff(midpoint_partition(pts, window)))[:, None]
    s = np.linalg.svd(M, compute_uv=False)
    n_dof = M.shape[1]
    smin = s[n_dof - 1] if s.size >= n_dof else 0.0
    return float(smin**2), float(s[0] ** 2)


_G12_ROWS = 16  # rows per block: under 1 MB of temporaries at 402 columns, which stay in cache
# [e + 11] for e = -11 ... 33: 10^(11 - e) is _SCALE_UP / _SCALE_DOWN, one of them 1 and
# the other an exact float64 (10^22 is the largest power of ten that is)
_SCALE_UP = np.array([10 ** max(11 - e, 0) for e in range(-11, 34)], dtype=np.float64)
_SCALE_DOWN = np.array([10 ** max(e - 11, 0) for e in range(-11, 34)], dtype=np.float64)


def _words(byte_rows):
    """Each row of 8k bytes as k little-endian uint64 words: byte i is bits 8i to 8i + 7."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view("<u8")


def _text_words(texts):
    """One 8-byte word per text of at most 8 bytes, padded with 0 bytes."""
    return _words(np.array(texts, dtype="S8").view(np.uint8).reshape(-1, 8))[:, 0]


def _group_words():
    """[2 g + tail]: the ASCII of the four digits of g = 0 ... 9999 in the low 32 bits of
    a word; with tail = 1 its trailing zeros are 0 bytes (all four for g = 0)."""
    g = np.arange(10**4, dtype=np.int32)
    words = np.zeros((10**4, 2, 8), dtype=np.uint8)
    for j in range(4):
        words[:, 0, j] = g // 10 ** (3 - j) % 10 + ord("0")
        # a trailing zero: this digit and all after it are 0
        words[:, 1, j] = np.where(g % 10 ** (4 - j) == 0, 0, words[:, 0, j])
    return _words(words.reshape(-1, 8))[:, 0]


_GROUP_WORDS = _group_words()
_BYTE = np.arange(16)
_BELOW = _words(0xFF * (_BYTE < np.arange(17)[:, None]))  # [w]: bytes 0 ... w - 1 of 16
_POINT = _words(ord(".") * (_BYTE == np.arange(17)[:, None]))  # [w]: '.' at byte w; [16]: none
_ASCII_ZERO = 0x3030303030303030  # '0' in every byte; OR leaves a digit as it is
# [2 (e + 11) + 1 if v < 0]: the sign, and '0.' with -e - 1 zeros for -4 <= e < 0
_PREFIX = _text_words([sign + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
                      for e in range(-11, 35) for sign in (b"\0", b"-")])
# [2 (e + 11) + 1 if last in its row]: 'e-05' ... 'e+34' outside -4 <= e < 12, then the separator
_SUFFIX = _text_words([(b"" if -4 <= e < 12 else b"e%+03d" % e).ljust(4, b"\0") + sep
                      for e in range(-11, 35) for sep in (b",", b"\r\n")])


def _g12_digits(x):
    """The significant digits and exponent of '%.12g' for float64 magnitudes x.

    Returns (m, e, ok): m in [1e11, 1e12) is the value rounded to 12
    significant digits, as an integer, and e its decimal exponent, so that
    x rounds to m 10^(e - 11). With e = floor(log10 x) and 10^(11 - e) one
    of the exact powers 10^0 ... 10^22, s = x 10^(11 - e) is one correctly
    rounded product (or quotient) of the exact S (Clinger's fast path, PLDI
    1990). Every k + 1/2 below 2^52 is a float64 and rounding is monotone,
    so s lies on the same side of k + 1/2 as S unless it equals it: rint(s)
    is S rounded, unless s is a tie, with no guard band. 999999999999.5 and
    up carry into the next power of ten. ``ok`` is False where the digits
    are not decided: zero, inf, nan, s a tie, e outside [-11, 33], where
    10^(11 - e) is not exact, and the rare x next to a power of ten whose
    log10 rounds across it; there m and e are placeholders.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # fmax and fmin map nan, inf and log10(0) = -inf into the table's range
        e = np.fmin(np.fmax(np.floor(np.log10(x)), -11.0), 33.0).astype(np.intp)
        s = x * _SCALE_UP[e + 11] / _SCALE_DOWN[e + 11]
        m = np.rint(s)
        ok = (s >= 1e11) & (m <= 1e12) & (np.abs(s - m) < 0.5)
    carry = m == 1e12
    e += carry
    return np.where(ok & ~carry, m, 1e11).astype(np.int64), np.where(ok, e, 0), ok


def _g12_rows(table):
    """The bytes of a 2-D table that np.savetxt(fmt="%.12g", delimiter=",",
    newline="\\r\\n") writes: its `_g12_slots` without their 0 bytes."""
    slots = _g12_slots(np.ascontiguousarray(table, dtype=np.float64))
    return slots.tobytes().translate(None, b"\0")


def _g12_slots(table):
    """Four 8-byte words per value of a 2-D table, row by row: '%.12g' % v and its separator.

    The words hold the sign and the '0.' lead of |v| < 1, the 12 digits with
    the point, the exponent and the separator; a 0 byte marks a column the
    value does not use. %g writes a value of exponent e in fixed notation
    for -4 <= e < 12 and in exponent notation otherwise, and drops trailing
    zeros of the fraction and a bare point. A value whose digits
    `_g12_digits` does not decide is formatted by Python into its words.
    """
    v = table.ravel()
    m, e, ok = _g12_digits(np.abs(v))
    out = np.empty((v.size, 4), dtype="<u8")
    out[:, 1], out[:, 2] = _digit_words(m, e)
    code = 2 * (e + 11)
    out[:, 0] = _PREFIX[code + (v < 0)]
    code.reshape(table.shape)[:, -1] += 1
    out[:, 3] = _SUFFIX[code]
    slow = np.flatnonzero(~ok)
    text = np.array(["%.12g" % x for x in v[slow].tolist()], dtype="S24")
    out[slow, :3] = text.view("<u8").reshape(-1, 3)
    return out


def _digit_words(m, e):
    """The 12 digits of m with the point, as bytes 0-12 of two words (lo, hi).

    The digits come in three groups of four, with the trailing zeros of the
    last nonzero group and of the zero groups after it dropped. Where e >= 0
    in fixed notation, or in exponent notation, the `whole` digits before the
    point get back their zeros, and the point goes in before the rest.
    """
    high = m // 10**4
    g0 = high // 10**4
    g1 = high - g0 * 10**4
    g2 = m - high * 10**4
    tail1 = g2 == 0
    tail0 = tail1 & (g1 == 0)
    lo = _GROUP_WORDS[2 * g0 + tail0] | _GROUP_WORDS[2 * g1 + tail1] << 32
    hi = _GROUP_WORDS[2 * g2 + 1]
    inner = np.flatnonzero((e >= 0) | (e < -4))
    ei = e[inner]
    whole = np.where((ei >= 0) & (ei < 12), ei + 1, 1)
    lo_i, hi_i = lo[inner], hi[inner]
    below_lo, below_hi = _BELOW[whole, 0], _BELOW[whole, 1]
    point = np.where(((lo_i & ~below_lo) | (hi_i & ~below_hi)) != 0, whole, 16)
    lo_i |= below_lo & _ASCII_ZERO
    hi_i |= below_hi & _ASCII_ZERO
    moved = lo_i & ~below_lo  # bytes from `whole` on move one up for the point
    lo[inner] = lo_i & below_lo | moved << 8 | _POINT[point, 0]
    hi[inner] = hi_i & below_hi | (hi_i & ~below_hi) << 8 | moved >> 56 | _POINT[point, 1]
    return lo, hi


def _write_csv(path, header, table, fmt="%s"):
    """Write a header and the rows of a 2-D table as CSV: comma-separated, CRLF line ends.

    The default ``"%s"`` renders each float64 as its shortest round-trip
    repr, the text the csv module writes for a float; ``fmt`` may also be
    one format for every column, or a list of one format per column.
    ``"%s"`` tables (of float64 or integers) are written from
    ``table.tolist()``, and ``"%.12g"`` tables are encoded by `_g12_rows`,
    `_G12_ROWS` rows at a time: either way exactly the bytes np.savetxt
    writes for them, without formatting each row through numpy scalars.
    Every other format goes through np.savetxt.
    """
    if fmt == "%s":
        lines = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")
        return
    if fmt == "%.12g":
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            for i in range(0, len(table), _G12_ROWS):
                fh.write(_g12_rows(table[i:i + _G12_ROWS]))
        return
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


def samples_to_csv(path, points, values):
    values = np.asarray(values, dtype=complex)
    _write_csv(path, ["x", "re_value", "im_value"],
               np.column_stack([points, values.real, values.imag]))


def samples_from_csv(path):
    """Points and complex values from a samples CSV: a header line, then x, re, im per row.

    The rows are converted in one pass by numpy's C reader. Only if that
    fails, if it returns fewer rows than the text has lines after the header
    (it skips blank lines, which are errors here), or if a value is not
    finite, are they read again row by row by the csv module, so that the
    error names the first bad line; that reading also accepts what the C
    reader does not, such as quoted fields.
    """
    text = read_text(path, "samples", SamplingError)
    n_rows = len(text.splitlines()) - 1
    if n_rows < 1:
        return _samples_by_row(text, path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data": only blank lines
            table = np.loadtxt(StringIO(text, newline=""), delimiter=",", skiprows=1,
                               usecols=(0, 1, 2), comments=None, ndmin=2)
    except ValueError:
        return _samples_by_row(text, path)
    if len(table) != n_rows or not np.isfinite(table).all():
        return _samples_by_row(text, path)
    x, re, im = table.T.copy()
    return x, re + 1j * im


def _samples_by_row(text, path):
    """`samples_from_csv` row by row: raises at the first row that is not three finite numbers."""
    pts, vals = [], []
    r = csv.reader(StringIO(text, newline=""))
    next(r, None)
    for row in r:
        try:
            x, re, im = (float(v) for v in row[:3])
            if not np.isfinite([x, re, im]).all():
                raise ValueError("a value is not finite")
        except ValueError as exc:
            raise SamplingError(f"malformed samples file {path}, line {r.line_num}: "
                                f"{exc}") from None
        pts.append(x)
        vals.append(re + 1j * im)
    return np.asarray(pts), np.asarray(vals)
