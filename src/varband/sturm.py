"""The RK4 driver for linear 2x2 systems.

For -(p phi')' = lambda phi the first-order system is u = (phi, p phi');
both components are continuous across jumps of p, so carrying the state
vector through a breakpoint IS the matching condition.  `rk4_linear` is the
package's one fixed-step RK4 integrator, with mandatory breakpoint nodes and
coefficients tabulated once per segment.  The system is linear, so each RK4
step is a 2x2 matrix in closed form (its propagator) whose entries are
quadratics in c; the driver builds those in blocks of steps.  A run that
stores its path applies them to the state one step at a time, 64 steps to a
block.  A run that returns only the final state multiplies each block's
maps into one, pairwise in about log2(block) levels, and those into the map
M(c) of the whole run, a polynomial in c, integrated at c's distinct values
or, when fewer suffice by a stated bound, at Chebyshev points, and
interpolated (see `rk4_linear`); the run records the map that takes any
table at those points, a path run there too, to every c.  A final-state
block is as long as a table of 64 * 200 maps allows at the point count, 64
to 1024 steps.
The scattering module runs it on -(p u')' + q u = omega^2 u, with a = 1/p
and b = q.
"""

from __future__ import annotations

import numpy as np

from .spectral import _physical_memory


class IntegrationError(RuntimeError):
    pass


_BLOCK = 64  # RK4 steps per table of step propagators along a stored path
_TABLE = 64 * 200  # steps times c values in one table of the final-state run
_TAIL = 2.0**-45  # largest accepted last coefficients, relative to an entry's largest
# float64 per step of a run's tables: the step polynomials every segment keeps,
# and the stage tables of the segment being built
_STEP_FLOATS = 20


def rk4_segments(x0, x1, step, breakpoints=()):
    """Segments (start, end, n_steps) of a fixed-step run from x0 to x1.

    Points of `breakpoints` strictly between x0 and x1 become segment edges,
    so no step straddles a coefficient discontinuity; each segment takes the
    fewest equal steps no longer than `step`.
    """
    if step <= 0:
        raise IntegrationError("step must be positive")
    lo, hi = min(x0, x1), max(x0, x1)
    inner = sorted(b for b in breakpoints if lo < b < hi)
    edges = [x0] + (inner if x1 > x0 else inner[::-1]) + [x1]
    return [(a, b, max(1, int(np.ceil(abs(b - a) / step))))
            for a, b in zip(edges[:-1], edges[1:])]


def _refuse_past_memory(segments, y, path):
    """Raise `IntegrationError` for a run whose tables, or stored path, would not fit in memory.

    The tables take about `_STEP_FLOATS` float64 per step, and a path run
    stores a grid point and a state per step besides. It is called before
    anything of the run is allocated.
    """
    steps = sum(n for *_, n in segments)
    need = 8.0 * _STEP_FLOATS * steps
    if path:
        need += (steps + 1) * (8.0 + y.nbytes)
    memory = _physical_memory()
    if need > memory:
        raise IntegrationError(f"an RK4 run of {steps:g} steps needs {need:.3g} bytes for its "
                               f"tables, more than the {memory:.3g} bytes of physical memory")


def _step_polynomials(A, B, h):
    """The RK4 step maps y <- P y of u0' = a u1, u1' = (b - c) u0, as polynomials in c.

    A and B hold a and b at the stage abscissae of k steps (node, half-step,
    end-step), shape (3, k).  With a1, a2, a4 and b1, b2, b4 those rows and
    g = b - c, one classical RK4 step of length h is exactly

        P00 = 1 + h^2/6 (a2 g1 + a2 g2 + a4 g2) + h^4/24 a2 a4 g1 g2
        P01 = h/6 (a1 + 4 a2 + a4) + h^3/12 a2 g2 (a1 + a4)
        P10 = h/6 (g1 + 4 g2 + g4) + h^3/12 a2 g2 (g1 + g4)
        P11 = 1 + h^2/6 (a1 g2 + a2 g2 + a2 g4) + h^4/24 a1 a2 g2 g4.

    Each entry is a polynomial of degree <= 2 in c.  Returns, for P00, P01,
    P10 and P11 in turn, its coefficients of c^0, c^1, ..., each of shape (k,).
    """
    (a1, a2, a4), (b1, b2, b4) = A, B
    h2, h3, h4 = h * h / 6, h**3 / 12, h**4 / 24
    a14, a2a4, a1a2 = a1 + a4, a2 * a4, a1 * a2
    return (
        (1 + h2 * (a2 * (b1 + b2) + a4 * b2) + h4 * a2a4 * b1 * b2,
         -(h2 * (2 * a2 + a4) + h4 * a2a4 * (b1 + b2)), h4 * a2a4),
        (h / 6 * (a1 + 4 * a2 + a4) + h3 * a2 * a14 * b2, -h3 * a2 * a14),
        (h / 6 * (b1 + 4 * b2 + b4) + h3 * a2 * b2 * (b1 + b4),
         -(h + h3 * a2 * (b1 + b4 + 2 * b2)), 2 * h3 * a2),
        (1 + h2 * (b2 * (a1 + a2) + a2 * b4) + h4 * a1a2 * b2 * b4,
         -(h2 * (a1 + 2 * a2) + h4 * a1a2 * (b2 + b4)), h4 * a1a2),
    )


def _rk4_propagators(polys, steps, c, out):
    """The step maps of the steps in the slice ``steps`` at c, shape (2, 2, k, *c.shape).

    ``polys`` are the coefficients of `_step_polynomials`, and c enters each
    entry by Horner's rule.  The maps are written into the front of the flat
    buffer ``out`` and returned as a view of it.
    """
    col = (-1,) + (1,) * c.ndim
    k = len(polys[0][0][steps])
    P = out[:4 * k * c.size].reshape((4, k) + c.shape)
    for entry, coefs in zip(P, polys):
        coefs = [q[steps].reshape(col) for q in coefs]
        np.multiply(coefs[-1], c, out=entry)
        for q in coefs[-2:0:-1]:
            entry += q
            entry *= c
        entry += coefs[0]
    return P.reshape((2, 2) + P.shape[1:])


def _compose(P, work):
    """The product P_(k-1) ... P_1 P_0 of the k maps P[:, :, i], shape (2, 2, *P.shape[3:]).

    Level by level, each even-indexed map is followed by the next one,
    P_(2i+1) P_(2i), and an odd count carries its last map up unchanged:
    about log2(k) levels of batched real products in place of k - 1
    sequential ones.  ``work`` is a pair of flat buffers, each with room for
    4 (k + 1) entries of shape P.shape[3:], the first holding P.  Each level
    writes its eight entrywise products into the other buffer and sums them
    pairwise in place, so nothing is allocated.
    """
    k, shape = P.shape[2], P.shape[3:]
    size, spare = P[0, 0, 0].size, 1
    while k > 1:
        pairs, half = k // 2, (k + 1) // 2
        T = work[spare][:8 * half * size].reshape((2, 2, 2, half) + shape)
        products = T[:, :, :, :pairs]
        # products[i, l, j] = P_(2m+1)[i, l] P_(2m)[l, j]; its sum over l is their product
        np.multiply(P[:, :, None, 1:k:2], P[None, :, :, 0:k - 1:2], out=products)
        np.add(products[:, 0], products[:, 1], out=products[:, 0])
        if k % 2:
            T[:, 0, :, pairs] = P[:, :, k - 1]
        P, k, spare = T[:, 0], half, 1 - spare
    return P[:, :, 0]


def _step_table(a, b, start, end, n):
    """`_step_polynomials` of the n steps of one segment, a and b tabulated by one call each.

    The stage abscissae (nodes, half-steps, end-steps) are clipped strictly
    inside the open segment, so that stages at a breakpoint never pick the
    wrong one-sided limit.  Also returns the segment's phase int sqrt|a| dx
    (Simpson's rule on each step's stages) and the range of b's stage values.
    """
    h = (end - start) / n
    nodes = start + h * np.arange(n)
    eps = 1e-9 * abs(h)
    stages = np.clip(np.stack([nodes, nodes + h / 2, nodes + h]),
                     min(start, end) + eps, max(start, end) - eps)
    A = np.broadcast_to(np.asarray(a(stages), dtype=float), stages.shape)
    B = np.broadcast_to(np.asarray(b(stages), dtype=float), stages.shape)
    phase = abs(h) / 6 * float(np.sum(np.sqrt(np.abs(A)) * [[1.0], [4.0], [1.0]]))
    return _step_polynomials(A, B, h), phase, (float(B.min()), float(B.max()))


def _block_steps(points):
    """Steps per block of a final-state run at ``points`` values of c.

    As many as fit a table of `_TABLE` maps, so that a block's table never
    outgrows 64 steps at 200 values; but at least `_BLOCK`, and at most 16
    times that, where the cost of a block's Python calls is long amortised.
    """
    return min(16 * _BLOCK, max(_BLOCK, _TABLE // points))


def _propagator(tables, c):
    """The map of the whole run at each value of the 1-D array c, shape (2, 2, c.size).

    ``tables`` holds each segment's `_step_polynomials`.  Each block of
    `_block_steps` step maps is multiplied into one map by `_compose`, and
    that map multiplies the product so far from the left.
    """
    block = _block_steps(c.size)
    width = 4 * (min(block, max(len(polys[0][0]) for polys in tables)) + 1) * c.size
    work = [np.empty(width, dtype=np.result_type(c, float)) for _ in range(2)]
    # the rows (M00, M01) and (M10, M11) of the product, from the identity
    u, v = np.eye(2, dtype=work[0].dtype)[:, :, None].repeat(c.size, axis=2)
    for polys in tables:
        for s in range(0, len(polys[0][0]), block):
            (p00, p01), (p10, p11) = _compose(
                _rk4_propagators(polys, slice(s, s + block), c, work[0]), work)
            u, v = p00 * u + p01 * v, p10 * u + p11 * v
    return np.stack([u, v])


def _chebyshev_points(lo, hi, n):
    """The n Chebyshev points of the second kind on [lo, hi], from hi down to lo.

    The ends are lo and hi exactly, and the points of n are those of 2n - 1
    at even indices, bit for bit.
    """
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(n) / (n - 1))
    nodes[0], nodes[-1] = hi, lo
    return nodes


def _chebyshev_tail(M):
    """The largest relative tail of the entries of M, tabulated at n `_chebyshev_points`.

    M has shape (..., n).  Each entry's Chebyshev coefficients come from the
    n x n cosine matrix of its values (a type-I discrete cosine transform);
    its tail is the larger of its last two coefficients over its largest.
    Not finite when M is not.
    """
    n = M.shape[-1]
    k = np.arange(n)
    cosines = np.cos(np.pi * np.outer(k, k) / (n - 1))
    cosines[:, [0, -1]] *= 0.5
    # the coefficients up to their common factor 2 / (n - 1)
    coefs = np.abs(M.reshape(-1, n) @ cosines.T)
    coefs[:, [0, -1]] *= 0.5
    largest = coefs.max(axis=1)
    return float(np.max(np.maximum(coefs[:, -1], coefs[:, -2])
                        / np.where(largest > 0, largest, 1.0)))


def _barycentric(nodes, M, x):
    """The interpolant of M (..., n) through the Chebyshev points ``nodes`` at x, shape (..., x.size).

    The barycentric formula of the second kind, with weights (-1)^j halved
    at both ends.  At an x equal to a node it returns that node's values,
    so nothing divides by zero.
    """
    n = nodes.size
    weights = (-1.0) ** np.arange(n)
    weights[[0, -1]] *= 0.5
    d = x[:, None] - nodes
    at_node = d == 0
    d[at_node] = 1.0
    k = weights / d
    table = M.reshape(-1, n)
    out = (table @ k.T) / k.sum(axis=1)
    row, node = np.nonzero(at_node)
    out[:, row] = table[:, node]
    return out.reshape(M.shape[:-1] + x.shape)


def _interpolant_points(phase, lo, hi):
    """Chebyshev points enough for the run's map M(c), from its phase and the range [lo, hi] of c - b.

    An entry of M bounded by M_rho on the Bernstein ellipse E_rho of
    [min c, max c] has Chebyshev coefficients |a_k| <= 2 M_rho rho^-k
    (Trefethen, Approximation Theory and Approximation Practice, Thm 8.1).
    By WKB the solutions go like exp(+-i int sqrt(a) kappa dx), kappa =
    sqrt(c - b), and the entries like cos, kappa sin and sin / kappa of it,
    so on E_rho an entry exceeds its size on the interval by at most G(rho) =
    exp(L max |Im kappa|) sqrt(max |c - b| / max_real |c - b|), L = ``phase``
    = int sqrt|a| dx.  The maxima are taken on 33 boundary points of the
    ellipse of the same rho on [lo, hi] = [min c - b_hi, max c - b_lo], which
    holds E_rho - b for every b of the run.  a_k is below `_TAIL` of the
    size for k >= log(2 G(rho) / _TAIL) / log rho, minimised over 31 rho in
    1 + [1e-2, 1e4], and the last two of n coefficients for n = ceil(k) + 2.
    """
    rho = 1.0 + np.geomspace(1e-2, 1e4, 31)[:, None]
    theta = np.linspace(0.0, np.pi, 33)
    z = 0.5 * (hi + lo) + 0.25 * (hi - lo) * ((rho + 1 / rho) * np.cos(theta)
                                              + 1j * (rho - 1 / rho) * np.sin(theta))
    growth = (phase * np.abs(np.sqrt(z).imag).max(axis=1)
              + 0.5 * np.log(np.abs(z).max(axis=1) / max(-lo, hi)))
    return np.ceil(np.min((np.log(2 / _TAIL) + growth) / np.log(rho[:, 0]))) + 2


def _final_state(tables, c, y, record):
    """The final state of `rk4_linear` from the tables of its segments; see there."""
    values, inverse = np.unique(c, return_inverse=True)
    polys, phases, ranges = zip(*tables)
    n, M = values.size, None
    if np.isrealobj(values) and values.size > 1:
        b_lo, b_hi = np.min(ranges), np.max(ranges)  # b's range: lo <= hi in each pair
        n = int(np.fmin(_interpolant_points(sum(phases), values[0] - b_hi, values[-1] - b_lo),
                        values.size))
    while n < values.size:
        # nested Chebyshev points: only those not swept before are integrated
        nodes = _chebyshev_points(values[0], values[-1], n)
        new = slice(None) if M is None else slice(1, None, 2)
        grown = np.empty((2, 2, nodes.size))
        if M is not None:
            grown[:, :, ::2] = M
        grown[:, :, new] = _propagator(polys, nodes[new])
        M, tail = grown, _chebyshev_tail(grown)
        if tail <= _TAIL:
            break
        n = 2 * n - 1
    else:  # complex c, or no fewer points than c has values: integrate those
        nodes, M, tail = values, _propagator(polys, values), 0.0
    # any table at the nodes to every c: by lookup where the nodes are c's values
    index = inverse.reshape(np.shape(c))
    at_c = ((lambda table: table[..., index]) if nodes is values
            else (lambda table: _barycentric(nodes, table, values)[..., index]))
    if record is not None:
        record.update(points=nodes.size, tail=tail, interpolation=(nodes, at_c))
    (m00, m01), (m10, m11) = at_c(M)
    u, v = y
    return np.stack([m00 * u + m01 * v, m10 * u + m11 * v])


def rk4_linear(a, b, c, x0, x1, y0, step, breakpoints=(), path=False, record=None):
    """Classical RK4 for u0' = a(x) u1, u1' = (b(x) - c) u0 from x0 to x1.

    y0 has shape (2, ...) and c broadcasts over the trailing axes, so a whole
    frequency sweep (c = omega^2) or a single eigenvalue (c = lambda)
    integrates in one pass.  The stage abscissae do not depend on c: per
    segment of `rk4_segments`, the coefficients a and b are tabulated at all
    nodes, half-steps and end-steps by one vectorised call each, once per
    run (see `_step_table`).  Since the system is linear, each RK4 step is a
    2x2 matrix, real for real a, b and c, whose entries are polynomials of
    degree 2 in c; the matrices are built in closed form a block of steps at
    a time (see `_rk4_propagators`).

    With ``path=True`` they are applied to the state in step order,
    `_BLOCK` steps at a time, and every state is stored.  Returns (grid,
    states) with grid in integration order and states of shape (len(grid),
    2, ...), real for real y0 and c, at every c given: run it at the nodes
    a final-state run records to reach many c.

    Without it, the run's map M(c), the product of all step maps, is formed
    block by block (see `_compose`) and applied to y0; the final state is
    returned.  M is a polynomial in c.  If c is real with more distinct
    values than the n that `_interpolant_points` sets before the pass, M is
    integrated at n Chebyshev points of [min c, max c], and the last two
    Chebyshev coefficients of every entry are checked to be at most `_TAIL`
    = 2^-45 of its largest; failing that, at 2n - 1 points (holding the n)
    until they are.  The barycentric formula then gives M at every c,
    within about (1 + L) 2^-45 of each entry's size, L <= 1 + (2 / pi) log n
    the Lebesgue constant (3.0 at n = 22).  The integrated M carries
    rounding of about 1e-14 of its size after a few thousand steps, so a
    smaller `_TAIL` would buy nothing.  When n or a doubling reaches c's
    count of distinct values, and for complex, scalar or constant c, M is
    integrated at those values.

    ``record``, if a dict, receives ``step`` and ``n_steps``, the largest
    step of the run and its step count, ``points``, the number of c values the
    final M is tabulated at, ``tail``, the accepted relative tail of its
    interpolant (0 when M was not interpolated), and ``interpolation``, the
    pair (nodes, at_c) of those c values and the function that takes any
    table (..., points) at them, the run's map or a path run there, to
    every c, shape (..., *c.shape). c's distinct values are found once.

    A run whose tables, or stored path, would not fit in physical memory
    raises `IntegrationError` before any of them is allocated.
    """
    segments = rk4_segments(x0, x1, step, breakpoints)
    if record is not None:
        record.update(step=max(abs(end - start) / n for start, end, n in segments),
                      n_steps=sum(n for *_, n in segments))
    c = np.asarray(c)
    y = np.asarray(y0)
    y = y.astype(np.result_type(y, c, float), copy=False)
    if x1 == x0:
        return (np.array([x0]), y[None, ...]) if path else y
    _refuse_past_memory(segments, y, path)
    tables = [_step_table(a, b, *segment) for segment in segments]
    if not path:
        return _final_state(tables, c, y, record)
    grid = np.empty(1 + sum(n for _, _, n in segments))
    states = np.empty(grid.shape + y.shape, dtype=y.dtype)
    grid[0], states[0] = x0, y
    done = 0  # steps taken before the current segment
    u, v = y
    # a flat buffer for one block of maps
    work = np.empty(4 * min(_BLOCK, max(n for *_, n in segments)) * c.size,
                    dtype=np.result_type(c, float))
    for (start, end, n), (polys, *_) in zip(segments, tables):
        for s in range(0, n, _BLOCK):
            P = _rk4_propagators(polys, slice(s, s + _BLOCK), c, work)
            for i, (p00, p01, p10, p11) in enumerate(zip(*P.reshape((4,) + P.shape[2:])),
                                                     done + s + 1):
                u, v = p00 * u + p01 * v, p10 * u + p11 * v
                states[i, 0], states[i, 1] = u, v
        grid[done + 1:done + n + 1] = start + (end - start) / n * np.arange(1, n + 1)
        grid[done + n] = end
        done += n
    return grid, states
