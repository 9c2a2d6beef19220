"""The RK4 driver for linear 2x2 systems.

For -(p phi')' = lambda phi the first-order system is u = (phi, p phi');
both components are continuous across jumps of p, so carrying the state
vector through a breakpoint IS the matching condition.  `rk4_linear` is the
package's one fixed-step RK4 integrator, with mandatory breakpoint nodes and
coefficients tabulated once per segment.  The system is linear, so each RK4
step is a 2x2 matrix in closed form (its propagator); the driver builds those
in blocks of steps.  A run that stores its path applies them to the state
one step at a time; a run that returns only the final state first
multiplies each block's maps into one, pairwise in about log2(block) levels,
and applies that.  The scattering module runs it on
-(p u')' + q u = omega^2 u, with a = 1/p and b = q.
"""

from __future__ import annotations

import numpy as np


class IntegrationError(RuntimeError):
    pass


_BLOCK = 64  # RK4 steps per table of step propagators


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


def rk4_linear(a, b, c, x0, x1, y0, step, breakpoints=(), path=False):
    """Classical RK4 for u0' = a(x) u1, u1' = (b(x) - c) u0 from x0 to x1.

    y0 has shape (2, ...) and c broadcasts over the trailing axes, so a whole
    frequency sweep (c = omega^2) or a single eigenvalue (c = lambda)
    integrates in one pass.  The stage abscissae do not depend on c: per
    segment of `rk4_segments`, the coefficients a and b are tabulated at all
    nodes, half-steps and end-steps by one vectorised call each, strictly
    inside the open segment so that stages at a breakpoint never pick the
    wrong one-sided limit.  Since the system is linear, each RK4 step is a
    2x2 matrix, real for real a, b and c; the matrices are built in closed
    form `_BLOCK` steps at a time (see `_rk4_propagators`).  With
    ``path=True`` they are applied to the state in step order, and every
    state is stored.  Without it, each block's maps are first multiplied
    into one map (see `_compose`), which is applied to the state once per
    block.  Either way the result is the stage recursion's up to rounding.
    Returns the final state, or with ``path=True`` (grid, states) with grid
    in integration order and states of shape (len(grid), 2, ...).
    """
    segments = rk4_segments(x0, x1, step, breakpoints)
    y = np.asarray(y0, dtype=complex)
    if x1 == x0:
        return (np.array([x0]), y[None, ...]) if path else y
    if path:
        grid = np.empty(1 + sum(n for _, _, n in segments))
        states = np.empty(grid.shape + y.shape, dtype=complex)
        grid[0], states[0] = x0, y
    done = 0  # steps taken before the current segment
    u, v = y
    c = np.asarray(c)
    # flat buffers for one block of maps, and for the levels of `_compose`
    width = 4 * (min(_BLOCK, max(n for *_, n in segments)) + 1) * c.size
    work = [np.empty(width, dtype=np.result_type(c, float)) for _ in range(1 if path else 2)]
    for start, end, n in segments:
        h = (end - start) / n
        nodes = start + h * np.arange(n)
        eps = 1e-9 * abs(h)
        stages = np.clip(np.stack([nodes, nodes + h / 2, nodes + h]),
                         min(start, end) + eps, max(start, end) - eps)
        A = np.broadcast_to(np.asarray(a(stages), dtype=float), stages.shape)
        B = np.broadcast_to(np.asarray(b(stages), dtype=float), stages.shape)
        polys = _step_polynomials(A, B, h)
        for s in range(0, n, _BLOCK):
            P = _rk4_propagators(polys, slice(s, s + _BLOCK), c, work[0])
            if path:
                for i, (p00, p01, p10, p11) in enumerate(zip(*P.reshape((4,) + P.shape[2:])),
                                                         done + s + 1):
                    u, v = p00 * u + p01 * v, p10 * u + p11 * v
                    states[i, 0], states[i, 1] = u, v
            else:
                (p00, p01), (p10, p11) = _compose(P, work)
                u, v = p00 * u + p01 * v, p10 * u + p11 * v
        if path:
            grid[done + 1:done + n + 1] = start + h * np.arange(1, n + 1)
            grid[done + n] = end
        done += n
    return (grid, states) if path else np.stack([u, v])
