"""End-to-end acceptance checks.

Each test prints exactly one summary line

    [criterion NN] <name>: PASS/FAIL (<measured>, tol <tol>, <elapsed>s)

and asserts the stated tolerance, so a full run gives a ten-line scoreboard.
"""

import time

import numpy as np
import pytest

from varband.density import (
    beurling_density,
    gap_density_bound,
    landau_sweep,
    matched_free_model_builder,
)
from varband.kernel import (
    LiouvilleModel,
    SchrodingerModel,
    ToyModel,
    free_kernel,
    free_model,
    toy_kernel,
)
from varband.paleywiener import bernstein_ratio, random_function, random_smooth_function
from varband.profile import blend_profile, constant_profile, toy_profile
from varband.sampling import (
    ReconstructionOperator,
    SampleSet,
    halfline_expansion,
    reconstruct_iterative,
    shannon_basis_toy,
    shannon_expand,
)
from varband.schrodinger import ScatteringSweep, scattering_coeffs
from varband.spectral import SpectralSet, uniform_quadrature


def report(num, name, ok, measured, tol, t0, limit):
    elapsed = time.time() - t0
    line = (f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
            f"({measured}, tol {tol}, {elapsed:.1f}s)")
    print("\n" + line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} exceeded the {limit}s budget ({elapsed:.1f}s)"


def matched_free_setup(omega_max, gamma, n_samples):
    u = np.sqrt(omega_max)
    d = gamma * np.pi / u
    X = (np.arange(n_samples) - (n_samples - 1) / 2) * d
    W = n_samples * d / 2
    quad = uniform_quadrature(SpectralSet([(0.0, omega_max)]), np.pi / W)
    return free_model(SpectralSet([(0.0, omega_max)]), quad=quad), X, (-W, W)


def matched_toy_setup(p_minus, p_plus, omega_max, gamma, n_side):
    u = np.sqrt(omega_max)
    sm, sp = np.sqrt(p_minus), np.sqrt(p_plus)
    dm, dp = gamma * np.pi * sm / u, gamma * np.pi * sp / u
    X = np.concatenate([-dm * np.arange(n_side, 0, -1), [0.0],
                        dp * np.arange(1, n_side + 1)])
    window = (-(n_side + 0.5) * dm, (n_side + 0.5) * dp)
    W_warp = (n_side + 0.5) * gamma * np.pi / u
    quad = uniform_quadrature(SpectralSet([(0.0, omega_max)]), np.pi / W_warp)
    model = ToyModel(p_minus, p_plus, SpectralSet([(0.0, omega_max)]), quad=quad)
    return model, X, window


def test_01_free_reduction():
    t0 = time.time()
    om = 2.0
    rng = np.random.default_rng(0)
    xs = rng.uniform(-20, 20, 1000)
    ys = rng.uniform(-20, 20, 1000)
    ref = free_kernel(om, xs, ys)
    sset = SpectralSet([(0.0, om)])
    devs = [float(np.max(np.abs(toy_kernel(1.0, 1.0, om, xs, ys) - ref)))]
    devs.append(float(np.max(np.abs(
        free_model(sset, x_max=21.0).kernel_pairs(xs, ys) - ref))))
    devs.append(float(np.max(np.abs(
        LiouvilleModel(blend_profile(1.0, 1.0, R=0.5), sset, x_max=21.0)
        .kernel_pairs(xs, ys) - ref))))
    dev = max(devs)
    report(1, "free-case reduction of all kernel paths", dev < 1e-7,
           f"max dev {dev:.2e}", "1e-7", t0, 10.0)


def test_02_toy_cross_validation():
    t0 = time.time()
    rng = np.random.default_rng(1)
    dev = 0.0
    for pm, pp in [(1.0, 4.0), (4.0, 1.0), (2.0, 3.0)]:
        for om in (1.0, 4.0):
            xs = rng.uniform(-10, 10, 300)
            ys = rng.uniform(-10, 10, 300)
            model = ToyModel(pm, pp, SpectralSet([(0.0, om)]), x_max=11.0)
            d = float(np.max(np.abs(model.kernel_pairs(xs, ys)
                                    - toy_kernel(pm, pp, om, xs, ys))))
            dev = max(dev, d)
    report(2, "step-profile kernel closed form vs quadrature", dev < 1e-6,
           f"max dev {dev:.2e}", "1e-6", t0, 60.0)


def test_03_shannon_orthonormal_expansion():
    t0 = time.time()
    pm, pp, om = 1.0, 4.0, 2.0
    nodes20, w20 = shannon_basis_toy(pm, pp, om, 20)
    K = toy_kernel(pm, pp, om, nodes20[:, None], nodes20[None, :])
    sw = np.sqrt(w20)
    G = (np.pi / np.sqrt(om)) * sw[:, None] * sw[None, :] * K
    gram_dev = float(np.max(np.abs(G - np.eye(nodes20.size))))

    # random elements of the span of the |j| <= 50 basis sections, expanded
    # from their samples on the |j| <= 200 node set
    nodes200, _ = shannon_basis_toy(pm, pp, om, 200)
    nodes50, w50 = shannon_basis_toy(pm, pp, om, 50)
    xs = np.linspace(-15.0, 15.0, 1501)
    K_eval = toy_kernel(pm, pp, om, nodes50[:, None], xs[None, :])
    K_samp = toy_kernel(pm, pp, om, nodes50[:, None], nodes200[None, :])
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        c = rng.standard_normal(nodes50.size)
        f_true = c @ K_eval
        f_hat = shannon_expand(pm, pp, om, c @ K_samp, xs)
        rel = np.sqrt(np.trapezoid(np.abs(f_hat - f_true) ** 2, xs)
                      / np.trapezoid(np.abs(f_true) ** 2, xs))
        worst = max(worst, float(rel))
    ok = gram_dev < 1e-8 and worst < 1e-5
    report(3, "orthonormal interpolation basis and expansion", ok,
           f"gram dev {gram_dev:.2e}, worst rel L2 {worst:.2e}",
           "1e-8 / 1e-5", t0, 120.0)


def test_04_reconstruction_certificates():
    t0 = time.time()
    worst_margin = -np.inf
    worst_rate_err = 0.0
    for gamma in (0.3, 0.6, 0.9):
        setups = [
            (matched_free_setup(4.0, gamma, 30), constant_profile(1.0), 4.0),
            (matched_toy_setup(1.0, 4.0, 2.0, gamma, 15), toy_profile(1.0, 4.0), 2.0),
        ]
        for (model, X, window), prof, om in setups:
            R = ReconstructionOperator(model, SampleSet(X), window)
            rng = np.random.default_rng(int(gamma * 10))
            for _ in range(20):
                f = random_smooth_function(model, rng=rng)
                _, rep = reconstruct_iterative(model, prof, X, R.sample(f), om,
                                               window, n_max=25, ground_truth=f)
                assert rep.passes
                margin = max(e - c for e, c in zip(rep.errors, rep.certified))
                worst_margin = max(worst_margin, margin)
                # geometric rate of the certified bound over iterations 5-25
                n = np.arange(5, len(rep.certified))
                slope = np.polyfit(n, np.log(np.asarray(rep.certified)[5:]), 1)[0]
                worst_rate_err = max(worst_rate_err,
                                     abs(np.exp(slope) - gamma) / gamma)
    ok = worst_margin <= 1e-12 and worst_rate_err < 0.1
    report(4, "certified iterative reconstruction", ok,
           f"worst error-certificate margin {worst_margin:.2e}, "
           f"rate mismatch {worst_rate_err:.1%}", "<=0 / 10%", t0, 300.0)


def test_05_scattering_unitarity():
    t0 = time.time()
    defect = 0.0
    for pm, pp, R, kind in [(1.0, 2.0, 1.0, "cubic"), (1.0, 4.0, 1.5, "quintic"),
                            (2.0, 3.0, 0.8, "cubic")]:
        prof = blend_profile(pm, pp, R=R, kind=kind)
        sweep = ScatteringSweep(prof.potential_q_warped, prof.warped_support_radius,
                                np.linspace(0.05, 5.0, 200))
        defect = max(defect, sweep.unitarity_defect())

    def square_well_T(q0, a, omega):
        k = omega
        kap = np.lib.scimath.sqrt(omega**2 - q0)
        num = 2j * k * kap * np.exp(-2j * k * a)
        den = 2j * k * kap * np.cos(2 * kap * a) + (k**2 + kap**2) * np.sin(2 * kap * a)
        return num / den

    d = scattering_coeffs(lambda x: 1.5 * np.ones_like(np.asarray(x, float)), 1.0, 2.0)
    t_dev = abs(d.T - square_well_T(1.5, 1.0, 2.0))
    ok = defect < 1e-7 and t_dev < 1e-7
    report(5, "scattering matrix unitarity and square-well oracle", ok,
           f"max defect {defect:.2e}, T dev {t_dev:.2e}", "1e-7", t0, 60.0)


def test_06_diagonal_average_limit():
    t0 = time.time()
    prof = blend_profile(1.0, 4.0, R=1.0, kind="quintic")
    a = prof.warped_support_radius
    sset = SpectralSet([(0.0, 1.0)])
    model = SchrodingerModel(prof.potential_q_warped, a, sset, x_max=8.0)
    limit = sset.sqrt_measure / np.pi
    lengths = np.array([20.0, 40.0, 80.0, 160.0]) * a
    devs = np.array([abs(model.diagonal_tail_average(2 * a, 2 * a + L) - limit)
                     for L in lengths])
    # deviation model: alpha + beta |I|^{-1/2} with positive slope
    A = np.vstack([np.ones_like(lengths), lengths**-0.5]).T
    coef, res, _, _ = np.linalg.lstsq(A, devs, rcond=None)
    fitted = A @ coef
    residual = float(np.sqrt(np.sum((devs - fitted) ** 2) / np.sum(devs**2)))
    bracket = devs[-1] / limit
    ok = coef[1] > 0 and residual < 0.20 and bracket < 0.02
    report(6, "diagonal kernel average approaches the spectral measure", ok,
           f"slope {coef[1]:.2e}, fit residual {residual:.1%}, "
           f"largest-window deviation {bracket:.2%}", "20% / 2%", t0, 300.0)


def test_07_landau_threshold():
    t0 = time.time()
    sset = SpectralSet([(0.0, 1.0)])
    crit = sset.sqrt_measure / np.pi
    grid = crit * np.array([0.75, 0.85, 0.95, 1.05, 1.15, 1.25])

    prof_free = constant_profile(1.0)
    res_free = landau_sweep(matched_free_model_builder(sset), prof_free, sset,
                            grid, [40.0, 80.0, 160.0])
    ok_free = res_free.threshold_low <= crit <= res_free.threshold_high

    prof = blend_profile(1.0, 2.0, R=1.0)

    def builder(wz):
        return LiouvilleModel(prof, sset, quad=uniform_quadrature(sset, np.pi / wz))

    res_warp = landau_sweep(builder, prof, sset, grid, [30.0, 60.0, 120.0])
    ok_warp = res_warp.threshold_low <= crit <= res_warp.threshold_high
    width = max(res_free.threshold_high - res_free.threshold_low,
                res_warp.threshold_high - res_warp.threshold_low) / crit
    ok = ok_free and ok_warp and width <= 0.25
    report(7, "frame-bound sweep brackets the critical density", ok,
           f"free [{res_free.threshold_low:.3f}, {res_free.threshold_high:.3f}], "
           f"warped [{res_warp.threshold_low:.3f}, {res_warp.threshold_high:.3f}], "
           f"critical {crit:.3f}", "10% grid bracket", t0, 900.0)


def test_08_density_machinery():
    t0 = time.time()
    prof = blend_profile(1.0, 3.0, R=2.0)
    ident = constant_profile(1.0)
    rng = np.random.default_rng(5)
    eq_dev = 0.0
    all_hold = True
    for _ in range(100):
        base = np.arange(-80.0, 81.0) + rng.uniform(-0.35, 0.35, 161)
        X = np.sort(base)
        rep1 = beurling_density(prof, X, [8.0], (-80.0, 80.0))
        Z = np.asarray(prof.zeta(X))
        wz = (float(prof.zeta(-80.0)), float(prof.zeta(80.0)))
        rep2 = beurling_density(ident, Z, [8.0], wz)
        eq_dev = max(eq_dev, abs(rep1.d_minus - rep2.d_minus),
                     abs(rep1.d_plus - rep2.d_plus))
        _, _, _, holds = gap_density_bound(prof, X)
        all_hold = all_hold and holds
    ok = eq_dev < 1e-10 and all_hold
    report(8, "adapted density equivariance and gap bound", ok,
           f"equivariance dev {eq_dev:.2e}, gap bound holds on all sets: {all_hold}",
           "1e-10", t0, 30.0)


def test_09_bernstein():
    t0 = time.time()
    sset = SpectralSet([(0.0, 2.0)])
    models = [
        free_model(sset, x_max=10.0),
        ToyModel(1.0, 4.0, sset, x_max=10.0),
        SchrodingerModel(lambda x: np.exp(-4.0 * np.asarray(x, float) ** 2)
                         * (np.abs(x) <= 1), 1.0, sset, x_max=10.0),
    ]
    worst = 0.0
    rng = np.random.default_rng(6)
    for model in models:
        om = float(np.max(model.quad.nodes)) ** 2
        for _ in range(100):
            f = random_function(model, rng=rng)
            for k in range(5):
                worst = max(worst, bernstein_ratio(f, k, om))
    ok = worst <= 1.0 + 1e-9
    report(9, "spectral Bernstein inequality", ok,
           f"max ratio {worst:.12f}", "1 + 1e-9", t0, 30.0)


def test_10_halfline_sampling():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for om in (1.0, 2.0, 4.0):
        u = np.sqrt(om)
        J = 200
        nodes = np.pi * np.arange(1, J + 1) / u
        w = np.linspace(0, u, 4001)
        for _ in range(5):
            amps = rng.standard_normal(6)
            g = sum(amps[m] * np.sin((m + 1) * np.pi * w / u) for m in range(6))

            def f(x):
                x = np.atleast_1d(np.asarray(x, float))
                return np.trapezoid(g[None, :] * np.sin(np.outer(x, w)), w, axis=1)

            xs = np.linspace(0, 10 / u, 101)
            got = halfline_expansion(om, f(nodes), xs).real
            ref = f(xs)
            worst = max(worst, float(np.max(np.abs(got - ref))
                                     / np.max(np.abs(ref))))
    ok = worst < 1e-3
    report(10, "half-line sampling expansion", ok,
           f"worst max error {worst:.2e} (relative to sup)", "1e-3", t0, 30.0)
