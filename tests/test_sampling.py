import csv
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from varband import sampling, spectral
from varband.kernel import (LiouvilleModel, SchrodingerModel, ToyModel, free_model,
                            halfline_kernel, toy_kernel)
from varband.paleywiener import VarBandFunction, random_function, random_smooth_function
from varband.profile import blend_profile, constant_profile, toy_profile
from varband.sampling import (
    ReconstructionOperator,
    SampleSet,
    SamplingError,
    frame_bounds_estimate,
    gap_condition,
    halfline_expansion,
    midpoint_partition,
    reconstruct_iterative,
    samples_from_csv,
    samples_to_csv,
    shannon_basis_toy,
    shannon_expand,
    shannon_gram,
)
from varband.spectral import SpectralSet, gauss_legendre_quadrature, uniform_quadrature

from closed_forms import phi
from gaussian_gridding import GaussianGridding


def matched_free_setup(omega_max, gamma, n_samples):
    """Uniform lattice at relative density 1/gamma with a matched quadrature."""
    u = np.sqrt(omega_max)
    d = gamma * np.pi / u
    X = (np.arange(n_samples) - (n_samples - 1) / 2) * d
    W = n_samples * d / 2
    quad = uniform_quadrature(SpectralSet([(0.0, omega_max)]), np.pi / W)
    model = free_model(SpectralSet([(0.0, omega_max)]), quad=quad)
    return model, X, (-W, W)


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


class TestGapCondition:
    def test_dense_lattice_passes(self):
        prof = constant_profile(1.0)
        X = np.arange(-10, 11) * (np.pi / 4)
        delta, ok = gap_condition(prof, X, 4.0)
        assert delta == pytest.approx(np.pi / 4)
        assert ok

    def test_sparse_lattice_fails(self):
        prof = constant_profile(1.0)
        X = np.arange(-5, 6) * np.pi
        _, ok = gap_condition(prof, X, 4.0)
        assert not ok

    def test_profile_weighting(self):
        # on the fast plateau the same euclidean gap weighs less
        prof = toy_profile(1.0, 4.0)
        delta, _ = gap_condition(prof, np.array([0.0, 1.0]), 1.0)
        assert delta == pytest.approx(0.5)


class TestPartitionAndSums:
    def test_midpoint_partition(self):
        edges = midpoint_partition([0.0, 1.0, 3.0], (-1.0, 4.0))
        assert np.allclose(edges, [-1.0, 0.5, 2.0, 4.0])

    def test_partition_escape(self):
        with pytest.raises(SamplingError):
            midpoint_partition([0.0, 5.0], (-1.0, 4.0))

    def test_sample_set_validation(self):
        with pytest.raises(SamplingError):
            SampleSet([1.0, 1.0, 2.0])


class TestContraction:
    def test_operator_is_contraction(self):
        model, X, window = matched_free_setup(4.0, 0.6, 40)
        R = ReconstructionOperator(model, SampleSet(X), window)
        rng = np.random.default_rng(0)
        for _ in range(10):
            f = random_smooth_function(model, rng=rng)
            h = f - R.apply(f)
            assert h.norm() <= 0.6 * f.norm() + 1e-9

    def test_sampling_inequality(self):
        # the step approximation of f from its samples deviates by at most
        # gamma ||f|| in the discretized norm
        model, X, window = matched_free_setup(1.0, 0.5, 30)
        R = ReconstructionOperator(model, SampleSet(X), window)
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = random_smooth_function(model, rng=rng)
            assert (f - R.apply(f)).norm() <= 0.5 * f.norm() + 1e-9


class TestReconstruction:
    @pytest.mark.parametrize("gamma", [0.3, 0.6, 0.9])
    def test_free_certificates(self, gamma):
        model, X, window = matched_free_setup(4.0, gamma, 30)
        prof = constant_profile(1.0)
        f = random_smooth_function(model, rng=42)
        R = ReconstructionOperator(model, SampleSet(X), window)
        samples = R.sample(f)
        rec, rep = reconstruct_iterative(model, prof, X, samples, 4.0, window,
                                         n_max=25, ground_truth=f)
        assert rep.passes
        assert rep.gamma == pytest.approx(gamma, rel=1e-9)
        for err, cert in zip(rep.errors, rep.certified):
            assert err <= cert + 1e-12
        assert (rec - f).norm() < 1e-3 * f.norm() or rep.errors[-1] <= rep.certified[-1]

    def test_toy_certificates(self):
        model, X, window = matched_toy_setup(1.0, 4.0, 2.0, 0.6, 15)
        prof = toy_profile(1.0, 4.0)
        f = random_smooth_function(model, rng=5)
        R = ReconstructionOperator(model, SampleSet(X), window)
        rec, rep = reconstruct_iterative(model, prof, X, R.sample(f), 2.0, window,
                                         n_max=25, ground_truth=f)
        assert rep.passes
        for err, cert in zip(rep.errors, rep.certified):
            assert err <= cert + 1e-12
        assert rep.errors[-1] < 1e-3

    def test_gap_failure_diagnosed(self):
        model, X, window = matched_free_setup(4.0, 1.5, 20)
        prof = constant_profile(1.0)
        f = random_smooth_function(model, rng=9)
        R = ReconstructionOperator(model, SampleSet(X), window)
        _, rep = reconstruct_iterative(model, prof, X, R.sample(f), 4.0, window,
                                       n_max=10)
        assert not rep.passes
        assert rep.diagnosis != ""

    def test_report_serializes(self):
        model, X, window = matched_free_setup(4.0, 0.5, 20)
        prof = constant_profile(1.0)
        f = random_smooth_function(model, rng=3)
        R = ReconstructionOperator(model, SampleSet(X), window)
        _, rep = reconstruct_iterative(model, prof, X, R.sample(f), 4.0, window,
                                       n_max=5)
        d = rep.to_json_dict()
        assert set(d) >= {"delta", "gamma", "residuals", "certified_bounds"}
        import json

        json.dumps(d)


class TestShannon:
    def test_nodes_and_weights(self):
        nodes, weights = shannon_basis_toy(1.0, 4.0, 4.0, 2)
        assert np.allclose(nodes, [-np.pi, -np.pi / 2, 0.0, np.pi, 2 * np.pi])
        assert np.allclose(weights, [1.0, 1.0, 1.5, 2.0, 2.0])

    @pytest.mark.parametrize("pm,pp", [(1.0, 1.0), (1.0, 4.0), (2.0, 3.0)])
    def test_gram_identity(self, pm, pp):
        om = 2.0
        nodes, weights = shannon_basis_toy(pm, pp, om, 25)
        K = toy_kernel(pm, pp, om, nodes[:, None], nodes[None, :])
        sw = np.sqrt(weights)
        G = (np.pi / np.sqrt(om)) * sw[:, None] * sw[None, :] * K
        assert np.max(np.abs(G - np.eye(nodes.size))) < 1e-10
        assert np.max(np.abs(shannon_gram(pm, pp, om, 25) - G)) < 1e-14

    def test_interpolation_at_nodes(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(41)
        nodes, _ = shannon_basis_toy(1.0, 4.0, 2.0, 20)
        out = shannon_expand(1.0, 4.0, 2.0, values, nodes)
        assert np.max(np.abs(out - values)) < 1e-10

    def test_expansion_needs_odd_sample_count(self):
        with pytest.raises(SamplingError):
            shannon_expand(1.0, 4.0, 2.0, np.ones(4), 0.0)

    def test_expansion_converges_to_kernel_section(self):
        pm, pp, om = 1.0, 4.0, 2.0
        x0, xeval = 0.4, -0.9
        target = toy_kernel(pm, pp, om, x0, xeval)
        errs = []
        for j_max in (25, 100, 400):
            nodes, _ = shannon_basis_toy(pm, pp, om, j_max)
            values = toy_kernel(pm, pp, om, x0, nodes)
            errs.append(abs(shannon_expand(pm, pp, om, values, xeval) - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3


class TestHalflineExpansion:
    def test_kernel_section(self):
        om = 2.0
        u = np.sqrt(om)
        y0 = 1.7
        J = 200
        nodes = np.pi * np.arange(1, J + 1) / u
        values = halfline_kernel(om, nodes, y0) * (np.pi / u)
        xs = np.linspace(0, 10 / u, 101)
        got = halfline_expansion(om, values, xs)
        ref = halfline_kernel(om, xs, y0) * (np.pi / u)
        # kernel sections decay only like 1/x, so the truncation tail is slow
        assert np.max(np.abs(got - ref)) < 5e-3

    def test_synthesized_function(self):
        # f(x) = int_0^u g(w) sin(w x) dw with smooth g vanishing at the band
        # edges decays fast enough for the truncated series to be accurate
        om, J = 2.0, 200
        u = np.sqrt(om)
        nodes = np.pi * np.arange(1, J + 1) / u
        w = np.linspace(0, u, 4001)
        g = np.sin(np.pi * w / u) - 0.4 * np.sin(3 * np.pi * w / u)

        def f(x):
            x = np.atleast_1d(np.asarray(x, float))
            return np.trapezoid(g[None, :] * np.sin(np.outer(x, w)), w, axis=1)

        xs = np.linspace(0, 10 / u, 101)
        got = halfline_expansion(om, f(nodes), xs).real
        ref = f(xs)
        assert np.max(np.abs(got - ref)) < 1e-3 * np.max(np.abs(ref))

    def test_interpolation_at_nodes(self):
        om = 1.0
        J = 50
        rng = np.random.default_rng(4)
        values = rng.standard_normal(J)
        nodes = np.pi * np.arange(1, J + 1)
        out = halfline_expansion(om, values, nodes)
        assert np.max(np.abs(out - values)) < 1e-10

    def test_vanishes_at_origin(self):
        assert abs(halfline_expansion(1.0, np.ones(20), 0.0)) < 1e-12


class ComplexTableOperator:
    """R from complex (2, n_nodes, N) tables of Phi and its conjugated cell integrals.

    The reference formula: sample is sum over (c, l) of w rho F Phi at the
    samples, from_values the conjugated cell integrals of Phi against the
    values. Same interface as ReconstructionOperator.
    """

    plan = SimpleNamespace(kind="complex", remainder=None, taps=None, fft_lengths=None)

    def __init__(self, model, X, window):
        self.model = model
        self.points = X.points if isinstance(X, SampleSet) else np.asarray(X, dtype=float)
        self.window = window
        edges = midpoint_partition(self.points, window)
        self.C = np.diff(phi(model, edges, integrated=True), axis=-1).conj()
        self.phiX = phi(model, self.points)
        self.synth = model.quad.weights[None, :] * model.rho

    def sample(self, f):
        return np.einsum("cl,cl,cli->i", self.synth, f.F, self.phiX)

    def from_values(self, values):
        return VarBandFunction(self.model, np.einsum("cli,i->cl", self.C, values))

    def apply(self, f):
        return self.from_values(self.sample(f))


def contraction_model(kind, sset=None, spacing=np.pi / 6.0, quad=None):
    """The model of kind ``kind`` on a window-matched midpoint rule, or on ``quad``."""
    sset = sset or SpectralSet([(0.0, 2.0)])
    quad = quad or uniform_quadrature(sset, spacing)
    if kind == "toy":
        return ToyModel(1.0, 4.0, sset, quad=quad)
    if kind == "schrodinger":
        q = lambda x: 1.5 * np.cos(np.pi * np.asarray(x, float) / 2) ** 2 * (np.abs(x) <= 1)
        return SchrodingerModel(q, 1.0, sset, quad=quad)
    if kind == "free":
        return free_model(sset, quad=quad)
    return LiouvilleModel(blend_profile(1.0, 2.0, R=1.0), sset, quad=quad)


def _rel_dev(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestOperatorContractions:
    """sample and from_values against the complex-table formula, to 1e-12 relative."""

    # both sides of the jump, a sample at 0 whose cell straddles it
    X = np.concatenate((np.linspace(-5.5, -0.4, 14), [0.0], np.linspace(0.35, 5.5, 16)))

    @pytest.fixture(scope="class", params=["toy", "schrodinger", "free", "liouville"])
    def operators(self, request):
        model, window = contraction_model(request.param), (-6.0, 6.0)
        return (ReconstructionOperator(model, SampleSet(self.X), window),
                ComplexTableOperator(model, self.X, window))

    def test_sample(self, operators):
        op, ref = operators
        f = random_function(op.model, rng=8)
        assert _rel_dev(op.sample(f), ref.sample(f)) <= 1e-12

    def test_from_values(self, operators):
        op, ref = operators
        rng = np.random.default_rng(9)
        v = rng.standard_normal(self.X.size) + 1j * rng.standard_normal(self.X.size)
        assert _rel_dev(op.from_values(v).F, ref.from_values(v).F) <= 1e-12

    @pytest.mark.parametrize("kind", ["schrodinger", "liouville"])
    def test_sweep_build_allocates_one_interior_block(self, kind):
        # the tails run on the lattice; real tables hold only the samples and
        # edges in the support [-1, 1], where dense tables would take 6.4 MB
        sset = SpectralSet([(0.0, 1.0)])
        W = 200.5 * np.pi
        model = contraction_model(kind, sset, np.pi / W)
        X = np.linspace(-W, 2 * W, 1003)[1:-1]
        X[333] = 0.0  # a sample in the support, and the two edges of its cell
        model.constants  # the sweep's interior pass, run once per model
        np.fft.ifft(np.zeros(4))  # load numpy.fft's module state before tracing
        tracemalloc.start()
        try:
            op = ReconstructionOperator(model, SampleSet(X), (-W, 2 * W))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, N = len(model.quad), X.size
        assert op.plan.kind == "nufft" and n == 200
        assert op.plan.table.dtype == op.plan.cells.dtype == np.float64
        assert (op.plan.table.shape, op.plan.cells.shape) == ((2 * n, 1), (2 * n, 2))
        assert peak < 2 * (2 * n * N * 8) / 3

    @pytest.mark.parametrize("kind", ["toy", "free"])
    def test_lattice_build_allocates_no_tables(self, kind):
        # the two dense real tables would take 2 (2 n N 8) bytes: 6.4 MB here
        sset = SpectralSet([(0.0, 1.0)])
        W = 200.5 * np.pi
        quad = uniform_quadrature(sset, np.pi / W)
        model = ToyModel(1.0, 4.0, sset, quad=quad) if kind == "toy" else free_model(sset, quad=quad)
        X = np.linspace(-W, 2 * W, 1003)[1:-1]
        np.fft.ifft(np.zeros(4))  # load numpy.fft's module state before tracing
        tracemalloc.start()
        try:
            op = ReconstructionOperator(model, SampleSet(X), (-W, 2 * W))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.plan.kind == "nufft" and len(quad) == 200
        assert peak < 2 * (2 * len(quad) * X.size * 8) / 3

    def test_iterations_match(self, monkeypatch):
        model, X, window = matched_toy_setup(1.0, 4.0, 2.0, 0.8, 20)
        prof = toy_profile(1.0, 4.0)
        f = random_smooth_function(model, rng=12)
        samples = ReconstructionOperator(model, SampleSet(X), window).sample(f)
        runs = []
        for operator in (ReconstructionOperator, ComplexTableOperator):
            monkeypatch.setattr(sampling, "ReconstructionOperator", operator)
            runs.append(reconstruct_iterative(model, prof, X, samples, 2.0, window,
                                              n_max=40)[1])
        got, ref = runs
        assert got.n_iterations == ref.n_iterations == 40
        assert np.max(np.abs(np.array(got.residuals) / ref.residuals - 1)) <= 1e-10
        assert np.max(np.abs(np.array(got.certified) / ref.certified - 1)) <= 1e-10


# (kind, spectral set, warped half-width W, window, samples) on the rule of spacing pi / W;
# the toy model has p- = 1 and p+ = 4, so x = 2 t right of the jump
LATTICE_CASES = {
    # intervals off 0 and off each other's lattice: first nodes 0.7856 and 1.4928
    "two-intervals": ("toy", SpectralSet([(0.5, 3.0), (4.0, 7.0)]), 20.0, (-20.0, 40.0),
                      np.concatenate((np.linspace(-19.5, -0.6, 40), np.linspace(0.4, 39.0, 41)))),
    # t in [-3, 4]: theta = pi t / 3.5 is not centred on 0
    "asymmetric-window": ("toy", None, 3.5, (-3.0, 8.0),
                          np.concatenate((np.linspace(-2.9, -0.2, 9), np.linspace(0.3, 7.8, 24)))),
    "sample-at-jump": ("toy", None, 6.0, (-6.0, 12.0),
                       np.concatenate((np.linspace(-5.5, -0.4, 14), [0.0], np.linspace(0.35, 11.5, 30)))),
    # the cell of -0.3 is [-0.9, 0.1]
    "cell-straddles-jump": ("toy", None, 6.0, (-6.0, 12.0),
                            np.concatenate((np.linspace(-5.5, -0.3, 11), np.linspace(0.5, 11.5, 23)))),
    # the first and last edges sit at t = -W and t = W, theta = -pi and pi
    "edges-at-W": ("toy", None, 6.0, (-6.0, 12.0), np.linspace(-5.8, 11.7, 37)),
    "free-edges-at-W": ("free", None, 6.0, (-6.0, 6.0), np.linspace(-5.9, 5.7, 31)),
}


@pytest.mark.parametrize("case", sorted(LATTICE_CASES))
def test_lattice_operator_matches_complex_tables(case):
    kind, sset, W, window, X = LATTICE_CASES[case]
    model = contraction_model(kind, sset, np.pi / W)
    op, ref = ReconstructionOperator(model, SampleSet(X), window), ComplexTableOperator(model, X, window)
    assert op.plan.kind == "nufft"
    f = random_function(model, rng=21)
    assert _rel_dev(op.sample(f), ref.sample(f)) <= 1e-12
    rng = np.random.default_rng(22)
    v = rng.standard_normal(X.size) + 1j * rng.standard_normal(X.size)
    assert _rel_dev(op.from_values(v).F, ref.from_values(v).F) <= 1e-12


STUDY_P, STUDY_NODES, STUDY_SAMPLES = (1.1, 3.2), 675, 2251


def study_size_toy(rng):
    """The toy model on the 675-node lattice rule of its window, and 2251 jittered samples.

    The window is W = 675.5 pi wide in t = x / sqrt(p) on each side; the
    samples sit on a uniform grid in t, jittered by up to 0.15 of its step.
    """
    (pm, pp), n, N = STUDY_P, STUDY_NODES, STUDY_SAMPLES
    sm, sp = np.sqrt(pm), np.sqrt(pp)
    W = (n + 0.5) * np.pi
    sset = SpectralSet([(0.0, 1.0)])
    model = ToyModel(pm, pp, sset, quad=uniform_quadrature(sset, np.pi / W))
    k = np.arange(N) - (N - 1) // 2
    z = (k + rng.uniform(-0.15, 0.15, N)) * (2 * W / (N + 1))
    z[k == 0] = 0.0
    return model, np.where(z < 0, z * sm, z * sp), (-W * sm, W * sp)


def test_lattice_operator_at_study_size():
    """NUFFT against the dense tables at 675 nodes and 2251 jittered samples.

    The two differ by at most the two stated bounds: the transforms' remainder
    eps times the l1 norm of their input, and the tables' 8u (1 + omega |t|)
    per entry (`SpectralQuadrature.waves`) times the l1 norm of what the
    tables multiply.
    """
    rng = np.random.default_rng(31)
    model, X, window = study_size_toy(rng)
    (pm, pp), n, N = STUDY_P, STUDY_NODES, STUDY_SAMPLES
    sm, sp = np.sqrt(pm), np.sqrt(pp)
    W = (n + 0.5) * np.pi
    quad = model.quad
    dense_model = ToyModel(pm, pp, model.sset, quad=replace(quad, lattice=None))
    op = ReconstructionOperator(model, SampleSet(X), window)
    dense = ReconstructionOperator(dense_model, SampleSet(X), window)
    assert (op.plan.kind, dense.plan.kind, len(quad)) == ("nufft", "dense", n)
    u, w = 2.0**-53, quad.nodes
    waves = 8 * u * (1 + w * W)  # |omega t| <= omega W on this window

    f = random_function(model, rng=rng)
    G = model.basis_coefficients(f.F)
    # the coefficients (G_0 -+ i G_1 / sqrt(p)) / 2 of exp(+-i omega t) weigh at most this
    l1 = np.abs(G[0]).sum() + np.abs(G[1]).sum() / sm
    bound = (op.plan.remainder + waves.max()) * l1
    dev = np.abs(op.sample(f) - dense.sample(VarBandFunction(dense_model, f.F)))
    assert dev.max() <= bound

    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    got, ref = op.from_values(v).F, dense.from_values(v).F
    # d = -diff(v) over the edges, and the two ends of every cell, weigh at
    # most 2 sum |v|; |A| <= max(sqrt(p+), 2) / omega <= 2 sqrt(p+) / omega, and
    # 1 - cos rounds once more; F = conj(mix H) adds a factor 1 + sqrt(p+)
    per_node = (op.plan.remainder + waves + 2 * u) * 2 * np.abs(v).sum() * 2 * sp / w
    assert np.all(np.abs(got - ref) <= (1 + sp) * per_node)


def test_lattice_evaluate_at_study_size():
    """f.evaluate on an 801-point output grid by the lattice plan against the dense tables.

    As for the samples in `test_lattice_operator_at_study_size`: the two differ
    by at most the plan's remainder plus the tables' 8u (1 + omega |t|), times
    the l1 norm of the coefficients of exp(+-i omega t).
    """
    pm, pp, n = 1.1, 3.2, 675
    sm, W = np.sqrt(pm), (n + 0.5) * np.pi
    sset = SpectralSet([(0.0, 1.0)])
    quad = uniform_quadrature(sset, np.pi / W)
    model = ToyModel(pm, pp, sset, quad=quad)
    dense_model = ToyModel(pm, pp, sset, quad=replace(quad, lattice=None))
    xs = np.linspace(-W * sm, W * np.sqrt(pp), 801)
    plan = model.plan(xs)
    assert (plan.kind, dense_model.plan(xs).kind) == ("nufft", "dense")
    f = random_function(model, rng=41)
    G = model.basis_coefficients(f.F)
    l1 = np.abs(G[0]).sum() + np.abs(G[1]).sum() / sm
    waves = 8 * 2.0**-53 * (1 + quad.nodes.max() * W)
    dev = np.abs(f.evaluate(xs) - VarBandFunction(dense_model, f.F).evaluate(xs))
    assert dev.max() <= (plan.remainder + waves) * l1
    # a scalar point gets a plan of its own, and the same value
    assert abs(f.evaluate(xs[400]) - f.evaluate(xs)[400]) <= (plan.remainder + waves) * l1


def test_reconstruct_agrees_with_gaussian_gridding(monkeypatch):
    """The toy reconstruction at study size, gridded by the ES kernel and by the Gaussian.

    Each transform of either plan is within its remainder times the l1 norm
    of its input of the exact sums at the same float64 points, so the two
    plans differ by at most 2 eps l1, eps the larger remainder, plus their
    own rounding: the rounding of the phases, about u omega |t|, is the same
    in both and cancels, leaving the constant 8u of a `waves` entry. The
    iteration contracts, so the reconstructed values, l1 the l1 norm of the
    final coefficients of exp(+-i omega t), stay within the same bound.
    """
    rng = np.random.default_rng(37)
    model, X, window = study_size_toy(rng)
    f = random_function(model, rng=rng)
    samples = ReconstructionOperator(model, SampleSet(X), window).sample(f)
    xs = np.linspace(*window, 801)
    profile = toy_profile(*STUDY_P)

    def reconstruct():
        f_rec, report = reconstruct_iterative(model, profile, X, samples, 1.0, window)
        return f_rec, f_rec.evaluate(xs), report

    f_es, values, report = reconstruct()
    monkeypatch.setattr(spectral, "_Gridding", GaussianGridding)
    f_gauss, reference, gauss_report = reconstruct()
    assert report.n_iterations == gauss_report.n_iterations == 40
    taps, remainder = "sampling_operator_taps", "sampling_operator_remainder"
    assert (report.operator[taps], gauss_report.operator[taps]) == (18, 34)
    eps = max(report.operator[remainder], gauss_report.operator[remainder])
    assert eps == report.operator[remainder] <= 8 * 2.0**-53
    G = model.basis_coefficients(f_es.F)
    l1 = np.abs(G[0]).sum() + np.abs(G[1]).sum() / np.sqrt(STUDY_P[0])
    bound = (2 * eps + 8 * 2.0**-53) * l1
    assert np.max(np.abs(values - reference)) <= bound
    # the same coefficients evaluated by the Gaussian plan, still substituted
    assert np.max(np.abs(values - f_es.evaluate(xs))) <= bound
    assert np.allclose(f_es.F, f_gauss.F, rtol=0, atol=1e-12 * np.abs(f_es.F).max())


@pytest.mark.parametrize("kind", ["schrodinger", "liouville"])
def test_plan_tables_hold_the_interior(kind):
    # U at the samples and A at the edges in [-a, a], a = 1; the rest on the lattice
    model = contraction_model(kind)
    X = TestOperatorContractions.X
    edges = midpoint_partition(X, (-6.0, 6.0))
    plan = model.plan(X, edges)
    assert plan.kind == "nufft" and model.interior == 1.0
    for table, x, transform, evaluate in ((plan.table, X, plan.transform, model.basis),
                                          (plan.cells, edges, plan.edges,
                                           model.basis_antiderivative)):
        inside = np.abs(x) <= model.interior
        assert 0 < np.count_nonzero(inside) < x.size
        assert np.array_equal(table, evaluate(x[inside]).reshape(table.shape))
        assert transform.runs[0].index.shape == (np.count_nonzero(~inside), 18)


def test_interior_tables_evaluate_no_waves(monkeypatch):
    # blend(1, 3, R = 1.5) on its matched rule, one sample and two cell edges in
    # [-R, R]: the interior tables are the sweep's solution alone, so the one call
    # of `waves` is the anchors', and the zeta spline, which only a warp inside
    # [-R, R] reads, is never built
    prof = blend_profile(1.0, 3.0, R=1.5, kind="cubic")
    sset, window = SpectralSet([(0.0, 1.0)]), (-30.0, 30.0)
    W = 0.5 * (prof.zeta(window[1]) - prof.zeta(window[0]))
    model = LiouvilleModel(prof, sset, quad=uniform_quadrature(sset, np.pi / W))
    X = np.concatenate((np.linspace(-29.5, -2.0, 30), [0.3], np.linspace(2.0, 29.5, 30)))
    calls, waves = [], spectral.SpectralQuadrature.waves

    def counted(quad, t):
        calls.append(np.size(t))
        return waves(quad, t)

    monkeypatch.setattr(spectral.SpectralQuadrature, "waves", counted)
    op = ReconstructionOperator(model, SampleSet(X), window)
    assert (op.plan.table.shape[1], op.plan.cells.shape[1]) == (1, 2)
    assert calls == [2]
    assert "_zeta_spline" not in vars(prof)


@pytest.mark.parametrize("kind", ["toy", "liouville"])
@pytest.mark.parametrize("rule", ["lattice", "gauss"])
def test_evaluate_at_no_points(kind, rule):
    sset = SpectralSet([(0.0, 2.0)])
    model = contraction_model(kind, sset, quad=gauss_legendre_quadrature(sset, t_max=8.0)
                              if rule == "gauss" else None)
    values = random_function(model, rng=25).evaluate(np.array([]))
    assert values.shape == (0,) and values.dtype == complex


# (samples, window) at the edge of the interior [-1, 1] of both sweep models
SPLIT_CASES = {
    # the midpoint of -1.2 and 3.5 is 1.15: one cell spans the support
    "no-point-inside": (np.concatenate((np.linspace(-5.5, -1.2, 9), np.linspace(3.5, 5.5, 5))),
                        (-6.0, 6.0)),
    # the window is the support: the lattice sets are empty
    "every-point-inside": (np.linspace(-0.95, 0.95, 12), (-1.0, 1.0)),
    "samples-at-a": (np.concatenate((np.linspace(-5.5, -1.0, 10), np.linspace(1.0, 5.5, 10))),
                     (-6.0, 6.0)),
    # the cells of -0.7 and 0.8 are [-1.1, 0.05] and [0.05, 1.2]
    "cells-straddle-a": (np.array([-5.0, -3.0, -1.5, -0.7, 0.8, 1.6, 3.0, 5.0]), (-6.0, 6.0)),
    "gauss-rule": (TestOperatorContractions.X, (-6.0, 6.0)),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
@pytest.mark.parametrize("kind", ["schrodinger", "liouville"])
def test_split_plan_matches_complex_tables(kind, case):
    X, window = SPLIT_CASES[case]
    gauss = case == "gauss-rule"
    sset = SpectralSet([(0.0, 2.0)])
    model = contraction_model(kind, sset, quad=gauss_legendre_quadrature(sset, t_max=8.0)
                              if gauss else None)
    op, ref = ReconstructionOperator(model, SampleSet(X), window), ComplexTableOperator(model, X, window)
    assert op.plan.kind == ("dense" if gauss else "nufft")
    f = random_function(model, rng=23)
    assert _rel_dev(op.sample(f), ref.sample(f)) <= 1e-12
    rng = np.random.default_rng(24)
    v = rng.standard_normal(X.size) + 1j * rng.standard_normal(X.size)
    assert _rel_dev(op.from_values(v).F, ref.from_values(v).F) <= 1e-12


def test_liouville_plan_at_study_size():
    """The paper's smooth case on the plan against its dense tables, 675 nodes and 2251 samples.

    The cubic blend(1, 3, R = 1.5) on the lattice rule of its warped window
    W = 675.5 pi, samples on a uniform grid in z = zeta(x) jittered by up to
    0.15 of its step. The samples and edges in [-R, R] are the same table
    columns in both; on the tails the two differ by at most the plan's
    remainder plus the tables' 8u (1 + omega |z|) (`SpectralQuadrature.waves`),
    times the l1 norm of what the transforms and the tables multiply.
    """
    rng = np.random.default_rng(43)
    n, N = STUDY_NODES, STUDY_SAMPLES
    prof = blend_profile(1.0, 3.0, R=1.5, kind="cubic")
    W = (n + 0.5) * np.pi
    sset = SpectralSet([(0.0, 1.0)])
    quad = uniform_quadrature(sset, np.pi / W)
    model = LiouvilleModel(prof, sset, quad=quad)
    dense_model = LiouvilleModel(prof, sset, quad=replace(quad, lattice=None))
    k = np.arange(N) - (N - 1) // 2
    X = prof.zeta_inv((k + rng.uniform(-0.15, 0.15, N)) * (2 * W / (N + 1)))
    window = (float(prof.zeta_inv(-W)), float(prof.zeta_inv(W)))
    op = ReconstructionOperator(model, SampleSet(X), window)
    dense = ReconstructionOperator(dense_model, SampleSet(X), window)
    assert (op.plan.kind, dense.plan.kind, len(quad)) == ("nufft", "dense", n)
    assert op.plan.table.shape == (2 * n, np.count_nonzero(np.abs(X) <= prof.R))
    u, w = 2.0**-53, quad.nodes
    waves = 8 * u * (1 + w * W)  # |omega z| <= omega W on this window
    L, P = model.tails

    f = random_function(model, rng=rng)
    G = model.basis_coefficients(f.F)
    # on side s the coefficients of exp(+-i omega z) are (g_c -+ i g_s) / 2, g = L_s^T G
    l1 = max(np.abs(np.einsum("akl,al->kl", L[s], G)).sum() for s in (0, 1))
    dev = np.abs(op.sample(f) - dense.sample(VarBandFunction(dense_model, f.F)))
    assert dev.max() <= (op.plan.remainder + waves.max()) * l1

    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    got, ref = op.from_values(v).F, dense.from_values(v).F
    # d weighs at most 2 sum |v|; on side s A = P_s (sin, -cos) / omega + C_s, whose
    # map, constant and sums round a few times more; F = conj(mix H)
    primitive = np.abs(P).sum(axis=2).max(axis=0) / w  # (component, node)
    constant = np.abs(model.constants).max(axis=0)
    per_node = 2 * np.abs(v).sum() * ((op.plan.remainder + waves + 4 * u) * primitive
                                      + 4 * u * constant)
    assert np.all(np.abs(got - ref) <= np.abs(model.mix).sum(axis=1) * per_node.max(axis=0))


def complex_frame_bounds(model, X, window):
    """A and B from the SVD of the complex N x 2n matrix sqrt(cell w rho) Phi(x)."""
    col = np.sqrt(model.quad.weights[None, :] * model.rho)
    M = (phi(model, X) * col[:, :, None]).reshape(-1, X.size).T
    M *= np.sqrt(np.diff(midpoint_partition(X, window)))[:, None]
    s = np.linalg.svd(M, compute_uv=False)
    n_dof = M.shape[1]
    return (s[n_dof - 1] ** 2 if s.size >= n_dof else 0.0), s[0] ** 2


class TestFrameBounds:
    @pytest.mark.parametrize("kind", ["toy", "free", "schrodinger", "liouville"])
    @pytest.mark.parametrize("stride", [1, 2], ids=["dense", "thinned"])
    def test_real_basis_matches_complex_phi(self, kind, stride):
        # U^T L with L L^T = sigma against the complex matrix of Phi, whose
        # Gram matrices differ only by the kernel's imaginary residue
        sset, W = SpectralSet([(0.0, 2.0)]), 20.0
        quad = uniform_quadrature(sset, np.pi / W)
        if kind == "toy":
            model = ToyModel(1.0, 4.0, sset, quad=quad)
        elif kind == "free":
            model = free_model(sset, quad=quad)
        elif kind == "schrodinger":
            q = lambda x: 1.5 * np.cos(np.pi * np.asarray(x, float) / 2) ** 2 * (np.abs(x) <= 1)
            model = SchrodingerModel(q, 1.0, sset, quad=quad)
        else:
            model = LiouvilleModel(blend_profile(1.0, 2.0, R=1.0), sset, quad=quad)
        X = np.linspace(-W + 0.1, W - 0.2, 61)[::stride]
        A, B = frame_bounds_estimate(model, SampleSet(X), window=(-W, W))
        A_ref, B_ref = complex_frame_bounds(model, X, (-W, W))
        assert A > 0
        assert abs(A - A_ref) <= 1e-12 * B_ref
        assert abs(B - B_ref) <= 1e-12 * B_ref


    def test_tight_on_matched_lattice(self):
        model, X, window = matched_free_setup(4.0, 0.5, 60)
        A, B = frame_bounds_estimate(model, SampleSet(X), window=window)
        assert A > 0
        assert B / A < 1.5

    def test_thinning_lowers_lower_bound(self):
        model, X, window = matched_free_setup(4.0, 0.5, 60)
        A_full, _ = frame_bounds_estimate(model, SampleSet(X), window=window)
        A_thin, _ = frame_bounds_estimate(model, SampleSet(X[::2]), window=window)
        assert A_thin < A_full

    def test_underdetermined_is_zero(self):
        model, X, window = matched_free_setup(4.0, 0.5, 60)
        A, B = frame_bounds_estimate(model, SampleSet(X[:5]), window=window)
        assert A == 0.0
        assert B > 0


class TestCsv:
    def test_roundtrip(self, tmp_path):
        pts = np.array([0.0, 1.0, 2.5])
        vals = np.array([1.0 + 2.0j, -0.5, 0.25j])
        p = tmp_path / "samples.csv"
        samples_to_csv(p, pts, vals)
        pts2, vals2 = samples_from_csv(p)
        assert np.allclose(pts, pts2)
        assert np.allclose(vals, vals2)

    # rows after the header line; each is read the same with CRLF and with LF line ends
    PARITY_ROWS = {
        "plain": ["0.5,1,-2", "1.5,2.25e-3,4", "3,-0.5,0"],
        "blank-line": ["0.5,1,-2", "", "3,-0.5,0"],
        "trailing-blank-line": ["0.5,1,-2", "3,-0.5,0", ""],
        "comment-line": ["0.5,1,-2", "# a comment", "3,-0.5,0"],
        "quoted-fields": ['"0.5",1,-2', '1.5,"2",4'],
        "extra-columns": ["0.5,1,-2,7,x", "1.5,2,4,8,y"],
        "short-row": ["0.5,1,-2", "1.5,2", "3,-0.5,0"],
        "nan": ["0.5,nan,-2", "1.5,2,4"],
        "inf": ["0.5,1,-2", "1.5,2,-inf"],
        "not-a-number": ["0.5,1,-2", "1.5,two,4"],
        "header-only": [],
    }

    @pytest.mark.parametrize("newline", ["\r\n", "\n"], ids=["crlf", "lf"])
    @pytest.mark.parametrize("case", sorted(PARITY_ROWS))
    def test_parse_matches_csv_module(self, tmp_path, case, newline):
        rows = self.PARITY_ROWS[case]
        p = tmp_path / "samples.csv"
        p.write_bytes("".join(line + newline for line in ["x,re_value,im_value", *rows]).encode())
        want = csv_module_samples(p)
        if isinstance(want, int):
            with pytest.raises(SamplingError, match=f"malformed samples file .*, line {want}: "):
                samples_from_csv(p)
        else:
            got = samples_from_csv(p)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_last_line_without_newline(self, tmp_path):
        p = tmp_path / "samples.csv"
        p.write_text("x,re_value,im_value\n0.5,1,-2\n1.5,2,4")
        x, v = samples_from_csv(p)
        assert np.array_equal(x, [0.5, 1.5]) and np.array_equal(v, [1 - 2j, 2 + 4j])


def csv_module_samples(path):
    """A samples file as the csv module reads it, one row at a time: the reference.

    Returns (points, values), or the number of the first line that is not
    three finite numbers.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        pts, vals = [], []
        for row in reader:
            try:
                x, re, im = (float(v) for v in row[:3])
            except ValueError:
                return reader.line_num
            if not np.isfinite([x, re, im]).all():
                return reader.line_num
            pts.append(x)
            vals.append(re + 1j * im)
    return np.array(pts), np.array(vals, dtype=complex)
