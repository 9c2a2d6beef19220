import numpy as np
import pytest

from varband import sampling
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
from varband.spectral import SpectralSet, uniform_quadrature


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

    The reference formula: sample is sum over (c, l) of synthesis weights F Phi
    at the samples, from_values the transform prefactor times the conjugated
    cell integrals of Phi against the values. Same interface as
    ReconstructionOperator.
    """

    def __init__(self, model, X, window):
        self.model = model
        self.points = X.points if isinstance(X, SampleSet) else np.asarray(X, dtype=float)
        self.window = window
        edges = midpoint_partition(self.points, window)
        cells = np.diff(model.antiderivative(edges), axis=-1)
        self.C = model.transform_prefactor * cells.conj()
        self.phiX = model.phi(self.points)
        self.synth = model.synthesis_weights()

    def sample(self, f):
        return np.einsum("cl,cl,cli->i", self.synth, f.F, self.phiX)

    def from_values(self, values):
        return VarBandFunction(self.model, np.einsum("cli,i->cl", self.C, values))

    def apply(self, f):
        return self.from_values(self.sample(f))


def _rel_dev(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestOperatorContractions:
    """sample and from_values against the complex-table formula, to 1e-12 relative."""

    # both sides of the jump, a sample at 0 whose cell straddles it
    X = np.concatenate((np.linspace(-5.5, -0.4, 14), [0.0], np.linspace(0.35, 5.5, 16)))

    @pytest.fixture(scope="class", params=["toy", "schrodinger", "free", "liouville"])
    def operators(self, request):
        sset = SpectralSet([(0.0, 2.0)])
        quad = uniform_quadrature(sset, np.pi / 6.0)
        if request.param == "toy":
            model = ToyModel(1.0, 4.0, sset, quad=quad)
        elif request.param == "schrodinger":
            q = lambda x: 1.5 * np.cos(np.pi * np.asarray(x, float) / 2) ** 2 * (np.abs(x) <= 1)
            model = SchrodingerModel(q, 1.0, sset, quad=quad)
        elif request.param == "free":
            model = free_model(sset, quad=quad)
        else:
            model = LiouvilleModel(blend_profile(1.0, 2.0, R=1.0), sset, quad=quad)
        window = (-6.0, 6.0)
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

    def test_tables_are_real(self, operators):
        op, _ = operators
        tables = (op.basis, op.cells)
        assert all(t.dtype == np.float64 for t in tables)
        n, N = len(op.model.quad), self.X.size
        assert sum(t.nbytes for t in tables) == 2 * (2 * n * N * 8)

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


class TestFrameBounds:
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
