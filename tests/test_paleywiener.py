import numpy as np
import pytest

from varband.kernel import LiouvilleModel, ToyModel, free_model, toy_kernel
from varband.paleywiener import (
    FunctionError,
    VarBandFunction,
    bernstein_ratio,
    random_function,
    random_smooth_function,
    transform,
)
from varband.profile import blend_profile
from varband.sampling import ReconstructionOperator
from varband.spectral import SpectralSet

from closed_forms import phi


@pytest.fixture(scope="module")
def fmodel():
    return free_model(SpectralSet([(0.0, 4.0)]), x_max=40.0)


@pytest.fixture(scope="module")
def tmodel():
    return ToyModel(1.0, 4.0, SpectralSet([(0.0, 2.0)]), x_max=40.0)


class TestBasics:
    def test_shape_validation(self, fmodel):
        with pytest.raises(FunctionError):
            VarBandFunction(fmodel, np.zeros((2, 3)))

    def test_arithmetic(self, fmodel):
        f = random_function(fmodel, rng=0)
        g = random_function(fmodel, rng=1)
        h = 2.0 * f - g
        xs = np.linspace(-1, 1, 5)
        assert np.allclose(h(xs), 2.0 * f(xs) - g(xs))

    def test_model_mismatch(self, fmodel, tmodel):
        f = random_function(fmodel, rng=0)
        g = random_function(tmodel, rng=0)
        with pytest.raises(FunctionError):
            f + g

    def test_normalized_draws(self, fmodel, tmodel):
        for model in (fmodel, tmodel):
            assert random_function(model, rng=5).norm() == pytest.approx(1.0)
            assert random_smooth_function(model, rng=5).norm() == pytest.approx(1.0)


def simpson_norm(f, window, n):
    """The L2 norm of f over a window by composite Simpson quadrature on n points."""
    from scipy.integrate import simpson

    xs = np.linspace(*window, n)
    return float(np.sqrt(simpson(np.abs(f(xs)) ** 2, x=xs)))


class TestParseval:
    def test_free_model(self, fmodel):
        f = random_smooth_function(fmodel, rng=7)
        spatial = simpson_norm(f, (-40.0, 40.0), n=20001)
        assert spatial == pytest.approx(f.norm(), rel=2e-3)

    def test_toy_model(self, tmodel):
        f = random_smooth_function(tmodel, rng=11)
        spatial = simpson_norm(f, (-40.0, 40.0), n=20001)
        assert spatial == pytest.approx(f.norm(), rel=5e-3)


def kernel_section(model, x0):
    """k(x0, .) as a function of the space: coefficients conj(Phi(x0))."""
    return VarBandFunction(model, phi(model, [float(x0)])[:, :, 0].conj())


class TestReproducing:
    def test_kernel_section_values(self, tmodel):
        x0 = 0.8
        k = kernel_section(tmodel, x0)
        xs = np.linspace(-3, 3, 13)
        ref = toy_kernel(1.0, 4.0, 2.0, xs, x0)
        assert np.max(np.abs(k(xs) - ref)) < 1e-10

    def test_point_evaluation_identity(self, fmodel, tmodel):
        for model in (fmodel, tmodel):
            f = random_smooth_function(model, rng=3)
            x0 = -1.3
            k = kernel_section(model, x0)
            w = model.quad.weights[None, :] * model.rho
            inner = complex(np.sum(w * f.F * k.F.conj()))
            assert inner == pytest.approx(complex(f(x0)), abs=1e-10)

    def test_kernel_norm_is_diagonal(self, fmodel):
        x0 = 0.4
        k = kernel_section(fmodel, x0)
        assert k.norm() ** 2 == pytest.approx(fmodel.kernel(x0, x0), rel=1e-12)


class TestTransform:
    def test_box_function_free(self, fmodel):
        # unit box on [-1, 1], the one cell of a sample at 0: coefficients are
        # 2 sin(omega)/omega
        f = ReconstructionOperator(fmodel, [0.0], (-1.0, 1.0)).from_values([1.0])
        w = fmodel.quad.nodes
        expected = 2 * np.sin(w) / w
        assert np.max(np.abs(f.F[0] - expected)) < 1e-12
        assert np.max(np.abs(f.F[1] - expected)) < 1e-12

    def test_steps_free(self, fmodel):
        # two cells [-1, 0.5] and [0.5, 2] of samples at 0 and 1, off-centre so
        # the integrals are complex, with complex values
        f = ReconstructionOperator(fmodel, [0.0, 1.0], (-1.0, 2.0)).from_values([1.0, -2j])
        w = fmodel.quad.nodes

        def box(lo, hi):
            return (np.exp(1j * w * hi) - np.exp(1j * w * lo)) / (1j * w)

        # F_c = sum_i v_i conj(int_cell_i Phi_c), Phi = (e^{i w y}, e^{-i w y})
        b1, b2 = box(-1.0, 0.5), box(0.5, 2.0)
        assert np.max(np.abs(f.F[0] - (b1.conj() - 2j * b2.conj()))) < 1e-12
        assert np.max(np.abs(f.F[1] - (b1 - 2j * b2))) < 1e-12

    def test_roundtrip(self, fmodel):
        # window truncation dominates the error; measure it in the space norm
        f = random_smooth_function(fmodel, rng=13)
        g = transform(fmodel, lambda x: f(x), (-40.0, 40.0))
        assert (g - f).norm() < 5e-2

    def test_projection_reproduces_bandlimited(self, fmodel):
        # transforming a function already in the space is (windowed) identity
        f = random_smooth_function(fmodel, rng=17)
        g = transform(fmodel, lambda x: f(x), (-40.0, 40.0))
        xs = np.linspace(-2, 2, 9)
        assert np.max(np.abs(g(xs) - f(xs))) < 1e-3

    def test_default_panels_follow_the_local_bandwidth(self):
        # left of the jump p = 0.01: the space's waves oscillate ten times faster
        # in x than their frequency, and the default panels resolve them there
        model = ToyModel(0.01, 1.0, SpectralSet([(0.0, 4.0)]), x_max=12.0)
        f = random_smooth_function(model, rng=1)

        def g(x):
            return f(x) * np.exp(-np.asarray(x) ** 2 / 20)

        got = transform(model, g, (-12.0, 12.0)).F
        ref = transform(model, g, (-12.0, 12.0), n_panels=2000).F
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_converges_inside_a_smooth_blend(self):
        # on [-1, 1], inside the blend, U and int U come from the RK4 sweep's
        # interior: 40 panels meet 200 within 3.5e-13 (it was 3e-12 while U
        # there was a C1 spline through the sweep's steps)
        model = LiouvilleModel(blend_profile(0.01, 1.0, R=1.0), SpectralSet([(0.0, 4.0)]),
                               x_max=3.0)
        f = random_smooth_function(model, rng=1)

        def g(x):
            return f(x) * np.exp(-np.asarray(x) ** 2 / 20)

        got = transform(model, g, (-1.0, 1.0), n_panels=40).F
        ref = transform(model, g, (-1.0, 1.0), n_panels=200).F
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestBernstein:
    def test_k_zero_is_one(self, fmodel):
        f = random_function(fmodel, rng=4)
        assert bernstein_ratio(f, 0, 4.0) == pytest.approx(1.0)

    def test_single_node_quarter(self, fmodel):
        # concentrate at the node closest to lambda = Omega / 4
        om = 4.0
        target = np.sqrt(om / 4)
        i = int(np.argmin(np.abs(fmodel.quad.nodes - target)))
        F = np.zeros((2, len(fmodel.quad)))
        F[0, i] = 1.0
        f = VarBandFunction(fmodel, F)
        lam = fmodel.quad.nodes[i] ** 2
        assert bernstein_ratio(f, 1, om) == pytest.approx(lam / om, rel=1e-12)

    def test_never_exceeds_one(self, fmodel, tmodel):
        rng = np.random.default_rng(8)
        for model in (fmodel, tmodel):
            om = float(np.max(model.quad.nodes)) ** 2
            for _ in range(10):
                f = random_function(model, rng=rng)
                for k in range(5):
                    assert bernstein_ratio(f, k, om) <= 1.0 + 1e-9

    def test_zero_function_error(self, fmodel):
        with pytest.raises(FunctionError):
            bernstein_ratio(VarBandFunction(fmodel, np.zeros((2, len(fmodel.quad)))), 1, 4.0)

