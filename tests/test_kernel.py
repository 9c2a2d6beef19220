import numpy as np
import pytest

from varband.kernel import (
    KernelError,
    LiouvilleModel,
    SchrodingerModel,
    ToyModel,
    diagonal_average,
    free_kernel,
    free_model,
    halfline_kernel,
    kernel_tail_mass,
    toy_kernel,
    toy_quadrature_kernel,
)
from varband.paleywiener import random_function, transform
from varband.profile import blend_profile
from varband.spectral import SpectralSet
from varband.sturm import toy_fundamental


@pytest.fixture(scope="module")
def barrier_model():
    q = lambda x: 1.5 * np.cos(np.pi * np.asarray(x, float) / 2) ** 2 * (np.abs(x) <= 1)
    return SchrodingerModel(q, 1.0, SpectralSet([(0.0, 4.0)]), x_max=12.0)


class TestClosedForms:
    def test_free_is_sinc(self):
        xs = np.linspace(-3, 3, 13)
        ref = (1 / np.pi) * np.sinc((xs - 0.4) / np.pi)
        assert np.allclose(free_kernel(1.0, xs, 0.4), ref)

    def test_toy_reduces_to_free(self):
        xs = np.linspace(-4, 4, 31)
        ys = np.linspace(-4, 4, 31)
        K1 = toy_kernel(1.0, 1.0, 2.0, xs[:, None], ys[None, :])
        K2 = free_kernel(2.0, xs[:, None], ys[None, :])
        assert np.max(np.abs(K1 - K2)) < 1e-13

    def test_toy_symmetric(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-5, 5, (2, 50))
        a = toy_kernel(1.0, 4.0, 1.7, x, y)
        b = toy_kernel(1.0, 4.0, 1.7, y, x)
        assert np.max(np.abs(a - b)) < 1e-14

    def test_halfline_dirichlet(self):
        ys = np.linspace(0, 5, 21)
        assert np.max(np.abs(halfline_kernel(2.0, 0.0, ys))) < 1e-15

    def test_halfline_zero_off_halfline(self):
        assert halfline_kernel(1.0, -1.0, 2.0) == 0.0

    def test_halfline_value(self):
        om = 2.0
        u = np.sqrt(om)
        x, y = 1.3, 0.7
        expected = (u / np.pi) * (np.sin(u * (x - y)) / (u * (x - y))
                                  - np.sin(u * (x + y)) / (u * (x + y)))
        assert halfline_kernel(om, x, y) == pytest.approx(expected, abs=1e-14)


class TestToyQuadratureAgreement:
    @pytest.mark.parametrize("pm,pp", [(1.0, 1.0), (1.0, 4.0), (2.0, 3.0)])
    def test_matches_closed_form(self, pm, pp):
        om = 2.0
        xs = np.linspace(-6, 6, 9)
        K_closed = toy_kernel(pm, pp, om, xs[:, None], xs[None, :])
        model = ToyModel(pm, pp, SpectralSet([(0.0, om)]), x_max=8.0)
        K_quad = model.kernel_matrix(xs, xs)
        assert np.max(np.abs(K_closed - K_quad)) < 1e-12

    def test_wrapper(self):
        v = toy_quadrature_kernel(1.0, 4.0, SpectralSet([(0.0, 1.0)]), 0.5, -0.5,
                                  x_max=3.0)
        assert v == pytest.approx(toy_kernel(1.0, 4.0, 1.0, 0.5, -0.5), abs=1e-12)

    def test_multi_band(self):
        # kernel of a two-band spectral set is the difference of band kernels
        sset = SpectralSet([(0.0, 1.0), (2.0, 3.0)])
        model = ToyModel(1.0, 1.0, sset, x_max=6.0)
        xs = np.linspace(-4, 4, 7)
        ref = (free_kernel(1.0, xs[:, None], xs[None, :])
               + free_kernel(3.0, xs[:, None], xs[None, :])
               - free_kernel(2.0, xs[:, None], xs[None, :]))
        assert np.max(np.abs(model.kernel_matrix(xs, xs) - ref)) < 1e-12


class TestModelInvariants:
    def test_symmetric_psd(self, barrier_model):
        xs = np.linspace(-3, 3, 25)
        K = barrier_model.kernel_matrix(xs, xs)
        assert np.max(np.abs(K - K.T)) < 1e-12
        ev = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert ev.min() > -1e-10

    def test_free_model_is_sinc(self):
        model = free_model(SpectralSet([(0.0, 2.0)]), x_max=8.0)
        xs = np.linspace(-5, 5, 11)
        K = model.kernel_matrix(xs, xs)
        ref = free_kernel(2.0, xs[:, None], xs[None, :])
        assert np.max(np.abs(K - ref)) < 1e-12

    def test_kernel_broadcast_shapes(self, barrier_model):
        xs = np.linspace(-2, 2, 5)
        out = barrier_model.kernel(xs, 0.3)
        assert out.shape == (5,)
        assert np.isscalar(barrier_model.kernel(0.1, 0.2))

    def test_dump_csv(self, barrier_model, tmp_path):
        p = tmp_path / "k.csv"
        barrier_model.dump_csv(p, [0.0, 1.0], [0.0, 1.0])
        lines = p.read_text().splitlines()
        assert lines[0] == "x,y,re_k,im_k"
        assert len(lines) == 5


class TestTailFastPaths:
    def test_same_side_right(self, barrier_model):
        for x, y in [(1.5, 2.2), (2.0, 5.0), (1.0, 1.0)]:
            direct = barrier_model.kernel(x, y)
            assert barrier_model.kernel_tails(x, y) == pytest.approx(direct, abs=1e-6)

    def test_same_side_left(self, barrier_model):
        direct = barrier_model.kernel(-2.0, -3.5)
        assert barrier_model.kernel_tails(-2.0, -3.5) == pytest.approx(direct, abs=1e-6)

    def test_mixed_sides(self, barrier_model):
        direct = barrier_model.kernel(-2.5, 3.0)
        assert barrier_model.kernel_tails(-2.5, 3.0) == pytest.approx(direct, abs=1e-6)

    def test_rejects_interior(self, barrier_model):
        with pytest.raises(KernelError):
            barrier_model.kernel_tails(0.0, 2.0)

    def test_diagonal_tail(self, barrier_model):
        ys = np.linspace(1.0, 4.0, 7)
        direct = barrier_model.diagonal(ys)
        fast = barrier_model.diagonal_tail(ys)
        assert np.max(np.abs(direct - fast)) < 1e-8

    def test_diagonal_tail_average(self, barrier_model):
        lo, hi = 1.5, 6.5
        ys = np.linspace(lo, hi, 4001)
        ref = np.trapezoid(barrier_model.diagonal_tail(ys), ys) / (hi - lo)
        fast = barrier_model.diagonal_tail_average(lo, hi)
        assert fast == pytest.approx(ref, rel=1e-6)

    def test_diagonal_average_free_exact(self):
        model = free_model(SpectralSet([(0.0, 3.0)]), x_max=6.0)
        avg = diagonal_average(model, (-2.0, 2.0), n=201)
        assert avg == pytest.approx(np.sqrt(3.0) / np.pi, rel=1e-12)


class TestTailMass:
    def test_decreasing_in_cutoff(self):
        fn = lambda xv, yv: free_kernel(1.0, xv, yv)
        masses = [kernel_tail_mass(fn, 0.0, b, (-60.0, 60.0), n=8001)
                  for b in (1.0, 4.0, 16.0)]
        assert masses[0] > masses[1] > masses[2] > 0


class TestLiouville:
    def test_constant_profile_reduces_to_free(self):
        prof = blend_profile(1.0, 1.0, R=0.5)
        model = LiouvilleModel(prof, SpectralSet([(0.0, 2.0)]), x_max=8.0)
        xs = np.linspace(-4, 4, 9)
        ref = free_kernel(2.0, xs[:, None], xs[None, :])
        assert np.max(np.abs(model.kernel_matrix(xs, xs) - ref)) < 1e-10

    def test_warped_pullback_structure(self):
        prof = blend_profile(1.0, 2.0, R=1.0, kind="quintic")
        model = LiouvilleModel(prof, SpectralSet([(0.0, 1.5)]), x_max=10.0)
        xs = np.array([-3.0, -1.0, 0.5, 2.0, 4.0])
        K = model.kernel_matrix(xs, xs)
        assert np.max(np.abs(K - K.T)) < 1e-10
        assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() > -1e-8
        # pullback identity: k(x,y) = p(x)^{-1/4} p(y)^{-1/4} h(zeta x, zeta y)
        inner = model.inner.kernel_matrix(prof.zeta(xs), prof.zeta(xs))
        pref = np.asarray(prof.eval_p(xs), float) ** -0.25
        assert np.max(np.abs(K - pref[:, None] * pref[None, :] * inner)) < 1e-10

    def test_requires_smooth_profile(self):
        from varband.profile import toy_profile

        with pytest.raises(KernelError):
            LiouvilleModel(toy_profile(1.0, 4.0), SpectralSet([(0.0, 1.0)]))


class TestToyPhi:
    @pytest.mark.parametrize("pm, pp", [(1.0, 4.0), (3.0, 0.5)])
    def test_matches_closed_form_fundamentals(self, pm, pp):
        model = ToyModel(pm, pp, SpectralSet([(0.0, 2.0)]), x_max=6.0)
        xs = np.concatenate(([0.0, -1e-300, 1e-300], np.linspace(-4000.0, 4000.0, 801)))
        phi = model.phi(xs)
        for l, w in enumerate(model.quad.nodes):
            plus, minus = toy_fundamental(pm, pp, w**2, xs)
            assert np.max(np.abs(phi[0, l] - plus)) < 1e-11
            assert np.max(np.abs(phi[1, l] - minus)) < 1e-11


# -- the BLAS contractions against the three-operand einsums they replaced --


def _close(got, ref, rel=1e-12):
    return np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def ref_kernel_matrix(model, xs, ys):
    w = model.quad.weights[None, :] * model.rho
    return np.einsum("cl,cli,clj->ij", w, model.phi(xs), model.phi(ys).conj())


def ref_kernel_pairs(model, x, y):
    w = model.quad.weights[None, :] * model.rho
    return np.einsum("cl,cli,cli->i", w, model.phi(x), model.phi(y).conj())


def ref_evaluate(f, xs):
    synth = f.model.quad.weights[None, :] * f.model.rho / f.model.transform_prefactor
    return np.einsum("cl,cl,clk->k", synth, f.F, f.model.phi(xs))


def ref_transform(model, f, window, n_panels):
    gx, gw = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(*window, n_panels + 1)
    F = np.zeros((2, len(model.quad)), dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        pts = 0.5 * (lo + hi) + half * gx
        fv = np.asarray(f(pts), dtype=complex)
        F += half * np.einsum("clk,k,k->cl", model.phi(pts).conj(), fv, gw)
    return model.transform_prefactor * F


@pytest.fixture(scope="module", params=["toy", "schrodinger"])
def small_model(request):
    sset = SpectralSet([(0.0, 2.0)])
    if request.param == "toy":
        return ToyModel(1.0, 4.0, sset, x_max=4.0)
    q = lambda x: 1.5 * np.cos(np.pi * np.asarray(x, float) / 2) ** 2 * (np.abs(x) <= 1)
    return SchrodingerModel(q, 1.0, sset, x_max=4.0)


class TestBlasContractions:
    # points on both sides of the jump and inside and outside the support
    xs = np.linspace(-3.1, 2.9, 23)
    ys = np.linspace(-2.4, 3.3, 17)

    def test_kernel_matrix_distinct(self, small_model):
        got = small_model.kernel_matrix(self.xs, self.ys, keep_complex=True)
        assert _close(got, ref_kernel_matrix(small_model, self.xs, self.ys))

    def test_kernel_matrix_same_grid(self, small_model):
        got = small_model.kernel_matrix(self.xs, self.xs, keep_complex=True)
        assert _close(got, ref_kernel_matrix(small_model, self.xs, self.xs))

    def test_kernel_matrix_evaluates_phi_once(self, small_model, monkeypatch):
        calls = []

        def counting_phi(x):
            calls.append(np.size(x))
            return type(small_model).phi(small_model, x)

        monkeypatch.setattr(small_model, "phi", counting_phi)
        small_model.kernel_matrix(self.xs, self.xs)
        assert calls == [self.xs.size]

    def test_kernel_pairs(self, small_model):
        y = self.ys[: self.xs.size - 6]
        x = self.xs[: y.size]
        got = small_model.kernel_pairs(x, y, keep_complex=True)
        assert _close(got, ref_kernel_pairs(small_model, x, y))
        diag = small_model.kernel_pairs(x, x, keep_complex=True)
        assert _close(diag, ref_kernel_pairs(small_model, x, x))

    def test_evaluate(self, small_model):
        f = random_function(small_model, rng=5)
        assert _close(f.evaluate(self.xs), ref_evaluate(f, self.xs))

    def test_transform(self, small_model):
        g = lambda x: np.exp(-np.asarray(x, float) ** 2 / 2) * (1 + 0.3j * np.asarray(x))
        got = transform(small_model, g, (-6.0, 6.0), n_panels=12).F
        assert _close(got, ref_transform(small_model, g, (-6.0, 6.0), 12))

    def test_liouville_cell_integral(self):
        prof = blend_profile(1.0, 2.0, R=1.0, kind="quintic")
        model = LiouvilleModel(prof, SpectralSet([(0.0, 1.0)]), x_max=3.0)
        lo, hi = -1.7, 2.2
        # the panel layout of LiouvilleModel.cell_integral
        wmax = float(np.max(model.quad.nodes))
        panel = np.pi / (4 * wmax * np.sqrt(prof.lower))
        edges = np.linspace(lo, hi, int(np.ceil((hi - lo) / panel)) + 1)
        gx, gw = np.polynomial.legendre.leggauss(10)
        ref = np.zeros((2, len(model.quad)), dtype=complex)
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            ref += half * np.einsum("clk,k->cl", model.phi(0.5 * (a + b) + half * gx), gw)
        assert _close(model.cell_integral(lo, hi), ref)
