import tracemalloc

import numpy as np
import pytest

from varband.kernel import (
    KernelError,
    LiouvilleModel,
    SchrodingerModel,
    ToyModel,
    _contract,
    free_kernel,
    free_model,
    halfline_kernel,
    toy_kernel,
)
from varband.paleywiener import random_function, transform
from varband.profile import blend_profile
from varband.spectral import SpectralSet, gauss_legendre_quadrature, uniform_quadrature

from closed_forms import phi, toy_fundamental


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

    def test_scalar_points(self):
        model = ToyModel(1.0, 4.0, SpectralSet([(0.0, 1.0)]), x_max=3.0)
        v = model.kernel(0.5, -0.5)
        assert isinstance(v, float)
        assert v == pytest.approx(toy_kernel(1.0, 4.0, 1.0, 0.5, -0.5), abs=1e-12)

    def test_narrow_plateau_sizes_the_rule(self):
        # p- = 1/4 doubles the phase the tables reach, to omega x_max / sqrt(p-)
        x_max = 10.0
        model = ToyModel(0.25, 1.0, SpectralSet([(0.0, 2.0)]), x_max=x_max)
        xs = np.linspace(-x_max, x_max, 201)
        ref = toy_kernel(0.25, 1.0, 2.0, xs[:, None], xs[None, :])
        assert np.max(np.abs(model.kernel_matrix(xs, xs) - ref)) < 1e-14

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

    def test_error_bound_only_for_plane_wave_kernels(self, barrier_model):
        # the rule's remainder bounds sums of plane waves, not scattering tables
        sset = SpectralSet([(0.0, 2.0)])
        for model in (free_model(sset, x_max=10.0), ToyModel(1.0, 4.0, sset, x_max=10.0)):
            assert model.error_bound == model.quad.error_bound > 0
        assert barrier_model.quad.error_bound > 0 and barrier_model.error_bound is None


class TestTailFastPaths:
    """Averages of the kernel diagonal; the tail closed form against the pointwise `diagonal`."""

    def test_diagonal_tail_average(self, barrier_model):
        lo, hi = 1.5, 6.5
        ys = np.linspace(lo, hi, 4001)
        ref = np.trapezoid(barrier_model.diagonal(ys), ys) / (hi - lo)
        fast = barrier_model.diagonal_tail_average(lo, hi)
        assert fast == pytest.approx(ref, rel=1e-6)

    def test_long_window_resolves_its_own_phase(self):
        # the ripple's phase 2 omega hi far exceeds what x_max = 2 sized the model for
        prof = blend_profile(1.0, 4.0, R=1.0, kind="quintic")
        a, kinks = prof.warped_support_radius, prof.zeta([-prof.R, prof.R])
        sset = SpectralSet([(0.0, 1.0)])
        model = SchrodingerModel(prof.potential_q_warped, a, sset, x_max=2.0,
                                 breakpoints=kinks, store_interior=False)
        lo, hi = 2 * a, 2 * a + 160 * a
        # reference: the same closed form on a rule four times finer than needed
        fine = SchrodingerModel(prof.potential_q_warped, a, sset, x_max=4 * (hi + 2 * a),
                                breakpoints=kinks, store_interior=False)
        w = fine.quad.nodes
        inner = (np.exp(2j * w * hi) - np.exp(2j * w * lo)) / (2j * w)
        ripple = np.sum(fine.quad.weights * (fine.sweep.R2 * inner).real)
        ref = (sset.sqrt_measure + ripple / (hi - lo)) / np.pi
        assert model.diagonal_tail_average(lo, hi) == pytest.approx(ref, rel=1e-13, abs=0)


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

    @pytest.mark.parametrize("p_minus,p_plus", [(1.0, 100.0), (0.01, 1.0)])
    def test_reflective_blend_matches_a_finer_rule(self, p_minus, p_plus):
        # a narrow C^1 blend across a 100-fold jump: strong reflection over 2a,
        # which sizes the rule but does not bound it. Both kernels, at the rule
        # each model builds, against rules for four times the phase, to the
        # 12 significant digits the kernel CSV carries. Lambda starts at 1/4:
        # near omega = 0 the sweep's own error in T and R2 grows like 1/omega
        # and differs between rules by far more than the quadrature does.
        prof = blend_profile(p_minus, p_plus, R=0.1, kind="cubic")
        a, kinks = prof.warped_support_radius, prof.zeta([-prof.R, prof.R])
        sset, x_max = SpectralSet([(0.25, 16.0)]), 10.0
        xs = np.linspace(-x_max, x_max, 101)
        schrodinger = SchrodingerModel(prof.potential_q_warped, a, sset, x_max=x_max,
                                       breakpoints=kinks)
        liouville = LiouvilleModel(prof, sset, x_max=x_max)
        for model, t_max, fine in (
                (schrodinger, x_max + 2 * a,
                 lambda quad: SchrodingerModel(prof.potential_q_warped, a, sset, quad=quad,
                                               breakpoints=kinks)),
                (liouville, x_max / np.sqrt(prof.lower) + 2 * a,
                 lambda quad: LiouvilleModel(prof, sset, quad=quad))):
            assert model.error_bound is None
            ref = fine(gauss_legendre_quadrature(sset, t_max=4 * t_max)).kernel_matrix(xs, xs)
            assert len(model.quad) == len(gauss_legendre_quadrature(sset, t_max=t_max))
            assert np.max(np.abs(model.kernel_matrix(xs, xs) - ref)) <= 5e-13 * np.max(np.abs(ref))

    def test_requires_smooth_profile(self):
        from varband.profile import toy_profile

        with pytest.raises(KernelError):
            LiouvilleModel(toy_profile(1.0, 4.0), SpectralSet([(0.0, 1.0)]))


def ref_toy_cell(model, lo, hi):
    """int_lo^hi Phi of the step profile, in per-side closed forms."""
    w = model.quad.nodes
    sm, sp = np.sqrt(model.p_minus), np.sqrt(model.p_plus)
    km, kp = w / sm, w / sp
    out = np.zeros((2, w.size), dtype=complex)

    def seg(a, b, side):
        if side == "right":
            out[0] += (np.exp(1j * kp * b) - np.exp(1j * kp * a)) / (1j * kp)
            cosdiff = (np.sin(kp * b) - np.sin(kp * a)) / kp
            sindiff = (np.cos(kp * a) - np.cos(kp * b)) / kp
            out[1] += cosdiff - 1j * (sm / sp) * sindiff
        else:
            cosdiff = (np.sin(km * b) - np.sin(km * a)) / km
            sindiff = (np.cos(km * a) - np.cos(km * b)) / km
            out[0] += cosdiff + 1j * (sp / sm) * sindiff
            out[1] += (np.exp(-1j * km * b) - np.exp(-1j * km * a)) / (-1j * km)

    if hi <= 0:
        seg(lo, hi, "left")
    elif lo >= 0:
        seg(lo, hi, "right")
    else:
        seg(lo, 0.0, "left")
        seg(0.0, hi, "right")
    return out


class TestToyAntiderivative:
    @pytest.mark.parametrize("pm, pp", [(1.0, 4.0), (3.0, 0.5)])
    @pytest.mark.parametrize("at_zero", [[0.0], []], ids=["edge_at_0", "cell_across_0"])
    def test_differences_match_cell_closed_forms(self, pm, pp, at_zero):
        model = ToyModel(pm, pp, SpectralSet([(0.0, 2.0)]), x_max=6.0)
        rng = np.random.default_rng(11)
        # long and short cells out to +-8000; with an edge at 0 two cells end
        # there, without one the cell [-1e-3, 2e-3] straddles it
        edges = np.unique(np.concatenate((
            rng.uniform(-8000.0, 8000.0, 30), rng.uniform(-3.0, 3.0, 12),
            [-8000.0, -1e-3, 2e-3, 8000.0], at_zero)))
        got = np.diff(phi(model, edges, integrated=True), axis=-1)
        ref = np.stack([ref_toy_cell(model, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])],
                       axis=-1)
        assert _close(got, ref)

    def test_zero_at_origin(self):
        model = ToyModel(1.0, 4.0, SpectralSet([(0.0, 2.0)]), x_max=6.0)
        assert np.all(phi(model, [0.0], integrated=True) == 0.0)


class TestToyPhi:
    @pytest.mark.parametrize("pm, pp", [(1.0, 4.0), (3.0, 0.5)])
    def test_matches_closed_form_fundamentals(self, pm, pp):
        model = ToyModel(pm, pp, SpectralSet([(0.0, 2.0)]), x_max=6.0)
        xs = np.concatenate(([0.0, -1e-300, 1e-300], np.linspace(-4000.0, 4000.0, 801)))
        Phi = phi(model, xs)
        for l, w in enumerate(model.quad.nodes):
            plus, minus = toy_fundamental(pm, pp, w**2, xs)
            assert np.max(np.abs(Phi[0, l] - plus)) < 1e-11
            assert np.max(np.abs(Phi[1, l] - minus)) < 1e-11


class TestToyBasis:
    """The real pair U = (cos theta, sin theta / sqrt(p)) behind Phi = mix U."""

    xs = np.concatenate(([0.0, -1e-300, 1e-300], np.linspace(-4000.0, 4000.0, 801)))

    @pytest.fixture(scope="class", params=[(1.0, 4.0), (3.0, 0.5)])
    def model(self, request):
        return ToyModel(*request.param, SpectralSet([(0.0, 2.0)]), x_max=6.0)

    def _truth(self, model):
        """theta = omega x / sqrt(p) in long double, sqrt(p), and the stated bound.

        The bound is 8u (1 + omega |t|), t = x / sqrt(p), u = 2**-53: the
        error of the quadrature's plane-wave tables.
        """
        assert np.finfo(np.longdouble).precision >= 18
        ld = np.longdouble
        root = np.sqrt(np.where(self.xs > 0, ld(model.p_plus), ld(model.p_minus)))
        theta = model.quad.nodes.astype(ld)[:, None] * (self.xs.astype(ld) / root)
        bound = 8 * 2.0**-53 * (1.0 + np.abs(theta.astype(float)))
        return theta, root, bound

    def test_basis_closed_form(self, model):
        U = model.basis(self.xs)
        assert U.dtype == np.float64
        theta, root, bound = self._truth(model)
        assert np.all(np.abs(U[0] - np.cos(theta)) <= bound)
        assert np.all(np.abs(U[1] - np.sin(theta) / root) <= bound / root.astype(float))

    def test_antiderivative_closed_form(self, model):
        V = model.basis_antiderivative(self.xs)
        theta, root, bound = self._truth(model)
        omega = model.quad.nodes[:, None]
        root_bound = bound * root.astype(float) / omega
        assert np.all(np.abs(V[0] - root * np.sin(theta) / omega) <= root_bound)
        assert np.all(np.abs(V[1] - (1 - np.cos(theta)) / omega) <= bound / omega)

    def test_antiderivative_is_mix_of_basis_antiderivative(self, model):
        V = model.basis_antiderivative(self.xs)
        assert V.dtype == np.float64
        # 0 at 0 and continuous across the jump
        assert np.all(V[:, :, 0] == 0.0) and np.max(np.abs(V[:, :, 1:3])) < 1e-299
        # through the mix, int_0^x Phi in per-side closed forms
        mixed = np.einsum("cal,alk->clk", model.mix, V)
        ref = np.stack([ref_toy_cell(model, 0.0, x) if x >= 0 else -ref_toy_cell(model, x, 0.0)
                        for x in self.xs], axis=-1)
        assert _close(mixed, ref)

    def test_pair_diagonalises_the_measure(self, model):
        # sum_c rho_c M_ca conj(M_cb) is diagonal, so k = sum w D_a U_a(x) U_a(y) is real
        gram = np.einsum("cl,cal,cbl->lab", model.rho, model.mix, model.mix.conj())
        assert np.max(np.abs(gram[:, 0, 1])) < 1e-15 * np.max(np.abs(gram))
        assert np.max(np.abs(gram.imag)) < 1e-15 * np.max(np.abs(gram))


class TestToyTableMemory:
    """The toy tables are built in place: no (n_nodes, n_x) temporary beside the result."""

    @pytest.mark.parametrize("table", ["basis", "basis_antiderivative"])
    def test_peak_is_the_table(self, table):
        sset = SpectralSet([(0.0, 6.745**2)])
        model = ToyModel(1.0, 4.0, sset, quad=uniform_quadrature(sset, 0.01))
        assert len(model.quad) == 674
        xs = np.linspace(-30.0, 30.0, 2251)
        tracemalloc.start()
        try:
            out = getattr(model, table)(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * out.nbytes


class TestContract:
    # every table is float64, by the `basis` contract
    @pytest.mark.parametrize("vec_dtype", [float, complex])
    @pytest.mark.parametrize("table_dtype", [float])
    def test_matches_upcast_product(self, vec_dtype, table_dtype):
        rng = np.random.default_rng(4)
        table = rng.standard_normal((14, 9)).astype(table_dtype)
        vec = rng.standard_normal(14).astype(vec_dtype)
        if vec_dtype is complex:
            vec += 1j * rng.standard_normal(14)
        ref = vec.astype(complex) @ table.astype(complex)
        assert _close(_contract(vec, table), ref)
        # a transposed view reads the same table the other way round
        assert _close(_contract(vec[:9], table.T), vec[:9].astype(complex) @ table.T)


# -- the BLAS contractions against the three-operand einsums they replaced --


def _close(got, ref, rel=1e-12):
    return np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def ref_kernel_matrix(model, xs, ys):
    w = model.quad.weights[None, :] * model.rho
    return np.einsum("cl,cli,clj->ij", w, phi(model, xs), phi(model, ys).conj())


def ref_kernel_pairs(model, x, y):
    w = model.quad.weights[None, :] * model.rho
    return np.einsum("cl,cli,cli->i", w, phi(model, x), phi(model, y).conj())


def ref_evaluate(f, xs):
    synth = f.model.quad.weights[None, :] * f.model.rho
    return np.einsum("cl,cl,clk->k", synth, f.F, phi(f.model, xs))


def ref_liouville_cell(model, lo, hi):
    """A cell integral on its own panel layout: split at +-R, where Phi has a
    kink, then 12-point Gauss-Legendre on panels half as wide as the model's."""
    R = model.profile.R
    wmax = float(np.max(model.quad.nodes))
    panel = np.pi / (8 * wmax * np.sqrt(model.profile.lower))
    gx, gw = np.polynomial.legendre.leggauss(12)
    breaks = np.concatenate(([lo], [e for e in (-R, R) if lo < e < hi], [hi]))
    out = np.zeros((2, len(model.quad)), dtype=complex)
    for a0, b0 in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(a0, b0, int(np.ceil((b0 - a0) / panel)) + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            out += half * np.einsum("clk,k->cl", phi(model, 0.5 * (a + b) + half * gx), gw)
    return out


def ref_transform(model, f, window, n_panels):
    gx, gw = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(*window, n_panels + 1)
    F = np.zeros((2, len(model.quad)), dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        pts = 0.5 * (lo + hi) + half * gx
        fv = np.asarray(f(pts), dtype=complex)
        F += half * np.einsum("clk,k,k->cl", phi(model, pts).conj(), fv, gw)
    return F


@pytest.fixture(scope="module", params=["toy", "schrodinger", "free", "liouville"])
def small_model(request):
    sset = SpectralSet([(0.0, 2.0)])
    if request.param == "toy":
        return ToyModel(1.0, 4.0, sset, x_max=4.0)
    if request.param == "free":
        return free_model(sset, x_max=4.0)
    if request.param == "liouville":
        return LiouvilleModel(blend_profile(1.0, 4.0, R=1.5), sset, x_max=4.0)
    q = lambda x: 1.5 * np.cos(np.pi * np.asarray(x, float) / 2) ** 2 * (np.abs(x) <= 1)
    return SchrodingerModel(q, 1.0, sset, x_max=4.0)


class TestSigma:
    def test_sigma_is_real(self, small_model):
        # the Hermitian per-node density before its real part is taken
        w = small_model.quad.weights[None, :] * small_model.rho
        full = np.einsum("cl,cal,cbl->abl", w, small_model.mix, small_model.mix.conj())
        assert np.max(np.abs(full.imag)) <= 1e-12 * np.max(np.abs(full))
        assert small_model.sigma.dtype == np.float64
        assert np.all(small_model.sigma == full.real)
        sigma_t = small_model.sigma.transpose(1, 0, 2)
        assert np.max(np.abs(small_model.sigma - sigma_t)) <= 1e-15 * np.max(np.abs(full))

    def test_basis_is_real(self, small_model):
        xs = np.linspace(-3.1, 2.9, 23)
        for table in (small_model.basis(xs), small_model.basis_antiderivative(xs)):
            assert table.dtype == np.float64
            assert table.shape == (2, len(small_model.quad), xs.size)


class TestBlasContractions:
    # points on both sides of the jump and inside and outside the support
    xs = np.linspace(-3.1, 2.9, 23)
    ys = np.linspace(-2.4, 3.3, 17)

    def test_kernel_matrix_distinct(self, small_model):
        got = small_model.kernel_matrix(self.xs, self.ys)
        assert got.dtype == np.float64
        assert _close(got, ref_kernel_matrix(small_model, self.xs, self.ys))

    def test_kernel_matrix_same_grid(self, small_model):
        got = small_model.kernel_matrix(self.xs, self.xs)
        assert got.dtype == np.float64
        assert _close(got, ref_kernel_matrix(small_model, self.xs, self.xs))

    def test_kernel_matrix_evaluates_basis_once(self, small_model, monkeypatch):
        calls = []

        def counting_basis(x):
            calls.append(np.size(x))
            return type(small_model).basis(small_model, x)

        monkeypatch.setattr(small_model, "basis", counting_basis)
        small_model.kernel_matrix(self.xs, self.xs)
        small_model.kernel_pairs(self.xs, self.xs)
        assert calls == [self.xs.size, self.xs.size]

    def test_kernel_pairs(self, small_model):
        y = self.ys[: self.xs.size - 6]
        x = self.xs[: y.size]
        got = small_model.kernel_pairs(x, y)
        assert got.dtype == np.float64
        assert _close(got, ref_kernel_pairs(small_model, x, y))
        diag = small_model.kernel_pairs(x, x)
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
        # [-1.7, 2.2] straddles -R and R, [0.6, 1.4] only R; the two long
        # cells span more panels than one block of Phi evaluations holds
        edges = np.array([-260.0, -1.7, -0.4, 0.6, 1.4, 2.2, 250.0])
        table = phi(model, edges, integrated=True)
        pairs = [(1, 5)] + [(i, i + 1) for i in range(edges.size - 1)]
        for i, j in pairs:
            ref = ref_liouville_cell(model, edges[i], edges[j])
            assert _close(table[:, :, j] - table[:, :, i], ref)
