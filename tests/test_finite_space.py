"""Finite-space probing construction pinned against quadrature oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from dense_probing import dense_finite_space_samples, ffsm_rhs_dense, fssm_rhs_dense
from lapdsm import presets
from lapdsm.dsm import kernel_gamma
from lapdsm.errors import ValidationError
from lapdsm.finite_space import (
    ffsm_matrix,
    ffsm_rhs_field,
    finite_space_probings,
    fssm_matrix,
    fssm_rhs_field,
    probing_from_coefficients,
    reconstruct_finite_space,
    source_lattice,
    tikhonov_solve,
)
from lapdsm.numerics import circle_angles, directions, gauss_arc_nodes, reach
from lapdsm.presets import config1_aperture, config2_aperture
from lapdsm.rng import CounterRng
from lapdsm.scene import ApertureSet, Arc, Box, FarFieldData, SamplingGrid, full_circle
from reference import (
    bessel_j0_kernel,
    ffsm_matrix_entrywise,
    ffsm_rhs,
    ffsm_rhs_bessel,
    fssm_matrix_entrywise,
    fssm_rhs,
    fssm_rhs_bessel,
    green_far_field,
    tikhonov_qr,
)
from strategies import apertures

K = 8.0
DOMAIN = Box(-1.0, 1.0, -1.0, 1.0)


def assert_close_to_largest(got, want, tol=1e-13):
    """Every entry within tol of the largest |entry| of the oracle."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


class TestFfsmMatrix:
    @pytest.mark.parametrize("aperture", [config1_aperture(), config2_aperture()])
    def test_matches_quadrature(self, aperture):
        order = 20
        a = ffsm_matrix(aperture, order)
        angles, weights = gauss_arc_nodes(aperture, 2048)
        ns = np.arange(-order, order + 1)
        for i, n in enumerate(ns):
            for j, m in enumerate(ns):
                val = np.sum(np.exp(1j * (m - n) * angles) * weights) / (2 * np.pi)
                assert abs(a[i, j] - val) < 1e-8

    def test_full_circle_is_identity(self):
        a = ffsm_matrix(full_circle(8), 5)
        np.testing.assert_allclose(a, np.eye(11), atol=1e-12)

    def test_hermitian_and_spectrum(self):
        a = ffsm_matrix(config1_aperture(), 15)
        np.testing.assert_allclose(a, a.conj().T, atol=1e-14)
        evals = np.linalg.eigvalsh(a)  # full circle would give all ones
        assert evals.min() > -1e-12
        assert evals.max() < 1.0 + 1e-12

    def test_arc_additivity(self):
        # the Gram matrix of a union of disjoint arcs is the sum over arcs
        a1 = ApertureSet((Arc(0.4, 0.0, 4),))
        a2 = ApertureSet((Arc(0.3, 2.0, 4),))
        both = ApertureSet((Arc(0.4, 0.0, 4), Arc(0.3, 2.0, 4)))
        np.testing.assert_allclose(
            ffsm_matrix(both, 10), ffsm_matrix(a1, 10) + ffsm_matrix(a2, 10), atol=1e-14
        )


class TestModeTable:
    """Both Gram matrices gather from one table of arc-mode integrals I[d]."""

    @settings(max_examples=60, deadline=None)
    @given(ap=apertures(), order=st.integers(1, 30))
    def test_ffsm_matrix_equals_entrywise_form_bit_for_bit(self, ap, order):
        assert ffsm_matrix(ap, order).tobytes() == ffsm_matrix_entrywise(ap, order).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(ap=apertures(), order=st.integers(1, 30), per_side=st.integers(1, 4), k=st.floats(0.5, 12.0))
    def test_fssm_matrix_equals_entrywise_series(self, ap, order, per_side, k):
        # FFSM in the source basis: conj(B_ffsm(y)) times the Gram block is the Jacobi-Anger series
        sources = source_lattice(DOMAIN, per_side)
        assert_close_to_largest(fssm_matrix(ap, order, sources, k), fssm_matrix_entrywise(ap, order, sources, k))

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ValidationError, match="order must be >= 1"):
            ffsm_matrix(config1_aperture(), order)
        with pytest.raises(ValidationError, match="order must be >= 1"):
            fssm_matrix(config1_aperture(), order, source_lattice(DOMAIN, 3), K)


class TestFfsmRhs:
    def test_matches_full_circle_quadrature(self):
        # B_n(z) = <G_inf(z, .), e^{int}/sqrt(2 pi)>_{S^1}
        order = 12
        circle = full_circle(8)
        angles, weights = gauss_arc_nodes(circle, 4096)
        rng = CounterRng(2024)
        pts = rng.uniform_box(50, -1, 1, -1, 1)
        ns = np.arange(-order, order + 1)
        for z in pts:
            b = ffsm_rhs(z, order, K)
            g = green_far_field(z, angles, K)
            for i, n in enumerate(ns):
                val = np.sum(g * np.exp(-1j * n * angles) * weights) / np.sqrt(2 * np.pi)
                assert abs(b[i] - val) < 1e-9

    def test_value_at_origin(self):
        # at z = 0 only n = 0 survives: B_0 = e^{i pi/4}/(2 sqrt(k)) = (1+i)/8 at k = 8
        b = ffsm_rhs((0.0, 0.0), 4, 8.0)
        np.testing.assert_allclose(b[[0, 1, 2, 3, 5, 6, 7, 8]], 0.0, atol=1e-15)
        assert b[4] == pytest.approx((1 + 1j) / 8)

    def test_field_version_consistent(self):
        pts = np.array([[0.1, 0.2], [-0.5, 0.7]])
        field = ffsm_rhs_dense(pts, 6, K)
        for row, z in zip(field, pts):
            np.testing.assert_allclose(row, ffsm_rhs(z, 6, K), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(1, 30),
        k=st.floats(0.5, 20.0),
        seed=st.integers(0, 2**32 - 1),
        with_origin=st.booleans(),
    )
    def test_field_equals_bessel_form(self, order, k, seed, with_origin):
        # the trapezoid rule over the circle reproduces the J_n closed form
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(50, 2))
        if with_origin:
            pts[7] = 0.0
        assert_close_to_largest(ffsm_rhs_dense(pts, order, k), ffsm_rhs_bessel(pts, order, k))


class TestFactoredRhs:
    @pytest.mark.parametrize("method", ["ffsm", "fssm"])
    def test_factors_are_circle_rule_waves_and_a_small_matrix(self, method):
        # B(z) = P(z) M: P the plane waves at the T directions of circle_angles, M of T rows
        pts = SamplingGrid(DOMAIN, 16).points
        sources = source_lattice(DOMAIN, 4)
        if method == "ffsm":
            (xhat, m), t, cols = ffsm_rhs_field(pts, 6, K), circle_angles(K, reach(pts), 6), 13
        else:
            (xhat, m), t, cols = fssm_rhs_field(pts, sources, K), circle_angles(K, reach(pts) + reach(sources)), 16
        np.testing.assert_array_equal(xhat, directions(t))
        assert m.shape == (t.size, cols)


class TestFssm:
    def test_matrix_matches_quadrature(self):
        # A_nm = (1/sqrt(2 pi)) <e^{imt}, G_inf(y_n, .)>_Gamma
        aperture = config1_aperture()
        order = 20
        sources = source_lattice(DOMAIN, 5)
        a = fssm_matrix(aperture, order, sources, K)
        angles, weights = gauss_arc_nodes(aperture, 2048)
        ms = np.arange(-order, order + 1)
        for i, y in enumerate(sources):
            g = np.conj(green_far_field(y, angles, K))
            for j, m in enumerate(ms):
                val = np.sum(np.exp(1j * m * angles) * g * weights) / np.sqrt(2 * np.pi)
                assert abs(a[i, j] - val) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(per_side=st.integers(1, 8), k=st.floats(0.5, 20.0), seed=st.integers(0, 2**32 - 1))
    def test_rhs_field_equals_bessel_form(self, per_side, k, seed):
        # the trapezoid rule over the circle reproduces J_0(k |z - y|) / (4k)
        sources = source_lattice(DOMAIN, per_side)
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(50, 2))
        assert_close_to_largest(fssm_rhs_dense(pts, sources, k), fssm_rhs_bessel(pts, sources, k))

    def test_rhs_is_translation_kernel(self):
        sources = source_lattice(DOMAIN, 4)
        z = np.array([0.3, -0.6])
        b = fssm_rhs(z, sources, K)
        dist = np.hypot(sources[:, 0] - z[0], sources[:, 1] - z[1])
        np.testing.assert_allclose(b, bessel_j0_kernel(K, dist), rtol=1e-12)

    def test_rhs_matches_kernel_quadrature(self):
        # B_n(z) = <G_inf(z,.), G_inf(y_n,.)>_{S^1} computed by quadrature
        sources = source_lattice(DOMAIN, 3)
        rng = CounterRng(77)
        for z in rng.uniform_box(10, -1, 1, -1, 1):
            b = fssm_rhs(z, sources, K)
            for i, y in enumerate(sources):
                val = kernel_gamma(z, y, full_circle(8), K, quadrature_points=1024)
                assert abs(b[i] - val) < 1e-9


class TestTikhonov:
    def test_sigma_to_infinity_kills_solution(self):
        ap = config1_aperture()
        rhs = ffsm_rhs_dense(np.array([[0.2, 0.3]]), 8, K)
        coeffs = tikhonov_solve(ffsm_matrix(ap, 8), 1e12, rhs)
        assert np.max(np.abs(coeffs)) < 1e-10

    def test_normal_equations_satisfied(self):
        ap = config1_aperture()
        a = ffsm_matrix(ap, 10)
        sigma = 1e-3
        rhs = ffsm_rhs_dense(np.array([[0.4, -0.2]]), 10, K)
        f = tikhonov_solve(a, sigma, rhs)[0]
        lhs = sigma * f + a.conj().T @ (a @ f)
        np.testing.assert_allclose(lhs, a.conj().T @ rhs[0], atol=1e-12)

    def test_linearity_in_rhs(self):
        ap = config2_aperture()
        a = ffsm_matrix(ap, 6)
        r1 = ffsm_rhs_dense(np.array([[0.1, 0.1]]), 6, K)
        r2 = ffsm_rhs_dense(np.array([[-0.3, 0.6]]), 6, K)
        f1 = tikhonov_solve(a, 1e-4, r1)
        f2 = tikhonov_solve(a, 1e-4, r2)
        f12 = tikhonov_solve(a, 1e-4, r1 + r2)
        np.testing.assert_allclose(f12, f1 + f2, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, -1e-4, np.nan, np.inf])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        rhs = ffsm_rhs_dense(np.array([[0.2, 0.3]]), 4, K)
        with pytest.raises(ValidationError, match="finite and positive"):
            tikhonov_solve(ffsm_matrix(config1_aperture(), 4), sigma, rhs)

    def test_tikhonov_minimizes_functional(self):
        # the returned coefficients beat random perturbations on the Tikhonov functional
        ap = config1_aperture()
        a = ffsm_matrix(ap, 8)
        sigma = 1e-2
        rhs = ffsm_rhs_dense(np.array([[0.25, -0.55]]), 8, K)
        f = tikhonov_solve(a, sigma, rhs)[0]

        def functional(v):
            return np.linalg.norm(a @ v - rhs[0]) ** 2 + sigma * np.linalg.norm(v) ** 2

        base = functional(f)
        rng = CounterRng(31)
        for _ in range(20):
            pert = (rng.normals(17) + 1j * rng.normals(17)) * 1e-3
            assert functional(f + pert) > base


    @pytest.mark.parametrize("method", ["ffsm", "fssm"])
    def test_svd_is_closer_to_qr_oracle_than_normal_equations(self, method):
        # config I at sigma = 1e-8, where A* A squares cond(A) (~1e18 for FFSM);
        # measured distances to the QR solve: ffsm 3.9e-11 (SVD) vs 8.5e-9 (Cholesky),
        # fssm 5.4e-12 vs 2.6e-9
        ap, order, sigma, k = config1_aperture(), 20, 1e-8, presets.WAVENUMBER
        points = SamplingGrid(presets.DOMAIN, 64).points
        if method == "ffsm":
            a, rhs = ffsm_matrix(ap, order), ffsm_rhs_dense(points, order, k)
        else:
            sources = source_lattice(presets.DOMAIN, 20)
            a, rhs = fssm_matrix(ap, order, sources, k), fssm_rhs_dense(points, sources, k)
        oracle = tikhonov_qr(a, sigma, rhs)
        normal = sigma * np.eye(a.shape[1]) + a.conj().T @ a
        cholesky = linalg.cho_solve(linalg.cho_factor(normal), a.conj().T @ rhs.T).T

        def distance(f):
            return np.linalg.norm(f - oracle) / np.linalg.norm(oracle)

        assert distance(tikhonov_solve(a, sigma, rhs)) < 0.1 * distance(cholesky)


class TestProbingConstruction:
    def test_probing_evaluates_fourier_sum(self):
        ap = config1_aperture(receivers=10)
        c = np.zeros((1, 13), dtype=complex)
        c[0, 6] = np.sqrt(2 * np.pi)  # n = 0 mode only
        probe = probing_from_coefficients(c, ap, np.ones((1, 1)))  # f(z) = c: one direction of unit weight
        np.testing.assert_allclose(probe.samples, 1.0, rtol=1e-12)

    def test_full_circle_ffsm_recovers_green(self):
        # on S^1 the system is well posed: the probing function converges to G_inf
        ap = full_circle(128)
        grid = SamplingGrid(DOMAIN, 8)
        (probe,) = finite_space_probings("ffsm", ap, grid, 24, [1e-12], K)
        angles = ap.receiver_angles()
        for i in (0, 17, 63):
            expect = green_far_field(grid.points[i], angles, K)
            rel = np.linalg.norm(probe.samples[i] - expect) / np.linalg.norm(expect)
            assert rel < 0.01

    @settings(max_examples=30, deadline=None)
    @given(
        method=st.sampled_from(["ffsm", "fssm"]),
        sigma_exp=st.floats(2.0, 8.0),
        resolution=st.integers(4, 24),
        aperture=st.sampled_from([config1_aperture(), config2_aperture()]),
    )
    def test_factored_probe_equals_dense_pipeline(self, method, sigma_exp, resolution, aperture):
        # P(z) (K_sigma basis) against B(z) on every grid point, tikhonov_solve, coefficients @ basis
        k, order, sigma = presets.WAVENUMBER, 20, 10.0**-sigma_exp
        grid = SamplingGrid(presets.DOMAIN, resolution)
        sources = source_lattice(presets.DOMAIN, 20) if method == "fssm" else None
        (probe,) = finite_space_probings(method, aperture, grid, order, [sigma], k, sources)
        dense = dense_finite_space_samples(method, aperture, grid, order, sigma, k, sources)
        assert_close_to_largest(probe.samples, dense, tol=1e-12)

    def test_fssm_probe_builds_no_grid_sized_right_hand_side(self):
        # at grid 128 the dense B(z) alone (16,384 x 400 complex) is 4.4 probing sets
        grid = SamplingGrid(presets.DOMAIN, 128)
        sources = source_lattice(presets.DOMAIN, 20)
        tracemalloc.start()
        try:
            (probe,) = finite_space_probings("fssm", config1_aperture(), grid, 20, [1e-4], presets.WAVENUMBER, sources)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * probe.samples.nbytes

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            next(finite_space_probings("mussel", config1_aperture(), SamplingGrid(DOMAIN, 4), 4, [1e-4], K))

    def test_fssm_requires_sources(self):
        with pytest.raises(ValidationError):
            next(finite_space_probings("fssm", config1_aperture(), SamplingGrid(DOMAIN, 4), 4, [1e-4], K))

    @pytest.mark.parametrize("method", ["ffsm", "fssm"])
    def test_sigma_sweep_equals_single_sigma_runs(self, method):
        ap = config2_aperture()
        grid = SamplingGrid(DOMAIN, 6)
        sources = source_lattice(DOMAIN, 5) if method == "fssm" else None
        sigmas = [1e-2, 1e-6, 1e-4]
        sweep = list(finite_space_probings(method, ap, grid, 10, sigmas, K, sources))
        assert len(sweep) == len(sigmas)
        for sigma, probe in zip(sigmas, sweep):
            (single,) = finite_space_probings(method, ap, grid, 10, [sigma], K, sources)
            np.testing.assert_array_equal(probe.samples, single.samples)
        u = np.exp(1j * np.linspace(0.0, 5.0, ap.total_receivers))
        data = FarFieldData(np.stack([u, u**2]), ap)
        fields = reconstruct_finite_space(data, method, 10, sigmas, grid, K, sources)
        for sigma, field in zip(sigmas, fields):
            (single,) = reconstruct_finite_space(data, method, 10, [sigma], grid, K, sources)
            np.testing.assert_array_equal(field.values, single.values)
