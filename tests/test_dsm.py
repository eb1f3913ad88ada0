"""Direct sampling index, aperture kernel, and diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_probing import green_probing_set
from lapdsm.dsm import (
    BandedProbe,
    IndexField,
    ProbingSet,
    averaged_index,
    green_norm_on_aperture,
    index_classical,
    kernel_gamma,
    relative_norm,
)
from lapdsm.errors import ValidationError
from lapdsm.numerics import arc_norm
from lapdsm.presets import config1_aperture, config2_aperture
from lapdsm.rng import CounterRng
from lapdsm.scene import ApertureSet, Arc, Box, FarFieldData, SamplingGrid, full_circle
from reference import bessel_j, bessel_j0_kernel, dominant_peaks, green_far_field, kernel_gamma_gauss
from strategies import apertures

K = 8.0
DOMAIN = Box(-1.0, 1.0, -1.0, 1.0)


class TestGreenFarField:
    def test_amplitude_and_phase(self):
        v = green_far_field((0.0, 0.0), 0.0, K)
        assert v == pytest.approx(np.exp(1j * np.pi / 4) / np.sqrt(8 * K * np.pi))

    def test_translation_phase(self):
        z = np.array([0.3, -0.5])
        theta = 1.1
        xhat = np.array([np.cos(theta), np.sin(theta)])
        v = green_far_field(z, theta, K)
        v0 = green_far_field((0.0, 0.0), theta, K)
        assert v == pytest.approx(v0 * np.exp(-1j * K * xhat @ z))

    def test_probing_set_matches_pointwise(self):
        ap = config1_aperture(receivers=16)
        grid = SamplingGrid(DOMAIN, 4)
        probing = green_probing_set(grid, ap, K)
        angles = ap.receiver_angles()
        for i in (0, 7, 15):
            np.testing.assert_allclose(
                probing.samples[i], green_far_field(grid.points[i], angles, K), rtol=1e-13
            )


class TestKernel:
    def test_full_circle_reduces_to_bessel(self):
        ap = full_circle(8)
        rng = CounterRng(100)
        pts = rng.uniform_box(100, -1, 1, -1, 1)
        pts2 = rng.uniform_box(100, -1, 1, -1, 1)
        for z, y in zip(pts, pts2):
            expect = bessel_j0_kernel(K, np.hypot(*(z - y)))
            assert abs(kernel_gamma(z, y, ap, K) - expect) < 1e-10

    def test_coincident_limit_is_measure_over_8kpi_times_2(self):
        # |K(z, z)| = |Gamma| / (8 k pi) = alpha / (4 k pi) for one arc of half-width alpha
        for alpha in (np.pi / 8, np.pi / 3, 2 * np.pi / 5):
            ap = ApertureSet((Arc(alpha=alpha, beta=0.7, receivers=8),))
            v = kernel_gamma((0.2, -0.1), (0.2, -0.1), ap, K)
            assert abs(abs(v) - alpha / (4 * K * np.pi)) < 1e-8
        ap = ApertureSet((Arc(alpha=np.pi / 3, beta=0.0, receivers=8),))
        assert abs(kernel_gamma((0, 0), (0, 0), ap, K)) == pytest.approx(1.0 / 96.0, abs=1e-10)

    def test_decay_bound_along_arbitrary_directions(self):
        # |K(z, y)| <= 5 k^{-3/2} R^{-1/2} for the stationary-phase regime
        ap = ApertureSet((Arc(alpha=np.pi / 3, beta=0.0, receivers=8),))
        for beta in (0.0, np.pi / 4, np.pi / 2, 2.1):
            for radius in (0.5, 1.0, 2.0):
                y = radius * np.array([np.cos(beta), np.sin(beta)])
                v = abs(kernel_gamma((0.0, 0.0), y, ap, K))
                assert v <= 5.0 * K ** (-1.5) * radius ** (-0.5)

    @pytest.mark.parametrize("k", [8.0, 200.0])
    def test_bands_of_points_equal_the_whole_product_bit_for_bit(self, monkeypatch, k):
        # 603 points as in the kernel command, in one block and in near-equal blocks within 16 or 40 rows:
        # 38 of 15 or 16 and 16 of 37 or 38 (a block of one 2-D row rounds as the whole product too; a 1-D
        # row, a dot product, need not)
        from lapdsm import numerics

        ap = ApertureSet((Arc(alpha=np.pi / 3, beta=0.0, receivers=8),))
        r = np.linspace(0.0, 2.0, 201)
        y = np.concatenate([r[:, None] * [np.cos(b), np.sin(b)] for b in (0.0, 0.7853981633974483, 1.5707963267948966)])
        row_bytes = 24 * 8 * numerics.circle_angles(k, 2.0).size
        monkeypatch.setattr(numerics, "BLOCK_BYTES", len(y) * row_bytes)
        whole = kernel_gamma((0.0, 0.0), y, ap, k)
        for rows, count in ((16, 38), (40, 16)):
            monkeypatch.setattr(numerics, "BLOCK_BYTES", rows * row_bytes)
            assert len(numerics.blocks(len(y), row_bytes)) == count
            np.testing.assert_array_equal(kernel_gamma((0.0, 0.0), y, ap, k), whole)

    def test_maximum_at_coincidence(self):
        ap = ApertureSet((Arc(alpha=np.pi / 3, beta=0.0, receivers=8),))
        peak = abs(kernel_gamma((0, 0), (0, 0), ap, K))
        for radius in np.linspace(0.05, 2.0, 30):
            for beta in (0.0, 0.8, 2.0):
                y = radius * np.array([np.cos(beta), np.sin(beta)])
                assert abs(kernel_gamma((0, 0), y, ap, K)) < peak

    @settings(max_examples=30, deadline=None)
    @given(ap=apertures(), seed=st.integers(0, 2**32 - 1), shape=st.lists(st.integers(1, 5), min_size=0, max_size=2))
    def test_array_of_points_matches_one_point_at_a_time(self, ap, seed, shape):
        # the kernel command evaluates every (radius, direction) point in one call
        rng = np.random.default_rng(seed)
        z, ys = rng.uniform(-1, 1, 2), rng.uniform(-2, 2, (*shape, 2))
        got = kernel_gamma(z, ys, ap, K)
        assert got.shape == tuple(shape)
        want = np.array([kernel_gamma(z, y, ap, K) for y in ys.reshape(-1, 2)]).reshape(shape)
        peak = ap.measure / (8.0 * K * np.pi)  # |K(z, z)|, which bounds every value
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * peak)

    @settings(max_examples=60, deadline=None)
    @given(ap=apertures(), k=st.floats(0.5, 30.0), seed=st.integers(0, 2**32 - 1))
    def test_closed_form_matches_gauss_quadrature(self, ap, k, seed):
        # z - y within reach 2; the worst case measured over 16,000 such draws was 6.3e-15 of the peak,
        # at k near 23 on one arc of half-width 0.23, and the bound is 4 times that
        rng = np.random.default_rng(seed)
        z = rng.uniform(-1, 1, 2)
        radius, angle = 2.0 * np.sqrt(rng.uniform(0, 1, 20)), rng.uniform(0, 2 * np.pi, 20)
        ys = z - radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        peak = ap.measure / (8.0 * k * np.pi)  # |K(z, z)|, which bounds every value
        np.testing.assert_allclose(
            kernel_gamma(z, ys, ap, k), kernel_gamma_gauss(z, ys, ap, k, 1024), rtol=0.0, atol=2.5e-14 * peak
        )

    def test_hermitian_symmetry(self):
        ap = config2_aperture()
        v = kernel_gamma((0.1, 0.2), (-0.4, 0.5), ap, K)
        w = kernel_gamma((-0.4, 0.5), (0.1, 0.2), ap, K)
        assert v == pytest.approx(np.conj(w), abs=1e-14)


class TestIndexClassical:
    @settings(max_examples=60, deadline=None)
    @given(
        ap=apertures(),
        resolution=st.integers(1, 24),
        k=st.floats(0.5, 20.0),
        seed=st.integers(0, 2**32 - 1),
        incidences=st.integers(1, 3),
    )
    def test_separable_pairing_matches_dense_probing_set(self, ap, resolution, k, seed, incidences):
        rng = np.random.default_rng(seed)
        q = ap.total_receivers
        data = FarFieldData(rng.normal(size=(incidences, q)) + 1j * rng.normal(size=(incidences, q)), ap)
        grid = SamplingGrid(Box(-1.0, 1.5, -0.5, 1.0), resolution)
        probing = green_probing_set(grid, ap, k)
        indices = index_classical(data, None, grid, k=k)
        for j in range(incidences):
            got = indices[j]
            dense = np.abs(probing.samples @ (np.conj(data.samples[j]) * ap.quadrature_weights()))
            assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(dense)

    def test_point_source_data_peaks_at_source(self):
        # far-field of a point source at y0 restricted to the aperture
        ap = config1_aperture()
        angles = ap.receiver_angles()
        y0 = np.array([0.3, -0.4])
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        data = FarFieldData(np.exp(-1j * K * xhat @ y0)[None, :], ap)
        grid = SamplingGrid(DOMAIN, 64)
        values = index_classical(data, None, grid, k=K)[0]
        best = grid.points[np.argmax(values)]
        assert np.hypot(*(best - y0)) < 0.1

    def test_full_circle_index_is_bessel_kernel(self):
        # with u_inf = G_inf(y0, .), the index is |K_{S^1}(z, y0)| = |J0(k|z-y0|)|/(4k)
        ap = full_circle(512)
        angles = ap.receiver_angles()
        y0 = np.array([-0.2, 0.1])
        pre = np.exp(1j * np.pi / 4) / np.sqrt(8 * K * np.pi)
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        data = FarFieldData(pre * np.exp(-1j * K * xhat @ y0)[None, :], ap)
        grid = SamplingGrid(DOMAIN, 32)
        values = index_classical(data, None, grid, k=K)[0]
        dist = np.hypot(grid.points[:, 0] - y0[0], grid.points[:, 1] - y0[1])
        expect = np.abs(bessel_j(0, K * dist)) / (4 * K)
        np.testing.assert_allclose(values, expect, atol=1e-6)

    def test_phase_invariance(self):
        ap = config1_aperture()
        u = np.exp(1j * np.linspace(0, 3, 100))
        grid = SamplingGrid(DOMAIN, 16)
        a = index_classical(FarFieldData(u[None, :], ap), None, grid, k=K)[0]
        b = index_classical(FarFieldData((1j * u)[None, :], ap), None, grid, k=K)[0]
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_stability_bound_is_cauchy_schwarz(self):
        # |I(z) - I_delta(z)| <= ||G_inf(z,.)||_Gamma * ||u - u_delta||_Gamma pointwise
        ap = full_circle(128)
        grid = SamplingGrid(DOMAIN, 24)
        rng = CounterRng(55)
        u = rng.normals(128) + 1j * rng.normals(128)
        pert = u + 0.1 * (rng.normals(128) + 1j * rng.normals(128))
        fa = index_classical(FarFieldData(u[None, :], ap), None, grid, k=K)[0]
        fb = index_classical(FarFieldData(pert[None, :], ap), None, grid, k=K)[0]
        bound = green_norm_on_aperture(ap, K) * arc_norm(u - pert, ap)
        assert np.max(np.abs(fa - fb)) <= bound + 1e-13

    def test_probing_on_another_aperture_is_rejected(self):
        grid = SamplingGrid(DOMAIN, 4)
        data = FarFieldData(np.ones((1, 90), dtype=complex), config2_aperture())
        samples = np.ones((16, 90), dtype=complex)
        with pytest.raises(ValidationError, match="disagree on receiver angles"):
            index_classical(data, ProbingSet(samples, config1_aperture(receivers=90)), grid)
        same = index_classical(data, ProbingSet(samples, config2_aperture()), grid)[0]
        np.testing.assert_allclose(same, 3 * np.pi / 4)  # the measure of config II

    @settings(max_examples=40, deadline=None)
    @given(
        config=st.sampled_from([config1_aperture, config2_aperture]),  # Q = 100 and 90
        resolution=st.integers(1, 20) | st.sampled_from([128, 130]),
        seed=st.integers(0, 2**32 - 1),
        incidences=st.integers(1, 3),
    )
    def test_band_pairing_is_the_whole_grid_product(self, config, resolution, seed, incidences):
        # a ProbingSet and a BandedProbe of the same samples pair, band by band, to the bits of one whole-grid
        # gemv per incidence, and norm to the same bits
        ap, grid = config(), SamplingGrid(DOMAIN, resolution)
        rng = np.random.default_rng(seed)
        q = ap.total_receivers
        draw = rng.normal(size=(2, resolution**2 + incidences, q))
        samples, u = np.split(draw[0] + 1j * draw[1], [resolution**2])
        data = FarFieldData(u, ap)
        whole = ProbingSet(samples, ap)
        banded = BandedProbe(lambda rows: samples[rows].copy(), ap)
        want = np.array([np.abs(samples @ v) for v in np.conj(u) * ap.quadrature_weights()])
        np.testing.assert_array_equal(index_classical(data, whole, grid), want)
        np.testing.assert_array_equal(index_classical(data, banded, grid), want)
        np.testing.assert_array_equal(relative_norm(banded, K, grid).values, relative_norm(whole, K, grid).values)

    def test_green_norm_value(self):
        assert green_norm_on_aperture(full_circle(8), K) == pytest.approx(1.0 / (2 * np.sqrt(K)))
        ap = config1_aperture()
        assert green_norm_on_aperture(ap, K) == pytest.approx(np.sqrt(ap.measure / (8 * K * np.pi)))


class TestRelativeNorm:
    def test_classical_probe_has_unit_relative_norm(self):
        ap = config1_aperture()
        grid = SamplingGrid(DOMAIN, 8)
        field = relative_norm(green_probing_set(grid, ap, K), K, grid)
        np.testing.assert_allclose(field.values, 1.0, rtol=1e-12)

    @staticmethod
    def _probe(resolution, ap):
        draw = np.random.default_rng(resolution).normal(size=(2, resolution**2, ap.total_receivers))
        return ProbingSet(draw[0] + 1j * draw[1], ap)

    @pytest.mark.parametrize("resolution", [8, 64, 128, 130])
    def test_band_norms_match_the_whole_probe(self, resolution):
        # bit for bit at the grids of the CLI default and the benchmark; elsewhere BLAS may split the
        # whole probe's gemv at other rows than the bands', which moves a few norms by an ulp
        ap, grid = config1_aperture(), SamplingGrid(DOMAIN, resolution)
        probe = self._probe(resolution, ap)
        got = relative_norm(probe, K, grid).values
        want = arc_norm(probe.samples, ap) / green_norm_on_aperture(ap, K)
        if resolution in (64, 128):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(got, want, rtol=4.5e-16, atol=0)

    def test_no_float_copy_of_the_probe(self):
        # measured peaks of a 128^2 x 100 probe's norms, in probe bytes: 0.51 with |probe|^2 taken whole, 0.07 by bands
        ap, grid = config1_aperture(), SamplingGrid(DOMAIN, 128)
        probe = self._probe(128, ap)
        tracemalloc.start()
        try:
            relative_norm(probe, K, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * probe.samples.nbytes


class TestAverageAndPeaks:
    def test_average_and_normalize(self):
        # two incidences: the pointwise mean of their indices, divided by its maximum, bit for bit
        ap = config1_aperture(receivers=20)
        grid = SamplingGrid(DOMAIN, 4)
        rng = np.random.default_rng(0)
        data = FarFieldData(rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20)), ap)
        first, second = index_classical(data, None, grid, K)
        mean = (first + second) / 2
        out = averaged_index(data, None, grid, K)
        np.testing.assert_array_equal(out.values, mean / mean.max())

    def test_all_zero_rejected(self):
        ap = config1_aperture(receivers=20)
        grid = SamplingGrid(DOMAIN, 4)
        with pytest.raises(ValidationError, match="all-zero"):
            averaged_index(FarFieldData(np.zeros((1, 20)), ap), None, grid, K)

    def test_dominant_peaks_finds_separated_bumps(self):
        grid = SamplingGrid(DOMAIN, 64)
        pts = grid.points
        centers = [(-0.6, 0.0), (0.5, 0.4)]
        v = np.zeros(len(pts))
        for cx, cy in centers:
            v += np.exp(-40 * ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2))
        peaks = dominant_peaks(IndexField(grid, v / v.max()), min_separation=0.3, threshold=0.5)
        assert len(peaks) == 2
        found = sorted((round(p[0], 1), round(p[1], 1)) for p in peaks)
        assert found == sorted(centers)

    def test_close_bumps_suppressed(self):
        grid = SamplingGrid(DOMAIN, 64)
        pts = grid.points
        v = np.zeros(len(pts))
        for cx, cy in [(-0.05, 0.0), (0.05, 0.0)]:
            v += np.exp(-200 * ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2))
        peaks = dominant_peaks(IndexField(grid, v / v.max()), min_separation=0.3, threshold=0.5)
        assert len(peaks) == 1
