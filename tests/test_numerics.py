"""Plane waves, Fourier modes, quadrature, and scipy's Bessel/Hankel values pinned against oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapdsm.errors import ValidationError
from lapdsm.numerics import (
    arc_norm,
    arc_quadrature,
    circle_angles,
    circle_modes,
    directions,
    fourier_modes,
    gauss_arc_nodes,
    grid_plane_waves,
    plane_waves,
    reach,
)
from lapdsm.scene import ApertureSet, Arc, Box, SamplingGrid, full_circle
from reference import bessel_j, bessel_j_signed, hankel1


def bessel_series(n, x, terms=60):
    """Power-series oracle: J_n(x) = sum_j (-1)^j (x/2)^{n+2j} / (j! (n+j)!)."""
    import math

    x = np.asarray(x, dtype=np.float64)
    term = (x / 2.0) ** n / math.factorial(n)
    total = term.copy()
    for j in range(1, terms):
        term = term * (-((x / 2.0) ** 2)) / (j * (n + j))
        total += term
    return total


class TestBesselJ:
    def test_matches_power_series(self):
        x = np.linspace(0.0, 20.0, 101)
        for n in (0, 1, 2, 5, 11, 24):
            np.testing.assert_allclose(bessel_j(n, x), bessel_series(n, x), atol=1e-12)

    def test_known_zero_of_j0(self):
        # first zero of J0 by bisection on the series oracle
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_series(0, np.array(mid)) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(bessel_j(0, 0.5 * (lo + hi))) < 1e-12

    def test_at_origin(self):
        assert bessel_j(0, 0.0) == pytest.approx(1.0)
        for n in range(1, 6):
            assert bessel_j(n, 0.0) == 0.0

    def test_three_term_recurrence(self):
        # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
        x = np.linspace(0.5, 30.0, 200)
        for n in (1, 3, 8, 15):
            lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
            np.testing.assert_allclose(lhs, 2.0 * n / x * bessel_j(n, x), atol=1e-11)

    def test_sum_of_squares_is_one(self):
        # J0^2 + 2 sum_{n>=1} Jn^2 = 1
        x = 7.3
        total = bessel_j(0, x) ** 2 + 2.0 * sum(bessel_j(n, x) ** 2 for n in range(1, 40))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_signed_negative_order(self):
        x = np.linspace(0.1, 10.0, 37)
        np.testing.assert_allclose(bessel_j_signed(-3, x), -bessel_j(3, x))
        np.testing.assert_allclose(bessel_j_signed(-4, x), bessel_j(4, x))

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            bessel_j(-1, 1.0)
        with pytest.raises(ValidationError):
            bessel_j(0, -0.5)
        with pytest.raises(ValidationError):
            bessel_j(500, 1.0)


class TestHankel1:
    def test_definition_from_j_and_y(self):
        # H1_0 = J0 + i Y0, with Y0 from the trapezoid integral oracle
        # Y0(x) = (4/pi^2) int_0^1 cos(x cosh(t))... use scipy-free check via
        # the Wronskian instead: J1(x) Y0(x) - J0(x) Y1(x) = 2/(pi x)
        x = np.linspace(0.3, 25.0, 300)
        y0 = np.imag(hankel1(0, x))
        y1 = np.imag(hankel1(1, x))
        wronskian = bessel_j(1, x) * y0 - bessel_j(0, x) * y1
        np.testing.assert_allclose(wronskian, 2.0 / (np.pi * x), atol=1e-12)

    def test_real_part_is_j(self):
        x = np.linspace(0.2, 15.0, 64)
        np.testing.assert_allclose(np.real(hankel1(0, x)), bessel_j(0, x), atol=1e-13)
        np.testing.assert_allclose(np.real(hankel1(1, x)), bessel_j(1, x), atol=1e-13)

    def test_large_argument_asymptotics(self):
        # H1_0(x) ~ sqrt(2/(pi x)) exp(i(x - pi/4))
        x = 800.0
        approx = np.sqrt(2.0 / (np.pi * x)) * np.exp(1j * (x - np.pi / 4.0))
        assert abs(hankel1(0, x) - approx) < 2e-4

    def test_diverges_near_origin(self):
        assert abs(np.imag(hankel1(0, 1e-8))) > 10.0
        with pytest.raises(ValidationError):
            hankel1(0, 0.0)
        with pytest.raises(ValidationError):
            hankel1(2, 1.0)


class TestPlaneWaves:
    def test_matches_exponential(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.0, 1.0, (30, 2))
        angles = np.linspace(-np.pi, np.pi, 17)
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        for k in (1.0, 7.3, 8.0):
            np.testing.assert_allclose(plane_waves(pts, directions(angles), k), np.exp(-1j * k * pts @ xhat.T),
                                       rtol=0, atol=1e-14)

    def test_shapes_follow_points(self):
        xhat = directions(np.linspace(0.0, 1.0, 5))
        assert plane_waves(np.zeros((3, 4, 2)), xhat, 8.0).shape == (3, 4, 5)
        assert plane_waves(np.zeros(2), xhat, 8.0).shape == (5,)
        np.testing.assert_array_equal(plane_waves(np.zeros((3, 2)), xhat, 8.0), 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        q=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        k=st.floats(0.5, 20.0),
    )
    def test_unit_modulus_translation_and_incident_sign(self, p, q, k):
        xhat = directions(np.linspace(-np.pi, np.pi, 13))
        wp, wq = plane_waves(np.array(p), xhat, k), plane_waves(np.array(q), xhat, k)
        np.testing.assert_allclose(np.abs(wp), 1.0, rtol=1e-14)
        np.testing.assert_allclose(plane_waves(np.add(p, q), xhat, k), wp * wq, rtol=0, atol=1e-12)
        # e^{ik d . x}, the incident wave, is the plane wave of direction -d
        np.testing.assert_allclose(plane_waves(np.array(p), -xhat, k), np.conj(wp), rtol=0, atol=1e-15)


class TestGridPlaneWaves:
    @settings(max_examples=40, deadline=None)
    @given(
        resolution=st.integers(1, 24),
        corner=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        size=st.floats(0.1, 4.0),
        directions_count=st.integers(1, 30),
        k=st.floats(0.5, 20.0),
    )
    def test_product_is_plane_waves_of_the_points(self, resolution, corner, size, directions_count, k):
        grid = SamplingGrid(Box(corner[0], corner[0] + size, corner[1], corner[1] + size), resolution)
        xhat = directions(np.linspace(-np.pi, np.pi, directions_count, endpoint=False))
        got = grid_plane_waves(grid, xhat, k, product=True)
        assert got.shape == (resolution**2, directions_count)
        np.testing.assert_allclose(got, plane_waves(grid.points, xhat, k), rtol=0, atol=1e-13)

    def test_factors_are_the_axis_waves(self):
        grid = SamplingGrid(Box(-1.0, 1.0, -0.5, 1.5), 7)
        xhat = directions(np.linspace(0.0, 6.0, 9))
        ex, ey = grid_plane_waves(grid, xhat, 8.0)
        zero = np.zeros(7)
        np.testing.assert_array_equal(ex, plane_waves(np.column_stack([grid.xs, zero]), xhat, 8.0))
        np.testing.assert_array_equal(ey, plane_waves(np.column_stack([zero, grid.ys]), xhat, 8.0))


class TestFourierModes:
    def test_matches_exponential(self):
        angles = np.linspace(-np.pi, np.pi, 23)
        ns = np.arange(-6, 7)
        np.testing.assert_allclose(fourier_modes(6, angles), np.exp(1j * np.outer(ns, angles)), rtol=0, atol=1e-14)

    def test_constant_mode_and_conjugate_symmetry(self):
        modes = fourier_modes(4, np.linspace(0.0, 3.0, 9))
        assert modes.shape == (9, 9)
        np.testing.assert_array_equal(modes[4], 1.0)
        np.testing.assert_allclose(modes[::-1], np.conj(modes), rtol=0, atol=1e-15)


class TestCircleAngles:
    @settings(max_examples=200, deadline=None)
    @given(k=st.floats(0.5, 20.0), r=st.floats(0.0, 3.0), order=st.integers(0, 30))
    def test_aliased_bessel_term_below_1e16(self, k, r, order):
        t = circle_angles(k, r, order).size
        assert bessel_j(t - order, k * r) < 1e-16

    def test_equispaced_from_zero(self):
        t = circle_angles(8.0, 1.5, 20)
        np.testing.assert_allclose(np.diff(t), 2 * np.pi / t.size, rtol=1e-12)
        assert t[0] == 0.0 and t[-1] < 2 * np.pi

    def test_origin_needs_one_angle_beyond_order(self):
        assert circle_angles(8.0, 0.0, 5).size == 6

    def test_modes_are_fourier_modes_at_circle_angles(self):
        t = circle_angles(8.0, 1.5, 20)
        np.testing.assert_allclose(circle_modes(20, t.size), fourier_modes(20, t), rtol=0, atol=1e-13)
        np.testing.assert_array_equal(circle_modes(3, 8)[3], 1.0)  # n = 0

    def test_rejects_unbounded_reach(self):
        with pytest.raises(ValidationError, match="finite"):
            circle_angles(8.0, np.inf)

    def test_reach_is_largest_norm(self):
        assert reach(np.array([[3.0, 4.0], [0.0, -1.0]])) == 5.0
        assert reach(np.array([[[1.0, 0.0]], [[0.0, 2.0]]])) == 2.0
        assert reach(np.zeros((0, 2))) == 0.0


class TestArcQuadrature:
    def test_constant_integrates_to_measure(self):
        ap = ApertureSet((Arc(alpha=np.pi / 3, beta=0.5, receivers=40),))
        val = arc_quadrature(np.ones(40), ap)
        assert val == pytest.approx(ap.measure)

    def test_full_circle_mode_orthogonality(self):
        ap = full_circle(256)
        theta = ap.receiver_angles()
        # int_{S^1} e^{i 3 t} conj(e^{i 5 t}) dt = 0; = 2 pi when modes match
        val = arc_quadrature(np.exp(1j * 3 * theta) * np.conj(np.exp(1j * 5 * theta)), ap)
        assert abs(val) < 1e-12
        same = arc_quadrature(np.exp(1j * 3 * theta) * np.conj(np.exp(1j * 3 * theta)), ap)
        assert same == pytest.approx(2.0 * np.pi)

    def test_against_gauss_reference(self):
        ap = ApertureSet((Arc(alpha=0.9, beta=-1.2, receivers=400),))
        f = lambda t: np.exp(1j * 4.0 * np.sin(t))
        riemann = arc_quadrature(f(ap.receiver_angles()), ap)
        angles, weights = gauss_arc_nodes(ap, 200)
        gauss = np.sum(f(angles) * weights)
        assert abs(riemann - gauss) < 1e-4

    def test_norm_is_nonnegative_and_scales(self):
        ap = ApertureSet((Arc(alpha=1.0, beta=0.0, receivers=64),))
        v = np.exp(1j * np.linspace(0, 1, 64))
        assert arc_norm(v, ap) == pytest.approx(np.sqrt(ap.measure))
        assert arc_norm(3.0 * v, ap) == pytest.approx(3.0 * np.sqrt(ap.measure))

    def test_length_mismatch_rejected(self):
        ap = full_circle(16)
        with pytest.raises(ValidationError):
            arc_quadrature(np.ones(15), ap)
