"""Forward solver pinned against the Born and disk-series oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lapdsm.cli import main
from lapdsm.errors import NumericalError, ValidationError
from lapdsm.forward import (
    MIN_CELLS_PER_WAVELENGTH,
    _hankel1,
    _interaction_matrix,
    _self_term,
    contrast_grid,
    far_field,
    solve_scattering,
    synthesize_far_field,
)
from lapdsm.numerics import green_far_prefactor
from lapdsm.presets import preset_scene
from lapdsm.scene import Box, Disk, Rectangle, Scene, full_circle

from reference import born_far_field, disk_far_field_series, hankel1, pairwise_interaction_matrix, total_field

K = 8.0
DOMAIN = Box(-1.0, 1.0, -1.0, 1.0)


def make_scene(scatterers, incidences=((1.0, 0.0),), k=K, receivers=64):
    return Scene(k, DOMAIN, tuple(scatterers), tuple(incidences), full_circle(receivers))


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestContrastGrid:
    def test_resolution_guard(self):
        sc = make_scene([Disk((0, 0), 0.2, 2.0)])
        with pytest.raises(ValidationError):
            contrast_grid(sc, 10)  # far below 10 cells per wavelength

    def test_exactly_the_minimum_resolution_is_accepted(self):
        # k = pi n / 10 on [-1, 1]^2 is 10 cells per wavelength, which rounds to 9.999999999999998 for some n
        for resolution in range(8, 49):
            contrast_grid(make_scene([Disk((0, 0), 0.25, 2.0)], k=np.pi * resolution / 10.0), resolution)

    def test_contrast_values(self):
        sc = make_scene([Disk((0, 0), 0.3, 2.0)])
        g = contrast_grid(sc, 64)
        assert set(np.unique(g.q)) == {0.0, 1.0}
        # the disk covers ~ pi 0.3^2 / 4 of the box
        assert np.mean(g.q != 0) == pytest.approx(np.pi * 0.09 / 4.0, rel=0.05)


class TestSolver:
    def test_no_scatterer_gives_zero_far_field(self):
        sc = make_scene([Disk((0, 0), 0.2, 2.0)])
        g = contrast_grid(sc, 64)
        g = dataclasses.replace(g, q=np.zeros_like(g.q))
        sol = solve_scattering(sc, 0, g)
        np.testing.assert_array_equal(far_field(sol, np.linspace(0, 6, 13), K), 0.0)

    def test_total_field_equals_incident_off_contrast(self):
        sc = make_scene([Disk((0.3, 0.1), 0.15, 2.0)])
        g = contrast_grid(sc, 64)
        sol = solve_scattering(sc, 0, g)
        # far from the scatterer, |u| stays close to |u_inc| = 1
        far_mask = np.hypot(g.points[:, 0] + 0.8, g.points[:, 1] + 0.8) < 0.1
        assert np.all(np.abs(np.abs(total_field(sc, 0, sol)[far_mask]) - 1.0) < 0.5)

    def test_single_cell_current_radiates_green_far_field(self):
        # one contrast cell at y acts as a point source: u_inf = pre * h^2 * I * e^{-ik xhat.y}
        sc = make_scene([Disk((0.25, -0.25), 0.02, 1.5)])
        g = contrast_grid(sc, 80)
        sol = solve_scattering(sc, 0, g)
        angles = np.linspace(0, 2 * np.pi, 17)
        u = far_field(sol, angles, K)
        mask = sol.current != 0
        pts, cur = g.points[mask], sol.current[mask]
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        expect = green_far_prefactor(K) * g.cell_area * np.exp(-1j * K * xhat @ pts.T) @ cur
        np.testing.assert_allclose(u, expect, rtol=1e-12)


    def test_grid_for_another_wavenumber_is_rejected(self):
        g = contrast_grid(make_scene([Disk((0, 0), 0.2, 2.0)], k=4.0), 64)
        with pytest.raises(ValidationError, match="k = 4"):
            solve_scattering(make_scene([Disk((0, 0), 0.2, 2.0)]), 0, g)

    def test_grid_for_other_incidences_is_rejected(self):
        g = contrast_grid(make_scene([Disk((0, 0), 0.2, 2.0)]), 64)
        with pytest.raises(ValidationError, match="incidence directions"):
            solve_scattering(make_scene([Disk((0, 0), 0.2, 2.0)], incidences=((0.0, 1.0),)), 0, g)


_shape = st.one_of(
    st.builds(
        Disk,
        center=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
        radius=st.floats(0.05, 0.35),
        refractive_index=st.floats(1.1, 3.0),
    ),
    st.builds(
        Rectangle,
        center=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
        width=st.floats(0.05, 0.7),
        height=st.floats(0.05, 0.7),
        refractive_index=st.floats(1.1, 3.0),
    ),
)


class TestOperator:
    @settings(max_examples=30, deadline=None)
    @given(
        resolution=st.integers(8, 48),
        k_share=st.floats(0.05, 1.0),
        shapes=st.lists(_shape, min_size=1, max_size=3),
    )
    def test_offset_table_matches_pairwise_kernel(self, resolution, k_share, shapes):
        # k up to pi * resolution / 10 keeps >= 10 cells per wavelength on [-1, 1]^2
        k = k_share * np.pi * resolution / 10.0
        g = contrast_grid(make_scene(shapes, k=k), resolution)
        cells = np.flatnonzero(g.q != 0.0)
        assume(cells.size >= 2)
        table = _interaction_matrix(k, g.h, resolution, cells)
        oracle = pairwise_interaction_matrix(k, g.points[cells], g.h)
        off_diagonal = ~np.eye(cells.size, dtype=bool)
        np.testing.assert_array_equal(np.diag(table), np.diag(oracle))
        assert np.max(np.abs(table - oracle)) <= 1e-14 * np.max(np.abs(oracle[off_diagonal]))

    def test_one_factorization_serves_every_incidence(self, monkeypatch):
        # one LAPACK solve per grid, with every incidence as a right-hand-side column
        scene = preset_scene("ex2_2")
        factored = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: factored.append(b.shape) or solve(a, b))
        data = synthesize_far_field(scene, 120)
        assert len(factored) == 1 and len(scene.incidences) == 3 and factored[0][1] == 3
        angles = scene.aperture.receiver_angles()
        for j in range(3):
            alone = far_field(solve_scattering(scene, j, contrast_grid(scene, 120)), angles, scene.wavenumber)
            assert np.max(np.abs(data.samples[j] - alone)) <= 1e-14 * np.max(np.abs(alone))
        assert len(factored) == 4  # one per fresh grid

    @staticmethod
    def _spoil_second_solve(monkeypatch):
        solve = np.linalg.solve

        def spoiled(a, b):
            x = solve(a, b)
            x[:, 1] *= 1.0 + 1e-6  # the second incidence's column
            return x

        monkeypatch.setattr(np.linalg, "solve", spoiled)

    def test_bad_solve_for_one_incidence_is_numerical_error(self, monkeypatch):
        self._spoil_second_solve(monkeypatch)
        with pytest.raises(NumericalError, match="relative residual"):
            synthesize_far_field(preset_scene("ex2_2"), 40)

    def test_bad_solve_for_one_incidence_exits_3(self, monkeypatch, tmp_path, capsys):
        self._spoil_second_solve(monkeypatch)
        code = main(["simulate", "--preset", "ex2_2", "--forward-grid", "40", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_singular_system_is_numerical_error(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericalError, match="Singular matrix"):
            synthesize_far_field(preset_scene("ex2_2"), 40)


# The offset table's largest argument k h (n - 1) sqrt(2) on an n-cell grid at
# >= MIN_CELLS_PER_WAVELENGTH cells per wavelength (k h <= 2 pi / 10), for n up to 400.
LARGEST_TABLE_ARGUMENT = 2.0 * np.pi / MIN_CELLS_PER_WAVELENGTH * 399 * np.sqrt(2.0)


class TestHankel:
    @settings(max_examples=60, deadline=None)
    @given(
        log_x=st.lists(st.floats(np.log(1e-3), np.log(LARGEST_TABLE_ARGUMENT)), min_size=1, max_size=50),
        order=st.sampled_from([0, 1]),
    )
    def test_matches_scipy_over_the_table_range(self, log_x, order):
        # measured worst case 2.0e-15 on a dense sweep of [1e-3, 355], next to the crossover at 20
        x = np.exp(log_x)
        want = hankel1(order, x)
        assert np.max(np.abs(_hankel1(order, x) - want) / np.abs(want)) <= 4e-15

    def test_both_sides_of_the_crossover(self):
        # a tiny x beside 20 in one call (a small k on a fine grid) starts the series at 60,
        # where its unnormalized J_n would overflow without rescaling
        x = np.array([np.nextafter(20.0, 0.0), 20.0, 1e-3, 1e-6, 1e-12, LARGEST_TABLE_ARGUMENT])
        for order in (0, 1):
            np.testing.assert_allclose(_hankel1(order, x), hankel1(order, x), rtol=4e-15, atol=0)
        assert _hankel1(0, np.ones((2, 3))).shape == (2, 3)

    @settings(max_examples=60, deadline=None)
    @given(ka=st.floats(1e-6, 0.36), k=st.floats(0.5, 60.0))
    def test_self_term_matches_scipy(self, ka, k):
        # ka <= 2 pi / (10 sqrt(pi)) < 0.36 at >= 10 cells per wavelength.  The formula
        # cancels two terms of size 1/k^2, so the error is measured on that scale
        # (worst seen 9e-16), not relative to the small difference
        a = ka / k
        want = (1j * np.pi * a / (2.0 * k)) * hankel1(1, ka) - 1.0 / k**2
        assert abs(_self_term(k, a * np.sqrt(np.pi)) - want) <= 2e-15 / k**2


class TestDiskSeriesOracle:
    def test_series_satisfies_energy_identity(self):
        # optical theorem: Im[sqrt(8 pi k) e^{-i pi/4} u_inf(d)] = k int |u_inf|^2
        angles = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        u = disk_far_field_series(K, 0.15, 2.0, (1.0, 0.0), angles)
        forward_amp = disk_far_field_series(K, 0.15, 2.0, (1.0, 0.0), [0.0])[0]
        lhs = np.imag(np.sqrt(8 * np.pi * K) * np.exp(-1j * np.pi / 4) * forward_amp)
        rhs = K * np.mean(np.abs(u) ** 2) * 2 * np.pi
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_series_rotational_equivariance(self):
        angles = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        rot = np.pi / 3
        d = (np.cos(rot), np.sin(rot))
        u0 = disk_far_field_series(K, 0.15, 2.0, (1.0, 0.0), angles)
        u1 = disk_far_field_series(K, 0.15, 2.0, d, angles + rot)
        np.testing.assert_allclose(u1, u0, atol=1e-12)

    def test_solver_matches_series_centered(self):
        sc = make_scene([Disk((0, 0), 0.15, 2.0)], receivers=128)
        data = synthesize_far_field(sc, 120)
        oracle = disk_far_field_series(K, 0.15, 2.0, (1.0, 0.0), sc.aperture.receiver_angles())
        assert rel_l2(data.samples[0], oracle) < 0.01

    def test_solver_matches_series_off_center(self):
        sc = make_scene([Disk((0.4, -0.3), 0.15, 2.0)], incidences=((0.0, 1.0),), receivers=128)
        data = synthesize_far_field(sc, 120)
        oracle = disk_far_field_series(
            K, 0.15, 2.0, (0.0, 1.0), sc.aperture.receiver_angles(), center=(0.4, -0.3)
        )
        assert rel_l2(data.samples[0], oracle) < 0.01


class TestBornOracle:
    def test_weak_contrast_agreement(self):
        sc = make_scene([Disk((0.1, 0.2), 0.2, 1.01)], receivers=64)
        g = contrast_grid(sc, 96)
        sol = solve_scattering(sc, 0, g)
        angles = sc.aperture.receiver_angles()
        full = far_field(sol, angles, K)
        born = born_far_field(sc, 0, angles, g)
        assert rel_l2(full, born) < 0.02

    def test_born_reciprocity(self):
        # u_inf(xhat; d) = u_inf(-d; -xhat) for the Born approximation
        sc = make_scene(
            [Disk((0.3, -0.2), 0.2, 1.01), Disk((-0.4, 0.1), 0.15, 1.01)],
            incidences=((1.0, 0.0), (np.cos(2.5), np.sin(2.5))),
        )
        g = contrast_grid(sc, 64)
        theta_d0, theta_d1 = 0.0, 2.5
        a = born_far_field(sc, 1, [theta_d0 + np.pi], g)[0]
        b = born_far_field(sc, 0, [theta_d1 + np.pi], g)[0]
        assert a == pytest.approx(b, rel=1e-10)

    def test_scattering_strength_decreases_with_contrast(self):
        angles = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        norms = []
        for n in (2.0, 1.5, 1.1):
            u = disk_far_field_series(K, 0.15, n, (1.0, 0.0), angles)
            norms.append(np.linalg.norm(u))
        assert norms[0] > norms[1] > norms[2]


class TestConvergence:
    def test_grid_refinement_reduces_series_error(self):
        sc = make_scene([Disk((0, 0), 0.15, 2.0)], receivers=64)
        oracle = disk_far_field_series(K, 0.15, 2.0, (1.0, 0.0), sc.aperture.receiver_angles())
        errs = [
            rel_l2(synthesize_far_field(sc, res).samples[0], oracle) for res in (60, 120)
        ]
        assert errs[1] < errs[0]

    def test_multiple_incidences_shape(self):
        sc = make_scene([Disk((0, 0), 0.15, 2.0)], incidences=((1.0, 0.0), (0.0, 1.0)))
        data = synthesize_far_field(sc, 60)
        assert data.samples.shape == (2, 64)
