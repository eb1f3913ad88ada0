"""Forward solver pinned against the Born and disk-series oracles."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lapdsm import forward
from lapdsm.cli import main
from lapdsm.errors import NumericalError, ValidationError
from lapdsm.forward import (
    MIN_CELLS_PER_WAVELENGTH,
    MIN_SELF_TERM_ARGUMENT,
    _hankel1,
    _offset_table,
    _self_term,
    contrast_grid,
    far_field,
    solve_currents,
    synthesize_far_field,
)
from lapdsm.numerics import green_far_prefactor
from lapdsm.presets import PRESET_NAMES, preset_scene
from lapdsm.scene import Box, Disk, Rectangle, Ring, SamplingGrid, Scene, full_circle, refractive_index_grid

from reference import (
    born_far_field,
    box_points,
    dense_currents,
    dense_far_field,
    disk_far_field_series,
    hankel1,
    interaction_matrix,
    pairwise_interaction_matrix,
    system_matrix,
    total_field,
)
from strategies import apertures, shapes

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
        # the disk covers ~ pi 0.3^2 / 4 of the domain's 64^2 cells
        assert np.count_nonzero(g.q) == pytest.approx(np.pi * 0.09 / 4.0 * 64**2, rel=0.05)

    @pytest.mark.parametrize("centers", [[(0.0, 0.0)], [(-0.6, 0.5), (0.45, -0.7)], [(0.8, 0.8)]])
    def test_box_is_the_contrast_span_of_the_whole_lattice(self, centers):
        sc = make_scene([Disk(c, 0.15, 2.0) for c in centers])
        lattice = SamplingGrid(DOMAIN, 50)
        whole = refractive_index_grid(sc, lattice.points).reshape(50, 50) - 1.0
        g = contrast_grid(sc, 50)
        rows, cols = np.flatnonzero(whole.any(axis=1)), np.flatnonzero(whole.any(axis=0))
        box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        np.testing.assert_array_equal(g.q, whole[box])
        np.testing.assert_array_equal(g.xs, lattice.xs[box[1]])
        np.testing.assert_array_equal(g.ys, lattice.ys[box[0]])
        assert np.count_nonzero(g.q) == np.count_nonzero(whole)
        # the box owns no lattice array: it is a copy of the span alone
        assert g.q.base is None and g.q.flags.c_contiguous

    @settings(max_examples=40, deadline=None)
    @given(
        resolution=st.integers(8, 80),
        scatterers=st.lists(
            st.one_of(
                shapes(),
                st.builds(
                    lambda c, r, width, n: Ring(c, r, r + width, n),
                    st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
                    st.floats(0.05, 0.3),
                    st.floats(0.02, 0.15),
                    st.floats(1.1, 3.0),
                ),
            ),
            max_size=3,
        ),
    )
    def test_box_is_the_whole_lattice_crop_bit_for_bit(self, resolution, scatterers):
        # the index is evaluated near the scatterers' bounding boxes only, and the box keeps every bit
        sc = make_scene(scatterers, k=np.pi * resolution / 10.0)
        lattice = SamplingGrid(DOMAIN, resolution)
        whole = refractive_index_grid(sc, lattice.points).reshape(resolution, resolution) - 1.0
        rows, cols = np.flatnonzero(whole.any(axis=1)), np.flatnonzero(whole.any(axis=0))
        box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)) if rows.size else (slice(0, 0),) * 2
        g = contrast_grid(sc, resolution)
        np.testing.assert_array_equal(g.q, whole[box])
        np.testing.assert_array_equal(g.xs, lattice.xs[box[1]])
        np.testing.assert_array_equal(g.ys, lattice.ys[box[0]])

    @pytest.mark.parametrize("centre, line", [(-0.23, 22), (0.02, 17)])
    def test_contrast_on_a_rounded_bounding_box_edge_is_kept(self, centre, line):
        # a disk through the lattice centre xs[line] of its own row: contains() holds there with equality,
        # but the edge centre +- radius of its bounding box rounds to the near side of that centre
        xs = SamplingGrid(DOMAIN, 40).xs
        disk = Disk((centre, xs[20]), abs(xs[line] - centre), 2.0)
        x0, x1, _, _ = disk.bounding_box()
        assert x1 < xs[line] if xs[line] > centre else x0 > xs[line]
        sc = make_scene([disk])
        whole = refractive_index_grid(sc, SamplingGrid(DOMAIN, 40).points) - 1.0
        assert np.count_nonzero(contrast_grid(sc, 40).q) == np.count_nonzero(whole)

    def test_small_scatterer_is_evaluated_on_its_box_alone(self):
        # one disk of radius 0.15 on the 1,200-cell lattice: tracemalloc peaked at 65.9 MiB with the
        # index evaluated on all 1,440,000 cells, and at 2.0 MiB on the lattice lines near its box
        sc = make_scene([Disk((0.0, 0.0), 0.15, 2.0)])
        tracemalloc.start()
        try:
            contrast_grid(sc, 1200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 16 * 1200**2

    def test_scene_without_contrast_is_an_empty_box(self):
        # a disk that holds no cell centre of the 40-cell grid (centres at odd multiples of 0.025)
        g = contrast_grid(make_scene([Disk((0.01, 0.01), 0.001, 2.0)]), 40)
        assert g.q.shape == (0, 0) and g.xs.shape == g.ys.shape == (0,)
        assert solve_currents(g).shape == (1, 0, 0)
        np.testing.assert_array_equal(far_field(g, solve_currents(g), np.linspace(0, 6, 5)), 0.0)

    def test_smallest_self_term_argument_is_accepted(self):
        # k h / sqrt(pi) just above the floor on a 20-cell grid solves as any other scene
        k = 1.0000001 * MIN_SELF_TERM_ARGUMENT * np.sqrt(np.pi) / 0.1
        data = synthesize_far_field(make_scene([Disk((0, 0), 0.3, 2.0)], k=k), 20)
        assert np.isfinite(data.samples).all()


class TestSolver:
    def test_no_scatterer_gives_zero_far_field(self):
        sc = make_scene([Disk((0, 0), 0.2, 2.0)])
        g = contrast_grid(sc, 64)
        g = dataclasses.replace(g, q=np.zeros_like(g.q))
        np.testing.assert_array_equal(far_field(g, solve_currents(g), np.linspace(0, 6, 13)), 0.0)

    def test_total_field_equals_incident_off_contrast(self):
        # two disks span a box whose corner (-0.5, 0.5) lies 0.85 from either disk
        sc = make_scene([Disk((0.5, 0.5), 0.15, 2.0), Disk((-0.5, -0.5), 0.15, 2.0)])
        g = contrast_grid(sc, 64)
        pts = box_points(g)
        # far from the scatterers, |u| stays close to |u_inc| = 1
        far_mask = np.hypot(pts[:, 0] + 0.5, pts[:, 1] - 0.5) < 0.1
        assert np.count_nonzero(far_mask) > 20
        assert np.all(np.abs(np.abs(total_field(g, 0)[far_mask]) - 1.0) < 0.5)

    def test_single_cell_current_radiates_green_far_field(self):
        # one contrast cell at y acts as a point source: u_inf = pre * h^2 * I * e^{-ik xhat.y}
        sc = make_scene([Disk((0.25, -0.25), 0.02, 1.5)])
        g = contrast_grid(sc, 80)
        angles = np.linspace(0, 2 * np.pi, 17)
        currents = solve_currents(g)
        u = far_field(g, currents, angles)[0]
        mask = currents[0] != 0
        pts, cur = box_points(g)[mask.ravel()], currents[0, mask]
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        expect = green_far_prefactor(K) * g.cell_area * np.exp(-1j * K * xhat @ pts.T) @ cur
        np.testing.assert_allclose(u, expect, rtol=1e-12)


class TestRadiation:
    @settings(max_examples=40, deadline=None)
    @given(
        resolution=st.integers(8, 64),
        k_share=st.floats(0.05, 1.0),
        shapes=st.lists(shapes(), min_size=1, max_size=3),
        aperture=apertures(),
        incidences=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_separable_far_field_matches_dense_radiation(self, resolution, k_share, shapes, aperture, incidences, seed):
        # any currents on the contrast cells: the radiation is linear in them
        k = k_share * np.pi * resolution / 10.0
        g = contrast_grid(Scene(k, DOMAIN, tuple(shapes), ((1.0, 0.0),), aperture), resolution)
        draw = np.random.default_rng(seed).normal(size=(2, incidences, *g.q.shape))
        currents = (draw[0] + 1j * draw[1]) * (g.q != 0.0)
        angles = aperture.receiver_angles()
        oracle = dense_far_field(g, currents, angles)
        got = far_field(g, currents, angles)
        assert got.shape == oracle.shape == (incidences, angles.size)
        assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    def test_presets_match_dense_radiation(self):
        for name in PRESET_NAMES:
            scene = preset_scene(name)
            g = contrast_grid(scene, 120)
            angles = scene.aperture.receiver_angles()
            currents = solve_currents(g)
            oracle = dense_far_field(g, currents, angles)
            assert np.max(np.abs(far_field(g, currents, angles) - oracle)) <= 1e-14 * np.max(np.abs(oracle))


class TestOperator:
    @settings(max_examples=30, deadline=None)
    @given(
        resolution=st.integers(8, 48),
        k_share=st.floats(0.05, 1.0),
        shapes=st.lists(shapes(), min_size=1, max_size=3),
    )
    def test_offset_table_matches_pairwise_kernel(self, resolution, k_share, shapes):
        # k up to pi * resolution / 10 keeps >= 10 cells per wavelength on [-1, 1]^2
        k = k_share * np.pi * resolution / 10.0
        g = contrast_grid(make_scene(shapes, k=k), resolution)
        cells = np.flatnonzero(g.q != 0.0)
        assume(cells.size >= 2)
        table = interaction_matrix(k, g.h, g.q.shape[1], cells)
        oracle = pairwise_interaction_matrix(k, box_points(g)[cells], g.h)
        off_diagonal = ~np.eye(cells.size, dtype=bool)
        np.testing.assert_array_equal(np.diag(table), np.diag(oracle))
        assert np.max(np.abs(table - oracle)) <= 1e-14 * np.max(np.abs(oracle[off_diagonal]))

    def test_banded_gather_equals_the_whole_grid_matrix(self):
        # 200 of the 576 cells of a 24 x 24 grid: bands of other rows than the whole grid's, same entries
        k, h, resolution = 6.0, 2.0 / 24, 24
        cells = np.sort(np.random.default_rng(5).choice(resolution**2, 200, replace=False))
        whole = interaction_matrix(k, h, resolution, np.arange(resolution**2))
        np.testing.assert_array_equal(interaction_matrix(k, h, resolution, cells), whole[np.ix_(cells, cells)])

    @settings(max_examples=30, deadline=None)
    @given(
        resolution=st.integers(2, 160),
        k_share=st.floats(0.05, 1.0),
        height_share=st.floats(0.0, 1.0),
        width_share=st.floats(0.0, 1.0),
    )
    def test_span_table_equals_the_whole_grid_table_bit_for_bit(self, resolution, k_share, height_share, width_share):
        # no entry depends on the table's extent: not Miller's start, not the number of Hankel terms
        k, h = k_share * np.pi * resolution / 10.0, 2.0 / resolution
        height, width = round(height_share * resolution), round(width_share * resolution)
        whole = _offset_table(k, h, resolution, resolution)
        np.testing.assert_array_equal(_offset_table(k, h, height, width), whole[:height, :width])

    def test_cells_in_a_box_gather_the_whole_grid_matrix(self):
        # the 7 x 11 box of a 120-cell grid spans arguments below the Hankel crossover only
        k, h, resolution = 8.0, 2.0 / 120, 120
        cells = (np.arange(50, 57)[:, None] * resolution + np.arange(30, 41)[None, :]).ravel()
        rows, cols = divmod(cells, resolution)
        whole = _offset_table(k, h, resolution, resolution)
        want = whole[np.abs(rows[:, None] - rows[None, :]), np.abs(cols[:, None] - cols[None, :])]
        np.testing.assert_array_equal(interaction_matrix(k, h, resolution, cells), want)

    @pytest.mark.parametrize("name", ["ex1_1", "ex2_2"])
    def test_in_place_system_equals_eye_minus_k2_g_q_bit_for_bit(self, name):
        scene = preset_scene(name)
        g = contrast_grid(scene, 120)
        cells = np.flatnonzero(g.q != 0.0)
        k = scene.wavenumber
        g_box = interaction_matrix(k, g.h, g.q.shape[1], cells)
        want = np.eye(cells.size, dtype=np.complex128) - k**2 * g_box * g.q.ravel()[cells]
        np.testing.assert_array_equal(system_matrix(g, cells), want)

    def test_system_is_assembled_in_place(self):
        # ex2_2 at grid 120 has N = 1,080 contrast cells; measured peaks in N^2 complex: 4.01 with the
        # identity, k^2 g and k^2 g q as copies and two N^2 index arrays, 1.10 in place (solve and check included),
        # 0.17 matrix-free (GMRES on the FFT-applied operator, its 19-vector basis and the 144 x 168 box)
        g = contrast_grid(preset_scene("ex2_2"), 120)
        n = int(np.count_nonzero(g.q))
        tracemalloc.start()
        try:
            solve_currents(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 16 * n * n

    def test_currents_fill_the_box_and_the_grid_holds_no_operator(self):
        g = contrast_grid(preset_scene("ex1_2"), 120)
        n = int(np.count_nonzero(g.q))
        currents = solve_currents(g)
        # ex1_2's contrast spans 48 x 48 of the 120 x 120 lattice
        assert g.q.shape == (48, 48) and currents.shape == (2, 48, 48)
        assert np.all(currents[:, g.q == 0.0] == 0.0) and np.all(currents[:, g.q != 0.0] != 0.0)
        # the N x N system goes with the solve, and no field is a lattice array or a cached solution:
        # nothing the grid holds is larger than the box's H W floats
        assert sorted(vars(g)) == ["h", "incidences", "q", "wavenumber", "xs", "ys"]
        assert max(np.asarray(v).nbytes for v in vars(g).values()) <= 8 * g.q.size < 16 * n * n

    def test_one_operator_build_serves_every_incidence(self, monkeypatch, tmp_path):
        # one offset table and one fft2 of its circulant (the symbol) per grid, whatever the incidences;
        # every other fft2 transforms an H x W box of currents, padded to the symbol's 2H x 2W by s=
        tables, symbols, boxes = [], [], []
        offset_table, fft2 = forward._offset_table, np.fft.fft2
        monkeypatch.setattr(forward, "_offset_table", lambda *args: tables.append(offset_table(*args)) or tables[-1])

        def counting_fft2(a, s=None, *args, **kwargs):
            t = tables[-1] if tables else np.empty((0, 0))
            if a.shape == (2 * t.shape[0], 2 * t.shape[1]) and np.array_equal(a[: t.shape[0], : t.shape[1]], t):
                symbols.append(a.shape)
            else:
                boxes.append((a.shape, s))
            return fft2(a, s, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft2", counting_fft2)
        # the contrast cells' span (H, W) of each preset at the default forward grid 120
        spans = {"ex1_1": (18, 114), "ex1_2": (48, 48), "ex2_1": (42, 42), "ex2_2": (72, 84)}
        assert sorted(spans) == list(PRESET_NAMES)
        for name in PRESET_NAMES:
            tables.clear(), symbols.clear(), boxes.clear()
            assert main(["simulate", "--preset", name, "--out", str(tmp_path / name)]) == 0
            (height, width), = [t.shape for t in tables]
            assert (height, width) == spans[name], name
            assert symbols == [(2 * height, 2 * width)], name
            assert boxes and set(boxes) == {((height, width), (2 * height, 2 * width))}, name
        scene = preset_scene("ex2_2")
        tables.clear(), symbols.clear()
        data = synthesize_far_field(scene, 120)
        assert len(tables) == len(symbols) == 1
        for j in range(3):
            alone = synthesize_far_field(dataclasses.replace(scene, incidences=(scene.incidences[j],)), 120)
            assert np.max(np.abs(data.samples[j] - alone.samples[0])) <= 1e-14 * np.max(np.abs(alone.samples[0]))
        assert len(tables) == len(symbols) == 4  # one per fresh grid

    @staticmethod
    def _spoil_gmres(monkeypatch, spoil):
        # spoil(x) alters the GMRES result of the second incidence only
        solved = []
        gmres = forward._gmres

        def spoiled(apply, b, cap):
            x = gmres(apply, b, cap)
            solved.append(x)
            return spoil(x) if len(solved) == 2 else x

        monkeypatch.setattr(forward, "_gmres", spoiled)

    def test_bad_solve_for_one_incidence_is_numerical_error(self, monkeypatch):
        self._spoil_gmres(monkeypatch, lambda x: x * (1.0 + 1e-6))
        with pytest.raises(NumericalError, match="incidence 1 \\(relative residual"):
            synthesize_far_field(preset_scene("ex2_2"), 40)

    def test_bad_solve_for_one_incidence_exits_3(self, monkeypatch, tmp_path, capsys):
        self._spoil_gmres(monkeypatch, lambda x: x * (1.0 + 1e-6))
        code = main(["simulate", "--preset", "ex2_2", "--forward-grid", "40", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_singular_system_is_numerical_error(self, monkeypatch):
        # what back substitution on a singular triangular factor gives: no finite solution
        self._spoil_gmres(monkeypatch, lambda x: np.full_like(x, np.nan))
        with pytest.raises(NumericalError, match="incidence 1 \\(relative residual nan\\)"):
            synthesize_far_field(preset_scene("ex2_2"), 40)

    def test_krylov_cap_is_numerical_error(self, monkeypatch):
        # ex2_2 at grid 40 has 120 contrast cells, and GMRES needs more than 3 steps on them
        monkeypatch.setattr(forward, "KRYLOV_BYTES", 3 * 16 * 120)
        with pytest.raises(NumericalError, match="^forward solve for incidence 0 did not converge within 3 GMRES steps"):
            synthesize_far_field(preset_scene("ex2_2"), 40)

    def test_krylov_cap_exits_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(forward, "KRYLOV_BYTES", 3 * 16 * 120)
        code = main(["simulate", "--preset", "ex2_2", "--forward-grid", "40", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: forward solve for incidence 0 did not converge")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_basis_may_take_every_step_below_the_budget(self, monkeypatch):
        # 16 N^2 within the budget: a basis of N vectors, like the dense solve's reach; above it, budget / 16 N
        caps = []
        gmres = forward._gmres
        monkeypatch.setattr(forward, "_gmres", lambda apply, b, cap: caps.append(cap) or gmres(apply, b, cap))
        synthesize_far_field(preset_scene("ex2_2"), 40)
        monkeypatch.setattr(forward, "KRYLOV_BYTES", 16 * 120 * 120 - 1)
        synthesize_far_field(preset_scene("ex2_2"), 40)
        assert caps == [120] * 3 + [119] * 3


# The matrix-free far field against the dense solve's, as a share of pre h^2 max_j sum |I_j|, the bound
# |u_inf| cannot exceed: the worst of 24,000 draws of the property below was 8.8e-15.  As a share of
# max |u_inf| it reached 1.1e-13 in 36,000 draws, where the far field cancels to a few per cent of that bound.
FAR_FIELD_BOUND = 4e-14


class TestMatrixFree:
    @settings(max_examples=30, deadline=None)
    @given(
        resolution=st.integers(8, 60),
        k_share=st.floats(0.05, 1.0),
        scatterers=st.lists(shapes(), min_size=1, max_size=3),
        aperture=apertures(),
        incidence_angles=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=2, max_size=4),
    )
    def test_far_field_matches_the_dense_solve(self, resolution, k_share, scatterers, aperture, incidence_angles):
        k = k_share * np.pi * resolution / 10.0
        incidences = tuple((np.cos(t), np.sin(t)) for t in incidence_angles)
        g = contrast_grid(Scene(k, DOMAIN, tuple(scatterers), incidences, aperture), resolution)
        angles = aperture.receiver_angles()
        currents = dense_currents(g)
        scale = np.abs(green_far_prefactor(k)) * g.cell_area * np.max(np.sum(np.abs(currents), axis=(1, 2)))
        gap = np.max(np.abs(far_field(g, solve_currents(g), angles) - far_field(g, currents, angles)))
        assert gap <= FAR_FIELD_BOUND * scale


class TestBoxProducts:
    @settings(max_examples=40, deadline=None)
    @given(height=st.integers(1, 200), width=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_box_transforms_equal_the_padded_box_bit_for_bit(self, height, width, seed):
        # solve_currents transforms the H x W box with fft2(box, s=...) and inverts only the rows and columns
        # it reads, last axis first as ifft2 does: the same bits as the zero-padded 2H x 2W pair
        draw = np.random.default_rng(seed).normal(size=(4, 2 * height, 2 * width))
        box = draw[0, :height, :width] + 1j * draw[1, :height, :width]
        padded = np.zeros((2 * height, 2 * width), dtype=np.complex128)
        padded[:height, :width] = box
        assert np.array_equal(np.fft.fft2(box, s=padded.shape), np.fft.fft2(padded))
        spectrum = draw[2] + 1j * draw[3]
        trimmed = np.fft.ifft(np.fft.ifft(spectrum, axis=1)[:, :width], axis=0)[:height]
        assert np.array_equal(trimmed, np.fft.ifft2(spectrum)[:height, :width])


# The offset table's largest argument k h (n - 1) sqrt(2) on an n-cell grid at
# >= MIN_CELLS_PER_WAVELENGTH cells per wavelength (k h <= 2 pi / 10), for n up to 1200,
# a grid the matrix-free solve reaches in a few seconds.
LARGEST_TABLE_ARGUMENT = 2.0 * np.pi / MIN_CELLS_PER_WAVELENGTH * 1199 * np.sqrt(2.0)


class TestHankel:
    @settings(max_examples=60, deadline=None)
    @given(
        log_x=st.lists(st.floats(np.log(1e-3), np.log(LARGEST_TABLE_ARGUMENT)), min_size=1, max_size=50),
        order=st.sampled_from([0, 1]),
    )
    def test_matches_scipy_over_the_table_range(self, log_x, order):
        # measured worst case 1.9e-15 on a dense sweep of [1e-3, 1065], next to the crossover at 20
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
    @given(ka=st.floats(MIN_SELF_TERM_ARGUMENT, 0.36), k=st.floats(0.5, 60.0))
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
        angles = sc.aperture.receiver_angles()
        full = far_field(g, solve_currents(g), angles)[0]
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
