r"""Far-field synthesis by a Lippmann-Schwinger volume-integral solver.

The total field obeys u = u^i + k^2 \int_D G(y, .) (n(y) - 1) u(y) dy; we
discretize with piecewise-constant collocation on the cells of a uniform
grid, solve the dense system restricted to contrast-carrying cells, and
radiate the induced current to the far field.  The kernel is gathered from
one table of integer cell offsets, and the system is factored once per grid
and reused by every incidence.  Two independent oracles in the test
suite (Born approximation and the penetrable-disk separation-of-variables
series) validate the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg
from scipy import special as sp

from .errors import NumericalError, ValidationError
from .numerics import directions, plane_waves
from .scene import FarFieldData, Scene, SamplingGrid, refractive_index_grid

MIN_CELLS_PER_WAVELENGTH = 10.0


@dataclass(frozen=True)
class ContrastGrid:
    """Uniform cell-center lattice with contrast values q = n - 1 at wavenumber k."""

    points: np.ndarray  # (n_cells, 2), row-major as SamplingGrid.points
    q: np.ndarray  # (n_cells,)
    h: float  # cell side
    resolution: int
    wavenumber: float

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    @cached_property
    def system(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """I - k^2 G Q on the contrast cells and its LU factors, built on first use.

        Every incidence solves with the same operator, so it is assembled and
        factored once per grid.
        """
        k = self.wavenumber
        cells = np.flatnonzero(self.q != 0.0)
        g = _interaction_matrix(k, self.h, self.resolution, cells)
        a = np.eye(cells.size, dtype=np.complex128) - k**2 * g * self.q[cells][None, :]
        try:
            lu = linalg.lu_factor(a)
        except linalg.LinAlgError as e:  # pragma: no cover - pathological input
            raise NumericalError(f"forward system factorization failed: {e}") from e
        for arr in (a, *lu):
            arr.setflags(write=False)
        return a, lu


def contrast_grid(scene: Scene, resolution: int) -> ContrastGrid:
    if resolution < 1:
        raise ValidationError(f"forward grid must have >= 1 cell per side, got {resolution}")
    dom = scene.domain
    hx = (dom.xmax - dom.xmin) / resolution
    hy = (dom.ymax - dom.ymin) / resolution
    if abs(hx - hy) > 1e-12:
        raise ValidationError("contrast grid requires a square domain box")
    wavelength = 2.0 * np.pi / scene.wavenumber
    if wavelength / hx < MIN_CELLS_PER_WAVELENGTH:
        raise ValidationError(
            f"grid resolves only {wavelength / hx:.1f} cells per wavelength; "
            f"need >= {MIN_CELLS_PER_WAVELENGTH}"
        )
    grid = SamplingGrid(dom, resolution)
    pts = grid.points
    q = refractive_index_grid(scene, pts) - 1.0
    return ContrastGrid(points=pts, q=q, h=hx, resolution=resolution, wavenumber=scene.wavenumber)


@dataclass(frozen=True)
class ForwardSolution:
    """Induced current I = (n - 1) k^2 u on the contrast grid, zero off the scatterers."""

    grid: ContrastGrid
    current: np.ndarray


def _self_term(k: float, h: float) -> complex:
    r"""Integral of G over the cell, via the equal-area disk of radius h/sqrt(pi).

    \int_disk (i/4) H_0^(1)(k|y|) dy = (i pi a / 2k) H_1^(1)(ka) - 1/k^2.
    """
    a = h / np.sqrt(np.pi)
    return (1j * np.pi * a / (2.0 * k)) * sp.hankel1(1, k * a) - 1.0 / k**2


def _interaction_matrix(k: float, h: float, resolution: int, cells: np.ndarray) -> np.ndarray:
    """Integrated Green kernel between the given cells (self cell regularized).

    On the uniform lattice the kernel depends only on the integer offset
    (|di|, |dj|) of two cells, so H_0^(1) is evaluated once on the
    resolution x resolution offset table and gathered; `cells` are row-major
    flat indices, as in SamplingGrid.points.
    """
    offset = np.arange(resolution, dtype=float)
    r = h * np.hypot(offset[:, None], offset[None, :])
    r[0, 0] = 1.0  # placeholder, overwritten below
    table = (1j / 4.0) * sp.hankel1(0, k * r) * h * h
    table[0, 0] = _self_term(k, h)
    rows, cols = divmod(cells, resolution)
    return table[np.abs(rows[:, None] - rows[None, :]), np.abs(cols[:, None] - cols[None, :])]


def solve_scattering(scene: Scene, incidence_index: int, grid: ContrastGrid) -> ForwardSolution:
    """Solve the collocation system on contrast cells for one incidence."""
    k = scene.wavenumber
    if grid.wavenumber != k:
        raise ValidationError(f"contrast grid was built for k = {grid.wavenumber:g}, not the scene's k = {k:g}")
    d = np.asarray(scene.incidences[incidence_index])
    mask = grid.q != 0.0
    u = plane_waves(grid.points, -d[None, :], k)[:, 0]  # u^i = e^{ik d . x}, then u on the contrast cells
    if np.any(mask):
        u[mask] = _lu_solve(grid.system, u[mask])
    return ForwardSolution(grid=grid, current=grid.q * k**2 * u)


def _lu_solve(system, b: np.ndarray) -> np.ndarray:
    a, lu = system
    x = linalg.lu_solve(lu, b)
    resid = np.linalg.norm(a @ x - b) / max(np.linalg.norm(b), 1e-300)
    if not np.all(np.isfinite(x)) or resid > 1e-8:
        cond = np.linalg.cond(a)
        raise NumericalError(
            f"forward system ill-conditioned (relative residual {resid:.2e}, cond ~ {cond:.2e})"
        )
    return x


def green_far_prefactor(k: float) -> complex:
    """e^{i pi/4} / sqrt(8 k pi), the 2-D far-field Green amplitude."""
    return np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * k * np.pi)


def far_field(solution: ForwardSolution, angles, k: float) -> np.ndarray:
    """Radiate the induced current: u_inf(x) = sum_j h^2 G_inf(y_j, x) I_j."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    mask = solution.current != 0.0
    if not np.any(mask):
        return np.zeros(angles.shape, dtype=np.complex128)
    pts = solution.grid.points[mask]
    cur = solution.current[mask]
    # the phase k xhat . y is symmetric in xhat and y; with the angles first the
    # (angles x cells) @ current sum keeps its accumulation order, hence its bits
    waves = plane_waves(directions(angles), pts, k)  # (n_angles, n_cells)
    return green_far_prefactor(k) * solution.grid.cell_area * (waves @ cur)


def synthesize_far_field(scene: Scene, resolution: int = 120) -> FarFieldData:
    """Noiseless far-field data for every incidence at the scene's receivers."""
    grid = contrast_grid(scene, resolution)
    angles = scene.aperture.receiver_angles()
    rows = []
    for j in range(len(scene.incidences)):
        sol = solve_scattering(scene, j, grid)
        rows.append(far_field(sol, angles, scene.wavenumber))
    return FarFieldData(np.array(rows), scene.aperture)
