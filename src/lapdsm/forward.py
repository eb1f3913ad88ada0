r"""Far-field synthesis by a Lippmann-Schwinger volume-integral solver.

The total field obeys u = u^i + k^2 \int_D G(y, .) (n(y) - 1) u(y) dy; we
discretize with piecewise-constant collocation on the cells of a uniform
grid, solve the dense system restricted to contrast-carrying cells, and
radiate the induced current to the far field.  The kernel is gathered from
one table of integer cell offsets, evaluated by the numpy Hankel function
below, and the system is solved once per grid with every incidence as one
right-hand-side column.  Two independent oracles in the test suite (Born
approximation and the penetrable-disk separation-of-variables series)
validate the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, ValidationError
from .numerics import directions, green_far_prefactor, plane_waves
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
    incidences: tuple[tuple[float, float], ...]  # the scene's directions d

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    @cached_property
    def incident(self) -> np.ndarray:
        """u^i = e^{ik d . x} at every cell for every incidence d, shape (n_cells, n_incidences)."""
        waves = plane_waves(self.points, -np.asarray(self.incidences), self.wavenumber)
        waves.setflags(write=False)
        return waves

    @cached_property
    def system(self) -> tuple[np.ndarray, np.ndarray]:
        """I - k^2 G Q on the contrast cells and the total field u it gives for every incidence.

        Every incidence solves with the same operator, so it is assembled once
        per grid and one LAPACK solve takes all incident fields as columns;
        u has shape (contrast cells, n_incidences).
        """
        k = self.wavenumber
        cells = np.flatnonzero(self.q != 0.0)
        g = _interaction_matrix(k, self.h, self.resolution, cells)
        a = np.eye(cells.size, dtype=np.complex128) - k**2 * g * self.q[cells][None, :]
        try:
            u = np.linalg.solve(a, self.incident[cells])
        except np.linalg.LinAlgError as e:
            raise NumericalError(f"forward system solve failed: {e}") from e
        for arr in (a, u):
            arr.setflags(write=False)
        return a, u


def contrast_grid(scene: Scene, resolution: int) -> ContrastGrid:
    if resolution < 1:
        raise ValidationError(f"forward grid must have >= 1 cell per side, got {resolution}")
    dom = scene.domain
    hx = (dom.xmax - dom.xmin) / resolution
    hy = (dom.ymax - dom.ymin) / resolution
    if abs(hx - hy) > 1e-12:
        raise ValidationError("contrast grid requires a square domain box")
    wavelength = 2.0 * np.pi / scene.wavenumber
    # relative slack of 1e-12: a grid at exactly the minimum must not fail on the rounding of the quotient
    if wavelength / hx < MIN_CELLS_PER_WAVELENGTH * (1.0 - 1e-12):
        raise ValidationError(
            f"grid resolves only {wavelength / hx:.1f} cells per wavelength; "
            f"need >= {MIN_CELLS_PER_WAVELENGTH}"
        )
    grid = SamplingGrid(dom, resolution)
    pts = grid.points
    q = refractive_index_grid(scene, pts) - 1.0
    return ContrastGrid(
        points=pts, q=q, h=hx, resolution=resolution, wavenumber=scene.wavenumber, incidences=scene.incidences
    )


@dataclass(frozen=True)
class ForwardSolution:
    """Induced current I = (n - 1) k^2 u on the contrast grid, zero off the scatterers."""

    grid: ContrastGrid
    current: np.ndarray


# Below this argument H^(1)_n comes from the Bessel series, above it from Hankel's
# expansion, whose smallest term there (~e^{-40}) is far below double precision.
_HANKEL_CROSSOVER = 20.0
_EULER_GAMMA = 0.5772156649015329


def _hankel1(order: int, x) -> np.ndarray:
    """H^(1)_order(x) = J_order(x) + i Y_order(x) for order 0 or 1 and x > 0, elementwise."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape, dtype=np.complex128)
    near = flat < _HANKEL_CROSSOVER
    out[near] = _hankel1_series(order, flat[near])
    out[~near] = _hankel1_asymptotic(order, flat[~near])
    return out.reshape(x.shape)


def _hankel1_series(order: int, x: np.ndarray) -> np.ndarray:
    """H^(1)_order for 0 < x < _HANKEL_CROSSOVER from one sequence of J_n.

    Miller's backward recurrence J_{n-1} = (2n/x) J_n - J_{n+1}, started far
    above x where J_n is negligible and normalized by J_0 + 2 sum J_2k = 1,
    gives J_0 and J_1.  Neumann's series Y_0 = (2/pi)(ln(x/2) + gamma) J_0
    - (4/pi) sum (-1)^k J_2k / k gives Y_0, and its term-by-term derivative
    (J_n' = (J_{n-1} - J_{n+1})/2) gives Y_1 = -Y_0' = (2/pi)(ln(x/2) + gamma) J_1
    - (2/pi) J_0 / x + (2/pi) sum (-1)^k (J_{2k-1} - J_{2k+1}) / k, valid where
    the Wronskian route, which divides by J_0, is not.
    """
    if x.size == 0:
        return np.empty(0, dtype=np.complex128)
    start = 2 * int(x.max() / 2.0 + 20.0)
    j_above, j = np.zeros_like(x), np.ones_like(x)
    norm, y0_sum, y1_sum = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for n in range(start, 0, -1):
        if n % 2 == 0:
            k = n // 2
            norm += 2.0 * j
            y0_sum += ((-1) ** k / k) * j
        else:  # odd J_n enters sum (-1)^k (J_{2k-1} - J_{2k+1}) / k at 2k = n + 1 and 2k = n - 1
            k = (n + 1) // 2
            y1_sum += (-1) ** k * (1.0 / k + (1.0 / (k - 1) if k > 1 else 0.0)) * j
        j_above, j = j, (2.0 * n / x) * j - j_above
        big = np.abs(j) > 1e200  # small x: the unnormalized sequence grows like (2n/x)^n
        if big.any():
            for arr in (j, j_above, norm, y0_sum, y1_sum):
                arr[big] *= 1e-200
    norm += j
    j0, j1 = j / norm, j_above / norm
    log_term = (2.0 / np.pi) * (np.log(0.5 * x) + _EULER_GAMMA)
    if order == 0:
        return j0 + 1j * (log_term * j0 - (4.0 / np.pi) * y0_sum / norm)
    return j1 + 1j * (log_term * j1 - (2.0 / np.pi) * j0 / x + (2.0 / np.pi) * y1_sum / norm)


def _hankel1_asymptotic(order: int, x: np.ndarray) -> np.ndarray:
    """Hankel's expansion (DLMF 10.17.5) for x >= _HANKEL_CROSSOVER.

    sqrt(2/(pi x)) e^{i(x - order pi/2 - pi/4)} sum_k i^k a_k / x^k, summed
    until a term falls below 1e-17; e^{ix} is taken as cos x + i sin x so the
    phase keeps numpy's exact argument reduction.
    """
    mu = 4.0 * order * order
    term = np.ones(x.shape, dtype=np.complex128)
    total = term.copy()
    for k in range(1, 60):
        term *= 1j * (mu - (2 * k - 1) ** 2) / (8.0 * k) / x
        total += term
        if np.max(np.abs(term), initial=0.0) < 1e-17:
            break
    phase = (np.cos(x) + 1j * np.sin(x)) * np.exp(-0.25j * np.pi * (2 * order + 1))
    return np.sqrt(2.0 / (np.pi * x)) * phase * total


def _self_term(k: float, h: float) -> complex:
    r"""Integral of G over the cell, via the equal-area disk of radius h/sqrt(pi).

    \int_disk (i/4) H_0^(1)(k|y|) dy = (i pi a / 2k) H_1^(1)(ka) - 1/k^2.
    """
    a = h / np.sqrt(np.pi)
    return (1j * np.pi * a / (2.0 * k)) * _hankel1(1, k * a) - 1.0 / k**2


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
    table = (1j / 4.0) * _hankel1(0, k * r) * h * h
    table[0, 0] = _self_term(k, h)
    rows, cols = divmod(cells, resolution)
    return table[np.abs(rows[:, None] - rows[None, :]), np.abs(cols[:, None] - cols[None, :])]


def solve_scattering(scene: Scene, incidence_index: int, grid: ContrastGrid) -> ForwardSolution:
    """The induced current of one incidence, read from the grid's one solve for all incidences."""
    k = scene.wavenumber
    if grid.wavenumber != k:
        raise ValidationError(f"contrast grid was built for k = {grid.wavenumber:g}, not the scene's k = {k:g}")
    if grid.incidences != scene.incidences:
        raise ValidationError("contrast grid was built for other incidence directions than the scene's")
    mask = grid.q != 0.0
    u = grid.incident[:, incidence_index].copy()  # then u on the contrast cells
    if np.any(mask):
        a, solved = grid.system
        u[mask] = _checked(a, u[mask], solved[:, incidence_index])
    return ForwardSolution(grid=grid, current=grid.q * k**2 * u)


def _checked(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x, once its relative residual |Ax - b| / |b| shows it solves A x = b."""
    resid = np.linalg.norm(a @ x - b) / max(np.linalg.norm(b), 1e-300)
    if not np.all(np.isfinite(x)) or resid > 1e-8:
        cond = np.linalg.cond(a)
        raise NumericalError(
            f"forward system ill-conditioned (relative residual {resid:.2e}, cond ~ {cond:.2e})"
        )
    return x


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
