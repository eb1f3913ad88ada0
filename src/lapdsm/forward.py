r"""Far-field synthesis by a Lippmann-Schwinger volume-integral solver.

The total field obeys u = u^i + k^2 \int_D G(y, .) (n(y) - 1) u(y) dy; we
discretize with piecewise-constant collocation on the cells of a uniform
grid, solve the dense system restricted to contrast-carrying cells, and
radiate the induced current to the far field.  The one path is
`contrast_grid` -> the grid's `currents` -> `far_field`.  The kernel is
gathered band by band from one table of integer cell offsets over the
contrast cells' span, evaluated by the numpy Hankel function below, and turned
into I - k^2 G Q in place, so the system and LAPACK's copy of it are the only
N x N arrays, and neither outlives the solve.  The system is solved once per
grid with every incidence as one right-hand-side column, every column's
residual is checked from one product, and one product per grid radiates every
incidence's current through the lattice's separable plane waves.  Two
independent oracles in the test suite (Born approximation and the
penetrable-disk separation-of-variables series) validate the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, ValidationError
from .numerics import directions, green_far_prefactor, plane_waves
from .scene import FarFieldData, Scene, SamplingGrid, refractive_index_grid

MIN_CELLS_PER_WAVELENGTH = 10.0
# rows of the interaction matrix gathered per band from the offset table
_GATHER_ROWS = 64


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
    def currents(self) -> np.ndarray:
        """Induced currents I = q k^2 u on every cell for every incidence, shape (n_incidences, n_cells).

        Every incidence solves with the same operator, so one LAPACK solve
        takes all incident fields u^i = e^{ik d . x} on the contrast cells as
        columns.  A column that is not finite or whose relative residual
        |A u - u^i| / |u^i| exceeds 1e-8 raises NumericalError.  The currents
        vanish off the contrast cells.
        """
        k = self.wavenumber
        cells = np.flatnonzero(self.q != 0.0)
        a = _system_matrix(self, cells)
        b = plane_waves(self.points, -np.asarray(self.incidences), k)[cells]
        try:
            u = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as e:
            raise NumericalError(f"forward system solve failed: {e}") from e
        resid = np.linalg.norm(a @ u - b, axis=0) / np.maximum(np.linalg.norm(b, axis=0), 1e-300)
        bad = np.flatnonzero(~(np.isfinite(u).all(axis=0) & (resid <= 1e-8)))
        if bad.size:
            j = bad[0]
            raise NumericalError(
                f"forward system ill-conditioned for incidence {j} "
                f"(relative residual {resid[j]:.2e}, cond ~ {np.linalg.cond(a):.2e})"
            )
        currents = np.zeros((len(self.incidences), self.q.size), dtype=np.complex128)
        currents[:, cells] = self.q[cells] * k**2 * u.T
        currents.setflags(write=False)
        return currents


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


# Below this argument H^(1)_n comes from the Bessel series, above it from Hankel's
# expansion, whose smallest term there (~e^{-40}) is far below double precision.
_HANKEL_CROSSOVER = 20.0
# Miller's recurrence starts this far above the largest series argument, whatever the
# arguments of a call, so that each value depends on its own argument alone
_MILLER_START = 2 * int(_HANKEL_CROSSOVER / 2.0 + 20.0)
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
    j_above, j = np.zeros_like(x), np.ones_like(x)
    norm, y0_sum, y1_sum = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for n in range(_MILLER_START, 0, -1):
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
    until the term at the crossover, the largest any x here gives, falls below
    1e-17, so every x sums the same terms; e^{ix} is taken as cos x + i sin x
    so the phase keeps numpy's exact argument reduction.
    """
    mu = 4.0 * order * order
    term = np.ones(x.shape, dtype=np.complex128)
    total = term.copy()
    bound = 1.0
    for k in range(1, 60):
        term *= 1j * (mu - (2 * k - 1) ** 2) / (8.0 * k) / x
        total += term
        bound *= abs(mu - (2 * k - 1) ** 2) / (8.0 * k) / _HANKEL_CROSSOVER
        if bound < 1e-17:
            break
    phase = (np.cos(x) + 1j * np.sin(x)) * np.exp(-0.25j * np.pi * (2 * order + 1))
    return np.sqrt(2.0 / (np.pi * x)) * phase * total


def _self_term(k: float, h: float) -> complex:
    r"""Integral of G over the cell, via the equal-area disk of radius h/sqrt(pi).

    \int_disk (i/4) H_0^(1)(k|y|) dy = (i pi a / 2k) H_1^(1)(ka) - 1/k^2.
    """
    a = h / np.sqrt(np.pi)
    return (1j * np.pi * a / (2.0 * k)) * _hankel1(1, k * a) - 1.0 / k**2


def _span(index: np.ndarray) -> slice:
    """The lattice lines from the smallest index to the largest, none for no index."""
    return slice(int(index.min()), int(index.max()) + 1) if index.size else slice(0, 0)


def _offset_table(k: float, h: float, height: int, width: int) -> np.ndarray:
    """Integrated Green kernel h^2 G at the cell offsets (|di|, |dj|) < (height, width), self cell regularized.

    Each entry depends on its offset alone, not on the table's extent, so a
    table over the contrast cells' span holds the whole-grid table's bits.
    """
    r = h * np.hypot(np.arange(height, dtype=float)[:, None], np.arange(width, dtype=float)[None, :])
    r[:1, :1] = 1.0  # placeholder, overwritten below
    table = (1j / 4.0) * _hankel1(0, k * r) * h * h
    table[:1, :1] = _self_term(k, h)
    return table


def _system_matrix(grid: ContrastGrid, cells: np.ndarray) -> np.ndarray:
    """I - k^2 G Q on the given contrast cells, assembled in place on the gathered G.

    Entry for entry the rounding of eye - k^2 * g * q: 0 - x, then
    1 + (0 - x) = 1 - x on the diagonal.
    """
    k = grid.wavenumber
    a = _interaction_matrix(k, grid.h, grid.resolution, cells)
    a *= k**2
    a *= grid.q[cells]
    np.subtract(0.0, a, out=a)
    a.reshape(-1)[:: cells.size + 1] += 1.0
    return a


def _interaction_matrix(k: float, h: float, resolution: int, cells: np.ndarray) -> np.ndarray:
    """Integrated Green kernel between the given cells (self cell regularized).

    On the uniform lattice the kernel depends only on the integer offset
    (|di|, |dj|) of two cells, so H_0^(1) is evaluated once on the offsets
    the cells span and gathered; `cells` are row-major flat indices, as in
    SamplingGrid.points.
    """
    rows, cols = divmod(cells, resolution)
    height, width = (s.stop - s.start for s in (_span(rows), _span(cols)))
    flat = _offset_table(k, h, height, width).ravel()
    g = np.empty((cells.size, cells.size), dtype=np.complex128)
    for start in range(0, cells.size, _GATHER_ROWS):  # band by band, so no index array is N x N
        band = slice(start, start + _GATHER_ROWS)
        index = np.abs(rows[band, None] - rows[None, :])  # the flat index |di| * width + |dj| of the table
        index *= width
        index += np.abs(cols[band, None] - cols[None, :])
        flat.take(index, out=g[band])
    return g


def far_field(grid: ContrastGrid, currents: np.ndarray, angles) -> np.ndarray:
    """Radiate induced currents: u_inf(xhat) = sum_j h^2 G_inf(y_j, xhat) I_j over the contrast cells y_j.

    currents, shape (n_incidences, n_cells), vanish off the contrast cells,
    so the sum runs over the box of lattice rows and columns those cells span.
    There e^{-ik xhat . y} = ex ey, one factor per axis, and the sum is
    pre h^2 sum_rows ey * (C ex) for the box currents C of each row: one
    product for every incidence and no receivers x cells table.  Returns
    shape (n_incidences, n_angles).
    """
    n, k = grid.resolution, grid.wavenumber
    rows, cols = (_span(a) for a in divmod(np.flatnonzero(grid.q), n))
    xhat = directions(np.atleast_1d(angles))
    ex = plane_waves(grid.points[:n, 0][cols, None], xhat[:, :1], k)
    ey = plane_waves(grid.points[::n, 1][rows, None], xhat[:, 1:], k)
    by_row = np.tensordot(currents.reshape(-1, n, n)[:, rows, cols], ex, axes=1)  # C ex, (incidences, rows, Q)
    return green_far_prefactor(k) * grid.cell_area * np.einsum("jrq,rq->jq", by_row, ey)


def synthesize_far_field(scene: Scene, resolution: int = 120) -> FarFieldData:
    """Noiseless far-field data for every incidence at the scene's receivers."""
    grid = contrast_grid(scene, resolution)
    return FarFieldData(far_field(grid, grid.currents, scene.aperture.receiver_angles()), scene.aperture)
