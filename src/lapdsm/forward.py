r"""Far-field synthesis by a Lippmann-Schwinger volume-integral solver.

The total field obeys u = u^i + k^2 \int_D G(y, .) (n(y) - 1) u(y) dy; we
discretize with piecewise-constant collocation on the cells of a uniform
grid, solve for u on the contrast-carrying cells, and radiate the induced
current to the far field.  The one path is `contrast_grid`, which evaluates
the refractive index near the scatterers' bounding boxes alone and crops it
to the box of rows and columns the contrast spans, -> `solve_currents`
on that box -> `far_field`.  On the lattice the kernel depends on the integer
cell offset alone, so the operator is block-Toeplitz (Vainikko 2000): the
offset table over the box, from the numpy Hankel function below and mirrored
into a circulant, is transformed once per grid, and each product
u - G * (k^2 q u) is one FFT pair of the box.  No N x N array is formed.
Each incidence is solved by unrestarted GMRES (Saad & Schultz 1986) whose
basis is capped by KRYLOV_BYTES, and every solution's residual is checked;
one product per incidence radiates its current through the box's separable
plane waves.  The Born approximation, the penetrable-disk series
and the dense solve this replaced validate the solver in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .numerics import directions, green_far_prefactor, grid_plane_waves, plane_waves
from .scene import FarFieldData, Scene, SamplingGrid, refractive_index_grid

MIN_CELLS_PER_WAVELENGTH = 10.0
# the smallest k h / sqrt(pi) at which _self_term is checked: below it its two 1/k^2 terms cancel to rounding
MIN_SELF_TERM_ARGUMENT = 1e-6
# bytes the forward solve's Krylov basis may hold: min(N, KRYLOV_BYTES / 16 N) GMRES steps on N contrast cells
KRYLOV_BYTES = 256 << 20
# GMRES stops at this relative residual, as near the rounding of one product as it converges to
_GMRES_TOL = 1e-14


@dataclass(frozen=True)
class ContrastGrid:
    """The box of lattice cells the contrast spans: centres xs (W) and ys (H), q = n - 1 (H x W) at wavenumber k."""

    xs: np.ndarray  # (W,) the box's column centres
    ys: np.ndarray  # (H,) its row centres
    q: np.ndarray  # (H, W), row-major as SamplingGrid.points
    h: float  # cell side
    wavenumber: float
    incidences: tuple[tuple[float, float], ...]  # the scene's directions d

    @property
    def cell_area(self) -> float:
        return self.h * self.h


def contrast_grid(scene: Scene, resolution: int) -> ContrastGrid:
    """The scene's contrast on the resolution x resolution lattice, cropped to the rows and columns it spans.

    The index is evaluated only on the lattice lines within a cell of some
    scatterer's bounding box, a cell of slack for the rounding of the box's
    edges, so a small scatterer on a fine lattice costs its box alone.
    """
    if resolution < 1:
        raise ValidationError(f"forward grid must have >= 1 cell per side, got {resolution}")
    dom, k = scene.domain, scene.wavenumber
    hx = (dom.xmax - dom.xmin) / resolution
    hy = (dom.ymax - dom.ymin) / resolution
    if abs(hx - hy) > 1e-12:
        raise ValidationError("contrast grid requires a square domain box")
    wavelength = 2.0 * np.pi / k
    # relative slack of 1e-12: a grid at exactly the minimum must not fail on the rounding of the quotient
    if wavelength / hx < MIN_CELLS_PER_WAVELENGTH * (1.0 - 1e-12):
        raise ValidationError(
            f"grid resolves only {wavelength / hx:.1f} cells per wavelength; "
            f"need >= {MIN_CELLS_PER_WAVELENGTH}"
        )
    if (ka := k * hx / np.sqrt(np.pi)) < MIN_SELF_TERM_ARGUMENT:
        raise ValidationError(
            f"wavenumber {k!r} is too small for cells of side {hx:.6g}: "
            f"k h / sqrt(pi) = {ka:.3g}, need >= {MIN_SELF_TERM_ARGUMENT:g}"
        )
    grid = SamplingGrid(dom, resolution)
    boxes = np.array([s.bounding_box() for s in scene.scatterers]).reshape(-1, 4)
    xs = grid.xs[_near(grid.xs, boxes[:, 0], boxes[:, 1], hx)]
    ys = grid.ys[_near(grid.ys, boxes[:, 2], boxes[:, 3], hx)]
    xx, yy = np.meshgrid(xs, ys)
    q = refractive_index_grid(scene, np.column_stack([xx.ravel(), yy.ravel()])).reshape(len(ys), len(xs)) - 1.0
    rows, cols = (_span(np.flatnonzero(q.any(axis=axis))) for axis in (1, 0))
    return ContrastGrid(xs=xs[cols], ys=ys[rows], q=q[rows, cols].copy(), h=hx, wavenumber=k, incidences=scene.incidences)


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


def _near(centres: np.ndarray, lows: np.ndarray, highs: np.ndarray, h: float) -> slice:
    """The lattice lines from the first to the last centre within h of some interval [low, high]."""
    near = (centres[:, None] >= lows - h) & (centres[:, None] <= highs + h)
    return _span(np.flatnonzero(near.any(axis=1)))


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


def _circulant(table: np.ndarray) -> np.ndarray:
    """The H x W offset table mirrored into a 2H x 2W circulant: entry (i, j) is the kernel at (i, j) mod (2H, 2W).

    Row H and column W hold no offset within the span and stay 0.
    """
    height, width = table.shape
    c = np.zeros((2 * height, 2 * width), dtype=np.complex128)
    c[:height, :width] = table
    c[height + 1 :, :width] = table[:0:-1]
    c[:, width + 1 :] = c[:, width - 1 : 0 : -1]
    return c


def solve_currents(grid: ContrastGrid) -> np.ndarray:
    """Induced currents I = q k^2 u on the box for every incidence, shape (n_incidences, H, W).

    The operator u -> u - G * (k^2 q u) on the N contrast cells is applied
    matrix-free: the offset table over the box, mirrored into a 2H x 2W
    circulant, is transformed once; each product transforms the box padded to
    2H x 2W and inverts only the H x W it reads, last axis first as ifft2
    does, so with ifft2's bits.  Each incident field u^i = e^{ik d . x} is
    solved by _gmres with a basis of at most min(N, KRYLOV_BYTES / 16 N)
    vectors.  An incidence that reaches that cap, or whose solution is not
    finite or misses a relative residual |A u - u^i| / |u^i| of 1e-8, raises
    NumericalError.  The currents vanish off the contrast cells.
    """
    k = grid.wavenumber
    height, width = grid.q.shape
    cells = np.flatnonzero(grid.q)
    currents = np.zeros((len(grid.incidences), height, width), dtype=np.complex128)
    if not cells.size:
        return currents
    symbol = np.fft.fft2(_circulant(_offset_table(k, grid.h, height, width)))
    kq = k**2 * grid.q.ravel()[cells]

    def apply(u: np.ndarray) -> np.ndarray:
        box = np.zeros(grid.q.shape, dtype=np.complex128)
        box.flat[cells] = kq * u
        spectrum = np.fft.fft2(box, s=symbol.shape)
        spectrum *= symbol
        return u - np.fft.ifft(np.fft.ifft(spectrum, axis=1)[:, :width], axis=0)[:height].ravel()[cells]

    cap = min(cells.size, KRYLOV_BYTES // (16 * cells.size))
    rows, cols = divmod(cells, width)
    b = plane_waves(np.column_stack([grid.xs[cols], grid.ys[rows]]), -np.asarray(grid.incidences), k)
    for j in range(b.shape[1]):
        u = _gmres(apply, b[:, j], cap)
        if u is None:
            raise NumericalError(
                f"forward solve for incidence {j} did not converge within {cap} GMRES steps "
                f"(the Krylov basis is capped at {KRYLOV_BYTES >> 20} MiB)"
            )
        resid = _norm(apply(u) - b[:, j]) / _norm(b[:, j])
        if not (np.isfinite(u).all() and resid <= 1e-8):
            raise NumericalError(f"forward system ill-conditioned for incidence {j} (relative residual {resid:.2e})")
        currents[j].flat[cells] = kq * u  # q k^2 u: the product of two floats does not depend on their order
    return currents


def _dot(a: np.ndarray, b: np.ndarray) -> complex:
    """sum conj(a) b by numpy's pairwise sum: np.vdot's BLAS splits sums over 10,000 terms by thread count."""
    return complex(np.sum(a.conj() * b))


def _norm(a: np.ndarray) -> float:
    return float(np.sqrt(_dot(a, a).real))


def _gmres(apply, b: np.ndarray, cap: int) -> np.ndarray | None:
    """x with |apply(x) - b| <= _GMRES_TOL |b| by unrestarted GMRES from 0, or None if `cap` steps do not reach it.

    Arnoldi by modified Gram-Schmidt, the Hessenberg least-squares problem
    reduced by complex Givens rotations as it grows (Saad & Schultz 1986).
    The basis and the triangular factor grow by one vector a step, so
    nothing is held for steps not taken.
    """
    beta = _norm(b)
    basis = [b / beta]
    columns: list[np.ndarray] = []  # the triangular factor R, column by column
    cs: list[float] = []
    sn: list[complex] = []
    g = [complex(beta)]  # Q^H beta e_1
    for j in range(cap):
        w = apply(basis[j])
        h = []
        for v in basis:
            h.append(_dot(v, w))
            w -= h[-1] * v
        below = _norm(w)
        for i in range(j):
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i].conjugate() * h[i]
        r = float(np.hypot(abs(h[j]), below))
        if r == 0.0:  # the operator is singular on the Krylov space
            return None
        phase = h[j] / abs(h[j]) if h[j] != 0.0 else 1.0
        cs.append(abs(h[j]) / r)
        sn.append(phase * below / r)
        h[j] = phase * r
        columns.append(np.array(h))
        g.append(-sn[j].conjugate() * g[j])
        g[j] *= cs[j]
        if abs(g[j + 1]) <= _GMRES_TOL * beta:
            y = np.array(g[: j + 1])
            for i in range(j, -1, -1):  # back substitution by columns: no reductions
                y[i] /= columns[i][i]
                y[:i] -= y[i] * columns[i][:i]
            x = y[0] * basis[0]
            for yi, v in zip(y[1:], basis[1:]):
                x += yi * v
            return x
        basis.append(w / below)
    return None


def far_field(grid: ContrastGrid, currents: np.ndarray, angles) -> np.ndarray:
    """Radiate induced currents: u_inf(xhat) = sum_j h^2 G_inf(y_j, xhat) I_j over the box's cells y_j.

    On the box e^{-ik xhat . y} = ex ey, one factor per axis, and the sum is
    pre h^2 sum_rows ey * (C ex) for the currents C of each row: one product
    per incidence, so neither a receivers x cells table nor an incidences x
    rows x receivers one is held.  currents have shape (n_incidences, H, W);
    returns shape (n_incidences, n_angles).
    """
    k = grid.wavenumber
    ex, ey = grid_plane_waves(grid, directions(np.atleast_1d(angles)), k)
    radiated = np.empty((len(currents), ex.shape[1]), dtype=np.complex128)
    for j, c in enumerate(currents):
        radiated[j] = np.einsum("rq,rq->q", c @ ex, ey)
    return green_far_prefactor(k) * grid.cell_area * radiated


def synthesize_far_field(scene: Scene, resolution: int) -> FarFieldData:
    """Noiseless far-field data for every incidence at the scene's receivers."""
    grid = contrast_grid(scene, resolution)
    return FarFieldData(far_field(grid, solve_currents(grid), scene.aperture.receiver_angles()), scene.aperture)
