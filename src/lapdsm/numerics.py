"""Plane waves, Fourier modes, the arc-mode table and the quadrature rules used throughout the package.

Every probe in the package is built from two arrays: the plane wave
e^{-ik xhat . z} and the Fourier modes e^{in theta} on the aperture.  Both,
and the far-field Green amplitude that turns a plane wave into G_inf, are
evaluated here and nowhere else in the package.  The receiver quadrature
is a per-arc uniform-weight Riemann sum, the same discrete rule the training
loss uses, so that reconstruction and learning agree on the meaning of an
inner product on the aperture.  Inner products over the full circle S^1 use
the trapezoid rule of circle_angles, which replaces every Bessel closed form
outside the forward solver.  Integrals of Fourier modes over the aperture
come in closed form from one table, arc_mode_table, so no quadrature rule of
the arcs is needed.  On a sampling grid the plane wave splits into
one factor per axis, and grid_band_waves multiplies it out for one band of
whole grid rows at a time, so a finite-space probe is filled in its one
n * n x Q buffer and the network probe is never built for the whole grid.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import ValidationError

# grid rows per band of grid_bands: 2,048 points at grid 128
GRID_BLOCK_ROWS = 16

# bytes of the widest array one block of blocks holds: 1,024 points of the network's 200 activations
BLOCK_BYTES = 1600 << 10

# the most float64 values one array can address: a larger circle rule is an input error
_MAX_ANGLES = np.iinfo(np.intp).max // 8


def directions(angles) -> np.ndarray:
    """Unit vectors xhat(theta) = (cos theta, sin theta), shape (n_angles, 2)."""
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def plane_waves(points, xhat, k: float) -> np.ndarray:
    """e^{-ik xhat . p} for points p (..., 2) and unit directions xhat (Q, 2), shape (..., Q).

    The one plane-wave evaluation of the package: probes, far-field Green
    functions and radiation sums use it as is, and an incident wave
    e^{ik d . x} is the plane wave of direction -d.  It fills one complex
    array with cos - i sin of the real phase k (p . xhat), which is ~10x
    cheaper than exp of an imaginary array and needs no complex temporaries.
    """
    phase = np.asarray(points, dtype=float) @ np.asarray(xhat, dtype=float).T
    phase *= k
    waves = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=waves.real)
    # 0 - sin, not -sin: a zero phase keeps the +0 imaginary part that cos - 1j * sin gives
    np.subtract(0.0, np.sin(phase, out=phase), out=waves.imag)
    return waves


def grid_plane_waves(grid, xhat, k: float) -> tuple[np.ndarray, np.ndarray]:
    """e^{-ik xhat . z} = e^{-ik x cos t} e^{-ik y sin t} on a grid's axes xs, ys: the factors ex, ey, (len, Q)."""
    xhat = np.asarray(xhat, dtype=float)
    return plane_waves(grid.xs[:, None], xhat[:, :1], k), plane_waves(grid.ys[:, None], xhat[:, 1:], k)


def blocks(count: int, row_bytes: int) -> list[slice]:
    """The fewest near-equal slices of count rows within BLOCK_BYTES at row_bytes a row, or of one row each.

    Never a short last slice of a few rows, for the reason grid_bands gives.
    """
    n = -(-count // max(1, BLOCK_BYTES // row_bytes))
    return [slice(count * i // n, count * (i + 1) // n) for i in range(n)]


def grid_bands(resolution: int) -> list[slice]:
    """Bands of GRID_BLOCK_ROWS whole grid rows, as slices of the row-major grid points.

    The last band takes the remainder, so none is shorter than that or the
    whole grid: BLAS rounds a product of a few rows by other kernels than one
    of many (OpenBLAS's small-matrix and thread-split paths), and at this
    length a band's products keep the bits of the whole-grid product.  A
    matrix-vector product may still split a band at other rows than the whole
    grid, which moves a few of its entries by an ulp.  The bands count rows,
    not bytes as blocks does: BLOCK_BYTES would make 8-row bands at grid 128
    and 100 receivers, which ran an ffsm reconstruct at three sigmas 4-9 %
    slower in median, and near-equal bands move rn's bits at grids 33 and 130.
    """
    n = resolution
    edges = [*range(0, max(n // GRID_BLOCK_ROWS, 1) * GRID_BLOCK_ROWS, GRID_BLOCK_ROWS), n]
    return [slice(start * n, stop * n) for start, stop in zip(edges[:-1], edges[1:])]


def grid_band_waves(grid, xhat, k: float) -> Callable[..., np.ndarray]:
    """The plane waves ey x ex of one band of grid_bands, as a function of the band's slice of grid.points.

    Each call returns shape (band points, Q): plane_waves of those points to
    rounding.  Given add_to, an array of that shape, it adds the waves into
    it one grid row at a time instead, with the same bits, and returns it.
    Only the axis factors are held between calls, so a grid probe is built
    band by band and no array of the whole grid's waves exists.
    """
    ex, ey = grid_plane_waves(grid, xhat, k)
    n = grid.resolution

    def waves(rows: slice, add_to: np.ndarray | None = None) -> np.ndarray:
        band = ey[rows.start // n : rows.stop // n]
        if add_to is None:
            return (band[:, None, :] * ex[None, :, :]).reshape(-1, ex.shape[1])
        for i, e in enumerate(band):
            add_to[i * n : (i + 1) * n] += e * ex
        return add_to

    return waves


def green_far_prefactor(k: float) -> complex:
    """e^{i pi/4} / sqrt(8 k pi), the 2-D far-field Green amplitude: G_inf(z, xhat) is it times e^{-ik xhat . z}."""
    return np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * k * np.pi)


def fourier_modes(order: int, angles) -> np.ndarray:
    """e^{in theta} for n = -order..order, shape (2*order+1, n_angles), as cos + i sin."""
    phase = np.outer(np.arange(-order, order + 1), angles)
    return np.cos(phase) + 1j * np.sin(phase)


def reach(points) -> float:
    """Largest distance of the points (..., 2) from the origin, 0 for no points."""
    p = np.asarray(points, dtype=float)
    return float(np.max(np.hypot(p[..., 0], p[..., 1]), initial=0.0))


def circle_angles(k: float, reach: float, order: int = 0) -> np.ndarray:
    """T equispaced angles 2 pi t / T, the trapezoid rule for full-circle inner products.

    T is order plus the first nu with (k reach / 2)^nu / nu! < 1e-16, a bound on
    |J_nu(k reach)| (DLMF 10.14.4).  The Fourier coefficients of a plane wave of
    a point within reach are J_nu (Jacobi-Anger), so against modes up to order
    every aliased term of the rule is below 1e-16.  A rule of more angles than
    one float64 array can address is an input error.
    """
    half = 0.5 * k * reach
    if not math.isfinite(half):
        raise ValidationError(f"circle rule needs a finite k * reach, got {k} * {reach}")
    t = order + _tail_order(half)
    if t > _MAX_ANGLES:
        raise ValidationError(f"k * reach = {k * reach:.6g} needs a circle rule of more than {_MAX_ANGLES} angles")
    return 2.0 * np.pi * np.arange(t) / t


def _tail_order(half: float) -> int:
    """The first nu >= 1 with half^nu / nu! < 1e-16: 1 for half <= 0, and _MAX_ANGLES + 1 for half beyond it.

    Compared in logs, where the bound does not overflow.  The log rises up to
    nu = half and falls after it, so nu is doubled from there, then bisected:
    O(log nu) evaluations of the expression that counting nu up would compare.
    """
    if half <= 0.0:
        return 1
    if half > _MAX_ANGLES:  # the first nu lies beyond half
        return _MAX_ANGLES + 1
    log_half, log_floor = math.log(half), math.log(1e-16)

    def above(nu: int) -> bool:
        return nu * log_half - math.lgamma(nu + 1) >= log_floor

    below, nu = 0, max(1, int(half))
    while above(nu):  # the first nu lies beyond
        below, nu = nu, 2 * nu
    while nu - below > 1:  # the first nu lies in (below, nu]
        mid = (below + nu) // 2
        below, nu = (mid, nu) if above(mid) else (below, mid)
    return nu


def arc_mode_table(aperture, order: int) -> np.ndarray:
    """I[d] = sum_l e^{i d beta_l} * (alpha_l if d == 0 else sin(alpha_l d)/d) for d = -order..order.

    I[d] is half the aperture integral of e^{i d t}: the finite-space Gram
    matrices gather from this table, and the aperture kernel's circle-rule
    weights are folded from it.
    """
    d = np.arange(-order, order + 1)
    table = np.zeros(d.shape, dtype=np.complex128)
    for arc in aperture.arcs:
        c = np.where(d == 0, arc.alpha, np.sin(arc.alpha * d) / np.where(d == 0, 1, d))
        table += np.exp(1j * d * arc.beta) * c
    return table


def circle_modes(order: int, size: int) -> np.ndarray:
    """e^{in t} for n = -order..order at the size angles of circle_angles, shape (2*order+1, size).

    The phase is reduced to 2 pi (n j mod size) / size in integers first, so
    it stays below 2 pi: at the float angles fourier_modes loses |n t| ulps
    of phase, which the cancelling circle sums would carry into their
    smallest entries.
    """
    phase = np.outer(np.arange(-order, order + 1), np.arange(size)) % size * (2.0 * np.pi / size)
    return np.cos(phase) + 1j * np.sin(phase)


def arc_quadrature(values, aperture) -> complex:
    """Riemann sum of receiver samples against the aperture's arc weights.

    Weight of each receiver is (arc length) / (receivers on that arc), so a
    constant 1 integrates to the measure of the aperture.
    """
    values = np.asarray(values)
    w = aperture.quadrature_weights()
    if values.shape[-1] != w.shape[0]:
        raise ValidationError(
            f"value count {values.shape[-1]} does not match receiver count {w.shape[0]}"
        )
    return values @ w


def arc_norm(values, aperture) -> np.ndarray:
    """Discrete L2(Gamma) norm of receiver samples, row by row over the last axis, shape values.shape[:-1]."""
    squares = np.abs(values)
    np.square(squares, out=squares)  # in place: no second array of the values' size
    return np.sqrt(np.real(arc_quadrature(squares, aperture)))
